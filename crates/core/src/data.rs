//! Synthetic workload generators.
//!
//! The original system trains on a web-scale multimodal corpus we do not
//! have. What the experiments actually need from data is (a) a *learnable*
//! next-token structure so convergence is measurable, and (b) a
//! *controllable token-frequency skew* so gate load balancing is stressed
//! the way natural language (Zipfian by nature) stresses it. Both are
//! provided here, deterministically per `(seed, rank, step)`.

use bagualu_tensor::rng::{Rng, Zipf};

/// How token identities are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenDistribution {
    /// Uniform over the vocabulary.
    Uniform,
    /// Zipf with exponent `s` (s = 0 is uniform; s ≈ 1 is natural language).
    Zipf(f64),
    /// Adversarial: every token in a batch is the same (rotating per step) —
    /// the worst case for expert load balance.
    Burst,
}

/// A deterministic synthetic language-modelling task: the target of token
/// `t` is `(a·t + b) mod vocab`, a bijective map a small model can learn to
/// near-zero loss. Inputs are drawn from the configured distribution.
#[derive(Debug, Clone)]
pub struct SyntheticLM {
    pub(crate) vocab: usize,
    pub(crate) dist: TokenDistribution,
    a: usize,
    b: usize,
    zipf: Option<Zipf>,
}

impl SyntheticLM {
    /// `a` must be coprime with `vocab` for the map to be bijective; the
    /// constructor picks a valid multiplier from the seed.
    pub fn new(vocab: usize, dist: TokenDistribution, seed: u64) -> SyntheticLM {
        assert!(vocab >= 2);
        let mut rng = Rng::seed_from(seed);
        // Find a multiplier coprime with vocab.
        let a = loop {
            let cand = 1 + rng.below(vocab - 1);
            if gcd(cand, vocab) == 1 {
                break cand;
            }
        };
        let b = rng.below(vocab);
        let zipf = match dist {
            TokenDistribution::Zipf(s) => Some(Zipf::new(vocab, s)),
            _ => None,
        };
        SyntheticLM {
            vocab,
            dist,
            a,
            b,
            zipf,
        }
    }

    /// The target for an input token.
    pub fn target_of(&self, token: usize) -> usize {
        (self.a * token + self.b) % self.vocab
    }

    /// Generate `(tokens, targets)` for one batch of `batch × seq` tokens.
    /// Deterministic in `(rank, step)` so every run is reproducible and
    /// every rank sees distinct data.
    pub fn batch(
        &self,
        batch: usize,
        seq: usize,
        rank: usize,
        step: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::for_rank(0xDA7A ^ (step as u64) << 20, rank);
        let n = batch * seq;
        let tokens: Vec<usize> = (0..n)
            .map(|_| match self.dist {
                TokenDistribution::Uniform => rng.below(self.vocab),
                TokenDistribution::Zipf(_) => {
                    self.zipf.as_ref().expect("zipf sampler").sample(&mut rng)
                }
                TokenDistribution::Burst => step % self.vocab,
            })
            .collect();
        let targets = tokens.iter().map(|&t| self.target_of(t)).collect();
        (tokens, targets)
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Which modality a token belongs to in the multimodal task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    Text,
    Image,
}

/// A synthetic **multimodal** pretraining task, mirroring the image+text
/// corpora brain-scale models train on: each sequence is an image-patch
/// prefix followed by a caption. The vocabulary is split into disjoint
/// ranges — image "patch tokens" first, text tokens after — and each
/// modality has its own successor map, so the model (and, interestingly,
/// the MoE gate) can specialize per modality. Experiment E17 measures that
/// specialization.
#[derive(Debug, Clone)]
pub struct MultimodalLM {
    /// Image patch tokens occupy `[0, image_vocab)`.
    pub(crate) image_vocab: usize,
    /// Text tokens occupy `[image_vocab, image_vocab + text_vocab)`.
    pub(crate) text_vocab: usize,
    image_task: SyntheticLM,
    text_task: SyntheticLM,
}

impl MultimodalLM {
    pub fn new(image_vocab: usize, text_vocab: usize, seed: u64) -> MultimodalLM {
        MultimodalLM {
            image_vocab,
            text_vocab,
            image_task: SyntheticLM::new(image_vocab, TokenDistribution::Uniform, seed),
            text_task: SyntheticLM::new(text_vocab, TokenDistribution::Zipf(0.8), seed ^ 0x99),
        }
    }

    /// Total vocabulary size (a model config needs `vocab >= total_vocab`).
    pub fn total_vocab(&self) -> usize {
        self.image_vocab + self.text_vocab
    }

    /// Modality of a token id.
    pub fn modality_of(&self, token: usize) -> Modality {
        if token < self.image_vocab {
            Modality::Image
        } else {
            Modality::Text
        }
    }

    /// The within-modality next-token target.
    pub(crate) fn target_of(&self, token: usize) -> usize {
        match self.modality_of(token) {
            Modality::Image => self.image_task.target_of(token),
            Modality::Text => self.image_vocab + self.text_task.target_of(token - self.image_vocab),
        }
    }

    /// Generate `(tokens, targets)`: each sequence of length `seq` is
    /// `seq/2` image patches followed by `seq - seq/2` text tokens.
    pub fn batch(
        &self,
        batch: usize,
        seq: usize,
        rank: usize,
        step: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let img_len = seq / 2;
        let (img, _) = self.image_task.batch(batch, img_len.max(1), rank, step);
        let (txt, _) = self
            .text_task
            .batch(batch, (seq - img_len).max(1), rank, step);
        let mut tokens = Vec::with_capacity(batch * seq);
        for b in 0..batch {
            tokens.extend(img[b * img_len.max(1)..][..img_len].iter().copied());
            tokens.extend(
                txt[b * (seq - img_len).max(1)..][..seq - img_len]
                    .iter()
                    .map(|&t| t + self.image_vocab),
            );
        }
        let targets = tokens.iter().map(|&t| self.target_of(t)).collect();
        (tokens, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_are_bijective() {
        let task = SyntheticLM::new(64, TokenDistribution::Uniform, 1);
        let mut seen = [false; 64];
        for t in 0..64 {
            let y = task.target_of(t);
            assert!(!seen[y], "target {y} repeated");
            seen[y] = true;
        }
    }

    #[test]
    fn batches_are_deterministic_and_rank_distinct() {
        let task = SyntheticLM::new(64, TokenDistribution::Uniform, 2);
        let (a1, _) = task.batch(2, 8, 0, 5);
        let (a2, _) = task.batch(2, 8, 0, 5);
        assert_eq!(a1, a2);
        let (b1, _) = task.batch(2, 8, 1, 5);
        assert_ne!(a1, b1);
        let (c1, _) = task.batch(2, 8, 0, 6);
        assert_ne!(a1, c1);
    }

    #[test]
    fn targets_match_map() {
        let task = SyntheticLM::new(32, TokenDistribution::Uniform, 3);
        let (tokens, targets) = task.batch(1, 16, 0, 0);
        for (&t, &y) in tokens.iter().zip(&targets) {
            assert_eq!(y, task.target_of(t));
        }
    }

    #[test]
    fn zipf_batches_are_skewed() {
        let task = SyntheticLM::new(100, TokenDistribution::Zipf(1.2), 4);
        let (tokens, _) = task.batch(16, 64, 0, 0);
        let head = tokens.iter().filter(|&&t| t < 5).count();
        assert!(
            head as f64 / tokens.len() as f64 > 0.3,
            "zipf head share {}",
            head as f64 / tokens.len() as f64
        );
    }

    #[test]
    fn burst_batches_are_constant() {
        let task = SyntheticLM::new(50, TokenDistribution::Burst, 5);
        let (tokens, _) = task.batch(2, 4, 3, 7);
        assert!(tokens.iter().all(|&t| t == 7));
        let (tokens, _) = task.batch(2, 4, 3, 51);
        assert!(tokens.iter().all(|&t| t == 1));
    }

    #[test]
    fn multimodal_layout_and_targets() {
        let task = MultimodalLM::new(16, 48, 7);
        assert_eq!(task.total_vocab(), 64);
        let (tokens, targets) = task.batch(2, 8, 0, 3);
        assert_eq!(tokens.len(), 16);
        for b in 0..2 {
            // First half image tokens, second half text tokens.
            for i in 0..4 {
                assert_eq!(task.modality_of(tokens[b * 8 + i]), Modality::Image);
            }
            for i in 4..8 {
                assert_eq!(task.modality_of(tokens[b * 8 + i]), Modality::Text);
            }
        }
        // Targets stay within their modality's range.
        for (&t, &y) in tokens.iter().zip(&targets) {
            assert_eq!(
                task.modality_of(t),
                task.modality_of(y),
                "target crossed modality"
            );
            assert_eq!(y, task.target_of(t));
        }
    }

    #[test]
    fn multimodal_is_deterministic_per_rank_step() {
        let task = MultimodalLM::new(8, 8, 1);
        assert_eq!(task.batch(1, 8, 0, 0), task.batch(1, 8, 0, 0));
        assert_ne!(task.batch(1, 8, 0, 0).0, task.batch(1, 8, 1, 0).0);
    }

    #[test]
    fn all_tokens_in_vocab() {
        for dist in [
            TokenDistribution::Uniform,
            TokenDistribution::Zipf(0.8),
            TokenDistribution::Burst,
        ] {
            let task = SyntheticLM::new(17, dist, 6);
            let (tokens, targets) = task.batch(4, 8, 2, 9);
            assert!(tokens.iter().all(|&t| t < 17));
            assert!(targets.iter().all(|&t| t < 17));
        }
    }
}
