//! Deterministic random number generation.
//!
//! Reproducibility across ranks matters for distributed training: every rank
//! must derive its stream from `(seed, rank)` so runs are bit-reproducible
//! regardless of thread scheduling. We wrap `rand`'s `StdRng` and add the few
//! distributions training needs (normal via Box–Muller, Zipf for skewed token
//! streams) so no extra distribution crate is required.

use rand::{Rng as _, RngCore, SeedableRng};

/// What the bulk tensor fills (`Tensor::randn`, `xavier`, `uniform`) do with
/// a stream inside [`Rng::with_fills`]. Ordered: of two nested scopes the
/// later variant wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fills {
    /// Draw every element — how a stream starts.
    Draw,
    /// Step the stream past the elements ([`Rng::skip_normals`] /
    /// [`Rng::skip_uniforms`]) and return zeros of the right shape, straight
    /// from `calloc` and never touched: for a layer whose values a
    /// checkpoint load will supply.
    SkipToZeros,
    /// Step the stream past the elements and return an *empty* tensor: for a
    /// layer constructed only so that its constructor consumes its share of
    /// the stream, and dropped. It allocates no weight or gradient storage;
    /// with zeros, a rank stepping past 64 experts would `calloc` — and, on
    /// recycled heap, `memset` — 64 MiB in the middle of its build just to
    /// free it again.
    SkipToEmpty,
}

/// A seeded pseudo-random generator with the distributions training needs.
#[derive(Debug, Clone)]
pub struct Rng {
    inner: rand::rngs::StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
    /// What bulk tensor fills do with this stream ([`Rng::with_fills`]).
    fills: Fills,
}

impl Rng {
    /// Construct from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Rng {
        Rng {
            inner: rand::rngs::StdRng::seed_from_u64(seed),
            spare_normal: None,
            fills: Fills::Draw,
        }
    }

    /// Derive a per-rank stream from a global seed. Streams for distinct
    /// ranks are decorrelated by hashing the pair through SplitMix64.
    pub fn for_rank(seed: u64, rank: usize) -> Rng {
        let mut z = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // SplitMix64 finalizer.
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng::seed_from(z)
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `f32` on `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform integer on `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample (Box–Muller, with caching of the paired value).
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * (u1 as f64).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2 as f64;
        self.spare_normal = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }

    /// Advance the stream exactly as `n` calls of [`Rng::normal`] would,
    /// without evaluating them: a cached spare is consumed first, every whole
    /// Box–Muller pair costs its two raw generator steps, and an odd tail
    /// evaluates one pair so its second half is left cached. Generator state
    /// and spare afterwards are bit for bit what the draws leave behind, for
    /// `O(n)` generator steps and at most one `ln`/`sin`/`cos`.
    pub fn skip_normals(&mut self, mut n: usize) {
        if n > 0 && self.spare_normal.take().is_some() {
            n -= 1;
        }
        self.skip_uniforms(n / 2 * 2);
        if n % 2 == 1 {
            self.normal();
        }
    }

    /// Advance the stream as `n` calls of [`Rng::uniform`] would (one raw
    /// generator step each).
    pub fn skip_uniforms(&mut self, n: usize) {
        for _ in 0..n {
            self.inner.next_u64();
        }
    }

    /// Run `f` — a layer constructor — with the bulk tensor fills switched
    /// to `fills`. Everything else — [`Rng::next_u64`], which seeds a gate's
    /// noise stream, included — draws as always, so the constructor itself
    /// stays the one definition of how much of the stream its layer
    /// consumes. Scopes nest (the later [`Fills`] variant wins); the mode on
    /// entry is restored.
    pub fn with_fills<T>(&mut self, fills: Fills, f: impl FnOnce(&mut Rng) -> T) -> T {
        let outer = self.fills;
        self.fills = outer.max(fills);
        let out = f(self);
        self.fills = outer;
        out
    }

    /// What bulk tensor fills currently do with this stream.
    #[inline]
    pub fn fills(&self) -> Fills {
        self.fills
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample an index from explicit (not necessarily normalized) weights.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted() needs positive total weight");
        let mut u = self.uniform() as f64 * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

/// A Zipf-distributed sampler over `{0, 1, …, n-1}` with exponent `s`.
///
/// `s = 0` degenerates to the uniform distribution; larger `s` concentrates
/// mass on low indices. Used to generate skewed token streams that stress
/// MoE gate load balancing the way natural-language corpora do.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution over ranks.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler. `O(n)` setup, `O(log n)` per sample.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a sample.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform() as f64;
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cdf.len() - 1)
    }

    /// The probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rank_streams_differ() {
        let mut a = Rng::for_rank(5, 0);
        let mut b = Rng::for_rank(5, 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seed_from(1);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(9);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn skipping_normals_leaves_the_stream_where_drawing_them_does() {
        // Every reachable Box–Muller state — fresh, spare cached, spare
        // just consumed — then `skip(n)` against `n` draws: the next `k`
        // normals and the raw word after them must agree bit for bit.
        let counts = (0..=9).chain([1000, 1001, 65_536, 65_537]);
        for (warm, n) in (0..3).flat_map(|w| counts.clone().map(move |n| (w, n))) {
            for k in 0..4 {
                let mut skipped = Rng::seed_from(17 + n as u64);
                for _ in 0..warm {
                    skipped.normal();
                }
                let mut drawn = skipped.clone();
                skipped.skip_normals(n);
                for _ in 0..n {
                    drawn.normal();
                }
                for i in 0..k {
                    assert_eq!(
                        skipped.normal().to_bits(),
                        drawn.normal().to_bits(),
                        "warm {warm}, skip {n}: draw {i} of {k}"
                    );
                }
                assert_eq!(
                    skipped.next_u64(),
                    drawn.next_u64(),
                    "warm {warm}, skip {n}, then {k} draws"
                );
            }
        }
    }

    #[test]
    fn skipping_uniforms_and_the_scoped_mode() {
        let mut skipped = Rng::seed_from(6);
        let mut drawn = skipped.clone();
        skipped.skip_uniforms(5);
        for _ in 0..5 {
            drawn.uniform();
        }
        assert_eq!(skipped.next_u64(), drawn.next_u64());

        // Scopes nest, the later variant wins, and the mode on entry comes
        // back.
        let mut rng = Rng::seed_from(7);
        assert_eq!(rng.fills(), Fills::Draw);
        rng.with_fills(Fills::Draw, |r| assert_eq!(r.fills(), Fills::Draw));
        rng.with_fills(Fills::SkipToZeros, |r| {
            assert_eq!(r.fills(), Fills::SkipToZeros);
            r.with_fills(Fills::Draw, |r| assert_eq!(r.fills(), Fills::SkipToZeros));
            r.with_fills(Fills::SkipToEmpty, |r| {
                assert_eq!(r.fills(), Fills::SkipToEmpty)
            });
            assert_eq!(r.fills(), Fills::SkipToZeros);
        });
        assert_eq!(rng.fills(), Fills::Draw);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(2);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = Rng::seed_from(3);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!((counts[2] as f64 / 30_000.0 - 0.7).abs() < 0.02);
        assert!((counts[0] as f64 / 30_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::seed_from(4);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.1).abs() < 0.02, "p = {p}");
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_head() {
        let z = Zipf::new(100, 1.2);
        let mut rng = Rng::seed_from(5);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 5 {
                head += 1;
            }
        }
        // With s=1.2 the top-5 ranks carry well over a third of the mass.
        assert!(
            head as f64 / n as f64 > 0.35,
            "head share {}",
            head as f64 / n as f64
        );
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
