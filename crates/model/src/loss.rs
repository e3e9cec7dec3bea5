//! Softmax cross-entropy loss with fused backward.

use bagualu_tensor::ops::softmax_rows_inplace;
use bagualu_tensor::Tensor;

/// Mean softmax cross-entropy over `[n, vocab]` logits against integer
/// targets. Returns `(loss, dlogits)` — the gradient is the fused
/// `softmax − onehot` scaled by `1/n`, the numerically stable form. One
/// softmax pass yields both: each loss term is the log-softmax
/// `x_t − lse` of its row's log-sum-exp.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let n = logits.rows();
    let v = logits.cols();
    assert_eq!(targets.len(), n, "one target per row");
    let mut dlogits = logits.clone();
    let mut lse = vec![0.0f32; n];
    softmax_rows_inplace(&mut dlogits, &mut lse);
    let mut loss = 0.0f32;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < v, "target {t} out of vocab {v}");
        loss -= logits.at(i, t) - lse[i];
    }
    loss /= n as f32;

    let scale = 1.0 / n as f32;
    for (i, &t) in targets.iter().enumerate() {
        let row = dlogits.row_mut(i);
        row[t] -= 1.0;
        for g in row.iter_mut() {
            *g *= scale;
        }
    }
    (loss, dlogits)
}

/// Perplexity corresponding to a mean cross-entropy loss.
pub fn perplexity(loss: f32) -> f32 {
    loss.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_ln_vocab() {
        let logits = Tensor::zeros(&[4, 8]);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(&[1, 4]);
        logits.set(0, 2, 20.0);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!(loss < 1e-3);
        let (bad_loss, _) = cross_entropy(&logits, &[0]);
        assert!(bad_loss > 10.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut logits = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0, 1.0, -0.5], &[2, 3]);
        let targets = [2usize, 0];
        let (_, d) = cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let orig = logits.at(i, j);
                logits.set(i, j, orig + eps);
                let (lp, _) = cross_entropy(&logits, &targets);
                logits.set(i, j, orig - eps);
                let (lm, _) = cross_entropy(&logits, &targets);
                logits.set(i, j, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - d.at(i, j)).abs() < 1e-3,
                    "({i},{j}): fd={fd} an={}",
                    d.at(i, j)
                );
            }
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let (_, d) = cross_entropy(&logits, &[0, 2]);
        for i in 0..2 {
            let s: f32 = d.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    /// The loss read from the softmax pass's log-sum-exp has the bits of
    /// the separate log-softmax pass it replaced.
    #[test]
    fn one_pass_loss_has_the_bits_of_the_log_softmax_pass() {
        let mut rng = bagualu_tensor::rng::Rng::seed_from(5);
        let logits = Tensor::randn(&[37, 131], 3.0, &mut rng);
        let targets: Vec<usize> = (0..37).map(|i| (i * 7) % 131).collect();
        let mut loss = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            let row = logits.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
            loss -= row[t] - lse;
        }
        loss /= 37.0;
        assert_eq!(cross_entropy(&logits, &targets).0.to_bits(), loss.to_bits());
    }

    #[test]
    fn perplexity_of_zero_loss_is_one() {
        assert_eq!(perplexity(0.0), 1.0);
        assert!((perplexity((8.0f32).ln()) - 8.0).abs() < 1e-4);
    }
}
