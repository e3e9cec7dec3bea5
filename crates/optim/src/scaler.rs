//! Dynamic loss scaling for FP16 training.
//!
//! FP16's smallest positive normal is 2⁻¹⁴ ≈ 6·10⁻⁵; activation gradients of
//! a deep network routinely fall below that and flush to zero. Multiplying
//! the loss (equivalently, the logits gradient) by a large scale pushes the
//! whole gradient distribution back into range; the optimizer divides it
//! out again before the update. The scale is adjusted dynamically: halve on
//! overflow (any non-finite gradient), grow ×2 after a streak of clean
//! steps.

/// Dynamic loss scaler state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossScaler {
    scale: f32,
    pub(crate) growth_factor: f32,
    pub(crate) backoff_factor: f32,
    /// Clean steps required before the scale grows.
    pub(crate) growth_interval: u32,
    good_steps: u32,
    pub(crate) min_scale: f32,
    pub(crate) max_scale: f32,
}

impl Default for LossScaler {
    fn default() -> LossScaler {
        LossScaler::new(65_536.0)
    }
}

impl LossScaler {
    pub(crate) fn new(initial_scale: f32) -> LossScaler {
        assert!(initial_scale > 0.0);
        LossScaler {
            scale: initial_scale,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 200,
            good_steps: 0,
            min_scale: 1.0,
            max_scale: 2.0f32.powi(24),
        }
    }

    /// A scaler fixed at 1 (for FP32 or BF16 runs that need no scaling).
    pub fn disabled() -> LossScaler {
        let mut s = LossScaler::new(1.0);
        s.min_scale = 1.0;
        s.max_scale = 1.0;
        s
    }

    /// The current multiplier to apply to the loss gradient.
    pub(crate) fn scale(&self) -> f32 {
        self.scale
    }

    /// Record the outcome of a step: `overflowed = true` when any gradient
    /// was non-finite after unscaling (that step must be skipped by the
    /// caller).
    pub(crate) fn update(&mut self, overflowed: bool) {
        if overflowed {
            self.scale = (self.scale * self.backoff_factor).max(self.min_scale);
            self.good_steps = 0;
        } else {
            self.good_steps += 1;
            if self.good_steps >= self.growth_interval {
                self.scale = (self.scale * self.growth_factor).min(self.max_scale);
                self.good_steps = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_halves_scale() {
        let mut s = LossScaler::new(1024.0);
        s.update(true);
        assert_eq!(s.scale(), 512.0);
        s.update(true);
        assert_eq!(s.scale(), 256.0);
    }

    #[test]
    fn growth_after_clean_streak() {
        let mut s = LossScaler::new(8.0);
        s.growth_interval = 3;
        s.update(false);
        s.update(false);
        assert_eq!(s.scale(), 8.0);
        s.update(false);
        assert_eq!(s.scale(), 16.0);
    }

    #[test]
    fn overflow_resets_streak() {
        let mut s = LossScaler::new(8.0);
        s.growth_interval = 2;
        s.update(false);
        s.update(true); // halves and resets
        assert_eq!(s.scale(), 4.0);
        s.update(false);
        assert_eq!(s.scale(), 4.0); // streak restarted
        s.update(false);
        assert_eq!(s.scale(), 8.0);
    }

    #[test]
    fn scale_is_bounded() {
        let mut s = LossScaler::new(2.0);
        s.min_scale = 1.0;
        for _ in 0..10 {
            s.update(true);
        }
        assert_eq!(s.scale(), 1.0);
        let mut s = LossScaler::new(2.0f32.powi(23));
        s.growth_interval = 1;
        for _ in 0..10 {
            s.update(false);
        }
        assert_eq!(s.scale(), 2.0f32.powi(24));
    }

    #[test]
    fn disabled_scaler_stays_at_one() {
        let mut s = LossScaler::disabled();
        s.growth_interval = 1;
        for _ in 0..5 {
            s.update(false);
        }
        assert_eq!(s.scale(), 1.0);
        s.update(true);
        assert_eq!(s.scale(), 1.0);
    }
}
