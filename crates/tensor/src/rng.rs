//! Deterministic random number generation.
//!
//! Reproducibility across ranks matters for distributed training: every rank
//! must derive its stream from `(seed, rank)` so runs are bit-reproducible
//! regardless of thread scheduling. We wrap `rand`'s `StdRng` and add the few
//! distributions training needs (normal via Box–Muller, Zipf for skewed token
//! streams) so no extra distribution crate is required.
//!
//! Box–Muller runs on the repository's own `ln` and `sin_cos` (see
//! `crate::math`), never on the host's libm, so the initial weights are
//! the same bits on every host. `Rng::fill_normals` transforms a block of
//! uniforms at a time in one loop compiled at the target's baseline and
//! again for AVX-512F (`crate::lanes`); the two give the same bits, as
//! every operation in the transform is exact or correctly rounded lane by
//! lane.

use crate::lanes::{lanes_fn, Lanes};
use crate::math::{ln, sin_cos};
use rand::{Rng as _, RngCore, SeedableRng};

/// Pairs of uniforms [`Rng::fill_normals`] draws before transforming them.
const NORMAL_BLOCK: usize = 256;

/// One Box–Muller transform: `u₁ ∈ (0, 1]` and `u₂ ∈ [0, 1)` to the pair
/// `(r·cos θ, r·sin θ)` with `r = √(−2 ln u₁)` and `θ = 2π·u₂`. The body
/// both [`Rng::normal`] and [`Rng::fill_normals`] evaluate, so a scalar draw
/// and a vectorized block give the same bits.
#[inline(always)]
fn box_muller(u1: f32, u2: f32) -> (f32, f32) {
    let r = (-2.0 * ln(u1)).sqrt();
    let (sin, cos) = sin_cos(u2);
    (r * cos, r * sin)
}

lanes_fn! {
    /// `(z0s[i], z1s[i]) = box_muller(u1s[i], u2s[i])` for every `i`.
    fn box_muller_block(u1s: &[f32], u2s: &[f32], z0s: &mut [f32], z1s: &mut [f32]) {
        let pairs = z0s.iter_mut().zip(z1s.iter_mut()).zip(u1s.iter().zip(u2s));
        for ((z0, z1), (&u1, &u2)) in pairs {
            (*z0, *z1) = box_muller(u1, u2);
        }
    }
}

/// What the bulk tensor fills (`Tensor::randn`, `xavier`, `uniform`) do with
/// a stream inside [`Rng::with_fills`]. Ordered: of two nested scopes the
/// later variant wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fills {
    /// Draw every element — how a stream starts.
    Draw,
    /// Step the stream past the elements (`Rng::skip_normals` /
    /// `Rng::skip_uniforms`) and return zeros of the right shape, straight
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
        let (u1, u2) = self.box_muller_uniforms();
        let (z, spare) = box_muller(u1, u2);
        self.spare_normal = Some(spare);
        z
    }

    /// The two uniforms of one Box–Muller pair, in stream order. `u₁` is
    /// drawn from `(0, 1]` so that `ln u₁` is finite; `1 − u` is exact for
    /// every `u = k/2²⁴`.
    #[inline]
    fn box_muller_uniforms(&mut self) -> (f32, f32) {
        let u1 = 1.0 - self.uniform();
        (u1, self.uniform())
    }

    /// Fill `out` with standard normals scaled by `std`: bit for bit what
    /// `out.len()` calls of `normal() * std` return, and the stream and
    /// spare are left where those calls leave them — a cached spare is used
    /// first, and an odd tail leaves one cached. In between, pairs are drawn
    /// in blocks: the uniforms of a block come off the sequential generator
    /// first, then one loop transforms the block, which vectorizes (at the
    /// tier [`Lanes::host`] picks once per fill).
    pub(crate) fn fill_normals(&mut self, out: &mut [f32], std: f32) {
        let mut out = out;
        if !out.is_empty() {
            if let Some(v) = self.spare_normal.take() {
                out[0] = v * std;
                out = &mut out[1..];
            }
        }
        let (paired, tail) = out.split_at_mut(out.len() / 2 * 2);
        let lanes = Lanes::host();
        // One array per operand and per result, so the transform loop reads
        // and writes whole vectors; interleaving is a separate, cheap pass.
        let mut u1s = [0.0f32; NORMAL_BLOCK];
        let mut u2s = [0.0f32; NORMAL_BLOCK];
        let mut z0s = [0.0f32; NORMAL_BLOCK];
        let mut z1s = [0.0f32; NORMAL_BLOCK];
        for block in paired.chunks_mut(2 * NORMAL_BLOCK) {
            let n = block.len() / 2;
            for (u1, u2) in u1s[..n].iter_mut().zip(&mut u2s[..n]) {
                (*u1, *u2) = self.box_muller_uniforms();
            }
            box_muller_block(lanes, &u1s[..n], &u2s[..n], &mut z0s[..n], &mut z1s[..n]);
            for (pair, (z0, z1)) in block.chunks_exact_mut(2).zip(z0s.iter().zip(&z1s)) {
                pair[0] = z0 * std;
                pair[1] = z1 * std;
            }
        }
        if let [last] = tail {
            *last = self.normal() * std;
        }
    }

    /// Advance the stream exactly as `n` calls of [`Rng::normal`] would,
    /// without evaluating them: a cached spare is consumed first, every whole
    /// Box–Muller pair is two raw generator steps, and an odd tail evaluates
    /// one pair so its second half is left cached. Generator state and spare
    /// afterwards are bit for bit what the draws leave behind, for one
    /// [`Rng::skip_uniforms`] and at most one Box–Muller transform.
    pub(crate) fn skip_normals(&mut self, mut n: usize) {
        if n > 0 && self.spare_normal.take().is_some() {
            n -= 1;
        }
        self.skip_uniforms(n / 2 * 2);
        if n % 2 == 1 {
            self.normal();
        }
    }

    /// Advance the stream as `n` calls of [`Rng::uniform`] would (one raw
    /// generator step each), in `O(log n)`: the generator's state
    /// transition is linear over GF(2), so `n` steps are one polynomial in
    /// it, `x^n` modulo its characteristic polynomial (`StdRng::discard`).
    pub(crate) fn skip_uniforms(&mut self, n: usize) {
        self.inner.discard(n as u64);
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
    pub(crate) fn fills(&self) -> Fills {
        self.fills
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

    /// `skip_uniforms(n)` against `n` raw steps: the same generator state.
    fn check_jump(seed: u64, n: usize) {
        let mut jumped = Rng::seed_from(seed);
        let mut stepped = jumped.clone();
        jumped.skip_uniforms(n);
        for _ in 0..n {
            stepped.next_u64();
        }
        assert_eq!(jumped.inner, stepped.inner, "n = {n}");
    }

    #[test]
    fn a_jump_lands_where_stepping_does_around_every_power_of_two() {
        for k in 0..=22 {
            for n in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                check_jump(k as u64, n);
            }
        }
        // About what a restoring rank of the benchmark's largest model
        // steps past, and a count with every jump bit below 2^25 set.
        check_jump(23, 17_000_003);
        check_jump(24, (1 << 25) - 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            ..proptest::prelude::ProptestConfig::default()
        })]

        // Random seeds and counts up to 2^21.
        #[test]
        fn a_jump_is_that_many_steps(seed in 0u64..u64::MAX, n in 0usize..(1 << 21)) {
            check_jump(seed, n);
        }
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
    fn filling_normals_is_drawing_them_one_at_a_time() {
        // Every length to past one block (256 pairs), from every Box–Muller
        // state — fresh, spare cached, spare just consumed — and with a skip
        // in between: the block fill must return `normal() * std` bit for
        // bit and leave the stream and spare where those draws do.
        for n in 0..=600 {
            for warm in 0..3 {
                let mut filled = Rng::seed_from(29 + n as u64);
                for _ in 0..warm {
                    filled.normal();
                }
                let mut drawn = filled.clone();
                let mut out = vec![f32::NAN; n];
                filled.fill_normals(&mut out, 0.5);
                let want: Vec<u32> = (0..n).map(|_| (drawn.normal() * 0.5).to_bits()).collect();
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "warm {warm}, n {n}");
                filled.skip_normals(n % 3);
                drawn.skip_normals(n % 3);
                let mut again = [0.0f32; 5];
                filled.fill_normals(&mut again, 1.0);
                for (i, v) in again.iter().enumerate() {
                    assert_eq!(v.to_bits(), drawn.normal().to_bits(), "n {n}: {i}");
                }
                assert_eq!(filled.next_u64(), drawn.next_u64(), "warm {warm}, n {n}");
            }
        }
    }

    #[test]
    fn the_wide_fill_draws_what_the_portable_fill_draws() {
        // Lengths with odd tails on either side of a block (256 pairs), from
        // a fresh stream and with a spare cached: the fill at the host's
        // tier and at the portable one must give the same bits and leave
        // the stream and the spare in the same place.
        for n in [1, 2, 3, 255, 511, 512, 513, 514, 1025, 4097] {
            for warm in 0..2 {
                let mut host = Rng::seed_from(41 + n as u64);
                for _ in 0..warm {
                    host.normal();
                }
                let mut port = host.clone();
                let (mut got, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
                host.fill_normals(&mut got, 0.02);
                crate::lanes::portable(|| port.fill_normals(&mut want, 0.02));
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "n {n}, warm {warm}: {i}");
                }
                assert_eq!(
                    host.spare_normal.map(f32::to_bits),
                    port.spare_normal.map(f32::to_bits)
                );
                assert_eq!(host.next_u64(), port.next_u64(), "n {n}, warm {warm}");
            }
        }
    }

    #[test]
    fn box_muller_blocks_agree_on_both_tiers_over_every_third_u1() {
        // Every third `u₁` the generator can produce, each with a different
        // `u₂`, through the block transform at both tiers (the wide one only
        // where this host has it), bit for bit.
        let wide = Lanes::host();
        if !wide.is_wide() {
            return;
        }
        let unit = 1.0 / 16_777_216.0;
        let ks: Vec<u32> = (0u32..1 << 24).step_by(3).collect();
        for block in ks.chunks(4093) {
            let u1s: Vec<f32> = block.iter().map(|&k| 1.0 - k as f32 * unit).collect();
            let u2s: Vec<f32> = block
                .iter()
                .map(|&k| (k.wrapping_mul(0x9E37_79B9) & 0xff_ffff) as f32 * unit)
                .collect();
            let n = block.len();
            let (mut z0w, mut z1w) = (vec![0.0f32; n], vec![0.0f32; n]);
            let (mut z0p, mut z1p) = (vec![0.0f32; n], vec![0.0f32; n]);
            box_muller_block(wide, &u1s, &u2s, &mut z0w, &mut z1w);
            box_muller_block(Lanes::PORTABLE, &u1s, &u2s, &mut z0p, &mut z1p);
            for i in 0..n {
                assert_eq!(z0w[i].to_bits(), z0p[i].to_bits(), "z0 at u1 {}", u1s[i]);
                assert_eq!(z1w[i].to_bits(), z1p[i].to_bits(), "z1 at u1 {}", u1s[i]);
            }
        }
    }

    #[test]
    fn box_muller_tracks_the_f64_libm_form() {
        // Every `u₁` the generator can produce, each paired with a different
        // `u₂` (an odd multiplier permutes the 2²⁴ values), against the f64
        // libm formula this transform replaced, rounded to f32.
        let unit = 1.0 / 16_777_216.0;
        let mut worst = 0.0f32;
        for k in 0u32..1 << 24 {
            let u1 = 1.0 - k as f32 * unit;
            let u2 = (k.wrapping_mul(0x9E37_79B9) & 0xff_ffff) as f32 * unit;
            let r = (-2.0 * (u1 as f64).ln()).sqrt();
            let theta = std::f64::consts::TAU * u2 as f64;
            let (z0, z1) = box_muller(u1, u2);
            let err = (z0 - (r * theta.cos()) as f32)
                .abs()
                .max((z1 - (r * theta.sin()) as f32).abs());
            assert!(err <= 1e-6, "box_muller({u1}, {u2}) is {err:e} off");
            worst = worst.max(err);
        }
        assert!(worst > 0.0, "the sweep measured nothing");
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
}
