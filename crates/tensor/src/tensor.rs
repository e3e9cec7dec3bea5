//! The [`Tensor`] type: an owned, contiguous, row-major `f32` array.
//!
//! Shapes are kept deliberately simple — training a transformer needs
//! vectors, matrices, and "batched matrices" that we flatten to 2-D
//! (`[batch·seq, hidden]`) before hitting the compute kernels, exactly as the
//! original system's kernels do.

use crate::dtype::DType;
use crate::rng::{Fills, Rng};
use bagualu_trace::{self as trace, names};

/// An owned, contiguous, row-major tensor of `f32` values.
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.data.len())
        }
    }
}

impl Tensor {
    // ---------------------------------------------------------------- create

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            data: vec![0.0; n],
            shape: shape.to_vec(),
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Build from an existing buffer. Panics if `data.len()` does not match
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The random initializers' shared body: `n` samples from `draw` — or,
    /// inside a skipping [`Rng::with_fills`] scope, the stream advanced by
    /// `skip` and what the [`Fills`] variant says to return. Either way the
    /// elements are counted, drawn or skipped.
    fn random_fill(
        shape: &[usize],
        rng: &mut Rng,
        skip: impl FnOnce(&mut Rng, usize),
        mut draw: impl FnMut(&mut Rng) -> f32,
    ) -> Tensor {
        let n: usize = shape.iter().product();
        let returned: &[usize] = match rng.fills() {
            Fills::Draw => {
                trace::count(names::INIT_DRAWN_ELEMS, n as u64);
                return Tensor {
                    data: (0..n).map(|_| draw(rng)).collect(),
                    shape: shape.to_vec(),
                };
            }
            Fills::SkipToZeros => shape,
            Fills::SkipToEmpty => &[0],
        };
        skip(rng, n);
        trace::count(names::INIT_SKIPPED_ELEMS, n as u64);
        Tensor::zeros(returned)
    }

    /// Standard-normal initialization scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Tensor {
        Tensor::random_fill(shape, rng, Rng::skip_normals, |r| r.normal() * std)
    }

    /// Uniform initialization on `[lo, hi)`.
    pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Tensor {
        Tensor::random_fill(shape, rng, Rng::skip_uniforms, |r| {
            lo + (hi - lo) * r.uniform()
        })
    }

    /// Xavier/Glorot-style initialization for a `[fan_in, fan_out]` weight.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
        let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::randn(&[fan_in, fan_out], std, rng)
    }

    // ---------------------------------------------------------------- access

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows of a 2-D tensor.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.ndim(),
            2,
            "rows() needs a 2-D tensor, got {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.ndim(),
            2,
            "cols() needs a 2-D tensor, got {:?}",
            self.shape
        );
        self.shape[1]
    }

    /// Borrow the underlying contiguous storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying contiguous storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `i` of a 2-D tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutably borrow row `i` of a 2-D tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Element access by 2-D index.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.shape[1] + j]
    }

    /// Set element by 2-D index.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.shape[1] + j] = v;
    }

    // ----------------------------------------------------------- reshaping

    /// Reinterpret with a new shape of the same element count.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Copy of rows `lo..hi` of a 2-D tensor.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Tensor {
        let c = self.cols();
        assert!(lo <= hi && hi <= self.rows());
        Tensor::from_vec(self.data[lo * c..hi * c].to_vec(), &[hi - lo, c])
    }

    /// Stack 2-D tensors with identical column counts on the row axis.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let c = parts[0].cols();
        let total: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(total * c);
        for p in parts {
            assert_eq!(p.cols(), c, "concat_rows: mismatched column counts");
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(data, &[total, c])
    }

    /// Transposed copy of a 2-D tensor.
    pub fn transposed(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; r * c];
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for i0 in (0..r).step_by(B) {
            for j0 in (0..c).step_by(B) {
                for i in i0..(i0 + B).min(r) {
                    for j in j0..(j0 + B).min(c) {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[c, r])
    }

    // ------------------------------------------------------------- mutation

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other`, element-wise.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self *= other`, element-wise (Hadamard).
    pub fn mul_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// `self += alpha * other` (BLAS `axpy`).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Add a `[cols]` bias vector to every row of a 2-D tensor.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        let c = self.cols();
        assert_eq!(bias.len(), c);
        for row in self.data.chunks_exact_mut(c) {
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// New tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Round every element through `dtype` in place (mixed-precision model).
    pub fn quantize(&mut self, dtype: DType) {
        dtype.round_trip_slice(&mut self.data);
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum of squared elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let c = self.cols();
        self.data
            .chunks_exact(c)
            .map(|row| {
                // First index of the maximum (strict `>` keeps the earliest
                // of tied values and ignores NaN).
                let mut best = 0usize;
                let mut best_v = row[0];
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > best_v {
                        best = i;
                        best_v = v;
                    }
                }
                best
            })
            .collect()
    }

    /// True when every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// True if any element is NaN or infinite — used by the dynamic loss
    /// scaler to detect half-precision overflow.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn create_and_shape() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.len(), 12);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_shape() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn row_access_and_set() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(1, 2, 5.0);
        assert_eq!(t.at(1, 2), 5.0);
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0]);
        t.row_mut(0)[0] = -1.0;
        assert_eq!(t.at(0, 0), -1.0);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = Rng::seed_from(7);
        let t = Tensor::randn(&[37, 53], 1.0, &mut rng);
        let tt = t.transposed().transposed();
        assert!(t.approx_eq(&tt, 0.0));
        assert_eq!(t.transposed().shape(), &[53, 37]);
        assert_eq!(t.at(3, 11), t.transposed().at(11, 3));
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        a.mul_assign(&b);
        assert_eq!(a.as_slice(), &[10.0, 40.0, 90.0]);
        a.scale(0.1);
        assert!(a.approx_eq(&Tensor::from_vec(vec![1.0, 4.0, 9.0], &[3]), 1e-6));
        a.axpy(2.0, &b);
        assert!(a.approx_eq(&Tensor::from_vec(vec![21.0, 44.0, 69.0], &[3]), 1e-6));
    }

    #[test]
    fn broadcast_bias() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.sq_norm(), 25.0);
        assert_eq!(t.norm(), 5.0);
        assert_eq!(t.dot(&t), 25.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(vec![0.0, 5.0, 5.0, 9.0, 1.0, 2.0], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn slice_and_concat_rows() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let a = t.slice_rows(0, 2);
        let b = t.slice_rows(2, 4);
        let r = Tensor::concat_rows(&[a, b]);
        assert!(r.approx_eq(&t, 0.0));
    }

    #[test]
    fn quantize_applies_rounding() {
        let mut t = Tensor::from_vec(vec![1.0 + 2.0f32.powi(-12)], &[1]);
        t.quantize(DType::F16);
        assert_eq!(t.as_slice()[0], 1.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.as_mut_slice()[1] = f32::INFINITY;
        assert!(t.has_non_finite());
    }

    #[test]
    fn skipped_fills_consume_what_the_draw_consumes() {
        // Odd lengths, so the Box–Muller spare crosses every boundary
        // between a skipped fill and the drawn one after it.
        type Fill = fn(&mut Rng) -> Tensor;
        let fills: [(Fill, &[usize]); 3] = [
            (|r| Tensor::randn(&[3, 5], 0.5, r), &[3, 5]),
            (|r| Tensor::xavier(7, 3, r), &[7, 3]),
            (|r| Tensor::uniform(&[5], -1.0, 1.0, r), &[5]),
        ];
        let mut drawn = Rng::seed_from(13);
        let mut zeros = drawn.clone();
        let mut empty = drawn.clone();
        for (fill, shape) in fills {
            let real = fill(&mut drawn);
            assert_eq!(real.shape(), shape);
            assert!(real.as_slice().iter().all(|&v| v != 0.0));
            assert_eq!(
                zeros.with_fills(Fills::SkipToZeros, fill),
                Tensor::zeros(shape)
            );
            assert!(empty.with_fills(Fills::SkipToEmpty, fill).is_empty());
            // Outside the scope the same streams draw again, from the same
            // place.
            let next = Tensor::randn(&[3], 1.0, &mut drawn);
            assert_eq!(Tensor::randn(&[3], 1.0, &mut zeros), next);
            assert_eq!(Tensor::randn(&[3], 1.0, &mut empty), next);
        }
        let next = drawn.next_u64();
        assert_eq!(zeros.next_u64(), next);
        assert_eq!(empty.next_u64(), next);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = Rng::seed_from(42);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.1);
        let var = t.sq_norm() / t.len() as f32 - t.mean() * t.mean();
        assert!((var - 4.0).abs() < 0.3, "var = {var}");
    }
}
