//! The [`Tensor`] type: an owned, contiguous, row-major `f32` array.
//!
//! Shapes are kept deliberately simple — training a transformer needs
//! vectors, matrices, and "batched matrices" that we flatten to 2-D
//! (`[batch·seq, hidden]`) before hitting the compute kernels, exactly as the
//! original system's kernels do.

use crate::dtype::DType;
use crate::reservoir;
use crate::rng::{Fills, Rng};
use bagualu_trace::{self as trace, names};

/// An owned, contiguous, row-major tensor of `f32` values.
///
/// Storage at or above [`reservoir::CUTOFF_ELEMS`] is recycled through the
/// process-wide [`reservoir`]: dropping a tensor hands its buffer back and
/// every constructor here draws from it, overwriting the whole buffer, so
/// what a recycled tensor holds never depends on what the buffer held.
#[derive(PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Drop for Tensor {
    fn drop(&mut self) {
        if self.data.capacity() >= reservoir::CUTOFF_ELEMS {
            reservoir::global().give(std::mem::take(&mut self.data));
        }
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Tensor {
        let mut data = buffer(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }
}

/// An empty buffer with room for `n` elements, recycled when large.
fn buffer(n: usize) -> Vec<f32> {
    reservoir::global().take(n)
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
        Tensor::full(shape, 0.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = buffer(n);
        data.resize(n, value);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// `n` zeros for scratch the caller drops before it returns (a packed
    /// panel): backed by whichever recycled buffer was used last, see
    /// [`reservoir::Reservoir::take_scratch`].
    pub(crate) fn scratch(n: usize) -> Tensor {
        let mut data = reservoir::global().take_scratch(n);
        data.resize(n, 0.0);
        Tensor {
            data,
            shape: vec![n],
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Build from an existing buffer, which the reservoir counts as live
    /// from here on. Panics if `data.len()` does not match the product of
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape {:?}",
            data.len(),
            shape
        );
        reservoir::global().adopt(data.capacity());
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
                let mut data = buffer(n);
                data.extend((0..n).map(|_| draw(rng)));
                return Tensor {
                    data,
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

    /// Consume the tensor and return its storage, which the reservoir stops
    /// counting: whoever drops the `Vec` frees it, and a tensor built around
    /// it again ([`Tensor::from_vec`]) brings it back.
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        reservoir::global().release(data.capacity());
        data
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
        let mut data = buffer((hi - lo) * c);
        data.extend_from_slice(&self.data[lo * c..hi * c]);
        Tensor {
            data,
            shape: vec![hi - lo, c],
        }
    }

    /// Stack 2-D tensors with identical column counts on the row axis.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let c = parts[0].cols();
        let total: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = buffer(total * c);
        for p in parts {
            assert_eq!(p.cols(), c, "concat_rows: mismatched column counts");
            data.extend_from_slice(p.as_slice());
        }
        Tensor {
            data,
            shape: vec![total, c],
        }
    }

    /// Transposed copy of a 2-D tensor.
    pub fn transposed(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[c, r]);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for i0 in (0..r).step_by(B) {
            for j0 in (0..c).step_by(B) {
                for i in i0..(i0 + B).min(r) {
                    for j in j0..(j0 + B).min(c) {
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        out
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
        let mut data = buffer(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            data,
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

    /// Index of the maximum element of each row of a 2-D tensor, ignoring
    /// NaN (an all-NaN row reads 0).
    pub fn argmax_rows(&self) -> Vec<usize> {
        let c = self.cols();
        self.data
            .chunks_exact(c)
            .map(|row| {
                // Start from the first element that is not NaN (index 0 when
                // the whole row is); from there a strict `>` keeps the
                // earliest of tied values and never picks a later NaN.
                let mut best = row.iter().position(|v| !v.is_nan()).unwrap_or(0);
                for (i, &v) in row.iter().enumerate().skip(best + 1) {
                    if v > row[best] {
                        best = i;
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
    fn argmax_rows_ignores_nan_wherever_it_sits() {
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let rows = [
            ([nan, 1.0, 2.0], 2),
            ([1.0, nan, 2.0], 2),
            ([nan, 5.0, 5.0], 1),
            ([2.0, 1.0, nan], 0),
            ([nan, nan, nan], 0),
            ([ninf, ninf, ninf], 0),
            ([nan, ninf, 0.0], 2),
        ];
        let data: Vec<f32> = rows.iter().flat_map(|(row, _)| *row).collect();
        let want: Vec<usize> = rows.iter().map(|&(_, at)| at).collect();
        assert_eq!(Tensor::from_vec(data, &[rows.len(), 3]).argmax_rows(), want);
    }

    /// A recycled buffer never shows through: after tensors full of NaN are
    /// dropped, every constructor of the same and of a smaller size class
    /// yields exactly what a fresh allocation would, and the random fills
    /// draw exactly what they drew before.
    #[test]
    fn recycled_storage_is_rewritten_in_full() {
        use bagualu_trace::TraceCollector;
        let same = 3 * reservoir::CUTOFF_ELEMS;
        let smaller = 2 * reservoir::CUTOFF_ELEMS + 5;
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let reference = Tensor::randn(&[same], 1.0, &mut Rng::seed_from(3));
        for n in [same, smaller] {
            // Poison more buffers than the constructors below take at once.
            drop(
                (0..4)
                    .map(|_| Tensor::full(&[same], f32::NAN))
                    .collect::<Vec<_>>(),
            );
            assert!(bits(&Tensor::zeros(&[n])).iter().all(|&b| b == 0));
            let fives = Tensor::full(&[n], 5.0);
            assert!(fives.as_slice().iter().all(|&v| v == 5.0));
            let part = reference.clone().reshape(&[3, same / 3]);
            assert_eq!(bits(&part), bits(&reference));
            assert_eq!(bits(&part.slice_rows(0, 3)), bits(&reference));
            assert_eq!(bits(&part.transposed().transposed()), bits(&reference));
            assert_eq!(bits(&reference.map(|v| v)), bits(&reference));

            let collector = TraceCollector::new();
            let (mut rng, mut plain) = (Rng::seed_from(17), Rng::seed_from(17));
            let drawn = {
                let _lane = collector.install(0);
                Tensor::randn(&[n], 0.5, &mut rng)
            };
            let want: Vec<u32> = (0..n).map(|_| (plain.normal() * 0.5).to_bits()).collect();
            assert_eq!(bits(&drawn), want);
            assert_eq!(rng.next_u64(), plain.next_u64(), "same draws consumed");
            let trace = collector.finish();
            assert_eq!(trace.counter_total(names::INIT_DRAWN_ELEMS), n as u64);
        }
    }

    /// `from_vec` and `into_vec` move a buffer in and out of the live count
    /// without copying it.
    #[test]
    fn a_buffer_passes_through_a_tensor_by_value() {
        let n = reservoir::CUTOFF_ELEMS + 1;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let at = data.as_ptr();
        let back = Tensor::from_vec(data, &[n]).into_vec();
        assert_eq!(back.as_ptr(), at);
        assert_eq!(back[n - 1], (n - 1) as f32);
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
