//! Wire pack/unpack kernels for 16-bit payload compression.
//!
//! The comm layer moves `f32` tensors; at scale the bytes on the wire
//! dominate step time (the β term of the α–β model), so comm-bound paths
//! compress each hop to FP16 or BF16 before sending and expand back to
//! `f32` on receipt. These kernels are the hot path of that compression:
//! they reuse the bit-exact [`F16`]/[`BF16`] conversions from
//! [`crate::dtype`] (round-to-nearest-even, FP16 gradual underflow,
//! saturation to ±∞, NaN preservation), so a pack/unpack round trip is
//! bit-for-bit identical to [`DType::round_trip`].
//!
//! Buffers below the work cutoff of [`crate::par`] convert on the calling
//! thread (control messages, tail buckets); larger ones are chunked across
//! its intra-op lanes. Parallelism is expressed over the *output* buffer,
//! with each task reading the matching input window — disjoint writes,
//! shared reads, no synchronization. The `_into` variants reuse a
//! caller-owned buffer so steady-state training loops do not allocate per
//! message.

use crate::dtype::{DType, BF16, F16};
use crate::par::{self, work};
use crate::reservoir;

/// Core conversion driver: fill `dst` (pre-sized to `src.len()`) with
/// `conv(src[i])`, inline or chunked over the output as [`par`] decides.
fn convert_into<S, D, F>(src: &[S], dst: &mut Vec<D>, conv: F)
where
    S: Copy + Sync,
    D: Copy + Default + Send,
    F: Fn(S) -> D + Sync,
{
    dst.clear();
    dst.resize(src.len(), D::default());
    let chunk = par::rows_per_task(work::STREAM_ELEM);
    let work = work::STREAM_ELEM * src.len() as u64;
    par::for_each_chunk(dst.as_mut_slice(), chunk, work, |i, out| {
        let window = &src[i * chunk..i * chunk + out.len()];
        for (d, &s) in out.iter_mut().zip(window) {
            *d = conv(s);
        }
    });
}

/// Pack `f32` values to FP16 bit patterns into a reused buffer.
pub fn pack_f16_into(src: &[f32], dst: &mut Vec<u16>) {
    convert_into(src, dst, |x| F16::from_f32(x).0);
}

/// Pack `f32` values to BF16 bit patterns into a reused buffer.
pub fn pack_bf16_into(src: &[f32], dst: &mut Vec<u16>) {
    convert_into(src, dst, |x| BF16::from_f32(x).0);
}

/// Expand FP16 bit patterns back to `f32` into a reused buffer.
pub fn unpack_f16_into(bits: &[u16], dst: &mut Vec<f32>) {
    convert_into(bits, dst, |b| F16(b).to_f32());
}

/// Expand BF16 bit patterns back to `f32` into a reused buffer.
pub fn unpack_bf16_into(bits: &[u16], dst: &mut Vec<f32>) {
    convert_into(bits, dst, |b| BF16(b).to_f32());
}

/// Pack `f32` values to FP16 bit patterns (allocating).
pub fn pack_f16(src: &[f32]) -> Vec<u16> {
    let mut out = Vec::new();
    pack_f16_into(src, &mut out);
    out
}

/// Pack `f32` values to BF16 bit patterns (allocating).
pub fn pack_bf16(src: &[f32]) -> Vec<u16> {
    let mut out = Vec::new();
    pack_bf16_into(src, &mut out);
    out
}

/// Expand FP16 bit patterns back to `f32` (into a [`reservoir::Reservoir::lend`]ed
/// buffer, so a received payload recycles what a sent one gave back).
pub fn unpack_f16(bits: &[u16]) -> Vec<f32> {
    let mut out = reservoir::global().lend(bits.len());
    unpack_f16_into(bits, &mut out);
    out
}

/// Expand BF16 bit patterns back to `f32` (see [`unpack_f16`]).
pub fn unpack_bf16(bits: &[u16]) -> Vec<f32> {
    let mut out = reservoir::global().lend(bits.len());
    unpack_bf16_into(bits, &mut out);
    out
}

/// Pack to the 16-bit format named by `dtype`.
///
/// # Panics
/// Panics on [`DType::F32`] — a 4-byte format has no 16-bit bit pattern;
/// callers must branch to the uncompressed path before reaching here.
pub fn pack_slice(dtype: DType, src: &[f32]) -> Vec<u16> {
    match dtype {
        DType::F16 => pack_f16(src),
        DType::BF16 => pack_bf16(src),
        DType::F32 => panic!("pack_slice: F32 is not a 16-bit wire format"),
    }
}

/// Expand from the 16-bit format named by `dtype`.
///
/// # Panics
/// Panics on [`DType::F32`]; see [`pack_slice`].
pub fn unpack_slice(dtype: DType, bits: &[u16]) -> Vec<f32> {
    match dtype {
        DType::F16 => unpack_f16(bits),
        DType::BF16 => unpack_bf16(bits),
        DType::F32 => panic!("unpack_slice: F32 is not a 16-bit wire format"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Edge values: signed zeros, subnormals (for both formats), normals,
    /// overflow-to-inf, infinities, NaNs with payloads.
    fn edge_values() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5,
            std::f32::consts::PI,
            1e-8,   // FP16 subnormal range
            -1e-8,  // FP16 subnormal range, negative
            1e-40,  // f32 subnormal, underflows both formats
            6.0e4,  // near FP16 max finite
            7.0e4,  // overflows FP16 → ±inf
            3.3e38, // near f32/BF16 max
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7FC0_1234), // NaN with payload
            f32::from_bits(0xFF80_0001), // signaling-ish negative NaN
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ]
    }

    #[test]
    fn round_trip_matches_dtype_round_trip_bitwise() {
        for dt in [DType::F16, DType::BF16] {
            let xs = edge_values();
            let packed = pack_slice(dt, &xs);
            let back = unpack_slice(dt, &packed);
            for (x, b) in xs.iter().zip(&back) {
                assert_eq!(
                    b.to_bits(),
                    dt.round_trip(*x).to_bits(),
                    "dtype {dt} value {x:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // The work cutoff plus a ragged tail: the fanned-out path with an
        // uneven final chunk, on three lanes whatever the host has.
        let _lanes = par::scoped_width(3);
        let n = (par::MIN_WORK / work::STREAM_ELEM) as usize + 12_345;
        let xs: Vec<f32> = (0..n).map(|i| (i as f32 - 1000.0) * 0.37).collect();
        for dt in [DType::F16, DType::BF16] {
            let big = pack_slice(dt, &xs);
            let mut seq = Vec::with_capacity(n);
            for chunk in xs.chunks(100) {
                seq.extend(pack_slice(dt, chunk));
            }
            assert_eq!(big, seq, "dtype {dt}");
            let back = unpack_slice(dt, &big);
            for (x, b) in xs.iter().zip(&back) {
                assert_eq!(b.to_bits(), dt.round_trip(*x).to_bits());
            }
        }
    }

    #[test]
    fn into_variants_reuse_buffer() {
        let xs = [1.0f32, 2.0, 3.0];
        let mut buf = vec![9u16; 100];
        pack_bf16_into(&xs, &mut buf);
        assert_eq!(buf.len(), 3);
        let mut out = vec![0.0f32; 7];
        unpack_bf16_into(&buf, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not a 16-bit wire format")]
    fn pack_f32_panics() {
        pack_slice(DType::F32, &[1.0]);
    }

    #[test]
    fn empty_slices_are_fine() {
        assert!(pack_f16(&[]).is_empty());
        assert!(unpack_bf16(&[]).is_empty());
    }
}
