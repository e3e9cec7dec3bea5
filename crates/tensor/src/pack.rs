//! Wire pack/unpack kernels for 16-bit payload compression.
//!
//! The comm layer moves `f32` tensors; at scale the bytes on the wire
//! dominate step time (the β term of the α–β model), so comm-bound paths
//! compress each hop to FP16 or BF16 before sending and expand back to
//! `f32` on receipt. These kernels are the hot path of that compression:
//! they reuse the bit-exact [`F16`]/[`BF16`] conversions from
//! `crate::dtype` (round-to-nearest-even, FP16 gradual underflow,
//! saturation to ±∞, NaN preservation), so a pack/unpack round trip is
//! bit-for-bit identical to [`DType::round_trip`].
//!
//! Each conversion loop is compiled at the target's baseline and again for
//! AVX-512F (`crate::lanes`) and runs at the tier picked once per call:
//! the conversions are integer bit operations, compares and selects plus
//! one correctly rounded `f32` add or subtract, so both tiers give the same
//! bits (the tests compare them on every f16 pattern and on the special
//! values). Buffers below the work cutoff of [`crate::par`] convert on the
//! calling thread (control messages, tail buckets); larger ones are
//! chunked across its intra-op lanes. Parallelism is expressed over the *output* buffer,
//! with each task reading the matching input window — disjoint writes,
//! shared reads, no synchronization. The `_into` variants reuse a
//! caller-owned buffer so steady-state training loops do not allocate per
//! message.

use crate::dtype::{DType, BF16, F16};
use crate::lanes::{lanes_fn, Lanes};
use crate::par::{self, work};
use crate::reservoir;

/// Core conversion driver: fill `dst` (resized to `src.len()`) with the
/// element-wise `kernel`, inline or chunked over the output as [`par`]
/// decides, every chunk at the tier [`Lanes::host`] picks once per call.
fn convert_into<S, D>(src: &[S], dst: &mut Vec<D>, kernel: fn(Lanes, &[S], &mut [D]))
where
    S: Copy + Sync,
    D: Copy + Default + Send,
{
    dst.clear();
    dst.resize(src.len(), D::default());
    let lanes = Lanes::host();
    let chunk = par::rows_per_task(work::STREAM_ELEM);
    let work = work::STREAM_ELEM * src.len() as u64;
    par::for_each_chunk(dst.as_mut_slice(), chunk, work, |i, out| {
        kernel(lanes, &src[i * chunk..i * chunk + out.len()], out)
    });
}

lanes_fn! {
    /// `f32` to FP16 bit patterns, element by element.
    fn f16_from_f32(src: &[f32], dst: &mut [u16]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = F16::from_f32(s).0;
        }
    }
}

lanes_fn! {
    /// `f32` to BF16 bit patterns, element by element.
    fn bf16_from_f32(src: &[f32], dst: &mut [u16]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = BF16::from_f32(s).0;
        }
    }
}

lanes_fn! {
    /// FP16 bit patterns to `f32`, element by element.
    fn f16_to_f32(bits: &[u16], dst: &mut [f32]) {
        for (d, &b) in dst.iter_mut().zip(bits) {
            *d = F16(b).to_f32();
        }
    }
}

lanes_fn! {
    /// BF16 bit patterns to `f32`, element by element.
    fn bf16_to_f32(bits: &[u16], dst: &mut [f32]) {
        for (d, &b) in dst.iter_mut().zip(bits) {
            *d = BF16(b).to_f32();
        }
    }
}

/// Pack `f32` values to FP16 bit patterns into a reused buffer.
pub(crate) fn pack_f16_into(src: &[f32], dst: &mut Vec<u16>) {
    convert_into(src, dst, f16_from_f32);
}

/// Pack `f32` values to BF16 bit patterns into a reused buffer.
pub(crate) fn pack_bf16_into(src: &[f32], dst: &mut Vec<u16>) {
    convert_into(src, dst, bf16_from_f32);
}

/// Expand FP16 bit patterns back to `f32` into a reused buffer.
pub(crate) fn unpack_f16_into(bits: &[u16], dst: &mut Vec<f32>) {
    convert_into(bits, dst, f16_to_f32);
}

/// Expand BF16 bit patterns back to `f32` into a reused buffer.
pub(crate) fn unpack_bf16_into(bits: &[u16], dst: &mut Vec<f32>) {
    convert_into(bits, dst, bf16_to_f32);
}

/// Pack `f32` values to FP16 bit patterns (allocating).
pub(crate) fn pack_f16(src: &[f32]) -> Vec<u16> {
    let mut out = Vec::new();
    pack_f16_into(src, &mut out);
    out
}

/// Pack `f32` values to BF16 bit patterns (allocating).
pub(crate) fn pack_bf16(src: &[f32]) -> Vec<u16> {
    let mut out = Vec::new();
    pack_bf16_into(src, &mut out);
    out
}

/// Expand FP16 bit patterns back to `f32` (into a [`reservoir::Reservoir::lend`]ed
/// buffer, so a received payload recycles what a sent one gave back).
pub(crate) fn unpack_f16(bits: &[u16]) -> Vec<f32> {
    let mut out = reservoir::global().lend(bits.len());
    unpack_f16_into(bits, &mut out);
    out
}

/// Expand BF16 bit patterns back to `f32` (see [`unpack_f16`]).
pub(crate) fn unpack_bf16(bits: &[u16]) -> Vec<f32> {
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
    fn wide_and_portable_conversions_agree_on_special_values() {
        // Every edge value, every f16 bit pattern and a spread of f32 bit
        // patterns, packed and unpacked at both tiers, `to_bits()` equal —
        // NaN payloads included. The wide tier runs only where this host
        // has it.
        let wide = Lanes::host();
        if !wide.is_wide() {
            return;
        }
        let mut xs = edge_values();
        xs.extend((0..=u16::MAX).map(|h| F16(h).to_f32()));
        xs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        // Ties to even in both formats, on either side of each boundary.
        xs.extend(
            [
                0x3f80_1000u32,
                0x3f80_3000,
                0x3f80_8000,
                0x3f81_8000,
                0x3380_0000,
            ]
            .map(f32::from_bits),
        );
        let bits: Vec<u16> = (0..=u16::MAX).collect();
        type Pack = fn(Lanes, &[f32], &mut [u16]);
        type Unpack = fn(Lanes, &[u16], &mut [f32]);
        let packs: [(&str, Pack); 2] = [("f16", f16_from_f32), ("bf16", bf16_from_f32)];
        let unpacks: [(&str, Unpack); 2] = [("f16", f16_to_f32), ("bf16", bf16_to_f32)];
        for (name, pack) in packs {
            let (mut w, mut p) = (vec![0u16; xs.len()], vec![0u16; xs.len()]);
            pack(wide, &xs, &mut w);
            pack(Lanes::PORTABLE, &xs, &mut p);
            for (i, (w, p)) in w.iter().zip(&p).enumerate() {
                assert_eq!(w, p, "{name} pack of {:#010x}", xs[i].to_bits());
            }
        }
        for (name, unpack) in unpacks {
            let (mut w, mut p) = (vec![0.0f32; bits.len()], vec![0.0f32; bits.len()]);
            unpack(wide, &bits, &mut w);
            unpack(Lanes::PORTABLE, &bits, &mut p);
            for (i, (w, p)) in w.iter().zip(&p).enumerate() {
                assert_eq!(w.to_bits(), p.to_bits(), "{name} unpack of {i:#06x}");
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
