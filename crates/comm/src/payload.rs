//! Typed message payloads.
//!
//! Training traffic is overwhelmingly `f32` tensors (gradients, activations)
//! plus small integer metadata (token ids, routing tables, counts). A small
//! enum keeps the transport monomorphic while preserving type safety at the
//! receive side.
//!
//! Comm-bound tensor traffic can additionally be *compressed on the wire*:
//! `Payload::pack` rounds `f32` data to 16-bit FP16/BF16 bit patterns
//! (via the bit-exact conversions in `bagualu_tensor`) and the receiver
//! expands back to `f32` with `Payload::into_floats`. Because
//! `Payload::wire_bytes` reports the *stored* representation, every byte
//! consumer downstream — `CommStats`, fault-injection accounting, trace
//! counters — automatically sees the true 2-byte elements.

use bagualu_tensor::pack::{pack_slice, unpack_slice};
use bagualu_tensor::reservoir;
use bagualu_tensor::DType;

/// Wire element format for `f32` tensor traffic.
///
/// The *master* data is always `f32`; this knob only controls how the bytes
/// look while in flight. `F32` is lossless; `F16`/`BF16` round each element
/// to 16 bits per hop (round-to-nearest-even), halving the β term of the
/// α–β cost model at the price of per-hop rounding noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireDType {
    /// Uncompressed 4-byte elements (the default; bit-exact).
    #[default]
    F32,
    /// IEEE binary16: 5 exponent bits, 11-bit significand, max finite
    /// 65504 — beware loss-scaled gradients overflowing to ±∞.
    F16,
    /// bfloat16: f32's 8 exponent bits with a 8-bit significand — same
    /// range as f32, coarser rounding. The safe default for gradients.
    BF16,
}

impl WireDType {
    /// Bytes per element in flight.
    pub const fn size_bytes(self) -> usize {
        match self {
            WireDType::F32 => 4,
            WireDType::F16 | WireDType::BF16 => 2,
        }
    }

    /// Round every value to what a hop on this wire delivers, in place:
    /// what a message to this rank itself would have carried.
    pub(crate) fn round_in_place(self, xs: &mut [f32]) {
        if let Some(dt) = self.half_dtype() {
            xs.iter_mut().for_each(|x| *x = dt.round_trip(*x));
        }
    }

    /// The 16-bit storage dtype, or `None` for the uncompressed wire.
    const fn half_dtype(self) -> Option<DType> {
        match self {
            WireDType::F32 => None,
            WireDType::F16 => Some(DType::F16),
            WireDType::BF16 => Some(DType::BF16),
        }
    }
}

impl std::fmt::Display for WireDType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireDType::F32 => "f32",
            WireDType::F16 => "f16",
            WireDType::BF16 => "bf16",
        })
    }
}

impl std::str::FromStr for WireDType {
    type Err = String;

    fn from_str(s: &str) -> Result<WireDType, String> {
        match s {
            "f32" | "fp32" => Ok(WireDType::F32),
            "f16" | "fp16" => Ok(WireDType::F16),
            "bf16" => Ok(WireDType::BF16),
            other => Err(format!(
                "unknown wire dtype '{other}' (expected f32, f16, or bf16)"
            )),
        }
    }
}

/// A message body.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Tensor data, uncompressed.
    F32(Vec<f32>),
    /// Tensor data compressed to a 16-bit wire format: the dtype names the
    /// bit layout of each `u16` (FP16 or BF16). Logical length equals the
    /// vector length — one element per `u16`.
    Half(DType, Vec<u16>),
    /// Metadata: token ids, counts, and other 8-byte records.
    U64(Vec<u64>),
    /// Compact metadata: expert assignments and other ids that fit 4 bytes.
    U32(Vec<u32>),
}

impl Payload {
    /// Wrap `f32` data for the wire, compressing per `wire`. `F32` wraps
    /// without copying; `F16`/`BF16` round each element to 16 bits and hand
    /// the `f32` buffer to the tensor reservoir, where the receiving side's
    /// [`Payload::into_floats`] finds one to expand into.
    pub(crate) fn pack(wire: WireDType, v: Vec<f32>) -> Payload {
        match wire.half_dtype() {
            None => Payload::F32(v),
            Some(dt) => {
                let bits = pack_slice(dt, &v);
                reservoir::global().recycle(v);
                Payload::Half(dt, bits)
            }
        }
    }

    /// Unwrap tensor data back to `f32`, expanding a compressed payload if
    /// needed; panics on metadata variants. The counterpart of
    /// [`Payload::pack`] — use it wherever the sender may compress.
    pub(crate) fn into_floats(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => v,
            Payload::Half(dt, bits) => unpack_slice(dt, &bits),
            other => panic!("expected tensor payload, got {}", other.variant_name()),
        }
    }

    /// Unwrap as uncompressed `f32` data; panics on any other variant. Tag
    /// discipline in the collectives guarantees the variant statically.
    pub fn into_f32(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => v,
            other => panic!("expected F32 payload, got {}", other.variant_name()),
        }
    }

    /// Unwrap as `u64` metadata; panics if the message was something else.
    pub(crate) fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {}", other.variant_name()),
        }
    }

    /// Unwrap as `u32` metadata; panics if the message was something else.
    pub(crate) fn into_u32(self) -> Vec<u32> {
        match self {
            Payload::U32(v) => v,
            other => panic!("expected U32 payload, got {}", other.variant_name()),
        }
    }

    /// Size in bytes of the payload body (what a wire would carry).
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            Payload::F32(v) => v.len() * 4,
            Payload::Half(_, v) => v.len() * 2,
            Payload::U64(v) => v.len() * 8,
            Payload::U32(v) => v.len() * 4,
        }
    }

    /// Canonical label of the element format in flight ("fp32", "fp16",
    /// "bf16", "u64", "u32") — keys the per-dtype wire-byte trace counters.
    pub(crate) fn wire_label(&self) -> &'static str {
        match self {
            Payload::F32(_) => "fp32",
            Payload::Half(DType::F16, _) => "fp16",
            Payload::Half(_, _) => "bf16",
            Payload::U64(_) => "u64",
            Payload::U32(_) => "u32",
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            Payload::F32(_) => "F32",
            Payload::Half(..) => "Half",
            Payload::U64(_) => "U64",
            Payload::U32(_) => "U32",
        }
    }
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Payload {
        Payload::F32(v)
    }
}

impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Payload {
        Payload::U64(v)
    }
}

impl From<Vec<u32>> for Payload {
    fn from(v: Vec<u32>) -> Payload {
        Payload::U32(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f32() {
        let p: Payload = vec![1.0f32, 2.0].into();
        assert_eq!(p.wire_bytes(), 8);
        assert_eq!(p.into_f32(), vec![1.0, 2.0]);
    }

    #[test]
    fn round_trip_u64() {
        let p: Payload = vec![7u64].into();
        assert_eq!(p.wire_bytes(), 8);
        assert_eq!(p.into_u64(), vec![7]);
    }

    #[test]
    fn round_trip_u32() {
        let p: Payload = vec![7u32, 8].into();
        assert_eq!(p.wire_bytes(), 8);
        assert_eq!(p.into_u32(), vec![7, 8]);
    }

    #[test]
    #[should_panic(expected = "expected F32")]
    fn wrong_variant_panics() {
        Payload::U64(vec![1]).into_f32();
    }

    #[test]
    #[should_panic(expected = "expected tensor payload")]
    fn into_floats_rejects_metadata() {
        Payload::U32(vec![1]).into_floats();
    }

    #[test]
    fn pack_halves_wire_bytes_and_rounds() {
        let v = vec![1.0f32, 2.5, -3.25, 65504.0];
        let f32p = Payload::pack(WireDType::F32, v.clone());
        assert_eq!(f32p.wire_bytes(), 16);
        assert_eq!(f32p.clone().into_floats(), v);
        for wire in [WireDType::F16, WireDType::BF16] {
            let p = Payload::pack(wire, v.clone());
            assert_eq!(p.wire_bytes(), 8, "{wire}: 2 bytes per element");
            let dt = wire.half_dtype().unwrap();
            let back = p.into_floats();
            for (x, b) in v.iter().zip(&back) {
                assert_eq!(b.to_bits(), dt.round_trip(*x).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "expected F32 payload, got Half")]
    fn into_f32_stays_strict_about_compression() {
        // `into_f32` is the "this path must be lossless" assertion: a
        // compressed payload arriving there is a routing bug.
        Payload::pack(WireDType::BF16, vec![1.0]).into_f32();
    }

    #[test]
    fn wire_dtype_parses_and_prints() {
        for (s, w) in [
            ("f32", WireDType::F32),
            ("fp32", WireDType::F32),
            ("f16", WireDType::F16),
            ("fp16", WireDType::F16),
            ("bf16", WireDType::BF16),
        ] {
            assert_eq!(s.parse::<WireDType>().unwrap(), w);
        }
        assert!("f8".parse::<WireDType>().is_err());
        assert_eq!(WireDType::BF16.to_string(), "bf16");
        assert_eq!(WireDType::F16.size_bytes(), 2);
    }

    #[test]
    fn wire_labels() {
        assert_eq!(Payload::F32(vec![]).wire_label(), "fp32");
        assert_eq!(Payload::Half(DType::F16, vec![]).wire_label(), "fp16");
        assert_eq!(Payload::Half(DType::BF16, vec![]).wire_label(), "bf16");
        assert_eq!(Payload::U64(vec![]).wire_label(), "u64");
        assert_eq!(Payload::U32(vec![]).wire_label(), "u32");
    }
}
