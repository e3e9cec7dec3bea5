//! SW26010-Pro processor model.
//!
//! One SW26010-Pro has six *core groups* (CGs). Each CG couples one
//! management processing element (MPE) with an 8×8 mesh of 64 compute
//! processing elements (CPEs), each CPE owning a 256 KiB software-managed
//! local data memory (LDM). BaGuaLu-style training runs one MPI process per
//! core group; the CPEs execute the dense kernels.

/// Arithmetic precision a kernel executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    FP64,
    FP32,
    /// FP16 or BF16 — the SW26010-Pro vector unit runs both at the same rate.
    Half,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> f64 {
        match self {
            Precision::FP64 => 8.0,
            Precision::FP32 => 4.0,
            Precision::Half => 2.0,
        }
    }
}

/// Static description of one core group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreGroup {
    /// Compute processing elements per core group (8×8 mesh).
    pub(crate) cpes: usize,
    /// Software-managed local data memory per CPE, in bytes.
    pub ldm_bytes: usize,
    /// Peak FP64 rate of the whole core group, in FLOP/s.
    pub(crate) peak_fp64: f64,
    /// Peak FP32 rate, FLOP/s.
    pub(crate) peak_fp32: f64,
    /// Peak FP16/BF16 rate, FLOP/s.
    pub(crate) peak_half: f64,
    /// Main-memory bandwidth available to this core group, bytes/s.
    pub(crate) mem_bw: f64,
}

impl CoreGroup {
    /// Peak rate for a given precision.
    pub(crate) fn peak(&self, p: Precision) -> f64 {
        match p {
            Precision::FP64 => self.peak_fp64,
            Precision::FP32 => self.peak_fp32,
            Precision::Half => self.peak_half,
        }
    }
}

/// Static description of one processor/node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorSpec {
    /// Core groups per processor (one processor per node).
    pub core_groups: usize,
    /// MPEs per core group (always 1 on SW26010-Pro).
    pub(crate) mpes_per_cg: usize,
    pub cg: CoreGroup,
    /// DRAM capacity per node, bytes.
    pub mem_capacity: usize,
}

impl ProcessorSpec {
    /// The SW26010-Pro, with documented-approximation constants:
    /// 6 CGs × (1 MPE + 64 CPEs) = 390 cores; ~14 TFLOPS FP64/FP32 per node
    /// (≈2.3 TFLOPS per CG), 4× that in half precision; ~51 GB/s of DRAM
    /// bandwidth per CG; 96 GiB DRAM per node.
    pub fn sw26010_pro() -> ProcessorSpec {
        ProcessorSpec {
            core_groups: 6,
            mpes_per_cg: 1,
            cg: CoreGroup {
                cpes: 64,
                ldm_bytes: 256 * 1024,
                peak_fp64: 2.3e12,
                peak_fp32: 2.3e12,
                peak_half: 9.2e12,
                mem_bw: 51.2e9,
            },
            mem_capacity: 96 * (1usize << 30),
        }
    }

    /// Total hardware cores (MPEs + CPEs) on the processor.
    pub fn cores(&self) -> usize {
        self.core_groups * (self.mpes_per_cg + self.cg.cpes)
    }

    /// Peak rate of the whole processor for a precision, FLOP/s.
    pub fn peak(&self, p: Precision) -> f64 {
        self.cg.peak(p) * self.core_groups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw26010_pro_has_390_cores() {
        let p = ProcessorSpec::sw26010_pro();
        assert_eq!(p.cores(), 390);
    }

    #[test]
    fn node_peaks_scale_with_core_groups() {
        let p = ProcessorSpec::sw26010_pro();
        assert!((p.peak(Precision::FP32) - 6.0 * 2.3e12).abs() < 1.0);
        assert!(p.peak(Precision::Half) > p.peak(Precision::FP32) * 3.9);
        assert_eq!(p.core_groups, 6);
        assert!((p.cg.mem_bw - 51.2e9).abs() < 1.0);
    }

    #[test]
    fn ldm_is_256k() {
        let p = ProcessorSpec::sw26010_pro();
        assert_eq!(p.cg.ldm_bytes, 262_144);
    }
}
