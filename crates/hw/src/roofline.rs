//! Roofline kernel-time estimation.
//!
//! At 37-million-core scale we cannot execute the training step functionally;
//! the performance-projection experiments instead charge each kernel the
//! classic roofline time — the maximum of its compute time at the sustained
//! arithmetic rate and its memory time at DRAM bandwidth — plus a fixed
//! launch overhead. The same accounting the original system's performance
//! section relies on.

use crate::processor::Precision;

/// Cost summary of one kernel invocation on one core group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Floating-point operations executed.
    pub flops: f64,
    /// Bytes moved between DRAM and the core group.
    pub(crate) bytes: f64,
    /// Estimated wall time, seconds.
    pub time: f64,
}

/// Roofline evaluator for one core group of a machine.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Sustained FLOP/s for compute-bound kernels at each precision.
    sustained_fp32: f64,
    sustained_half: f64,
    sustained_fp64: f64,
    /// DRAM bytes/s available to the core group.
    mem_bw: f64,
    /// Fixed kernel launch/synchronization overhead, seconds.
    pub(crate) launch_overhead: f64,
}

impl Roofline {
    /// Build from explicit sustained rates, for hosts that are not any
    /// `MachineConfig` — e.g. the E26 kernel bench reporting
    /// percent-of-roofline against an approximate model of the CI runner.
    /// All rates are FLOP/s (or bytes/s for `mem_bw`); `launch_overhead`
    /// is seconds and may be zero for in-process kernel calls.
    pub fn from_rates(
        sustained_fp32: f64,
        sustained_half: f64,
        sustained_fp64: f64,
        mem_bw: f64,
        launch_overhead: f64,
    ) -> Roofline {
        Roofline {
            sustained_fp32,
            sustained_half,
            sustained_fp64,
            mem_bw,
            launch_overhead,
        }
    }

    /// Sustained rate for a precision, FLOP/s.
    pub(crate) fn sustained(&self, p: Precision) -> f64 {
        match p {
            Precision::FP64 => self.sustained_fp64,
            Precision::FP32 => self.sustained_fp32,
            Precision::Half => self.sustained_half,
        }
    }

    /// Roofline time for a kernel with the given work and traffic.
    pub fn kernel(&self, flops: f64, bytes: f64, p: Precision) -> KernelCost {
        let t_compute = flops / self.sustained(p);
        let t_memory = bytes / self.mem_bw;
        KernelCost {
            flops,
            bytes,
            time: self.launch_overhead + t_compute.max(t_memory),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    /// One core group of the new-generation Sunway machine.
    fn rl() -> Roofline {
        let m = MachineConfig::new_generation_sunway();
        let cg = m.processor.cg;
        Roofline {
            sustained_fp32: cg.peak_fp32 * m.gemm_efficiency,
            sustained_half: cg.peak_half * m.gemm_efficiency,
            sustained_fp64: cg.peak_fp64 * m.gemm_efficiency,
            mem_bw: cg.mem_bw,
            launch_overhead: 5.0e-6,
        }
    }

    fn elt(p: Precision) -> f64 {
        match p {
            Precision::Half => 2.0,
            Precision::FP32 => 4.0,
            Precision::FP64 => 8.0,
        }
    }

    /// An `m×k · k×n` GEMM reading both operands and writing the product.
    fn gemm(r: &Roofline, m: usize, k: usize, n: usize, p: Precision) -> KernelCost {
        let bytes = elt(p) * (m * k + k * n + m * n) as f64;
        r.kernel(2.0 * m as f64 * k as f64 * n as f64, bytes, p)
    }

    #[test]
    fn big_gemm_is_compute_bound() {
        let r = rl();
        let c = gemm(&r, 4096, 4096, 4096, Precision::FP32);
        let t_compute = c.flops / r.sustained(Precision::FP32);
        // Within 10% of pure compute time (launch overhead is negligible).
        assert!(
            (c.time - t_compute) / t_compute < 0.1,
            "time {} vs {}",
            c.time,
            t_compute
        );
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let r = rl();
        // One read and one write of each element.
        let n = 1 << 24;
        let c = r.kernel(
            n as f64,
            2.0 * elt(Precision::FP32) * n as f64,
            Precision::FP32,
        );
        let t_mem = c.bytes / 51.2e9;
        assert!((c.time - r.launch_overhead - t_mem).abs() / t_mem < 1e-6);
    }

    #[test]
    fn half_precision_gemm_is_faster() {
        let r = rl();
        let full = gemm(&r, 2048, 2048, 2048, Precision::FP32);
        let half = gemm(&r, 2048, 2048, 2048, Precision::Half);
        assert!(
            full.time / half.time > 3.0,
            "{} vs {}",
            full.time,
            half.time
        );
    }

    #[test]
    fn tiny_kernel_pays_launch_overhead() {
        let r = rl();
        let c = gemm(&r, 4, 4, 4, Precision::FP32);
        assert!(c.time >= r.launch_overhead);
        assert!(c.time < 2.0 * r.launch_overhead);
    }

    #[test]
    fn from_rates_matches_explicit_arithmetic() {
        let r = Roofline::from_rates(64.0e9, 128.0e9, 32.0e9, 10.0e9, 0.0);
        assert_eq!(r.sustained(Precision::FP32), 64.0e9);
        assert_eq!(r.sustained(Precision::Half), 128.0e9);
        assert_eq!(r.sustained(Precision::FP64), 32.0e9);
        // Compute-bound kernel: 64e9 flops at 64 GFLOP/s = 1 s.
        let c = r.kernel(64.0e9, 8.0, Precision::FP32);
        assert!((c.time - 1.0).abs() < 1e-9, "time {}", c.time);
        // Memory-bound kernel: 100e9 bytes at 10 GB/s = 10 s.
        let c = r.kernel(1.0, 100.0e9, Precision::FP32);
        assert!((c.time - 10.0).abs() < 1e-9, "time {}", c.time);
    }
}
