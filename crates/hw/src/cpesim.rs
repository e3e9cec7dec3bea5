//! Kernel-level simulation of a core group executing a tiled GEMM.
//!
//! The roofline model in `crate::roofline` assumes a sustained fraction
//! of peak (`gemm_efficiency ≈ 0.6`). This module *derives* that number
//! instead of asserting it, by simulating how an SW26010-Pro core group
//! actually runs a GEMM — the way the hand-written SWDNN kernels do:
//!
//! * the 64 CPEs tile the output; each CPE's working set must fit its
//!   256 KiB LDM (an A-panel, a B-panel, and a C-tile, double-buffered),
//! * panels stream from DRAM by DMA at the core group's share of memory
//!   bandwidth, overlapped with compute (double buffering hides the
//!   shorter of the two phases),
//! * each fused-multiply-add pipeline issues `vector_width` lanes per
//!   cycle, and a tile pays a fixed startup (pipeline fill + DMA descriptor
//!   setup) per panel iteration.
//!
//! The simulated efficiency across tile shapes peaks near the configured
//! roofline constant — experiment E19 prints the sweep.

use crate::processor::CoreGroup;

/// A GEMM tiling: each CPE computes an `mc × nc` C-tile, streaming
/// `kc`-deep panels of A and B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    pub mc: usize,
    pub nc: usize,
    pub kc: usize,
}

/// Result of simulating one GEMM on one core group.
#[derive(Debug, Clone, Copy)]
pub struct GemmSim {
    /// Fraction of the core group's peak achieved.
    pub efficiency: f64,
    /// Whether DMA (true) or compute (false) dominated the steady state.
    pub dma_bound: bool,
    /// Bytes of LDM used per CPE (double-buffered panels + C-tile).
    pub ldm_bytes: usize,
}

/// Fixed per-panel-iteration overhead: DMA descriptor setup + pipeline
/// fill, in seconds (≈ a few hundred cycles at ~2 GHz).
const PANEL_OVERHEAD: f64 = 0.2e-6;

/// Fraction of FMA issue slots the inner loop actually fills (the rest go
/// to LDM loads/stores, address arithmetic, and loop control) — the
/// irreducible inner-loop tax even hand-written kernels pay.
const ISSUE_EFFICIENCY: f64 = 0.8;

/// Bytes per element (FP32 lanes; half precision packs two per lane slot).
fn elem_bytes(half: bool) -> usize {
    if half {
        2
    } else {
        4
    }
}

/// LDM footprint of a tiling (A-panel + B-panel double-buffered, C-tile
/// resident once).
pub(crate) fn ldm_footprint(t: Tiling, half: bool) -> usize {
    let e = elem_bytes(half);
    2 * (t.mc * t.kc + t.kc * t.nc) * e + t.mc * t.nc * 4 // C accumulates in FP32
}

/// Simulate `m×k×n` on one core group with tiling `t`.
///
/// `mesh_sharing` models the SW26010's **register communication**: the 8×8
/// CPE mesh broadcasts each A-panel along its row and each B-panel along
/// its column, so every panel is DMA'd from DRAM once per row/column
/// instead of once per CPE — an 8× cut in memory traffic that is the
/// difference between DMA-bound and compute-bound kernels (see E19).
///
/// Returns `None` when the tiling does not fit the LDM.
pub fn simulate_gemm(
    cg: &CoreGroup,
    m: usize,
    k: usize,
    n: usize,
    t: Tiling,
    half: bool,
    mesh_sharing: bool,
) -> Option<GemmSim> {
    let ldm = ldm_footprint(t, half);
    if ldm > cg.ldm_bytes || t.mc == 0 || t.nc == 0 || t.kc == 0 {
        return None;
    }
    let peak = if half { cg.peak_half } else { cg.peak_fp32 };
    let per_cpe_peak = peak / cg.cpes as f64 * ISSUE_EFFICIENCY;

    // Tile grid across the CPE mesh: tiles of C, distributed round-robin.
    let tiles_m = m.div_ceil(t.mc);
    let tiles_n = n.div_ceil(t.nc);
    let total_tiles = tiles_m * tiles_n;
    let tiles_per_cpe = total_tiles.div_ceil(cg.cpes);
    let k_panels = k.div_ceil(t.kc);

    // Per panel iteration on one CPE:
    let flops = 2.0 * t.mc as f64 * t.nc as f64 * t.kc as f64;
    let t_compute = flops / per_cpe_peak;
    // DMA: each CPE pulls its A and B panels; bandwidth is shared across
    // the 64 CPEs. With register communication each panel is fetched once
    // per mesh row/column and broadcast, cutting DRAM traffic 8×.
    let mesh_dim = (cg.cpes as f64).sqrt();
    let share = if mesh_sharing { mesh_dim } else { 1.0 };
    let bytes = ((t.mc * t.kc + t.kc * t.nc) * elem_bytes(half)) as f64 / share;
    let per_cpe_bw = cg.mem_bw / cg.cpes as f64;
    let t_dma = bytes / per_cpe_bw;

    // Double buffering overlaps compute with the *next* panel's DMA: the
    // steady-state iteration costs max(compute, dma) + fixed overhead.
    let t_iter = t_compute.max(t_dma) + PANEL_OVERHEAD;
    let time = tiles_per_cpe as f64
        * (k_panels as f64 * t_iter
        // C-tile writeback per tile.
        + (t.mc * t.nc * 4) as f64 / per_cpe_bw);

    let useful = 2.0 * m as f64 * k as f64 * n as f64;
    Some(GemmSim {
        efficiency: useful / peak / time,
        dma_bound: t_dma > t_compute,
        ldm_bytes: ldm,
    })
}

/// Search square-ish tilings and return the best simulation for this GEMM.
pub fn best_tiling(
    cg: &CoreGroup,
    m: usize,
    k: usize,
    n: usize,
    half: bool,
    mesh_sharing: bool,
) -> (Tiling, GemmSim) {
    let mut best: Option<(Tiling, GemmSim)> = None;
    for &mc in &[16usize, 32, 48, 64, 96, 128] {
        for &nc in &[16usize, 32, 48, 64, 96, 128] {
            for &kc in &[32usize, 64, 128, 256] {
                let t = Tiling { mc, nc, kc };
                if let Some(sim) = simulate_gemm(cg, m, k, n, t, half, mesh_sharing) {
                    if best
                        .as_ref()
                        .map(|(_, b)| sim.efficiency > b.efficiency)
                        .unwrap_or(true)
                    {
                        best = Some((t, sim));
                    }
                }
            }
        }
    }
    best.expect("at least one tiling fits the LDM")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::ProcessorSpec;

    fn cg() -> CoreGroup {
        ProcessorSpec::sw26010_pro().cg
    }

    #[test]
    fn oversized_tilings_are_rejected() {
        let t = Tiling {
            mc: 512,
            nc: 512,
            kc: 512,
        };
        assert!(simulate_gemm(&cg(), 4096, 4096, 4096, t, false, true).is_none());
        assert!(ldm_footprint(t, false) > cg().ldm_bytes);
    }

    #[test]
    fn best_tiling_reaches_roofline_ballpark() {
        // A big square GEMM with a tuned tiling should land in the 50–85%
        // band — consistent with (and justifying) gemm_efficiency = 0.6.
        let (t, sim) = best_tiling(&cg(), 4096, 4096, 4096, false, true);
        assert!(
            sim.efficiency > 0.5 && sim.efficiency < 0.9,
            "eff {} with {t:?}",
            sim.efficiency
        );
        assert!(sim.ldm_bytes <= cg().ldm_bytes);
    }

    #[test]
    fn tiny_tiles_are_overhead_bound() {
        let small = simulate_gemm(
            &cg(),
            4096,
            4096,
            4096,
            Tiling {
                mc: 16,
                nc: 16,
                kc: 32,
            },
            false,
            true,
        )
        .unwrap();
        let (_, tuned) = best_tiling(&cg(), 4096, 4096, 4096, false, true);
        assert!(
            small.efficiency < tuned.efficiency * 0.75,
            "{} vs {}",
            small.efficiency,
            tuned.efficiency
        );
    }

    #[test]
    fn half_precision_is_dma_bound_sooner() {
        // 4× the arithmetic rate with the same bandwidth pushes the balance
        // point toward DMA.
        let t = Tiling {
            mc: 64,
            nc: 64,
            kc: 128,
        };
        let f32_sim = simulate_gemm(&cg(), 2048, 2048, 2048, t, false, true).unwrap();
        let half_sim = simulate_gemm(&cg(), 2048, 2048, 2048, t, true, true).unwrap();
        // Wall time from the efficiency against each precision's peak.
        let time = |s: GemmSim, peak: f64| 2.0 * 2048f64.powi(3) / peak / s.efficiency;
        let (f32_time, half_time) = (
            time(f32_sim, cg().peak_fp32),
            time(half_sim, cg().peak_half),
        );
        assert!(half_time <= f32_time);
        if !f32_sim.dma_bound {
            // Whenever fp32 was compute-bound, half either stays faster or
            // flips to DMA-bound.
            assert!(half_sim.dma_bound || half_time < f32_time);
        }
    }

    #[test]
    fn register_communication_rescues_half_precision() {
        // Without mesh sharing, half-precision GEMMs starve on DMA; with
        // the 8× row/column broadcast they approach compute bound.
        let (_, private) = best_tiling(&cg(), 4096, 4096, 4096, true, false);
        let (_, shared) = best_tiling(&cg(), 4096, 4096, 4096, true, true);
        assert!(
            shared.efficiency > private.efficiency * 1.5,
            "sharing must pay: {} vs {}",
            shared.efficiency,
            private.efficiency
        );
        assert!(shared.efficiency > 0.5, "eff {}", shared.efficiency);
    }

    #[test]
    fn small_gemms_lose_efficiency() {
        let (_, big) = best_tiling(&cg(), 4096, 4096, 4096, false, true);
        let (_, small) = best_tiling(&cg(), 128, 128, 128, false, true);
        assert!(
            small.efficiency < big.efficiency,
            "{} vs {}",
            small.efficiency,
            big.efficiency
        );
    }
}
