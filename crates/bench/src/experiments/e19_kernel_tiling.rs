//! E19 — kernel-level validation of the GEMM efficiency constant.
//!
//! The roofline projections assume a tuned GEMM sustains ~60% of peak on a
//! core group. This experiment derives that number from a kernel-level
//! simulation (LDM tiling, DMA double buffering, per-panel overheads,
//! register communication across the CPE mesh) — the model of what the
//! hand-written SWDNN kernels do — and ablates the two design levers that
//! make hand tuning matter: tile shape and mesh panel sharing.

use crate::table::Table;
use bagualu::hw::cpesim::{best_tiling, simulate_gemm, Tiling};
use bagualu::hw::ProcessorSpec;

pub(crate) fn run() {
    let cg = ProcessorSpec::sw26010_pro().cg;

    println!("== E19a: best-found tiling per GEMM shape (one core group) ==\n");
    let mut t = Table::new(&[
        "gemm (m=k=n)",
        "precision",
        "best tile (mc,nc,kc)",
        "efficiency",
        "bound by",
    ]);
    for &dim in &[256usize, 1024, 4096] {
        for (pname, half) in [("fp32", false), ("half", true)] {
            let (tile, sim) = best_tiling(&cg, dim, dim, dim, half, true);
            t.row(&[
                format!("{dim}"),
                pname.into(),
                format!("({}, {}, {})", tile.mc, tile.nc, tile.kc),
                format!("{:.1}%", sim.efficiency * 100.0),
                if sim.dma_bound {
                    "DMA".into()
                } else {
                    "compute".into()
                },
            ]);
        }
    }
    t.print();

    println!("\n== E19b: register communication ablation (4096³) ==\n");
    let mut t = Table::new(&["precision", "private DMA", "mesh panel sharing", "gain"]);
    for (pname, half) in [("fp32", false), ("half", true)] {
        let (_, private) = best_tiling(&cg, 4096, 4096, 4096, half, false);
        let (_, shared) = best_tiling(&cg, 4096, 4096, 4096, half, true);
        t.row(&[
            pname.into(),
            format!("{:.1}%", private.efficiency * 100.0),
            format!("{:.1}%", shared.efficiency * 100.0),
            format!("{:.2}x", shared.efficiency / private.efficiency),
        ]);
    }
    t.print();

    println!("\n== E19c: efficiency sensitivity to tile shape (4096³ fp32, sharing on) ==\n");
    let mut t = Table::new(&["tile (mc,nc,kc)", "LDM use", "efficiency", "bound by"]);
    for tile in [
        Tiling {
            mc: 16,
            nc: 16,
            kc: 32,
        },
        Tiling {
            mc: 32,
            nc: 32,
            kc: 64,
        },
        Tiling {
            mc: 64,
            nc: 64,
            kc: 128,
        },
        Tiling {
            mc: 96,
            nc: 96,
            kc: 64,
        },
        Tiling {
            mc: 128,
            nc: 128,
            kc: 32,
        },
    ] {
        match simulate_gemm(&cg, 4096, 4096, 4096, tile, false, true) {
            Some(sim) => {
                t.row(&[
                    format!("({}, {}, {})", tile.mc, tile.nc, tile.kc),
                    format!("{:.0}%", 100.0 * sim.ldm_bytes as f64 / cg.ldm_bytes as f64),
                    format!("{:.1}%", sim.efficiency * 100.0),
                    if sim.dma_bound {
                        "DMA".into()
                    } else {
                        "compute".into()
                    },
                ]);
            }
            None => {
                t.row(&[
                    format!("({}, {}, {})", tile.mc, tile.nc, tile.kc),
                    "> LDM".into(),
                    "—".into(),
                    "—".into(),
                ]);
            }
        }
    }
    t.print();
    println!(
        "\nShape check: with register communication and a tuned tiling, large\n\
         GEMMs land in the 60–80% band — justifying the roofline's\n\
         gemm_efficiency = 0.6. Without mesh sharing, half precision starves on\n\
         DMA (the vector units outrun private-DMA bandwidth 4×), which is why\n\
         the SW26010's register-communication fabric is load-bearing for the\n\
         EFLOPS headline, not an optimization footnote.\n"
    );
}
