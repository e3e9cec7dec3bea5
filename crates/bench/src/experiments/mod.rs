//! One module per experiment (see DESIGN.md's experiment index).

pub(crate) mod e01_configs;
pub(crate) mod e02_weak_scaling;
pub(crate) mod e03_alltoall;
pub(crate) mod e04_load_balance;
pub(crate) mod e05_precision;
pub(crate) mod e06_breakdown;
pub(crate) mod e07_memory;
pub(crate) mod e08_convergence;
pub(crate) mod e09_headline;
pub(crate) mod e10_checkpoint;
pub(crate) mod e11_strong_scaling;
pub(crate) mod e12_capacity;
pub(crate) mod e13_simnet;
pub(crate) mod e14_overlap;
pub(crate) mod e16_allreduce;
pub(crate) mod e17_multimodal;
pub(crate) mod e18_two_level_gate;
pub(crate) mod e19_kernel_tiling;
pub(crate) mod e20_energy;
pub(crate) mod e23_trace_breakdown;
pub(crate) mod e24_wire_compression;
pub(crate) mod e25_placement;
pub(crate) mod e26_kernel_bench;
pub(crate) mod e27_goodput;
pub(crate) mod e28_serving;
pub(crate) mod e29_tuning;

/// All experiment ids, in order.
pub const ALL: [&str; 26] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e16",
    "e17", "e18", "e19", "e20", "e23", "e24", "e25", "e26", "e27", "e28", "e29",
];

/// Run one experiment by id. Returns false for an unknown id.
pub fn run(id: &str) -> bool {
    match id {
        "e1" => e01_configs::run(),
        "e2" => e02_weak_scaling::run(),
        "e3" => e03_alltoall::run(),
        "e4" => e04_load_balance::run(),
        "e5" => e05_precision::run(),
        "e6" => e06_breakdown::run(),
        "e7" => e07_memory::run(),
        "e8" => e08_convergence::run(),
        "e9" => e09_headline::run(),
        "e10" => e10_checkpoint::run(),
        "e11" => e11_strong_scaling::run(),
        "e12" => e12_capacity::run(),
        "e13" => e13_simnet::run(),
        "e14" => e14_overlap::run(),
        "e16" => e16_allreduce::run(),
        "e17" => e17_multimodal::run(),
        "e18" => e18_two_level_gate::run(),
        "e19" => e19_kernel_tiling::run(),
        "e20" => e20_energy::run(),
        "e23" => e23_trace_breakdown::run(),
        "e24" => e24_wire_compression::run(),
        "e25" => e25_placement::run(),
        "e26" => e26_kernel_bench::run(),
        "e27" => e27_goodput::run(),
        "e28" => e28_serving::run(),
        "e29" => e29_tuning::run(),
        _ => return false,
    }
    true
}
