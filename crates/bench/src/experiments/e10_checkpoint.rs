//! E10 — checkpoint save/load throughput, monolithic vs sharded.

use crate::table::Table;
use bagualu::checkpoint::load_params_sharded;
use bagualu::checkpoint::{load_params, save_params, save_params_sharded};
use bagualu::metrics::format_bytes;
use bagualu::model::config::ModelConfig;
use bagualu::model::param::HasParams;
use bagualu::model::transformer::Transformer;
use bagualu::parallel::{A2aKind, DistTransformer, ExpertPlacement};
use bagualu::tensor::rng::Rng;
use std::io::Write;
use std::time::Instant;

/// Interleaved pairs behind each self-normalising ratio.
const RATIO_PAIRS: usize = 5;
/// CI floor for `save_over_raw_write`. The clone → encode → bytewise-CRC →
/// `BufWriter` path this gate was introduced against sat near 0.2.
const SAVE_OVER_RAW_FLOOR: f64 = 0.4;
/// CI floor for `load_over_restore`, about half of what the reference box
/// measures. Building the shard by drawing the whole model first sat near
/// 0.07.
const LOAD_OVER_RESTORE_FLOOR: f64 = 0.25;

/// Median, lowest and highest of [`RATIO_PAIRS`] calls of `pair`, which
/// times its two sides back to back and returns their ratio.
fn paired_ratio(pair: impl FnMut() -> f64) -> [f64; 3] {
    let mut ratios: Vec<f64> = std::iter::repeat_with(pair).take(RATIO_PAIRS).collect();
    ratios.sort_by(f64::total_cmp);
    [ratios[RATIO_PAIRS / 2], ratios[0], ratios[RATIO_PAIRS - 1]]
}

pub fn run() {
    println!("== E10: checkpoint throughput (functional model, system temp dir) ==\n");
    // A model big enough to measure (~20M params ≈ 80 MB of f32).
    let cfg = ModelConfig {
        vocab: 2048,
        d_model: 256,
        n_heads: 8,
        n_layers: 4,
        d_ff: 1024,
        max_seq: 64,
        n_experts: 16,
        moe_every: 2,
        ..ModelConfig::tiny()
    };
    let mut rng = Rng::seed_from(1);
    let mut model = Transformer::new(cfg, &mut rng);
    println!("model: {} parameters\n", model.num_params());

    let dir = std::env::temp_dir().join(format!("bagualu-e10-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut t = Table::new(&["mode", "bytes", "save (MB/s)", "load (MB/s)", "verified"]);

    // Monolithic.
    let path = dir.join("model.bglu");
    let start = Instant::now();
    let bytes = save_params(&path, &mut model).unwrap();
    let save_t = start.elapsed().as_secs_f64();
    let mut clone = Transformer::new(cfg, &mut Rng::seed_from(2));
    let start = Instant::now();
    load_params(&path, &mut clone).unwrap();
    let load_t = start.elapsed().as_secs_f64();
    let mut ok = true;
    let mut vals = Vec::new();
    model.visit_params(&mut |p| vals.push(p.value.clone()));
    let mut i = 0;
    clone.visit_params(&mut |p| {
        ok &= p.value.approx_eq(&vals[i], 0.0);
        i += 1;
    });
    t.row(&[
        "monolithic".into(),
        format_bytes(bytes as f64),
        format!("{:.0}", bytes as f64 / 1e6 / save_t),
        format!("{:.0}", bytes as f64 / 1e6 / load_t),
        if ok { "yes".into() } else { "NO".into() },
    ]);

    // Sharded ×8.
    let shard_dir = dir.join("shards");
    let start = Instant::now();
    let bytes = save_params_sharded(&shard_dir, &mut model, 8).unwrap();
    let save_t = start.elapsed().as_secs_f64();
    let mut clone = Transformer::new(cfg, &mut Rng::seed_from(3));
    let start = Instant::now();
    load_params_sharded(&shard_dir, &mut clone, 8).unwrap();
    let load_t = start.elapsed().as_secs_f64();
    let mut ok = true;
    let mut i = 0;
    clone.visit_params(&mut |p| {
        ok &= p.value.approx_eq(&vals[i], 0.0);
        i += 1;
    });
    t.row(&[
        "sharded x8".into(),
        format_bytes(bytes as f64),
        format!("{:.0}", bytes as f64 / 1e6 / save_t),
        format!("{:.0}", bytes as f64 / 1e6 / load_t),
        if ok { "yes".into() } else { "NO".into() },
    ]);

    t.print();

    // What the checkpoint code costs on top of the I/O it cannot avoid:
    // write + fsync of the very same bytes, against `save_params`, paired in
    // one process on one directory so the disk's speed cancels. 1.0 would be
    // a save that is all I/O.
    let raw_path = dir.join("raw.bin");
    let image = std::fs::read(&path).unwrap();
    let [save_over_raw_write, lo, hi] = paired_ratio(|| {
        let start = Instant::now();
        let mut f = std::fs::File::create(&raw_path).unwrap();
        f.write_all(&image).unwrap();
        f.sync_all().unwrap();
        drop(f);
        let raw_t = start.elapsed().as_secs_f64();
        let start = Instant::now();
        save_params(&path, &mut model).unwrap();
        raw_t / start.elapsed().as_secs_f64()
    });
    println!(
        "\nsave_over_raw_write = {save_over_raw_write:.2}  (median of {RATIO_PAIRS} pairs, \
         {lo:.2}–{hi:.2}; floor {SAVE_OVER_RAW_FLOOR})"
    );

    // What a restore costs on top of the read it cannot avoid: loading one
    // rank's shard of the benchmark's `train_state` model (17 M parameters,
    // 2 × 64 experts, 2 ranks) into a model that is already built, against
    // building it the way a restoring rank does — no weight drawn — and then
    // loading the same file. 1.0 would be a restore that is all read.
    let state_cfg = ModelConfig {
        vocab: 1024,
        d_model: 128,
        n_heads: 8,
        n_layers: 2,
        d_ff: 512,
        max_seq: 32,
        n_experts: 64,
        moe_every: 1,
        ..ModelConfig::tiny()
    };
    let shard_path = dir.join("rank0.bglu");
    let (a2a, placement) = (A2aKind::Pairwise, ExpertPlacement::RoundRobin);
    let mut built = DistTransformer::new_placed(state_cfg, 11, 0, 2, a2a, placement);
    save_params(&shard_path, &mut built).unwrap();
    let [load_over_restore, lo, hi] = paired_ratio(|| {
        let start = Instant::now();
        load_params(&shard_path, &mut built).unwrap();
        let load_t = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut restored = DistTransformer::new_for_restore(state_cfg, 11, 0, 2, a2a, placement);
        load_params(&shard_path, &mut restored).unwrap();
        load_t / start.elapsed().as_secs_f64()
    });
    println!(
        "load_over_restore   = {load_over_restore:.2}  (median of {RATIO_PAIRS} pairs, \
         {lo:.2}–{hi:.2}; floor {LOAD_OVER_RESTORE_FLOOR})"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        save_over_raw_write >= SAVE_OVER_RAW_FLOOR,
        "save_params spends too long outside I/O: raw write+fsync / save = \
         {save_over_raw_write:.2} < {SAVE_OVER_RAW_FLOOR}"
    );
    assert!(
        load_over_restore >= LOAD_OVER_RESTORE_FLOOR,
        "a restore spends too long outside the read: load / (build + load) = \
         {load_over_restore:.2} < {LOAD_OVER_RESTORE_FLOOR}"
    );
    println!(
        "\nShape check: sharding adds negligible overhead at equal volume and is\n\
         what lets 96,000 ranks checkpoint disjoint expert shards concurrently\n\
         (at scale, aggregate bandwidth multiplies by the writer count).\n"
    );
}
