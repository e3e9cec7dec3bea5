//! The metric names and units the benchmark reports, and the result of one
//! run in the form the driver reads. `BENCHMARK.json` lists the same names;
//! a unit test keeps the two in step.

use crate::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tok_s", "tokens/s"),
    ("first_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A metric a
/// workload has no such quantity for reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // tensor
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.softmax_ms", "ms"),
    ("tensor.layernorm_ms", "ms"),
    ("tensor.adam_ms", "ms"),
    ("tensor.pack_ms", "ms"),
    ("tensor.gemm_decode_us", "us"),
    // model
    ("model.embed_ms", "ms"),
    ("model.attn_fwd_ms", "ms"),
    ("model.attn_bwd_ms", "ms"),
    ("model.ln_ms", "ms"),
    ("model.ffn_dense_fwd_ms", "ms"),
    ("model.ffn_dense_bwd_ms", "ms"),
    ("model.head_ms", "ms"),
    ("model.loss_ms", "ms"),
    ("model.gate_fwd_ms", "ms"),
    ("model.attn_decode_us", "us"),
    // parallel
    ("parallel.moe_fwd_ms", "ms"),
    ("parallel.moe_bwd_ms", "ms"),
    ("parallel.a2a_dispatch_ms", "ms"),
    ("parallel.a2a_combine_ms", "ms"),
    ("parallel.grad_sync_ms", "ms"),
    ("parallel.grad_sync_exposed_ms", "ms"),
    ("parallel.overlap_fraction", "ratio"),
    ("parallel.model_build_ms", "ms"),
    ("parallel.decode_step_ms_p50", "ms"),
    // comm
    ("comm.bytes_per_step", "bytes"),
    ("comm.msgs_per_step", "count"),
    ("comm.a2a_bytes_per_step", "bytes"),
    ("comm.allreduce_bytes_per_step", "bytes"),
    ("comm.wire_f16_bytes_per_step", "bytes"),
    ("comm.allreduce_probe_ms", "ms"),
    ("comm.a2a_probe_ms", "ms"),
    // optim
    ("optim.clip_ms", "ms"),
    ("optim.adam_step_ms", "ms"),
    ("optim.zero_grad_ms", "ms"),
    // core
    ("core.data_batch_ms", "ms"),
    ("core.ctrl_ms", "ms"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_p90", "ms"),
    ("core.fwd_ms", "ms"),
    ("core.bwd_ms", "ms"),
    ("core.opt_ms", "ms"),
    ("core.t2_step_ms", "ms"),
    ("core.unattributed_pct", "%"),
    ("core.scaling_eff_2r", "ratio"),
    ("core.ckpt_save_ms_p50", "ms"),
    ("core.ckpt_stall_share", "ratio"),
    ("core.ckpt_bytes", "bytes"),
    ("core.ckpt_load_ms", "ms"),
    ("core.final_loss", "nats"),
    ("core.loss_crc", "crc32"),
    // serve
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.prefill_ms_p50", "ms"),
    ("serve.prefill_tok_s", "tokens/s"),
    ("serve.batch_occupancy", "seqs"),
    ("serve.kv_blocks_used_peak", "count"),
    ("serve.requeued", "count"),
    ("serve.gen_late_ms_p90", "ms"),
    ("serve.ttft_ms_p50", "ms"),
    ("serve.tpot_ms_p50", "ms"),
    ("serve.ttft_ms_p90", "ms"),
    ("serve.tpot_ms_p90", "ms"),
    ("serve.slo_share", "ratio"),
    ("serve.slo_rate_rps", "1/s"),
    // trace
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
    // host
    ("host.spin_ms", "ms"),
];

/// What one run found: the metrics it measured and every check that failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// One line per failed output check; empty means the outputs are correct.
    pub failures: Vec<String>,
    /// Lines for the human reader (stderr), not part of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Record a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The driver's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `table` in order.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        let metrics = table.iter().map(|&(name, unit)| {
            let v = Json::obj([
                ("value", Json::Num(self.get(name))),
                ("unit", Json::Str(unit.into())),
            ]);
            (name, v)
        });
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// CRC-32 (IEEE) of a loss curve's bit patterns: one number that two runs
/// share only if every step's loss agrees bit for bit.
pub fn loss_crc(curve: &[f32]) -> u32 {
    let mut crc = !0u32;
    for byte in curve.iter().flat_map(|l| l.to_bits().to_le_bytes()) {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (!(crc & 1)).wrapping_add(1));
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_is_the_ieee_one() {
        // CRC-32 of the four bytes 00 00 80 3f (1.0f32, little endian).
        assert_eq!(loss_crc(&[1.0]), 0xACA1_6A6A);
        assert_ne!(loss_crc(&[1.0, 2.0]), loss_crc(&[2.0, 1.0]));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let spec = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let f = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_object_has_the_four_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        o.set("tok_s", 1234.5);
        let j = o.to_json(END_TO_END);
        let keys: Vec<&str> = j.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("metrics").unwrap().as_obj().len(), END_TO_END.len());
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        o.require(false, || "broken".into());
        assert_eq!(
            o.to_json(END_TO_END).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
