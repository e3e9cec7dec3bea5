//! Property-based tests of the structured tracing layer against real
//! training runs: for arbitrary rank counts, accumulation, and sync modes,
//! every rank's span stack must balance, the per-family trace counters
//! must equal the transport's own `CommStats`, and the merged Chrome
//! export must stay structurally valid with no cross-rank interleaving.

use bagualu::trainer::{TrainConfig, Trainer};
use bagualu_comm::CommFamily;
use bagualu_trace::chrome::validate_chrome_json;
use proptest::prelude::*;

/// True when the export lists each tid's events contiguously — once a lane
/// ends, its tid never recurs (no cross-rank interleaving in the file).
fn tids_are_grouped(json: &str) -> bool {
    let mut seen: Vec<usize> = Vec::new();
    for line in json.lines() {
        let Some(pos) = line.find("\"tid\":") else {
            continue;
        };
        let rest = &line[pos + 6..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        let tid: usize = rest[..end].trim().parse().expect("numeric tid");
        match seen.last() {
            Some(&last) if last == tid => {}
            _ if seen.contains(&tid) => return false,
            _ => seen.push(tid),
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn trace_is_balanced_and_counters_match_comm_stats(
        ranks_idx in 0usize..3,
        steps in 2usize..5,
        overlap_bit in 0u8..2,
        seed in 0u64..1000,
    ) {
        // Expert count (4) must divide the rank count.
        let nranks = [1usize, 2, 4][ranks_idx];
        let overlap = overlap_bit == 1;
        let cfg = TrainConfig {
            nranks,
            steps,
            overlap,
            bucket_bytes: 1 << 10,
            seed,
            trace: true,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).run();
        let trace = report.trace.as_ref().expect("trace requested");

        // One lane per rank; every span stack balanced; nothing dropped.
        prop_assert_eq!(trace.ranks.len(), nranks);
        for rank in 0..nranks {
            let lane = trace.lane(rank).expect("lane per rank");
            prop_assert!(lane.check_balanced().is_ok(), "unbalanced: {:?}",
                lane.check_balanced());
            prop_assert_eq!(lane.span_count(bagualu_trace::names::STEP), steps as u64);
        }
        prop_assert_eq!(trace.total_dropped(), 0);

        // Trace counters vs the transport's own atomic counters: exact
        // equality, sent and received, per family and in total.
        let stats = report.comm_stats.expect("ShmComm collects stats");
        for (family, fam) in stats.families() {
            let (sb, sm) = family.sent_counter_names();
            prop_assert_eq!(trace.counter_total(sb), fam.bytes);
            prop_assert_eq!(trace.counter_total(sm), fam.msgs);
            let (rb, rm) = family.recv_counter_names();
            prop_assert_eq!(trace.counter_total(rb), fam.bytes);
            prop_assert_eq!(trace.counter_total(rm), fam.msgs);
        }
        let total: u64 = trace.sent_bytes_by_family().iter().map(|(_, b)| b).sum();
        prop_assert_eq!(total, stats.total_bytes);
        prop_assert!(stats.family(CommFamily::Allreduce).bytes > 0 || nranks == 1);

        // The merged export is loadable and lanes never interleave.
        let json = trace.to_chrome_json();
        prop_assert!(validate_chrome_json(&json).is_ok(), "invalid export: {:?}",
            validate_chrome_json(&json));
        prop_assert!(tids_are_grouped(&json), "lanes interleaved in export");

        // Overlap accounting: trace-derived fraction equals the report's
        // timer-derived one whenever the overlapped path ran.
        match (trace.overlap_fraction(), report.overlap_fraction) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            (Some(a), None) => prop_assert!(false, "trace says overlap ({a}) but report has none"),
            // Ring of one (or overlap off): no steps recorded anywhere.
            (None, other) => prop_assert!(other.unwrap_or(0.0) == 0.0),
        }
    }
}
