//! Reading a recorded trace as a step ledger: for every step of every rank,
//! how long each named span was open, and how long the step took.
//!
//! Both traced passes are read through this file. T1's spans come from the
//! program (`step`, `forward`, …); T2's come from the benchmark's replay
//! (`t2.*`), with the program's own `a2a_*` spans nested inside them.

use crate::product::{EventKind, RankTrace, Trace};
use crate::stats;
use std::collections::BTreeMap;

/// One step on one rank: its wall time and, per span name, the total time
/// the outermost spans of that name were open inside it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StepWindow {
    pub wall_ns: u64,
    pub spans: BTreeMap<&'static str, u64>,
}

/// Cut one lane into step windows delimited by spans named `step_name`.
pub fn step_windows(lane: &RankTrace, step_name: &str) -> Vec<StepWindow> {
    let mut out = Vec::new();
    let mut stack: Vec<(&'static str, u64)> = Vec::new();
    let mut cur: Option<StepWindow> = None;
    for e in &lane.events {
        match e.kind {
            EventKind::Enter => {
                if e.name == step_name && stack.is_empty() {
                    cur = Some(StepWindow::default());
                }
                stack.push((e.name, e.t_ns));
            }
            EventKind::Exit => {
                let Some((name, t0)) = stack.pop() else {
                    continue;
                };
                let dur = e.t_ns.saturating_sub(t0);
                if name == step_name && stack.is_empty() {
                    if let Some(mut w) = cur.take() {
                        w.wall_ns = dur;
                        out.push(w);
                    }
                } else if let Some(w) = cur.as_mut() {
                    // Outermost instance only, so self-nesting is not
                    // counted twice.
                    if !stack.iter().any(|&(n, _)| n == name) {
                        *w.spans.entry(name).or_default() += dur;
                    }
                }
            }
            EventKind::Count(_) => {}
        }
    }
    out
}

/// Durations of every completed outermost span named `name` on a lane.
pub fn span_durations(lane: &RankTrace, name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut t0 = 0u64;
    for e in lane.events.iter().filter(|e| e.name == name) {
        match e.kind {
            EventKind::Enter => {
                if depth == 0 {
                    t0 = e.t_ns;
                }
                depth += 1;
            }
            EventKind::Exit => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(e.t_ns.saturating_sub(t0));
                }
            }
            EventKind::Count(_) => {}
        }
    }
    out
}

/// Peak of `used − freed` over a lane's timeline of two monotonic counters.
pub fn counter_peak(lane: &RankTrace, used: &str, freed: &str) -> u64 {
    let (mut cur, mut peak) = (0i64, 0i64);
    for e in &lane.events {
        if let EventKind::Count(d) = e.kind {
            if e.name == used {
                cur += d as i64;
            } else if e.name == freed {
                cur -= d as i64;
            }
            peak = peak.max(cur);
        }
    }
    peak as u64
}

/// The largest total any one lane holds of a counter.
pub fn worst_rank_counter(trace: &Trace, name: &'static str) -> u64 {
    let totals = trace.ranks.iter().map(|l| l.counter_total(name));
    totals.max().unwrap_or(0)
}

/// The longest total time any one lane spent in spans of a name, ns.
pub fn worst_rank_span_ns(trace: &Trace, name: &'static str) -> u64 {
    let totals = trace.ranks.iter().map(|l| l.span_total_ns(name));
    totals.max().unwrap_or(0)
}

/// The ledger of a whole run: `per_rank[r][s]` is step `s` on rank `r`.
pub struct Ledger {
    pub per_rank: Vec<Vec<StepWindow>>,
}

impl Ledger {
    pub fn read(trace: &Trace, nranks: usize, step_name: &str) -> Ledger {
        Ledger {
            per_rank: (0..nranks)
                .map(|r| {
                    trace
                        .lane(r)
                        .map(|l| step_windows(l, step_name))
                        .unwrap_or_default()
                })
                .collect(),
        }
    }

    pub fn steps(&self) -> usize {
        self.per_rank.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Per step, the slowest rank's value of `f`, in milliseconds.
    fn per_step_max(&self, f: impl Fn(&StepWindow) -> u64) -> Vec<f64> {
        (0..self.steps())
            .map(|s| {
                let ns = self.per_rank.iter().map(|r| f(&r[s])).max().unwrap_or(0);
                ns as f64 / 1e6
            })
            .collect()
    }

    /// Per step, max over ranks; then the median over steps, milliseconds.
    pub fn span_ms(&self, name: &str) -> f64 {
        let v = self.per_step_max(|w| w.spans.get(name).copied().unwrap_or(0));
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    }

    pub fn step_ms(&self) -> Vec<f64> {
        self.per_step_max(|w| w.wall_ns)
    }

    /// Share of the step not covered by any span whose name starts with
    /// `prefix`, percent: per step the worst rank, then the median.
    pub fn unattributed_pct(&self, prefix: &str) -> f64 {
        let v: Vec<f64> = (0..self.steps())
            .map(|s| {
                self.per_rank
                    .iter()
                    .map(|r| {
                        let w = &r[s];
                        let rows: u64 = w
                            .spans
                            .iter()
                            .filter(|(n, _)| n.starts_with(prefix))
                            .map(|(_, &ns)| ns)
                            .sum();
                        100.0 * w.wall_ns.saturating_sub(rows) as f64 / w.wall_ns.max(1) as f64
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        if v.is_empty() {
            100.0
        } else {
            stats::median(&v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::{count, span, TraceCollector};

    fn lane_of(f: impl FnOnce()) -> RankTrace {
        let col = TraceCollector::new();
        {
            let _g = col.install(0);
            f();
        }
        col.finish().lane(0).expect("lane 0 recorded").clone()
    }

    #[test]
    fn windows_hold_outermost_spans_and_ignore_what_is_outside_a_step() {
        let lane = lane_of(|| {
            let _outside = span("a");
            drop(_outside);
            for _ in 0..2 {
                let _s = span("step");
                {
                    let _a = span("a");
                    let _nested = span("a");
                    let _b = span("b");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                let _a2 = span("a");
            }
        });
        let w = step_windows(&lane, "step");
        assert_eq!(w.len(), 2);
        for win in &w {
            assert!(win.wall_ns >= 2_000_000);
            // `b` is nested in `a`; both are charged, `a` only once.
            assert!(win.spans["a"] >= win.spans["b"] && win.spans["b"] >= 2_000_000);
            assert!(win.spans["a"] <= win.wall_ns);
        }
        assert_eq!(span_durations(&lane, "a").len(), 5);
        assert_eq!(span_durations(&lane, "step").len(), 2);
    }

    #[test]
    fn ledger_takes_the_slowest_rank_then_the_median_step() {
        let win = |wall, a| StepWindow {
            wall_ns: wall,
            spans: BTreeMap::from([("t2.a", a), ("other", 1)]),
        };
        let l = Ledger {
            per_rank: vec![
                vec![
                    win(10_000_000, 9_000_000),
                    win(20_000_000, 19_000_000),
                    win(30_000_000, 1),
                ],
                vec![
                    win(12_000_000, 6_000_000),
                    win(18_000_000, 1),
                    win(30_000_000, 30_000_000),
                ],
            ],
        };
        assert_eq!(l.steps(), 3);
        assert_eq!(l.step_ms(), vec![12.0, 20.0, 30.0]);
        assert_eq!(l.span_ms("t2.a"), 19.0);
        assert_eq!(l.span_ms("absent"), 0.0);
        // Worst rank per step: 50 %, ~100 %, ~100 %.
        assert!((l.unattributed_pct("t2.") - 100.0).abs() < 1e-3);
    }

    #[test]
    fn counter_peak_follows_the_timeline() {
        use crate::product::names;
        let lane = lane_of(|| {
            count(names::SERVE_KV_BLOCKS_USED, 3);
            count(names::SERVE_KV_BLOCKS_USED, 4);
            count(names::SERVE_KV_BLOCKS_FREE, 3);
            count(names::SERVE_KV_BLOCKS_USED, 1);
        });
        assert_eq!(
            counter_peak(
                &lane,
                names::SERVE_KV_BLOCKS_USED,
                names::SERVE_KV_BLOCKS_FREE
            ),
            7
        );
    }
}
