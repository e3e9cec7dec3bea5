//! The merged trace: per-rank event logs plus analysis helpers.

use crate::names;
use std::collections::BTreeMap;

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (pushed onto the rank's span stack).
    Enter,
    /// A span closed (popped; must match the most recent open `Enter`).
    Exit,
    /// A monotonic counter advanced by the carried delta.
    Count(u64),
}

/// One recorded event: a timestamp (nanoseconds since the collector's
/// epoch), a static name, and the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the owning [`crate::TraceCollector`]'s epoch.
    pub t_ns: u64,
    /// Span or counter name (see [`crate::names`]).
    pub name: &'static str,
    /// Enter / Exit / Count.
    pub kind: EventKind,
}

/// One rank's (or the driver lane's) recorded events, oldest first.
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// Lane id: the rank, or [`crate::DRIVER_LANE`] for the driver.
    pub lane: usize,
    /// Events in record order (timestamps are monotonic within a lane).
    pub events: Vec<Event>,
    /// Events evicted because the rank's ring buffer wrapped.
    pub dropped: u64,
}

impl RankTrace {
    /// Verify that every `Enter` has a matching `Exit` in stack order and
    /// nothing is left open. Returns the offending description on failure.
    pub fn check_balanced(&self) -> Result<(), String> {
        let mut stack: Vec<&'static str> = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::Enter => stack.push(e.name),
                EventKind::Exit => match stack.pop() {
                    Some(top) if top == e.name => {}
                    Some(top) => {
                        return Err(format!(
                            "lane {}: exit '{}' while '{}' was open",
                            self.lane, e.name, top
                        ))
                    }
                    None => {
                        return Err(format!(
                            "lane {}: exit '{}' with no open span",
                            self.lane, e.name
                        ))
                    }
                },
                EventKind::Count(_) => {}
            }
        }
        if let Some(open) = stack.pop() {
            return Err(format!("lane {}: span '{}' never exited", self.lane, open));
        }
        Ok(())
    }

    /// Total nanoseconds spent inside spans named `name` on this lane
    /// (outermost instances only, so self-nesting is not double-counted).
    pub fn span_total_ns(&self, name: &'static str) -> u64 {
        let mut total = 0u64;
        let mut depth = 0usize;
        let mut opened_at = 0u64;
        for e in &self.events {
            if e.name != name {
                continue;
            }
            match e.kind {
                EventKind::Enter => {
                    if depth == 0 {
                        opened_at = e.t_ns;
                    }
                    depth += 1;
                }
                EventKind::Exit => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        total += e.t_ns.saturating_sub(opened_at);
                    }
                }
                EventKind::Count(_) => {}
            }
        }
        total
    }

    /// Number of completed spans named `name` on this lane.
    pub fn span_count(&self, name: &'static str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name && e.kind == EventKind::Exit)
            .count() as u64
    }

    /// Final value of the monotonic counter `name` on this lane.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                EventKind::Count(delta) if e.name == name => delta,
                _ => 0,
            })
            .sum()
    }

    /// Distinct span names seen on this lane, in first-appearance order.
    pub(crate) fn span_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for e in &self.events {
            if matches!(e.kind, EventKind::Enter) && !out.contains(&e.name) {
                out.push(e.name);
            }
        }
        out
    }

    /// Distinct counter names seen on this lane, sorted.
    pub(crate) fn counter_names(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for e in &self.events {
            if matches!(e.kind, EventKind::Count(_)) && !out.contains(&e.name) {
                out.push(e.name);
            }
        }
        out.sort_unstable();
        out
    }
}

/// A completed run's merged trace: one [`RankTrace`] per lane, rank lanes
/// first (ascending), then the driver lane if it recorded anything.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-lane event logs.
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// The lane for `rank`, if it recorded anything.
    pub fn lane(&self, rank: usize) -> Option<&RankTrace> {
        self.ranks.iter().find(|r| r.lane == rank)
    }

    /// Sum of the monotonic counter `name` over every lane.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.ranks.iter().map(|r| r.counter_total(name)).sum()
    }

    /// Sum of time spent in spans named `name` over every lane, ns.
    pub fn span_total_ns(&self, name: &'static str) -> u64 {
        self.ranks.iter().map(|r| r.span_total_ns(name)).sum()
    }

    /// Completed spans named `name` over every lane.
    pub fn span_count(&self, name: &'static str) -> u64 {
        self.ranks.iter().map(|r| r.span_count(name)).sum()
    }

    /// The communication/computation overlap fraction derived purely from
    /// trace counters: ring all-reduce steps that completed under backward
    /// compute over all ring steps, pooled over every lane. `None` when the
    /// overlapped sync never ran (no ring steps recorded).
    pub fn overlap_fraction(&self) -> Option<f64> {
        let total = self.counter_total(names::RING_STEPS);
        if total == 0 {
            return None;
        }
        let overlapped = self.counter_total(names::RING_STEPS_OVERLAPPED);
        Some(overlapped as f64 / total as f64)
    }

    /// Per-family transport byte totals derived from trace counters:
    /// `(family name, bytes sent)` for every `comm.sent.<family>.bytes`
    /// counter present, sorted by family name.
    pub fn sent_bytes_by_family(&self) -> Vec<(&'static str, u64)> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for lane in &self.ranks {
            for e in &lane.events {
                if let EventKind::Count(delta) = e.kind {
                    if let Some(fam) = e
                        .name
                        .strip_prefix("comm.sent.")
                        .and_then(|rest| rest.strip_suffix(".bytes"))
                    {
                        *totals.entry(fam).or_default() += delta;
                    }
                }
            }
        }
        totals.into_iter().collect()
    }

    /// Events evicted by ring-buffer wrap, summed over lanes. Non-zero
    /// means span balance and counter totals are no longer trustworthy for
    /// the wrapped lanes (raise the collector capacity).
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, name: &'static str, kind: EventKind) -> Event {
        Event { t_ns, name, kind }
    }

    fn lane(events: Vec<Event>) -> RankTrace {
        RankTrace {
            lane: 0,
            events,
            dropped: 0,
        }
    }

    #[test]
    fn balanced_stack_passes() {
        let t = lane(vec![
            ev(0, "step", EventKind::Enter),
            ev(1, "forward", EventKind::Enter),
            ev(2, "forward", EventKind::Exit),
            ev(3, "step", EventKind::Exit),
        ]);
        assert!(t.check_balanced().is_ok());
    }

    #[test]
    fn crossed_spans_fail() {
        let t = lane(vec![
            ev(0, "a", EventKind::Enter),
            ev(1, "b", EventKind::Enter),
            ev(2, "a", EventKind::Exit),
        ]);
        assert!(t.check_balanced().is_err());
    }

    #[test]
    fn unclosed_span_fails() {
        let t = lane(vec![ev(0, "a", EventKind::Enter)]);
        assert!(t.check_balanced().is_err());
    }

    #[test]
    fn span_totals_ignore_self_nesting() {
        let t = lane(vec![
            ev(0, "a", EventKind::Enter),
            ev(10, "a", EventKind::Enter),
            ev(20, "a", EventKind::Exit),
            ev(100, "a", EventKind::Exit),
        ]);
        assert_eq!(t.span_total_ns("a"), 100);
        assert_eq!(t.span_count("a"), 2);
    }

    #[test]
    fn counters_accumulate() {
        let t = lane(vec![
            ev(0, "c", EventKind::Count(3)),
            ev(1, "c", EventKind::Count(4)),
            ev(2, "d", EventKind::Count(10)),
        ]);
        assert_eq!(t.counter_total("c"), 7);
        assert_eq!(t.counter_total("d"), 10);
        assert_eq!(t.counter_total("missing"), 0);
    }

    #[test]
    fn overlap_fraction_pools_lanes() {
        let mut trace = Trace::default();
        for lane_id in 0..2 {
            trace.ranks.push(RankTrace {
                lane: lane_id,
                events: vec![
                    ev(0, names::RING_STEPS, EventKind::Count(10)),
                    ev(1, names::RING_STEPS_OVERLAPPED, EventKind::Count(4)),
                ],
                dropped: 0,
            });
        }
        assert_eq!(trace.overlap_fraction(), Some(8.0 / 20.0));
        assert_eq!(Trace::default().overlap_fraction(), None);
    }
}
