//! The recording side: a shared collector, per-thread lanes, and the
//! [`span`]/[`count`] free functions instrumentation sites call.
//!
//! Cost model: when no collector is installed anywhere, every call site
//! pays one relaxed atomic load and returns. When a collector exists but
//! the calling thread holds no lane (e.g. a helper thread), the cost is
//! one thread-local probe. Only installed threads pay for recording —
//! an `Instant` read and a ring-buffer push, no locks.

use crate::ring::Ring;
use crate::trace::{Event, EventKind, RankTrace, Trace};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lane id the fault-tolerant driver records on (it is not a rank).
pub const DRIVER_LANE: usize = usize::MAX;

/// Number of live [`InstallGuard`]s across all threads; the global fast
/// path for [`enabled`].
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// True when at least one thread currently records a trace. Call sites
/// with non-trivial argument preparation should check this first; [`span`]
/// and [`count`] check it themselves.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Default per-lane ring capacity, in events. A training step records on
/// the order of tens of span events and a few hundred counter events per
/// rank, so this holds thousands of steps before wrapping.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 20;

struct Lane {
    lane: usize,
    ring: Ring<Event>,
    epoch: Instant,
    shared: Arc<Shared>,
}

thread_local! {
    static LOCAL: RefCell<Option<Lane>> = const { RefCell::new(None) };
}

struct Shared {
    epoch: Instant,
    capacity: usize,
    /// Finished lanes, appended as rank threads uninstall. A rank that
    /// appears more than once (checkpoint-restart attempts) is merged by
    /// [`TraceCollector::finish`].
    done: Mutex<Vec<RankTrace>>,
}

/// Owns a run's trace while it is being recorded. Cheap to clone (shared
/// handle); create one per run, hand clones to rank threads, then call
/// [`TraceCollector::finish`] once every rank has uninstalled.
#[derive(Clone)]
pub struct TraceCollector {
    shared: Arc<Shared>,
}

impl TraceCollector {
    /// A collector with the default per-lane ring capacity.
    pub fn new() -> TraceCollector {
        TraceCollector::with_capacity(DEFAULT_CAPACITY)
    }

    /// A collector whose per-lane rings hold `capacity` events each.
    pub(crate) fn with_capacity(capacity: usize) -> TraceCollector {
        TraceCollector {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                capacity,
                done: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Nanoseconds since this collector's epoch (the run start).
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Attach the calling thread to `lane` (its rank id, or
    /// [`DRIVER_LANE`]). Subsequent [`span`]/[`count`] calls on this thread
    /// record into the lane until the returned guard drops, which flushes
    /// the lane's events into the collector. Panics if the thread already
    /// records (lanes do not nest).
    pub fn install(&self, lane: usize) -> InstallGuard {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            assert!(
                slot.is_none(),
                "thread already records a trace lane; lanes do not nest"
            );
            *slot = Some(Lane {
                lane,
                ring: Ring::new(self.shared.capacity),
                epoch: self.shared.epoch,
                shared: Arc::clone(&self.shared),
            });
        });
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        InstallGuard { _private: () }
    }

    /// Record a complete span directly onto a lane, bypassing the
    /// thread-local path — the driver uses this for phases (recovery) it
    /// only recognizes after the fact. Timestamps are [`Self::now_ns`]
    /// values.
    pub fn record_span(&self, lane: usize, name: &'static str, t0_ns: u64, t1_ns: u64) {
        self.record_events(
            lane,
            vec![
                Event {
                    t_ns: t0_ns,
                    name,
                    kind: EventKind::Enter,
                },
                Event {
                    t_ns: t1_ns.max(t0_ns),
                    name,
                    kind: EventKind::Exit,
                },
            ],
        );
    }

    /// Record a counter increment directly onto a lane (driver-side
    /// counters such as restarts).
    pub fn record_count(&self, lane: usize, name: &'static str, delta: u64) {
        let t = self.now_ns();
        self.record_events(
            lane,
            vec![Event {
                t_ns: t,
                name,
                kind: EventKind::Count(delta),
            }],
        );
    }

    fn record_events(&self, lane: usize, events: Vec<Event>) {
        self.shared.done.lock().push(RankTrace {
            lane,
            events,
            dropped: 0,
        });
    }

    /// Merge every flushed lane into a [`Trace`]: rank lanes ascending,
    /// driver lane last. Lanes flushed more than once (restart attempts,
    /// driver records) are concatenated in flush order, which preserves
    /// per-lane timestamp monotonicity because attempts are sequential.
    pub fn finish(&self) -> Trace {
        let mut flushed = std::mem::take(&mut *self.shared.done.lock());
        // Stable: preserves flush order within a lane.
        flushed.sort_by_key(|r| r.lane);
        let mut ranks: Vec<RankTrace> = Vec::new();
        for part in flushed {
            match ranks.last_mut() {
                Some(prev) if prev.lane == part.lane => {
                    prev.events.extend(part.events);
                    prev.dropped += part.dropped;
                }
                _ => ranks.push(part),
            }
        }
        Trace { ranks }
    }
}

impl Default for TraceCollector {
    fn default() -> TraceCollector {
        TraceCollector::new()
    }
}

/// Detaches the thread from its lane on drop, flushing recorded events
/// into the collector.
#[must_use = "dropping the guard immediately would stop recording at once"]
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
        LOCAL.with(|slot| {
            if let Some(mut lane) = slot.borrow_mut().take() {
                let dropped = lane.ring.overwritten();
                let events = lane.ring.drain_ordered();
                lane.shared.done.lock().push(RankTrace {
                    lane: lane.lane,
                    events,
                    dropped,
                });
            }
        });
    }
}

#[inline]
fn record(name: &'static str, kind: EventKind) -> bool {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_mut() {
            Some(lane) => {
                let t_ns = lane.epoch.elapsed().as_nanos() as u64;
                lane.ring.push(Event { t_ns, name, kind });
                true
            }
            None => false,
        }
    })
}

/// Open a span named `name`; it closes when the returned guard drops.
/// Near-free when tracing is disabled or the thread holds no lane.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name: None };
    }
    let armed = record(name, EventKind::Enter);
    SpanGuard {
        name: armed.then_some(name),
    }
}

/// Add `delta` to the monotonic counter `name` on this thread's lane.
/// Near-free when tracing is disabled or the thread holds no lane.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    record(name, EventKind::Count(delta));
}

/// RAII guard returned by [`span`]; records the matching exit on drop.
#[must_use = "dropping the guard immediately closes the span at once"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record(name, EventKind::Exit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn records_spans_and_counters_per_lane() {
        let collector = TraceCollector::new();
        std::thread::scope(|s| {
            for rank in 0..3usize {
                let col = collector.clone();
                s.spawn(move || {
                    let _g = col.install(rank);
                    for _ in 0..2 {
                        let _step = span(names::STEP);
                        {
                            let _f = span(names::FORWARD);
                            count("c.bytes", 10);
                        }
                        let _b = span(names::BACKWARD);
                    }
                });
            }
        });
        let trace = collector.finish();
        assert_eq!(trace.ranks.len(), 3);
        for rank in 0..3 {
            let lane = trace.lane(rank).expect("lane recorded");
            lane.check_balanced().expect("balanced");
            assert_eq!(lane.span_count(names::STEP), 2);
            assert_eq!(lane.counter_total("c.bytes"), 20);
        }
        assert_eq!(trace.counter_total("c.bytes"), 60);
    }

    #[test]
    fn untraced_threads_record_nothing() {
        // No collector installed on this thread: both paths are inert.
        let _s = span("ghost");
        count("ghost.counter", 1);
        let collector = TraceCollector::new();
        assert!(collector.finish().ranks.is_empty());
    }

    #[test]
    fn driver_side_records_merge_into_one_lane() {
        let collector = TraceCollector::new();
        collector.record_span(DRIVER_LANE, names::RECOVERY, 10, 50);
        collector.record_count(DRIVER_LANE, names::RESTARTS, 1);
        collector.record_span(DRIVER_LANE, names::RECOVERY, 60, 90);
        let trace = collector.finish();
        assert_eq!(trace.ranks.len(), 1);
        let lane = trace.lane(DRIVER_LANE).unwrap();
        assert_eq!(lane.span_count(names::RECOVERY), 2);
        assert_eq!(lane.span_total_ns(names::RECOVERY), 70);
        assert_eq!(lane.counter_total(names::RESTARTS), 1);
    }

    #[test]
    fn reinstall_after_drop_appends_to_the_same_lane() {
        let collector = TraceCollector::new();
        std::thread::scope(|s| {
            let col = &collector;
            s.spawn(move || {
                {
                    let _g = col.install(0);
                    let _s = span("attempt");
                }
                {
                    let _g = col.install(0);
                    let _s = span("attempt");
                }
            });
        });
        let trace = collector.finish();
        assert_eq!(trace.ranks.len(), 1);
        assert_eq!(trace.lane(0).unwrap().span_count("attempt"), 2);
        trace.lane(0).unwrap().check_balanced().unwrap();
    }

    #[test]
    fn ring_wrap_reports_drops() {
        let collector = TraceCollector::with_capacity(4);
        std::thread::scope(|s| {
            let col = &collector;
            s.spawn(move || {
                let _g = col.install(0);
                for _ in 0..10 {
                    count("c", 1);
                }
            });
        });
        let trace = collector.finish();
        assert_eq!(trace.total_dropped(), 6);
        assert_eq!(trace.counter_total("c"), 4, "only surviving events count");
    }
}
