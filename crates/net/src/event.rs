//! A minimal discrete-event queue with a monotone simulated clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in seconds, wrapped so it can live in a `BinaryHeap`
/// (total order; NaN is forbidden by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimTime(pub f64);

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime must be finite")
    }
}

/// A time-ordered queue of events carrying payload `E`.
///
/// Events scheduled at equal times pop in insertion order (a stable
/// tie-break keeps simulations deterministic).
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedule `event` at absolute time `at` (seconds). Panics if `at` is
    /// NaN or in the past — discrete-event time never rewinds.
    pub(crate) fn schedule(&mut self, at: f64, event: E) {
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at} < {}",
            self.now
        );
        let idx = self.payloads.len();
        self.payloads.push(Some(event));
        self.heap.push(Reverse((SimTime(at), self.seq, idx)));
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        let Reverse((t, _, idx)) = self.heap.pop()?;
        self.now = t.0;
        let e = self.payloads[idx]
            .take()
            .expect("event payload already taken");
        Some((t.0, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(1.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now, 0.0);
        q.pop();
        assert_eq!(q.now, 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn len_tracks_pending() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.heap.is_empty());
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.heap.len(), 2);
        q.pop();
        assert_eq!(q.heap.len(), 1);
    }
}
