//! Fixed-capacity event ring buffer.

/// A bounded ring: pushes past capacity overwrite the oldest entries and
/// are counted, so a runaway trace degrades gracefully (newest events win)
/// instead of growing without bound.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    /// Index of the logical first element once the ring has wrapped.
    head: usize,
    /// Number of pushes that evicted an older element.
    overwritten: u64,
    capacity: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` elements (min 1).
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        let capacity = capacity.max(1);
        Ring {
            buf: Vec::new(),
            head: 0,
            overwritten: 0,
            capacity,
        }
    }

    /// Append, evicting the oldest element when full.
    pub(crate) fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// How many pushes evicted an older element.
    pub(crate) fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drain into a `Vec` in logical (oldest-first) order, resetting the
    /// ring to empty while keeping the eviction count.
    pub(crate) fn drain_ordered(&mut self) -> Vec<T> {
        let head = std::mem::take(&mut self.head);
        let mut buf = std::mem::take(&mut self.buf);
        if head > 0 {
            buf.rotate_left(head);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.buf.len(), 3);
        assert_eq!(r.overwritten(), 2);
        assert_eq!(r.drain_ordered(), vec![2, 3, 4]);
        assert!(r.buf.is_empty());
        assert_eq!(r.overwritten(), 2, "eviction count survives the drain");
    }

    #[test]
    fn under_capacity_preserves_order() {
        let mut r = Ring::new(8);
        r.push('a');
        r.push('b');
        assert_eq!(r.drain_ordered(), vec!['a', 'b']);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = Ring::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.buf.len(), 1);
        assert_eq!(r.drain_ordered(), vec![2]);
    }
}
