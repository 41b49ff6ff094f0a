//! A deterministic discrete-event queue.
//!
//! Minimal and fully owned (smoltcp-style): events are `(time, payload)`
//! pairs popped in time order, with FIFO tie-breaking via a monotone
//! sequence number so that simultaneous events replay identically across
//! runs — a prerequisite for seed-reproducible simulations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry (internal).
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: f64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with the clock at 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time: the time of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or lies in the past.
    pub fn schedule_at(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Schedules `payload` at `now + delay`.
    pub fn schedule_in(&mut self, delay: f64, payload: T) {
        assert!(delay >= 0.0, "delay must be non-negative");
        self.schedule_at(self.now + delay, payload);
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            (e.time, e.payload)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events (the clock is kept).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop().unwrap(), (1.0, "a"));
        assert_eq!(q.pop().unwrap(), (2.0, "b"));
        assert_eq!(q.pop().unwrap(), (3.0, "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(5.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(2.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, "first");
        q.pop();
        q.schedule_in(5.0, "second");
        assert_eq!(q.pop().unwrap(), (15.0, "second"));
    }

    #[test]
    #[should_panic]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.pop();
        q.schedule_at(5.0, ());
    }

    #[test]
    #[should_panic]
    fn rejects_nan_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(f64::NAN, ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 1);
        q.schedule_at(2.0, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 1);
        q.schedule_at(4.0, 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(2.0, 2); // between popped 1.0 and pending 4.0
        q.schedule_at(3.0, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }
}
