//! The bounded lock-free ingest ring.
//!
//! A fixed-capacity multi-producer queue (Vyukov's bounded MPMC
//! algorithm, used here with a single consumer). It carries two
//! workloads: the decision plane's measurement ingest in `mbac-serve`
//! and the streaming metrics sink's record feed ([`crate::stream`]).
//! Two properties carry both correctness arguments:
//!
//! * **per-producer FIFO** — a producer's pushes are claimed at strictly
//!   increasing cursor positions, and the consumer drains positions in
//!   order, so every producer's items come out in its program order
//!   (global order across producers is some interleaving, which is all
//!   the sharding proof needs — each link has one producer);
//! * **loss-free** — the ring never drops silently:
//!   [`IngestRing::try_push`] fails *visibly* when full (the
//!   backpressure signal; the streaming sink turns it into a drop
//!   counter) and [`IngestRing::push_spin`] spins until space frees.
//!
//! The implementation is allocation-free after construction and uses no
//! locks: each slot carries a sequence number that encodes whether it is
//! ready for the current lap's producer or consumer.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads the cursors to their own cache lines so producers hammering the
/// enqueue cursor do not false-share with the consumer's dequeue cursor.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// Lap marker: `pos` when writable by the producer claiming `pos`,
    /// `pos + 1` when readable, `pos + capacity` when writable again on
    /// the next lap.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer queue (single consumer by
/// convention; the algorithm is safe for multiple consumers too).
pub struct IngestRing<T> {
    slots: Box<[Slot<T>]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    enqueue: CachePadded<AtomicUsize>,
    dequeue: CachePadded<AtomicUsize>,
}

// The ring hands each value from exactly one producer to exactly one
// consumer (ownership transfer), so `T: Send` suffices.
unsafe impl<T: Send> Send for IngestRing<T> {}
unsafe impl<T: Send> Sync for IngestRing<T> {}

impl<T> IngestRing<T> {
    /// Creates a ring holding at least `capacity` items (rounded up to
    /// the next power of two, minimum 2).
    ///
    /// # Panics
    /// Panics if `capacity` is 0, or so large that no power of two
    /// holds it (callers bound what they pass long before that).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        let cap = capacity
            .checked_next_power_of_two()
            .expect("ring capacity has no power of two above it")
            .max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        IngestRing {
            slots,
            mask: cap - 1,
            enqueue: CachePadded(AtomicUsize::new(0)),
            dequeue: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate number of items currently queued (exact when no
    /// operation is in flight).
    pub fn len(&self) -> usize {
        let tail = self.enqueue.0.load(Ordering::Acquire);
        let head = self.dequeue.0.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, or returns it when the ring is full — the
    /// backpressure signal of the closed loop. Callable from any thread.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut pos = self.enqueue.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot is writable for exactly this position: claim it.
                match self.enqueue.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own the slot until the seq store below.
                        unsafe { (*slot.value.get()).write(item) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // Consumer has not freed this slot from the previous
                // lap: the ring is full.
                return Err(item);
            } else {
                // Another producer claimed `pos`; chase the cursor.
                pos = self.enqueue.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Enqueues `item`, spinning while the ring is full.
    pub fn push_spin(&self, mut item: T) {
        loop {
            match self.try_push(item) {
                Ok(()) => return,
                Err(back) => {
                    item = back;
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Dequeues the oldest item, or `None` when the ring is empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.dequeue.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - (pos + 1) as isize;
            if dif == 0 {
                match self.dequeue.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        // Free the slot for the producer's next lap.
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // Producer has not published this position yet: empty.
                return None;
            } else {
                pos = self.dequeue.0.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for IngestRing<T> {
    fn drop(&mut self) {
        // Drain whatever was published but never consumed.
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(IngestRing::<u32>::with_capacity(1).capacity(), 2);
        assert_eq!(IngestRing::<u32>::with_capacity(5).capacity(), 8);
        assert_eq!(IngestRing::<u32>::with_capacity(8).capacity(), 8);
    }

    /// Release builds wrap `next_power_of_two` to 0; the ring must not
    /// turn that into a 2-slot ring.
    #[test]
    #[should_panic(expected = "no power of two")]
    fn unroundable_capacity_panics_instead_of_wrapping() {
        IngestRing::<u32>::with_capacity(usize::MAX / 2 + 2);
    }

    #[test]
    fn fifo_within_one_thread() {
        let ring = IngestRing::with_capacity(8);
        for i in 0..8 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.len(), 8);
        for i in 0..8 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn full_ring_rejects_with_the_item() {
        let ring = IngestRing::with_capacity(2);
        ring.try_push(10).unwrap();
        ring.try_push(11).unwrap();
        assert_eq!(ring.try_push(12), Err(12));
        assert_eq!(ring.try_pop(), Some(10));
        ring.try_push(12).unwrap();
        assert_eq!(ring.try_pop(), Some(11));
        assert_eq!(ring.try_pop(), Some(12));
    }

    #[test]
    fn wraps_around_many_laps() {
        let ring = IngestRing::with_capacity(4);
        for lap in 0u64..100 {
            for i in 0..3 {
                ring.try_push(lap * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(ring.try_pop(), Some(lap * 10 + i));
            }
        }
        assert!(ring.is_empty());
    }

    /// Unconsumed items are dropped with the ring (no leak): count drops
    /// of a guard type.
    #[test]
    fn drop_releases_unpopped_items() {
        struct Guard(Arc<AtomicU64>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let ring = IngestRing::with_capacity(8);
        for _ in 0..5 {
            assert!(ring.try_push(Guard(Arc::clone(&drops))).is_ok());
        }
        drop(ring.try_pop()); // one consumed
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(ring);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }
}
