//! Multi-producer stress properties of the ingest ring: every pushed
//! item is delivered exactly once (loss-free), and each producer's
//! items arrive in its program order (per-producer FIFO) — including
//! under sustained backpressure from deliberately tiny rings, which is
//! the regime the closed-loop bench runs in.

use mbac_metrics::IngestRing;
use proptest::prelude::*;
use std::sync::Arc;

/// Tags an item with its producer and per-producer sequence number.
fn tag(producer: usize, seq: usize) -> u64 {
    ((producer as u64) << 32) | seq as u64
}

/// Pushes `items` tagged items from `producers` threads through `ring`
/// while this thread consumes, returning the consumption order.
fn stress(ring: &Arc<IngestRing<u64>>, producers: usize, items: usize, spin: bool) -> Vec<u64> {
    std::thread::scope(|s| {
        for p in 0..producers {
            let ring = Arc::clone(ring);
            s.spawn(move || {
                for i in 0..items {
                    if spin {
                        ring.push_spin(tag(p, i));
                    } else {
                        let mut item = tag(p, i);
                        // The visible-backpressure path: try, yield, retry.
                        while let Err(back) = ring.try_push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
        let total = producers * items;
        let mut got = Vec::with_capacity(total);
        while got.len() < total {
            match ring.try_pop() {
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        got
    })
}

/// Asserts delivery is exactly-once and in per-producer order.
fn check_fifo_loss_free(received: &[u64], producers: usize, items: usize) {
    assert_eq!(
        received.len(),
        producers * items,
        "lost or duplicated items"
    );
    let mut next = vec![0u64; producers];
    for &v in received {
        let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
        assert!(p < producers);
        assert_eq!(i, next[p], "producer {p} out of order");
        next[p] += 1;
    }
    for (p, &n) in next.iter().enumerate() {
        assert_eq!(n as usize, items, "producer {p} short-delivered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any producer count, item count, and (tiny) ring capacity: the
    /// drain is loss-free and per-producer FIFO. Capacities down to 2
    /// force the bounded-queue backpressure path on nearly every push.
    #[test]
    fn drain_is_fifo_and_loss_free_under_contention(
        producers in 1usize..5,
        items in 1usize..250,
        cap_pow in 1u32..6,
    ) {
        let ring = Arc::new(IngestRing::with_capacity(1 << cap_pow));
        let received = stress(&ring, producers, items, false);
        check_fifo_loss_free(&received, producers, items);
        prop_assert!(ring.try_pop().is_none(), "ring must end empty");
    }
}

/// Replays the saved case from `ring.proptest-regressions` (the
/// vendored proptest subset does not read the file itself, so the seed
/// is pinned here deterministically): the tightest-contention corner —
/// maximum producers, maximum items, a 2-slot ring — where every push
/// rides the backpressure path and laps wrap fastest.
#[test]
fn regression_max_contention_two_slot_ring() {
    let (producers, items, cap_pow) = (4, 249, 1);
    let ring = Arc::new(IngestRing::with_capacity(1 << cap_pow));
    let received = stress(&ring, producers, items, false);
    check_fifo_loss_free(&received, producers, items);
    assert!(ring.try_pop().is_none());
}

/// Deterministic heavy stress: four producers, thousands of items,
/// an 8-slot ring — maximal lap-around and contention.
#[test]
fn heavy_contention_stays_exactly_once() {
    let ring = Arc::new(IngestRing::with_capacity(8));
    let received = stress(&ring, 4, 5_000, false);
    check_fifo_loss_free(&received, 4, 5_000);
}

/// The spinning push helper delivers the same guarantees.
#[test]
fn push_spin_is_fifo_and_loss_free() {
    let ring = Arc::new(IngestRing::with_capacity(16));
    let received = stress(&ring, 2, 2_000, true);
    check_fifo_loss_free(&received, 2, 2_000);
}
