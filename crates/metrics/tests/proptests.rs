//! Property-based tests for the metrics instruments: merge algebra of
//! snapshots (associativity, order-insensitivity).

use mbac_metrics::{
    Aggregated, Counter, Gauge, Histogram, Mergeable, MetricValue, MetricsSnapshot, TimeSeries,
};
use proptest::prelude::*;

fn histogram_of(xs: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &x in xs {
        h.record(x);
    }
    h
}

fn gauge_of(xs: &[f64]) -> Gauge {
    let mut g = Gauge::new();
    for &x in xs {
        g.set(x);
    }
    g
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    /// Histogram snapshot merge is associative: integer state (count,
    /// bins, min, max) exactly, the f64 sum up to rounding.
    #[test]
    fn histogram_merge_associative(
        xs in proptest::collection::vec(-1e4f64..1e4, 0..40),
        ys in proptest::collection::vec(-1e4f64..1e4, 0..40),
        zs in proptest::collection::vec(-1e4f64..1e4, 0..40),
    ) {
        let (a, b, c) = (
            histogram_of(&xs).snapshot(),
            histogram_of(&ys).snapshot(),
            histogram_of(&zs).snapshot(),
        );
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left.count, right.count);
        prop_assert_eq!(&left.bins, &right.bins);
        prop_assert_eq!(left.min.to_bits(), right.min.to_bits());
        prop_assert_eq!(left.max.to_bits(), right.max.to_bits());
        prop_assert!(close(left.sum, right.sum, 1e-12), "{} vs {}", left.sum, right.sum);
    }

    /// Histogram snapshot merge is order-insensitive (commutative).
    #[test]
    fn histogram_merge_commutative(
        xs in proptest::collection::vec(-1e4f64..1e4, 0..40),
        ys in proptest::collection::vec(-1e4f64..1e4, 0..40),
    ) {
        let (a, b) = (histogram_of(&xs).snapshot(), histogram_of(&ys).snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.count, ba.count);
        prop_assert_eq!(&ab.bins, &ba.bins);
        prop_assert_eq!(ab.min.to_bits(), ba.min.to_bits());
        prop_assert_eq!(ab.max.to_bits(), ba.max.to_bits());
        // f64 addition commutes exactly.
        prop_assert_eq!(ab.sum.to_bits(), ba.sum.to_bits());
    }

    /// Gauge distribution state obeys the same algebra, and counter
    /// merges are exactly associative and commutative.
    #[test]
    fn gauge_and_counter_merge_algebra(
        xs in proptest::collection::vec(-50.0f64..50.0, 0..20),
        ys in proptest::collection::vec(-50.0f64..50.0, 0..20),
        na in 0u64..1_000_000,
        nb in 0u64..1_000_000,
    ) {
        let (a, b) = (gauge_of(&xs).snapshot(), gauge_of(&ys).snapshot());
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.count, ba.count);
        prop_assert_eq!(ab.min.to_bits(), ba.min.to_bits());
        prop_assert_eq!(ab.max.to_bits(), ba.max.to_bits());
        prop_assert_eq!(ab.sum.to_bits(), ba.sum.to_bits());

        let mut ca = Counter::new();
        ca.add(na);
        let mut cb = Counter::new();
        cb.add(nb);
        let mut sab = ca.snapshot();
        sab.merge(&cb.snapshot());
        let mut sba = cb.snapshot();
        sba.merge(&ca.snapshot());
        prop_assert_eq!(sab, sba);
        prop_assert_eq!(sab.count, na + nb);
    }

    /// Splitting one stream across k snapshots and folding them back
    /// (in any split) reproduces the unsplit snapshot — the property the
    /// parallel replication workers rely on.
    #[test]
    fn histogram_split_fold_equals_whole(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..60),
        k in 1usize..5,
    ) {
        let whole = histogram_of(&xs).snapshot();
        let mut parts: Vec<Histogram> = (0..k).map(|_| Histogram::new()).collect();
        for (i, &x) in xs.iter().enumerate() {
            parts[i % k].record(x);
        }
        let mut folded = parts[0].snapshot();
        for p in &parts[1..] {
            folded.merge(&p.snapshot());
        }
        prop_assert_eq!(folded.count, whole.count);
        prop_assert_eq!(&folded.bins, &whole.bins);
        prop_assert_eq!(folded.min.to_bits(), whole.min.to_bits());
        prop_assert_eq!(folded.max.to_bits(), whole.max.to_bits());
        prop_assert!(close(folded.sum, whole.sum, 1e-12));
    }

    /// Snapshot-container merge inherits associativity from the values
    /// it contains, including names present on only one side.
    #[test]
    fn container_merge_associative(
        xs in proptest::collection::vec(0.0f64..100.0, 0..25),
        ys in proptest::collection::vec(0.0f64..100.0, 0..25),
        zs in proptest::collection::vec(0.0f64..100.0, 0..25),
    ) {
        let pack = |vals: &[f64], extra: bool| {
            let mut s = MetricsSnapshot::new();
            s.insert("h", MetricValue::Histogram(histogram_of(vals).snapshot()));
            if extra {
                let mut c = Counter::new();
                c.add(vals.len() as u64);
                s.insert("c", MetricValue::Counter(c.snapshot()));
            }
            s
        };
        let (a, b, c) = (pack(&xs, true), pack(&ys, false), pack(&zs, true));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        // Integer state is exactly associative; f64 sums agree up to
        // one rounding per merge, which the JSON view would surface in
        // the last digit — compare structurally instead.
        prop_assert_eq!(left.names().collect::<Vec<_>>(), right.names().collect::<Vec<_>>());
        match (left.get("h"), right.get("h")) {
            (Some(MetricValue::Histogram(l)), Some(MetricValue::Histogram(r))) => {
                prop_assert_eq!(l.count, r.count);
                prop_assert_eq!(&l.bins, &r.bins);
                prop_assert!(close(l.sum, r.sum, 1e-12));
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
        prop_assert_eq!(left.get("c"), right.get("c"));
    }

    /// Time-series merge is order-insensitive and capacity-bounded.
    #[test]
    fn series_merge_commutative_and_bounded(
        ta in proptest::collection::vec(0.0f64..1e3, 0..50),
        tb in proptest::collection::vec(0.0f64..1e3, 0..50),
    ) {
        let fill = |ts: &[f64]| {
            let mut s = TimeSeries::new(16);
            for (i, &t) in ts.iter().enumerate() {
                s.record(t, i as f64);
            }
            s.snapshot()
        };
        let (a, b) = (fill(&ta), fill(&tb));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab.points, &ba.points);
        prop_assert!(ab.points.len() <= 16);
        // Timestamps stay sorted.
        for w in ab.points.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}
