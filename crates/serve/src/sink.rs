//! Decision sinks: where a replay driver puts each decision the moment
//! the plane produces it.
//!
//! The two replay drivers ([`crate::replay`]) do not accumulate
//! decisions. A shard's `apply` / `pump` append to a small scratch
//! vector, and the driver drains that vector into a `DecisionSink`
//! after every event (serial) or every ring drain (threaded, one sink
//! per consumer, merged at join). Two sinks exist, and each driver body
//! serves both:
//!
//! * `Collect` keeps every decision, grouped by link or route in
//!   decision order — the [`crate::ReplayOutcome::sequences`] the
//!   invariance suites compare byte for byte;
//! * `Tally` keeps what a bench report prints and nothing else:
//!   decisions, admits and a [`LatencyTally`]. Its size does not depend
//!   on how many decisions it saw.
//!
//! # Why the latency tally is exact
//!
//! `mbac_metrics::Histogram` is the mergeable latency instrument
//! elsewhere in the workspace, and it is the wrong one here. Its
//! `record` is a `log2`, two divisions and a `BTreeMap` insert — on the
//! order of the 45–70 ns decision being timed — and its log bins move a
//! reported quantile by up to 4.4 %. Decision latencies are integer
//! nanoseconds and almost all lie below 65.5 µs, so one `u32` counter
//! per nanosecond value (256 KiB) holds the whole distribution: a sample
//! is one increment, and p50 / p99 / mean are the same numbers
//! [`mbac_num::quantile`] and an `f64` mean give on the full vector.

use crate::plane::Decision;
use crate::routed::RouteDecision;
use mbac_metrics::MetricsSnapshot;
use std::time::Duration;

/// What the sinks and a [`crate::ReplayOutcome`] read off a decision,
/// whichever link logic made it.
pub trait Decided {
    /// Index of the link (single-hop logic) or route (two-phase logic)
    /// whose decision sequence this decision belongs to.
    fn group(&self) -> usize;
    /// Admit (`true`) or reject.
    fn admit(&self) -> bool;
    /// Ingest-to-decision latency, when the request was stamped.
    fn latency_ns(&self) -> Option<u64>;
    /// Appends the decision's canonical byte encoding (latency
    /// excluded: it is a machine fact, not a decision).
    fn encode_into(&self, out: &mut Vec<u8>);
}

impl Decided for Decision {
    fn group(&self) -> usize {
        self.link.index()
    }
    fn admit(&self) -> bool {
        self.admit
    }
    fn latency_ns(&self) -> Option<u64> {
        self.latency_ns
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        Decision::encode_into(self, out);
    }
}

impl Decided for RouteDecision {
    fn group(&self) -> usize {
        self.route.index()
    }
    fn admit(&self) -> bool {
        self.admit
    }
    fn latency_ns(&self) -> Option<u64> {
        self.latency_ns
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        RouteDecision::encode_into(self, out);
    }
}

/// A consumer of decisions. A link's (or route's) decisions all reach
/// the same sink, in decision order; `merge` joins sinks that saw
/// disjoint sets of links (or routes).
pub(crate) trait DecisionSink<D>: Send {
    /// Takes one decision.
    fn record(&mut self, d: D);

    /// Folds in a sink filled by another consumer.
    fn merge(&mut self, other: Self);

    /// Empties the driver's scratch vector into the sink.
    fn record_all(&mut self, out: &mut Vec<D>) {
        for d in out.drain(..) {
            self.record(d);
        }
    }
}

/// What a replay driver hands back: the filled sink, the replay's wall
/// time and the plane's metrics bundle.
pub(crate) struct Replayed<S> {
    pub(crate) sink: S,
    pub(crate) elapsed: Duration,
    pub(crate) snapshot: MetricsSnapshot,
}

/// The collecting sink: every decision, grouped by link or route.
pub(crate) struct Collect<D> {
    groups: Vec<Vec<D>>,
}

impl<D: Decided> Collect<D> {
    /// An empty sink for a workload of `groups` links (or routes).
    pub(crate) fn new(groups: usize) -> Self {
        Collect {
            groups: (0..groups).map(|_| Vec::new()).collect(),
        }
    }

    /// The per-group sequences with the decision and admit totals.
    pub(crate) fn finish(self) -> (Vec<Vec<D>>, u64, u64) {
        let decided = self.groups.iter().flatten();
        let (decisions, admitted) = decided.fold((0, 0), |(n, a), d| (n + 1, a + d.admit() as u64));
        (self.groups, decisions, admitted)
    }
}

impl<D: Decided + Send> DecisionSink<D> for Collect<D> {
    fn record(&mut self, d: D) {
        self.groups[d.group()].push(d);
    }

    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.groups.iter_mut().zip(other.groups) {
            mine.extend(theirs);
        }
    }
}

/// The tally sink: the totals and latency distribution a bench report
/// is made from.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) decisions: u64,
    pub(crate) admitted: u64,
    pub(crate) latency: LatencyTally,
}

impl<D: Decided> DecisionSink<D> for Tally {
    fn record(&mut self, d: D) {
        self.decisions += 1;
        self.admitted += d.admit() as u64;
        if let Some(ns) = d.latency_ns() {
            self.latency.record(ns);
        }
    }

    fn merge(&mut self, other: Self) {
        self.decisions += other.decisions;
        self.admitted += other.admitted;
        self.latency.merge(other.latency);
    }
}

/// An exact tally of integer-nanosecond latencies: a count per value
/// below [`LatencyTally::DENSE_NS`], the values themselves above it.
/// Quantiles and the mean are those of the recorded multiset — not of a
/// binned approximation — see the [module docs](self).
///
/// The dense part is fixed-size; the overflow part takes 8 bytes per
/// sample of 65.5 µs or more, which a serial replay meets only when the
/// host preempts it mid-decision.
#[derive(Debug, Clone)]
pub struct LatencyTally {
    /// `dense[ns]` counts the samples of exactly `ns` nanoseconds.
    dense: Vec<u32>,
    /// The samples of `DENSE_NS` and more, in no particular order.
    overflow: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

impl Default for LatencyTally {
    fn default() -> Self {
        LatencyTally {
            dense: vec![0; Self::DENSE_NS as usize],
            overflow: Vec::new(),
            n: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyTally {
    /// Latencies below this many nanoseconds are counted per value.
    pub const DENSE_NS: u64 = 1 << 16;

    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one latency.
    ///
    /// # Panics
    /// Panics on the 2³²-th sample of one value below
    /// [`Self::DENSE_NS`].
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        self.sum_ns += u128::from(ns);
        if ns < Self::DENSE_NS {
            let count = &mut self.dense[ns as usize];
            *count = count.checked_add(1).expect("a latency bin overflowed u32");
        } else {
            self.overflow.push(ns);
        }
    }

    /// Adds every latency of `other`.
    ///
    /// # Panics
    /// As [`Self::record`].
    pub fn merge(&mut self, other: LatencyTally) {
        self.n += other.n;
        self.sum_ns += other.sum_ns;
        for (mine, theirs) in self.dense.iter_mut().zip(other.dense) {
            *mine = mine
                .checked_add(theirs)
                .expect("a latency bin overflowed u32");
        }
        self.overflow.extend(other.overflow);
    }

    /// Number of latencies recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean latency in nanoseconds (0 when empty). The sum is kept as
    /// an integer, so this is the `f64` running mean of the same values
    /// as long as that sum stays exact in an `f64` (below 2⁵³ ns, 104
    /// days of summed latency), and the better-rounded one beyond.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64
        }
    }

    /// The type-7 quantile of the recorded latencies, in nanoseconds:
    /// bit for bit what [`mbac_num::quantile`] returns on the full
    /// vector of them as `f64`s. Takes `&mut self` to order the
    /// overflow samples in place.
    ///
    /// # Panics
    /// Panics on an empty tally or `p` outside `[0, 1]`.
    pub fn quantile(&mut self, p: f64) -> f64 {
        assert!(self.n > 0, "quantile of empty tally");
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile p must be in [0,1], got {p}"
        );
        self.overflow.sort_unstable();
        let h = p * (self.n - 1) as f64;
        let lo = h.floor() as u64;
        let at_lo = self.order_statistic(lo) as f64;
        if h.ceil() as u64 == lo {
            at_lo
        } else {
            let at_hi = self.order_statistic(lo + 1) as f64;
            at_lo + (h - lo as f64) * (at_hi - at_lo)
        }
    }

    /// The `k`-th smallest latency (0-based); `overflow` must be sorted.
    fn order_statistic(&self, k: u64) -> u64 {
        let mut seen = 0u64;
        for (ns, &count) in self.dense.iter().enumerate() {
            seen += u64::from(count);
            if k < seen {
                return ns as u64;
            }
        }
        self.overflow[(k - seen) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_core::topology::LinkId;
    use mbac_num::quantile;
    use proptest::prelude::*;

    fn tally_of(latencies: &[u64]) -> LatencyTally {
        let mut tally = LatencyTally::new();
        for &ns in latencies {
            tally.record(ns);
        }
        tally
    }

    /// Maps a raw draw to a latency that is dense, just around the
    /// dense/overflow edge, or well into the overflow, so every rank
    /// boundary gets exercised.
    fn latency(raw: u64) -> u64 {
        let x = raw % 400;
        match raw / 400 {
            0 | 1 => 40 + x % 90,
            2 => LatencyTally::DENSE_NS - 200 + x,
            _ => LatencyTally::DENSE_NS + x * 7_919,
        }
    }

    proptest! {
        /// p50 / p99 / any p, and the mean, are the bits `quantile` and
        /// the `f64` mean give on the same latencies — also when they
        /// reach a tally in two halves merged afterwards.
        #[test]
        fn tally_statistics_equal_the_full_vector_ones(
            raw in proptest::collection::vec(0u64..1600, 1..300),
            p in 0.0f64..1.0,
            split in 0usize..300,
        ) {
            let latencies: Vec<u64> = raw.into_iter().map(latency).collect();
            let as_f64: Vec<f64> = latencies.iter().map(|&ns| ns as f64).collect();
            let split = split.min(latencies.len());
            let mut merged = tally_of(&latencies[..split]);
            merged.merge(tally_of(&latencies[split..]));
            for mut tally in [tally_of(&latencies), merged] {
                prop_assert_eq!(tally.len(), latencies.len() as u64);
                for p in [0.0, 0.5, 0.99, 1.0, p] {
                    prop_assert_eq!(
                        tally.quantile(p).to_bits(),
                        quantile(&as_f64, p).to_bits(),
                        "p = {}", p
                    );
                }
                let mean = as_f64.iter().sum::<f64>() / as_f64.len() as f64;
                prop_assert_eq!(tally.mean().to_bits(), mean.to_bits());
            }
        }
    }

    #[test]
    fn tiny_tallies_match_quantile() {
        assert!(LatencyTally::new().is_empty());
        assert_eq!(LatencyTally::new().mean(), 0.0);
        for latencies in [vec![57], vec![57, 1 << 20], vec![1 << 20, 1 << 21]] {
            let as_f64: Vec<f64> = latencies.iter().map(|&ns| ns as f64).collect();
            let mut tally = tally_of(&latencies);
            for p in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(tally.quantile(p), quantile(&as_f64, p), "{latencies:?} {p}");
            }
            assert_eq!(tally.mean(), mbac_num::mean(&as_f64));
        }
    }

    #[test]
    #[should_panic(expected = "quantile of empty tally")]
    fn empty_tally_has_no_quantile() {
        LatencyTally::new().quantile(0.5);
    }

    #[test]
    fn saturated_latency_keeps_the_sum_exact() {
        let mut tally = tally_of(&[u64::MAX, u64::MAX, 2]);
        assert_eq!(tally.mean(), (2.0 * u64::MAX as f64 + 2.0) / 3.0);
        assert_eq!(tally.quantile(0.0), 2.0);
    }

    #[test]
    fn collect_merges_disjoint_groups_in_order() {
        let d = |link: u32, occupancy: u32| Decision {
            link: LinkId(link),
            admit: occupancy.is_multiple_of(2),
            admissible: None,
            occupancy,
            latency_ns: None,
        };
        let mut a = Collect::new(3);
        let mut b = Collect::new(3);
        a.record(d(0, 1));
        b.record(d(2, 2));
        a.record(d(0, 3));
        b.record(d(2, 4));
        a.merge(b);
        let (groups, decisions, admitted) = a.finish();
        assert_eq!((decisions, admitted), (4, 2));
        assert_eq!(groups[0], [d(0, 1), d(0, 3)]);
        assert!(groups[1].is_empty());
        assert_eq!(groups[2], [d(2, 2), d(2, 4)]);
    }
}
