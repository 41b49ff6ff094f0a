//! The typed instruments and their mergeable snapshots.
//!
//! Each instrument implements [`Aggregated`]: cheap O(1) recording on
//! the hot path, and a [`snapshot`](Aggregated::snapshot) that freezes
//! the state into a value implementing [`Mergeable`]. Snapshots from
//! independent workers (e.g. parallel simulation replications) combine
//! with [`Mergeable::merge`]; all integer state (counts, histogram
//! bins) merges exactly associatively and commutatively, and float
//! accumulators (sums) are associative up to one rounding per merge.

use std::collections::BTreeMap;

/// An instrument whose state can be frozen into a mergeable snapshot —
/// the aggregation contract every metric type implements.
pub trait Aggregated {
    /// The frozen, mergeable form of this instrument's state.
    type Snapshot: Mergeable;

    /// Freezes the current state (the instrument keeps recording).
    fn snapshot(&self) -> Self::Snapshot;
}

/// Snapshots that combine associatively and order-insensitively, so
/// per-worker metrics can be reduced in any grouping. The simulator
/// always folds in input (replication) order, which additionally makes
/// the float sums bit-deterministic for any worker count.
pub trait Mergeable: Clone {
    /// Absorbs `other` into `self`.
    fn merge(&mut self, other: &Self);
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    n: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.n += 1;
    }

    /// Adds `k`.
    #[inline]
    pub fn add(&mut self, k: u64) {
        self.n += k;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.n
    }
}

/// Frozen [`Counter`] state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Total count.
    pub count: u64,
}

impl Aggregated for Counter {
    type Snapshot = CounterSnapshot;
    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot { count: self.n }
    }
}

impl Mergeable for CounterSnapshot {
    fn merge(&mut self, other: &Self) {
        self.count += other.count;
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A sampled level (occupancy, admissible count, …): tracks the last
/// set value plus the distribution of all set values.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    last: f64,
    snap: GaugeSnapshot,
}

impl Gauge {
    /// Creates an empty gauge.
    pub fn new() -> Self {
        Gauge {
            last: f64::NAN,
            snap: GaugeSnapshot::default(),
        }
    }

    /// Records a new level. Non-finite values are ignored.
    #[inline]
    pub fn set(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.last = v;
        self.snap.absorb(v);
    }

    /// The most recently set value (`NaN` before the first set). The
    /// last value is inherently per-instance and is *not* part of the
    /// mergeable snapshot.
    pub fn last(&self) -> f64 {
        self.last
    }
}

/// Frozen [`Gauge`] state: the distribution of set values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSnapshot {
    /// Number of sets.
    pub count: u64,
    /// Sum of set values.
    pub sum: f64,
    /// Welford sum of squared deviations (for [`variance`](Self::variance)).
    pub m2: f64,
    /// Smallest set value (`+∞` when empty).
    pub min: f64,
    /// Largest set value (`-∞` when empty).
    pub max: f64,
}

impl Default for GaugeSnapshot {
    fn default() -> Self {
        GaugeSnapshot {
            count: 0,
            sum: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl GaugeSnapshot {
    #[inline]
    fn absorb(&mut self, v: f64) {
        let mean0 = if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        };
        self.count += 1;
        self.sum += v;
        self.m2 += (v - mean0) * (v - self.sum / self.count as f64);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the set values (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Unbiased sample variance (n−1 denominator; 0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Aggregated for Gauge {
    type Snapshot = GaugeSnapshot;
    fn snapshot(&self) -> GaugeSnapshot {
        self.snap
    }
}

impl Mergeable for GaugeSnapshot {
    fn merge(&mut self, other: &Self) {
        // Chan's parallel variance merge, before count/sum mutate.
        if other.count > 0 {
            if self.count == 0 {
                self.m2 = other.m2;
            } else {
                let (n1, n2) = (self.count as f64, other.count as f64);
                let delta = other.sum / n2 - self.sum / n1;
                self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Sub-buckets per octave of the fixed log-scale binning: 8 gives a
/// worst-case relative bucket error of `2^(1/16) − 1 ≈ 4.4%`.
const SUBS: f64 = 8.0;
/// Clamp for the scaled exponent (covers every normal f64 magnitude).
const BIN_CLAMP: i32 = 8191;

/// The fixed log-scale bin index of a finite value. The mapping is a
/// pure function of the value (no data-dependent bucket boundaries), so
/// bin counts from any two histograms add exactly.
pub fn bin_index(v: f64) -> i32 {
    if v == 0.0 {
        return 0;
    }
    let k = (SUBS * v.abs().log2()).floor() as i32;
    let inner = 1 + (k.clamp(-BIN_CLAMP, BIN_CLAMP) + BIN_CLAMP + 1);
    if v > 0.0 {
        inner
    } else {
        -inner
    }
}

/// The representative value (geometric bucket midpoint) of a bin index.
pub fn bin_representative(key: i32) -> f64 {
    if key == 0 {
        return 0.0;
    }
    let inner = key.abs();
    let k = (inner - 2 - BIN_CLAMP) as f64;
    let rep = ((k + 0.5) / SUBS).exp2();
    if key > 0 {
        rep
    } else {
        -rep
    }
}

/// A value distribution: running moments and fixed log-scale bins, the
/// mergeable substrate every published quantile is read from
/// ([`HistogramSnapshot::quantile`]).
#[derive(Debug, Clone)]
pub struct Histogram {
    snap: HistogramSnapshot,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            snap: HistogramSnapshot::default(),
        }
    }

    /// Records one sample. Non-finite samples are ignored.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let mean0 = if self.snap.count == 0 {
            0.0
        } else {
            self.snap.sum / self.snap.count as f64
        };
        self.snap.count += 1;
        self.snap.sum += v;
        self.snap.m2 += (v - mean0) * (v - self.snap.sum / self.snap.count as f64);
        self.snap.min = self.snap.min.min(v);
        self.snap.max = self.snap.max.max(v);
        *self.snap.bins.entry(bin_index(v)).or_insert(0) += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.snap.count
    }
}

/// Frozen [`Histogram`] state. Quantiles are derived from the fixed
/// log-scale bins, so they survive merging (at bucket resolution,
/// ≈ 4.4% worst-case relative error).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Welford sum of squared deviations (for [`variance`](Self::variance)).
    pub m2: f64,
    /// Smallest sample (`+∞` when empty).
    pub min: f64,
    /// Largest sample (`-∞` when empty).
    pub max: f64,
    /// Log-scale bin counts, keyed by [`bin_index`].
    pub bins: BTreeMap<i32, u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: BTreeMap::new(),
        }
    }
}

impl HistogramSnapshot {
    /// Mean of the samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Unbiased sample variance (n−1 denominator; 0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Quantile estimate from the bins: the representative of the bin
    /// containing the `⌈p·count⌉`-th order statistic, clamped to the
    /// observed `[min, max]`. `NaN` when empty.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p must be in [0,1]");
        if self.count == 0 {
            return f64::NAN;
        }
        if p <= 0.0 {
            return self.min;
        }
        if p >= 1.0 {
            return self.max;
        }
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (&key, &n) in &self.bins {
            cum += n;
            if cum >= rank {
                return bin_representative(key).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl Aggregated for Histogram {
    type Snapshot = HistogramSnapshot;
    fn snapshot(&self) -> HistogramSnapshot {
        self.snap.clone()
    }
}

impl Mergeable for HistogramSnapshot {
    fn merge(&mut self, other: &Self) {
        // Chan's parallel variance merge, before count/sum mutate.
        if other.count > 0 {
            if self.count == 0 {
                self.m2 = other.m2;
            } else {
                let (n1, n2) = (self.count as f64, other.count as f64);
                let delta = other.sum / n2 - self.sum / n1;
                self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&key, &n) in &other.bins {
            *self.bins.entry(key).or_insert(0) += n;
        }
    }
}

// ---------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------

/// A `(t, value)` series with a fixed point budget: once the budget is
/// hit the retention stride doubles (every second retained point is
/// dropped), so an arbitrarily long run keeps a bounded, evenly-spaced
/// sketch of the trajectory. Record in non-decreasing time order.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    capacity: usize,
    stride: u64,
    seen: u64,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates a series keeping at most `capacity ≥ 2` points.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "time series capacity must be ≥ 2");
        TimeSeries {
            capacity,
            stride: 1,
            seen: 0,
            points: Vec::new(),
        }
    }

    /// Records one sample. Non-finite values are ignored.
    #[inline]
    pub fn record(&mut self, t: f64, v: f64) {
        if !t.is_finite() || !v.is_finite() {
            return;
        }
        if self.seen.is_multiple_of(self.stride) {
            if self.points.len() == self.capacity {
                // Halve the resolution: keep every other point.
                let mut i = 0;
                self.points.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride *= 2;
                if !self.seen.is_multiple_of(self.stride) {
                    self.seen += 1;
                    return;
                }
            }
            self.points.push((t, v));
        }
        self.seen += 1;
    }

    /// Points currently retained.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The retention stride (1 until the budget is first hit).
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Frozen [`TimeSeries`] state.
///
/// Merging interleaves the two series by time and re-downsamples to the
/// larger capacity. The result is a pure function of the combined point
/// multiset (order-insensitive), but unlike the other snapshots it is
/// only approximately associative once downsampling triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Point budget.
    pub capacity: usize,
    /// Retained `(t, value)` points, ascending in time.
    pub points: Vec<(f64, f64)>,
}

impl Aggregated for TimeSeries {
    type Snapshot = SeriesSnapshot;
    fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            capacity: self.capacity,
            points: self.points.clone(),
        }
    }
}

impl Mergeable for SeriesSnapshot {
    fn merge(&mut self, other: &Self) {
        self.capacity = self.capacity.max(other.capacity);
        self.points.extend_from_slice(&other.points);
        self.points
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        while self.points.len() > self.capacity {
            let mut i = 0;
            self.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges() {
        let mut a = Counter::new();
        a.inc();
        a.add(4);
        let mut b = Counter::new();
        b.add(10);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 15);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauge_tracks_last_and_distribution() {
        let mut g = Gauge::new();
        assert!(g.last().is_nan());
        g.set(3.0);
        g.set(1.0);
        g.set(f64::NAN); // ignored
        g.set(2.0);
        assert_eq!(g.last(), 2.0);
        let s = g.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bin_index_orders_like_values() {
        let values = [
            -1e9, -42.0, -1.0, -1e-6, 0.0, 1e-9, 0.5, 1.0, 1.5, 2.0, 1e12,
        ];
        for w in values.windows(2) {
            assert!(bin_index(w[0]) <= bin_index(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn bin_representative_lands_in_bucket() {
        for &v in &[1e-8, 0.3, 1.0, 7.5, 1234.5, 9.9e7, -0.25, -3e4] {
            let key = bin_index(v);
            let rep = bin_representative(key);
            assert_eq!(bin_index(rep), key, "rep {rep} of {v} left its bucket");
            assert!(
                (rep / v > 0.0) && (rep / v) < 1.1 && (rep / v) > 0.9,
                "rep {rep} far from {v}"
            );
        }
        assert_eq!(bin_representative(bin_index(0.0)), 0.0);
    }

    #[test]
    fn histogram_moments_and_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        // Binned quantiles: within the ±4.4% bucket resolution.
        assert!((s.quantile(0.5) / 500.0 - 1.0).abs() < 0.05);
        assert!((s.quantile(0.99) / 990.0 - 1.0).abs() < 0.05);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 1000.0);
    }

    #[test]
    fn welford_variance_matches_two_pass() {
        let xs = [1.0, 2.5, -0.5, 4.0, 4.0, 0.0, 7.25];
        let mut h = Histogram::new();
        let mut g = Gauge::new();
        for &x in &xs {
            h.record(x);
            g.set(x);
        }
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((h.snapshot().variance() - var).abs() < 1e-12);
        assert!((g.snapshot().variance() - var).abs() < 1e-12);
        assert_eq!(Histogram::new().snapshot().variance(), 0.0);
    }

    #[test]
    fn variance_survives_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..200 {
            let v = ((i * 53) % 97) as f64 * 0.5;
            whole.record(v);
            if i < 80 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        let w = whole.snapshot();
        assert!(
            (s.variance() - w.variance()).abs() < 1e-9 * (1.0 + w.variance()),
            "{} vs {}",
            s.variance(),
            w.variance()
        );
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..500 {
            let v = ((i * 37) % 101) as f64 * 0.25 - 5.0;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        let w = whole.snapshot();
        assert_eq!(s.count, w.count);
        assert_eq!(s.bins, w.bins);
        assert_eq!(s.min, w.min);
        assert_eq!(s.max, w.max);
        assert!((s.sum - w.sum).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let s = Histogram::new().snapshot();
        assert!(s.mean().is_nan());
        assert!(s.quantile(0.5).is_nan());
        let mut m = s.clone();
        m.merge(&s);
        assert_eq!(m.count, 0);
    }

    #[test]
    fn time_series_downsamples_to_budget() {
        let mut ts = TimeSeries::new(8);
        for i in 0..1000 {
            ts.record(i as f64, (i * i) as f64);
        }
        assert!(ts.points().len() <= 8);
        assert!(ts.stride() >= 128);
        // Retained points are evenly strided from t = 0.
        for w in ts.points().windows(2) {
            assert_eq!((w[1].0 - w[0].0) as u64, ts.stride());
        }
    }

    #[test]
    fn series_merge_is_time_sorted_and_bounded() {
        let mut a = TimeSeries::new(16);
        let mut b = TimeSeries::new(16);
        for i in 0..10 {
            a.record(2.0 * i as f64, 1.0);
            b.record(2.0 * i as f64 + 1.0, 2.0);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert!(s.points.len() <= 16);
        for w in s.points.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Order-insensitivity.
        let mut r = b.snapshot();
        r.merge(&a.snapshot());
        assert_eq!(s, r);
    }
}
