//! Simulation telemetry: the instrument bundle threaded through the
//! runner hot paths, behind a zero-cost disabled mode.
//!
//! [`MetricsSink`] wraps an optional [`SimMetrics`]; every record site
//! in the simulator costs one branch on the `Option` when disabled (the
//! bench guard in `tests/statistical.rs` checks the disabled path does
//! no instrument work). When enabled, the bundle collects:
//!
//! | name | instrument | meaning |
//! |---|---|---|
//! | `sim.ticks` | counter | simulation ticks executed |
//! | `sim.admitted` | counter | flows admitted |
//! | `sim.denied` | counter | admissions withheld by the ramp cap |
//! | `sim.departed` | counter | flows departed |
//! | `sim.rng.exp_draws` | counter | exponential holding-time draws |
//! | `sim.load` | histogram | per-tick aggregate load |
//! | `sim.load_series` | series | downsampled load trajectory |
//! | `engine.occupancy` | histogram | per-tick flow-table occupancy |
//! | `engine.tick_ns` | histogram | wall-clock ns per tick (opt-in) |
//! | `ctl.admissible` | gauge | controller's admissible count |
//! | `ctl.innovation` | histogram | per-observation change in μ̂ |
//!
//! The replication pool additionally exports per-worker accounting (see
//! [`pool_stats_snapshot`]) in the timing-enabled mode:
//!
//! | name | instrument | meaning |
//! |---|---|---|
//! | `pool.calls` | counter | fan-out calls folded in |
//! | `pool.elapsed_ns` | counter | wall time of the fan-out calls |
//! | `pool.worker<i>.items` | counter | replications run by slot *i* |
//! | `pool.worker<i>.own_chunks` | counter | chunks popped from slot *i*'s own deque |
//! | `pool.worker<i>.steals` | counter | chunks slot *i* stole |
//! | `pool.worker<i>.busy_ns` | counter | wall time slot *i* was busy |
//! | `pool.worker<i>.utilization` | gauge | busy / elapsed per call |
//!
//! Wall-clock timing is **off by default** and excluded from snapshots
//! unless explicitly enabled with [`SimMetrics::with_timing`]: timings
//! are machine-dependent, and default snapshots must stay deterministic
//! so that the batched and boxed engines (and any worker count) produce
//! *identical* merged snapshots for the same seed. Pool accounting is
//! timing-gated for the same reason — worker counts and steal patterns
//! are machine facts, not simulation results.

use mbac_metrics::{
    Aggregated, Counter, CounterSnapshot, FieldBuf, Gauge, Histogram, MetricValue, MetricsSnapshot,
    StreamCursor, StreamHandle, TimeSeries,
};
use mbac_num::PoolCallStats;

/// Default point budget for the load trajectory sketch.
const SERIES_CAPACITY: usize = 512;

/// The instrument bundle one simulation run records into.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    /// Simulation ticks executed.
    pub ticks: Counter,
    /// Flows admitted into the system.
    pub admitted: Counter,
    /// Admissions withheld by the per-tick ramp cap (demand the
    /// controller allowed but signaling throttled this tick).
    pub denied: Counter,
    /// Flows that departed.
    pub departed: Counter,
    /// Exponential holding-time draws taken from the RNG.
    pub rng_exp_draws: Counter,
    /// Per-tick aggregate load.
    pub load: Histogram,
    /// Downsampled `(t, load)` trajectory.
    pub load_series: TimeSeries,
    /// Per-tick flow-table occupancy (batch fill of the engine).
    pub occupancy: Histogram,
    /// Wall-clock nanoseconds per tick (only populated with timing on).
    pub tick_ns: Histogram,
    /// Controller's admissible count after each decision.
    pub admissible: Gauge,
    /// Per-observation innovation `μ̂_t − μ̂_{t−1}` of the controller's
    /// mean-rate estimate.
    pub innovation: Histogram,
    timing: bool,
}

impl Default for SimMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMetrics {
    /// Creates an empty bundle with wall-clock timing off.
    pub fn new() -> Self {
        SimMetrics {
            ticks: Counter::new(),
            admitted: Counter::new(),
            denied: Counter::new(),
            departed: Counter::new(),
            rng_exp_draws: Counter::new(),
            load: Histogram::new(),
            load_series: TimeSeries::new(SERIES_CAPACITY),
            occupancy: Histogram::new(),
            tick_ns: Histogram::new(),
            admissible: Gauge::new(),
            innovation: Histogram::new(),
            timing: false,
        }
    }

    /// Enables wall-clock per-tick timing. The timing histogram then
    /// appears in snapshots as `engine.tick_ns` — and the snapshot is
    /// no longer machine-independent.
    pub fn with_timing(mut self) -> Self {
        self.timing = true;
        self
    }

    /// Whether wall-clock timing is enabled.
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Freezes the bundle into a named, mergeable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        out.insert("sim.ticks", MetricValue::Counter(self.ticks.snapshot()));
        out.insert(
            "sim.admitted",
            MetricValue::Counter(self.admitted.snapshot()),
        );
        out.insert("sim.denied", MetricValue::Counter(self.denied.snapshot()));
        out.insert(
            "sim.departed",
            MetricValue::Counter(self.departed.snapshot()),
        );
        out.insert(
            "sim.rng.exp_draws",
            MetricValue::Counter(self.rng_exp_draws.snapshot()),
        );
        out.insert("sim.load", MetricValue::Histogram(self.load.snapshot()));
        out.insert(
            "sim.load_series",
            MetricValue::Series(self.load_series.snapshot()),
        );
        out.insert(
            "engine.occupancy",
            MetricValue::Histogram(self.occupancy.snapshot()),
        );
        out.insert(
            "ctl.admissible",
            MetricValue::Gauge(self.admissible.snapshot()),
        );
        out.insert(
            "ctl.innovation",
            MetricValue::Histogram(self.innovation.snapshot()),
        );
        if self.timing {
            out.insert(
                "engine.tick_ns",
                MetricValue::Histogram(self.tick_ns.snapshot()),
            );
        }
        out
    }
}

/// Exports one replication fan-out's per-worker pool accounting as
/// snapshot entries (see the module table for the names).
///
/// Everything except the utilization gauges is a counter, so merging
/// snapshots from successive calls **sums** the accounting — integer
/// sums are commutative and associative, making the merged result
/// independent of merge order (the invariance test below pins this).
/// The per-slot utilization gauge absorbs one `busy/elapsed` ratio per
/// call; its merged distribution (count/min/max/sum) is likewise
/// order-independent.
pub fn pool_stats_snapshot(stats: &PoolCallStats) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    let counter = |count: u64| MetricValue::Counter(CounterSnapshot { count });
    out.insert("pool.calls", counter(1));
    out.insert("pool.elapsed_ns", counter(stats.elapsed_ns));
    for (slot, w) in stats.workers.iter().enumerate() {
        out.insert(format!("pool.worker{slot}.items"), counter(w.items));
        out.insert(
            format!("pool.worker{slot}.own_chunks"),
            counter(w.own_chunks),
        );
        out.insert(format!("pool.worker{slot}.steals"), counter(w.steals));
        out.insert(format!("pool.worker{slot}.busy_ns"), counter(w.busy_ns));
        let mut util = Gauge::new();
        util.set(stats.utilization(slot));
        out.insert(
            format!("pool.worker{slot}.utilization"),
            MetricValue::Gauge(util.snapshot()),
        );
    }
    out
}

/// One unit of work's worth of telemetry: a small, allocation-free
/// record a hot loop fills locally and folds into the sink's mergeable
/// instruments on drop (via [`EntryGuard`]) or explicitly with
/// [`MetricsSink::fold_entry`].
///
/// Every field defaults to its fold-identity — `0` for the counter
/// deltas, `NaN` for the value fields (gauges, histograms and series
/// ignore non-finite values; counters ignore zero adds) — so folding an
/// entry unconditionally updates exactly the instruments the producer
/// touched. That makes entry-based recording **bit-identical** to the
/// old per-instrument call sites: untouched fields are no-ops, touched
/// fields replay the same `record`/`add` the site used to make.
///
/// In streaming mode each folded entry also advances the per-stream
/// sequence, feeds the deterministic sampler, and triggers cumulative
/// interval flushes (see [`MetricsSink::streaming`]).
#[derive(Debug, Clone, Copy)]
pub struct TickEntry {
    /// Simulation time of the unit of work.
    pub t: f64,
    /// Ticks executed (counter delta).
    pub ticks: u64,
    /// Flows admitted (counter delta).
    pub admitted: u64,
    /// Admissions withheld by the ramp cap (counter delta).
    pub denied: u64,
    /// Flows departed (counter delta).
    pub departed: u64,
    /// Exponential holding-time draws (counter delta).
    pub exp_draws: u64,
    /// Per-tick aggregate load (`sim.load` + `sim.load_series`).
    pub load: f64,
    /// Flow-table occupancy (`engine.occupancy`).
    pub occupancy: f64,
    /// Wall-clock ns for the unit (`engine.tick_ns`; only set it when
    /// [`MetricsSink::timing_enabled`]).
    pub tick_ns: f64,
    /// Controller's admissible count (`ctl.admissible`).
    pub admissible: f64,
    /// Estimator innovation (`ctl.innovation`).
    pub innovation: f64,
}

impl TickEntry {
    /// An identity entry at time `t`: folding it changes nothing.
    pub fn new(t: f64) -> Self {
        TickEntry {
            t,
            ticks: 0,
            admitted: 0,
            denied: 0,
            departed: 0,
            exp_draws: 0,
            load: f64::NAN,
            occupancy: f64::NAN,
            tick_ns: f64::NAN,
            admissible: f64::NAN,
            innovation: f64::NAN,
        }
    }

    /// The entry's touched fields as a fixed-capacity sample payload
    /// (finite values and non-zero counters only).
    pub fn fields(&self) -> FieldBuf {
        let mut f = FieldBuf::new();
        f.push("load", self.load);
        f.push("occupancy", self.occupancy);
        f.push("admissible", self.admissible);
        f.push("innovation", self.innovation);
        f.push("tick_ns", self.tick_ns);
        let counters: [(&'static str, u64); 5] = [
            ("ticks", self.ticks),
            ("admitted", self.admitted),
            ("denied", self.denied),
            ("departed", self.departed),
            ("exp_draws", self.exp_draws),
        ];
        for (name, n) in counters {
            if n > 0 {
                f.push(name, n as f64);
            }
        }
        f
    }
}

/// A [`TickEntry`] borrowed from a sink: deref-mut to fill it, folds on
/// drop. The guard keeps hot loops to one statement per unit of work
/// with no way to forget the fold.
#[derive(Debug)]
pub struct EntryGuard<'a> {
    sink: &'a mut MetricsSink,
    entry: TickEntry,
}

impl std::ops::Deref for EntryGuard<'_> {
    type Target = TickEntry;
    fn deref(&self) -> &TickEntry {
        &self.entry
    }
}

impl std::ops::DerefMut for EntryGuard<'_> {
    fn deref_mut(&mut self) -> &mut TickEntry {
        &mut self.entry
    }
}

impl Drop for EntryGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.sink.fold_entry(&self.entry);
    }
}

/// An optional [`SimMetrics`]: `disabled()` is the zero-cost default
/// (one `Option` branch per record site), `enabled()` collects.
#[derive(Debug, Default)]
pub struct MetricsSink {
    inner: Option<Box<SimMetrics>>,
    /// Extra snapshot entries attached by components that export their
    /// own instrument state (e.g. the overflow meter).
    extra: MetricsSnapshot,
    /// Present only in streaming mode; the producer stream is the
    /// replication index.
    stream: Option<Box<StreamCursor>>,
}

impl MetricsSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        MetricsSink::default()
    }

    /// A sink that records into a fresh [`SimMetrics`].
    pub fn enabled() -> Self {
        MetricsSink {
            inner: Some(Box::new(SimMetrics::new())),
            extra: MetricsSnapshot::new(),
            stream: None,
        }
    }

    /// A recording sink with wall-clock timing enabled.
    pub fn enabled_with_timing() -> Self {
        MetricsSink {
            inner: Some(Box::new(SimMetrics::new().with_timing())),
            extra: MetricsSnapshot::new(),
            stream: None,
        }
    }

    /// A recording sink that additionally emits through `handle` as
    /// producer stream `stream` (the replication index): sampled raw
    /// entries plus cumulative interval flushes every
    /// `flush_interval` folded entries, and always a final interval
    /// from [`MetricsSink::finish_rep`].
    ///
    /// Aggregation is *identical* to [`MetricsSink::enabled`] — the
    /// instruments fold the same entries in the same order, so
    /// snapshots stay bit-identical and the last interval per stream
    /// re-folds to the snapshot-mode aggregate exactly.
    pub fn streaming(handle: StreamHandle, stream: u64) -> Self {
        MetricsSink {
            inner: Some(Box::new(SimMetrics::new())),
            extra: MetricsSnapshot::new(),
            stream: Some(Box::new(StreamCursor::new(handle, stream))),
        }
    }

    /// Whether the sink records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether wall-clock timing should be measured for this sink
    /// (false when disabled — don't pay for `Instant::now`).
    pub fn timing_enabled(&self) -> bool {
        self.inner
            .as_deref()
            .is_some_and(SimMetrics::timing_enabled)
    }

    /// Borrows a fresh identity entry at time `t`; folding happens when
    /// the guard drops. Callers should skip entry construction entirely
    /// when [`MetricsSink::is_enabled`] is false — the guard itself is
    /// a no-op then, but the values filled into it usually are not free
    /// to compute.
    #[inline]
    pub fn entry(&mut self, t: f64) -> EntryGuard<'_> {
        EntryGuard {
            sink: self,
            entry: TickEntry::new(t),
        }
    }

    /// Folds one entry into the instruments: counter deltas add
    /// (zero-delta adds are no-ops), value fields record (non-finite
    /// values are ignored). In streaming mode the entry then advances
    /// the stream sequence, may emit a sampled raw record, and may
    /// flush a cumulative interval.
    ///
    /// Inlined so the identity fields of a caller's entry constant-fold
    /// away: a hot loop that only touches counters (e.g. the impulsive
    /// per-admission entry at 10⁶-flow scale) compiles down to the
    /// counter adds — the NaN guards on the untouched value instruments
    /// are decided at compile time, not per flow.
    #[inline]
    pub fn fold_entry(&mut self, e: &TickEntry) {
        let Some(m) = self.inner.as_deref_mut() else {
            return;
        };
        m.ticks.add(e.ticks);
        m.admitted.add(e.admitted);
        m.denied.add(e.denied);
        m.departed.add(e.departed);
        m.rng_exp_draws.add(e.exp_draws);
        m.load.record(e.load);
        m.load_series.record(e.t, e.load);
        m.occupancy.record(e.occupancy);
        m.tick_ns.record(e.tick_ns);
        m.admissible.set(e.admissible);
        m.innovation.record(e.innovation);
        if self.stream.is_some() {
            self.stream_entry(e);
        }
    }

    /// The streaming arm of [`MetricsSink::fold_entry`], kept out of
    /// line so the inlined aggregate fold stays small at every call
    /// site; only entered when the sink is in streaming mode.
    fn stream_entry(&mut self, e: &TickEntry) {
        let stream = self.stream.as_deref_mut();
        if stream.is_some_and(|s| s.advance(e.t, || e.fields())) {
            self.flush_interval_record();
        }
    }

    /// Emits the final cumulative interval of this replication's
    /// stream. No-op outside streaming mode; call once, after the last
    /// entry (and after any [`MetricsSink::attach`]).
    pub fn finish_rep(&mut self) {
        self.flush_interval_record();
    }

    /// Emits one cumulative interval, when streaming: the full snapshot
    /// so far. The clone is the flush cost — paid per interval, never
    /// per entry.
    fn flush_interval_record(&self) {
        if let Some(s) = self.stream.as_deref() {
            s.emit_interval(self.snapshot());
        }
    }

    /// The bundle, when recording — every hot-path record site goes
    /// through this single branch.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut SimMetrics> {
        self.inner.as_deref_mut()
    }

    /// Read access to the bundle.
    pub fn get(&self) -> Option<&SimMetrics> {
        self.inner.as_deref()
    }

    /// Merges pre-built snapshot entries into this sink's output (used
    /// by components that export their own instrument state, like
    /// [`crate::metrics::OverflowMeter::export_into`]). No-op when the
    /// sink is disabled.
    pub fn attach(&mut self, entries: MetricsSnapshot) {
        if self.is_enabled() {
            self.extra.merge(&entries);
        }
    }

    /// Snapshot of the collected metrics (empty snapshot when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = self
            .inner
            .as_deref()
            .map(SimMetrics::snapshot)
            .unwrap_or_default();
        out.merge(&self.extra);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_snapshots_empty() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn enabled_sink_records_and_snapshots() {
        let mut sink = MetricsSink::enabled();
        assert!(sink.is_enabled());
        if let Some(m) = sink.get_mut() {
            m.ticks.inc();
            m.load.record(42.0);
            m.admissible.set(97.0);
        }
        let snap = sink.snapshot();
        match snap.get("sim.ticks") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, 1),
            other => panic!("{other:?}"),
        }
        match snap.get("sim.load") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("{other:?}"),
        }
        // Timing is off by default: deterministic snapshot only.
        assert!(snap.get("engine.tick_ns").is_none());
    }

    #[test]
    fn pool_stats_snapshot_is_merge_order_invariant() {
        use mbac_num::WorkerStats;
        // Synthetic accounting with exactly-representable ratios so the
        // full snapshots (gauges included) compare bitwise equal.
        let call = |scale: u64| PoolCallStats {
            workers: (0..3)
                .map(|s| WorkerStats {
                    items: 10 * scale + s,
                    own_chunks: 2 * scale,
                    steals: s,
                    busy_ns: 256 * scale,
                })
                .collect(),
            elapsed_ns: 1024 * scale,
        };
        let snaps: Vec<MetricsSnapshot> = (1..=4).map(|k| pool_stats_snapshot(&call(k))).collect();
        let mut forward = MetricsSnapshot::new();
        for s in &snaps {
            forward.merge(s);
        }
        let mut backward = MetricsSnapshot::new();
        for s in snaps.iter().rev() {
            backward.merge(s);
        }
        assert_eq!(forward, backward, "pool metrics must merge order-free");
        match forward.get("pool.calls") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, 4),
            other => panic!("{other:?}"),
        }
        match forward.get("pool.worker2.steals") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, 8),
            other => panic!("{other:?}"),
        }
        match forward.get("pool.worker0.utilization") {
            Some(MetricValue::Gauge(g)) => {
                assert_eq!(g.count, 4);
                assert_eq!(g.min, 0.25);
                assert_eq!(g.max, 0.25);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timing_histogram_is_opt_in() {
        let mut sink = MetricsSink::enabled_with_timing();
        if let Some(m) = sink.get_mut() {
            assert!(m.timing_enabled());
            m.tick_ns.record(1234.0);
        }
        assert!(sink.snapshot().get("engine.tick_ns").is_some());
    }
}
