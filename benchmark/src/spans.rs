//! The span recorder behind the traced pass.
//!
//! The benchmark's replica of each workload loop wraps every call into
//! a layer's public functions in a span. Spans nest on a small stack;
//! a span's *self* time is its duration minus what its children
//! covered, so the self times of one unit of work (a tick, an arrival,
//! a replication, a serve event) add up to that unit's root span.
//!
//! Two kinds of state, both pre-sized when the recorder is built:
//!
//! * per-layer **totals** — call count, self time and a log-bin
//!   duration histogram in `mbac_metrics`' bin layout. Every span
//!   lands here, so totals are exact however long the run is;
//! * a bounded **span log** — name, start, duration, self time, unit
//!   id and parent span id — kept for every unit up to
//!   [`RecorderConfig::full_units`] and for a deterministic 1-in-k of
//!   the units after that (`mbac_metrics::Sampler`, keyed by unit id,
//!   so two runs keep the same units). A full log drops and counts.
//!
//! A disabled recorder makes every call a branch and nothing else;
//! the warm-up round runs the replica that way.

use mbac_metrics::{bin_index, HistogramSnapshot, Sampler};
use std::io::Write;
use std::time::Instant;

/// The layers a span can be charged to: crate names plus ROADMAP's
/// stage names. `benchmark/README.md` lists the `pub` items each one
/// times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Root span of a simulator unit; its self time is what the
    /// scenario loop and `Session` spend outside every other layer.
    SimSession,
    SimAdvanceMeasure,
    TrafficSpawn,
    TrafficAdvance,
    SimMeasure,
    CoreEstimate,
    CoreDecide,
    LifecycleAdmit,
    LifecycleDepart,
    SimEvents,
    MetricsEmit,
    SimGenerate,
    PlaneMeasure,
    PlaneRequest,
    RoutedMeasure,
    RoutedReserve,
    RoutedPump,
    ServeReport,
}

impl Layer {
    pub const ALL: [Layer; 18] = [
        Layer::SimSession,
        Layer::SimAdvanceMeasure,
        Layer::TrafficSpawn,
        Layer::TrafficAdvance,
        Layer::SimMeasure,
        Layer::CoreEstimate,
        Layer::CoreDecide,
        Layer::LifecycleAdmit,
        Layer::LifecycleDepart,
        Layer::SimEvents,
        Layer::MetricsEmit,
        Layer::SimGenerate,
        Layer::PlaneMeasure,
        Layer::PlaneRequest,
        Layer::RoutedMeasure,
        Layer::RoutedReserve,
        Layer::RoutedPump,
        Layer::ServeReport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::SimSession => "sim.session",
            Layer::SimAdvanceMeasure => "sim.advance_measure",
            Layer::TrafficSpawn => "traffic.spawn",
            Layer::TrafficAdvance => "traffic.advance",
            Layer::SimMeasure => "sim.measure",
            Layer::CoreEstimate => "core.estimate",
            Layer::CoreDecide => "core.decide",
            Layer::LifecycleAdmit => "sim.lifecycle.admit",
            Layer::LifecycleDepart => "sim.lifecycle.depart",
            Layer::SimEvents => "sim.events",
            Layer::MetricsEmit => "metrics.emit",
            Layer::SimGenerate => "sim.generate",
            Layer::PlaneMeasure => "serve.plane.measure",
            Layer::PlaneRequest => "serve.plane.request",
            Layer::RoutedMeasure => "serve.routed.measure",
            Layer::RoutedReserve => "serve.routed.reserve",
            Layer::RoutedPump => "serve.routed.pump",
            Layer::ServeReport => "serve.report",
        }
    }
}

/// Histogram slots: slot `s` holds durations whose `bin_index` is
/// `bin_index(1.0) + s`, i.e. 8 slots per octave from 1 ns to 2⁴⁸ ns.
const BINS: usize = 384;
/// Durations below this many ns find their slot in a table instead of
/// taking a logarithm — nearly every serve-plane span does.
const LUT: usize = 4096;
/// Deepest nesting any replica uses is 3 (unit → fused tick → …).
const MAX_DEPTH: usize = 8;

/// Sizes of the bounded span log.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Units `0..full_units` keep every span in the log.
    pub full_units: u64,
    /// Past that, one unit in this many is kept.
    pub keep_one_in: u64,
    /// Span records the log can hold; more are dropped and counted.
    pub log_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            full_units: 1 << 20,
            keep_one_in: 64,
            log_capacity: 1 << 19,
        }
    }
}

/// One logged span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unit of work the span belongs to (tick, arrival, replication or
    /// event index).
    pub unit: u64,
    /// This span's id, unique within its recorder, never 0.
    pub id: u32,
    /// Id of the enclosing span; 0 for a unit's root.
    pub parent: u32,
    pub layer: Layer,
    /// Start, in ns since the recorder was built.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// `dur_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    layer: Layer,
    id: u32,
    start: Instant,
    child_ns: u64,
}

#[derive(Debug, Clone)]
struct LayerTotals {
    calls: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
    bins: Vec<u64>,
}

/// What the per-layer table reports for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStats {
    pub calls: u64,
    /// Sum of self times.
    pub busy_ns: u64,
    /// Median and 99th percentile of span *durations*, at the log-bin
    /// resolution of `mbac_metrics::HistogramSnapshot` (≈ 4.4 %).
    pub p50_ns: f64,
    pub p99_ns: f64,
}

pub struct Recorder {
    enabled: bool,
    cfg: RecorderConfig,
    epoch: Instant,
    sampler: Sampler,
    stack: [Open; MAX_DEPTH],
    depth: usize,
    next_id: u32,
    unit: u64,
    unit_logged: bool,
    units: u64,
    layers: Vec<LayerTotals>,
    lut: Vec<u16>,
    log: Vec<SpanRecord>,
    dropped: u64,
}

fn slot_of(ns: u64) -> usize {
    let base = bin_index(1.0);
    (bin_index(ns as f64) - base).clamp(0, BINS as i32 - 1) as usize
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Recorder::build(false, RecorderConfig::default())
    }

    /// An enabled recorder; allocates all the memory it will ever use.
    pub fn new(cfg: RecorderConfig) -> Self {
        Recorder::build(true, cfg)
    }

    fn build(enabled: bool, cfg: RecorderConfig) -> Self {
        let epoch = Instant::now();
        let idle = Open {
            layer: Layer::SimSession,
            id: 0,
            start: epoch,
            child_ns: 0,
        };
        let sized = |n: usize| if enabled { n } else { 0 };
        Recorder {
            enabled,
            cfg,
            epoch,
            sampler: Sampler::new(1.0 / cfg.keep_one_in.max(1) as f64, 0x7370_616e),
            stack: [idle; MAX_DEPTH],
            depth: 0,
            next_id: 1,
            unit: 0,
            unit_logged: false,
            units: 0,
            layers: vec![
                LayerTotals {
                    calls: 0,
                    self_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                    bins: vec![0; sized(BINS)],
                };
                sized(Layer::ALL.len())
            ],
            lut: (0..sized(LUT) as u64)
                .map(|ns| slot_of(ns) as u16)
                .collect(),
            log: Vec::with_capacity(sized(cfg.log_capacity)),
            dropped: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether `unit`'s spans go to the log: a pure function of the id.
    pub fn logs_unit(&self, unit: u64) -> bool {
        unit < self.cfg.full_units || self.sampler.keep(unit)
    }

    /// Opens `unit`'s root span, charged to `layer`.
    #[inline]
    pub fn begin_unit(&mut self, unit: u64, layer: Layer) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(self.depth, 0, "units do not nest");
        self.unit = unit;
        self.unit_logged = self.logs_unit(unit);
        self.units += 1;
        self.enter(layer);
    }

    /// Closes the unit's root span.
    #[inline]
    pub fn end_unit(&mut self) {
        self.exit();
        debug_assert!(!self.enabled || self.depth == 0, "unit left spans open");
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        if !self.enabled {
            return;
        }
        assert!(
            self.depth < MAX_DEPTH,
            "span nesting deeper than {MAX_DEPTH}"
        );
        let id = self.next_id;
        self.next_id = self.next_id.checked_add(1).unwrap_or(1);
        self.stack[self.depth] = Open {
            layer,
            id,
            start: Instant::now(),
            child_ns: 0,
        };
        self.depth += 1;
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        assert!(self.depth > 0, "exit without a matching enter");
        self.depth -= 1;
        let open = self.stack[self.depth];
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        let parent = match self.depth.checked_sub(1) {
            Some(outer) => {
                self.stack[outer].child_ns += dur_ns;
                self.stack[outer].id
            }
            None => 0,
        };
        let totals = &mut self.layers[open.layer as usize];
        totals.calls += 1;
        totals.self_ns += self_ns;
        totals.min_ns = totals.min_ns.min(dur_ns);
        totals.max_ns = totals.max_ns.max(dur_ns);
        let slot = match self.lut.get(dur_ns as usize) {
            Some(&slot) => slot as usize,
            None => slot_of(dur_ns),
        };
        totals.bins[slot] += 1;
        if self.unit_logged {
            if self.log.len() < self.cfg.log_capacity {
                self.log.push(SpanRecord {
                    unit: self.unit,
                    id: open.id,
                    parent,
                    layer: open.layer,
                    start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                    dur_ns,
                    self_ns,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Runs `f` as a whole unit whose root span is `layer` — the shape
    /// of a serve event, where one library call *is* the unit.
    #[inline]
    pub fn unit<T>(&mut self, unit: u64, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.begin_unit(unit, layer);
        let out = f();
        self.end_unit();
        out
    }

    /// Folds another recorder's totals and log into this one (the
    /// impulsive replica records on one recorder per worker).
    pub fn merge(&mut self, other: &Recorder) {
        if !(self.enabled && other.enabled) {
            return;
        }
        self.units += other.units;
        self.dropped += other.dropped;
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.calls += theirs.calls;
            mine.self_ns += theirs.self_ns;
            mine.min_ns = mine.min_ns.min(theirs.min_ns);
            mine.max_ns = mine.max_ns.max(theirs.max_ns);
            for (a, b) in mine.bins.iter_mut().zip(&theirs.bins) {
                *a += b;
            }
        }
        let room = self.cfg.log_capacity - self.log.len();
        let take = room.min(other.log.len());
        self.log.extend_from_slice(&other.log[..take]);
        self.dropped += (other.log.len() - take) as u64;
    }

    pub fn stats(&self, layer: Layer) -> LayerStats {
        let Some(totals) = self.layers.get(layer as usize).filter(|t| t.calls > 0) else {
            return LayerStats {
                calls: 0,
                busy_ns: 0,
                p50_ns: 0.0,
                p99_ns: 0.0,
            };
        };
        let base = bin_index(1.0);
        let snapshot = HistogramSnapshot {
            count: totals.calls,
            min: totals.min_ns as f64,
            max: totals.max_ns as f64,
            bins: totals
                .bins
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(slot, &n)| (base + slot as i32, n))
                .collect(),
            ..HistogramSnapshot::default()
        };
        LayerStats {
            calls: totals.calls,
            busy_ns: totals.self_ns,
            p50_ns: snapshot.quantile(0.5),
            p99_ns: snapshot.quantile(0.99),
        }
    }

    /// Span records that found the log full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the span log as CSV, one span a line.
    pub fn write_log(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "unit,id,parent,layer,start_ns,dur_ns,self_ns")?;
        for r in &self.log {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                r.unit,
                r.id,
                r.parent,
                r.layer.name(),
                r.start_ns,
                r.dur_ns,
                r.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    fn small() -> RecorderConfig {
        RecorderConfig {
            full_units: 4,
            keep_one_in: 8,
            log_capacity: 64,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut rec = Recorder::new(RecorderConfig::default());
        rec.begin_unit(0, Layer::SimSession);
        spin(Duration::from_micros(200));
        rec.span(Layer::CoreDecide, || spin(Duration::from_micros(300)));
        rec.enter(Layer::SimAdvanceMeasure);
        spin(Duration::from_micros(100));
        rec.span(Layer::LifecycleDepart, || spin(Duration::from_micros(150)));
        rec.exit();
        rec.end_unit();

        let log = &rec.log;
        assert_eq!(log.len(), 4);
        let by_layer = |l: Layer| *log.iter().find(|r| r.layer == l).unwrap();
        let root = by_layer(Layer::SimSession);
        let decide = by_layer(Layer::CoreDecide);
        let fused = by_layer(Layer::SimAdvanceMeasure);
        let depart = by_layer(Layer::LifecycleDepart);
        // Leaves: self == duration. Parents: duration minus children.
        assert_eq!(decide.self_ns, decide.dur_ns);
        assert_eq!(depart.self_ns, depart.dur_ns);
        assert_eq!(fused.self_ns, fused.dur_ns - depart.dur_ns);
        assert_eq!(root.self_ns, root.dur_ns - decide.dur_ns - fused.dur_ns);
        assert!(root.self_ns >= 200_000 && decide.self_ns >= 300_000);
        assert!(fused.self_ns >= 100_000 && depart.self_ns >= 150_000);
        // Self times of one unit add up to its root span exactly.
        let total: u64 = log.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, root.dur_ns);
        // Totals agree with the log.
        let busy: u64 = Layer::ALL.iter().map(|&l| rec.stats(l).busy_ns).sum();
        assert_eq!(busy, root.dur_ns);
        assert_eq!(rec.stats(Layer::CoreDecide).calls, 1);
        assert_eq!(rec.stats(Layer::PlaneRequest).calls, 0);
    }

    #[test]
    fn parent_links_follow_the_nesting() {
        let mut rec = Recorder::new(RecorderConfig::default());
        for unit in 0..2 {
            rec.begin_unit(unit, Layer::SimSession);
            rec.enter(Layer::SimAdvanceMeasure);
            rec.span(Layer::LifecycleDepart, || ());
            rec.exit();
            rec.span(Layer::CoreDecide, || ());
            rec.end_unit();
        }
        let log = &rec.log;
        assert_eq!(log.len(), 8);
        let mut ids: Vec<u32> = log.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "ids are unique");
        for unit in 0..2 {
            let of = |l: Layer| *log.iter().find(|r| r.unit == unit && r.layer == l).unwrap();
            let root = of(Layer::SimSession);
            assert_eq!(root.parent, 0);
            assert_eq!(of(Layer::SimAdvanceMeasure).parent, root.id);
            assert_eq!(of(Layer::CoreDecide).parent, root.id);
            assert_eq!(
                of(Layer::LifecycleDepart).parent,
                of(Layer::SimAdvanceMeasure).id
            );
        }
    }

    #[test]
    fn log_is_bounded_and_sampling_is_deterministic_while_totals_stay_exact() {
        let units = 10_000u64;
        let run = |cfg: RecorderConfig| {
            let mut rec = Recorder::new(cfg);
            for unit in 0..units {
                rec.unit(unit, Layer::PlaneRequest, || ());
            }
            rec
        };
        let cfg = RecorderConfig {
            log_capacity: 4096,
            ..small()
        };
        let (a, b) = (run(cfg), run(cfg));
        // Totals count every span.
        assert_eq!(a.stats(Layer::PlaneRequest).calls, units);
        assert_eq!(a.units, units);
        // The log holds the first `full_units` and about 1 in 8 after.
        let kept: Vec<u64> = a.log.iter().map(|r| r.unit).collect();
        assert_eq!(&kept[..4], &[0, 1, 2, 3]);
        let sampled = kept.len() as f64 - 4.0;
        assert!(
            (sampled - units as f64 / 8.0).abs() < units as f64 / 40.0,
            "{sampled}"
        );
        assert_eq!(a.dropped(), 0);
        // Same units on every run, and exactly the ones `logs_unit` names.
        assert_eq!(kept, b.log.iter().map(|r| r.unit).collect::<Vec<_>>());
        assert!(kept.iter().all(|&u| a.logs_unit(u)));
        assert_eq!(kept.len(), (0..units).filter(|&u| a.logs_unit(u)).count());

        // A log too small for the sample drops, counts, and never grows.
        let tiny = run(small());
        assert_eq!(tiny.log.len(), 64);
        assert_eq!(tiny.log.capacity(), 64);
        assert_eq!(tiny.dropped(), kept.len() as u64 - 64);
        assert_eq!(tiny.stats(Layer::PlaneRequest).calls, units);
    }

    #[test]
    fn quantiles_come_from_the_shared_log_bins() {
        let mut rec = Recorder::new(RecorderConfig::default());
        for unit in 0..99 {
            rec.unit(unit, Layer::PlaneRequest, || {
                spin(Duration::from_micros(20))
            });
        }
        rec.unit(99, Layer::PlaneRequest, || spin(Duration::from_millis(3)));
        let s = rec.stats(Layer::PlaneRequest);
        assert!(s.p50_ns >= 19_000.0 && s.p50_ns < 60_000.0, "{}", s.p50_ns);
        assert!(
            s.p99_ns < 1_000_000.0,
            "99 of 100 spans are short: {}",
            s.p99_ns
        );
        // The slot of a duration is mbac_metrics' bin, table or not.
        for ns in [0u64, 1, 2, 3, 100, 4095, 4096, 1 << 20, u64::MAX] {
            let want = (bin_index(ns as f64) - bin_index(1.0)).clamp(0, BINS as i32 - 1);
            assert_eq!(slot_of(ns) as i32, want, "{ns}");
            if let Some(&slot) = rec.lut.get(ns as usize) {
                assert_eq!(i32::from(slot), want);
            }
        }
    }

    #[test]
    fn disabled_recorder_records_and_allocates_nothing() {
        let mut rec = Recorder::disabled();
        let out = rec.unit(0, Layer::SimSession, || 7);
        rec.begin_unit(1, Layer::SimSession);
        let inner = rec.span(Layer::CoreDecide, || 8);
        rec.end_unit();
        assert_eq!((out, inner), (7, 8));
        assert_eq!(rec.units, 0);
        assert!(rec.log.is_empty());
        assert_eq!(rec.log.capacity(), 0);
        assert_eq!(rec.stats(Layer::CoreDecide).calls, 0);
    }

    #[test]
    fn merge_adds_totals_and_respects_the_log_bound() {
        let mut a = Recorder::new(small());
        let mut b = Recorder::new(small());
        for unit in 0..40 {
            a.unit(unit, Layer::CoreDecide, || ());
        }
        for unit in 0..4 {
            b.unit(unit, Layer::CoreDecide, || ());
            b.unit(unit, Layer::CoreEstimate, || ());
        }
        let (a_log, b_log) = (a.log.len(), b.log.len());
        a.merge(&b);
        assert_eq!(a.stats(Layer::CoreDecide).calls, 44);
        assert_eq!(a.stats(Layer::CoreEstimate).calls, 4);
        assert_eq!(a.units, 48);
        assert_eq!(a.log.len(), (a_log + b_log).min(64));
        let mut csv = Vec::new();
        a.write_log(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert_eq!(text.lines().count(), a.log.len() + 1);
        assert!(text.starts_with("unit,id,parent,layer,start_ns,dur_ns,self_ns\n"));
        assert!(text.contains(",core.decide,"));
    }
}
