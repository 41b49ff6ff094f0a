//! The continuous-load workloads: `fig5_sweep`, `ar1_dense`,
//! `rcbr_large`. All three are `ContinuousLoad` runs; they differ in
//! tick size, source model, scale and whether metrics stream.
//!
//! Every run keeps `max_samples ≤ 50`: `OverflowMeter` only looks at
//! its stopping criteria from 50 samples on, so the tick count — the
//! amount of work — is the same for every seed.

use super::{paired, ratio, sub_seed, Check, Probe, Round, Workload};
use crate::digest::Digest;
use crate::json::Json;
use crate::spans::{Layer, Recorder};
use crate::stats::{median, Quartiles};
use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_experiments::paper;
use mbac_experiments::scenarios::ContinuousScenario;
use mbac_metrics::{MetricsSnapshot, StreamConfig, StreamSink};
use mbac_num::rng::{exponential, NormalSampler};
use mbac_num::{KernelDispatch, RunningStats};
use mbac_sim::{
    AdmissionEngine, ConfigError, ContinuousConfig, ContinuousLoad, ContinuousReport, Engine,
    FlowTable, MbacController, MetricsSink, OverflowMeter, RepContext, Scenario, SessionBuilder,
    StopReason,
};
use mbac_traffic::{Ar1Config, Ar1Model, RcbrConfig, RcbrModel, SourceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `T_m` grid of `figures::fig5_rows`.
const FIG5_T_M: [f64; 9] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 31.6, 64.0];
/// Index of `T_m = 31.6 ≈ T̃_h` in the grid: the robust operating point.
const FIG5_KNEE: usize = 7;
/// Index of `T_m = 4` in the grid: from here on utilisation no longer
/// falls with `T_m`.
const FIG5_MEMORY: usize = 4;

/// One `ContinuousLoad` run: its config and the controller to build.
struct Point {
    cfg: ContinuousConfig,
    t_m: f64,
    p_ce: f64,
}

impl Point {
    fn controller(&self) -> MbacController {
        MbacController::new(
            Box::new(FilteredEstimator::new(self.t_m)),
            Box::new(CertaintyEquivalent::from_probability(self.p_ce)),
        )
    }
}

pub struct Continuous {
    seed: u64,
    model: Box<dyn SourceModel>,
    model_name: &'static str,
    points: Vec<Point>,
    /// `fig5_sweep` only: the scenarios whose `run()` is the
    /// production path (the other two go through `SessionBuilder`
    /// directly, as `mbacctl simulate` does).
    scenarios: Vec<ContinuousScenario>,
    /// `rcbr_large` only: where the metrics stream is written.
    stream_path: Option<PathBuf>,
}

/// Sampling and flush rates of the `rcbr_large` stream: both kinds of
/// record are emitted several times a round, and the ring is large
/// enough that none is dropped.
fn stream_config() -> StreamConfig {
    StreamConfig {
        sample_fraction: 0.05,
        flush_interval: 64,
        ring_capacity: 4096,
        ..StreamConfig::default()
    }
}

impl Continuous {
    /// The 9 `T_m` points of Fig. 5 (n = 1000, `T_h` = 1000, RCBR),
    /// one after another, 40 samples each.
    pub fn fig5_sweep(seed: u64) -> Self {
        let scenarios: Vec<ContinuousScenario> = FIG5_T_M
            .iter()
            .map(|&t_m| ContinuousScenario {
                n: 1000.0,
                t_h: paper::FIG5_T_H,
                t_c: paper::FIG5_T_C,
                t_m,
                p_ce: paper::FIG5_P_CE,
                p_q: paper::FIG5_P_CE,
                max_samples: 40,
                seed: sub_seed(seed, (t_m * 64.0) as u64),
            })
            .collect();
        Continuous {
            seed,
            // The model `ContinuousScenario::run` builds.
            model: Box::new(RcbrModel::new(RcbrConfig {
                mean: paper::MEAN,
                std_dev: paper::COV * paper::MEAN,
                t_c: paper::FIG5_T_C,
                truncate_at_zero: true,
            })),
            model_name: "rcbr",
            points: scenarios
                .iter()
                .map(|sc| Point {
                    cfg: sc.sim_config(),
                    t_m: sc.t_m,
                    p_ce: sc.p_ce,
                })
                .collect(),
            scenarios,
            stream_path: None,
        }
    }

    /// One large link: the table ramps to `capacity` flows (10 % a
    /// tick) during the warm-up, then is sampled at full size.
    fn large(
        seed: u64,
        model: Box<dyn SourceModel>,
        model_name: &'static str,
        capacity: f64,
        warmup: f64,
        max_samples: u64,
    ) -> Self {
        let t_h = 1000.0;
        Continuous {
            seed,
            model,
            model_name,
            points: vec![Point {
                cfg: ContinuousConfig {
                    capacity,
                    mean_holding: t_h,
                    tick: 0.25,
                    warmup,
                    sample_spacing: 2.0,
                    target: 1e-3,
                    max_samples,
                    seed: sub_seed(seed, 1),
                },
                t_m: t_h / capacity.sqrt(),
                p_ce: 1e-3,
            }],
            scenarios: Vec::new(),
            stream_path: None,
        }
    }

    /// AR(1) sources at capacity 10⁵: every flow draws a Gaussian on
    /// every tick.
    pub fn ar1_dense(seed: u64) -> Self {
        let model = Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.25,
            clamp_at_zero: true,
        });
        Continuous::large(seed, Box::new(model), "ar1", 1e5, 40.0, 20)
    }

    /// RCBR sources at capacity 2.5·10⁵ with metrics streaming to a
    /// file under `scratch`.
    pub fn rcbr_large(seed: u64, scratch: &Path) -> Self {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut w = Continuous::large(seed, Box::new(model), "rcbr", 2.5e5, 40.0, 20);
        w.stream_path = Some(scratch.join("rcbr_large.stream.jsonl"));
        w
    }

    /// Runs every point through `run_point`, streaming where the
    /// workload streams, and folds the reports into a [`Round`].
    fn round(
        &self,
        mut run_point: impl FnMut(usize, &Point, &SessionBuilder) -> ContinuousReport,
    ) -> Round {
        let mut round = Round::default();
        let mut reports = Vec::with_capacity(self.points.len());
        for (i, point) in self.points.iter().enumerate() {
            let sink = self.stream_path.as_deref().map(|path| {
                StreamSink::to_path(stream_config(), path)
                    .expect("stream file under the target dir")
            });
            let mut session = SessionBuilder::new().seed(point.cfg.seed);
            if let Some(sink) = &sink {
                session = session.stream(sink.handle());
            }
            reports.push(run_point(i, point, &session));
            if let Some(sink) = sink {
                let stats = sink.finish().expect("stream file written");
                round.stream_records += stats.samples + stats.intervals;
                round.stream_dropped += stats.dropped;
            }
        }
        round.digest = digest(&reports);
        round.checks = self.checks(&reports);
        round
    }

    fn checks(&self, reports: &[ContinuousReport]) -> Vec<Check> {
        let mut checks = Vec::new();
        let (lo, hi) = if self.scenarios.is_empty() {
            // The large tables are sampled right after the ramp.
            (0.85, 1.0)
        } else {
            (0.9, 1.0)
        };
        let utilization: Vec<f64> = reports.iter().map(|r| r.mean_utilization).collect();
        let lowest = utilization.iter().copied().fold(f64::INFINITY, f64::min);
        checks.push(Check::band("utilization_min", lowest, lo, hi));
        // The median, not the maximum: at `T_m ≥ T̃_h` a stale estimate
        // now and then over-admits flows that then stay for `T_h`, and
        // one point in a few hundred seeds averages above capacity.
        checks.push(Check::band(
            "utilization_median",
            median(&utilization),
            lo,
            hi,
        ));
        for r in reports {
            checks.push(Check {
                name: "admitted_ge_departed",
                ok: r.admitted >= r.departed,
                detail: format!("{} >= {}", r.admitted, r.departed),
            });
        }
        if !self.scenarios.is_empty() {
            // Fig. 5's shape, through the quantity 40 samples a point
            // do resolve: the memoryless estimator runs the link hotter
            // than any estimator with memory. Over 300 seeds the
            // difference is 0.0133 ± 0.0018 (0.0085 to 0.0180). The
            // figure's own ratio pf(T_m = 0) / pf(T_m = 31.6) is below
            // 5 on 6 % of seeds at this sample budget (a Gaussian tail
            // fitted to 40 correlated samples), so it is reported
            // beside the check and not enforced.
            let with_memory = median(&utilization[FIG5_MEMORY..]);
            let knee = reports[0].pf.value / reports[FIG5_KNEE].pf.value;
            let mut margin = Check::band(
                "fig5_memory_margin",
                utilization[0] - with_memory,
                0.003,
                0.03,
            );
            margin.detail += &format!("; pf(0)/pf(31.6) = {knee}, reported only");
            checks.push(margin);
        }
        checks
    }
}

fn digest(reports: &[ContinuousReport]) -> u64 {
    let mut d = Digest::new();
    for r in reports {
        d.f64(r.pf.value)
            .f64(r.pf.ci.lo)
            .f64(r.pf.ci.hi)
            .u64(r.pf.samples)
            .u64(r.pf.overflows)
            .f64(r.mean_utilization)
            .f64(r.mean_flows)
            .u64(r.admitted)
            .u64(r.departed)
            .f64(r.sim_time);
    }
    d.finish()
}

impl Workload for Continuous {
    fn params(&self) -> Json {
        Json::obj([
            ("model", Json::str(self.model_name)),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("capacity", Json::Num(p.cfg.capacity)),
                                ("mean_holding", Json::Num(p.cfg.mean_holding)),
                                ("tick", Json::Num(p.cfg.tick)),
                                ("warmup", Json::Num(p.cfg.warmup)),
                                ("sample_spacing", Json::Num(p.cfg.sample_spacing)),
                                ("max_samples", Json::UInt(p.cfg.max_samples)),
                                ("t_m", Json::Num(p.t_m)),
                                ("p_ce", Json::Num(p.p_ce)),
                                ("seed", Json::UInt(p.cfg.seed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::str(if self.stream_path.is_some() {
                    "streaming"
                } else {
                    "disabled"
                }),
            ),
        ])
    }

    fn unit(&self) -> &'static str {
        "flow-ticks"
    }

    fn production(&mut self) -> Round {
        self.round(|i, point, session| match self.scenarios.get(i) {
            Some(scenario) => scenario.run(),
            None => {
                let mut ctl = point.controller();
                session
                    .run_local(&ContinuousLoad::new(
                        &point.cfg,
                        self.model.as_ref(),
                        &mut ctl,
                    ))
                    .expect("valid continuous config")
            }
        })
    }

    fn replica(&mut self, rec: &mut Recorder) -> Round {
        let rec = RefCell::new(rec);
        let flow_ticks = Cell::new(0u64);
        let ticks = Cell::new(0u64);
        let conserved = Cell::new(true);
        let mut round = self.round(|_, point, session| {
            let mut ctl = point.controller();
            let scenario = ContinuousReplica {
                cfg: &point.cfg,
                model: self.model.as_ref(),
                ctl: RefCell::new(&mut ctl),
                rec: &rec,
                flow_ticks: &flow_ticks,
                ticks: &ticks,
                conserved: &conserved,
            };
            session
                .run_local(&scenario)
                .expect("valid continuous config")
        });
        round.units = Some(flow_ticks.get());
        round.checks.push(Check {
            name: "flow_conservation",
            ok: conserved.get(),
            detail: "admitted == departed + in system, every point".into(),
        });
        round
    }

    fn probes(&mut self) -> Vec<Probe> {
        let n = self.points[0].cfg.capacity as usize;
        let tick = self.points[0].cfg.tick;
        // About 2·10⁶ flow-ticks per timing, whatever the table size.
        let ticks = (2_000_000 / n).max(4);
        const PAIRS: usize = 9;
        let seed = sub_seed(self.seed, 0x70_72_6f_62);

        // Shared by the two sides of each pair, which run one at a time.
        let batched = RefCell::new(ProbeTable::filled(
            Engine::Batched,
            self.model.as_ref(),
            n,
            seed,
        ));
        let mut boxed = ProbeTable::filled(Engine::Boxed, self.model.as_ref(), n, seed);
        let mut out = Vec::new();

        // A/A control first: the same closure on both sides. Its spread
        // is the noise floor every other ratio must clear.
        let (a, b) = paired(
            PAIRS,
            || batched.borrow_mut().fused(ticks, tick),
            || batched.borrow_mut().fused(ticks, tick),
        );
        out.push(Probe {
            name: "probe.aa_ratio",
            value: ratio(&a, &b),
        });

        let (wide, scalar) = paired(
            PAIRS,
            || {
                with_dispatch(KernelDispatch::Wide, || {
                    batched.borrow_mut().fused(ticks, tick)
                })
            },
            || {
                with_dispatch(KernelDispatch::Scalar, || {
                    batched.borrow_mut().fused(ticks, tick)
                })
            },
        );
        out.push(Probe {
            name: "probe.wide_over_scalar",
            value: ratio(&wide, &scalar),
        });

        let (t_boxed, t_batched) = paired(
            PAIRS,
            || boxed.fused(ticks, tick),
            || batched.borrow_mut().fused(ticks, tick),
        );
        out.push(Probe {
            name: "probe.boxed_over_batched",
            value: ratio(&t_boxed, &t_batched),
        });
        drop(boxed);

        let (advance, measure) = paired(
            PAIRS,
            || batched.borrow_mut().advance(ticks, tick),
            || batched.borrow_mut().measure(ticks),
        );
        out.push(Probe {
            name: "probe.advance_ns_per_flow",
            value: Quartiles::of(&advance).expect("pairs"),
        });
        out.push(Probe {
            name: "probe.measure_ns_per_flow",
            value: Quartiles::of(&measure).expect("pairs"),
        });
        drop(batched);

        let sampler = NormalSampler::get();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0f64; n];
        let fills: Vec<f64> = (0..PAIRS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..ticks {
                    sampler.fill_with(KernelDispatch::current(), &mut rng, &mut buf);
                    black_box(buf[0]);
                }
                start.elapsed().as_nanos() as f64 / (ticks * n) as f64
            })
            .collect();
        out.push(Probe {
            name: "probe.sample_fill_ns",
            value: Quartiles::of(&fills).expect("pairs"),
        });

        if !self.scenarios.is_empty() {
            out.extend(memo_probes(n, seed));
        }
        if self.stream_path.is_some() {
            out.push(self.stream_probe());
        }
        out
    }
}

impl Continuous {
    /// `probe.stream_over_disabled`: the same short run with the
    /// metrics stream on and off, paired.
    fn stream_probe(&self) -> Probe {
        let point = &self.points[0];
        let cfg = ContinuousConfig {
            // Long enough to reach full size, a fifth of a round.
            warmup: 36.0,
            max_samples: 2,
            ..point.cfg.clone()
        };
        let path = self.stream_path.as_deref().expect("rcbr_large streams");
        let run = |stream: bool| {
            let sink = stream.then(|| {
                StreamSink::to_path(stream_config(), path)
                    .expect("stream file under the target dir")
            });
            let mut session = SessionBuilder::new().seed(cfg.seed);
            if let Some(sink) = &sink {
                session = session.stream(sink.handle());
            }
            let mut ctl = point.controller();
            let start = Instant::now();
            let report = session
                .run_local(&ContinuousLoad::new(&cfg, self.model.as_ref(), &mut ctl))
                .expect("valid continuous config");
            if let Some(sink) = sink {
                sink.finish().expect("stream file written");
            }
            black_box(report.admitted);
            start.elapsed().as_secs_f64()
        };
        let (on, off) = paired(5, || run(true), || run(false));
        Probe {
            name: "probe.stream_over_disabled",
            value: ratio(&on, &off),
        }
    }
}

/// Runs `f` with the process-wide kernel dispatch set to `dispatch`.
fn with_dispatch<T>(dispatch: KernelDispatch, f: impl FnOnce() -> T) -> T {
    let previous = dispatch.set_global();
    let out = f();
    previous.set_global();
    out
}

/// A full table whose flows never leave, for the isolated layer calls.
struct ProbeTable {
    table: FlowTable,
    rng: StdRng,
    t: f64,
    scratch: Vec<f64>,
}

impl ProbeTable {
    fn filled(engine: Engine, model: &dyn SourceModel, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table = engine.table();
        for _ in 0..n {
            table.admit(model, f64::INFINITY, &mut rng);
        }
        ProbeTable {
            table,
            rng,
            t: 0.0,
            scratch: Vec::new(),
        }
    }

    fn per_flow_tick(&self, start: Instant, ticks: usize) -> f64 {
        start.elapsed().as_nanos() as f64 / (ticks * self.table.len()) as f64
    }

    /// ns per flow of the fused tick.
    fn fused(&mut self, ticks: usize, tick: f64) -> f64 {
        let start = Instant::now();
        for _ in 0..ticks {
            self.t += tick;
            black_box(
                self.table
                    .advance_depart_measure(self.t, &mut self.rng, 1.0)
                    .sum(),
            );
        }
        self.per_flow_tick(start, ticks)
    }

    /// ns per flow of the unfused advance sweep.
    fn advance(&mut self, ticks: usize, tick: f64) -> f64 {
        let start = Instant::now();
        for _ in 0..ticks {
            self.t += tick;
            self.table.advance_to(self.t, &mut self.rng);
        }
        self.per_flow_tick(start, ticks)
    }

    /// ns per flow of the unfused snapshot copy.
    fn measure(&mut self, ticks: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..ticks {
            self.table.snapshot_into(&mut self.scratch);
            black_box(self.scratch.last());
        }
        self.per_flow_tick(start, ticks)
    }
}

/// `probe.memo_hit_ns` / `probe.memo_miss_ns`: the controller's
/// decision with one repeated (estimate, capacity) key, and with two
/// capacities alternating so every call recomputes the inversion.
pub(crate) fn memo_probes(n: usize, seed: u64) -> Vec<Probe> {
    const ITERS: usize = 200_000;
    let mut ctl = MbacController::new(
        Box::new(FilteredEstimator::new(5.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-3)),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let rates: Vec<f64> = (0..n)
        .map(|_| mbac_num::rng::normal(&mut rng, 1.0, 0.3))
        .collect();
    for k in 0..64 {
        ctl.observe(f64::from(k) * 0.25, &rates);
    }
    let capacity = n as f64;
    let time = |capacities: &[f64]| {
        let start = Instant::now();
        let mut acc = 0.0;
        for i in 0..ITERS {
            let c = capacities[i % capacities.len()];
            acc += ctl
                .admissible_count(black_box(c))
                .expect("estimator warmed up");
        }
        black_box(acc);
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let (hit, miss) = paired(
        9,
        || time(&[capacity]),
        || time(&[capacity, capacity + 1.0]),
    );
    vec![
        Probe {
            name: "probe.memo_hit_ns",
            value: Quartiles::of(&hit).expect("pairs"),
        },
        Probe {
            name: "probe.memo_miss_ns",
            value: Quartiles::of(&miss).expect("pairs"),
        },
    ]
}

/// The benchmark's copy of `ContinuousLoad::run_rep`: the same calls
/// in the same order on the same RNG stream, a span around each call
/// into a layer, one unit per tick.
struct ContinuousReplica<'a, 'r> {
    cfg: &'a ContinuousConfig,
    model: &'a dyn SourceModel,
    ctl: RefCell<&'a mut dyn AdmissionEngine>,
    rec: &'a RefCell<&'r mut Recorder>,
    /// Σ over ticks of flows in system, added up across points.
    flow_ticks: &'a Cell<u64>,
    /// Ticks so far across points: the unit id.
    ticks: &'a Cell<u64>,
    conserved: &'a Cell<bool>,
}

impl Scenario for ContinuousReplica<'_, '_> {
    type Rep = ContinuousReport;
    type Report = ContinuousReport;

    fn validate(&self) -> Result<(), ConfigError> {
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> ContinuousReport {
        let cfg = self.cfg;
        let mut guard = self.ctl.borrow_mut();
        let ctl: &mut dyn AdmissionEngine = &mut **guard;
        let mut rec_guard = self.rec.borrow_mut();
        let rec: &mut Recorder = &mut rec_guard;
        let mut rng = ctx.rng();
        let mut table = ctx.table();
        let mut meter = OverflowMeter::new(cfg.capacity, cfg.target);
        let mut snapshot = ctx.scratch_rates();
        let mut flow_count = RunningStats::new();
        let mut prev_mean: Option<f64> = None;
        let fused = ctl.supports_moments();

        let mut unit = self.ticks.get();
        let mut flow_ticks = 0u64;
        let mut t = 0.0f64;
        let mut next_sample = cfg.warmup.max(cfg.tick);
        let stop_reason;
        let enabled = sink.is_enabled();
        loop {
            rec.begin_unit(unit, Layer::SimSession);
            unit += 1;
            t += cfg.tick;

            let load = if fused {
                let pivot = ctl.moment_pivot();
                let mom = rec.span(Layer::SimAdvanceMeasure, || {
                    table.advance_depart_measure(t, &mut rng, pivot)
                });
                rec.span(Layer::CoreEstimate, || ctl.observe_moments(t, &mom));
                mom.sum()
            } else {
                rec.span(Layer::TrafficAdvance, || table.advance_to(t, &mut rng));
                rec.span(Layer::LifecycleDepart, || table.depart_until(t));
                rec.span(Layer::SimMeasure, || table.snapshot_into(&mut snapshot));
                rec.span(Layer::CoreEstimate, || ctl.observe(t, &snapshot));
                snapshot.iter().sum()
            };
            flow_ticks += table.len() as u64;

            let mut entry = sink.entry(t);
            if enabled {
                entry.ticks = 1;
                entry.load = load;
                entry.occupancy = table.len() as f64;
                if let Some((mean, _)) = ctl.estimate_stats() {
                    if let Some(prev) = prev_mean {
                        entry.innovation = mean - prev;
                    }
                    prev_mean = Some(mean);
                }
            }

            if t >= next_sample {
                next_sample += cfg.sample_spacing;
                meter.record(load);
                flow_count.push(table.len() as f64);
                let stop = meter.should_stop().or_else(|| {
                    (meter.samples() >= cfg.max_samples).then_some(StopReason::BudgetExhausted)
                });
                if let Some(reason) = stop {
                    stop_reason = reason;
                    if enabled {
                        rec.span(Layer::MetricsEmit, || drop(entry));
                    }
                    rec.end_unit();
                    break;
                }
            }

            let decision = rec.span(Layer::CoreDecide, || {
                ctl.admissible_count(cfg.capacity, table.len())
            });
            match decision {
                Some(m) => {
                    let limit = m.floor().max(0.0) as usize;
                    let cap = (table.len() / 10).max(1);
                    let mut admitted_now = 0usize;
                    if table.len() < limit {
                        rec.span(Layer::LifecycleAdmit, || {
                            while table.len() < limit && admitted_now < cap {
                                let departs = t + exponential(&mut rng, cfg.mean_holding);
                                table.admit(self.model, departs, &mut rng);
                                admitted_now += 1;
                            }
                        });
                    }
                    entry.admissible = m;
                    entry.admitted = admitted_now as u64;
                    entry.exp_draws = admitted_now as u64;
                    entry.denied = limit.saturating_sub(table.len()) as u64;
                }
                None => {
                    if table.is_empty() {
                        rec.span(Layer::LifecycleAdmit, || {
                            let departs = t + exponential(&mut rng, cfg.mean_holding);
                            table.admit(self.model, departs, &mut rng);
                        });
                        entry.admitted = 1;
                        entry.exp_draws = 1;
                    }
                }
            }
            if enabled {
                rec.span(Layer::MetricsEmit, || drop(entry));
            }
            rec.end_unit();
        }

        if sink.is_enabled() {
            let mut e = sink.entry(t);
            e.departed = table.departed_total();
        }
        if sink.is_enabled() {
            let mut extra = MetricsSnapshot::new();
            meter.export_into("sim.pf", &mut extra);
            sink.attach(extra);
        }

        self.ticks.set(unit);
        self.flow_ticks.set(self.flow_ticks.get() + flow_ticks);
        if table.admitted_total() != table.departed_total() + table.len() as u64 {
            self.conserved.set(false);
        }
        ContinuousReport {
            pf: meter.finalize(stop_reason),
            mean_utilization: meter.mean_utilization(),
            mean_flows: flow_count.mean(),
            admitted: table.admitted_total(),
            departed: table.departed_total(),
            sim_time: t,
        }
    }

    fn fold(&self, mut reps: Vec<ContinuousReport>) -> ContinuousReport {
        reps.pop().expect("exactly one continuous replication")
    }
}
