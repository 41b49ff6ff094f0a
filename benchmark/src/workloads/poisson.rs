//! `poisson_blocking`: Poisson call arrivals at 1.15× the link's
//! capacity — sustained overload, where blocking is what keeps the
//! occupancy stable. The cost is per *arrival*: every arrival event
//! advances the whole table before it decides.

use super::{sub_seed, Check, Round, Workload};
use crate::digest::Digest;
use crate::json::Json;
use crate::spans::{Layer, Recorder};
use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_num::rng::exponential;
use mbac_num::RunningStats;
use mbac_sim::{
    AdmissionEngine, ConfigError, EventQueue, MbacController, MetricsSink, OverflowMeter,
    PoissonConfig, PoissonLoad, PoissonReport, RepContext, Scenario, SessionBuilder, StopReason,
};
use mbac_traffic::{RcbrConfig, RcbrModel, SourceModel};
use std::cell::{Cell, RefCell};

const P_Q: f64 = 1e-3;

pub struct Poisson {
    cfg: PoissonConfig,
    model: RcbrModel,
    t_m: f64,
}

impl Poisson {
    pub fn new(seed: u64) -> Self {
        let capacity = 6e3;
        let t_h = 200.0;
        Poisson {
            cfg: PoissonConfig {
                capacity,
                // Offered load λ·T_h = 1.15 × capacity (mean rate 1).
                arrival_rate: 1.15 * capacity / t_h,
                mean_holding: t_h,
                tick: 0.25,
                // Without blocking the occupancy would cross the
                // capacity at t ≈ 2·T_h; the run goes 5·T_h so most of
                // it is spent blocking. 50 samples: the work is the
                // same on every seed (see continuous.rs).
                warmup: 800.0,
                sample_spacing: 4.0,
                target: P_Q,
                max_samples: 50,
                seed: sub_seed(seed, 0x90),
            },
            model: RcbrModel::new(RcbrConfig::paper_default(1.0)),
            t_m: t_h / capacity.sqrt(),
        }
    }

    fn controller(&self) -> MbacController {
        MbacController::new(
            Box::new(FilteredEstimator::new(self.t_m)),
            Box::new(CertaintyEquivalent::from_probability(P_Q)),
        )
    }

    fn session(&self) -> SessionBuilder {
        SessionBuilder::new().seed(self.cfg.seed)
    }

    fn summarize(&self, r: &PoissonReport) -> Round {
        let mut d = Digest::new();
        d.f64(r.pf.value)
            .f64(r.pf.ci.lo)
            .f64(r.pf.ci.hi)
            .u64(r.pf.samples)
            .u64(r.pf.overflows)
            .f64(r.blocking_probability)
            .f64(r.mean_utilization)
            .f64(r.mean_flows)
            .u64(r.offered)
            .u64(r.admitted);
        Round {
            digest: d.finish(),
            units: Some(r.offered),
            checks: vec![
                Check::band("blocking_share", r.blocking_probability, 0.05, 0.2),
                // Leskelä's point: under overload, blocking must hold
                // the occupancy at the link's capacity, not above it.
                Check::band("utilization", r.mean_utilization, 0.9, 1.0),
                Check {
                    name: "admitted_le_offered",
                    ok: r.admitted <= r.offered,
                    detail: format!("{} <= {}", r.admitted, r.offered),
                },
            ],
            ..Round::default()
        }
    }
}

impl Workload for Poisson {
    fn params(&self) -> Json {
        Json::obj([
            ("model", Json::str("rcbr")),
            ("capacity", Json::Num(self.cfg.capacity)),
            ("arrival_rate", Json::Num(self.cfg.arrival_rate)),
            ("mean_holding", Json::Num(self.cfg.mean_holding)),
            ("tick", Json::Num(self.cfg.tick)),
            ("warmup", Json::Num(self.cfg.warmup)),
            ("sample_spacing", Json::Num(self.cfg.sample_spacing)),
            ("max_samples", Json::UInt(self.cfg.max_samples)),
            ("t_m", Json::Num(self.t_m)),
            ("p_q", Json::Num(P_Q)),
            ("seed", Json::UInt(self.cfg.seed)),
        ])
    }

    fn unit(&self) -> &'static str {
        "arrivals"
    }

    fn production(&mut self) -> Round {
        let mut ctl = self.controller();
        let report = self
            .session()
            .run_local(&PoissonLoad::new(&self.cfg, &self.model, &mut ctl))
            .expect("valid poisson config");
        self.summarize(&report)
    }

    fn replica(&mut self, rec: &mut Recorder) -> Round {
        let mut ctl = self.controller();
        let conserved = Cell::new(false);
        let scenario = PoissonReplica {
            cfg: &self.cfg,
            model: &self.model,
            ctl: RefCell::new(&mut ctl),
            rec: RefCell::new(rec),
            conserved: &conserved,
        };
        let report = self
            .session()
            .run_local(&scenario)
            .expect("valid poisson config");
        let mut round = self.summarize(&report);
        round.checks.push(Check {
            name: "flow_conservation",
            ok: conserved.get(),
            detail: "admitted == departed + in system".into(),
        });
        round
    }
}

enum Ev {
    Arrival,
    Tick,
    Sample,
}

/// The benchmark's copy of `PoissonLoad::run_rep` (metrics disabled,
/// as this workload runs it); one unit per event popped.
struct PoissonReplica<'a, 'r> {
    cfg: &'a PoissonConfig,
    model: &'a dyn SourceModel,
    ctl: RefCell<&'a mut dyn AdmissionEngine>,
    rec: RefCell<&'r mut Recorder>,
    conserved: &'a Cell<bool>,
}

impl Scenario for PoissonReplica<'_, '_> {
    type Rep = PoissonReport;
    type Report = PoissonReport;

    fn validate(&self) -> Result<(), ConfigError> {
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> PoissonReport {
        let cfg = self.cfg;
        let mut guard = self.ctl.borrow_mut();
        let ctl: &mut dyn AdmissionEngine = &mut **guard;
        let mut rec_guard = self.rec.borrow_mut();
        let rec: &mut Recorder = &mut rec_guard;
        let mut rng = ctx.rng();
        let mut table = ctx.table();
        let mut meter = OverflowMeter::new(cfg.capacity, cfg.target);
        let mut q = EventQueue::new();
        let mut snapshot = ctx.scratch_rates();
        let mut flow_count = RunningStats::new();
        let mut offered = 0u64;
        let mut admitted = 0u64;

        q.schedule_at(exponential(&mut rng, 1.0 / cfg.arrival_rate), Ev::Arrival);
        q.schedule_at(cfg.tick, Ev::Tick);
        q.schedule_at(cfg.warmup.max(cfg.tick), Ev::Sample);

        let fused = ctl.supports_moments();

        let mut unit = 0u64;
        let stop_reason = loop {
            rec.begin_unit(unit, Layer::SimSession);
            unit += 1;
            let (t, ev) = rec
                .span(Layer::SimEvents, || q.pop())
                .expect("event queue never drains");
            if fused && matches!(ev, Ev::Tick) {
                let pivot = ctl.moment_pivot();
                let mom = rec.span(Layer::SimAdvanceMeasure, || {
                    table.advance_depart_measure(t, &mut rng, pivot)
                });
                rec.span(Layer::CoreEstimate, || ctl.observe_moments(t, &mom));
                rec.span(Layer::SimEvents, || q.schedule_in(cfg.tick, Ev::Tick));
                rec.end_unit();
                continue;
            }
            if matches!(ev, Ev::Sample) {
                let mom = rec.span(Layer::SimAdvanceMeasure, || {
                    table.advance_depart_measure(t, &mut rng, 0.0)
                });
                meter.record(mom.sum());
                flow_count.push(table.len() as f64);
                let stop = meter.should_stop().or_else(|| {
                    (meter.samples() >= cfg.max_samples).then_some(StopReason::BudgetExhausted)
                });
                if let Some(reason) = stop {
                    rec.end_unit();
                    break reason;
                }
                rec.span(Layer::SimEvents, || {
                    q.schedule_in(cfg.sample_spacing, Ev::Sample)
                });
                rec.end_unit();
                continue;
            }
            rec.span(Layer::TrafficAdvance, || table.advance_to(t, &mut rng));
            rec.span(Layer::LifecycleDepart, || table.depart_until(t));
            match ev {
                Ev::Arrival => {
                    offered += 1;
                    let decision = rec.span(Layer::CoreDecide, || {
                        ctl.admissible_count(cfg.capacity, table.len())
                    });
                    let ok = match decision {
                        Some(m) => ((table.len() + 1) as f64) <= m,
                        None => table.is_empty(),
                    };
                    if ok {
                        admitted += 1;
                        rec.span(Layer::LifecycleAdmit, || {
                            let departs = t + exponential(&mut rng, cfg.mean_holding);
                            table.admit(self.model, departs, &mut rng);
                        });
                    }
                    let next = exponential(&mut rng, 1.0 / cfg.arrival_rate);
                    rec.span(Layer::SimEvents, || q.schedule_in(next, Ev::Arrival));
                }
                Ev::Tick => {
                    rec.span(Layer::SimMeasure, || table.snapshot_into(&mut snapshot));
                    rec.span(Layer::CoreEstimate, || ctl.observe(t, &snapshot));
                    rec.span(Layer::SimEvents, || q.schedule_in(cfg.tick, Ev::Tick));
                }
                Ev::Sample => unreachable!("samples take the fused path above"),
            }
            rec.end_unit();
        };

        self.conserved
            .set(table.admitted_total() == table.departed_total() + table.len() as u64);
        PoissonReport {
            pf: meter.finalize(stop_reason),
            blocking_probability: if offered == 0 {
                0.0
            } else {
                1.0 - admitted as f64 / offered as f64
            },
            mean_utilization: meter.mean_utilization(),
            mean_flows: flow_count.mean(),
            offered,
            admitted,
        }
    }

    fn fold(&self, mut reps: Vec<PoissonReport>) -> PoissonReport {
        reps.pop().expect("exactly one poisson replication")
    }
}
