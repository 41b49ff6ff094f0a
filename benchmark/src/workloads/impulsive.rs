//! `prop33_impulsive`: the √2 experiment of Prop. 3.3 — many short
//! independent replications fanned over the work-stealing pool, each
//! one boxed-spawning its burst and deciding once, memo-cold.

use super::{sub_seed, Check, PoolStats, Round, Workload};
use crate::digest::Digest;
use crate::fingerprint::nproc;
use crate::json::Json;
use crate::spans::{Layer, Recorder, RecorderConfig};
use crate::stats::median;
use mbac_core::admission::{AdmissionPolicy, CertaintyEquivalent};
use mbac_core::estimators::snapshot_stats;
use mbac_core::theory::impulsive::pf_certainty_equivalent;
use mbac_metrics::{MetricValue, MetricsSnapshot};
use mbac_num::RunningStats;
use mbac_sim::{
    ConfigError, ImpulsiveConfig, ImpulsiveLoad, ImpulsiveReport, MetricsMode, MetricsSink,
    RepContext, Scenario, SessionBuilder,
};
use mbac_traffic::process::RateProcess;
use mbac_traffic::{RcbrConfig, RcbrModel, SourceModel};
use std::sync::Mutex;
use std::time::Instant;

/// The target of the experiment; large enough that `p_f` resolves by
/// direct simulation at this replication count.
const P_Q: f64 = 0.01;

pub struct Impulsive {
    cfg: ImpulsiveConfig,
    model: RcbrModel,
    policy: CertaintyEquivalent,
    workers: usize,
}

impl Impulsive {
    pub fn new(seed: u64) -> Self {
        Impulsive {
            cfg: ImpulsiveConfig {
                capacity: 400.0,
                estimation_flows: 400,
                mean_holding: None,
                observe_times: vec![50.0],
                replications: 2500,
                seed: sub_seed(seed, 0x33),
            },
            model: RcbrModel::new(RcbrConfig::paper_default(1.0)),
            policy: CertaintyEquivalent::from_probability(P_Q),
            workers: nproc().min(4),
        }
    }

    fn session(&self, workers: usize) -> SessionBuilder {
        SessionBuilder::new().seed(self.cfg.seed).workers(workers)
    }

    fn summarize(&self, report: &ImpulsiveReport) -> Round {
        let mut d = Digest::new();
        d.u64(report.replications as u64)
            .u64(report.m0.count())
            .f64(report.m0.mean())
            .f64(report.m0.variance());
        for o in &report.observations {
            d.f64(o.t)
                .u64(o.overflows)
                .f64(o.load.mean())
                .f64(o.load.variance())
                .f64(o.mean_flows);
        }
        let theory = pf_certainty_equivalent(P_Q);
        Round {
            digest: d.finish(),
            units: Some(report.replications as u64),
            checks: vec![
                // Prop. 3.3: p_f = Q(Q⁻¹(p_q)/√2), whatever the marginal.
                Check::band(
                    "pf_within_x2_of_prop33",
                    report.pf_at(0),
                    theory / 2.0,
                    theory * 2.0,
                ),
                Check::band(
                    "flows_stay_in_system",
                    report.observations[0].mean_flows,
                    0.9 * report.m0.mean().floor(),
                    report.m0.mean(),
                ),
            ],
            ..Round::default()
        }
    }
}

impl Workload for Impulsive {
    fn params(&self) -> Json {
        Json::obj([
            ("model", Json::str("rcbr")),
            ("capacity", Json::Num(self.cfg.capacity)),
            (
                "estimation_flows",
                Json::UInt(self.cfg.estimation_flows as u64),
            ),
            ("mean_holding", Json::str("infinite")),
            (
                "observe_times",
                Json::Arr(
                    self.cfg
                        .observe_times
                        .iter()
                        .map(|&t| Json::Num(t))
                        .collect(),
                ),
            ),
            ("replications", Json::UInt(self.cfg.replications as u64)),
            ("p_q", Json::Num(P_Q)),
            ("workers", Json::UInt(self.workers as u64)),
            ("seed", Json::UInt(self.cfg.seed)),
        ])
    }

    fn unit(&self) -> &'static str {
        "replications"
    }

    fn production(&mut self) -> Round {
        let report = self
            .session(self.workers)
            .run(&ImpulsiveLoad::new(&self.cfg, &self.model, &self.policy))
            .expect("valid impulsive config");
        self.summarize(&report)
    }

    fn replica(&mut self, rec: &mut Recorder) -> Round {
        // One recorder per worker, sized before the round starts; a
        // replication borrows one for its duration.
        let recorders = (0..self.workers)
            .map(|_| {
                if rec.is_enabled() {
                    Recorder::new(RecorderConfig {
                        log_capacity: RecorderConfig::default().log_capacity / self.workers,
                        ..RecorderConfig::default()
                    })
                } else {
                    Recorder::disabled()
                }
            })
            .collect();
        let scenario = ImpulsiveReplica {
            cfg: &self.cfg,
            model: &self.model,
            policy: &self.policy,
            recorders: Mutex::new(recorders),
        };
        let report = self
            .session(self.workers)
            .run(&scenario)
            .expect("valid impulsive config");
        for worker in scenario
            .recorders
            .into_inner()
            .expect("no replication panicked")
        {
            rec.merge(&worker);
        }
        self.summarize(&report)
    }

    fn parallelism(&self) -> usize {
        self.workers
    }

    fn pool_stats(&mut self, parallel_wall_s: f64) -> Option<PoolStats> {
        if self.workers < 2 {
            // One core: there is no pool to account for, and a
            // speed-up measured on it would be made up.
            return None;
        }
        let scenario = ImpulsiveLoad::new(&self.cfg, &self.model, &self.policy);
        let (_, snapshot) = self
            .session(self.workers)
            .metrics(MetricsMode::EnabledWithTiming)
            .run_metered(&scenario)
            .expect("valid impulsive config");
        let serial: Vec<f64> = (0..2)
            .map(|_| {
                let start = Instant::now();
                self.session(1)
                    .run(&scenario)
                    .expect("valid impulsive config");
                start.elapsed().as_secs_f64()
            })
            .collect();
        let per_worker = |field: &str| -> f64 {
            (0..self.workers)
                .map(|slot| metric(&snapshot, &format!("pool.worker{slot}.{field}")))
                .sum()
        };
        Some(PoolStats {
            utilization: per_worker("utilization") / self.workers as f64,
            steals: per_worker("steals"),
            busy_ns: per_worker("busy_ns"),
            speedup_vs_serial: median(&serial) / parallel_wall_s,
        })
    }
}

fn metric(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    match snapshot.get(name) {
        Some(MetricValue::Counter(c)) => c.count as f64,
        Some(MetricValue::Gauge(g)) => g.mean(),
        _ => 0.0,
    }
}

/// The benchmark's copy of `ImpulsiveLoad`: `run_rep` and `fold` make
/// the same calls in the same order; one unit per replication.
struct ImpulsiveReplica<'a> {
    cfg: &'a ImpulsiveConfig,
    model: &'a dyn SourceModel,
    policy: &'a dyn AdmissionPolicy,
    recorders: Mutex<Vec<Recorder>>,
}

impl Scenario for ImpulsiveReplica<'_> {
    type Rep = (f64, Vec<(f64, usize)>);
    type Report = ImpulsiveReport;

    fn validate(&self) -> Result<(), ConfigError> {
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.replications
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Self::Rep {
        let cfg = self.cfg;
        let mut rec = self
            .recorders
            .lock()
            .expect("no replication panicked")
            .pop()
            .expect("one recorder per worker");
        rec.begin_unit(ctx.rep, Layer::SimSession);
        let mut rng = ctx.rng();

        let candidates: Vec<Box<dyn RateProcess>> = rec.span(Layer::TrafficSpawn, || {
            (0..cfg.estimation_flows)
                .map(|_| self.model.spawn(&mut rng))
                .collect()
        });
        let mut rates = ctx.scratch_rates();
        rates.extend(candidates.iter().map(|c| c.rate()));
        let est = rec
            .span(Layer::CoreEstimate, || snapshot_stats(&rates))
            .expect("non-empty candidate burst");
        let m0 = rec.span(Layer::CoreDecide, || {
            self.policy.admissible_count(est, cfg.capacity)
        });
        let admit = m0.floor().max(0.0) as usize;

        let mut table = ctx.table();
        rec.span(Layer::LifecycleAdmit, || {
            let mut iter = candidates.into_iter();
            for _ in 0..admit {
                match iter.next() {
                    Some(process) => {
                        table.admit_process(process, f64::INFINITY);
                    }
                    None => {
                        table.admit(self.model, f64::INFINITY, &mut rng);
                    }
                }
            }
        });

        let at = cfg
            .observe_times
            .iter()
            .map(|&t| {
                rec.span(Layer::TrafficAdvance, || table.advance_to(t, &mut rng));
                rec.span(Layer::LifecycleDepart, || table.depart_until(t));
                rec.span(Layer::SimMeasure, || (table.aggregate_rate(), table.len()))
            })
            .collect();
        rec.end_unit();
        self.recorders
            .lock()
            .expect("no replication panicked")
            .push(rec);
        (m0, at)
    }

    fn fold(&self, reps: Vec<Self::Rep>) -> ImpulsiveReport {
        let mut m0_stats = RunningStats::new();
        let mut observations: Vec<mbac_sim::runner::ImpulsiveObservation> = self
            .cfg
            .observe_times
            .iter()
            .map(|&t| mbac_sim::runner::ImpulsiveObservation {
                t,
                overflows: 0,
                load: RunningStats::new(),
                mean_flows: 0.0,
            })
            .collect();
        for (m0, at) in reps {
            m0_stats.push(m0);
            for (o, &(load, flows)) in observations.iter_mut().zip(&at) {
                o.load.push(load);
                o.mean_flows += flows as f64 / self.cfg.replications as f64;
                if load > self.cfg.capacity {
                    o.overflows += 1;
                }
            }
        }
        ImpulsiveReport {
            m0: m0_stats,
            observations,
            replications: self.cfg.replications,
        }
    }
}
