//! Finite-arrival-rate (Poisson) load — the relaxation of the paper's
//! continuous-load worst case.
//!
//! §4 argues that "the performance of any admission control algorithm
//! under finite arrival rate will be no worse than its performance in
//! this [continuous-load] model". This scenario lets us check that claim
//! empirically and lets the examples model realistic call arrivals: flows
//! arrive as a Poisson process of rate `λ`, are admitted iff the
//! controller's criterion passes, and blocked otherwise (blocked flows
//! leave, they do not queue).

use crate::controller::AdmissionEngine;
use crate::events::EventQueue;
use crate::metrics::{OverflowMeter, PfEstimate, StopReason};
use crate::requests::MAX_WORKLOAD_ITEMS;
use crate::session::{
    require_finite, require_non_negative, require_positive, require_step, ConfigError, RepContext,
    Scenario,
};
use crate::telemetry::MetricsSink;
use mbac_num::rng::exponential;
use mbac_num::RunningStats;
use mbac_traffic::process::SourceModel;
use std::cell::RefCell;

/// Configuration of the Poisson-arrival simulation.
#[derive(Debug, Clone)]
pub struct PoissonConfig {
    /// Link capacity `c`.
    pub capacity: f64,
    /// Flow arrival rate `λ`.
    pub arrival_rate: f64,
    /// Mean flow holding time `T_h`.
    pub mean_holding: f64,
    /// Measurement tick.
    pub tick: f64,
    /// Warm-up period.
    pub warmup: f64,
    /// Overflow sample spacing.
    pub sample_spacing: f64,
    /// QoS target (termination criterion (b)).
    pub target: f64,
    /// Sample budget.
    pub max_samples: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Results of a Poisson-arrival run.
#[derive(Debug, Clone)]
pub struct PoissonReport {
    /// Overflow-probability estimate.
    pub pf: PfEstimate,
    /// Fraction of arrivals that were blocked.
    pub blocking_probability: f64,
    /// Mean utilization at sample epochs.
    pub mean_utilization: f64,
    /// Mean flows in system at sample epochs.
    pub mean_flows: f64,
    /// Total arrivals offered.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
}

/// Events in the Poisson scenario.
enum Ev {
    Arrival,
    Tick,
    Sample,
}

/// The Poisson-arrival model as a [`Scenario`]: a single event-driven
/// replication in which flows arrive at rate `λ`, are admitted iff the
/// measured criterion allows one more flow, and blocked otherwise.
///
/// Like [`crate::runner::ContinuousLoad`], borrows the caller's
/// controller mutably and therefore runs through
/// [`SessionBuilder::run_local`].
///
/// [`SessionBuilder::run_local`]: crate::session::SessionBuilder::run_local
pub struct PoissonLoad<'a> {
    cfg: PoissonConfig,
    model: &'a dyn SourceModel,
    ctl: RefCell<&'a mut dyn AdmissionEngine>,
}

impl<'a> PoissonLoad<'a> {
    /// Builds the scenario around the caller's controller.
    pub fn new(
        cfg: &PoissonConfig,
        model: &'a dyn SourceModel,
        ctl: &'a mut dyn AdmissionEngine,
    ) -> Self {
        PoissonLoad {
            cfg: cfg.clone(),
            model,
            ctl: RefCell::new(ctl),
        }
    }
}

impl Scenario for PoissonLoad<'_> {
    type Rep = PoissonReport;
    type Report = PoissonReport;

    fn validate(&self) -> Result<(), ConfigError> {
        let cfg = &self.cfg;
        require_positive("capacity", cfg.capacity)?;
        // An infinite rate makes the mean inter-arrival time zero.
        require_positive("arrival rate", cfg.arrival_rate)?;
        require_finite("arrival rate", cfg.arrival_rate)?;
        require_positive("mean holding time", cfg.mean_holding)?;
        require_step("tick", cfg.tick)?;
        require_step("sample spacing", cfg.sample_spacing)?;
        require_non_negative("warmup", cfg.warmup)?;
        require_finite("warmup", cfg.warmup)?;
        // Every arrival is an event and an advance of the whole table, so
        // the arrivals the sample budget's horizon expects bound the run
        // as the requests of a request-stream workload do.
        let horizon = cfg.warmup + cfg.max_samples as f64 * cfg.sample_spacing;
        if cfg.arrival_rate * horizon > MAX_WORKLOAD_ITEMS as f64 {
            return Err(ConfigError::WorkloadTooLarge {
                what: "expected arrivals",
                max: MAX_WORKLOAD_ITEMS,
            });
        }
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> PoissonReport {
        let cfg = &self.cfg;
        let mut guard = self.ctl.borrow_mut();
        let ctl: &mut dyn AdmissionEngine = &mut **guard;
        let mut rng = ctx.rng();
        let mut table = ctx.table();
        let mut meter = OverflowMeter::new(cfg.capacity, cfg.target);
        let mut q = EventQueue::new();
        let mut flow_count = RunningStats::new();
        let mut offered = 0u64;
        let mut admitted = 0u64;

        q.schedule_at(exponential(&mut rng, 1.0 / cfg.arrival_rate), Ev::Arrival);
        q.schedule_at(cfg.tick, Ev::Tick);
        q.schedule_at(cfg.warmup.max(cfg.tick), Ev::Sample);

        let stop_reason = loop {
            let (t, ev) = q.pop().expect("event queue never drains");
            match ev {
                Ev::Tick => {
                    // Measurement tick: evolve, depart, and fold.
                    let mom = table.advance_depart_measure(t, &mut rng, ctl.moment_pivot());
                    ctl.observe_moments(t, &mom);
                    if sink.is_enabled() {
                        let mut e = sink.entry(t);
                        e.ticks = 1;
                        e.load = mom.sum();
                        e.occupancy = table.len() as f64;
                    }
                    q.schedule_in(cfg.tick, Ev::Tick);
                }
                Ev::Sample => {
                    // Sample: evolve, depart, and fold the aggregate
                    // through the same call as a tick. The pivot only
                    // centers s₁/s₂, never the raw sum.
                    let mom = table.advance_depart_measure(t, &mut rng, 0.0);
                    meter.record(mom.sum());
                    flow_count.push(table.len() as f64);
                    if let Some(reason) = meter.should_stop() {
                        break reason;
                    }
                    if meter.samples() >= cfg.max_samples {
                        break StopReason::BudgetExhausted;
                    }
                    q.schedule_in(cfg.sample_spacing, Ev::Sample);
                }
                Ev::Arrival => {
                    table.advance_to(t, &mut rng);
                    table.depart_until(t);
                    offered += 1;
                    // Admit iff the measured criterion allows one more flow.
                    let ok = match ctl.admissible_count(cfg.capacity, table.len()) {
                        Some(m) => ((table.len() + 1) as f64) <= m,
                        None => table.is_empty(), // cold start: seed flow
                    };
                    let mut holding_draw = 0u64;
                    if ok {
                        admitted += 1;
                        let departs = t + exponential(&mut rng, cfg.mean_holding);
                        table.admit(self.model, departs, &mut rng);
                        holding_draw = 1;
                    }
                    q.schedule_in(exponential(&mut rng, 1.0 / cfg.arrival_rate), Ev::Arrival);
                    if sink.is_enabled() {
                        // One unit-of-work entry per arrival: admitted
                        // or denied, plus the holding-time draw and the
                        // next-arrival scheduling draw.
                        let mut e = sink.entry(t);
                        e.admitted = holding_draw;
                        e.denied = 1 - holding_draw;
                        e.exp_draws = 1 + holding_draw;
                    }
                }
            }
        };

        if sink.is_enabled() {
            let mut e = sink.entry(q.now());
            e.departed = table.departed_total();
        }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MbacController;
    use crate::session::SessionBuilder;
    use mbac_core::admission::CertaintyEquivalent;
    use mbac_core::estimators::MemorylessEstimator;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

    fn controller(p: f64) -> MbacController {
        MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(p)),
        )
    }

    fn config(arrival_rate: f64, seed: u64) -> PoissonConfig {
        PoissonConfig {
            capacity: 100.0,
            arrival_rate,
            mean_holding: 50.0,
            tick: 0.25,
            warmup: 150.0,
            sample_spacing: 15.0,
            target: 1e-2,
            max_samples: 400,
            seed,
        }
    }

    fn poisson(
        cfg: &PoissonConfig,
        m: &dyn SourceModel,
        ctl: &mut dyn AdmissionEngine,
    ) -> PoissonReport {
        SessionBuilder::new()
            .run_local(&PoissonLoad::new(cfg, m, ctl))
            .unwrap()
    }

    #[test]
    fn light_load_admits_everyone() {
        // Offered load λ·T_h = 0.2·50 = 10 flows ≪ capacity 100.
        let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ctl = controller(1e-2);
        let rep = poisson(&config(0.2, 31), &m, &mut ctl);
        assert!(
            rep.blocking_probability < 0.02,
            "blocking {} under light load",
            rep.blocking_probability
        );
        assert!(
            rep.mean_flows > 5.0 && rep.mean_flows < 15.0,
            "flows {}",
            rep.mean_flows
        );
    }

    #[test]
    fn heavy_load_blocks_excess() {
        // Offered load 10·50 = 500 flows ≫ capacity 100: most blocked.
        let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ctl = controller(1e-2);
        let rep = poisson(&config(10.0, 32), &m, &mut ctl);
        assert!(
            rep.blocking_probability > 0.6,
            "blocking {} under 5x overload",
            rep.blocking_probability
        );
        // But the link is well used.
        assert!(
            rep.mean_utilization > 0.7,
            "utilization {}",
            rep.mean_utilization
        );
    }

    #[test]
    fn finite_load_no_worse_than_continuous() {
        // §4's claim: overflow under finite λ is bounded by the
        // continuous-load overflow at the same parameters.
        use crate::runner::{ContinuousConfig, ContinuousLoad};
        let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ctl_p = controller(1e-2);
        let pois = poisson(&config(4.0, 33), &m, &mut ctl_p);
        let mut ctl_c = controller(1e-2);
        let ccfg = ContinuousConfig {
            capacity: 100.0,
            mean_holding: 50.0,
            tick: 0.25,
            warmup: 150.0,
            sample_spacing: 15.0,
            target: 1e-2,
            max_samples: 400,
            seed: 33,
        };
        let cont = SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&ccfg, &m, &mut ctl_c))
            .unwrap();
        assert!(
            pois.pf.value <= cont.pf.value * 1.5 + 5e-3,
            "poisson pf {} should not exceed continuous pf {}",
            pois.pf.value,
            cont.pf.value
        );
    }

    #[test]
    fn offered_equals_admitted_plus_blocked() {
        let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ctl = controller(1e-2);
        let rep = poisson(&config(2.0, 34), &m, &mut ctl);
        let blocked = (rep.blocking_probability * rep.offered as f64).round() as u64;
        assert_eq!(rep.offered, rep.admitted + blocked);
    }

    #[test]
    fn validation_rejects_unbounded_arrival_rates() {
        let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ctl = controller(1e-2);
        let validate = |cfg: &PoissonConfig, ctl: &mut MbacController| {
            SessionBuilder::new()
                .run_local(&PoissonLoad::new(cfg, &m, ctl))
                .map(|_| ())
        };
        let mut cfg = config(f64::INFINITY, 1);
        assert_eq!(
            validate(&cfg, &mut ctl),
            Err(ConfigError::NotFinite {
                field: "arrival rate",
                value: f64::INFINITY
            })
        );
        // Horizon 150 + 400 · 15 = 6150: the bound sits between these.
        let too_many = Err(ConfigError::WorkloadTooLarge {
            what: "expected arrivals",
            max: MAX_WORKLOAD_ITEMS,
        });
        cfg.arrival_rate = 1e300;
        assert_eq!(validate(&cfg, &mut ctl), too_many);
        cfg.arrival_rate = 1.01 * MAX_WORKLOAD_ITEMS as f64 / 6150.0;
        assert_eq!(validate(&cfg, &mut ctl), too_many);
        // Just under the bound it validates; run nothing of it.
        cfg.arrival_rate = 0.99 * MAX_WORKLOAD_ITEMS as f64 / 6150.0;
        let scenario = PoissonLoad::new(&cfg, &m, &mut ctl);
        assert_eq!(scenario.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_arrival_rate() {
        let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ctl = controller(1e-2);
        let mut cfg = config(1.0, 1);
        cfg.arrival_rate = 0.0;
        let err = SessionBuilder::new()
            .run_local(&PoissonLoad::new(&cfg, &m, &mut ctl))
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NonPositive {
                field: "arrival rate",
                ..
            }
        ));
    }
}
