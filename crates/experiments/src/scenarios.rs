//! Shared experiment scenarios: parameterized builders that wire traffic
//! models, estimators, controllers and the simulator together the same
//! way for every figure binary (and for `benchmark/`'s `fig5_sweep`).

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_core::params::QosTarget;
use mbac_core::theory::continuous::ContinuousModel;
use mbac_sim::{
    ContinuousConfig, ContinuousLoad, ContinuousReport, MbacController, SessionBuilder,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use mbac_traffic::trace::{Trace, TraceModel};
use std::sync::Arc;

/// A continuous-load RCBR scenario — the configuration behind Figs 5,
/// 7 and 10.
#[derive(Debug, Clone, Copy)]
pub struct ContinuousScenario {
    /// System size `n = c/μ`.
    pub n: f64,
    /// Mean holding time `T_h`.
    pub t_h: f64,
    /// Traffic correlation time-scale `T_c`.
    pub t_c: f64,
    /// Estimator memory `T_m`.
    pub t_m: f64,
    /// Certainty-equivalent target `p_ce` the controller runs with.
    pub p_ce: f64,
    /// QoS target `p_q` (for the termination criteria).
    pub p_q: f64,
    /// Spaced-sample budget.
    pub max_samples: u64,
    /// Seed.
    pub seed: u64,
}

impl ContinuousScenario {
    /// The critical time-scale `T̃_h = T_h/√n`.
    pub fn t_h_tilde(&self) -> f64 {
        self.t_h / self.n.sqrt()
    }

    /// The matching theory model (σ/μ = 0.3 as in all simulations).
    pub fn theory(&self) -> ContinuousModel {
        ContinuousModel::new(crate::paper::COV, self.t_h_tilde(), self.t_c)
    }

    /// Theory prediction by numerical integration of eqn (37).
    pub fn theory_pf_general(&self) -> f64 {
        self.theory()
            .pf_with_memory(QosTarget::new(self.p_ce).alpha(), self.t_m)
    }

    /// Theory prediction by the closed form of eqn (38).
    pub fn theory_pf_closed(&self) -> f64 {
        self.theory()
            .pf_with_memory_separated(QosTarget::new(self.p_ce).alpha(), self.t_m)
    }

    /// The simulator configuration implementing §5.2: tick ≲ T_c/4,
    /// warm-up of 10 memory/holding scales, sample spacing
    /// `2·max(T̃_h, T_m, T_c)`.
    pub fn sim_config(&self) -> ContinuousConfig {
        let t_h_tilde = self.t_h_tilde();
        let scale = t_h_tilde.max(self.t_m).max(self.t_c);
        ContinuousConfig {
            capacity: self.n * crate::paper::MEAN,
            mean_holding: self.t_h,
            tick: (self.t_c / 4.0).min(t_h_tilde / 4.0).max(1e-3),
            warmup: 10.0 * scale,
            sample_spacing: ContinuousConfig::paper_spacing(t_h_tilde, self.t_m, self.t_c),
            target: self.p_q,
            max_samples: self.max_samples,
            seed: self.seed,
        }
    }

    /// Runs the simulation with the paper's RCBR sources and the
    /// exponentially-filtered certainty-equivalent MBAC.
    pub fn run(&self) -> ContinuousReport {
        let model = RcbrModel::new(RcbrConfig {
            mean: crate::paper::MEAN,
            std_dev: crate::paper::COV * crate::paper::MEAN,
            t_c: self.t_c,
            truncate_at_zero: true,
        });
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(self.t_m)),
            Box::new(CertaintyEquivalent::from_probability(self.p_ce)),
        );
        SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&self.sim_config(), &model, &mut ctl))
            .expect("valid continuous scenario config")
    }
}

/// A continuous-load trace-driven scenario — the configuration behind
/// Figs 11–12 (Starwars-like LRD traffic).
#[derive(Clone)]
pub struct TraceScenario {
    /// The shared trace.
    pub trace: Arc<Trace>,
    /// System size `n = c/μ_trace`.
    pub n: f64,
    /// Mean holding time `T_h`.
    pub t_h: f64,
    /// Estimator memory `T_m`.
    pub t_m: f64,
    /// Certainty-equivalent target.
    pub p_ce: f64,
    /// QoS target.
    pub p_q: f64,
    /// Spaced-sample budget.
    pub max_samples: u64,
    /// Seed.
    pub seed: u64,
}

impl TraceScenario {
    /// The critical time-scale.
    pub fn t_h_tilde(&self) -> f64 {
        self.t_h / self.n.sqrt()
    }

    /// Runs the trace-driven continuous-load simulation.
    pub fn run(&self) -> ContinuousReport {
        let model = TraceModel::new(self.trace.clone());
        let slot = self.trace.slot();
        let t_h_tilde = self.t_h_tilde();
        let scale = t_h_tilde.max(self.t_m).max(slot);
        let cfg = ContinuousConfig {
            capacity: self.n * self.trace.mean(),
            mean_holding: self.t_h,
            tick: (slot / 2.0).min(t_h_tilde / 4.0).max(1e-3),
            warmup: 10.0 * scale,
            sample_spacing: ContinuousConfig::paper_spacing(t_h_tilde, self.t_m, slot),
            target: self.p_q,
            max_samples: self.max_samples,
            seed: self.seed,
        };
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(self.t_m)),
            Box::new(CertaintyEquivalent::from_probability(self.p_ce)),
        );
        SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&cfg, &model, &mut ctl))
            .expect("valid trace scenario config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ContinuousScenario {
        ContinuousScenario {
            n: 100.0,
            t_h: 100.0,
            t_c: 1.0,
            t_m: 5.0,
            p_ce: 1e-2,
            p_q: 1e-2,
            max_samples: 200,
            seed: 1,
        }
    }

    #[test]
    fn derived_quantities() {
        let s = scenario();
        assert!((s.t_h_tilde() - 10.0).abs() < 1e-12);
        let cfg = s.sim_config();
        assert!((cfg.sample_spacing - 20.0).abs() < 1e-12);
        assert!((cfg.capacity - 100.0).abs() < 1e-12);
        assert!(cfg.tick <= 0.25 + 1e-12);
    }

    #[test]
    fn theory_matches_direct_model_call() {
        let s = scenario();
        let direct =
            ContinuousModel::new(0.3, 10.0, 1.0).pf_with_memory(QosTarget::new(1e-2).alpha(), 5.0);
        assert!((s.theory_pf_general() - direct).abs() < 1e-12);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let rep = scenario().run();
        assert!(rep.pf.samples > 0);
        assert!(rep.mean_utilization > 0.5 && rep.mean_utilization < 1.1);
    }

    #[test]
    fn trace_scenario_runs_end_to_end() {
        use mbac_traffic::starwars::{generate_starwars_like, StarwarsConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = StarwarsConfig {
            slots: 4096,
            ..StarwarsConfig::default()
        };
        let trace = Arc::new(generate_starwars_like(&cfg, &mut StdRng::seed_from_u64(5)));
        let s = TraceScenario {
            trace,
            n: 50.0,
            t_h: 100.0,
            t_m: 0.0,
            p_ce: 1e-2,
            p_q: 1e-2,
            max_samples: 100,
            seed: 6,
        };
        let rep = s.run();
        assert!(rep.pf.samples > 0);
        assert!(rep.mean_flows > 10.0);
    }
}
