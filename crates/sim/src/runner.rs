//! The impulsive and continuous load models of the paper, as
//! [`Scenario`] impls for the [`crate::session`] pipeline.
//!
//! * [`ImpulsiveLoad`] — §3: a burst of flows at `t = 0`, admission from
//!   the initial bandwidths, then (optionally) exponential departures;
//!   measures the overflow probability at caller-chosen times across
//!   replications.
//! * [`ContinuousLoad`] — §4: infinite arrival pressure; the system is
//!   kept filled to the controller's current admissible count, flows
//!   depart with exponential holding times, and the steady-state
//!   overflow probability is sampled per §5.2.
//! * [`PhasedLoad`] — the non-stationary extension: the source model
//!   switches on a schedule.
//!
//! (The finite-arrival-rate Poisson scenario lives in
//! [`crate::arrivals`].)

use crate::controller::AdmissionEngine;
use crate::flows::FlowTable;
use crate::metrics::{OverflowMeter, PfEstimate, StopReason};
use crate::requests::{MAX_RUN_ITEMS, MAX_WORKLOAD_ITEMS};
use crate::session::{
    require_finite, require_non_negative, require_positive, require_step, ConfigError, RepContext,
    Scenario,
};
use crate::telemetry::MetricsSink;
use mbac_core::admission::AdmissionPolicy;
use mbac_core::estimators::snapshot_stats;
use mbac_metrics::MetricsSnapshot;
use mbac_num::rng::exponential;
use mbac_num::RunningStats;
use mbac_traffic::process::SourceModel;
use rand::rngs::StdRng;
use std::cell::RefCell;

// ---------------------------------------------------------------------
// Impulsive load (§3)
// ---------------------------------------------------------------------

/// Configuration of the impulsive-load experiment.
#[derive(Debug, Clone)]
pub struct ImpulsiveConfig {
    /// Link capacity `c`.
    pub capacity: f64,
    /// Number of flows whose initial bandwidths feed the estimator
    /// (the paper uses `n = c/μ`).
    pub estimation_flows: usize,
    /// Mean holding time; `None` = infinite (flows never depart).
    pub mean_holding: Option<f64>,
    /// Times (after 0) at which to record the overflow indicator.
    pub observe_times: Vec<f64>,
    /// Number of independent replications.
    pub replications: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Aggregated results of the impulsive-load experiment.
#[derive(Debug, Clone)]
pub struct ImpulsiveReport {
    /// Distribution of the admitted count `M₀` across replications.
    pub m0: RunningStats,
    /// Per observation time: `(t, overflow count, mean load)`.
    pub observations: Vec<ImpulsiveObservation>,
    /// Number of replications performed.
    pub replications: usize,
}

/// Overflow statistics at one observation time.
#[derive(Debug, Clone, Copy)]
pub struct ImpulsiveObservation {
    /// Observation time.
    pub t: f64,
    /// Number of replications in which `S_t > c`.
    pub overflows: u64,
    /// Aggregate-load statistics across replications.
    pub load: RunningStats,
    /// Flows remaining in the system (mean across replications).
    pub mean_flows: f64,
}

impl ImpulsiveReport {
    /// Overflow probability estimate at observation index `i`.
    pub fn pf_at(&self, i: usize) -> f64 {
        let obs = &self.observations[i];
        obs.overflows as f64 / self.replications as f64
    }
}

/// What one impulsive replication produces; opaque — the session folds
/// these into an [`ImpulsiveReport`] in replication input order.
#[derive(Debug, Clone)]
pub struct ImpulsiveRep {
    m0: f64,
    /// Per observation time: `(load, flows in system)`.
    at: Vec<(f64, usize)>,
}

/// The impulsive-load model (§3) as a [`Scenario`]: per replication,
/// estimate `(μ̂, σ̂)` from the initial bandwidths of
/// `estimation_flows` flows (eqn (7)), admit `⌊M₀⌋` flows per the
/// policy (eqn (6)), then let the system evolve and record the overflow
/// indicator at each observation time.
///
/// The scenario is `Sync` (it borrows the model and policy immutably),
/// so replications fan out across the session's workers.
pub struct ImpulsiveLoad<'a> {
    cfg: ImpulsiveConfig,
    model: &'a dyn SourceModel,
    policy: &'a dyn AdmissionPolicy,
}

impl<'a> ImpulsiveLoad<'a> {
    /// Builds the scenario; observation times are kept sorted.
    pub fn new(
        cfg: &ImpulsiveConfig,
        model: &'a dyn SourceModel,
        policy: &'a dyn AdmissionPolicy,
    ) -> Self {
        let mut cfg = cfg.clone();
        cfg.observe_times.sort_by(f64::total_cmp);
        ImpulsiveLoad { cfg, model, policy }
    }
}

impl Scenario for ImpulsiveLoad<'_> {
    type Rep = ImpulsiveRep;
    type Report = ImpulsiveReport;

    fn validate(&self) -> Result<(), ConfigError> {
        require_positive("capacity", self.cfg.capacity)?;
        if self.cfg.estimation_flows < 2 {
            return Err(ConfigError::TooFewFlows {
                got: self.cfg.estimation_flows,
            });
        }
        if let Some(th) = self.cfg.mean_holding {
            require_positive("mean holding time", th)?;
        }
        // An empty observation list is valid: the report still carries
        // the M₀ distribution (Prop 3.1 studies use exactly that).
        for &t in &self.cfg.observe_times {
            if !t.is_finite() || t < 0.0 {
                return Err(ConfigError::BadObserveTime { value: t });
            }
        }
        if self.cfg.replications == 0 {
            return Err(ConfigError::ZeroReplications);
        }
        // A replication holds its burst and about `c/μ` admitted flows,
        // and the run passes through a burst per replication: bound all
        // of them, or a mistyped count aborts on an allocation or runs
        // for days.
        let too_large = |what, max| Err(ConfigError::WorkloadTooLarge { what, max });
        let (flows, reps) = (
            self.cfg.estimation_flows as u64,
            self.cfg.replications as u64,
        );
        if flows > MAX_WORKLOAD_ITEMS {
            return too_large("estimation flows", MAX_WORKLOAD_ITEMS);
        }
        if reps > MAX_WORKLOAD_ITEMS {
            return too_large("replications", MAX_WORKLOAD_ITEMS);
        }
        if flows * reps > MAX_RUN_ITEMS {
            return too_large("estimation flows over the run", MAX_RUN_ITEMS);
        }
        if self.cfg.capacity / self.model.mean() > MAX_WORKLOAD_ITEMS as f64 {
            return too_large("admitted flows (capacity / mean rate)", MAX_WORKLOAD_ITEMS);
        }
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.replications
    }

    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> ImpulsiveRep {
        let cfg = &self.cfg;
        let mut rng = ctx.rng();

        // Spawn the candidate burst straight into the table's batched
        // kernel and measure its initial bandwidths there.
        let mut table = ctx.table();
        let burst = table.spawn_burst(self.model, cfg.estimation_flows, &mut rng);
        let est = snapshot_stats(burst.rates()).expect("non-empty candidate burst");
        let m0 = self.policy.admissible_count(est, cfg.capacity);
        // An M₀ no run could hold — ∞ from a policy dividing by the
        // μ̂ = 0 of a silent burst, or past the bound `validate` holds
        // `c / μ` to — fails safe to a reject, as a cold start does:
        // saturated to `usize::MAX`, it would admit extras until memory
        // ran out. `m0` is reported as measured.
        let admit = if m0 <= MAX_WORKLOAD_ITEMS as f64 {
            m0.floor().max(0.0) as usize
        } else {
            0
        };

        // One holding draw per admitted flow, in admission order, and
        // one unit-of-work entry: the record the streaming sampler sees
        // at 10⁶-flow scale.
        let mut departs_at = |rng: &mut StdRng| {
            let (t, drew) = match cfg.mean_holding {
                Some(th) => (exponential(rng, th), 1),
                None => (f64::INFINITY, 0),
            };
            if sink.is_enabled() {
                let mut e = sink.entry(0.0);
                e.admitted = 1;
                e.exp_draws = drew;
            }
            t
        };
        // Admit: the measured candidates first (their *measured*
        // bandwidths are the admitted flows' bandwidths — essential for
        // the Y₀ correlation the theory predicts), fresh extras if
        // M₀ > n.
        burst.keep(admit, || departs_at(&mut rng));
        let extras = admit.saturating_sub(cfg.estimation_flows);
        table.admit_run(self.model, extras, &mut rng, &mut departs_at);
        if sink.is_enabled() {
            let mut e = sink.entry(0.0);
            e.admissible = m0;
        }

        // Evolve and observe.
        let at = cfg
            .observe_times
            .iter()
            .map(|&t| {
                let load = table.advance_depart_measure(t, &mut rng, 0.0).sum();
                let flows = table.len();
                if sink.is_enabled() {
                    let mut e = sink.entry(t);
                    e.ticks = 1;
                    e.load = load;
                    e.occupancy = flows as f64;
                }
                (load, flows)
            })
            .collect();
        if sink.is_enabled() {
            let t_last = cfg.observe_times.last().copied().unwrap_or(0.0);
            let mut e = sink.entry(t_last);
            e.departed = table.departed_total();
        }
        ImpulsiveRep { m0, at }
    }

    fn fold(&self, reps: Vec<ImpulsiveRep>) -> ImpulsiveReport {
        let mut m0_stats = RunningStats::new();
        let mut obs: Vec<ImpulsiveObservation> = self
            .cfg
            .observe_times
            .iter()
            .map(|&t| ImpulsiveObservation {
                t,
                overflows: 0,
                load: RunningStats::new(),
                mean_flows: 0.0,
            })
            .collect();
        for outcome in reps {
            m0_stats.push(outcome.m0);
            for (o, &(load, flows)) in obs.iter_mut().zip(&outcome.at) {
                o.load.push(load);
                o.mean_flows += flows as f64 / self.cfg.replications as f64;
                if load > self.cfg.capacity {
                    o.overflows += 1;
                }
            }
        }
        ImpulsiveReport {
            m0: m0_stats,
            observations: obs,
            replications: self.cfg.replications,
        }
    }
}

// ---------------------------------------------------------------------
// Continuous load (§4)
// ---------------------------------------------------------------------

/// Configuration of the continuous-load simulation.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Link capacity `c`.
    pub capacity: f64,
    /// Mean flow holding time `T_h`.
    pub mean_holding: f64,
    /// Measurement/admission tick (should be ≲ `T_c/4`).
    pub tick: f64,
    /// Warm-up period discarded before sampling starts.
    pub warmup: f64,
    /// Spacing between overflow samples (paper: `2·max(T̃_h, T_m, T_c)`).
    pub sample_spacing: f64,
    /// QoS target `p_q`, used by termination criterion (b).
    pub target: f64,
    /// Maximum spaced samples before giving up (budget).
    pub max_samples: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ContinuousConfig {
    /// The paper's sample spacing rule: `2·max(T̃_h, T_m, T_c)`.
    pub fn paper_spacing(t_h_tilde: f64, t_m: f64, t_c: f64) -> f64 {
        2.0 * t_h_tilde.max(t_m).max(t_c)
    }

    /// Checks the timing/capacity fields shared by the continuous-load
    /// scenarios, and bounds the ticks the sample budget's horizon
    /// holds: every tick advances the whole table, as every arrival of a
    /// Poisson load does.
    fn validate(&self) -> Result<(), ConfigError> {
        require_positive("capacity", self.capacity)?;
        require_positive("mean holding time", self.mean_holding)?;
        require_step("tick", self.tick)?;
        require_step("sample spacing", self.sample_spacing)?;
        require_non_negative("warmup", self.warmup)?;
        require_finite("warmup", self.warmup)?;
        if self.ticks() > MAX_WORKLOAD_ITEMS as f64 {
            return Err(ConfigError::WorkloadTooLarge {
                what: "ticks",
                max: MAX_WORKLOAD_ITEMS,
            });
        }
        Ok(())
    }

    /// The ticks of the sample budget's horizon.
    fn ticks(&self) -> f64 {
        (self.warmup + self.max_samples as f64 * self.sample_spacing) / self.tick
    }

    /// Bounds the flows a link fed by sources of rate `mean` holds: the
    /// load keeps about `c/μ` of them in the table, and advances every
    /// one of them each tick of the horizon. A link that cannot carry
    /// one mean flow is refused too: `T̃_h` — and with it the horizon a
    /// caller's sample spacing asks for — grows as `c/μ` shrinks.
    fn check_flows(&self, mean: f64) -> Result<(), ConfigError> {
        let flows = self.capacity / mean;
        if flows.is_nan() || flows < 1.0 {
            return Err(ConfigError::BelowOneFlow {
                capacity: self.capacity,
                mean,
            });
        }
        let too_large = |what, max| Err(ConfigError::WorkloadTooLarge { what, max });
        if flows > MAX_WORKLOAD_ITEMS as f64 {
            return too_large("admitted flows (capacity / mean rate)", MAX_WORKLOAD_ITEMS);
        }
        if flows * self.ticks() > MAX_RUN_ITEMS as f64 {
            return too_large("flow-ticks over the run", MAX_RUN_ITEMS);
        }
        Ok(())
    }
}

/// Results of a continuous-load run.
#[derive(Debug, Clone)]
pub struct ContinuousReport {
    /// The overflow-probability estimate with CI and method.
    pub pf: PfEstimate,
    /// Mean link utilization over the sampled period.
    pub mean_utilization: f64,
    /// Mean number of flows in the system at sample epochs.
    pub mean_flows: f64,
    /// Flows admitted over the whole run.
    pub admitted: u64,
    /// Flows departed over the whole run.
    pub departed: u64,
    /// Total simulated time.
    pub sim_time: f64,
}

/// The continuous-load model (§4) as a [`Scenario`]: at every tick the
/// flow processes advance, departures are applied, the controller
/// observes a snapshot, and the system is topped up to the controller's
/// current admissible count (infinite arrival pressure — the paper's
/// most stringent test). Overflow is sampled at spaced epochs per §5.2
/// until a termination criterion fires or the sample budget is
/// exhausted.
///
/// Each tick takes **one** measurement after advancing and applying
/// departures, folded by the tick kernel; the controller's
/// `observe_moments` and the overflow meter both consume that same fold
/// (the meter through its sum), so measurement and metering can never
/// disagree about the load.
///
/// The scenario borrows the caller's controller mutably, so it is *not*
/// `Sync`: run it with [`SessionBuilder::run_local`] (it is a single
/// replication — nothing is lost by staying on the calling thread).
///
/// [`SessionBuilder::run_local`]: crate::session::SessionBuilder::run_local
pub struct ContinuousLoad<'a> {
    cfg: ContinuousConfig,
    model: &'a dyn SourceModel,
    ctl: RefCell<&'a mut dyn AdmissionEngine>,
}

impl<'a> ContinuousLoad<'a> {
    /// Builds the scenario around the caller's controller.
    pub fn new(
        cfg: &ContinuousConfig,
        model: &'a dyn SourceModel,
        ctl: &'a mut dyn AdmissionEngine,
    ) -> Self {
        ContinuousLoad {
            cfg: cfg.clone(),
            model,
            ctl: RefCell::new(ctl),
        }
    }
}

impl Scenario for ContinuousLoad<'_> {
    type Rep = ContinuousReport;
    type Report = ContinuousReport;

    fn validate(&self) -> Result<(), ConfigError> {
        self.cfg.validate()?;
        self.cfg.check_flows(self.model.mean())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> ContinuousReport {
        let cfg = &self.cfg;
        let mut guard = self.ctl.borrow_mut();
        let mut meters = [OverflowMeter::new(cfg.capacity, cfg.target)];
        let phases = [(0.0, self.model)];
        let run = run_ticks(cfg, &mut **guard, &phases, &mut meters, ctx, sink);
        let [meter] = meters;
        if sink.is_enabled() {
            sink.entry(run.t).departed = run.table.departed_total();
            // Fold the meter's instrument state into the sink's bundle via
            // the caller-visible snapshot path.
            let mut extra = MetricsSnapshot::new();
            meter.export_into("sim.pf", &mut extra);
            sink.attach(extra);
        }

        ContinuousReport {
            pf: meter.finalize(run.stopped),
            mean_utilization: meter.mean_utilization(),
            mean_flows: run.flow_count.mean(),
            admitted: run.table.admitted_total(),
            departed: run.table.departed_total(),
            sim_time: run.t,
        }
    }

    fn fold(&self, mut reps: Vec<ContinuousReport>) -> ContinuousReport {
        reps.pop().expect("exactly one continuous replication")
    }
}

/// Where the continuous tick loop left the run.
struct Ticked {
    /// The last tick's time.
    t: f64,
    table: FlowTable,
    /// The occupancy at every spaced sample.
    flow_count: RunningStats,
    stopped: StopReason,
}

/// The continuous tick loop, on `ctx`'s stream: each tick the flows
/// advance and depart, the controller observes one fold of their rates,
/// and the table is topped up from the model of the phase active then
/// (`phases` is sorted and starts at 0; [`ContinuousLoad`] has one).
/// A spaced sample goes to that phase's meter, before the tick's
/// admissions; the loop stops when that meter's criterion fires or the
/// samples reach `cfg.max_samples`.
fn run_ticks(
    cfg: &ContinuousConfig,
    ctl: &mut dyn AdmissionEngine,
    phases: &[(f64, &dyn SourceModel)],
    meters: &mut [OverflowMeter],
    ctx: &RepContext,
    sink: &mut MetricsSink,
) -> Ticked {
    let mut rng = ctx.rng();
    let mut table = ctx.table();
    let mut flow_count = RunningStats::new();
    let mut prev_mean: Option<f64> = None;

    let mut t = 0.0f64;
    let mut next_sample = cfg.warmup.max(cfg.tick);
    let mut samples = 0u64;
    let stopped;
    let enabled = sink.is_enabled();
    let timing = sink.timing_enabled();
    loop {
        let tick_started = timing.then(std::time::Instant::now);
        t += cfg.tick;
        let phase = phases.iter().rposition(|&(from, _)| t >= from).unwrap_or(0);

        // Measure once: the tick kernel folds the fresh rates into
        // `RateMoments` as it advances them, and the controller and
        // the meter share that fold.
        let mom = table.advance_depart_measure(t, &mut rng, ctl.moment_pivot());
        ctl.observe_moments(t, &mom);
        let load = mom.sum();

        // The tick's unit-of-work entry: filled through the tick,
        // folded exactly once when the guard drops — including on
        // the `break` paths below, which end the tick after the
        // measurement but before admission (matching the old
        // record order).
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

        // Spaced overflow sampling after warm-up (before admissions:
        // a flow admitted this tick enters the measured load next tick).
        if t >= next_sample {
            next_sample += cfg.sample_spacing;
            let meter = &mut meters[phase];
            meter.record(load);
            samples += 1;
            flow_count.push(table.len() as f64);
            if let Some(reason) = meter.should_stop() {
                stopped = reason;
                break;
            }
            if samples >= cfg.max_samples {
                stopped = StopReason::BudgetExhausted;
                break;
            }
        }

        let filled = fill(ctl, &mut table, phases[phase].1, cfg, t, &mut rng);
        if let Some(m) = filled.admissible {
            entry.admissible = m;
        }
        entry.admitted = filled.admitted;
        entry.exp_draws = filled.admitted;
        entry.denied = filled.denied;

        if let Some(started) = tick_started {
            entry.tick_ns = started.elapsed().as_nanos() as f64;
        }
    }
    Ticked {
        t,
        table,
        flow_count,
        stopped,
    }
}

/// What one [`fill`] step did, for the tick's telemetry entry.
struct Filled {
    /// The controller's admissible count (`None` on a cold start).
    admissible: Option<f64>,
    /// Flows admitted.
    admitted: u64,
    /// Flows the admissible count allowed that the ramp cap held back.
    denied: u64,
}

/// The continuous-load fill step: tops `table` up toward the
/// controller's admissible count with one run of flows of `model`, each
/// drawing an exponential holding time and then its initial state from
/// `rng`.
///
/// Ramp cap: at most max(1, 10% of current occupancy) admissions per
/// tick. Signaling is never infinitely fast in practice, and the cap
/// prevents a cold-start estimate built from a handful of flows (σ̂ ≈ 0,
/// noisy μ̂) from instantly over-filling the link by a factor of several
/// — an artifact that would otherwise take ~T_h to drain. The cap still
/// reaches any target occupancy exponentially within ~60 ticks, far
/// inside the warm-up, and steady-state M fluctuations are O(√n), far
/// below 10% of N.
///
/// Cold start: with nothing measured yet, an empty table gets one seed
/// flow.
fn fill(
    ctl: &dyn AdmissionEngine,
    table: &mut FlowTable,
    model: &dyn SourceModel,
    cfg: &ContinuousConfig,
    t: f64,
    rng: &mut StdRng,
) -> Filled {
    let admissible = ctl.admissible_count(cfg.capacity, table.len());
    let (limit, cap) = match admissible {
        Some(m) => (m.floor().max(0.0) as usize, (table.len() / 10).max(1)),
        // The seed flow: one, into an empty table.
        None => (1, 1),
    };
    let admitted = limit.saturating_sub(table.len()).min(cap);
    table.admit_run(model, admitted, rng, |rng| {
        t + exponential(rng, cfg.mean_holding)
    });
    Filled {
        admissible,
        admitted: admitted as u64,
        denied: admissible.map_or(0, |_| limit.saturating_sub(table.len()) as u64),
    }
}

// ---------------------------------------------------------------------
// Non-stationary (phased) continuous load — extension
// ---------------------------------------------------------------------

/// Per-phase results of a [`PhasedLoad`] simulation.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Index into the phase schedule.
    pub phase: usize,
    /// Start time of the phase.
    pub from: f64,
    /// Overflow estimate over the phase's samples.
    pub pf: PfEstimate,
    /// Mean utilization over the phase's samples.
    pub mean_utilization: f64,
}

/// Continuous-load simulation with a *non-stationary* workload: the
/// source model changes at scheduled times, and flows admitted after a
/// switch are spawned from the new model (think: the content mix
/// changes at prime time). Existing flows keep their old statistics
/// until they depart, so the population mix drifts across the critical
/// time-scale — exactly the adaptivity scenario §2 of the paper defers:
/// "the results are valid if the traffic statistics are stationary
/// within the memory time-scale."
///
/// The phase schedule must be sorted by start time and begin at `0.0`.
/// Sampling runs to `cfg.max_samples` total (no early termination — the
/// phases are compared against each other), attributing each spaced
/// sample to the phase active at its epoch.
///
/// Like [`ContinuousLoad`], borrows the controller mutably and must run
/// through [`SessionBuilder::run_local`].
///
/// [`SessionBuilder::run_local`]: crate::session::SessionBuilder::run_local
pub struct PhasedLoad<'a> {
    cfg: ContinuousConfig,
    phases: Vec<(f64, &'a dyn SourceModel)>,
    ctl: RefCell<&'a mut dyn AdmissionEngine>,
}

impl<'a> PhasedLoad<'a> {
    /// Builds the scenario over the given phase schedule.
    pub fn new(
        cfg: &ContinuousConfig,
        phases: &[(f64, &'a dyn SourceModel)],
        ctl: &'a mut dyn AdmissionEngine,
    ) -> Self {
        PhasedLoad {
            cfg: cfg.clone(),
            phases: phases.to_vec(),
            ctl: RefCell::new(ctl),
        }
    }
}

impl Scenario for PhasedLoad<'_> {
    type Rep = Vec<PhaseReport>;
    type Report = Vec<PhaseReport>;

    fn validate(&self) -> Result<(), ConfigError> {
        if self.phases.is_empty() {
            return Err(ConfigError::BadPhases {
                reason: "need at least one phase",
            });
        }
        if self.phases[0].0 != 0.0 {
            return Err(ConfigError::BadPhases {
                reason: "first phase must start at t = 0",
            });
        }
        if !self.phases.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(ConfigError::BadPhases {
                reason: "phases must be sorted by start time",
            });
        }
        self.cfg.validate()?;
        self.phases
            .iter()
            .try_for_each(|(_, model)| self.cfg.check_flows(model.mean()))
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> Vec<PhaseReport> {
        let cfg = &self.cfg;
        let phases = &self.phases;
        let mut guard = self.ctl.borrow_mut();
        // No meter ever stops the run: the phases are compared against
        // each other over the whole sample budget.
        let mut meters: Vec<OverflowMeter> = phases
            .iter()
            .map(|_| OverflowMeter::new(cfg.capacity, cfg.target).with_min_samples(u64::MAX))
            .collect();
        run_ticks(cfg, &mut **guard, phases, &mut meters, ctx, sink);

        phases
            .iter()
            .enumerate()
            .filter(|(i, _)| meters[*i].samples() > 0)
            .map(|(i, &(from, _))| PhaseReport {
                phase: i,
                from,
                pf: meters[i].finalize(StopReason::BudgetExhausted),
                mean_utilization: meters[i].mean_utilization(),
            })
            .collect()
    }

    fn fold(&self, mut reps: Vec<Vec<PhaseReport>>) -> Vec<PhaseReport> {
        reps.pop().expect("exactly one phased replication")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MbacController;
    use crate::session::SessionBuilder;
    use mbac_core::admission::{CertaintyEquivalent, PerfectKnowledge};
    use mbac_core::estimators::{Estimate, FilteredEstimator, MemorylessEstimator};
    use mbac_core::params::{FlowStats, QosTarget};
    use mbac_traffic::process::Unbatched;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
    use mbac_traffic::trace::{Trace, TraceModel};
    use std::sync::Arc;

    fn model() -> RcbrModel {
        RcbrModel::new(RcbrConfig::paper_default(1.0))
    }

    fn impulsive(
        cfg: &ImpulsiveConfig,
        m: &dyn SourceModel,
        p: &dyn AdmissionPolicy,
    ) -> ImpulsiveReport {
        SessionBuilder::new()
            .run(&ImpulsiveLoad::new(cfg, m, p))
            .unwrap()
    }

    fn continuous(
        cfg: &ContinuousConfig,
        m: &dyn SourceModel,
        ctl: &mut dyn AdmissionEngine,
    ) -> ContinuousReport {
        SessionBuilder::new()
            .run_local(&ContinuousLoad::new(cfg, m, ctl))
            .unwrap()
    }

    #[test]
    fn impulsive_with_perfect_knowledge_meets_target() {
        // Prop 3.3 baseline: the perfect-knowledge controller admits m*
        // and the steady-state overflow probability is ≈ p_q.
        let p_q = 0.05; // large target keeps the test cheap
        let m = model();
        let pk = PerfectKnowledge::new(FlowStats::from_mean_sd(1.0, 0.3), QosTarget::new(p_q));
        let cfg = ImpulsiveConfig {
            capacity: 400.0,
            estimation_flows: 400,
            mean_holding: None,
            observe_times: vec![50.0], // ≫ T_c = 1: steady state
            replications: 3000,
            seed: 42,
        };
        let rep = impulsive(&cfg, &m, &pk);
        let pf = rep.pf_at(0);
        assert!(
            (pf - p_q).abs() < 0.015,
            "perfect knowledge: pf {pf} should be ≈ {p_q}"
        );
        // M₀ is deterministic for perfect knowledge.
        assert!(rep.m0.std_dev() < 1e-9);
    }

    /// The fluid limit `c / μ̂`, with nothing guarding `μ̂ = 0`.
    struct Fluid;

    impl AdmissionPolicy for Fluid {
        fn admissible_count(&self, est: Estimate, capacity: f64) -> f64 {
            capacity / est.mean
        }
    }

    /// A burst that is silent when measured gives `μ̂ = 0`, and the fluid
    /// limit `M₀ = ∞`: the replication rejects at once, admitting none
    /// of its candidates and no extras, and reports `M₀` as measured.
    #[test]
    fn a_silent_burst_fails_safe() {
        // One slot in a thousand carries traffic, so a burst of eight
        // flows at independent phases is silent on this seed.
        let mut rates = vec![0.0; 1000];
        rates[0] = 10.0;
        let m = TraceModel::new(Arc::new(Trace::new(rates, 1.0)));
        let cfg = ImpulsiveConfig {
            capacity: 50.0,
            estimation_flows: 8,
            mean_holding: None,
            observe_times: vec![1.0],
            replications: 1,
            seed: 3,
        };
        let rep = impulsive(&cfg, &m, &Fluid);
        assert_eq!(rep.m0.mean(), f64::INFINITY, "the burst must be silent");
        assert_eq!(rep.observations[0].mean_flows, 0.0);
    }

    #[test]
    fn impulsive_certainty_equivalent_shows_sqrt2_penalty() {
        // The memoryless MBAC overshoots the target per Prop. 3.3:
        // p_f ≈ Q(α_q/√2) > p_q.
        let p_q = 0.02;
        let m = model();
        let ce = CertaintyEquivalent::from_probability(p_q);
        let cfg = ImpulsiveConfig {
            capacity: 400.0,
            estimation_flows: 400,
            mean_holding: None,
            observe_times: vec![50.0],
            replications: 4000,
            seed: 7,
        };
        let rep = impulsive(&cfg, &m, &ce);
        let pf = rep.pf_at(0);
        let predicted = mbac_num::q(mbac_num::inv_q(p_q) / std::f64::consts::SQRT_2);
        assert!(
            pf > 1.5 * p_q,
            "penalty must be visible: pf {pf} vs target {p_q}"
        );
        assert!(
            (pf - predicted).abs() < 0.03,
            "pf {pf} should be near the √2 prediction {predicted}"
        );
        // And M₀ fluctuates like (σ/μ)√n (Prop. 3.1): sd ≈ 0.3·20 = 6.
        assert!(
            (rep.m0.std_dev() - 6.0).abs() < 1.0,
            "M₀ sd = {}",
            rep.m0.std_dev()
        );
    }

    #[test]
    fn impulsive_departures_drain_the_system() {
        let m = model();
        let pk = PerfectKnowledge::new(FlowStats::from_mean_sd(1.0, 0.3), QosTarget::new(0.05));
        let cfg = ImpulsiveConfig {
            capacity: 100.0,
            estimation_flows: 100,
            mean_holding: Some(10.0),
            observe_times: vec![5.0, 10.0, 20.0, 40.0],
            replications: 200,
            seed: 11,
        };
        let rep = impulsive(&cfg, &m, &pk);
        // Mean flows must decay ≈ e^{-t/T_h}.
        let m0 = rep.m0.mean();
        for o in &rep.observations {
            let want = m0 * (-o.t / 10.0).exp();
            assert!(
                (o.mean_flows - want).abs() < 0.15 * m0,
                "t={}: flows {} vs expected {want}",
                o.t,
                o.mean_flows
            );
        }
        // Overflow probability at late times is ~0 (system drained).
        assert_eq!(rep.observations.last().unwrap().overflows, 0);
    }

    #[test]
    fn continuous_run_reaches_high_utilization() {
        let m = model();
        let mut ctl = MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-2)),
        );
        let cfg = ContinuousConfig {
            capacity: 100.0,
            mean_holding: 100.0,
            tick: 0.25,
            warmup: 200.0,
            sample_spacing: 20.0,
            target: 1e-2,
            max_samples: 300,
            seed: 13,
        };
        let rep = continuous(&cfg, &m, &mut ctl);
        assert!(
            rep.mean_utilization > 0.8 && rep.mean_utilization <= 1.05,
            "utilization {}",
            rep.mean_utilization
        );
        assert!(
            rep.mean_flows > 80.0 && rep.mean_flows < 105.0,
            "flows {}",
            rep.mean_flows
        );
        assert!(rep.admitted > rep.departed);
        assert!(rep.pf.samples > 0);
    }

    #[test]
    fn continuous_memory_improves_overflow() {
        // The paper's central claim, in miniature: with everything else
        // fixed, an estimator with T_m ≈ T̃_h beats the memoryless one.
        let m = model();
        let run = |t_m: f64, seed: u64| {
            let mut ctl = MbacController::new(
                Box::new(FilteredEstimator::new(t_m)),
                Box::new(CertaintyEquivalent::from_probability(1e-2)),
            );
            let cfg = ContinuousConfig {
                capacity: 100.0,
                mean_holding: 100.0, // T̃_h = 10
                tick: 0.25,
                warmup: 300.0,
                sample_spacing: 20.0,
                target: 1e-2,
                max_samples: 1500,
                seed,
            };
            continuous(&cfg, &m, &mut ctl).pf.value
        };
        let memoryless = (run(0.0, 17) + run(0.0, 18) + run(0.0, 19)) / 3.0;
        let with_memory = (run(10.0, 17) + run(10.0, 18) + run(10.0, 19)) / 3.0;
        assert!(
            with_memory < memoryless,
            "memory must reduce pf: {with_memory} vs {memoryless}"
        );
    }

    #[test]
    fn continuous_conservation_invariant() {
        let m = model();
        let mut ctl = MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-2)),
        );
        let cfg = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 10.0,
            sample_spacing: 10.0,
            target: 1e-2,
            max_samples: 100,
            seed: 23,
        };
        let rep = continuous(&cfg, &m, &mut ctl);
        // admitted − departed = flows still in the system ≥ 0.
        assert!(rep.admitted >= rep.departed);
        let in_system = rep.admitted - rep.departed;
        assert!(in_system > 0 && in_system < 80, "in-system {in_system}");
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let m = model();
        let mk = || {
            MbacController::new(
                Box::new(FilteredEstimator::new(5.0)),
                Box::new(CertaintyEquivalent::from_probability(1e-2)),
            )
        };
        let cfg = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 10.0,
            sample_spacing: 10.0,
            target: 1e-2,
            max_samples: 50,
            seed: 29,
        };
        let a = continuous(&cfg, &m, &mut mk());
        let b = continuous(&cfg, &m, &mut mk());
        assert_eq!(a.pf.value, b.pf.value);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.mean_utilization, b.mean_utilization);
    }

    #[test]
    fn impulsive_is_deterministic_for_any_worker_count() {
        let m = model();
        let ce = CertaintyEquivalent::from_probability(0.05);
        let cfg = ImpulsiveConfig {
            capacity: 60.0,
            estimation_flows: 60,
            mean_holding: Some(20.0),
            observe_times: vec![1.0, 5.0, 25.0],
            replications: 64,
            seed: 99,
        };
        let scenario = ImpulsiveLoad::new(&cfg, &m, &ce);
        let reference = SessionBuilder::new().workers(1).run(&scenario).unwrap();
        for workers in [2, 3, 4, 8] {
            let rep = SessionBuilder::new()
                .workers(workers)
                .run(&scenario)
                .unwrap();
            assert_eq!(rep.m0.mean(), reference.m0.mean(), "{workers} workers");
            assert_eq!(rep.m0.variance(), reference.m0.variance());
            for (a, b) in rep.observations.iter().zip(&reference.observations) {
                assert_eq!(a.overflows, b.overflows, "{workers} workers at t={}", a.t);
                assert_eq!(a.load.mean(), b.load.mean());
                assert_eq!(a.load.variance(), b.load.variance());
                assert_eq!(a.mean_flows, b.mean_flows);
            }
        }
    }

    #[test]
    fn continuous_batched_and_boxed_engines_are_bit_equal() {
        let m = model();
        let mk = || {
            MbacController::new(
                Box::new(FilteredEstimator::new(5.0)),
                Box::new(CertaintyEquivalent::from_probability(1e-2)),
            )
        };
        let cfg = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 10.0,
            sample_spacing: 10.0,
            target: 1e-2,
            max_samples: 50,
            seed: 31,
        };
        let run_on = |model: &dyn SourceModel| {
            let mut ctl = mk();
            SessionBuilder::new()
                .run_local(&ContinuousLoad::new(&cfg, model, &mut ctl))
                .unwrap()
        };
        let batched = run_on(&m);
        let boxed = run_on(&Unbatched(&m));
        assert_eq!(batched.pf.value, boxed.pf.value);
        assert_eq!(batched.mean_utilization, boxed.mean_utilization);
        assert_eq!(batched.mean_flows, boxed.mean_flows);
        assert_eq!(batched.admitted, boxed.admitted);
        assert_eq!(batched.departed, boxed.departed);
    }

    #[test]
    fn paper_spacing_rule() {
        assert_eq!(ContinuousConfig::paper_spacing(10.0, 3.0, 1.0), 20.0);
        assert_eq!(ContinuousConfig::paper_spacing(1.0, 30.0, 1.0), 60.0);
        assert_eq!(ContinuousConfig::paper_spacing(1.0, 3.0, 50.0), 100.0);
    }

    #[test]
    fn impulsive_validation_rejects_bad_configs() {
        let m = model();
        let ce = CertaintyEquivalent::from_probability(0.05);
        let base = ImpulsiveConfig {
            capacity: 10.0,
            estimation_flows: 10,
            mean_holding: None,
            observe_times: vec![1.0],
            replications: 2,
            seed: 0,
        };
        let check = |cfg: &ImpulsiveConfig| {
            SessionBuilder::new()
                .run(&ImpulsiveLoad::new(cfg, &m, &ce))
                .err()
        };
        let mut cfg = base.clone();
        cfg.capacity = 0.0;
        assert!(matches!(
            check(&cfg),
            Some(ConfigError::NonPositive {
                field: "capacity",
                ..
            })
        ));
        let mut cfg = base.clone();
        cfg.estimation_flows = 1;
        assert_eq!(check(&cfg), Some(ConfigError::TooFewFlows { got: 1 }));
        let mut cfg = base.clone();
        cfg.observe_times.clear();
        assert!(check(&cfg).is_none(), "M0-only runs are valid");
        let mut cfg = base.clone();
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            cfg.observe_times = vec![1.0, bad];
            assert!(matches!(
                check(&cfg),
                Some(ConfigError::BadObserveTime { .. })
            ));
        }
        let mut cfg = base.clone();
        cfg.replications = 0;
        assert_eq!(check(&cfg), Some(ConfigError::ZeroReplications));
        assert!(check(&base).is_none());
    }

    /// Oversized impulsive loads are refused before a replication runs:
    /// a burst or a replication count past 2²⁸ (an aborting allocation,
    /// or a burst spawned for ever), their product past 2⁴⁰ (days of
    /// work), and a capacity admitting more than 2²⁸ flows of the
    /// model's mean rate. Each returns at once; the bounds themselves run.
    #[test]
    fn impulsive_validation_bounds_oversized_loads() {
        let m = model();
        let ce = CertaintyEquivalent::from_probability(0.05);
        let base = ImpulsiveConfig {
            capacity: 10.0,
            estimation_flows: 10,
            mean_holding: None,
            observe_times: vec![1.0],
            replications: 1,
            seed: 0,
        };
        let validate = |cfg: &ImpulsiveConfig| ImpulsiveLoad::new(cfg, &m, &ce).validate();
        let max = MAX_WORKLOAD_ITEMS as usize;
        let too_large = |what, max| Err(ConfigError::WorkloadTooLarge { what, max });
        let cases = [
            (
                ImpulsiveConfig {
                    estimation_flows: 99_999_999_999,
                    ..base.clone()
                },
                too_large("estimation flows", MAX_WORKLOAD_ITEMS),
            ),
            (
                ImpulsiveConfig {
                    estimation_flows: max,
                    ..base.clone()
                },
                Ok(()),
            ),
            (
                ImpulsiveConfig {
                    replications: 99_999_999_999,
                    ..base.clone()
                },
                too_large("replications", MAX_WORKLOAD_ITEMS),
            ),
            (
                ImpulsiveConfig {
                    estimation_flows: 1_000_000,
                    replications: 100_000_000,
                    ..base.clone()
                },
                too_large("estimation flows over the run", MAX_RUN_ITEMS),
            ),
            (
                ImpulsiveConfig {
                    estimation_flows: 1 << 12,
                    replications: max,
                    ..base.clone()
                },
                Ok(()),
            ),
            (
                ImpulsiveConfig {
                    capacity: 1e15,
                    ..base.clone()
                },
                too_large("admitted flows (capacity / mean rate)", MAX_WORKLOAD_ITEMS),
            ),
            (
                ImpulsiveConfig {
                    capacity: MAX_WORKLOAD_ITEMS as f64,
                    ..base.clone()
                },
                Ok(()),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(validate(&cfg), want, "{cfg:?}");
        }
    }

    #[test]
    fn continuous_validation_rejects_bad_configs() {
        let m = model();
        let cfg = ContinuousConfig {
            capacity: -1.0,
            mean_holding: 10.0,
            tick: 0.5,
            warmup: 1.0,
            sample_spacing: 5.0,
            target: 1e-2,
            max_samples: 10,
            seed: 0,
        };
        let mut ctl = MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-2)),
        );
        let err = SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&cfg, &m, &mut ctl))
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NonPositive {
                field: "capacity",
                ..
            }
        ));
        // Every time step that feeds `advance_to` must be finite; an
        // infinite holding time (flows never depart) stays legal.
        let good = ContinuousConfig {
            capacity: 50.0,
            mean_holding: f64::INFINITY,
            ..cfg
        };
        assert_eq!(good.validate(), Ok(()));
        let inf = f64::INFINITY;
        for (field, bad) in [
            ("tick", ContinuousConfig { tick: inf, ..good }),
            (
                "warmup",
                ContinuousConfig {
                    warmup: inf,
                    ..good
                },
            ),
            (
                "sample spacing",
                ContinuousConfig {
                    sample_spacing: inf,
                    ..good
                },
            ),
        ] {
            assert_eq!(
                bad.validate(),
                Err(ConfigError::NotFinite { field, value: inf })
            );
        }
    }

    /// The sample budget's horizon bounds the ticks, for both loads
    /// built on a `ContinuousConfig`: a derived warm-up, spacing or
    /// budget far past it is rejected before a tick runs.
    #[test]
    fn validation_bounds_the_tick_horizon() {
        let m = model();
        let good = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 10.0,
            sample_spacing: 10.0,
            target: 1e-2,
            max_samples: 10,
            seed: 0,
        };
        let too_many = Err(ConfigError::WorkloadTooLarge {
            what: "ticks",
            max: MAX_WORKLOAD_ITEMS,
        });
        // (10 + 10 · 10) / 0.5 = 220 ticks at the good config; the bound
        // sits between these warm-ups.
        let max = MAX_WORKLOAD_ITEMS as f64;
        let warmup = |w: f64| ContinuousConfig {
            warmup: w,
            ..good.clone()
        };
        assert_eq!(warmup(1.01 * 0.5 * max).validate(), too_many);
        assert_eq!(warmup(0.99 * 0.5 * max - 100.0).validate(), Ok(()));
        for bad in [
            warmup(1e300),
            ContinuousConfig {
                sample_spacing: 1e300,
                ..good.clone()
            },
            ContinuousConfig {
                max_samples: u64::MAX,
                ..good.clone()
            },
            ContinuousConfig {
                tick: 1e-300,
                ..good.clone()
            },
        ] {
            assert_eq!(bad.validate(), too_many, "{bad:?}");
            let mut ctl = MbacController::new(
                Box::new(MemorylessEstimator::new()),
                Box::new(CertaintyEquivalent::from_probability(1e-2)),
            );
            let phases: [(f64, &dyn SourceModel); 1] = [(0.0, &m)];
            let phased = SessionBuilder::new()
                .run_local(&PhasedLoad::new(&bad, &phases, &mut ctl))
                .map(|_| ());
            assert_eq!(phased, too_many);
            let continuous = SessionBuilder::new()
                .run_local(&ContinuousLoad::new(&bad, &m, &mut ctl))
                .map(|_| ());
            assert_eq!(continuous, too_many);
        }
    }

    /// Both loads built on a `ContinuousConfig` bound the flows they
    /// hold, `c/μ`, and those flows over the horizon's ticks, and refuse
    /// a link that cannot carry one mean flow. Before these bounds,
    /// `c = 1e9` ran the host out of memory, `c = 1e11` and `1e308`
    /// never finished, and `c/μ = 1e-9` ran 1.3·10⁸ empty ticks.
    #[test]
    fn validation_bounds_the_flows() {
        let m = model();
        let good = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 10.0,
            sample_spacing: 10.0,
            target: 1e-2,
            max_samples: 10,
            seed: 0,
        };
        let mut ctl = MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-2)),
        );
        // What `ContinuousLoad` says of `cfg`; `PhasedLoad` must agree.
        let mut validate = |cfg: &ContinuousConfig, m: &dyn SourceModel| {
            let verdict = ContinuousLoad::new(cfg, m, &mut ctl).validate();
            let phases = [(0.0, m)];
            assert_eq!(PhasedLoad::new(cfg, &phases, &mut ctl).validate(), verdict);
            verdict
        };
        let with = |capacity: f64, warmup: f64| ContinuousConfig {
            capacity,
            warmup,
            ..good.clone()
        };
        let flows = Err(ConfigError::WorkloadTooLarge {
            what: "admitted flows (capacity / mean rate)",
            max: MAX_WORKLOAD_ITEMS,
        });
        let flow_ticks = Err(ConfigError::WorkloadTooLarge {
            what: "flow-ticks over the run",
            max: MAX_RUN_ITEMS,
        });
        let max = MAX_WORKLOAD_ITEMS as f64;
        assert_eq!(validate(&good, &m), Ok(()));
        assert_eq!(validate(&with(1.0, 10.0), &m), Ok(()));
        assert_eq!(validate(&with(0.99 * max, 10.0), &m), Ok(()));
        for capacity in [1.01 * max, 1e9, 1e11, 1e308] {
            assert_eq!(validate(&with(capacity, 10.0), &m), flows, "{capacity}");
        }
        // 10⁶ flows over 4·10⁵ and 4·10⁶ ticks, about 2⁴⁰ between them.
        assert_eq!(validate(&with(1e6, 2e5), &m), Ok(()));
        assert_eq!(validate(&with(1e6, 2e6), &m), flow_ticks);
        for capacity in [0.99, 1e-9] {
            assert_eq!(
                validate(&with(capacity, 10.0), &m),
                Err(ConfigError::BelowOneFlow {
                    capacity,
                    mean: 1.0
                })
            );
        }
        // A phase schedule is held to the bounds in every phase.
        let heavy = RcbrModel::new(RcbrConfig {
            mean: 100.0,
            std_dev: 30.0,
            ..RcbrConfig::paper_default(1.0)
        });
        let phases: [(f64, &dyn SourceModel); 2] = [(0.0, &m), (50.0, &heavy)];
        assert_eq!(
            PhasedLoad::new(&good, &phases, &mut ctl).validate(),
            Err(ConfigError::BelowOneFlow {
                capacity: 50.0,
                mean: 100.0
            })
        );
    }

    #[test]
    fn phased_validation_rejects_bad_schedules() {
        let m = model();
        let cfg = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 10.0,
            sample_spacing: 10.0,
            target: 1e-2,
            max_samples: 10,
            seed: 0,
        };
        let mut ctl = MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-2)),
        );
        let phases: [(f64, &dyn SourceModel); 2] = [(1.0, &m), (2.0, &m)];
        let err = SessionBuilder::new()
            .run_local(&PhasedLoad::new(&cfg, &phases, &mut ctl))
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadPhases { .. }));
    }

    /// A two-phase run, every bit of its reports: each phase's index,
    /// start, overflow estimate (value, interval, method, stop reason,
    /// samples, overflows) and utilisation, hashed (FNV-1a over their
    /// `Debug` text, which prints each f64 shortest-round-trip). The
    /// second phase doubles the flows' correlation time-scale and
    /// variability. A change to the continuous tick loop must pass it
    /// unchanged.
    #[test]
    fn phased_run_bits_are_pinned() {
        let calm = model();
        let bursty = RcbrModel::new(RcbrConfig {
            std_dev: 0.6,
            ..RcbrConfig::paper_default(2.0)
        });
        let cfg = ContinuousConfig {
            capacity: 50.0,
            mean_holding: 20.0,
            tick: 0.5,
            warmup: 20.0,
            sample_spacing: 2.0,
            target: 1e-2,
            max_samples: 400,
            seed: 0x9a5e,
        };
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(0.5)),
            Box::new(CertaintyEquivalent::from_probability(5e-2)),
        );
        let phases: [(f64, &dyn SourceModel); 2] = [(0.0, &calm), (400.0, &bursty)];
        let reports = SessionBuilder::new()
            .run_local(&PhasedLoad::new(&cfg, &phases, &mut ctl))
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports.iter().map(|r| r.pf.samples).sum::<u64>(), 400);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{reports:?}").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(h, 0x65f8_87fd_d832_e233, "{h:#018x}: {reports:?}");
    }
}
