//! The composable Scenario/Session pipeline: one orchestration layer
//! for every load model.
//!
//! A [`Scenario`] describes **one replication** of a simulation
//! (setup → evolve → observe) plus how per-replication outcomes fold
//! into a report. A session — a [`SessionBuilder`] —
//! owns everything that used to be re-implemented per harness:
//!
//! * worker fan-out over replications ([`mbac_num::parallel`]),
//! * per-replication RNG stream derivation ([`rep_seed`], a SplitMix64
//!   mix of `(seed, rep)`),
//! * deterministic input-order merging of outcomes and metric
//!   snapshots,
//! * optional [`MetricsSink`] collection with the zero-cost disabled
//!   default,
//! * typed configuration validation ([`ConfigError`] instead of
//!   panicking `assert!`s).
//!
//! The three load models of the paper are `Scenario` impls —
//! [`crate::runner::ImpulsiveLoad`], [`crate::runner::ContinuousLoad`],
//! [`crate::arrivals::PoissonLoad`] — and new scenario types (trace
//! replay, multi-link, …) plug in without new `run_*` entry points.
//!
//! # Determinism contract
//!
//! For a fixed builder seed the session derives replication `rep`'s RNG
//! stream as `rep_seed(seed, rep)` and merges outcomes in replication
//! input order, so reports and merged metric snapshots are
//! **bit-identical for any worker count** — parallelism is an
//! implementation detail, never a change in scientific results. So is
//! a model's batched kernel: a flow table runs a model and the same
//! model unbatched ([`mbac_traffic::process::Unbatched`]) to the same
//! bits. [`SessionBuilder::run`] (parallel) and
//! [`SessionBuilder::run_local`] (sequential, for scenarios that borrow
//! external mutable state) follow the same derivation and merge order
//! and therefore agree bit-for-bit.
//!
//! # Writing a new scenario
//!
//! ```
//! use mbac_sim::{ConfigError, MetricsSink, RepContext, Scenario, SessionBuilder};
//! use rand::Rng;
//!
//! /// Estimate the mean of `Uniform(0, width)` by Monte Carlo.
//! struct UniformMean {
//!     width: f64,
//!     draws_per_rep: usize,
//!     replications: usize,
//! }
//!
//! impl Scenario for UniformMean {
//!     type Rep = f64;
//!     type Report = f64;
//!
//!     fn validate(&self) -> Result<(), ConfigError> {
//!         if !(self.width > 0.0) {
//!             return Err(ConfigError::NonPositive { field: "width", value: self.width });
//!         }
//!         Ok(())
//!     }
//!
//!     fn replications(&self) -> usize {
//!         self.replications
//!     }
//!
//!     fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> f64 {
//!         let mut rng = ctx.rng(); // stream derived from (seed, rep)
//!         (0..self.draws_per_rep)
//!             .map(|_| rng.gen::<f64>() * self.width)
//!             .sum::<f64>()
//!             / self.draws_per_rep as f64
//!     }
//!
//!     fn fold(&self, reps: Vec<f64>) -> f64 {
//!         reps.iter().sum::<f64>() / reps.len() as f64
//!     }
//! }
//!
//! let scenario = UniformMean { width: 2.0, draws_per_rep: 500, replications: 64 };
//! let mean = SessionBuilder::new().seed(7).run(&scenario).unwrap();
//! assert!((mean - 1.0).abs() < 0.05);
//! ```

use crate::flows::FlowTable;
use crate::telemetry::MetricsSink;
use mbac_metrics::{splitmix64, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Typed configuration errors
// ---------------------------------------------------------------------

/// A rejected simulation configuration.
///
/// Every harness used to `assert!` on user-supplied parameters; the
/// session layer validates instead and returns one of these, which the
/// CLI renders as a friendly message (exit code 1, no panic).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A field that must be strictly positive was zero, negative or NaN.
    NonPositive {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A field that must be non-negative was negative or NaN.
    Negative {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Fewer than two estimation flows: a variance needs two samples.
    TooFewFlows {
        /// The rejected flow count.
        got: usize,
    },
    /// An impulsive scenario with no observation times records nothing.
    EmptyObserveTimes,
    /// An observation time was negative, NaN or infinite.
    BadObserveTime {
        /// The rejected value.
        value: f64,
    },
    /// A time step that must be finite was not: the sources' catch-up
    /// loops would never reach it.
    NotFinite {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Zero replications requested.
    ZeroReplications,
    /// Zero workers requested.
    ZeroWorkers,
    /// A phase schedule that is empty, unsorted, or does not start at 0.
    BadPhases {
        /// What is wrong with the schedule.
        reason: &'static str,
    },
    /// A malformed topology (routed scenarios re-validate the
    /// [`mbac_core::topology::Topology`] they were handed).
    Topology(mbac_core::topology::TopologyError),
    /// A continuous load whose link cannot carry one flow of the
    /// sources' mean rate (`capacity / mean < 1`, or NaN): its flow
    /// count is below one, and `T̃_h` — with the sample horizon — grows
    /// without bound as it shrinks.
    BelowOneFlow {
        /// The link capacity.
        capacity: f64,
        /// The sources' mean rate.
        mean: f64,
    },
    /// A request-stream workload that would hold more than
    /// [`crate::requests::MAX_WORKLOAD_ITEMS`] of something it keeps in
    /// memory for the whole replay, a Poisson load expecting more
    /// arrivals than that over its sample budget, or a replay whose one
    /// tick holds more events than its window may.
    WorkloadTooLarge {
        /// What there would be too many of.
        what: &'static str,
        /// The limit: [`crate::requests::MAX_WORKLOAD_ITEMS`], or the
        /// replay's window size.
        max: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative, got {value}")
            }
            ConfigError::TooFewFlows { got } => write!(
                f,
                "at least 2 estimation flows are needed to estimate a variance, got {got}"
            ),
            ConfigError::EmptyObserveTimes => {
                write!(
                    f,
                    "observe times must not be empty: nothing would be recorded"
                )
            }
            ConfigError::BadObserveTime { value } => {
                write!(
                    f,
                    "observe times must be finite and non-negative, got {value}"
                )
            }
            ConfigError::NotFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            ConfigError::ZeroReplications => write!(f, "replications must be at least 1"),
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::BadPhases { reason } => write!(f, "invalid phase schedule: {reason}"),
            ConfigError::Topology(e) => write!(f, "invalid topology: {e}"),
            ConfigError::WorkloadTooLarge { what, max } => {
                write!(f, "the workload would hold more than {max} {what}")
            }
            ConfigError::BelowOneFlow { capacity, mean } => write!(
                f,
                "capacity {capacity} cannot carry one flow of mean rate {mean} \
                 (capacity / mean must be at least 1)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<mbac_core::topology::TopologyError> for ConfigError {
    fn from(e: mbac_core::topology::TopologyError) -> Self {
        ConfigError::Topology(e)
    }
}

/// Checks that `value` is strictly positive (rejects NaN).
pub(crate) fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositive { field, value })
    }
}

/// Checks that `value` is non-negative (rejects NaN).
pub(crate) fn require_non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::Negative { field, value })
    }
}

/// Checks that a time step handed to `advance_to` is strictly positive
/// and finite.
pub(crate) fn require_step(field: &'static str, value: f64) -> Result<(), ConfigError> {
    require_positive(field, value)?;
    require_finite(field, value)
}

/// Checks that `value` is finite.
pub(crate) fn require_finite(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NotFinite { field, value })
    }
}

// ---------------------------------------------------------------------
// Per-replication RNG stream derivation
// ---------------------------------------------------------------------

/// Derives replication `rep`'s RNG seed from the session seed.
///
/// The naive `seed ^ rep` collides across nearby seeds — `(seed=2,
/// rep=1)` and `(seed=3, rep=0)` share a stream, so two experiments run
/// at adjacent seeds silently reuse replications. Passing both inputs
/// through SplitMix64 finalizers decorrelates the streams: `rep` is
/// avalanched before it touches `seed`, and the combined word is
/// avalanched again, so low-bit structure in either input cannot
/// produce related streams.
#[inline]
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    splitmix64(seed ^ splitmix64(rep))
}

/// Everything one replication needs from the session: its index and
/// its derived RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct RepContext {
    /// Replication index within the session, `0..replications`.
    pub rep: u64,
    /// The derived RNG seed for this replication ([`rep_seed`]).
    pub seed: u64,
}

impl RepContext {
    /// The context a session seeded `seed` hands replication `rep`.
    pub(crate) fn new(seed: u64, rep: u64) -> Self {
        let seed = rep_seed(seed, rep);
        RepContext { rep, seed }
    }

    /// A fresh RNG on this replication's stream.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// An empty flow table.
    pub fn table(&self) -> FlowTable {
        FlowTable::new()
    }
}

// ---------------------------------------------------------------------
// The Scenario trait
// ---------------------------------------------------------------------

/// One replication of a simulation experiment, plus how replications
/// fold into a report.
///
/// Implementations hold the experiment's configuration and borrowed
/// collaborators (source model, admission policy/engine). The session
/// calls [`validate`](Scenario::validate) exactly once before any work,
/// then [`run_rep`](Scenario::run_rep) once per replication (possibly
/// concurrently — see [`SessionBuilder::run`] vs
/// [`SessionBuilder::run_local`]), then
/// [`fold`](Scenario::fold) with the outcomes in replication input
/// order.
pub trait Scenario {
    /// What one replication produces.
    type Rep: Send;
    /// The merged result across replications.
    type Report;

    /// Checks the configuration, returning the first problem found.
    fn validate(&self) -> Result<(), ConfigError> {
        Ok(())
    }

    /// The scenario's intrinsic base seed, used when the builder does
    /// not override it.
    fn seed(&self) -> u64 {
        0
    }

    /// Number of independent replications (default: a single run).
    fn replications(&self) -> usize {
        1
    }

    /// Runs one replication on its derived RNG stream, recording
    /// telemetry into `sink` (disabled unless the session enables
    /// collection).
    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> Self::Rep;

    /// Folds per-replication outcomes — always in replication input
    /// order — into the report.
    fn fold(&self, reps: Vec<Self::Rep>) -> Self::Report;
}

// ---------------------------------------------------------------------
// Session driver
// ---------------------------------------------------------------------

/// Metrics collection mode of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No collection; every record site costs one `Option` branch.
    #[default]
    Disabled,
    /// Collect the full instrument bundle (deterministic snapshots).
    Enabled,
    /// Collect including wall-clock timings (machine-dependent
    /// snapshots; see [`crate::telemetry::SimMetrics::with_timing`]).
    EnabledWithTiming,
    /// Collect like [`MetricsMode::Enabled`] *and* emit through the
    /// session's bounded streaming handle ([`SessionBuilder::stream`]):
    /// sampled raw entries plus cumulative interval flushes per
    /// replication. Aggregation is unchanged — snapshots stay
    /// bit-identical to `Enabled` — only the emission path differs.
    /// Without an attached handle this degrades to `Enabled`.
    Streaming,
}

/// The simulation driver: seed, workers and metrics mode, set
/// fluently, then [`SessionBuilder::run`] and its siblings. `capacity`
/// and the other scientific parameters stay in the scenario's own
/// config — the builder only carries the orchestration knobs.
///
/// ```
/// use mbac_sim::{MetricsMode, SessionBuilder};
/// let session = SessionBuilder::new()
///     .seed(42)
///     .workers(4)
///     .metrics(MetricsMode::Enabled);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    seed: Option<u64>,
    workers: Option<usize>,
    metrics: MetricsMode,
    stream: Option<mbac_metrics::StreamHandle>,
}

impl SessionBuilder {
    /// A builder with the defaults: the scenario's intrinsic seed, all
    /// available workers, metrics off.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Overrides the scenario's intrinsic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Worker-thread count for parallel replication fan-out, and for the
    /// lanes of any flow table larger than one lane (default:
    /// [`mbac_num::parallel::default_workers`]). The report is
    /// bit-identical for any count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Metrics collection mode (default: [`MetricsMode::Disabled`]).
    pub fn metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics = mode;
        self
    }

    /// Attaches a streaming emission handle (see
    /// [`mbac_metrics::StreamSink::handle`]) and selects
    /// [`MetricsMode::Streaming`]. Each replication becomes one
    /// producer stream, keyed by its index, so sampling decisions are
    /// invariant under worker count.
    pub fn stream(mut self, handle: mbac_metrics::StreamHandle) -> Self {
        self.stream = Some(handle);
        self.metrics = MetricsMode::Streaming;
        self
    }

    /// Runs the scenario's replications across the session's workers
    /// and folds the outcomes in input order. Requires `S: Sync`
    /// because replications may run concurrently; scenarios that borrow
    /// external mutable state use [`SessionBuilder::run_local`] instead.
    pub fn run<S: Scenario + Sync>(&self, scenario: &S) -> Result<S::Report, ConfigError> {
        self.run_metered(scenario).map(|(report, _)| report)
    }

    /// [`SessionBuilder::run`] plus the merged metrics snapshot (empty
    /// unless the session enables collection).
    ///
    /// In the timing-enabled mode the snapshot also carries the
    /// replication pool's per-worker accounting (items, own-deque
    /// chunks, steals, busy time, utilization — see
    /// [`crate::telemetry::pool_stats_snapshot`]). Like per-tick
    /// timings, pool accounting is machine- and worker-count-dependent,
    /// so the default deterministic snapshot excludes it.
    pub fn run_metered<S: Scenario + Sync>(
        &self,
        scenario: &S,
    ) -> Result<(S::Report, MetricsSnapshot), ConfigError> {
        let (seed, workers, reps) = self.prepare(scenario)?;
        let (outcomes, pool) = mbac_num::parallel::parallel_map_with_stats(
            reps,
            |&rep| self.one_rep(scenario, seed, workers, rep),
            workers,
        );
        let (report, mut merged) = self.finish(scenario, workers, outcomes);
        if self.metrics == MetricsMode::EnabledWithTiming {
            merged.merge(&crate::telemetry::pool_stats_snapshot(&pool));
        }
        Ok((report, merged))
    }

    /// Runs every replication sequentially on the calling thread — for
    /// scenarios that borrow external mutable state (e.g. a caller's
    /// `&mut dyn AdmissionEngine`) and therefore cannot be `Sync`.
    /// Seed derivation and merge order match [`SessionBuilder::run`]
    /// exactly, so the two paths produce bit-identical results.
    pub fn run_local<S: Scenario>(&self, scenario: &S) -> Result<S::Report, ConfigError> {
        self.run_local_metered(scenario).map(|(report, _)| report)
    }

    /// [`SessionBuilder::run_local`] plus the merged metrics snapshot.
    pub fn run_local_metered<S: Scenario>(
        &self,
        scenario: &S,
    ) -> Result<(S::Report, MetricsSnapshot), ConfigError> {
        let (seed, workers, reps) = self.prepare(scenario)?;
        let outcomes: Vec<_> = reps
            .iter()
            .map(|&rep| self.one_rep(scenario, seed, workers, rep))
            .collect();
        Ok(self.finish(scenario, workers, outcomes))
    }

    /// Validates the session and scenario; resolves the base seed, the
    /// worker count (the set one, or the host's) and the replication
    /// index list.
    fn prepare<S: Scenario>(&self, scenario: &S) -> Result<(u64, usize, Vec<u64>), ConfigError> {
        let workers = self
            .workers
            .unwrap_or_else(mbac_num::parallel::default_workers);
        if workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        scenario.validate()?;
        if scenario.replications() == 0 {
            return Err(ConfigError::ZeroReplications);
        }
        let seed = self.seed.unwrap_or_else(|| scenario.seed());
        Ok((seed, workers, (0..scenario.replications() as u64).collect()))
    }

    /// Runs one replication on its derived stream with a fresh sink.
    fn one_rep<S: Scenario>(
        &self,
        scenario: &S,
        seed: u64,
        workers: usize,
        rep: u64,
    ) -> (S::Rep, Option<MetricsSnapshot>) {
        let ctx = RepContext::new(seed, rep);
        let mut sink = match self.metrics {
            MetricsMode::Disabled => MetricsSink::disabled(),
            MetricsMode::Enabled => MetricsSink::enabled(),
            MetricsMode::EnabledWithTiming => MetricsSink::enabled_with_timing(),
            MetricsMode::Streaming => match &self.stream {
                Some(handle) => MetricsSink::streaming(handle.clone(), rep),
                None => MetricsSink::enabled(),
            },
        };
        // The session's workers also advance the lanes of any table
        // larger than one lane (`mbac_traffic::batch`).
        let outcome =
            mbac_num::parallel::with_workers(workers, || scenario.run_rep(&ctx, &mut sink));
        // Streaming sinks flush their final cumulative interval here,
        // after the scenario attached any end-of-rep extras.
        sink.finish_rep();
        let snapshot = sink.is_enabled().then(|| sink.snapshot());
        (outcome, snapshot)
    }

    /// Merges outcomes and snapshots in replication input order; the
    /// fold, which may advance flow tables too, runs on the workers.
    fn finish<S: Scenario>(
        &self,
        scenario: &S,
        workers: usize,
        outcomes: Vec<(S::Rep, Option<MetricsSnapshot>)>,
    ) -> (S::Report, MetricsSnapshot) {
        let mut merged = MetricsSnapshot::new();
        let mut reps = Vec::with_capacity(outcomes.len());
        for (outcome, snapshot) in outcomes {
            if let Some(snapshot) = snapshot {
                merged.merge(&snapshot);
            }
            reps.push(outcome);
        }
        let report = mbac_num::parallel::with_workers(workers, || scenario.fold(reps));
        (report, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Sums `draws` uniform variates per replication; folds to the mean.
    struct Toy {
        draws: usize,
        replications: usize,
        base_seed: u64,
    }

    impl Scenario for Toy {
        type Rep = f64;
        type Report = Vec<f64>;

        fn seed(&self) -> u64 {
            self.base_seed
        }

        fn replications(&self) -> usize {
            self.replications
        }

        fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> f64 {
            let mut rng = ctx.rng();
            if let Some(m) = sink.get_mut() {
                m.ticks.inc();
            }
            (0..self.draws).map(|_| rng.gen::<f64>()).sum()
        }

        fn fold(&self, reps: Vec<f64>) -> Vec<f64> {
            reps
        }
    }

    #[test]
    fn rep_seed_avoids_xor_collisions() {
        // The seed^rep scheme collides for (2,1)/(3,0); the mix must not.
        assert_ne!(rep_seed(2, 1), rep_seed(3, 0));
        // Pinned: every golden's RNG streams hang off this derivation.
        assert_eq!(rep_seed(2, 1), 0xBCD9_DBB4_9673_066B);
        // Distinct reps under one seed get distinct streams.
        let streams: Vec<u64> = (0..1000).map(|rep| rep_seed(42, rep)).collect();
        let mut sorted = streams.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), streams.len());
    }

    #[test]
    fn parallel_and_local_paths_agree_exactly() {
        let toy = Toy {
            draws: 100,
            replications: 37,
            base_seed: 9,
        };
        let local = SessionBuilder::new().run_local(&toy).unwrap();
        for workers in [1, 2, 3, 8] {
            let par = SessionBuilder::new().workers(workers).run(&toy).unwrap();
            assert_eq!(par, local, "{workers} workers");
        }
    }

    #[test]
    fn builder_seed_overrides_scenario_seed() {
        let toy = Toy {
            draws: 10,
            replications: 4,
            base_seed: 1,
        };
        let intrinsic = SessionBuilder::new().run(&toy).unwrap();
        let same = SessionBuilder::new().seed(1).run(&toy).unwrap();
        let different = SessionBuilder::new().seed(2).run(&toy).unwrap();
        assert_eq!(intrinsic, same);
        assert_ne!(intrinsic, different);
    }

    #[test]
    fn metrics_merge_in_replication_order() {
        let toy = Toy {
            draws: 1,
            replications: 8,
            base_seed: 3,
        };
        let (_, snap) = SessionBuilder::new()
            .metrics(MetricsMode::Enabled)
            .run_metered(&toy)
            .unwrap();
        match snap.get("sim.ticks") {
            Some(mbac_metrics::MetricValue::Counter(c)) => assert_eq!(c.count, 8),
            other => panic!("{other:?}"),
        }
        // Disabled mode yields an empty snapshot.
        let (_, empty) = SessionBuilder::new().run_metered(&toy).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn pool_accounting_is_timing_gated() {
        let toy = Toy {
            draws: 1,
            replications: 6,
            base_seed: 5,
        };
        // Deterministic mode: no machine-dependent pool entries.
        let (_, plain) = SessionBuilder::new()
            .metrics(MetricsMode::Enabled)
            .workers(2)
            .run_metered(&toy)
            .unwrap();
        assert!(plain.get("pool.calls").is_none());
        // Timing mode: pool accounting rides along and covers all reps.
        let (_, timed) = SessionBuilder::new()
            .metrics(MetricsMode::EnabledWithTiming)
            .workers(2)
            .run_metered(&toy)
            .unwrap();
        match timed.get("pool.calls") {
            Some(mbac_metrics::MetricValue::Counter(c)) => assert_eq!(c.count, 1),
            other => panic!("{other:?}"),
        }
        let items: u64 = (0..2)
            .map(|s| match timed.get(&format!("pool.worker{s}.items")) {
                Some(mbac_metrics::MetricValue::Counter(c)) => c.count,
                other => panic!("{other:?}"),
            })
            .sum();
        assert_eq!(items, 6, "every replication accounted to a worker");
    }

    #[test]
    fn zero_workers_and_zero_replications_are_config_errors() {
        let toy = Toy {
            draws: 1,
            replications: 0,
            base_seed: 0,
        };
        assert_eq!(
            SessionBuilder::new().run(&toy).unwrap_err(),
            ConfigError::ZeroReplications
        );
        let toy = Toy {
            draws: 1,
            replications: 1,
            base_seed: 0,
        };
        assert_eq!(
            SessionBuilder::new().workers(0).run(&toy).unwrap_err(),
            ConfigError::ZeroWorkers
        );
    }

    #[test]
    fn config_error_messages_are_friendly() {
        let msg = ConfigError::NonPositive {
            field: "capacity",
            value: -4.0,
        }
        .to_string();
        assert!(
            msg.contains("capacity") && msg.contains("positive"),
            "{msg}"
        );
        let msg = ConfigError::TooFewFlows { got: 1 }.to_string();
        assert!(msg.contains("2") && msg.contains("flows"), "{msg}");
        let msg = ConfigError::EmptyObserveTimes.to_string();
        assert!(msg.contains("observe"), "{msg}");
    }
}
