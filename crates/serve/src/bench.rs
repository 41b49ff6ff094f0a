//! The closed-loop load generator: replays the traffic `mbac_sim`'s
//! window generator makes as admission requests and measures decision
//! latency and throughput.
//!
//! "Closed loop" here is the backpressure sense: the bounded ingest
//! rings cap the outstanding-event window, so producers block (yield)
//! when a shard falls behind instead of queueing unboundedly — measured
//! latency is ingest-to-decision under a stable offered load, not a
//! growing queue artifact.
//!
//! Single-core hosts cannot produce meaningful *threaded* throughput:
//! producers, consumers, and the generator all time-share one CPU, so a
//! multi-shard run measures scheduler churn, not the plane. So
//! [`closed_loop_with_parallelism`] falls back to the serial reference
//! and sets [`BenchReport::skipped_single_core`] when the injected
//! parallelism is 1 and a threaded shape was requested — the recorded
//! numbers are then honest serial-path figures, marked as such.
//!
//! # How a run is generated
//!
//! Neither shape holds the run. Each feeds one driver a window of ticks
//! at a time ([`WINDOW_SNAPSHOTS`], [`THREADED_WINDOW_SNAPSHOTS`] and
//! [`WINDOW_EVENTS`] size a window and say why), and builds its plane
//! once, from the first window:
//! `mbac_sim::Windows::next_window` steps every population through the
//! next few ticks and writes each link's measurement there into a window
//! buffer, folded into its five numbers (`mbac_num::SnapshotMoments`)
//! while its rates are still in cache; the driver replays the window,
//! synthesising each tick's requests around the snapshots, and the
//! buffer goes back to be written again. A replayed measurement is
//! therefore an estimator update, O(1). Memory is the populations, two
//! windows of 40-byte snapshots and the plane, whatever the number of
//! ticks: a routed plane's route table is laid out once, for the first
//! window's requests, never more than the run's.
//!
//! The serial shape overlaps the two stages when
//! `mbac_num::parallel::current_workers()` is above 1, the rule the
//! Session pipeline and the flow lanes follow: while the driver replays
//! window *k* on the caller's thread, a scoped generator thread fills
//! window *k + 1*, so a round costs about the larger of the two (most of
//! a `serve_routed` round's generation is per-node noise, drawn as its
//! effect on each link's fold, `mbac_num::fold_noisy`). With one worker
//! the same loop generates each window inline, between the replays.
//! There is no setting, and the injected `parallelism` still gates only
//! the threaded shape. Both feeds hand the replay the same windows in
//! the same order, so the decisions are the same bytes (held to the
//! materialised reference at one and two workers in [`crate::replay`]'s
//! and [`crate::routed`]'s tests). The generator is a dedicated thread,
//! not a pool job: a pool job may run inline on the caller when no
//! worker is free, where the hand-off would deadlock.
//!
//! The threaded shape generates each window inline too, and replays it
//! through producer threads and a consumer thread per shard, joined at
//! the window's end: the producers must be able to run ahead of the
//! consumers, or the rings never fill and the backpressure the shape
//! exists to measure never happens. Each producer pushes its links'
//! events in the window's order, and each link sees the order the
//! serial shape gives it, so both shapes decide the same bytes. A link
//! parked on another shard's vote buffers the events behind it, at most
//! its events of one window, since a window ends with no link parked.
//!
//! [`BenchReport::elapsed_secs`] is the sum of the replay spans — two
//! clock reads a window — so decisions per second still means replay
//! time only. [`BenchReport::generate_secs`] is the generator's busy
//! time, its waits for a free buffer excluded, and
//! [`BenchReport::wall_secs`] the run's: their sum when the stages run
//! in turn, about the larger of them when they overlap.
//!
//! # What is stamped
//!
//! A latency sample costs two clock reads — `Instant::now()` where the
//! request is ingested, `elapsed()` where it is decided: 58 ns for the
//! pair on the development host, and a read also holds up the work
//! around it. That is more than the ~35 ns a `serve_links` replay
//! spends on a decision, measurements included: a request reads the
//! count its link's last measurement set and compares. Stamping every
//! request made decisions/s report the clock rather than the plane. So
//! a run spends a fixed budget of stamps, [`LATENCY_SAMPLES`]:
//! every request of a run no longer than that, one request in each of
//! that many strata of a longer one, at a hashed place in its stratum
//! (the [`Stamps`] rule — hashed because the canonical order is
//! round-robin over the links, and a fixed stride would sample some
//! links only). Throughput, decisions and admits are those of the
//! whole run. The stamped latencies are the run's only latency record:
//! the sink keeps each one, and p50 / p99 are [`mbac_num::quantile`] of
//! them and the mean their integer sum over their count, so
//! [`BenchReport::latency_samples`] says exactly what the three figures
//! rest on. Which
//! requests are stamped changes no decision: the sampled replays are
//! held to the fully stamped reference's bytes in [`crate::replay`]'s
//! and [`crate::routed`]'s tests.

use crate::plane::{
    certainty_equivalent_factory, check_producers, check_shards, ControllerFactory, PlaneConfig,
    ServeError,
};
use crate::replay::{drive_run, DecisionOf, Replay, Stamps, Step};
use crate::routed::RoutedPlaneConfig;
use crate::sink::{DecisionSink, Replayed, Tally};
use mbac_core::topology::Topology;
use mbac_metrics::StreamHandle;
use mbac_num::quantile;
use mbac_sim::{
    compat, ConfigError, MetricsMode, RequestLoad, RequestLoadConfig, RoutedLoad, RoutedLoadConfig,
    Windows,
};
use mbac_traffic::process::SourceModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop bench configuration: workload shape plus plane shape.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Links (one request stream per link).
    pub links: usize,
    /// Steady-state flows per link in the generated workload.
    pub flows_per_link: usize,
    /// Measurement ticks per link.
    pub ticks: usize,
    /// Measurement period.
    pub tick: f64,
    /// Admission requests after each measurement.
    pub requests_per_tick: usize,
    /// Mean holding time of the churned workload flows.
    pub mean_holding: f64,
    /// Workload generation seed.
    pub seed: u64,
    /// Ignored: a model's flows run on its batched kernel if it has one.
    pub engine: compat::Engine,
    /// Decision-plane shards.
    pub shards: usize,
    /// Producer threads feeding the rings.
    pub producers: usize,
    /// Per-shard ingest-ring capacity (the outstanding-event window).
    pub ring_capacity: usize,
    /// Per-link capacity the controllers decide against.
    pub capacity: f64,
    /// Certainty-equivalent target probability.
    pub p_ce: f64,
    /// Estimator memory time-scale.
    pub t_m: f64,
    /// Streaming-emission handle passed through to the plane. When set,
    /// per-shard metrics collection is enabled (without timing) so the
    /// stream's interval records carry the decision counters.
    pub stream: Option<StreamHandle>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            links: 32,
            flows_per_link: 50,
            ticks: 200,
            tick: 0.1,
            requests_per_tick: 4,
            mean_holding: 10.0,
            seed: 7,
            engine: compat::Engine::Batched,
            shards: 1,
            producers: 1,
            ring_capacity: 1024,
            capacity: 60.0,
            p_ce: 1e-2,
            t_m: 5.0,
            stream: None,
        }
    }
}

/// What went wrong setting up or running a bench.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The workload configuration was rejected.
    Config(ConfigError),
    /// The plane/replay configuration was rejected.
    Serve(ServeError),
    /// The estimator memory time-scale was negative, NaN or infinite.
    BadMemory {
        /// The rejected `t_m`.
        t_m: f64,
    },
    /// The certainty-equivalent target probability was outside (0, 1).
    BadProbability {
        /// The rejected `p_ce`.
        p_ce: f64,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Config(e) => e.fmt(f),
            BenchError::Serve(e) => e.fmt(f),
            BenchError::BadMemory { t_m } => {
                write!(f, "t_m must be finite and non-negative, got {t_m}")
            }
            BenchError::BadProbability { p_ce } => {
                write!(f, "p_ce must be in (0, 1), got {p_ce}")
            }
        }
    }
}

impl std::error::Error for BenchError {}

impl From<ConfigError> for BenchError {
    fn from(e: ConfigError) -> Self {
        BenchError::Config(e)
    }
}

impl From<ServeError> for BenchError {
    fn from(e: ServeError) -> Self {
        BenchError::Serve(e)
    }
}

/// One closed-loop run's results.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"serial"` (single-threaded reference path) or `"threaded"`
    /// (producers + per-shard consumers).
    pub mode: &'static str,
    /// Shards actually used.
    pub shards: usize,
    /// Producer threads actually used.
    pub producers: usize,
    /// Total admission decisions made.
    pub decisions: u64,
    /// Admits.
    pub admitted: u64,
    /// Rejects.
    pub rejected: u64,
    /// Total workload events replayed (measurements + requests).
    pub events: u64,
    /// Time spent generating the workload: the window generator's busy
    /// time, whether it overlapped the replay or ran between its spans
    /// (waits for a free window buffer are not counted).
    pub generate_secs: f64,
    /// Replay wall time: the sum of the windows' replay spans, each end
    /// to end when threaded.
    pub elapsed_secs: f64,
    /// The run's wall time, from the first generated flow to the last
    /// decision: about `generate_secs + elapsed_secs` when the two run
    /// in turn, nearer the larger of them when they overlap.
    pub wall_secs: f64,
    /// Sustained decision throughput.
    pub decisions_per_sec: f64,
    /// How many decisions were stamped: what `p50_ns`, `p99_ns` and
    /// `mean_ns` rest on. All of them up to [`LATENCY_SAMPLES`]
    /// requests, that many of a longer run.
    pub latency_samples: u64,
    /// Median latency of the stamped decisions (ingest→decision when
    /// threaded, bare decide when serial), nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile latency of the stamped decisions, nanoseconds.
    pub p99_ns: f64,
    /// Mean latency of the stamped decisions, nanoseconds.
    pub mean_ns: f64,
    /// `available_parallelism()` observed on this host.
    pub available_parallelism: usize,
    /// `true` when a threaded shape was requested but the host has one
    /// core, so the run fell back to the serial reference (the recorded
    /// throughput is serial-path, not a scaling claim).
    pub skipped_single_core: bool,
}

/// The most requests one closed-loop run stamps (see the module docs).
/// 2¹⁴ samples leave 164 beyond the p99 they report. They cost
/// 2¹⁴ × 58 ns ≈ 1 ms of clock reads, whatever the run's length: 3 % of
/// the 1 024 000 × 28 ns ≈ 29 ms that `serve_links`' decisions take —
/// where stamping each of them cost 1 024 000 × 58 ns ≈ 59 ms and, with
/// the work the reads held up, took the replay to ~160 ms.
pub const LATENCY_SAMPLES: u64 = 1 << 14;

/// The length of a serial run's windows, in link snapshots (see "How a
/// run is generated"): a window is `WINDOW_SNAPSHOTS / links` ticks, at
/// least one, unless [`WINDOW_EVENTS`] makes it shorter. 2¹⁰ snapshots
/// are 40 KiB: `serve_links`' 32 links make
/// windows of 32 ticks, `serve_routed`'s 3 links windows of 341. A
/// window only has to be long enough that the two hand-offs it costs
/// vanish against its replay, and short enough that the first window —
/// generated before the replay can start — and the last — replayed
/// after generation has ended — are a small part of the run. Measured
/// on the 2-vCPU development host, stages overlapped, three runs each:
/// from 2⁸ to 2¹⁴ snapshots `serve_routed` replays at 5.3–6.2 · 10⁶
/// decisions/s in 0.058–0.085 s a round, and `serve_links` at
/// 4.4–6.3 · 10⁷ in 0.017–0.025 s, with no trend beyond the host's
/// noise; at 2¹⁶ `serve_routed`'s run is a single window, nothing
/// overlaps, and a round takes 0.10–0.11 s. The plateau is wide, so
/// this is a constant and not a setting.
pub const WINDOW_SNAPSHOTS: usize = 1 << 10;

/// The length of a threaded run's windows, in link snapshots. Each
/// window's start and end cost the threaded step: at `serve_routed`'s
/// shape threaded (`--noise-sd 0.05 --shards 2 --producers 1`) 1–2 %
/// of its decisions/s each, as the shards' vote exchange drains and
/// refills (starting the threads and re-basing the route table are
/// ~0.2 ms of it). Sessions of 20–30 rotating rounds on the 2-vCPU
/// development host, against the run replayed as one window, read
/// ×0.61–0.77 at [`WINDOW_SNAPSHOTS`], ×0.90 at 2¹³, ×0.85–0.98 at 2¹⁴
/// and ×0.90–1.03 at 2¹⁵, at flat peaks of 7.7, 11.2 and 18.1 MB for
/// the last three (a parked link buffers up to its window's events),
/// with `wall` unchanged; the links shape ×1.13–1.25. So 2¹⁴ gives up a
/// few per cent of threaded routed decisions/s for the smaller peak.
pub const THREADED_WINDOW_SNAPSHOTS: usize = 1 << 14;

/// The most events a window holds, on either step: a routed window's
/// route table and parked links' buffers hold at most its requests and
/// events, so a run whose one tick holds more is refused. 2²⁰ is more
/// than the windows of `serve_links` (33 792 events serial, 540 672
/// threaded) and `serve_routed` (5 115, 81 915) hold, so there the
/// snapshots decide.
pub const WINDOW_EVENTS: usize = 1 << 20;

/// The ticks of a window of `windows`' run on `step`: [`WINDOW_SNAPSHOTS`]
/// link snapshots a window serial, [`THREADED_WINDOW_SNAPSHOTS`]
/// threaded, at least one, and at most [`WINDOW_EVENTS`] events; a run
/// whose tick alone holds more is [`ConfigError::WorkloadTooLarge`].
pub(crate) fn window_ticks(step: Step, windows: &impl Windows) -> Result<usize, ConfigError> {
    let snapshots = match step {
        Step::Serial => WINDOW_SNAPSHOTS,
        Step::Threaded { .. } => THREADED_WINDOW_SNAPSHOTS,
    };
    match WINDOW_EVENTS / windows.tick_events() {
        0 => Err(ConfigError::WorkloadTooLarge {
            what: "events in one tick",
            max: WINDOW_EVENTS as u64,
        }),
        events => Ok((snapshots / windows.links()).clamp(1, events)),
    }
}

/// The host's available parallelism (1 when undeterminable).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The plane shape a bench run uses, resolved from the requested shape
/// and the injected parallelism.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// The driver's step: threaded, or the serial reference.
    step: Step,
    shards: usize,
    producers: usize,
    parallelism: usize,
    skipped_single_core: bool,
}

impl Shape {
    /// Validates the requested shape — whatever the host, so a bad one
    /// is an error on a single core too — and applies the single-core
    /// gate.
    fn resolve(shards: usize, producers: usize, parallelism: usize) -> Result<Self, ServeError> {
        check_shards(shards)?;
        check_producers(producers)?;
        let threaded_requested = shards > 1 || producers > 1;
        let single_core = parallelism == 1;
        let (step, shards, producers) = if threaded_requested && !single_core {
            (Step::Threaded { producers }, shards, producers)
        } else {
            (Step::Serial, 1, 1)
        };
        Ok(Shape {
            step,
            shards,
            producers,
            parallelism,
            skipped_single_core: threaded_requested && single_core,
        })
    }

    /// `windows`' run through the plane `plane` configures into the
    /// sinks `new_sink` makes, generated and replayed a window at a time
    /// (see "How a run is generated"), spending a `budget` of stamps on
    /// its requests. Returns what the replay made, the generator's busy
    /// time and the events replayed.
    fn run<G, S>(
        self,
        windows: G,
        plane: &<G::Workload as Replay>::PlaneConfig,
        make: ControllerFactory,
        budget: u64,
        new_sink: impl Fn() -> S,
    ) -> Result<(Replayed<S>, Duration, u64), BenchError>
    where
        G: Windows + Send,
        G::Workload: Replay + Send,
        S: DecisionSink<DecisionOf<G::Workload>>,
    {
        let ticks = window_ticks(self.step, &windows)?;
        let stamps = Stamps::budgeted(windows.requests(), budget);
        let (driver, generate, events) =
            drive_run(windows, ticks, plane, make, self.step, stamps, new_sink)?;
        Ok((driver.finish(), generate, events))
    }

    /// The report of a run in this shape.
    fn report(
        self,
        replayed: Replayed<Tally>,
        generate: Duration,
        events: u64,
        wall: Duration,
    ) -> BenchReport {
        let tally = &replayed.sink;
        let (p50_ns, p99_ns, mean_ns) = latency_figures(&tally.latencies);
        let elapsed_secs = replayed.elapsed.as_secs_f64();
        BenchReport {
            mode: match self.step {
                Step::Serial => "serial",
                Step::Threaded { .. } => "threaded",
            },
            shards: self.shards,
            producers: self.producers,
            decisions: tally.decisions,
            admitted: tally.admitted,
            rejected: tally.decisions - tally.admitted,
            events,
            generate_secs: generate.as_secs_f64(),
            elapsed_secs,
            wall_secs: wall.as_secs_f64(),
            decisions_per_sec: if elapsed_secs > 0.0 {
                tally.decisions as f64 / elapsed_secs
            } else {
                0.0
            },
            latency_samples: tally.latencies.len() as u64,
            p50_ns,
            p99_ns,
            mean_ns,
            available_parallelism: self.parallelism,
            skipped_single_core: self.skipped_single_core,
        }
    }
}

/// The p50, p99 and mean of the stamped `latencies`: the type-7
/// quantiles of [`quantile`] and the integer sum over the count, all 0
/// when nothing was stamped.
fn latency_figures(latencies: &[u64]) -> (f64, f64, f64) {
    if latencies.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let ns: Vec<f64> = latencies.iter().map(|&ns| ns as f64).collect();
    let sum: u128 = latencies.iter().map(|&ns| u128::from(ns)).sum();
    let mean = sum as f64 / latencies.len() as f64;
    (quantile(&ns, 0.5), quantile(&ns, 0.99), mean)
}

/// The paper's controller at the bench's `(p_ce, t_m)`, both checked
/// first: `QosTarget::new` and `FilteredEstimator::new` assert on them.
fn controller_factory(p_ce: f64, t_m: f64) -> Result<ControllerFactory, BenchError> {
    if !(p_ce > 0.0 && p_ce < 1.0) {
        Err(BenchError::BadProbability { p_ce })
    } else if !(t_m >= 0.0 && t_m.is_finite()) {
        Err(BenchError::BadMemory { t_m })
    } else {
        Ok(certainty_equivalent_factory(p_ce, t_m))
    }
}

/// Per-shard metrics are collected only to feed an attached stream.
fn metrics_mode(stream: &Option<StreamHandle>) -> MetricsMode {
    if stream.is_some() {
        MetricsMode::Streaming
    } else {
        MetricsMode::Disabled
    }
}

/// Runs the closed-loop bench: generates the workload (see "How a run
/// is generated" in the module docs), replays it through the plane, and
/// summarizes latency/throughput. The host's parallelism is injected (pass
/// [`host_parallelism()`] for the real machine; tests force both the
/// gated and ungated paths regardless of the actual host).
pub fn closed_loop_with_parallelism(
    cfg: &BenchConfig,
    model: &dyn SourceModel,
    parallelism: usize,
) -> Result<BenchReport, BenchError> {
    closed_loop_sampling(cfg, model, parallelism, LATENCY_SAMPLES)
}

/// [`closed_loop_with_parallelism`] with the stamp budget as a
/// parameter.
fn closed_loop_sampling(
    cfg: &BenchConfig,
    model: &dyn SourceModel,
    parallelism: usize,
    budget: u64,
) -> Result<BenchReport, BenchError> {
    let shape = Shape::resolve(cfg.shards, cfg.producers, parallelism)?;
    let make = controller_factory(cfg.p_ce, cfg.t_m)?;
    let load = RequestLoad {
        model,
        cfg: RequestLoadConfig {
            links: cfg.links,
            flows_per_link: cfg.flows_per_link,
            ticks: cfg.ticks,
            tick: cfg.tick,
            requests_per_tick: cfg.requests_per_tick,
            mean_holding: cfg.mean_holding,
            seed: cfg.seed,
        },
    };
    let plane = PlaneConfig {
        shards: shape.shards,
        capacity: cfg.capacity,
        ring_capacity: cfg.ring_capacity,
        metrics: metrics_mode(&cfg.stream),
        stream: cfg.stream.clone(),
    };
    let start = Instant::now();
    // Held to the bound a tick at a time, and to `MAX_RUN_ITEMS` over
    // the run.
    let windows = load.windows()?;
    let (replayed, generate, events) = shape.run(windows, &plane, make, budget, Tally::default)?;
    Ok(shape.report(replayed, generate, events, start.elapsed()))
}

// ---------------------------------------------------------------------
// Routed (topology-shaped) bench
// ---------------------------------------------------------------------

/// Closed-loop bench over a routed [`Topology`] workload: multi-hop
/// requests joined by the two-phase reserve/commit of [`crate::routed`].
#[derive(Debug, Clone)]
pub struct RoutedBenchConfig {
    /// The network shape (links, capacities, routes).
    pub topology: Arc<Topology>,
    /// Steady-state flows per route in the generated workload.
    pub flows_per_route: usize,
    /// Measurement ticks.
    pub ticks: usize,
    /// Measurement period.
    pub tick: f64,
    /// Admission requests per route after each measurement.
    pub requests_per_tick: usize,
    /// Mean holding time of the churned workload flows.
    pub mean_holding: f64,
    /// Per-node measurement noise standard deviation (0 disables).
    pub noise_sd: f64,
    /// Workload generation seed.
    pub seed: u64,
    /// Ignored: a model's flows run on its batched kernel if it has one.
    pub engine: compat::Engine,
    /// Decision-plane shards.
    pub shards: usize,
    /// Producer threads feeding the rings.
    pub producers: usize,
    /// Per-shard ingest-ring capacity.
    pub ring_capacity: usize,
    /// Certainty-equivalent target probability.
    pub p_ce: f64,
    /// Estimator memory time-scale.
    pub t_m: f64,
    /// Streaming-emission handle passed through to the plane. When set,
    /// per-shard metrics collection is enabled (without timing) so the
    /// stream's interval records carry the decision counters.
    pub stream: Option<StreamHandle>,
}

impl Default for RoutedBenchConfig {
    fn default() -> Self {
        RoutedBenchConfig {
            topology: Arc::new(Topology::parking_lot(3, 60.0)),
            flows_per_route: 25,
            ticks: 200,
            tick: 0.1,
            requests_per_tick: 4,
            mean_holding: 10.0,
            noise_sd: 0.0,
            seed: 7,
            engine: compat::Engine::Batched,
            shards: 1,
            producers: 1,
            ring_capacity: 1024,
            p_ce: 1e-2,
            t_m: 5.0,
            stream: None,
        }
    }
}

/// Runs the routed closed-loop bench with the host parallelism
/// injected. Mirrors [`closed_loop_with_parallelism`]: a threaded shape
/// on a single-core host falls back to the serial reference and sets
/// [`BenchReport::skipped_single_core`].
pub fn routed_closed_loop_with_parallelism(
    cfg: &RoutedBenchConfig,
    model: &dyn SourceModel,
    parallelism: usize,
) -> Result<BenchReport, BenchError> {
    routed_closed_loop_sampling(cfg, model, parallelism, LATENCY_SAMPLES)
}

/// [`routed_closed_loop_with_parallelism`] with the stamp budget as a
/// parameter.
fn routed_closed_loop_sampling(
    cfg: &RoutedBenchConfig,
    model: &dyn SourceModel,
    parallelism: usize,
    budget: u64,
) -> Result<BenchReport, BenchError> {
    let shape = Shape::resolve(cfg.shards, cfg.producers, parallelism)?;
    let make = controller_factory(cfg.p_ce, cfg.t_m)?;
    let load = RoutedLoad {
        model,
        cfg: RoutedLoadConfig {
            topology: Arc::clone(&cfg.topology),
            flows_per_route: cfg.flows_per_route,
            ticks: cfg.ticks,
            tick: cfg.tick,
            requests_per_tick: cfg.requests_per_tick,
            mean_holding: cfg.mean_holding,
            noise_sd: cfg.noise_sd,
            seed: cfg.seed,
        },
    };
    let plane = RoutedPlaneConfig {
        shards: shape.shards,
        ring_capacity: cfg.ring_capacity,
        metrics: metrics_mode(&cfg.stream),
        stream: cfg.stream.clone(),
    };
    let start = Instant::now();
    // The windows check every field and hold the run a tick at a time;
    // the route table holds a window's requests at a time.
    let windows = load.windows()?;
    let (replayed, generate, events) = shape.run(windows, &plane, make, budget, Tally::default)?;
    Ok(shape.report(replayed, generate, events, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{MAX_PRODUCERS, MAX_SHARDS};
    use crate::replay::tests::{same_bytes, windowed_matches_materialised};
    use crate::replay::{replay_serial, ReplayConfig};
    use crate::sink::Collect;
    use mbac_num::parallel::with_workers;
    use mbac_sim::{SessionBuilder, MAX_WORKLOAD_ITEMS};
    use mbac_traffic::process::RateProcess;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn small() -> BenchConfig {
        BenchConfig {
            links: 3,
            flows_per_link: 5,
            ticks: 10,
            requests_per_tick: 2,
            capacity: 6.0,
            ..BenchConfig::default()
        }
    }

    fn model() -> RcbrModel {
        RcbrModel::new(RcbrConfig::paper_default(1.0))
    }

    #[test]
    fn serial_bench_reports_consistent_totals() {
        let report = closed_loop_with_parallelism(&small(), &model(), 1).unwrap();
        assert_eq!(report.mode, "serial");
        assert!(!report.skipped_single_core, "serial shape skips nothing");
        assert_eq!(report.decisions, 3 * 10 * 2);
        assert_eq!(report.admitted + report.rejected, report.decisions);
        assert_eq!(report.events, 3 * 10 * 3);
        assert!(report.decisions_per_sec > 0.0);
        assert!(report.p50_ns <= report.p99_ns);
        assert!(report.p99_ns > 0.0);
        assert_eq!(report.latency_samples, report.decisions, "below the budget");
    }

    #[test]
    fn single_core_gate_falls_back_to_serial_with_marker() {
        let cfg = BenchConfig {
            shards: 4,
            producers: 2,
            ..small()
        };
        let report = closed_loop_with_parallelism(&cfg, &model(), 1).unwrap();
        assert!(report.skipped_single_core);
        assert_eq!(report.mode, "serial");
        assert_eq!(report.shards, 1, "fallback must not fake a sharded run");
        assert_eq!(report.producers, 1);
        assert_eq!(report.available_parallelism, 1);
    }

    #[test]
    fn multi_core_runs_threaded_without_marker() {
        let cfg = BenchConfig {
            shards: 2,
            producers: 2,
            ..small()
        };
        let report = closed_loop_with_parallelism(&cfg, &model(), 4).unwrap();
        assert!(!report.skipped_single_core);
        assert_eq!(report.mode, "threaded");
        assert_eq!(report.shards, 2);
        assert_eq!(report.decisions, 3 * 10 * 2);
        assert_eq!(report.latency_samples, report.decisions, "below the budget");
    }

    fn small_routed() -> RoutedBenchConfig {
        RoutedBenchConfig {
            topology: Arc::new(Topology::parking_lot(3, 14.0)),
            flows_per_route: 5,
            ticks: 10,
            requests_per_tick: 2,
            ..RoutedBenchConfig::default()
        }
    }

    #[test]
    fn routed_serial_bench_reports_consistent_totals() {
        let report = routed_closed_loop_with_parallelism(&small_routed(), &model(), 1).unwrap();
        assert_eq!(report.mode, "serial");
        // 4 routes (the long path + 3 cross routes) × 10 ticks × 2.
        assert_eq!(report.decisions, 4 * 10 * 2);
        assert_eq!(report.admitted + report.rejected, report.decisions);
        assert!(report.p50_ns <= report.p99_ns);
        assert_eq!(report.latency_samples, report.decisions, "below the budget");
    }

    #[test]
    fn routed_single_core_gate_falls_back_to_serial() {
        let cfg = RoutedBenchConfig {
            shards: 4,
            producers: 2,
            ..small_routed()
        };
        let report = routed_closed_loop_with_parallelism(&cfg, &model(), 1).unwrap();
        assert!(report.skipped_single_core);
        assert_eq!(report.mode, "serial");
        assert_eq!(report.shards, 1);
        let threaded = routed_closed_loop_with_parallelism(&cfg, &model(), 4).unwrap();
        assert!(!threaded.skipped_single_core);
        assert_eq!(threaded.mode, "threaded");
        assert_eq!(threaded.decisions, report.decisions);
        assert_eq!(threaded.admitted, report.admitted);
        assert_eq!(threaded.latency_samples, threaded.decisions);
    }

    /// A run of 16 budgets stamps about one budget of its requests, on
    /// either plane and in either mode, and decides as the fully
    /// stamped run does; its quantiles are those of the sample.
    #[test]
    fn a_long_run_stamps_its_budget_and_decides_the_same() {
        type Run<'a> = &'a dyn Fn(usize, u64) -> BenchReport;
        let links = BenchConfig {
            ticks: 32,
            requests_per_tick: 8,
            shards: 3,
            producers: 2,
            ..small()
        };
        let routed = RoutedBenchConfig {
            ticks: 40,
            requests_per_tick: 4,
            shards: 3,
            producers: 2,
            ..small_routed()
        };
        let runs: [Run; 2] = [
            &|parallelism, budget| {
                closed_loop_sampling(&links, &model(), parallelism, budget).unwrap()
            },
            &|parallelism, budget| {
                routed_closed_loop_sampling(&routed, &model(), parallelism, budget).unwrap()
            },
        ];
        for run in runs {
            let full = run(1, LATENCY_SAMPLES);
            assert_eq!(full.latency_samples, full.decisions);
            let budget = full.decisions / 16;
            for parallelism in [1, 4] {
                let sampled = run(parallelism, budget);
                assert_eq!(sampled.skipped_single_core, parallelism == 1);
                assert_eq!(sampled.decisions, full.decisions);
                assert_eq!(sampled.admitted, full.admitted);
                let (samples, budget) = (sampled.latency_samples as f64, budget as f64);
                assert!(
                    (0.75 * budget..=1.25 * budget).contains(&samples),
                    "{}: {samples} samples on a budget of {budget}",
                    sampled.mode
                );
                assert!(sampled.p50_ns <= sampled.p99_ns && sampled.p99_ns > 0.0);
            }
        }
    }

    /// Shapes with links enough that a run is several windows long: 128
    /// links make windows of 8 ticks, parking-lot:64's 64 links windows
    /// of 16, each run ending on a shorter one.
    fn several_windows() -> (BenchConfig, RoutedBenchConfig) {
        let links = BenchConfig {
            links: 128,
            flows_per_link: 8,
            ticks: 20,
            requests_per_tick: 4,
            capacity: 10.0,
            shards: 2,
            ..small()
        };
        let routed = RoutedBenchConfig {
            topology: Arc::new(Topology::parking_lot(64, 10.0)),
            flows_per_route: 4,
            ticks: 40,
            requests_per_tick: 2,
            shards: 2,
            ..small_routed()
        };
        assert_eq!(WINDOW_SNAPSHOTS / 128, 8);
        assert_eq!(WINDOW_SNAPSHOTS / 64, 16);
        assert_eq!(THREADED_WINDOW_SNAPSHOTS / 64, 256);
        (links, routed)
    }

    /// Runs of several windows, generated inline (one worker) or
    /// overlapped with their replay (two), report what the same runs
    /// report on the threaded shape, whose longer windows hold each of
    /// them whole. A run's wall time holds its generation and its
    /// replay: their sum when they run in turn.
    #[test]
    fn a_run_of_several_windows_reports_what_the_materialised_run_does() {
        let (links, routed) = several_windows();
        let run = |parallelism, workers| {
            with_workers(workers, || {
                [
                    closed_loop_with_parallelism(&links, &model(), parallelism).unwrap(),
                    routed_closed_loop_with_parallelism(&routed, &model(), parallelism).unwrap(),
                ]
            })
        };
        for workers in [1, 2] {
            for (windowed, whole) in run(1, workers).into_iter().zip(run(4, workers)) {
                assert_eq!((windowed.mode, whole.mode), ("serial", "threaded"));
                assert_eq!(windowed.decisions, whole.decisions);
                assert_eq!(windowed.admitted, whole.admitted);
                let (admitted, decisions) = (windowed.admitted, windowed.decisions);
                assert!(
                    0 < admitted && admitted < decisions,
                    "{admitted} of {decisions}"
                );
                assert_eq!(windowed.events, whole.events);
                assert_eq!(windowed.latency_samples, whole.latency_samples);
                for report in [windowed, whole] {
                    let (generate, replay) = (report.generate_secs, report.elapsed_secs);
                    assert!(generate > 0.0 && replay > 0.0);
                    let in_turn = workers == 1 || report.mode == "threaded";
                    let held = if in_turn {
                        generate + replay
                    } else {
                        generate.max(replay)
                    };
                    assert!(report.wall_secs >= held, "{workers} workers: {report:?}");
                }
            }
        }
    }

    /// A source whose `at`-th spawn panics.
    struct GivesOut {
        source: RcbrModel,
        spawns: AtomicUsize,
        at: usize,
    }

    impl SourceModel for GivesOut {
        fn spawn(&self, rng: &mut dyn rand::RngCore) -> Box<dyn RateProcess> {
            let spawns = self.spawns.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(spawns < self.at, "the source gave out");
            self.source.spawn(rng)
        }
        fn mean(&self) -> f64 {
            self.source.mean()
        }
        fn variance(&self) -> f64 {
            self.source.variance()
        }
    }

    /// Runs [`several_windows`]' shape of `routed`'s plane (the links'
    /// over 30 ticks) on `workers` workers, on a source that gives out
    /// in the run's second window:
    /// about 1 % of the flows are replaced a tick, so the links' 1 024
    /// flows spawn 120 more by tick 12 or so, in their second window of
    /// 8 ticks, and the parking lot's 260 spawn 60 more by tick 23 or
    /// so, in its second window of 16.
    fn gives_out_a_few_windows_in(routed: bool, workers: usize) {
        let (links, routed_cfg) = several_windows();
        let source = |at| GivesOut {
            source: model(),
            spawns: AtomicUsize::new(0),
            at,
        };
        with_workers(workers, || {
            if routed {
                routed_closed_loop_with_parallelism(&routed_cfg, &source(260 + 60), 1)
            } else {
                let cfg = BenchConfig { ticks: 30, ..links };
                closed_loop_with_parallelism(&cfg, &source(1024 + 120), 1)
            }
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "the source gave out")]
    fn a_generator_panic_ends_an_inline_run() {
        gives_out_a_few_windows_in(false, 1);
    }

    #[test]
    #[should_panic(expected = "the source gave out")]
    fn a_generator_panic_ends_an_overlapped_run() {
        gives_out_a_few_windows_in(false, 2);
    }

    #[test]
    #[should_panic(expected = "the source gave out")]
    fn a_generator_panic_ends_an_inline_routed_run() {
        gives_out_a_few_windows_in(true, 1);
    }

    #[test]
    #[should_panic(expected = "the source gave out")]
    fn a_generator_panic_ends_an_overlapped_routed_run() {
        gives_out_a_few_windows_in(true, 2);
    }

    /// A source that gives out at its `at`-th spawn.
    fn giving_out(at: usize) -> GivesOut {
        GivesOut {
            source: model(),
            spawns: AtomicUsize::new(0),
            at,
        }
    }

    /// The panic `run` ends in on a source that gives out at spawn `at`:
    /// the run was validated and started to generate.
    fn gives_out_at<R>(at: usize, run: impl Fn(&GivesOut) -> R) -> &'static str {
        let source = giving_out(at);
        let run = std::panic::AssertUnwindSafe(|| with_workers(1, || run(&source)));
        let panic = std::panic::catch_unwind(run)
            .err()
            .expect("the run gave out");
        panic.downcast_ref::<&str>().copied().unwrap_or_default()
    }

    /// A routed run is held to `MAX_RUN_ITEMS` over its length, not to
    /// what a whole run may hold: parking-lot:3's four routes asking
    /// once a tick for 2²⁶ + 1 ticks are four requests past
    /// `MAX_WORKLOAD_ITEMS`. Both shapes hold a window's requests at a
    /// time, so both validate it and start to generate it, here on a
    /// source that gives out at its first replacement flow, so the run
    /// ends there: the threaded shape first, then the serial one.
    #[test]
    #[should_panic(expected = "the source gave out")]
    fn a_serial_routed_run_may_ask_more_than_a_materialised_run_holds() {
        let cfg = RoutedBenchConfig {
            ticks: (MAX_WORKLOAD_ITEMS / 4) as usize + 1,
            requests_per_tick: 1,
            flows_per_route: 2,
            shards: 2,
            ..small_routed()
        };
        let run = |source: &GivesOut, parallelism| {
            routed_closed_loop_with_parallelism(&cfg, source, parallelism)
        };
        let threaded = gives_out_at(4 * 2 + 1, |source| run(source, 4));
        assert_eq!(threaded, "the source gave out");
        let _ = with_workers(1, || run(&giving_out(4 * 2 + 1), 1));
    }

    /// A threaded run is held to `MAX_RUN_ITEMS` over what it draws, as a
    /// serial run is: a link of 2¹⁸ + 1 flows over 1 024 ticks draws
    /// 1 024 rate samples past `MAX_WORKLOAD_ITEMS`. Both shapes
    /// validate it and start to generate it, here on a source that gives
    /// out at its first replacement flow, so the run ends there: the
    /// serial shape first, then the threaded one.
    #[test]
    #[should_panic(expected = "the source gave out")]
    fn a_threaded_run_may_draw_more_than_it_holds() {
        let flows = (1 << 18) + 1;
        let cfg = BenchConfig {
            links: 1,
            flows_per_link: flows,
            ticks: 1024,
            requests_per_tick: 1,
            shards: 2,
            ..small()
        };
        let run = |source: &GivesOut, parallelism| {
            closed_loop_with_parallelism(&cfg, source, parallelism)
        };
        assert_eq!(
            gives_out_at(flows + 1, |source| run(source, 1)),
            "the source gave out"
        );
        with_workers(1, || run(&giving_out(flows + 1), 4)).unwrap();
    }

    /// [`Shape::run`] of `windows()`, collecting every decision, decides
    /// each sequence's bytes as `replay_serial` decides `whole`, the run
    /// materialised, on every one of `shapes`.
    fn shape_runs_match<W, G>(
        whole: &W,
        plane: impl Fn(usize) -> W::PlaneConfig,
        windows: impl Fn() -> G,
        shapes: &[Shape],
    ) where
        W: Replay,
        G: Windows + Send,
        G::Workload: Replay<PlaneConfig = W::PlaneConfig, Logic = W::Logic> + Send,
    {
        let make = || certainty_equivalent_factory(1e-2, 2.0);
        let cfg = ReplayConfig {
            plane: plane(1),
            producers: 1,
            stamp_latency: false,
        };
        let reference = replay_serial(&cfg, make(), whole).unwrap();
        for shape in shapes {
            let sink = || Collect::new(whole.groups());
            let plane = plane(shape.shards);
            let run = shape.run(windows(), &plane, make(), LATENCY_SAMPLES, sink);
            let (replayed, _, events) = run.unwrap();
            assert_eq!(events, whole.events(), "{shape:?}");
            same_bytes(&replayed.into(), &reference, &format!("{shape:?}"));
        }
    }

    /// The threaded shape decides every link's and route's bytes as
    /// `replay_serial` decides the run materialised, at shards {2, 4} ×
    /// producers {1, 2}: through its step in windows of 1 tick, 7 ticks
    /// and the whole run, and through [`Shape::run`], as the bench runs
    /// it; on the single-link plane of 5 links, and on parking-lot:3 and
    /// star:3 with and without measurement noise.
    #[test]
    fn the_threaded_shape_decides_the_materialised_bytes() {
        let model = model();
        let make = || certainty_equivalent_factory(1e-2, 2.0);
        let shapes = [(2, 1), (2, 2), (4, 1), (4, 2)].map(|(shards, producers)| {
            let shape = Shape::resolve(shards, producers, 4).unwrap();
            assert!(matches!(shape.step, Step::Threaded { .. }));
            shape
        });
        let steps = shapes.map(|shape| (shape.shards, shape.step));
        let load = RequestLoad {
            model: &model,
            cfg: RequestLoadConfig {
                links: 5,
                flows_per_link: 6,
                ticks: 30,
                tick: 0.4,
                requests_per_tick: 3,
                mean_holding: 4.0,
                seed: 3,
            },
        };
        let plane = |shards| PlaneConfig {
            shards,
            capacity: 8.0,
            ring_capacity: 16,
            ..PlaneConfig::default()
        };
        let whole = SessionBuilder::new().run(&load).unwrap();
        let windows = || load.windows().unwrap();
        windowed_matches_materialised(&whole, plane, make(), windows, 30, &steps);
        shape_runs_match(&whole, plane, windows, &shapes);
        let topologies = [Topology::parking_lot(3, 14.0), Topology::star(3, 18.0)];
        for topology in topologies {
            for noise_sd in [0.0, 0.05] {
                let load = RoutedLoad {
                    model: &model,
                    cfg: RoutedLoadConfig {
                        topology: Arc::new(topology.clone()),
                        flows_per_route: 5,
                        ticks: 30,
                        tick: 0.4,
                        requests_per_tick: 2,
                        mean_holding: 4.0,
                        noise_sd,
                        seed: 11,
                    },
                };
                let plane = |shards| RoutedPlaneConfig {
                    shards,
                    ring_capacity: 16,
                    ..RoutedPlaneConfig::default()
                };
                let whole = SessionBuilder::new().run(&load).unwrap();
                let cfg = ReplayConfig {
                    plane: plane(1),
                    ..ReplayConfig::default()
                };
                let reference = replay_serial(&cfg, make(), &whole).unwrap();
                let (admitted, decisions) = (reference.admitted, reference.decisions);
                assert!(
                    0 < admitted && admitted < decisions,
                    "{admitted} of {decisions}"
                );
                let windows = || load.windows().unwrap();
                windowed_matches_materialised(&whole, plane, make(), windows, 30, &steps);
                shape_runs_match(&whole, plane, windows, &shapes);
            }
        }
    }

    #[test]
    fn a_run_without_requests_reports_zeros() {
        let cfg = BenchConfig {
            requests_per_tick: 0,
            shards: 2,
            ..small()
        };
        // The serial fallback, then the threaded shape.
        for parallelism in [1, 4] {
            let report = closed_loop_with_parallelism(&cfg, &model(), parallelism).unwrap();
            assert_eq!((report.decisions, report.latency_samples), (0, 0));
            assert_eq!(
                (report.p50_ns, report.p99_ns, report.mean_ns),
                (0.0, 0.0, 0.0)
            );
            assert_eq!(report.events, 3 * 10);
        }
    }

    #[test]
    fn zero_shapes_are_rejected() {
        let cfg = BenchConfig {
            shards: 0,
            ..small()
        };
        assert_eq!(
            closed_loop_with_parallelism(&cfg, &model(), 1).unwrap_err(),
            BenchError::Serve(ServeError::ZeroShards)
        );
        let cfg = BenchConfig {
            links: 0,
            ..small()
        };
        assert!(matches!(
            closed_loop_with_parallelism(&cfg, &model(), 1),
            Err(BenchError::Config(ConfigError::ZeroReplications))
        ));
    }

    #[test]
    fn bad_memory_time_scale_is_a_typed_error() {
        for t_m in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = BenchConfig { t_m, ..small() };
            assert!(matches!(
                closed_loop_with_parallelism(&cfg, &model(), 1),
                Err(BenchError::BadMemory { .. })
            ));
            let cfg = RoutedBenchConfig {
                t_m,
                ..small_routed()
            };
            assert!(matches!(
                routed_closed_loop_with_parallelism(&cfg, &model(), 1),
                Err(BenchError::BadMemory { .. })
            ));
        }
    }

    /// A report's latency figures are those of the stamped samples, a
    /// saturated one included: `quantile`'s p50 and p99, and the mean
    /// of their exact integer sum.
    #[test]
    fn latency_figures_are_the_samples_statistics() {
        assert_eq!(latency_figures(&[]), (0.0, 0.0, 0.0));
        let latencies = [57, u64::MAX, 1 << 20, 40, 57, 2];
        let ns: Vec<f64> = latencies.iter().map(|&ns| ns as f64).collect();
        let (p50, p99, mean) = latency_figures(&latencies);
        assert_eq!(p50.to_bits(), quantile(&ns, 0.5).to_bits());
        assert_eq!(p99.to_bits(), quantile(&ns, 0.99).to_bits());
        let sum = u128::from(u64::MAX) + 57 + (1 << 20) + 40 + 57 + 2;
        assert_eq!(mean, sum as f64 / 6.0);
    }

    #[test]
    fn bad_probability_is_a_typed_error() {
        for p_ce in [0.0, 1.0, f64::NAN] {
            let cfg = BenchConfig { p_ce, ..small() };
            assert!(matches!(
                closed_loop_with_parallelism(&cfg, &model(), 1),
                Err(BenchError::BadProbability { .. })
            ));
            let cfg = RoutedBenchConfig {
                p_ce,
                ..small_routed()
            };
            assert!(matches!(
                routed_closed_loop_with_parallelism(&cfg, &model(), 1),
                Err(BenchError::BadProbability { .. })
            ));
        }
    }

    /// The shape is checked before the single-core gate can shrink it,
    /// so the same command fails the same way on every host.
    #[test]
    fn oversized_shapes_are_rejected_on_any_host() {
        for parallelism in [1, 4] {
            let cfg = BenchConfig {
                shards: MAX_SHARDS + 1,
                ..small()
            };
            assert_eq!(
                closed_loop_with_parallelism(&cfg, &model(), parallelism).unwrap_err(),
                BenchError::Serve(ServeError::TooManyShards {
                    got: MAX_SHARDS + 1,
                    max: MAX_SHARDS
                })
            );
            let cfg = RoutedBenchConfig {
                producers: MAX_PRODUCERS + 1,
                ..small_routed()
            };
            assert_eq!(
                routed_closed_loop_with_parallelism(&cfg, &model(), parallelism).unwrap_err(),
                BenchError::Serve(ServeError::TooManyProducers {
                    got: MAX_PRODUCERS + 1,
                    max: MAX_PRODUCERS
                })
            );
        }
    }
}
