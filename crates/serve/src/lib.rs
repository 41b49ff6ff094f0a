//! # mbac-serve — the sharded admission decision plane
//!
//! Turns the paper's O(1) admission controller into a service shape:
//!
//! * [`plane::DecisionPlane`] — per-link [`mbac_sim::MbacController`]
//!   state hashed across shards, fed through one
//!   [`mbac_metrics::IngestRing`] per shard (bounded, lock-free,
//!   per-producer FIFO, loss-free, visible backpressure), drained and
//!   decided in batch ([`plane::Shard::decide_batch`] applies every
//!   pending measurement before any decision);
//! * [`replay`] — the single-threaded serial reference and the
//!   multi-producer sharded replay of a Scenario-generated
//!   [`mbac_sim::ServeWorkload`];
//! * [`sink`] — where the replay drivers put each decision as it is
//!   made: a collecting sink (per-link / per-route sequences, for the
//!   invariance suites) or a tally (totals plus an exact
//!   [`LatencyTally`], for the bench) — the drivers keep nothing
//!   themselves;
//! * [`routed`] — multi-hop decisions over the same sharded plane: a
//!   deterministic two-phase reserve/commit joins the per-hop votes of
//!   a routed request even when its hops land on different shards, with
//!   all-or-nothing occupancy so a rejection never leaks provisional
//!   load into earlier hops;
//! * [`bench::closed_loop_with_parallelism`] — the closed-loop load
//!   generator reporting p50/p99 decision latency and sustained
//!   decisions/sec, with the single-core gate (`skipped_single_core`)
//!   for hosts where threaded throughput would be meaningless.
//!
//! # Correctness bar
//!
//! Admission decisions under concurrency must match the serial
//! reference *exactly*: for any shard count, producer count, and flow
//! engine, each link's admit/reject sequence (with its admissible
//! counts, bit for bit) equals the single-threaded replay's. The
//! argument is per-link order preservation — see [`plane`]'s module
//! docs — and `tests/invariance.rs` proves it property-based.

#![warn(missing_docs)]

pub mod bench;
pub mod plane;
pub mod replay;
pub mod routed;
pub mod sink;

pub use bench::{
    closed_loop_with_parallelism, host_parallelism, routed_closed_loop_with_parallelism,
    BenchConfig, BenchError, BenchReport, RoutedBenchConfig,
};

pub use plane::{
    certainty_equivalent_factory, plane_snapshot, shard_of, ControllerFactory, Decision,
    DecisionPlane, IngestHandle, PlaneConfig, ServeError, Shard, ShardEvent, MAX_PRODUCERS,
    MAX_SHARDS,
};
pub use replay::{replay_serial, replay_threaded, ReplayConfig, ReplayOutcome};
pub use routed::{
    routed_plane_snapshot, routed_replay_serial, routed_replay_threaded, HopDecision,
    RouteDecision, RouteTable, RoutedIngestHandle, RoutedPlane, RoutedPlaneConfig,
    RoutedReplayConfig, RoutedReplayOutcome, RoutedShard, RoutedShardEvent,
};
pub use sink::LatencyTally;
