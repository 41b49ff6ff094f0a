//! # mbac-serve — the sharded admission decision plane
//!
//! Turns the paper's O(1) admission controller into a service shape:
//!
//! * [`plane`] — the sharded skeleton, generic over a
//!   [`plane::LinkLogic`]: per-link [`mbac_sim::MbacController`] state
//!   hashed across [`plane::ShardOf`] shards, each fed through one
//!   [`mbac_metrics::IngestRing`] (bounded, lock-free, per-producer
//!   FIFO, loss-free, visible backpressure) and drained in batch. With
//!   the one-link rule [`plane::SingleHop`] it is the
//!   [`plane::DecisionPlane`];
//! * [`routed`] — the multi-hop rule [`routed::TwoPhase`] for the same
//!   skeleton: a deterministic two-phase reserve/commit joins the
//!   per-hop votes of a routed request even when its hops land on
//!   different shards, with all-or-nothing occupancy so a rejection
//!   never leaks provisional load into earlier hops;
//! * [`replay`] — the single-threaded serial reference and the
//!   multi-producer sharded replay, each generic over the
//!   [`replay::Replay`] workload (a Scenario-generated
//!   [`mbac_sim::ServeWorkload`] or [`mbac_sim::RoutedWorkload`]);
//! * [`sink`] — where the replay drivers put each decision as it is
//!   made: a collecting sink (one sequence per link or route, for the
//!   invariance suites) or a tally (totals plus the stamped latencies,
//!   for the bench) — the drivers keep nothing themselves;
//! * [`bench::closed_loop_with_parallelism`] — the closed-loop load
//!   generator reporting sustained decisions/sec and the p50/p99/mean
//!   decision latency of a fixed budget of stamped requests, computed on
//!   the samples themselves, with the single-core gate
//!   (`skipped_single_core`) for hosts where threaded throughput would
//!   be meaningless.
//!
//! # Correctness bar
//!
//! Admission decisions under concurrency must match the serial
//! reference *exactly*: for any shard count, producer count, and a
//! model on its kernel or not, each link's admit/reject sequence (with its admissible
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
    DecisionPlane, IngestHandle, Instruments, LinkLogic, Plane, PlaneConfig, ServeError, Shard,
    ShardEvent, ShardOf, SingleHop, MAX_PRODUCERS, MAX_RING_CAPACITY, MAX_SHARDS,
};
pub use replay::{replay_serial, replay_threaded, Replay, ReplayConfig, ReplayOutcome, Stamps};
pub use routed::{
    HopDecision, Hops, RouteDecision, RouteTable, RoutedIngestHandle, RoutedPlane,
    RoutedPlaneConfig, RoutedReplayConfig, RoutedReplayOutcome, RoutedShard, RoutedShardEvent,
    TwoPhase,
};
pub use sink::Decided;
