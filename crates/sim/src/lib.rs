//! # mbac-sim — discrete-event simulator for MBAC on a bufferless link
//!
//! Implements the paper's three load models as [`session::Scenario`]
//! impls driven by one generic [`session::SessionBuilder`] pipeline, with
//! the §5.2 measurement methodology built in:
//!
//! * [`runner::ImpulsiveLoad`] — impulsive load with infinite or
//!   exponential holding times (§3);
//! * [`runner::ContinuousLoad`] — continuous (infinite-arrival-rate)
//!   load, the paper's most stringent test (§4);
//! * [`arrivals::PoissonLoad`] — finite Poisson arrivals, the realistic
//!   relaxation;
//! * [`requests::RoutedLoad`] / [`network::RoutedNetworkLoad`] — routed
//!   multi-hop topologies: open-loop per-link event streams for the
//!   decision plane, and the closed-loop network simulation where
//!   admission composes across every hop of a [`Topology`] route;
//!
//! all run through a [`session::SessionBuilder`] that owns worker
//! fan-out, per-replication RNG stream derivation, deterministic
//! merging, and optional metrics collection. The substrate underneath:
//! a deterministic [`events::EventQueue`], the [`flows::FlowTable`]
//! lifecycle manager, the [`controller::MbacController`]
//! estimator/policy bundle and the [`controller::LinkAdmission`] link
//! rule built on it, and [`metrics::OverflowMeter`] implementing
//! the paper's termination criteria (±20% CI at 95%, or the
//! Gaussian-tail fallback when the overflow probability is ≥ 2 orders
//! below target).
//!
//! Everything is seed-deterministic: identical configurations with
//! identical seeds reproduce bit-identical reports, for any worker
//! count and either flow engine.

#![warn(missing_docs)]

pub mod arrivals;
pub mod calendar;
pub mod controller;
pub mod events;
pub mod flows;
pub mod metrics;
pub mod network;
pub mod requests;
pub mod runner;
pub mod session;
pub mod telemetry;

pub use arrivals::{PoissonConfig, PoissonLoad, PoissonReport};
pub use calendar::DepartureCalendar;
pub use controller::{AdmissionEngine, LinkAdmission, MbacController, MeasuredSumController};
pub use events::EventQueue;
pub use flows::FlowTable;
pub use metrics::{OverflowMeter, PfEstimate, PfMethod, StopReason, UtilityMeter};
pub use network::{
    LinkStats, RouteStats, RoutedNetworkConfig, RoutedNetworkLoad, RoutedNetworkReport,
};
pub use requests::{
    LinkEvent, RequestLoad, RequestLoadConfig, RequestWindows, RoutedEvent, RoutedLoad,
    RoutedLoadConfig, RoutedWindow, RoutedWindows, RoutedWorkload, ServeWorkload, SnapshotWindow,
    Windows, MAX_RUN_ITEMS, MAX_WORKLOAD_ITEMS,
};
pub use runner::{
    ContinuousConfig, ContinuousLoad, ContinuousReport, ImpulsiveConfig, ImpulsiveLoad,
    ImpulsiveReport, PhaseReport, PhasedLoad,
};
pub use session::{
    rep_seed, ConfigError, Engine, MetricsMode, RepContext, Scenario, SessionBuilder,
};
pub use telemetry::{EntryGuard, MetricsSink, SimMetrics, TickEntry};

pub use mbac_core::topology::{LinkId, RouteId, Topology};
