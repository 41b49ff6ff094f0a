//! # mbac-traffic — traffic source models for the MBAC framework
//!
//! Stationary per-flow bandwidth processes used to drive the simulator
//! and the paper's experiments:
//!
//! * [`rcbr`] — the paper's §5.2 simulation source: piecewise-constant
//!   rates with a Gaussian (or any [`marginal`]) marginal and exponential
//!   renegotiation intervals, giving exactly the OU autocorrelation of
//!   eqn (31); the classical on–off voice source, the two-state Markov
//!   fluid of Assumption B.6, is one of them ([`RcbrModel::on_off`]);
//! * [`ar1`] — a sampled Ornstein–Uhlenbeck source (same second-order
//!   statistics as RCBR, continuous path structure);
//! * [`fgn`] — exact fractional Gaussian noise (Hosking and
//!   Davies–Harte), the substrate for genuine long-range dependence;
//! * [`trace`] / [`starwars`] — trace-driven playback and the synthetic
//!   Starwars-like LRD trace substituting for the paper's MPEG-1 movie
//!   (see DESIGN.md §4 for the substitution argument);
//! * [`validate`] — empirical Hurst and correlation-time estimators
//!   certifying the synthetic traffic's properties.
//!
//! All sources implement [`process::RateProcess`] (object-safe, explicit
//! RNG, analytic moments) and are spawned per-flow through
//! [`process::SourceModel`].

#![warn(missing_docs)]

pub mod ar1;
pub mod batch;
pub mod fgn;
pub mod marginal;
pub mod process;
pub mod rcbr;
pub mod starwars;
pub mod trace;
pub mod validate;

pub use ar1::{Ar1Config, Ar1Model, Ar1Source};
pub use batch::{BatchKey, DynBatch, FlowBatch};
pub use fgn::{davies_harte, fgn_autocovariance, hosking};
pub use marginal::Marginal;
pub use process::{RateProcess, SourceModel};
pub use rcbr::{RcbrConfig, RcbrModel, RcbrSource};
pub use starwars::{generate_starwars_like, StarwarsConfig, MAX_SLOTS};
pub use trace::{Trace, TraceModel, TraceSource};
pub use validate::{fit_correlation_timescale, hurst_rs, hurst_variance_time};
