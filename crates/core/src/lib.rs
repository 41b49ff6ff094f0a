//! # mbac-core — robust measurement-based admission control
//!
//! The primary contribution of Grossglauser & Tse, *"A Framework for
//! Robust Measurement-Based Admission Control"* (SIGCOMM '97 /
//! UCB-ERL M98/17), as a library:
//!
//! * [`params`] — flow statistics and QoS targets;
//! * [`estimators`] — memoryless, exponentially-filtered (memory `T_m`),
//!   sliding-window and per-class estimators of flow statistics;
//! * [`admission`] — the Gaussian admission criteria: perfect-knowledge,
//!   certainty-equivalent MBAC, peak-rate baseline, and the aggregate
//!   form for heterogeneous flows;
//! * [`theory`] — every closed-form result of the paper: the √2
//!   certainty-equivalence penalty (Prop. 3.3), finite-holding dynamics
//!   (eqn (21)), the Bräker hitting-probability engine (eqn (30)), the
//!   continuous-load overflow formulas with and without memory
//!   (eqns (32)–(39)), target inversion (Fig. 6), and utilization
//!   accounting (eqn (40));
//! * [`robust`] — the §5.3 design procedure: `T_m = T̃_h` plus an
//!   adjusted certainty-equivalent target, robust over unknown traffic
//!   correlation time-scales;
//! * [`topology`] — links, capacities and routes: the networks the
//!   single-link criteria are composed over, one per-link rule applied
//!   at every hop of a route.
//!
//! ## Quick example
//!
//! ```
//! use mbac_core::admission::{AdmissionPolicy, CertaintyEquivalent};
//! use mbac_core::estimators::{Estimator, FilteredEstimator};
//! use mbac_core::params::QosTarget;
//!
//! // An estimator with a 10-second memory window and a certainty-
//! // equivalent controller targeting 1e-3 overflow probability.
//! let mut est = FilteredEstimator::new(10.0);
//! let ctl = CertaintyEquivalent::new(QosTarget::new(1e-3));
//!
//! // Feed a measurement snapshot of per-flow bandwidths...
//! est.observe(0.0, &[0.9, 1.1, 1.0, 0.95, 1.05]);
//!
//! // ...and ask whether a 6th flow fits on a link of capacity 10.
//! let e = est.estimate().unwrap();
//! assert!(ctl.admit(e, 10.0, 5));
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod estimators;
pub mod params;
pub mod robust;
pub mod theory;
pub mod topology;
pub mod utility;

pub use admission::{AdmissionPolicy, CertaintyEquivalent, PeakRate, PerfectKnowledge};
pub use estimators::{Estimate, Estimator, FilteredEstimator, MemorylessEstimator};
pub use params::{FlowStats, QosTarget};
pub use robust::{DesignInputs, RobustDesign};
pub use theory::ContinuousModel;
pub use topology::{hop_u8, LinkId, RouteId, Topology, TopologyError, MAX_ROUTE_HOPS};
pub use utility::UtilityFunction;
