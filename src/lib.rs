//! # mbac — facade crate
//!
//! Re-exports the member crates of the workspace under one roof, so the
//! examples and integration tests (and downstream users who want a
//! single dependency) can write `mbac::core::...`, `mbac::sim::...`,
//! etc. See the individual crates for the real documentation:
//!
//! * [`core`] (= `mbac-core`) — estimators, admission criteria, the
//!   Grossglauser–Tse theory, robust design, utility-based QoS;
//! * [`metrics`] (= `mbac-metrics`) — aggregated, mergeable simulation
//!   instruments (counters, gauges, histograms, series);
//! * [`traffic`] (= `mbac-traffic`) — RCBR (on–off included) / AR(1) /
//!   fGn / trace sources;
//! * [`sim`] (= `mbac-sim`) — the discrete-event simulator and the
//!   three load-model harnesses;
//! * [`num`] (= `mbac-num`) — the numerics substrate.

pub use mbac_core as core;
pub use mbac_metrics as metrics;
pub use mbac_num as num;
pub use mbac_sim as sim;
pub use mbac_traffic as traffic;
