//! # mbac-experiments — figure-reproduction harness
//!
//! One binary per quantitative figure of Grossglauser & Tse (see
//! DESIGN.md §3 for the experiment index). This library holds the
//! shared machinery: parameter sweeps run in parallel across OS threads,
//! results written as CSV under `results/`, and compact ASCII rendering
//! of the series so each binary's stdout is directly comparable to the
//! paper's figure.

#![warn(missing_docs)]

pub mod figures;
pub mod output;
pub mod scenarios;
pub mod topology;

pub use mbac_num::parallel::parallel_map;
pub use output::{ascii_plot, write_csv, Table};

/// Whether quick mode is on (`MBAC_QUICK=1`): experiment binaries then
/// shrink their sample budgets for smoke runs (CI, benches) at the cost
/// of statistical precision.
pub fn quick_mode() -> bool {
    std::env::var("MBAC_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Picks `full` normally, `quick` under [`quick_mode`]. A fractional
/// `MBAC_SCALE` (e.g. `0.2`) scales the full budget down — useful on
/// small machines where the full Monte Carlo budgets are impractical —
/// but never below the quick budget.
pub fn budget(full: u64, quick: u64) -> u64 {
    if quick_mode() {
        return quick;
    }
    match std::env::var("MBAC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        Some(scale) if scale > 0.0 => ((full as f64 * scale) as u64).max(quick),
        _ => full,
    }
}

/// Standard paper parameters shared by the experiment binaries.
pub mod paper {
    /// Coefficient of variation σ/μ of the simulation sources (§5.2).
    pub const COV: f64 = 0.3;
    /// Per-flow mean rate (normalization; capacity is `n·MEAN`).
    pub const MEAN: f64 = 1.0;
    /// The QoS target used throughout the evaluation figures.
    pub const P_Q: f64 = 1e-3;
    /// Fig. 5's certainty-equivalent target.
    pub const FIG5_P_CE: f64 = 1e-3;
    /// Fig. 5's holding time.
    pub const FIG5_T_H: f64 = 1000.0;
    /// Fig. 5's correlation time-scale.
    pub const FIG5_T_C: f64 = 1.0;
}
