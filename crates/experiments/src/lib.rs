//! # mbac-experiments — figure-reproduction harness
//!
//! One table of experiments, [`runner::EXPERIMENTS`], one entry per
//! quantitative claim of Grossglauser & Tse (see DESIGN.md §3 for the
//! index), run by the one `exp` binary. [`figures`] and [`topology`]
//! build the golden-pinned tables, [`studies`] the rest; parameter
//! sweeps run in parallel across OS threads, results are written as CSV
//! under `results/`, and [`output`] renders tables and ASCII plots so the
//! runner's stdout is directly comparable to the paper's figures.

#![warn(missing_docs)]

pub mod figures;
pub mod output;
pub mod runner;
pub mod scenarios;
pub mod studies;
pub mod topology;

pub use mbac_num::parallel::parallel_map;
pub use output::{ascii_plot, write_csv, Table};

/// The Monte Carlo budget a run of experiments works to, as
/// `MBAC_QUICK` and `MBAC_SCALE` set it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// `MBAC_QUICK` is set, and not `0`: every experiment shrinks to
    /// its quick budget for smoke runs (CI, benches) at the cost of
    /// statistical precision.
    pub quick: bool,
    /// `MBAC_SCALE`, when it parses as a positive finite number.
    pub scale: Option<f64>,
}

impl Budget {
    /// The budget the environment sets.
    pub fn from_env() -> Self {
        let scale = std::env::var("MBAC_SCALE").ok();
        Budget {
            quick: std::env::var("MBAC_QUICK").is_ok_and(|v| v != "0"),
            scale: scale
                .and_then(|s| s.parse().ok())
                .filter(|&s: &f64| s > 0.0 && s.is_finite()),
        }
    }

    /// Picks `full` normally, `quick` in quick mode. A fractional
    /// scale (e.g. `0.2`) scales the full budget down — useful on small
    /// machines where the full Monte Carlo budgets are impractical —
    /// but never below the quick budget.
    pub fn pick(&self, full: u64, quick: u64) -> u64 {
        match (self.quick, self.scale) {
            (true, _) => quick,
            (false, Some(scale)) => ((full as f64 * scale) as u64).max(quick),
            (false, None) => full,
        }
    }
}

/// Standard paper parameters shared by the experiments.
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
