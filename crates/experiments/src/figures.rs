//! Parameterized figure builders.
//!
//! Each `figN_rows` function computes the data behind one paper figure
//! — the parameter grid, seeds and models of the runner's `figN` entry,
//! with the Monte Carlo budget (and, for the trace figures, the trace
//! length) as an argument. The matching `figN_table` shapes rows into
//! the exact [`Table`] the runner writes to `results/figN.csv`, so the
//! golden-snapshot tests in `tests/golden.rs` exercise the same pipeline
//! the runner ships, and `figN` is the entry's run at the runner's
//! budget.

use crate::output::Table;
use crate::runner::{pf_methods, Outcome};
use crate::{paper, parallel_map, Budget};
use mbac_core::params::QosTarget;
use mbac_core::theory::continuous::ContinuousModel;
use mbac_core::theory::invert::{invert_pce, InvertMethod};
use mbac_sim::ContinuousReport;
use mbac_traffic::starwars::{generate_starwars_like, StarwarsConfig};
use mbac_traffic::trace::Trace;
use mbac_traffic::{hurst_rs, hurst_variance_time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::scenarios::{ContinuousScenario, TraceScenario};

/// One fig-5 grid point: theory (both formulas) and simulation at a
/// memory window `T_m`.
pub struct Fig5Row {
    /// Estimator memory.
    pub t_m: f64,
    /// Closed-form prediction, eqn (38).
    pub pf_eqn38: f64,
    /// Numerically-integrated prediction, eqn (37).
    pub pf_eqn37: f64,
    /// Simulation outcome.
    pub report: ContinuousReport,
}

/// Fig. 5 sweep — `p_f` vs `T_m` at `n = 1000`, `T_h = 1000`.
pub fn fig5_rows(max_samples: u64) -> Vec<Fig5Row> {
    let n: f64 = 1000.0;
    let t_ms: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 31.6, 64.0];
    parallel_map(t_ms, |&t_m| {
        let sc = ContinuousScenario {
            n,
            t_h: paper::FIG5_T_H,
            t_c: paper::FIG5_T_C,
            t_m,
            p_ce: paper::FIG5_P_CE,
            p_q: paper::FIG5_P_CE,
            max_samples,
            seed: 0x0F15 + (t_m * 64.0) as u64,
        };
        Fig5Row {
            t_m,
            pf_eqn38: sc.theory_pf_closed(),
            pf_eqn37: sc.theory_pf_general(),
            report: sc.run(),
        }
    })
}

/// The `results/fig5.csv` layout.
pub fn fig5_table(rows: &[Fig5Row]) -> Table {
    let mut table = Table::new(vec![
        "t_m", "pf_eqn38", "pf_eqn37", "pf_sim", "util", "samples",
    ]);
    for r in rows {
        table.push(vec![
            r.t_m,
            r.pf_eqn38,
            r.pf_eqn37,
            r.report.pf.value,
            r.report.mean_utilization,
            r.report.pf.samples as f64,
        ]);
    }
    table
}

/// The `fig5` entry.
pub(crate) fn fig5(b: &Budget) -> Outcome {
    let rows = fig5_rows(b.pick(20_000, 400));
    let methods = pf_methods(rows.iter().map(|r| &r.report.pf));
    Outcome::new(vec![("fig5", fig5_table(&rows))], vec![methods])
}

/// One fig-6 grid point: the adjusted certainty-equivalent target.
pub struct Fig6Row {
    /// System size.
    pub n: f64,
    /// Mean holding time.
    pub t_h: f64,
    /// Estimator memory.
    pub t_m: f64,
    /// `ln p_ce` of the adjusted target.
    pub ln_pce: f64,
    /// The adjusted target itself.
    pub pce: f64,
    /// The matching Gaussian quantile.
    pub alpha_ce: f64,
    /// Whether the inversion succeeded (`false` = repair-dominated, no
    /// adjustment needed; the row then carries the nominal `p_q`).
    pub inverted: bool,
}

/// Fig. 6 grid — inversion of eqn (38) over `(n, T_h) × T_m`. Pure
/// theory; no Monte Carlo budget.
pub fn fig6_rows() -> Vec<Fig6Row> {
    let p_q = paper::P_Q;
    let t_c = paper::FIG5_T_C;
    let grid: Vec<(f64, f64)> = vec![(100.0, 1e3), (100.0, 1e4), (1000.0, 1e3), (1000.0, 1e4)];
    let t_ms: Vec<f64> = (0..=14).map(|k| 2f64.powi(k - 2)).collect();
    let mut rows = Vec::new();
    for &(n, t_h) in &grid {
        let model = ContinuousModel::new(paper::COV, t_h / n.sqrt(), t_c);
        for &t_m in &t_ms {
            rows.push(
                match invert_pce(&model, t_m, p_q, InvertMethod::Separated) {
                    Ok(adj) => Fig6Row {
                        n,
                        t_h,
                        t_m,
                        ln_pce: adj.ln_pce,
                        pce: adj.p_ce,
                        alpha_ce: adj.alpha_ce,
                        inverted: true,
                    },
                    Err(_) => Fig6Row {
                        n,
                        t_h,
                        t_m,
                        ln_pce: p_q.ln(),
                        pce: p_q,
                        alpha_ce: mbac_num::inv_q(p_q),
                        inverted: false,
                    },
                },
            );
        }
    }
    rows
}

/// The `results/fig6.csv` layout.
pub fn fig6_table(rows: &[Fig6Row]) -> Table {
    let mut table = Table::new(vec!["n", "t_h", "t_m", "ln_pce", "pce", "alpha_ce"]);
    for r in rows {
        table.push(vec![r.n, r.t_h, r.t_m, r.ln_pce, r.pce, r.alpha_ce]);
    }
    table
}

/// The `fig6` entry, with each `(n, T_h)`'s `T̃_h` and the rows no
/// adjustment was needed for.
pub(crate) fn fig6(_: &Budget) -> Outcome {
    let rows = fig6_rows();
    let curves = rows.iter().filter(|r| r.t_m == rows[0].t_m);
    let tilde: Vec<String> = curves
        .map(|r| format!("{:.1} at n = {}, T_h = {}", r.t_h / r.n.sqrt(), r.n, r.t_h))
        .collect();
    let repaired: Vec<String> = (rows.iter().filter(|r| !r.inverted))
        .map(|r| format!("(n = {}, T_h = {}, T_m = {})", r.n, r.t_h, r.t_m))
        .collect();
    let notes = vec![
        format!("T̃_h = {}", tilde.join("; ")),
        format!(
            "repair-dominated rows, which need no adjustment and carry p_q: [{}]",
            repaired.join(", ")
        ),
    ];
    Outcome::new(vec![("fig6", fig6_table(&rows))], notes)
}

/// One fig-7 point: the simulator run at the fig-6-adjusted target.
pub struct Fig7Row {
    /// Estimator memory.
    pub t_m: f64,
    /// The adjusted `p_ce` fed to the controller.
    pub pce_adjusted: f64,
    /// Simulation outcome.
    pub report: ContinuousReport,
}

/// Fig. 7 sweep — simulated `p_f` under the adjusted target.
pub fn fig7_rows(max_samples: u64) -> Vec<Fig7Row> {
    let p_q = paper::P_Q;
    let n: f64 = 1000.0;
    let t_h = 1000.0;
    let t_c = paper::FIG5_T_C;
    let t_h_tilde = t_h / n.sqrt();
    let t_ms: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0, 31.6, 64.0];
    parallel_map(t_ms, move |&t_m| {
        let model = ContinuousModel::new(paper::COV, t_h_tilde, t_c);
        let adjusted = invert_pce(&model, t_m, p_q, InvertMethod::Separated)
            .map(|a| a.p_ce)
            .unwrap_or(p_q)
            .max(1e-300);
        let sc = ContinuousScenario {
            n,
            t_h,
            t_c,
            t_m,
            p_ce: adjusted,
            p_q,
            max_samples,
            seed: 0x0F17 + (t_m * 64.0) as u64,
        };
        Fig7Row {
            t_m,
            pce_adjusted: adjusted,
            report: sc.run(),
        }
    })
}

/// The `results/fig7.csv` layout.
pub fn fig7_table(rows: &[Fig7Row]) -> Table {
    let mut table = Table::new(vec!["t_m", "pce_adjusted", "pf_sim", "target", "util"]);
    for r in rows {
        table.push(vec![
            r.t_m,
            r.pce_adjusted,
            r.report.pf.value,
            paper::P_Q,
            r.report.mean_utilization,
        ]);
    }
    table
}

/// The `fig7` entry.
pub(crate) fn fig7(b: &Budget) -> Outcome {
    let rows = fig7_rows(b.pick(30_000, 400));
    let methods = pf_methods(rows.iter().map(|r| &r.report.pf));
    Outcome::new(vec![("fig7", fig7_table(&rows))], vec![methods])
}

/// One fig-9 grid point of the theoretical `(T_m/T̃_h, T_c)` surface.
pub struct Fig9Row {
    /// Memory as a fraction of the critical time-scale.
    pub ratio: f64,
    /// Traffic correlation time-scale.
    pub t_c: f64,
    /// Predicted overflow probability, eqn (37).
    pub pf: f64,
}

/// Fig. 9 grid — numerical integration of eqn (37). Pure theory.
pub fn fig9_rows() -> Vec<Fig9Row> {
    let alpha = QosTarget::new(paper::P_Q).alpha();
    let t_h_tilde = 31.6;
    let ratios: Vec<f64> = vec![0.01, 0.05, 0.1, 0.25, 0.5, 1.0];
    let t_cs: Vec<f64> = vec![0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];
    let mut rows = Vec::new();
    for &r in &ratios {
        for &t_c in &t_cs {
            let model = ContinuousModel::new(paper::COV, t_h_tilde, t_c);
            rows.push(Fig9Row {
                ratio: r,
                t_c,
                pf: model.pf_with_memory(alpha, r * t_h_tilde),
            });
        }
    }
    rows
}

/// The `results/fig9.csv` layout.
pub fn fig9_table(rows: &[Fig9Row]) -> Table {
    let mut table = Table::new(vec!["tm_over_thtilde", "t_c", "pf"]);
    for r in rows {
        table.push(vec![r.ratio, r.t_c, r.pf]);
    }
    table
}

/// The `fig9` entry.
pub(crate) fn fig9(_: &Budget) -> Outcome {
    Outcome::new(vec![("fig9", fig9_table(&fig9_rows()))], vec![])
}

/// One fig-10 grid point: simulation over the `(T_m/T̃_h, T_c)` plane.
pub struct Fig10Row {
    /// Memory as a fraction of the critical time-scale.
    pub ratio: f64,
    /// Traffic correlation time-scale.
    pub t_c: f64,
    /// Simulation outcome.
    pub report: ContinuousReport,
}

/// The `T_c` column grid shared by fig-10's matrix printout.
pub const FIG10_T_CS: [f64; 5] = [0.1, 0.3, 1.0, 3.0, 10.0];
/// The `T_m/T̃_h` row grid of fig-10.
pub const FIG10_RATIOS: [f64; 4] = [0.01, 0.1, 0.5, 1.0];

/// Fig. 10 sweep — simulated counterpart of the fig-9 surface.
pub fn fig10_rows(max_samples: u64) -> Vec<Fig10Row> {
    let n: f64 = 400.0;
    let t_h = 400.0 * 31.6 / 20.0;
    let t_h_tilde = t_h / n.sqrt();
    let mut points = Vec::new();
    for &r in &FIG10_RATIOS {
        for &t_c in &FIG10_T_CS {
            points.push((r, t_c));
        }
    }
    parallel_map(points, move |&(r, t_c)| {
        let sc = ContinuousScenario {
            n,
            t_h,
            t_c,
            t_m: r * t_h_tilde,
            p_ce: paper::P_Q,
            p_q: paper::P_Q,
            max_samples,
            seed: 0x0F20 + (r * 1000.0) as u64 + (t_c * 17.0) as u64,
        };
        Fig10Row {
            ratio: r,
            t_c,
            report: sc.run(),
        }
    })
}

/// The `results/fig10.csv` layout.
pub fn fig10_table(rows: &[Fig10Row]) -> Table {
    let mut table = Table::new(vec!["tm_over_thtilde", "t_c", "pf_sim", "util"]);
    for r in rows {
        table.push(vec![
            r.ratio,
            r.t_c,
            r.report.pf.value,
            r.report.mean_utilization,
        ]);
    }
    table
}

/// The `fig10` entry.
pub(crate) fn fig10(b: &Budget) -> Outcome {
    let rows = fig10_rows(b.pick(8_000, 200));
    Outcome::new(vec![("fig10", fig10_table(&rows))], vec![])
}

/// The deterministic synthetic Starwars-like trace shared by the
/// fig-11/fig-12 sweeps (seed `0x57A7`, `slots` samples).
pub fn lrd_trace(slots: usize) -> Arc<Trace> {
    let cfg = StarwarsConfig {
        slots,
        ..StarwarsConfig::default()
    };
    Arc::new(generate_starwars_like(
        &cfg,
        &mut StdRng::seed_from_u64(0x57A7),
    ))
}

/// One fig-11/fig-12 point of the holding-time sweep.
pub struct FigLrdRow {
    /// Mean holding time.
    pub t_h: f64,
    /// The critical time-scale `T̃_h` at this `T_h`.
    pub t_h_tilde: f64,
    /// The certainty-equivalent target the controller ran with (the
    /// nominal `p_q` for fig-11, the eqn (38)-inverted value for
    /// fig-12).
    pub p_ce: f64,
    /// Simulation outcome.
    pub report: ContinuousReport,
}

/// The holding-time sweep shared by figs 11–12.
pub const LRD_T_HS: [f64; 6] = [8_000.0, 4_000.0, 2_000.0, 1_000.0, 500.0, 250.0];

/// Fig. 11 sweep — LRD trace under memoryless estimation.
pub fn fig11_rows(trace: &Arc<Trace>, max_samples: u64) -> Vec<FigLrdRow> {
    let p_q = paper::P_Q;
    let n: f64 = 400.0;
    let trace = trace.clone();
    parallel_map(LRD_T_HS.to_vec(), move |&t_h| {
        let sc = TraceScenario {
            trace: trace.clone(),
            n,
            t_h,
            t_m: 0.0,
            p_ce: p_q,
            p_q,
            max_samples,
            seed: 0x0F11 + t_h as u64,
        };
        FigLrdRow {
            t_h,
            t_h_tilde: sc.t_h_tilde(),
            p_ce: p_q,
            report: sc.run(),
        }
    })
}

/// The `results/fig11.csv` layout.
pub fn fig11_table(rows: &[FigLrdRow]) -> Table {
    let mut table = Table::new(vec!["t_h", "inv_thtilde", "pf_sim", "target", "util"]);
    for r in rows {
        table.push(vec![
            r.t_h,
            1.0 / r.t_h_tilde,
            r.report.pf.value,
            paper::P_Q,
            r.report.mean_utilization,
        ]);
    }
    table
}

/// The `fig11` entry, with the trace's statistics.
pub(crate) fn fig11(b: &Budget) -> Outcome {
    let trace = lrd_trace(1 << 16);
    let rows = fig11_rows(&trace, b.pick(8_000, 200));
    let stats = format!(
        "synthetic Starwars-like trace: {} slots, mean {:.3}, cov {:.3}, \
         Hurst(vt) {:.2}, Hurst(R/S) {:.2}",
        trace.len(),
        trace.mean(),
        trace.variance().sqrt() / trace.mean(),
        hurst_variance_time(trace.rates()),
        hurst_rs(trace.rates())
    );
    let methods = pf_methods(rows.iter().map(|r| &r.report.pf));
    Outcome::new(vec![("fig11", fig11_table(&rows))], vec![stats, methods])
}

/// Fig. 12 sweep — LRD trace with the robust rule `T_m = T̃_h` and the
/// eqn (38)-inverted target.
pub fn fig12_rows(trace: &Arc<Trace>, max_samples: u64) -> Vec<FigLrdRow> {
    let p_q = paper::P_Q;
    let n: f64 = 400.0;
    let cov = trace.variance().sqrt() / trace.mean();
    let trace = trace.clone();
    parallel_map(LRD_T_HS.to_vec(), move |&t_h| {
        let t_h_tilde = t_h / n.sqrt();
        let model = ContinuousModel::new(cov, t_h_tilde, trace.slot());
        let p_ce = invert_pce(&model, t_h_tilde, p_q, InvertMethod::Separated)
            .map(|a| a.p_ce)
            .unwrap_or(p_q)
            .max(1e-300);
        let sc = TraceScenario {
            trace: trace.clone(),
            n,
            t_h,
            t_m: t_h_tilde,
            p_ce,
            p_q,
            max_samples,
            seed: 0x0F12 + t_h as u64,
        };
        FigLrdRow {
            t_h,
            t_h_tilde,
            p_ce,
            report: sc.run(),
        }
    })
}

/// The `results/fig12.csv` layout.
pub fn fig12_table(rows: &[FigLrdRow]) -> Table {
    let mut table = Table::new(vec![
        "t_h",
        "inv_thtilde",
        "t_m",
        "pce_adj",
        "pf_sim",
        "target",
        "util",
    ]);
    for r in rows {
        table.push(vec![
            r.t_h,
            1.0 / r.t_h_tilde,
            r.t_h_tilde,
            r.p_ce,
            r.report.pf.value,
            paper::P_Q,
            r.report.mean_utilization,
        ]);
    }
    table
}

/// The `fig12` entry.
pub(crate) fn fig12(b: &Budget) -> Outcome {
    let trace = lrd_trace(1 << 16);
    let rows = fig12_rows(&trace, b.pick(10_000, 200));
    let cov = format!("trace cov = {:.3}", trace.variance().sqrt() / trace.mean());
    let methods = pf_methods(rows.iter().map(|r| &r.report.pf));
    Outcome::new(vec![("fig12", fig12_table(&rows))], vec![cov, methods])
}
