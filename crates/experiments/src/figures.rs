//! The golden-pinned figure entries.
//!
//! Each `figN` is the runner's entry for one paper figure: it runs the
//! figure's parameter grid, seeds and models at a [`Budget`] and builds
//! the exact [`Table`] the runner writes to `results/figN.csv`.
//! `tests/golden.rs` runs these same entries at the quick budget and
//! diffs their tables against the committed fixtures.

use crate::output::Table;
use crate::runner::{pf_methods, Outcome};
use crate::{paper, parallel_map, Budget};
use mbac_core::params::QosTarget;
use mbac_core::theory::continuous::ContinuousModel;
use mbac_core::theory::invert::{invert_pce, InvertMethod};
use mbac_sim::PfEstimate;
use mbac_traffic::starwars::{generate_starwars_like, StarwarsConfig};
use mbac_traffic::trace::Trace;
use mbac_traffic::{hurst_rs, hurst_variance_time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::scenarios::{ContinuousScenario, TraceScenario};

/// The table of `headers` over `rows`, each computed beside the `p_f`
/// estimate it reports, and the note naming each estimate's method.
fn simulated(headers: Vec<&str>, rows: Vec<(Vec<f64>, PfEstimate)>) -> (Table, String) {
    let methods = pf_methods(rows.iter().map(|(_, pf)| pf));
    let mut table = Table::new(headers);
    for (row, _) in rows {
        table.push(row);
    }
    (table, methods)
}

/// The `fig5` entry: `p_f` vs `T_m` at `n = 1000`, `T_h = 1000`, by
/// eqns (38) and (37) and by simulation.
pub(crate) fn fig5(b: &Budget) -> Outcome {
    let max_samples = b.pick(20_000, 120);
    let t_ms = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 31.6, 64.0];
    let rows = parallel_map(t_ms, |&t_m| {
        let sc = ContinuousScenario {
            n: 1000.0,
            t_h: paper::FIG5_T_H,
            t_c: paper::FIG5_T_C,
            t_m,
            p_ce: paper::FIG5_P_CE,
            p_q: paper::FIG5_P_CE,
            max_samples,
            seed: 0x0F15 + (t_m * 64.0) as u64,
        };
        let report = sc.run();
        let pf = report.pf;
        let row = vec![
            t_m,
            sc.theory_pf_closed(),
            sc.theory_pf_general(),
            pf.value,
            report.mean_utilization,
            pf.samples as f64,
        ];
        (row, pf)
    });
    let headers = vec!["t_m", "pf_eqn38", "pf_eqn37", "pf_sim", "util", "samples"];
    let (table, methods) = simulated(headers, rows);
    Outcome::new(vec![("fig5", table)], vec![methods])
}

/// The `fig6` entry: eqn (38) inverted for `p_ce` over
/// `(n, T_h) × T_m`, with each `(n, T_h)`'s `T̃_h` and the rows no
/// adjustment was needed for (repair-dominated: they carry `p_q`). Pure
/// theory.
pub(crate) fn fig6(_: &Budget) -> Outcome {
    let p_q = paper::P_Q;
    let grid: [(f64, f64); 4] = [(100.0, 1e3), (100.0, 1e4), (1000.0, 1e3), (1000.0, 1e4)];
    let t_ms: Vec<f64> = (0..=14).map(|k| 2f64.powi(k - 2)).collect();
    let mut table = Table::new(vec!["n", "t_h", "t_m", "ln_pce", "pce", "alpha_ce"]);
    let (mut tilde, mut repaired) = (Vec::new(), Vec::new());
    for (n, t_h) in grid {
        let t_h_tilde = t_h / n.sqrt();
        tilde.push(format!("{t_h_tilde:.1} at n = {n}, T_h = {t_h}"));
        let model = ContinuousModel::new(paper::COV, t_h_tilde, paper::FIG5_T_C);
        for &t_m in &t_ms {
            let [ln_pce, pce, alpha_ce] =
                match invert_pce(&model, t_m, p_q, InvertMethod::Separated) {
                    Ok(adj) => [adj.ln_pce, adj.p_ce, adj.alpha_ce],
                    Err(_) => {
                        repaired.push(format!("(n = {n}, T_h = {t_h}, T_m = {t_m})"));
                        [p_q.ln(), p_q, mbac_num::inv_q(p_q)]
                    }
                };
            table.push(vec![n, t_h, t_m, ln_pce, pce, alpha_ce]);
        }
    }
    let notes = vec![
        format!("T̃_h = {}", tilde.join("; ")),
        format!(
            "repair-dominated rows, which need no adjustment and carry p_q: [{}]",
            repaired.join(", ")
        ),
    ];
    Outcome::new(vec![("fig6", table)], notes)
}

/// The `fig7` entry: simulated `p_f` at the fig-6-adjusted `p_ce`.
pub(crate) fn fig7(b: &Budget) -> Outcome {
    let max_samples = b.pick(30_000, 120);
    let (p_q, n, t_h, t_c) = (paper::P_Q, 1000.0_f64, 1000.0, paper::FIG5_T_C);
    let t_ms = vec![1.0, 2.0, 4.0, 8.0, 16.0, 31.6, 64.0];
    let rows = parallel_map(t_ms, |&t_m| {
        let model = ContinuousModel::new(paper::COV, t_h / n.sqrt(), t_c);
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
        let report = sc.run();
        let row = vec![t_m, adjusted, report.pf.value, p_q, report.mean_utilization];
        (row, report.pf)
    });
    let headers = vec!["t_m", "pce_adjusted", "pf_sim", "target", "util"];
    let (table, methods) = simulated(headers, rows);
    Outcome::new(vec![("fig7", table)], vec![methods])
}

/// The `fig9` entry: eqn (37) by numerical integration over the
/// `(T_m/T̃_h, T_c)` plane. Pure theory.
pub(crate) fn fig9(_: &Budget) -> Outcome {
    let alpha = QosTarget::new(paper::P_Q).alpha();
    let t_h_tilde = 31.6;
    let mut table = Table::new(vec!["tm_over_thtilde", "t_c", "pf"]);
    for ratio in [0.01, 0.05, 0.1, 0.25, 0.5, 1.0] {
        for t_c in [0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0] {
            let model = ContinuousModel::new(paper::COV, t_h_tilde, t_c);
            table.push(vec![
                ratio,
                t_c,
                model.pf_with_memory(alpha, ratio * t_h_tilde),
            ]);
        }
    }
    Outcome::new(vec![("fig9", table)], vec![])
}

/// The `fig10` entry: the simulated counterpart of the fig-9 surface.
pub(crate) fn fig10(b: &Budget) -> Outcome {
    let max_samples = b.pick(8_000, 120);
    let n: f64 = 400.0;
    let t_h = 400.0 * 31.6 / 20.0;
    let t_h_tilde = t_h / n.sqrt();
    let points: Vec<(f64, f64)> = [0.01, 0.1, 0.5, 1.0]
        .into_iter()
        .flat_map(|r| [0.1, 0.3, 1.0, 3.0, 10.0].map(|t_c| (r, t_c)))
        .collect();
    let rows = parallel_map(points, |&(r, t_c)| {
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
        let report = sc.run();
        (
            vec![r, t_c, report.pf.value, report.mean_utilization],
            report.pf,
        )
    });
    let headers = vec!["tm_over_thtilde", "t_c", "pf_sim", "util"];
    Outcome::new(vec![("fig10", simulated(headers, rows).0)], vec![])
}

/// The holding times of the fig-11/fig-12 sweep, at `n = 400`.
const LRD_T_HS: [f64; 6] = [8_000.0, 4_000.0, 2_000.0, 1_000.0, 500.0, 250.0];

/// The synthetic Starwars-like trace of figs 11–12 (seed `0x57A7`):
/// 2¹³ slots at the quick budget, 2¹⁶ otherwise.
fn lrd_trace(b: &Budget) -> Arc<Trace> {
    let cfg = StarwarsConfig {
        slots: if b.quick { 1 << 13 } else { 1 << 16 },
        ..StarwarsConfig::default()
    };
    Arc::new(generate_starwars_like(
        &cfg,
        &mut StdRng::seed_from_u64(0x57A7),
    ))
}

/// The `fig11` entry: the LRD trace under memoryless estimation, with
/// the trace's statistics.
pub(crate) fn fig11(b: &Budget) -> Outcome {
    let max_samples = b.pick(8_000, 120);
    let trace = lrd_trace(b);
    let p_q = paper::P_Q;
    let rows = parallel_map(LRD_T_HS.to_vec(), |&t_h| {
        let sc = TraceScenario {
            trace: trace.clone(),
            n: 400.0,
            t_h,
            t_m: 0.0,
            p_ce: p_q,
            p_q,
            max_samples,
            seed: 0x0F11 + t_h as u64,
        };
        let report = sc.run();
        let row = vec![
            t_h,
            1.0 / sc.t_h_tilde(),
            report.pf.value,
            p_q,
            report.mean_utilization,
        ];
        (row, report.pf)
    });
    let stats = format!(
        "synthetic Starwars-like trace: {} slots, mean {:.3}, cov {:.3}, \
         Hurst(vt) {:.2}, Hurst(R/S) {:.2}",
        trace.len(),
        trace.mean(),
        trace.variance().sqrt() / trace.mean(),
        hurst_variance_time(trace.rates()),
        hurst_rs(trace.rates())
    );
    let headers = vec!["t_h", "inv_thtilde", "pf_sim", "target", "util"];
    let (table, methods) = simulated(headers, rows);
    Outcome::new(vec![("fig11", table)], vec![stats, methods])
}

/// The `fig12` entry: the LRD trace with the robust rule `T_m = T̃_h`
/// and the eqn (38)-inverted target.
pub(crate) fn fig12(b: &Budget) -> Outcome {
    let max_samples = b.pick(10_000, 120);
    let trace = lrd_trace(b);
    let (p_q, n) = (paper::P_Q, 400.0_f64);
    let cov = trace.variance().sqrt() / trace.mean();
    let rows = parallel_map(LRD_T_HS.to_vec(), |&t_h| {
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
        let report = sc.run();
        let row = vec![
            t_h,
            1.0 / t_h_tilde,
            t_h_tilde,
            p_ce,
            report.pf.value,
            p_q,
            report.mean_utilization,
        ];
        (row, report.pf)
    });
    let headers = vec![
        "t_h",
        "inv_thtilde",
        "t_m",
        "pce_adj",
        "pf_sim",
        "target",
        "util",
    ];
    let (table, methods) = simulated(headers, rows);
    let cov = format!("trace cov = {cov:.3}");
    Outcome::new(vec![("fig12", table)], vec![cov, methods])
}
