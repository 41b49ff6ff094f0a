//! Comparing two result files row by row — one row per (end-to-end
//! metric, workload) — against the bounds in [`crate::metrics`].
//!
//! A row is `worse` (or `better`) when the values differ by more than
//! the metric's bound in that direction. It is `unresolved`, not
//! `same`, when either side's own inter-quartile spread exceeds the
//! bound and the two inter-quartile ranges overlap: the runs cannot
//! tell the sides apart, so nothing is claimed either way.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The value the run reported (see `metrics::Reduce`).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.value.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub a: Side,
    pub b: Side,
}

impl Row {
    /// `(b − a) / a`: the base is always side `a`.
    pub fn rel_diff(&self) -> f64 {
        (self.b.value - self.a.value) / self.a.value
    }

    /// `rel_diff` signed so that positive means `b` is worse.
    fn worsening(&self) -> f64 {
        match self.better {
            Better::Lower => self.rel_diff(),
            Better::Higher => -self.rel_diff(),
        }
    }

    pub fn verdict(&self) -> Verdict {
        let overlap = self.a.q1 <= self.b.q3 && self.b.q1 <= self.a.q3;
        let noisy = self.a.spread() > self.bound || self.b.spread() > self.bound;
        if noisy && overlap {
            Verdict::Unresolved
        } else if self.worsening() > self.bound {
            Verdict::Worse
        } else if self.worsening() < -self.bound {
            Verdict::Better
        } else {
            Verdict::Same
        }
    }
}

/// The per-workload results of a file: a set file's members, or the
/// single workload of a one-workload file.
fn workloads(file: &Json) -> Vec<(String, &Json)> {
    match file.get("workloads") {
        Some(set) => set
            .members()
            .iter()
            .map(|(name, w)| (name.clone(), w))
            .collect(),
        None => file
            .get("workload")
            .and_then(Json::as_str)
            .map(|name| vec![(name.to_string(), file)])
            .unwrap_or_default(),
    }
}

fn side(result: &Json, metric: &str) -> Option<Side> {
    let entry = result.get("end_to_end")?.get(metric)?;
    let field = |key: &str| entry.get(key).and_then(Json::as_f64);
    Some(Side {
        value: field("value")?,
        q1: field("q1")?,
        q3: field("q3")?,
    })
}

/// One row per (metric, workload) present in both files.
pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let b_workloads = workloads(b);
    let mut rows = Vec::new();
    for (name, result_a) in workloads(a) {
        let Some((_, result_b)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        for m in &END_TO_END {
            if let (Some(sa), Some(sb)) = (side(result_a, m.name), side(result_b, m.name)) {
                rows.push(Row {
                    workload: name.clone(),
                    metric: m.name,
                    unit: m.unit,
                    better: m.better,
                    bound: m.bound,
                    a: sa,
                    b: sb,
                });
            }
        }
    }
    rows
}

/// `run --aa`: both values, their relative difference, the bound.
pub fn print_aa(rows: &[Row]) {
    println!("== A/A: two runs of the same build ==");
    println!(
        "{:<18} {:<12} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "value A", "value B", "(B-A)/A", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<12} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            100.0 * r.rel_diff(),
            100.0 * r.bound,
            if r.rel_diff().abs() > r.bound {
                "  DISAGREE"
            } else {
                ""
            },
        );
    }
}

fn print_compare(rows: &[Row]) {
    println!(
        "{:<18} {:<12} {:>10} {:>28} {:>22} {:>7}",
        "workload", "metric", "verdict", "B/A (base A value)", "spread A / B", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<12} {:>10} {:>9.4} (A = {:>12.6} {:<3}) {:>9.2}% / {:>6.2}% {:>6.0}%",
            r.workload,
            r.metric,
            r.verdict().name(),
            r.b.value / r.a.value,
            r.a.value,
            r.unit,
            100.0 * r.a.spread(),
            100.0 * r.b.spread(),
            100.0 * r.bound,
        );
    }
}

/// `compare a.json b.json`. `Ok(false)` when any row is `worse`.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    if let (Some(fa), Some(fb)) = (a.get("fingerprint"), b.get("fingerprint")) {
        for (key, va) in fa.members() {
            // A different commit is what a comparison is usually for.
            if key != "git_commit" && fb.get(key) != Some(va) {
                println!(
                    "note: fingerprints differ in {key}: {} vs {}",
                    va.to_line(),
                    fb.get(key).map_or("-".into(), Json::to_line)
                );
            }
        }
    }
    for (label, file) in [("A", &a), ("B", &b)] {
        for (name, w) in workloads(file) {
            if !w.get("correct").and_then(Json::as_bool).unwrap_or(false) {
                println!(
                    "note: {label} failed its output checks on {name}; its numbers prove nothing"
                );
            }
            println!(
                "{label} {name:<18} sim_digest {}",
                w.get("sim_digest").and_then(Json::as_str).unwrap_or("?")
            );
        }
    }
    let rows = rows(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) row".into());
    }
    print_compare(&rows);
    Ok(rows.iter().all(|r| r.verdict() != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(better: Better, a: (f64, f64, f64), b: (f64, f64, f64)) -> Row {
        let side = |(q1, value, q3)| Side { value, q1, q3 };
        Row {
            workload: "w".into(),
            metric: "wall_s",
            unit: "s",
            better,
            bound: 0.1,
            a: side(a),
            b: side(b),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better: +20 % is worse, −20 % better, +5 % same.
        assert_eq!(
            row(Better::Lower, (0.99, 1.0, 1.01), (1.19, 1.2, 1.21)).verdict(),
            Verdict::Worse
        );
        assert_eq!(
            row(Better::Lower, (0.99, 1.0, 1.01), (0.79, 0.8, 0.81)).verdict(),
            Verdict::Better
        );
        assert_eq!(
            row(Better::Lower, (0.99, 1.0, 1.01), (1.04, 1.05, 1.06)).verdict(),
            Verdict::Same
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            row(Better::Higher, (0.99, 1.0, 1.01), (1.19, 1.2, 1.21)).verdict(),
            Verdict::Better
        );
        assert_eq!(
            row(Better::Higher, (0.99, 1.0, 1.01), (0.79, 0.8, 0.81)).verdict(),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_same() {
        // Spread 30 % > bound, ranges overlap: no claim either way,
        // whether the medians are close or far.
        assert_eq!(
            row(Better::Lower, (0.85, 1.0, 1.15), (0.9, 1.02, 1.2)).verdict(),
            Verdict::Unresolved
        );
        assert_eq!(
            row(Better::Lower, (0.85, 1.0, 1.15), (1.0, 1.14, 1.3)).verdict(),
            Verdict::Unresolved
        );
        // Wide but disjoint: every quartile of B is beyond A's.
        assert_eq!(
            row(Better::Lower, (0.85, 1.0, 1.15), (1.5, 1.7, 1.9)).verdict(),
            Verdict::Worse
        );
    }

    #[test]
    fn ratios_are_taken_against_side_a() {
        let r = row(Better::Lower, (1.9, 2.0, 2.1), (2.9, 3.0, 3.1));
        assert!((r.rel_diff() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rows_pair_set_files_and_single_files_by_workload() {
        let entry = |median: f64| {
            Json::obj([
                ("value", Json::Num(median)),
                ("q1", Json::Num(median)),
                ("q3", Json::Num(median)),
            ])
        };
        let result = |name: &str, wall: f64| {
            Json::obj([
                ("workload", Json::str(name)),
                (
                    "end_to_end",
                    Json::obj([("wall_s", entry(wall)), ("setup_s", entry(1.0))]),
                ),
            ])
        };
        let set = Json::obj([(
            "workloads",
            Json::obj([
                ("fig5_sweep", result("fig5_sweep", 1.0)),
                ("ar1_dense", result("ar1_dense", 2.0)),
            ]),
        )]);
        let single = result("ar1_dense", 3.0);
        let rows = rows(&set, &single);
        assert_eq!(rows.len(), 2, "wall_s and setup_s of the shared workload");
        assert!(rows.iter().all(|r| r.workload == "ar1_dense"));
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!((wall.a.value, wall.b.value), (2.0, 3.0));
        assert_eq!(wall.verdict(), Verdict::Worse);
    }
}
