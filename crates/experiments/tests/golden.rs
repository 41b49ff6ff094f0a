//! Golden-snapshot tests for the golden-pinned experiments.
//!
//! Each test runs one entry of the runner's table,
//! `mbac_experiments::runner::EXPERIMENTS`, at the quick budget — the
//! entry and the budget `MBAC_QUICK=1 exp` runs, fixed seeds — and
//! diffs its table against the committed fixture under `tests/golden/`.
//! Every value is compared as a parsed float with a relative tolerance,
//! so a cosmetic change to float formatting does not trip the suite but
//! any change to the simulated or theoretical numbers does.
//!
//! Before that, each test checks the shape EXPERIMENTS.md's verdict
//! claims for the figure on the table it built, so a re-bless cannot
//! bless a table that has lost its shape. Only the verdicts the quick
//! budget resolves are checked: those that held on every one of 200
//! seeds there (each scenario seed offset by `k·2³²`, `k < 200`). The
//! others held at the runner's fixed seeds only, and `tests/results.rs`
//! checks them on the committed `MBAC_SCALE=0.15` tables instead; its
//! docs list each one's failure count at the quick budget. The quick
//! budget does not resolve Fig. 5's factor by which eqn (38) exceeds
//! the simulation, Fig. 7's utilization rising row by row, Fig. 10's
//! long-memory rows meeting the target, Fig. 11's shortest holding time
//! meeting it, or the topology knee's flatness past `T_m = T̃_h`; and
//! the star's binding hub is not in the topology table at all.
//!
//! To re-bless the fixtures after an intentional numeric change:
//!
//! ```text
//! MBAC_BLESS=1 cargo test -p mbac-experiments --test golden
//! ```

use mbac_experiments::paper::P_Q;
use mbac_experiments::runner::EXPERIMENTS;
use mbac_experiments::{Budget, Table};
use std::path::PathBuf;

/// The table `name` of the runner's entry `name`, run at the quick
/// budget.
fn from_runner(name: &str) -> Table {
    let entry = (EXPERIMENTS.iter())
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no entry {name:?} in the runner's table"));
    let outcome = (entry.run)(&Budget {
        quick: true,
        scale: None,
    });
    let table = outcome.tables.into_iter().find(|(csv, _)| *csv == name);
    table
        .unwrap_or_else(|| panic!("entry {name:?} writes no {name}.csv"))
        .1
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.csv"))
}

fn close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return a.to_bits() == b.to_bits();
    }
    (a - b).abs() <= 1e-12 + 1e-9 * a.abs().max(b.abs())
}

/// Diffs the regenerated table against the committed fixture (or
/// rewrites the fixture under `MBAC_BLESS=1`).
fn check_golden(name: &str, table: &Table) {
    let path = fixture_path(name);
    let generated = table.to_csv();
    if std::env::var("MBAC_BLESS")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &generated).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); generate it with \
             MBAC_BLESS=1 cargo test -p mbac-experiments --test golden",
            path.display()
        )
    });
    let gen_lines: Vec<&str> = generated.lines().collect();
    let exp_lines: Vec<&str> = expected.lines().collect();
    assert_eq!(
        gen_lines.first(),
        exp_lines.first(),
        "{name}: header drift (re-bless if intentional)"
    );
    assert_eq!(
        gen_lines.len(),
        exp_lines.len(),
        "{name}: row count drift (re-bless if intentional)"
    );
    for (row, (g, e)) in gen_lines.iter().zip(&exp_lines).enumerate().skip(1) {
        let gc: Vec<&str> = g.split(',').collect();
        let ec: Vec<&str> = e.split(',').collect();
        assert_eq!(gc.len(), ec.len(), "{name} row {row}: column count drift");
        for (col, (gv, ev)) in gc.iter().zip(&ec).enumerate() {
            let gv: f64 = gv
                .parse()
                .unwrap_or_else(|_| panic!("{name} row {row} col {col}: unparsable {gv:?}"));
            let ev: f64 = ev
                .parse()
                .unwrap_or_else(|_| panic!("{name} row {row} col {col}: unparsable {ev:?}"));
            assert!(
                close(gv, ev),
                "{name} row {row} col {col}: {gv} != fixture {ev} \
                 (re-bless with MBAC_BLESS=1 if this change is intentional)"
            );
        }
    }
}

/// One column of `table`.
fn col(table: &Table, name: &str) -> Vec<f64> {
    table.column(name).expect("a golden table's column")
}

/// The rows of `table` whose `key` column reads `value`, as their
/// `column` values.
fn rows_where(table: &Table, key: &str, value: f64, column: &str) -> Vec<f64> {
    let keys = col(table, key);
    let values = col(table, column);
    keys.iter()
        .zip(values)
        .filter(|(&k, _)| k == value)
        .map(|(_, v)| v)
        .collect()
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Fig. 5: every verdict (the fall to the knee, none past it, eqn (38)
/// above the simulation) is checked in `tests/results.rs`.
#[test]
fn fig5_matches_fixture() {
    check_golden("fig5", &from_runner("fig5"));
}

/// Fig. 6: each curve's `p_ce` rises with `T_m` toward `p_q`, the curves
/// order by `T̃_h = T_h/√n` at every `T_m`, and the largest `T̃_h`
/// needs `p_ce` below 1e-9 at the shortest memory.
#[test]
fn fig6_matches_fixture() {
    let table = from_runner("fig6");
    let (n, t_h, t_m, pce) = (
        col(&table, "n"),
        col(&table, "t_h"),
        col(&table, "t_m"),
        col(&table, "pce"),
    );
    let curves = pce.len() / 15;
    for curve in pce.chunks(15) {
        assert!(curve.windows(2).all(|w| w[0] < w[1]), "{curve:?}");
        assert!(curve[14] < 1e-3, "{curve:?}");
    }
    let t_h_tilde = |row: usize| t_h[row] / n[row].sqrt();
    for (k, t_m) in t_m.iter().take(15).enumerate() {
        let mut by_tilde: Vec<usize> = (0..curves).map(|c| 15 * c + k).collect();
        by_tilde.sort_by(|&a, &b| t_h_tilde(a).total_cmp(&t_h_tilde(b)));
        let ordered = by_tilde.windows(2).all(|w| pce[w[0]] > pce[w[1]]);
        assert!(ordered, "T_m = {t_m}: not ordered by T~h");
    }
    let shortest = (0..curves).map(|c| 15 * c);
    let largest = shortest.max_by(|&a, &b| t_h_tilde(a).total_cmp(&t_h_tilde(b)));
    assert!(pce[largest.unwrap()] < 1e-9);
    check_golden("fig6", &table);
}

/// Fig. 7: utilization is higher at the longest memory than at the
/// shortest (`p_f` at or below `p_q`: `tests/results.rs`).
#[test]
fn fig7_matches_fixture() {
    let table = from_runner("fig7");
    let util = col(&table, "util");
    assert!(util[util.len() - 1] > util[0], "{util:?}");
    check_golden("fig7", &table);
}

/// Fig. 9: the top row (`T_m = 0.01·T̃_h`) misses `p_ce` by two orders
/// of magnitude at its worst, each longer memory's worst case is lower,
/// the bottom row (`T_m = T̃_h`) stays within eqn (38)'s conservatism
/// (2.5×) of it at every `T_c`, and `T_c = 100` is safe on every row.
#[test]
fn fig9_matches_fixture() {
    let table = from_runner("fig9");
    let ratios = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0];
    let worst: Vec<f64> = (ratios.iter())
        .map(|&r| max(&rows_where(&table, "tm_over_thtilde", r, "pf")))
        .collect();
    assert!(worst[0] >= 100.0 * P_Q, "{worst:?}");
    assert!(worst.windows(2).all(|w| w[0] > w[1]), "{worst:?}");
    assert!(worst[5] <= 2.5 * P_Q, "{worst:?}");
    assert!(max(&rows_where(&table, "t_c", 100.0, "pf")) < P_Q);
    check_golden("fig9", &table);
}

/// Fig. 10: the top row misses the target tenfold at its worst (the
/// longer memories below it, and the simulation under the Fig. 9
/// theory: `tests/results.rs`).
#[test]
fn fig10_matches_fixture() {
    let table = from_runner("fig10");
    let worst = max(&rows_where(&table, "tm_over_thtilde", 0.01, "pf_sim"));
    assert!(worst >= 10.0 * P_Q);
    check_golden("fig10", &table);
}

/// Fig. 11: memoryless estimation misses tenfold at the longest
/// holding time (`p_f` falling as `1/T̃_h` grows: `tests/results.rs`).
#[test]
fn fig11_matches_fixture() {
    let table = from_runner("fig11");
    let pf = col(&table, "pf_sim");
    assert!(pf[0] >= 10.0 * P_Q, "{pf:?}");
    check_golden("fig11", &table);
}

/// Fig. 12: the robust rule meeting the target over the whole sweep is
/// checked in `tests/results.rs`.
#[test]
fn fig12_matches_fixture() {
    check_golden("fig12", &from_runner("fig12"));
}

/// Topology: every verdict (memoryless worst for the worst link on both
/// shapes, the long route blocking more) is checked in
/// `tests/results.rs`.
#[test]
fn topology_matches_fixture() {
    check_golden("topology", &from_runner("topology"));
}
