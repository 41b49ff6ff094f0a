//! Golden-snapshot tests for the figure-generation pipeline.
//!
//! Each test regenerates one `results/figN.csv` table through the same
//! builders the runner's `figN` entry uses — fixed seeds, a small Monte
//! Carlo budget — and diffs it against the committed fixture under
//! `tests/golden/`. Every value is compared as a parsed float with a
//! relative tolerance, so a cosmetic change to float formatting does not
//! trip the suite but any change to the simulated or theoretical
//! numbers does.
//!
//! Before that, each test checks the shape EXPERIMENTS.md's verdict
//! claims for the figure on the table it built, so a re-bless cannot
//! bless a table that has lost its shape. Only the verdicts the golden
//! budget resolves are checked. It does not resolve Fig. 5's factor by
//! which eqn (38) exceeds the simulation, Fig. 7's utilization rising
//! row by row, Fig. 10's long-memory rows meeting the target (they read
//! up to 2.9e-3 here), Fig. 11's shortest holding time meeting it
//! (3.1e-3 here), or the topology knee's flatness past `T_m = T̃_h`; and
//! the star's binding hub is not in the topology table at all.
//!
//! To re-bless the fixtures after an intentional numeric change:
//!
//! ```text
//! MBAC_BLESS=1 cargo test -p mbac-experiments --test golden
//! ```

use mbac_experiments::figures::{
    fig10_rows, fig10_table, fig11_rows, fig11_table, fig12_rows, fig12_table, fig5_rows,
    fig5_table, fig6_rows, fig6_table, fig7_rows, fig7_table, fig9_rows, fig9_table, lrd_trace,
};
use mbac_experiments::paper::P_Q;
use mbac_experiments::topology::{topology_rows, topology_table};
use mbac_experiments::Table;
use std::path::PathBuf;

/// Monte Carlo budget for the simulation-backed figures — far below the
/// runner's full budgets; the goal is regression detection on the
/// pipeline, not statistical precision.
const SIM_BUDGET: u64 = 120;

/// Trace length for the LRD figures (the runner uses 1 << 16).
const TRACE_SLOTS: usize = 1 << 13;

/// Tick budget for the routed-topology sweep (the runner's full budget
/// is 8000).
const TOPOLOGY_TICKS: u64 = 300;

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

/// Fig. 5: `p_f` falls more than thirtyfold from `T_m = 0` to the knee
/// at `T̃_h = 31.6` (×330 here, ×71 at `MBAC_SCALE=0.15`), no further
/// past it, and eqn (38) sits above the simulation at every `T_m`.
#[test]
fn fig5_matches_fixture() {
    let table = fig5_table(&fig5_rows(SIM_BUDGET));
    let (sim, eqn38) = (col(&table, "pf_sim"), col(&table, "pf_eqn38"));
    let at = |t_m| rows_where(&table, "t_m", t_m, "pf_sim")[0];
    assert!(at(0.0) >= 30.0 * at(31.6), "no fall to the knee: {sim:?}");
    assert!(at(64.0) >= 0.5 * at(31.6), "a fall past the knee: {sim:?}");
    assert!(
        eqn38.iter().zip(&sim).all(|(t, s)| t >= s),
        "{eqn38:?} < {sim:?}"
    );
    check_golden("fig5", &table);
}

/// Fig. 6: each curve's `p_ce` rises with `T_m` toward `p_q`, the curves
/// order by `T̃_h = T_h/√n` at every `T_m`, and the largest `T̃_h`
/// needs `p_ce` below 1e-9 at the shortest memory.
#[test]
fn fig6_matches_fixture() {
    let table = fig6_table(&fig6_rows());
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

/// Fig. 7: at the adjusted `p_ce` the simulated `p_f` is at or below
/// `p_q` at every `T_m`, and utilization is higher at the longest
/// memory than at the shortest.
#[test]
fn fig7_matches_fixture() {
    let table = fig7_table(&fig7_rows(SIM_BUDGET));
    let (pf, target, util) = (
        col(&table, "pf_sim"),
        col(&table, "target"),
        col(&table, "util"),
    );
    assert!(pf.iter().zip(&target).all(|(p, t)| p <= t), "{pf:?}");
    assert!(util[util.len() - 1] > util[0], "{util:?}");
    check_golden("fig7", &table);
}

/// Fig. 9: the top row (`T_m = 0.01·T̃_h`) misses `p_ce` by two orders
/// of magnitude at its worst, each longer memory's worst case is lower,
/// the bottom row (`T_m = T̃_h`) stays within eqn (38)'s conservatism
/// (2.5×) of it at every `T_c`, and `T_c = 100` is safe on every row.
#[test]
fn fig9_matches_fixture() {
    let table = fig9_table(&fig9_rows());
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

/// Fig. 10: the top row misses the target tenfold at its worst, every
/// longer memory's worst case is below the top row's, and every
/// simulated value sits at or below the Fig. 9 theory at its point.
#[test]
fn fig10_matches_fixture() {
    let table = fig10_table(&fig10_rows(SIM_BUDGET));
    let worst = |r| max(&rows_where(&table, "tm_over_thtilde", r, "pf_sim"));
    assert!(worst(0.01) >= 10.0 * P_Q);
    for r in [0.1, 0.5, 1.0] {
        assert!(worst(r) < worst(0.01), "T_m/T~h = {r}");
    }
    let theory = fig9_table(&fig9_rows());
    let key = |t: &Table| {
        let (r, t_c) = (col(t, "tm_over_thtilde"), col(t, "t_c"));
        r.into_iter().zip(t_c).collect::<Vec<_>>()
    };
    let (points, theory_points) = (key(&table), key(&theory));
    let (sim, pf) = (col(&table, "pf_sim"), col(&theory, "pf"));
    for (point, s) in points.iter().zip(&sim) {
        let at = theory_points.iter().position(|p| p == point).unwrap();
        assert!(*s <= pf[at], "{point:?}: {s} above the theory's {}", pf[at]);
    }
    check_golden("fig10", &table);
}

/// Fig. 11: memoryless estimation misses by more the longer calls hold:
/// `p_f` falls as `1/T̃_h` grows, from a tenfold miss at the longest.
#[test]
fn fig11_matches_fixture() {
    let table = fig11_table(&fig11_rows(&lrd_trace(TRACE_SLOTS), SIM_BUDGET));
    let pf = col(&table, "pf_sim");
    assert!(pf.windows(2).all(|w| w[0] > w[1]), "{pf:?}");
    assert!(pf[0] >= 10.0 * P_Q, "{pf:?}");
    check_golden("fig11", &table);
}

/// Fig. 12: the robust rule meets the target over the whole sweep.
#[test]
fn fig12_matches_fixture() {
    let table = fig12_table(&fig12_rows(&lrd_trace(TRACE_SLOTS), SIM_BUDGET));
    let (pf, target) = (col(&table, "pf_sim"), col(&table, "target"));
    assert!(pf.iter().zip(&target).all(|(p, t)| p <= t), "{pf:?}");
    check_golden("fig12", &table);
}

/// Topology: on both shapes memoryless estimation is the worst memory
/// for the worst link, and on the parking lot the long route blocks
/// more than the cross routes at every memory.
#[test]
fn topology_matches_fixture() {
    let table = topology_table(&topology_rows(TOPOLOGY_TICKS));
    for shape in [0.0, 1.0] {
        let pf = rows_where(&table, "topo_id", shape, "max_pf");
        assert!(pf[1..].iter().all(|&p| p < pf[0]), "shape {shape}: {pf:?}");
    }
    let long = rows_where(&table, "topo_id", 0.0, "long_route_block");
    let cross = rows_where(&table, "topo_id", 0.0, "other_routes_block");
    assert!(
        long.iter().zip(&cross).all(|(l, c)| l > c),
        "{long:?} / {cross:?}"
    );
    check_golden("topology", &table);
}
