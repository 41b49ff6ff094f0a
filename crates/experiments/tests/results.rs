//! The figure verdicts the golden budget does not resolve, checked on
//! the committed `results/` tables.
//!
//! `tests/golden.rs` checks each figure's verdict on the quick budget's
//! table, at the runner's fixed seeds. The verdicts below held there
//! only through those seeds: over 200 seeds (each scenario seed offset
//! by `k·2³²`, `k < 200`) the quick budget failed each on more than one
//! seed in 200 (the counts are in each test's docs). At
//! `MBAC_SCALE=0.15`, the budget of the committed `results/` (one `exp`
//! run, recorded in `results/MANIFEST.json`), the same sweep found no
//! failure over the seeds each test names, so they are checked here, on
//! those tables. Each inequality is the golden suite's, as it was
//! written there. EXPERIMENTS.md lists them as not resolved at the
//! quick budget, with the moved verdicts this budget does not resolve
//! either, which no test checks: Fig. 5's three, Fig. 10's two and
//! Fig. 12's failed on 1 of 20, 3 of 40 and 1 of 40 seeds here.
//!
//! Regenerating `results/` (EXPERIMENTS.md, "Provenance") is what moves
//! these tables; a run whose tables fail here has lost a figure's shape.

use std::path::PathBuf;

/// The committed `results/<name>.csv`: its header and its rows.
fn results(name: &str) -> (Vec<String>, Vec<Vec<f64>>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.csv"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut lines = text.lines();
    let header = lines.next().expect("a header").split(',');
    let rows = lines.map(|line| {
        let cells = line.split(',');
        cells.map(|v| v.parse().expect("a number")).collect()
    });
    (header.map(String::from).collect(), rows.collect())
}

/// Column `name` of `results/<table>.csv`.
fn col(table: &str, name: &str) -> Vec<f64> {
    let (header, rows) = results(table);
    let k = (header.iter().position(|h| h == name))
        .unwrap_or_else(|| panic!("{table}.csv has no column {name}"));
    rows.iter().map(|row| row[k]).collect()
}

/// The `column` values of `results/<table>.csv`'s rows whose `key`
/// column reads `value`.
fn rows_where(table: &str, key: &str, value: f64, column: &str) -> Vec<f64> {
    let keys = col(table, key);
    let values = col(table, column);
    keys.iter()
        .zip(values)
        .filter(|(&k, _)| k == value)
        .map(|(_, v)| v)
        .collect()
}

/// Fig. 7: at the adjusted `p_ce` the simulated `p_f` is at or below
/// `p_q` at every `T_m`. At the quick budget it failed on 63 of 200
/// seeds; at this budget on none of 40.
#[test]
fn fig7_meets_the_target_at_every_memory() {
    let (pf, target) = (col("fig7", "pf_sim"), col("fig7", "target"));
    assert!(pf.iter().zip(&target).all(|(p, t)| p <= t), "{pf:?}");
}

/// Fig. 11: memoryless estimation misses by more the longer calls hold:
/// `p_f` falls as `1/T̃_h` grows. At the quick budget it failed on 49 of
/// 200 seeds; at this budget on none of 40.
#[test]
fn fig11_misses_more_the_longer_calls_hold() {
    let pf = col("fig11", "pf_sim");
    assert!(pf.windows(2).all(|w| w[0] > w[1]), "{pf:?}");
}

/// Topology: on both shapes memoryless estimation is the worst memory
/// for the worst link, and on the parking lot the long route blocks
/// more than the cross routes at every memory. At the quick budget
/// they failed on 5 (parking lot), 13 (star) and 4 of 200 seeds; at
/// this budget on none of 200.
#[test]
fn topology_memoryless_is_worst_and_the_long_route_blocks_more() {
    for shape in [0.0, 1.0] {
        let pf = rows_where("topology", "topo_id", shape, "max_pf");
        assert!(pf[1..].iter().all(|&p| p < pf[0]), "shape {shape}: {pf:?}");
    }
    let long = rows_where("topology", "topo_id", 0.0, "long_route_block");
    let cross = rows_where("topology", "topo_id", 0.0, "other_routes_block");
    assert!(
        long.iter().zip(&cross).all(|(l, c)| l > c),
        "{long:?} / {cross:?}"
    );
}
