//! The experiment table and its runner.
//!
//! [`EXPERIMENTS`] holds one entry per quantitative claim of the paper
//! (and per extension), in the paper's order: its name, the claim and
//! the shape the paper expects, the function that computes its tables
//! at a [`Budget`], and the plot, if any, that shows the shape. [`run`]
//! runs the named entries, prints each one's claim, tables, plot and
//! notes, writes each table as a CSV under `results/`, and records the
//! run in `results/MANIFEST.json`: the commit (`-dirty` when tracked
//! files differed from it), the budget, each experiment's wall time and
//! each CSV's FNV-1a digest.

use crate::output::{ascii_plot, write_csv, Table};
use crate::{figures, studies, topology, Budget};
use mbac_sim::PfEstimate;
use std::time::Instant;

/// What one experiment computed.
pub struct Outcome {
    /// Each CSV's name under `results/` and its table.
    pub tables: Vec<(&'static str, Table)>,
    /// One-off readouts that belong to no row.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome of `tables` and `notes`.
    pub fn new(tables: Vec<(&'static str, Table)>, notes: Vec<String>) -> Self {
        Outcome { tables, notes }
    }
}

/// A plot of an outcome's first table: one series a `ys` column, over
/// the `x` column.
pub struct Plot {
    /// The x column.
    pub x: &'static str,
    /// The y columns.
    pub ys: &'static [&'static str],
    /// Plot `log10(y)`, dropping non-positive values.
    pub log_y: bool,
}

/// One entry of [`EXPERIMENTS`].
pub struct Experiment {
    /// The name `exp` takes.
    pub name: &'static str,
    /// A one-line title.
    pub title: &'static str,
    /// The paper's claim and the setting that tests it.
    pub claim: &'static str,
    /// The shape the claim predicts for the tables.
    pub expected: &'static str,
    /// Computes the tables at a budget.
    pub run: fn(&Budget) -> Outcome,
    /// The plot that shows the shape, if any.
    pub plot: Option<Plot>,
}

/// The `method` of each row's `p_f` estimate, as a note.
pub(crate) fn pf_methods<'a>(pfs: impl Iterator<Item = &'a PfEstimate>) -> String {
    let methods: Vec<String> = pfs.map(|pf| format!("{:?}", pf.method)).collect();
    format!("pf method, row by row: {}", methods.join(", "))
}

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "prop33",
        title: "the certainty-equivalence √2 penalty (Prop. 3.3)",
        claim: "In the impulsive-load model the memoryless certainty-equivalent MBAC \
                realizes p_f = Q(Q⁻¹(p_q)/√2), not p_q, whatever the flow distribution and \
                the system size, while the perfect-knowledge controller realizes p_q \
                (§3.1, the content of Fig. 1). eqn (15)'s target p_ce = Q(√2 α_q) restores \
                p_f = p_q, and M₀ fluctuates with sd (σ/μ)√n (Prop. 3.1). Here p_q = 0.01, \
                large enough to resolve by direct simulation, over three sizes and four \
                marginals at the same (μ, σ, T_c), and an on-off flow.",
        expected: "pf_ce_sim ≈ pf_ce_theory ≫ target on the unadjusted rows, whatever n \
                   and the distribution; pf_ce_sim ≈ target on the adjusted rows; \
                   pf_pk_sim ≈ target throughout.",
        run: studies::prop33,
        plot: None,
    },
    Experiment {
        name: "finite_holding",
        title: "overflow dynamics after an impulsive admission (eqn (21))",
        claim: "With finite holding times p_f(t) = Q([(μ/σ) t/T̃_h + α_q] / √(2(1 − ρ(t)))): \
                zero at t = 0, where the measurement is exact, rising as the traffic \
                decorrelates, then falling as departures repair the error (§3.2, behind \
                Fig. 2). Simulated with exponential holding times at n = 400, T_c = 1, \
                T_h = 200 (T̃_h = 10), p_ce = 0.01.",
        expected: "p_f(0) ≈ 0, an interior peak near the correlation/repair crossover, \
                   decay to ~0 well before several T̃_h; the theory is conservative.",
        run: studies::finite_holding,
        plot: Some(Plot {
            x: "t",
            ys: &["pf_theory", "pf_sim"],
            log_y: false,
        }),
    },
    Experiment {
        name: "fig5",
        title: "p_f vs memory window T_m (Fig. 5)",
        claim: "Overflow probability against the estimator memory T_m: theory (eqn (38), \
                with eqn (37) numerics alongside) and simulation, at Fig. 5's T_h = 1000, \
                T_c = 1, p_ce = 1e-3 and n = 1000 (the size of Figs. 6-7), so T̃_h ≈ 31.6.",
        expected: "p_f starts ~2 orders above the target at T_m = 0, falls steeply with \
                   memory and flattens past a knee near T_m ≈ T̃_h = 32; the theory is \
                   conservative (above the simulation), which the paper attributes to \
                   ignoring the flow count's discreteness.",
        run: figures::fig5,
        plot: Some(Plot {
            x: "t_m",
            ys: &["pf_eqn38", "pf_sim"],
            log_y: true,
        }),
    },
    Experiment {
        name: "fig6",
        title: "adjusted p_ce by inversion of eqn (38) (Fig. 6)",
        claim: "The certainty-equivalent target p_ce that makes eqn (38) meet p_q = 1e-3, \
                against the memory window T_m, for n ∈ {100, 1000} and T_h ∈ {1e3, 1e4} \
                at T_c = 1 (Fig. 6's grid). Pure theory.",
        expected: "p_ce collapses for small T_m (below 1e-10 on the curves of largest \
                   T̃_h) and relaxes toward p_q = 1e-3 as T_m approaches T̃_h; the curves \
                   order by T̃_h = T_h/√n.",
        run: figures::fig6,
        plot: None,
    },
    Experiment {
        name: "fig7",
        title: "simulated p_f with the adjusted p_ce of Fig. 6 (Fig. 7)",
        claim: "§5.2's validation loop: invert eqn (38) for the p_ce whose predicted p_f \
                is p_q = 1e-3, run the simulator at that p_ce, and check the realized \
                overflow probability; n = 1000, T_h = 1000 (T̃_h = 31.6), T_c = 1.",
        expected: "the simulated p_f at or slightly below p_q = 1e-3 for every T_m (the \
                   theory is conservative); utilization rises with T_m as the adjustment \
                   relaxes.",
        run: figures::fig7,
        plot: Some(Plot {
            x: "t_m",
            ys: &["pf_sim", "target"],
            log_y: true,
        }),
    },
    Experiment {
        name: "fig9",
        title: "p_f by numerical integration of eqn (37) (Fig. 9)",
        claim: "The general formula, eqn (37), over the (T_m/T̃_h, T_c) plane at \
                T̃_h = 31.6 (n = 1000, T_h = 1000), p_ce = 1e-3, σ/μ = 0.3. Pure theory.",
        expected: "the top rows (tiny memory) exceed the target 1e-3 by orders of \
                   magnitude around T_c ≈ 0.1-1, where estimation errors fluctuate fast \
                   within the critical time-scale; the bottom rows (T_m ≈ T̃_h) meet it \
                   for every T_c; the largest T_c is safe everywhere (repair regime).",
        run: figures::fig9,
        plot: None,
    },
    Experiment {
        name: "fig10",
        title: "simulated p_f over the (T_m/T̃_h, T_c) grid (Fig. 10)",
        claim: "The simulated counterpart of Fig. 9 with RCBR sources under continuous \
                load, at n = 400 (smaller than Fig. 9's nominal size, to keep the \
                simulation's cost sane) and T_h = 632, so that T̃_h = 31.6 matches Fig. 9; \
                p_ce = 1e-3.",
        expected: "mirrors Fig. 9: the top row misses the target 1e-3 by 1-2 orders \
                   around T_c ≈ 0.3-3, the bottom rows (T_m ≳ 0.5·T̃_h) meet it across \
                   the whole T_c range; values sit at or below the Fig. 9 surface.",
        run: figures::fig10,
        plot: None,
    },
    Experiment {
        name: "fig11",
        title: "LRD trace, memoryless estimation T_m = 0 (Fig. 11)",
        claim: "Long-range-dependent traffic under memoryless estimation: p_f against \
                1/T̃_h, T_h swept so that 1/T̃_h spans the axis; n = 400, \
                p_ce = p_q = 1e-3. The paper plays an MPEG-1 Starwars encoding; this \
                plays the synthetic LRD trace of mbac_traffic::starwars (DESIGN.md §4 \
                argues the substitution).",
        expected: "p_f well above p_q = 1e-3 (1-2 orders) at small 1/T̃_h (long calls), \
                   falling toward or below the target as 1/T̃_h grows: memoryless \
                   estimation is not robust for long-holding-time LRD traffic.",
        run: figures::fig11,
        plot: Some(Plot {
            x: "inv_thtilde",
            ys: &["pf_sim", "target"],
            log_y: true,
        }),
    },
    Experiment {
        name: "fig12",
        title: "LRD trace with the robust window rule T_m = T̃_h (Fig. 12)",
        claim: "Fig. 11's sweep with the memory rule T_m = T̃_h and the eqn (38)-inverted \
                target of §5.2's robust procedure; n = 400, p_q = 1e-3. The paper: \
                \"apparently, the strong long-term fluctuations of this traffic do not \
                degrade the performance of the MBAC\".",
        expected: "p_f at or below the target p_q = 1e-3 across the whole range: the \
                   robust rule masks the LRD structure (compare Fig. 11's misses).",
        run: figures::fig12,
        plot: Some(Plot {
            x: "inv_thtilde",
            ys: &["pf_sim", "target"],
            log_y: true,
        }),
    },
    Experiment {
        name: "utilization",
        title: "utilization vs conservatism (eqn (40))",
        claim: "Running the certainty-equivalent controller at p_ce instead of p'_ce \
                changes the mean carried bandwidth by ΔU = σ√n [Q⁻¹(p_ce) − Q⁻¹(p'_ce)] \
                (eqn (40)). p_ce is swept in the continuous-load simulator at n = 400, \
                T_h = 1000, T_c = 1, T_m = T̃_h = 50, and the measured differences are \
                set against the formula, with §3.1's special case (√2 − 1)σα_q√n and \
                the peak-rate baseline for context.",
        expected: "ΔU_sim ≈ ΔU_eqn40 row by row; utilization falls as p_ce tightens, \
                   every row far above the peak-rate baseline.",
        run: studies::utilization,
        plot: None,
    },
    Experiment {
        name: "heterogeneous",
        title: "heterogeneous flows, variance-estimator bias (§5.4)",
        claim: "Two flow classes of different means (audio-like 1 ± 0.3, video-like \
                4 ± 1.2, 200 each) share a link of capacity 600 at p_q = 1e-3. The \
                unclassified variance estimator of eqn (7) is biased upward by the \
                between-class mean spread, so the MBAC admits fewer flows than it could: \
                conservative, never unsafe; per-class estimation removes the bias.",
        expected: "the measured naive variance ≈ within + bias (the bias dominates); the \
                   naive admissible count strictly below the per-class count.",
        run: studies::heterogeneous,
        plot: None,
    },
    Experiment {
        name: "baselines",
        title: "five controllers, one workload (§6)",
        claim: "The related-work comparison the paper makes in words, staged: memoryless \
                CE (eqn (6) at the raw target); robust CE (T_m = T̃_h, inverted p_ce); \
                Gibbens-Kelly-Key prior smoothing with a correct prior and with a stale \
                one (traffic 25% burstier than the prior believes); Jamin et al.'s \
                measured sum with a window of T̃_h and a utilization target tuned to \
                the same nominal load; and the peak-rate floor. n = 400, T_h = 1000 \
                (T̃_h = 50), T_c = 1, p_q = 1e-2.",
        expected: "robust-ce ≈ target at ~0.95+ utilization; memoryless-ce misses by 1-2 \
                   orders; bayes-correct-prior sits between them; bayes-stale-prior \
                   misses again (§6's caveat: smoothing is only as good as the prior); \
                   measured-sum lands wherever its tuned utilization puts it; peak-rate \
                   is safe but wastes ~40% of the link.",
        run: studies::baselines,
        plot: None,
    },
    Experiment {
        name: "kernel_ablation",
        title: "exponential kernel vs rectangular window at equal mean age",
        claim: "Does the memory kernel's shape matter, or only its time-scale? The \
                paper's exponential kernel at T_m against Jamin et al.'s rectangular \
                window at T_w = 2·T_m (equal mean sample age), across memory scales; \
                n = 400, T_h = 1000 (T̃_h = 50), T_c = 1, p_ce = 1e-2.",
        expected: "both kernels improve alike with the memory scale, the ratio \
                   pf_rectangular / pf_exponential within a small factor of 1 across the \
                   sweep: the time-scale is the design variable, the kernel's shape a \
                   second-order detail.",
        run: studies::kernel_ablation,
        plot: None,
    },
    Experiment {
        name: "aggregate",
        title: "aggregate-only measurement vs per-flow measurement (§7)",
        claim: "§7: \"using only aggregate measurement does not affect the mean estimator, \
                [but] the accuracy of the variance estimator is hampered without per-flow \
                information\". The robust controller is fed per-flow snapshots, then \
                (count, sum) only, then (count, sum) through a window too short to learn \
                the temporal variance; n = 400, T_h = 1000 (T̃_h = 50), T_c = 1, \
                p_q = 1e-2.",
        expected: "the first two rows agree (the mean estimate is unaffected, and an \
                   adequate window learns the temporal variance); the third over-admits \
                   (higher utilization, higher p_f): §7's caveat, quantified.",
        run: studies::aggregate,
        plot: None,
    },
    Experiment {
        name: "utility",
        title: "utility-based admission for adaptive applications (§7)",
        claim: "§7 asks how much application adaptivity changes the admission problem. \
                The link (capacity 400, flows of 1 ± 0.3) is sized for the hard \
                overflow metric, two quality-floor utilities and an elastic one, all at \
                one expected-utility-loss budget ε = 0.01, and each sizing is metered \
                with RCBR sources.",
        expected: "flows(hard) < flows(floor 0.9) < flows(floor 0.5) < flows(elastic); \
                   loss_sim ≈ loss_theory ≈ ε on every row.",
        run: studies::utility,
        plot: None,
    },
    Experiment {
        name: "nonstationary",
        title: "adaptivity to a population shift (§2)",
        claim: "§2 scopes the results to traffic stationary within the memory \
                time-scale, and §5.3's rule promises adaptivity: T_m = T̃_h tracks slow \
                drift while smoothing fast noise. Halfway through each run newly \
                arriving flows turn 67% burstier (σ 0.3 → 0.5), and three memories are \
                compared in the calm phase, the transition and the new steady state; \
                n = 400, T̃_h = 50, p_q = 1e-2, six replications a controller.",
        expected: "memoryless misses everywhere; T_m = T̃_h meets the target in the \
                   transition and the new steady state (it re-learns within the critical \
                   time-scale); T_m = 20·T̃_h misses in the transition, averaging across \
                   the shift. Too much memory destroys adaptivity: the rule is an \
                   equality.",
        run: studies::nonstationary,
        plot: None,
    },
    Experiment {
        name: "topology",
        title: "worst-link p_f vs T_m/T̃_h under multi-hop composition",
        claim: "Does the rule T_m = T̃_h survive path composition? Every link runs its own \
                controller and a route admits only when every hop accepts \
                (mbac_core::topology's two-phase admission), on parking-lot(3) and \
                star(4): n = 16 per link, RCBR sources (σ/μ = 0.3, T_c = 1), T_h = 10 \
                (T̃_h = 2.5), p_ce = 1e-2 per hop, closed-loop pressure on every route.",
        expected: "both shapes' max_pf falls steeply to a knee near T_m/T̃_h = 1 and \
                   flattens beyond: the single-link rule, applied per hop, still controls \
                   the worst link. The long parking-lot route blocks hardest (it needs all \
                   three hops); the star's binding link is the shared hub.",
        run: topology::topology,
        plot: None,
    },
];

/// Why [`run`] stopped.
#[derive(Debug)]
pub enum RunError {
    /// A name no entry of [`EXPERIMENTS`] has.
    Unknown {
        /// The name.
        name: String,
    },
    /// Writing a CSV or the manifest failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unknown { name } => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                write!(
                    f,
                    "unknown experiment {name:?}; the experiments are: {}",
                    names.join(", ")
                )
            }
            RunError::Io(e) => write!(f, "writing results: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

/// The entries `names` names, in table order; every entry when `names`
/// is empty.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, RunError> {
    if let Some(name) = names
        .iter()
        .find(|n| EXPERIMENTS.iter().all(|e| e.name != *n))
    {
        return Err(RunError::Unknown { name: name.clone() });
    }
    let named = |e: &&Experiment| names.is_empty() || names.iter().any(|n| n == e.name);
    Ok(EXPERIMENTS.iter().filter(named).collect())
}

/// Runs the experiments `names` names (every one when empty) at
/// `budget`, printing each and writing its CSVs and then the manifest
/// under `results/`. An unknown name is an error before anything runs.
/// The manifest names the commit as the tree stood before the run.
pub fn run(names: &[String], budget: &Budget) -> Result<(), RunError> {
    let experiments = select(names)?;
    // Before any CSV is written, so the run's own outputs never read as
    // changes to the tree.
    let commit = commit(std::path::Path::new("."));
    let mut manifest = Vec::new();
    for experiment in experiments {
        let start = Instant::now();
        let outcome = (experiment.run)(budget);
        let wall = start.elapsed().as_secs_f64();
        print!("{}", report(experiment, &outcome));
        let mut digests = Vec::new();
        for (name, table) in &outcome.tables {
            let path = write_csv(name, table)?;
            println!("wrote {}", path.display());
            digests.push((*name, fnv1a(table.to_csv().as_bytes())));
        }
        println!("({wall:.1} s)\n");
        manifest.push(Ran {
            name: experiment.name,
            wall,
            digests,
        });
    }
    let path = std::path::Path::new("results").join("MANIFEST.json");
    std::fs::write(&path, manifest_json(&commit, budget, &manifest))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// What the runner prints for `experiment`'s `outcome`, up to its CSVs.
fn report(experiment: &Experiment, outcome: &Outcome) -> String {
    let mut out = format!("== {}: {} ==\n", experiment.name, experiment.title);
    out += &wrap(experiment.claim);
    for (name, table) in &outcome.tables {
        out += &format!("\n-- {name} --\n{}", table.render());
    }
    if let (Some(plot), Some((_, table))) = (&experiment.plot, outcome.tables.first()) {
        let column = |name| {
            table
                .column(name)
                .expect("a plot names its table's columns")
        };
        let x = column(plot.x);
        let series: Vec<(&str, Vec<(f64, f64)>)> = (plot.ys.iter())
            .map(|&y| (y, x.iter().copied().zip(column(y)).collect()))
            .collect();
        let series: Vec<(&str, &[(f64, f64)])> =
            series.iter().map(|(y, s)| (*y, s.as_slice())).collect();
        out += &format!("\n{}", ascii_plot(&series, plot.log_y, 60, 14));
    }
    out.push('\n');
    for note in &outcome.notes {
        out += &wrap(note);
    }
    out + &wrap(&format!("Expected shape: {}", experiment.expected))
}

/// `text` broken into lines of at most 76 characters at spaces.
fn wrap(text: &str) -> String {
    let mut out = String::new();
    let mut line = 0;
    for word in text.split_whitespace() {
        let len = word.chars().count();
        if line > 0 && line + 1 + len > 76 {
            out.push('\n');
            line = 0;
        }
        if line > 0 {
            out.push(' ');
            line += 1;
        }
        out.push_str(word);
        line += len;
    }
    out + "\n"
}

/// The 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The commit of the git tree at `dir`: `git rev-parse HEAD`'s hash,
/// `-dirty` appended when a tracked file differs from it, or `unknown`.
fn commit(dir: &std::path::Path) -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output();
        out.ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(hash) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if changes.is_empty() => hash,
        _ => hash + "-dirty",
    }
}

/// One experiment's entry in the manifest.
struct Ran {
    name: &'static str,
    /// Wall seconds.
    wall: f64,
    /// Each CSV's name and the FNV-1a digest of its bytes.
    digests: Vec<(&'static str, u64)>,
}

/// The manifest of a run at `commit` and `budget`.
fn manifest_json(commit: &str, budget: &Budget, runs: &[Ran]) -> String {
    let scale = budget.scale.map_or("null".into(), |s| s.to_string());
    let mut out = format!(
        "{{\n  \"commit\": \"{commit}\",\n  \"MBAC_QUICK\": {},\n  \"MBAC_SCALE\": {scale},\n  \
         \"experiments\": [\n",
        budget.quick
    );
    let entries: Vec<String> = (runs.iter())
        .map(|run| {
            let csvs: Vec<String> = (run.digests.iter())
                .map(|(csv, h)| format!("\"{csv}.csv\": \"fnv1a64:{h:016x}\""))
                .collect();
            format!(
                "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"csv\": {{{}}}}}",
                run.name,
                run.wall,
                csvs.join(", ")
            )
        })
        .collect();
    out += &entries.join(",\n");
    out + "\n  ]\n}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_name_lists_the_experiments() {
        let err = select(&["fig5".into(), "fig8".into()]).err().unwrap();
        let text = err.to_string();
        assert!(text.starts_with("unknown experiment \"fig8\""), "{text}");
        for e in EXPERIMENTS {
            assert!(text.contains(e.name), "{text}");
        }
    }

    #[test]
    fn names_select_entries_in_table_order() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        let names = ["topology", "fig5", "topology"].map(String::from);
        let chosen: Vec<&str> = select(&names).unwrap().iter().map(|e| e.name).collect();
        assert_eq!(chosen, ["fig5", "topology"]);
        let mut unique: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), EXPERIMENTS.len());
    }

    #[test]
    fn a_report_shows_the_claim_tables_plot_and_notes() {
        let fig5 = &EXPERIMENTS[2];
        let mut table = Table::new(vec!["t_m", "pf_eqn38", "pf_sim"]);
        table.push(vec![0.0, 0.25, 0.125]);
        table.push(vec![64.0, 1e-4, 5e-5]);
        let outcome = Outcome::new(vec![("fig5", table)], vec!["a note".into()]);
        let text = report(fig5, &outcome);
        assert!(text.starts_with("== fig5: p_f vs memory window T_m (Fig. 5) ==\n"));
        for part in [
            "-- fig5 --",
            "0.2500",
            "5.000e-5",
            "* pf_eqn38",
            "a note",
            "Expected",
        ] {
            assert!(text.contains(part), "{part}: {text}");
        }
        assert!(text.lines().all(|l| l.chars().count() <= 76), "{text}");
    }

    #[test]
    fn the_manifest_records_the_run() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let budget = Budget {
            quick: false,
            scale: Some(0.15),
        };
        let ran = |name, wall, digests| Ran {
            name,
            wall,
            digests,
        };
        let runs = [
            ran("fig5", 1.5, vec![("fig5", 0xabc)]),
            ran("fig9", 0.25, vec![]),
        ];
        let json = manifest_json("abc123", &budget, &runs);
        assert_eq!(
            json,
            "{\n  \"commit\": \"abc123\",\n  \"MBAC_QUICK\": false,\n  \"MBAC_SCALE\": 0.15,\n  \
             \"experiments\": [\n    {\"name\": \"fig5\", \"wall_s\": 1.500, \"csv\": \
             {\"fig5.csv\": \"fnv1a64:0000000000000abc\"}},\n    {\"name\": \"fig9\", \
             \"wall_s\": 0.250, \"csv\": {}}\n  ]\n}\n"
        );
    }

    #[test]
    fn the_commit_is_marked_dirty_when_tracked_files_differ() {
        let dir = std::env::temp_dir().join(format!("mbac-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let status = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=t", "-c", "user.email=t@t", "-c"])
                .args(["commit.gpgsign=false"])
                .args(args)
                .output()
                .unwrap()
                .status;
            assert!(status.success(), "git {args:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("fig5.csv"), "t_m\n0\n").unwrap();
        git(&["add", "fig5.csv"]);
        git(&["commit", "-q", "-m", "fixture"]);
        let clean = commit(&dir);
        assert_eq!(clean.len(), 40, "{clean}");
        assert!(clean.chars().all(|c| c.is_ascii_hexdigit()), "{clean}");
        std::fs::write(dir.join("untracked.csv"), "x\n").unwrap();
        assert_eq!(commit(&dir), clean);
        std::fs::write(dir.join("fig5.csv"), "t_m\n1\n").unwrap();
        assert_eq!(commit(&dir), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
