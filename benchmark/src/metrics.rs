//! The metric tables: every name, unit and direction the benchmark
//! reports, and the regression bound of each end-to-end metric.
//! `../BENCHMARK.json` is generated from these tables (`manifest`
//! subcommand) and a test keeps the two equal.

use crate::json::Json;
use crate::spans::Layer;
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run reduces its rounds to the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// The quartile on the metric's good side (first for a time, third
    /// for a rate) of the cycle means. Interference from the host only
    /// ever slows a round, and it comes in episodes of seconds, so the
    /// undisturbed quartile repeats from run to run where the median —
    /// which half the time sits inside an episode — does not (README,
    /// "Noise": it halves the run-to-run spread).
    UndisturbedQuartile,
    /// The median of the samples (the four set-ups; the one memory
    /// reading).
    Median,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse
    /// before a change is a regression. The manifest is refused if a
    /// run-to-run spread ever exceeds its bound, and on this host the
    /// worst spreads seen are 14 % (times), 18 % (set-up) and 6 %
    /// (memory) — README, "Noise".
    pub bound: f64,
    pub reduce: Reduce,
}

/// The end-to-end metrics, reported by every workload. Times are at
/// reference speed (see `harness::Timing`).
pub const END_TO_END: [EndToEnd; 4] = [
    // Wall time of one round through the production entry point.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::UndisturbedQuartile,
    },
    // Work per second in the workload's own unit: flow-ticks,
    // replications, arrivals, decisions.
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        reduce: Reduce::UndisturbedQuartile,
    },
    // Input generation plus the warm-up round, four times over.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::Median,
    },
    // VmHWM after the last round. The serve workloads have two modes
    // 8–12 % apart (whether both generation workers hold their buffers
    // at the same moment), so ten runs spread by up to 11 %.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        reduce: Reduce::Median,
    },
];

impl EndToEnd {
    /// The value a run reports, given the quartiles of its samples.
    pub fn reduce(&self, q: &crate::stats::Quartiles) -> f64 {
        match (self.reduce, self.better) {
            (Reduce::UndisturbedQuartile, Better::Lower) => q.q1,
            (Reduce::UndisturbedQuartile, Better::Higher) => q.q3,
            (Reduce::Median, _) => q.median,
        }
    }
}

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The five numbers every span layer reports.
pub const LAYER_FIELDS: [(&str, &str); 5] = [
    ("calls", "count"),
    ("busy_ns", "ns"),
    ("share", "share"),
    ("p50_ns", "ns"),
    ("p99_ns", "ns"),
];

/// Per-layer metrics that are not one of a span layer's five.
const OTHER_PER_LAYER: [(&str, &str, Better); 22] = [
    ("num.pool.utilization", "share", Better::Higher),
    ("num.pool.steals", "count", Better::Lower),
    ("num.pool.busy_ns", "ns", Better::Lower),
    ("num.pool.speedup_vs_serial", "ratio", Better::Higher),
    ("serve.ring.push_ns", "ns", Better::Lower),
    ("serve.ring.pop_ns", "ns", Better::Lower),
    ("serve.ring.threaded_per_s", "1/s", Better::Higher),
    ("serve.decision.p50_ns", "ns", Better::Lower),
    ("serve.decision.p99_ns", "ns", Better::Lower),
    ("metrics.emit.dropped", "count", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
    ("trace.residual_share", "share", Better::Lower),
    ("trace.spans_dropped", "count", Better::Lower),
    ("probe.aa_ratio", "ratio", Better::Lower),
    ("probe.wide_over_scalar", "ratio", Better::Lower),
    ("probe.boxed_over_batched", "ratio", Better::Higher),
    ("probe.stream_over_disabled", "ratio", Better::Lower),
    ("probe.sample_fill_ns", "ns", Better::Lower),
    ("probe.advance_ns_per_flow", "ns", Better::Lower),
    ("probe.measure_ns_per_flow", "ns", Better::Lower),
    ("probe.memo_hit_ns", "ns", Better::Lower),
    ("probe.memo_miss_ns", "ns", Better::Lower),
];

/// Every per-layer metric, in reporting order. A workload that does
/// not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for layer in Layer::ALL {
        for (field, unit) in LAYER_FIELDS {
            out.push(PerLayer {
                name: format!("{}.{field}", layer.name()),
                unit,
                better: Better::Lower,
            });
        }
    }
    out.extend(
        OTHER_PER_LAYER
            .iter()
            .map(|&(name, unit, better)| PerLayer {
                name: name.into(),
                unit,
                better,
            }),
    );
    out
}

/// One line on why each workload is in the set.
pub fn workload_why(name: &str) -> &'static str {
    match name {
        "fig5_sweep" => "the paper's headline pipeline: 9 T_m points, 5 us ticks at n=1000, so estimator, memo-hot decide and per-tick Session overhead show; unit = flow-ticks",
        "prop33_impulsive" => "sqrt-2 experiment: 2500 short replications over the work-stealing pool, boxed spawn/admit_process path, one memo-cold decide per replication; unit = replications",
        "ar1_dense" => "1e5 AR(1) flows draw a Gaussian every tick: sample + advance kernels should be >80% of the round, so wide kernels and batching must pay rent here; unit = flow-ticks",
        "rcbr_large" => "2.5e5 RCBR flows with streaming metrics: memory-resident advance sweep, wheel lifecycle at scale, and the only workload where metrics.emit is on; unit = flow-ticks",
        "poisson_blocking" => "Poisson arrivals at 1.15x capacity (sustained overload with blocking): cost is per arrival, a full-table advance_to + depart_until on every event; unit = arrivals",
        "serve_links" => "read-heavy decision plane: 32 links, 32 requests per measurement, ~1M memo-hot decisions per replay; unit = decisions (replay time only)",
        "serve_routed" => "write-heavy routed plane on parking-lot:3: 2 requests per measurement, so Measure ingestion and two-phase reserve/pump dominate; unit = decisions (replay time only)",
        _ => "",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::UInt(crate::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                NAMES
                    .iter()
                    .map(|&name| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("why", Json::str(workload_why(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.clone())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_manifest_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert!((2..=8).contains(&NAMES.len()));
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(NAMES);
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for name in NAMES {
            let why = workload_why(name);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
    }
}
