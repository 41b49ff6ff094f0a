//! The seven workloads.
//!
//! Each workload runs a round two ways. [`Workload::production`] goes
//! through the public entry point `mbacctl` / `exp_*` use, untouched —
//! every end-to-end number comes from it. [`Workload::replica`] is the
//! benchmark's own copy of that entry point's loop, calling the same
//! `pub` functions in the same order with a span around each; run with
//! a disabled recorder it is the warm-up round and the source of the
//! reference digest and the unit count, run with an enabled one it is
//! the traced pass. Both return a [`Round`] whose digest must agree.

mod continuous;
mod impulsive;
mod poisson;
mod serve;

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::Quartiles;
use std::path::Path;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 7] = [
    "fig5_sweep",
    "prop33_impulsive",
    "ar1_dense",
    "rcbr_large",
    "poisson_blocking",
    "serve_links",
    "serve_routed",
];

/// One output check: a statement about a round's report that must
/// hold on every seed.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn band(name: &'static str, value: f64, lo: f64, hi: f64) -> Check {
        Check {
            name,
            ok: value >= lo && value <= hi,
            detail: format!("{value} in [{lo}, {hi}]"),
        }
    }

    pub fn equal(name: &'static str, got: u64, want: u64) -> Check {
        Check {
            name,
            ok: got == want,
            detail: format!("{got} == {want}"),
        }
    }
}

/// What one round produced, beyond its wall time.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// `sim_digest`: hash of every deterministic report field that both
    /// the production entry point and the replica expose.
    pub digest: u64,
    /// Hash of what only the replica sees (per-link decision bytes);
    /// 0 from the production path.
    pub detail_digest: u64,
    /// Units of work the round completed, in the workload's unit.
    /// `None` when the production report does not carry the count
    /// (flow-ticks); the harness then uses the warm-up round's.
    pub units: Option<u64>,
    /// Units per second where that is not `units / wall`: the serve
    /// workloads report the replay's own rate, generation excluded.
    pub rate: Option<f64>,
    /// Admission requests offered and answered (serve workloads).
    pub requests: u64,
    pub decided: u64,
    /// Stream records written and dropped (`rcbr_large`).
    pub stream_records: u64,
    pub stream_dropped: u64,
    /// Per-decision latency of the round (serve workloads).
    pub decision_p50_ns: Option<f64>,
    pub decision_p99_ns: Option<f64>,
    pub checks: Vec<Check>,
}

/// An isolated-layer measurement: `value` is a median over paired,
/// interleaved rounds (a time per item, or a ratio of two times).
#[derive(Debug, Clone)]
pub struct Probe {
    pub name: &'static str,
    pub value: Quartiles,
}

/// `num.pool.*`: what the work-stealing pool did in one metered round.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub utilization: f64,
    pub steals: f64,
    pub busy_ns: f64,
    /// Serial round time over parallel round time.
    pub speedup_vs_serial: f64,
}

/// `serve.ring.*`: the ingest ring on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingStats {
    /// Single-thread cost of one `try_push` / one `try_pop`.
    pub push_ns: f64,
    pub pop_ns: f64,
    /// Decisions per second of a threaded replay through one ring
    /// (1 producer, 1 shard); 0 on a one-core host.
    pub threaded_per_s: f64,
}

pub trait Workload {
    /// The parameters the inputs were generated with, for the result
    /// file's fingerprint.
    fn params(&self) -> Json;

    /// What `units_per_s` counts on this workload.
    fn unit(&self) -> &'static str;

    fn production(&mut self) -> Round;

    fn replica(&mut self, rec: &mut Recorder) -> Round;

    /// Isolated layer calls at this workload's size and model; empty
    /// where the workload owns no probe.
    fn probes(&mut self) -> Vec<Probe> {
        Vec::new()
    }

    /// Workers a round fans out to; layer shares are of the worker
    /// time a round had, wall time × this.
    fn parallelism(&self) -> usize {
        1
    }

    /// Pool accounting, given the median wall time of the (parallel)
    /// production rounds; only `prop33_impulsive` fans out.
    fn pool_stats(&mut self, _parallel_wall_s: f64) -> Option<PoolStats> {
        None
    }

    /// Ingest-ring cost; only `serve_links` reports it.
    fn ring_stats(&mut self) -> Option<RingStats> {
        None
    }
}

/// Generates `name`'s inputs from `seed`. `scratch` is a directory the
/// workload may write sink files into.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig5_sweep" => Box::new(continuous::Continuous::fig5_sweep(seed)),
        "ar1_dense" => Box::new(continuous::Continuous::ar1_dense(seed)),
        "rcbr_large" => Box::new(continuous::Continuous::rcbr_large(seed, scratch)),
        "prop33_impulsive" => Box::new(impulsive::Impulsive::new(seed)),
        "poisson_blocking" => Box::new(poisson::Poisson::new(seed)),
        "serve_links" => Box::new(serve::Links::new(seed)),
        "serve_routed" => Box::new(serve::Routed::new(seed)),
        _ => return None,
    })
}

/// Interleaved paired timing: runs `a` and `b` alternately `pairs`
/// times (swapping which goes first) and returns the per-pair times.
/// The ratio of a pair cancels host drift that a ratio of two
/// separately-timed blocks would keep.
pub(crate) fn paired(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let (mut ta, mut tb) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        if i % 2 == 0 {
            ta.push(a());
            tb.push(b());
        } else {
            tb.push(b());
            ta.push(a());
        }
    }
    (ta, tb)
}

/// Quartiles of the per-pair ratios `num[i] / den[i]`.
pub(crate) fn ratio(num: &[f64], den: &[f64]) -> Quartiles {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    Quartiles::of(&ratios).expect("at least one pair")
}

/// Derives a sub-seed, so the scenarios of one workload do not share a
/// stream and `--seed` moves all of them.
pub(crate) fn sub_seed(seed: u64, salt: u64) -> u64 {
    mbac_sim::rep_seed(seed, salt)
}
