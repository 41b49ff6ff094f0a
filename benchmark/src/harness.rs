//! One workload, one process: set up four times, run timed rounds
//! until the time is up, check every round's output, and reduce the
//! rounds — in cycles of four stack placements — to medians with
//! quartiles.
//!
//! End-to-end numbers come from rounds through the production entry
//! point with no span recorded anywhere. With `traced`, every other
//! round goes through the replica with the recorder on; those rounds
//! feed the per-layer table and nothing else.

use crate::digest::hex;
use crate::fingerprint::fingerprint;
use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END, LAYER_FIELDS};
use crate::spans::{Layer, Recorder, RecorderConfig};
use crate::stats::{median, Quartiles};
use crate::workloads::{self, Check, Round, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Stack placements a run rotates through: round `i` runs with its
/// stack moved down by `16 · (i mod 4)` bytes, which covers every
/// 16-byte phase of a 64-byte cache line.
///
/// Why: the simulator keeps its RNG state and accumulators on the
/// stack, and whether they straddle a cache line is decided by the
/// stack pointer's phase on entry. On `ar1_dense` the same call runs
/// at 0.46 s or 0.58 s depending on that phase alone, and the phase
/// moves whenever any caller's frame changes size — between the
/// production path and the replica, between two builds, and (on the
/// main thread) between two processes. Rotating makes every run see
/// the same mixture, so a number moves only when the code got faster
/// or slower at *every* placement.
const PHASES: usize = 4;
/// Set-ups per run, one per phase; `setup_s` is their median.
const SETUPS: usize = PHASES;
/// Timed rounds a run makes even when the clock has run out: two
/// full cycles of phases.
const MIN_ROUNDS: usize = 2 * PHASES;
/// Share of a traced run's time that goes to rounds; the rest is for
/// the probes and the pool and ring accounting.
const TRACED_ROUND_SHARE: f64 = 0.7;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where result files, span logs and sink files go.
    pub out_dir: PathBuf,
}

/// Round outcomes, checked against the warm-up round as they arrive.
struct Ledger {
    reference: Round,
    attempted: u64,
    failed: u64,
    /// Every distinct failing check, first detail seen.
    failures: BTreeMap<&'static str, String>,
    /// Last result of each check, for the result file.
    checks: BTreeMap<&'static str, Check>,
    stream_dropped: u64,
}

impl Ledger {
    fn new(reference: Round) -> Self {
        let mut ledger = Ledger {
            reference: reference.clone(),
            attempted: 0,
            failed: 0,
            failures: BTreeMap::new(),
            checks: BTreeMap::new(),
            stream_dropped: 0,
        };
        ledger.record(&reference, true);
        ledger
    }

    fn fail(&mut self, name: &'static str, detail: String) {
        self.failed += 1;
        self.failures.entry(name).or_insert(detail);
    }

    /// Counts one round: the round itself, its requests and its stream
    /// records are attempts; a digest that differs from the warm-up
    /// round's, a request without a decision, a dropped record and a
    /// check out of band are failures.
    fn record(&mut self, round: &Round, is_replica: bool) {
        self.attempted += 1 + round.requests + round.stream_records + round.stream_dropped;
        if round.digest != self.reference.digest {
            self.fail(
                "sim_digest",
                format!(
                    "{} != warm-up {}",
                    hex(round.digest),
                    hex(self.reference.digest)
                ),
            );
        }
        if is_replica && round.detail_digest != self.reference.detail_digest {
            self.fail(
                "detail_digest",
                "replica decision bytes differ between rounds".into(),
            );
        }
        if let (Some(units), Some(want)) = (round.units, self.reference.units) {
            if units != want {
                self.fail("unit_count", format!("{units} != warm-up {want}"));
            }
        }
        if round.decided < round.requests {
            self.failed += round.requests - round.decided;
            self.failures
                .entry("request_without_decision")
                .or_insert(format!(
                    "{} of {}",
                    round.requests - round.decided,
                    round.requests
                ));
        }
        if round.stream_dropped > 0 {
            self.failed += round.stream_dropped;
            self.stream_dropped += round.stream_dropped;
            self.failures
                .entry("stream_dropped")
                .or_insert(format!("{} records", round.stream_dropped));
        }
        for check in &round.checks {
            if !check.ok {
                self.fail(check.name, check.detail.clone());
            }
            self.checks.insert(check.name, check.clone());
        }
    }
}

/// Calls `f` under a frame that holds `16 · index` bytes of padding.
#[inline(never)]
fn with_pad<T>(index: usize, f: &mut dyn FnMut() -> T) -> T {
    #[inline(never)]
    fn padded<const N: usize, T>(f: &mut dyn FnMut() -> T) -> T {
        let pad = [0u8; N];
        black_box(&pad);
        let out = f();
        black_box(&pad);
        out
    }
    match index {
        0 => padded::<0, T>(f),
        1 => padded::<16, T>(f),
        2 => padded::<32, T>(f),
        3 => padded::<48, T>(f),
        4 => padded::<64, T>(f),
        5 => padded::<80, T>(f),
        6 => padded::<96, T>(f),
        _ => padded::<112, T>(f),
    }
}

/// For each 16-byte phase of a cache line, the padding that puts a
/// callee's frame there. How much a padded frame really moves the
/// stack pointer is the compiler's business, so the table is measured,
/// not assumed.
struct StackPhases {
    pad_index: [usize; PHASES],
}

impl StackPhases {
    fn measure() -> Self {
        #[inline(never)]
        fn local_address() -> usize {
            let local = 0u8;
            black_box(&local) as *const u8 as usize
        }
        let base = with_pad(0, &mut local_address);
        let mut pad_index = [0; PHASES];
        // Highest index first, so each phase keeps its smallest padding.
        for index in (0..2 * PHASES).rev() {
            let below = base.wrapping_sub(with_pad(index, &mut local_address));
            pad_index[(below / 16) % PHASES] = index;
        }
        StackPhases { pad_index }
    }

    /// Calls `f` with the stack `16 · (phase mod 4)` bytes (mod 64)
    /// lower than a call at phase 0 has it.
    fn call<T>(&self, phase: usize, f: &mut dyn FnMut() -> T) -> T {
        with_pad(self.pad_index[phase % PHASES], f)
    }
}

/// Means over consecutive full cycles of [`PHASES`] rounds; a trailing
/// partial cycle is left out, so every value weighs each phase once.
fn cycle_means(rounds: &[f64]) -> Vec<f64> {
    rounds
        .chunks_exact(PHASES)
        .map(|cycle| cycle.iter().sum::<f64>() / PHASES as f64)
        .collect()
}

/// Seconds one pass of the reference kernel takes on the host the
/// bounds were set on, when that host is quiet. Only its being a
/// constant matters: it turns a ratio back into seconds.
const REFERENCE_NOMINAL_S: f64 = 4.2e-3;

/// One pass of the reference kernel: a fixed amount of integer and
/// floating-point work on a cache-resident table, in four independent
/// chains.
///
/// Four chains, not one: most of what slows this host is a neighbour
/// on the sibling hardware thread, which takes execution ports from
/// code that keeps them busy and hardly touches one dependent chain
/// that leaves them idle. Over 40 minutes of rounds logged beside both
/// kernels, dividing by the one-chain kernel left 10-second medians
/// drifting by 7–12 % on `fig5_sweep`, `ar1_dense` and `serve_links`
/// between two stretches 20 minutes apart (raw: 11–16 %); dividing by
/// this one left 3–7 %. Adding a memory-bound pass on top moved that by
/// under 2 % either way, so there is none.
#[inline(never)]
fn reference_pass_s() -> f64 {
    const STEPS: u64 = 1_000_000;
    let mut table = [1.0f64; 512];
    let mut x = [
        0x9E37_79B9_7F4A_7C15u64,
        0xD1B5_4A32_D192_ED03,
        0x8CB9_2BA7_2F3D_8DD7,
        0x2545_F491_4F6C_DD1D,
    ];
    let mut acc = [1.0f64; 4];
    let start = Instant::now();
    for _ in 0..STEPS {
        for (x, acc) in x.iter_mut().zip(&mut acc) {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let slot = (*x >> 55) as usize;
            *acc = *acc * 0.999_999 + table[slot];
            table[slot] = (*x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
    }
    black_box((acc, table, x));
    start.elapsed().as_secs_f64()
}

/// How fast the host is right now: the median of three passes.
fn reference_s() -> f64 {
    median(&[reference_pass_s(), reference_pass_s(), reference_pass_s()])
}

/// One timed call: as the clock read it, and at reference speed.
#[derive(Debug, Clone, Copy)]
struct Timing {
    raw_s: f64,
    /// `raw_s` scaled by how much faster or slower than nominal the
    /// reference kernel ran right before and right after the call.
    ///
    /// The host this runs on changes speed by ±30 % for minutes at a
    /// time (the same round of `fig5_sweep`: 0.34 s, 0.45 s, 0.60 s
    /// within one hour, the reference kernel moving with it), which no
    /// amount of repetition inside one 10-second run averages out.
    /// Every end-to-end time is therefore reported at reference speed;
    /// the raw times are in the result file beside it.
    ref_s: f64,
}

impl Timing {
    /// Factor that turns a raw rate into one at reference speed.
    fn rate_scale(&self) -> f64 {
        self.raw_s / self.ref_s
    }
}

impl StackPhases {
    /// Times `f` at stack phase `phase`, bracketed by the reference
    /// kernel.
    fn timed<T>(&self, phase: usize, f: &mut dyn FnMut() -> T) -> (T, Timing) {
        let before = reference_s();
        let start = Instant::now();
        let out = self.call(phase, f);
        let raw_s = start.elapsed().as_secs_f64();
        let reference = (before + reference_s()) / 2.0;
        let timing = Timing {
            raw_s,
            ref_s: raw_s * REFERENCE_NOMINAL_S / reference,
        };
        (out, timing)
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An end-to-end metric as the result file stores it: the value the
/// run reports, and the quartiles of the samples it was reduced from.
fn quartiles_entry(value: f64, q: Quartiles, unit: &str) -> Json {
    let Json::Obj(mut fields) = value_entry(value, unit) else {
        unreachable!("entries encode as objects")
    };
    fields.extend(q.to_json().members().iter().cloned());
    Json::Obj(fields)
}

fn value_entry(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload and returns its result file's contents.
pub fn run(opts: &Options) -> Result<Json, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let build = || {
        workloads::build(&opts.workload, opts.seed, &opts.out_dir)
            .ok_or_else(|| format!("unknown workload '{}' (try `list`)", opts.workload))
    };

    // Set-up: generate the inputs, run the warm-up round. Repeated so
    // that `setup_s` is a median; the last instance is the one timed.
    let stack = StackPhases::measure();
    let mut setups: Vec<Timing> = Vec::with_capacity(SETUPS);
    let mut current: Option<(Box<dyn Workload>, Round)> = None;
    for phase in 0..SETUPS {
        drop(current.take());
        let (built, timing) = stack.timed(phase, &mut || {
            let mut workload = build()?;
            let warm = workload.replica(&mut Recorder::disabled());
            Ok::<_, String>((workload, warm))
        });
        setups.push(timing);
        current = Some(built?);
    }
    let (mut workload, warm) = current.expect("SETUPS > 0");
    let units = warm.units.ok_or("the replica must count its units")? as f64;
    let mut ledger = Ledger::new(warm);

    // Timed rounds.
    let mut recorder = if opts.traced {
        Recorder::new(RecorderConfig::default())
    } else {
        Recorder::disabled()
    };
    let budget = opts.seconds * if opts.traced { TRACED_ROUND_SHARE } else { 1.0 };
    let (mut rounds, mut traced_rounds): (Vec<Timing>, Vec<Timing>) = (Vec::new(), Vec::new());
    // Units per second of each round, at reference speed.
    let mut rate = Vec::new();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    while rounds.len() < MIN_ROUNDS || clock.elapsed().as_secs_f64() < budget {
        let phase = rounds.len();
        let (round, timing) = stack.timed(phase, &mut || workload.production());
        rate.push(match round.rate {
            Some(raw_rate) => raw_rate * timing.rate_scale(),
            None => units / timing.ref_s,
        });
        rounds.push(timing);
        p50.extend(round.decision_p50_ns);
        p99.extend(round.decision_p99_ns);
        ledger.record(&round, false);
        if opts.traced {
            let (round, timing) = stack.timed(phase, &mut || workload.replica(&mut recorder));
            traced_rounds.push(timing);
            ledger.record(&round, true);
        }
    }
    let peak_rss = peak_rss_mb();

    let ref_s = |timings: &[Timing]| timings.iter().map(|t| t.ref_s).collect::<Vec<f64>>();
    let raw_s = |timings: &[Timing]| timings.iter().map(|t| t.raw_s).collect::<Vec<f64>>();
    // The samples each end-to-end metric is reduced from.
    let samples = |metric: &str| match metric {
        "wall_s" => cycle_means(&ref_s(&rounds)),
        "units_per_s" => cycle_means(&rate),
        "setup_s" => ref_s(&setups),
        "peak_rss_mb" => vec![peak_rss],
        other => unreachable!("no samples for end-to-end metric {other}"),
    };
    let numbers = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());

    let mut result = vec![
        ("schema".to_string(), Json::str("mbac-benchmark/v1")),
        ("workload".into(), Json::Str(opts.workload.clone())),
        ("seed".into(), Json::UInt(opts.seed)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("traced".into(), Json::Bool(opts.traced)),
        ("fingerprint".into(), fingerprint()),
        ("params".into(), workload.params()),
        ("unit".into(), Json::str(workload.unit())),
        ("units_per_round".into(), Json::Num(units)),
        // Every round in run order (round `i` ran at stack phase
        // `i mod 4`), as the clock read it and at reference speed.
        ("round_raw_s".into(), numbers(raw_s(&rounds))),
        ("round_ref_s".into(), numbers(ref_s(&rounds))),
        ("setup_raw_s".into(), numbers(raw_s(&setups))),
        ("sim_digest".into(), Json::Str(hex(ledger.reference.digest))),
        (
            "detail_digest".into(),
            Json::Str(hex(ledger.reference.detail_digest)),
        ),
        (
            "end_to_end".into(),
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let q = Quartiles::of(&samples(m.name)).expect("two cycles of rounds");
                        (m.name.to_string(), quartiles_entry(m.reduce(&q), q, m.unit))
                    })
                    .collect(),
            ),
        ),
    ];

    if opts.traced {
        let per_layer = traced_metrics(
            workload.as_mut(),
            &recorder,
            traced_rounds.len(),
            raw_s(&traced_rounds).iter().sum(),
            &cycle_means(&ref_s(&rounds)),
            &cycle_means(&ref_s(&traced_rounds)),
            median(&cycle_means(&raw_s(&rounds))),
            &p50,
            &p99,
            ledger.stream_dropped,
        );
        let log_path = opts.out_dir.join(format!("{}.spans.csv", opts.workload));
        std::fs::File::create(&log_path)
            .and_then(|f| recorder.write_log(&mut std::io::BufWriter::new(f)))
            .map_err(|e| format!("cannot write {}: {e}", log_path.display()))?;
        result.push(("span_log".into(), Json::Str(log_path.display().to_string())));
        result.push(("per_layer".into(), Json::Obj(per_layer)));
    }

    result.extend([
        ("attempted".to_string(), Json::UInt(ledger.attempted)),
        ("failed".into(), Json::UInt(ledger.failed)),
        (
            "failed_share".into(),
            Json::Num(ledger.failed as f64 / ledger.attempted as f64),
        ),
        ("correct".into(), Json::Bool(ledger.failed == 0)),
        (
            "checks".into(),
            Json::Arr(
                ledger
                    .checks
                    .values()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            (
                                "ok",
                                Json::Bool(c.ok && !ledger.failures.contains_key(c.name)),
                            ),
                            ("detail", Json::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures".into(),
            Json::Obj(
                ledger
                    .failures
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]);
    Ok(Json::Obj(result))
}

/// The per-layer table of a traced run, in `metrics::per_layer` order.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    workload: &mut dyn Workload,
    recorder: &Recorder,
    traced_rounds: usize,
    traced_total_s: f64,
    wall_s: &[f64],
    traced_wall_s: &[f64],
    raw_wall_s: f64,
    p50: &[f64],
    p99: &[f64],
    stream_dropped: u64,
) -> Vec<(String, Json)> {
    let rounds = traced_rounds as f64;
    // Worker-time available to the traced rounds: their wall time, on
    // every worker the workload fans out to.
    let available_ns = traced_total_s * 1e9 * workload.parallelism() as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut covered = 0.0;
    for layer in Layer::ALL {
        let s = recorder.stats(layer);
        let share = s.busy_ns as f64 / available_ns;
        covered += share;
        // Counts and times are per round; a round's call counts are
        // deterministic, so the division is exact.
        let fields = [
            s.calls as f64 / rounds,
            s.busy_ns as f64 / rounds,
            share,
            s.p50_ns,
            s.p99_ns,
        ];
        for ((field, _), value) in LAYER_FIELDS.iter().zip(fields) {
            values.insert(format!("{}.{field}", layer.name()), value);
        }
    }
    // Time of the traced rounds that no span's self time covers. On
    // the serve workloads that is the recorder's own bookkeeping
    // between 60 ns units, and `trace.overhead_share` — the traced
    // round against the untraced one — is the same size.
    values.insert("trace.residual_share".into(), 1.0 - covered);
    values.insert(
        "trace.overhead_share".into(),
        1.0 - median(wall_s) / median(traced_wall_s),
    );
    values.insert("trace.spans_dropped".into(), recorder.dropped() as f64);
    values.insert("metrics.emit.dropped".into(), stream_dropped as f64);
    values.insert("serve.decision.p50_ns".into(), median(p50));
    values.insert("serve.decision.p99_ns".into(), median(p99));

    let mut quartiles: BTreeMap<String, Quartiles> = BTreeMap::new();
    for probe in workload.probes() {
        values.insert(probe.name.into(), probe.value.median);
        quartiles.insert(probe.name.into(), probe.value);
    }
    if let Some(pool) = workload.pool_stats(raw_wall_s) {
        values.insert("num.pool.utilization".into(), pool.utilization);
        values.insert("num.pool.steals".into(), pool.steals);
        values.insert("num.pool.busy_ns".into(), pool.busy_ns);
        values.insert("num.pool.speedup_vs_serial".into(), pool.speedup_vs_serial);
    }
    if let Some(ring) = workload.ring_stats() {
        values.insert("serve.ring.push_ns".into(), ring.push_ns);
        values.insert("serve.ring.pop_ns".into(), ring.pop_ns);
        values.insert("serve.ring.threaded_per_s".into(), ring.threaded_per_s);
    }

    per_layer()
        .into_iter()
        .map(|m| {
            // Not applicable on this workload (or this host): 0.
            let value = values.get(&m.name).copied().unwrap_or(0.0);
            let entry = match quartiles.get(&m.name) {
                Some(q) => {
                    let Json::Obj(mut fields) = value_entry(value, m.unit) else {
                        unreachable!("entries encode as objects")
                    };
                    fields.extend([
                        ("q1".to_string(), Json::Num(q.q1)),
                        ("q3".into(), Json::Num(q.q3)),
                        ("pairs".into(), Json::UInt(q.n as u64)),
                    ]);
                    Json::Obj(fields)
                }
                None => value_entry(value, m.unit),
            };
            (m.name, entry)
        })
        .collect()
}

/// The driver's result line: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
pub fn result_line(result: &Json) -> Json {
    let traced = result
        .get("traced")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let source = result.get(if traced { "per_layer" } else { "end_to_end" });
    let metrics = source
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value_entry(value, unit))
        })
        .collect();
    Json::obj([
        (
            "correct",
            result.get("correct").cloned().unwrap_or(Json::Bool(false)),
        ),
        (
            "attempted",
            result.get("attempted").cloned().unwrap_or(Json::UInt(1)),
        ),
        (
            "failed",
            result.get("failed").cloned().unwrap_or(Json::UInt(1)),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The human-readable table printed above the result line.
pub fn print_table(result: &Json) {
    let text = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "== {} (seed {}, unit = {}, sim_digest {}) ==",
        text("workload"),
        result.get("seed").and_then(Json::as_u64).unwrap_or(0),
        text("unit"),
        text("sim_digest"),
    );
    for (name, entry) in result
        .get("end_to_end")
        .map(Json::members)
        .unwrap_or_default()
    {
        let f = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  {name:<14} {:>16.6} {:<4} [median {:.6}, q1 {:.6}, q3 {:.6}, n = {}]",
            f("value"),
            entry.get("unit").and_then(Json::as_str).unwrap_or(""),
            f("median"),
            f("q1"),
            f("q3"),
            f("samples"),
        );
    }
    for (name, entry) in result
        .get("per_layer")
        .map(Json::members)
        .unwrap_or_default()
    {
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        if value != 0.0 {
            println!(
                "  {name:<32} {value:>18.4} {}",
                entry.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    for check in result.get("checks").map(Json::items).unwrap_or_default() {
        println!(
            "  check {:<28} {} ({})",
            check.get("name").and_then(Json::as_str).unwrap_or("?"),
            if check.get("ok").and_then(Json::as_bool).unwrap_or(false) {
                "ok"
            } else {
                "FAILED"
            },
            check.get("detail").and_then(Json::as_str).unwrap_or(""),
        );
    }
    for (name, detail) in result
        .get("failures")
        .map(Json::members)
        .unwrap_or_default()
    {
        println!("  FAILED {name}: {}", detail.as_str().unwrap_or(""));
    }
    println!(
        "  attempted {} failed {} failed_share {}",
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        result.get("failed").and_then(Json::as_u64).unwrap_or(0),
        result
            .get("failed_share")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_phases_cover_a_cache_line_in_16_byte_steps() {
        #[inline(never)]
        fn probe() -> usize {
            let local = 0u8;
            black_box(&local) as *const u8 as usize
        }
        let stack = StackPhases::measure();
        let at: Vec<usize> = (0..=PHASES).map(|p| stack.call(p, &mut probe)).collect();
        for phase in 1..PHASES {
            assert_eq!(
                (at[0] - at[phase]) % 64,
                16 * phase,
                "phase {phase}: {at:?}"
            );
        }
        assert_eq!(at[PHASES], at[0], "phases wrap");
    }

    #[test]
    fn cycle_means_weigh_every_phase_once() {
        let rounds = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0];
        assert_eq!(
            cycle_means(&rounds),
            vec![2.5, 6.5],
            "the partial cycle is left out"
        );
        assert!(cycle_means(&rounds[..3]).is_empty());
    }

    #[test]
    fn reference_speed_scales_time_and_rate_consistently() {
        // A host running at half speed: the reference pass takes twice
        // its nominal time, so a 2-second call counts as 1 second and a
        // raw rate doubles.
        let timing = Timing {
            raw_s: 2.0,
            ref_s: 2.0 * REFERENCE_NOMINAL_S / (2.0 * REFERENCE_NOMINAL_S),
        };
        assert_eq!(timing.ref_s, 1.0);
        assert_eq!(timing.rate_scale(), 2.0);
        let (out, timing) = StackPhases::measure().timed(0, &mut || 7);
        assert_eq!(out, 7);
        assert!(timing.raw_s >= 0.0 && timing.ref_s >= 0.0);
    }

    #[test]
    fn ledger_counts_attempts_and_failures() {
        let reference = Round {
            digest: 1,
            detail_digest: 9,
            units: Some(10),
            requests: 100,
            decided: 100,
            stream_records: 5,
            ..Round::default()
        };
        let mut ledger = Ledger::new(reference.clone());
        assert_eq!((ledger.attempted, ledger.failed), (106, 0));
        // A production round: no detail digest to compare, same report.
        ledger.record(
            &Round {
                detail_digest: 0,
                ..reference.clone()
            },
            false,
        );
        assert_eq!((ledger.attempted, ledger.failed), (212, 0));
        // A round whose report differs, with 3 unanswered requests, 2
        // dropped records and a failed check.
        let bad = Round {
            digest: 2,
            decided: 97,
            stream_dropped: 2,
            checks: vec![Check::band("blocking_share", 0.5, 0.05, 0.2)],
            ..reference
        };
        ledger.record(&bad, true);
        assert_eq!(ledger.attempted, 212 + 108);
        assert_eq!(ledger.failed, 1 + 3 + 2 + 1);
        for name in [
            "sim_digest",
            "request_without_decision",
            "stream_dropped",
            "blocking_share",
        ] {
            assert!(ledger.failures.contains_key(name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = Json::obj([
            ("traced", Json::Bool(false)),
            ("correct", Json::Bool(true)),
            ("attempted", Json::UInt(12)),
            ("failed", Json::UInt(0)),
            (
                "end_to_end",
                Json::obj([(
                    "wall_s",
                    quartiles_entry(0.5, Quartiles::of(&[0.5, 0.6, 0.7]).unwrap(), "s"),
                )]),
            ),
            (
                "per_layer",
                Json::obj([("core.decide.calls", value_entry(3.0, "count"))]),
            ),
        ]);
        let line = result_line(&result);
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.to_line(),
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
