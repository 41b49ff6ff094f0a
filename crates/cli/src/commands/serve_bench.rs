//! `mbacctl serve-bench` — the closed-loop decision-plane benchmark.
//!
//! Generates a multi-link request workload a window of ticks at a time
//! — on the serial shape the next window on a second core while this
//! one is replayed — replays it through the sharded [`mbac_serve`]
//! decision plane, and reports decision latency percentiles plus
//! sustained throughput.
//! Invalid configurations surface as friendly messages (exit code 1),
//! never as panics.
//!
//! The printed report keeps the *deterministic* decision totals in a
//! separate block from the *timing* figures, so byte-comparing the
//! first block across runs (e.g. different shard counts)
//! checks the invariance contract without tripping on wall-clock
//! noise.

use super::{config_err, finish_stream, open_stream, require_stats};
use crate::args::{ArgError, Args};
use mbac_serve::{
    closed_loop_with_parallelism, host_parallelism, routed_closed_loop_with_parallelism,
    BenchConfig, BenchReport, RoutedBenchConfig,
};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use mbac_traffic::trace::{Trace, TraceModel};
use std::sync::Arc;

/// Usage text.
pub const USAGE: &str = "\
mbacctl serve-bench [--links <n>] [--flows-per-link <n>] [--ticks <n>]
                    [--tick <dt>] [--requests-per-tick <n>]
                    [--holding <T_h>] [--capacity <c>] [--seed <s>]
                    [--shards <n>] [--producers <n>] [--ring-capacity <n>]
                    [--p-ce <p>] [--t-m <T_m>]
                    [--topology single|parking-lot:<h>|star:<l>]
                    [--flows-per-route <n>] [--noise-sd <sigma>]
                    [--source rcbr|ar1 | --trace <file>]
                    [--mean <mu> --sd <sigma> --t-c <T_c>]
                    [--metrics-stream <file>] [--stream-sample <fraction>]
                    [--stream-flush <n>] [--stream-ring <n>]

Runs the closed-loop decision-plane benchmark: per-link measurement +
request streams generated from the flow model are replayed into the
sharded serve plane, and the report summarizes the admission
decisions (deterministic for a fixed seed and shape, whatever the
shard/producer choice) plus p50/p99/mean decision latency and
sustained decisions/sec. Latency is read off stamped decisions: every
one of a run of up to 16384 requests, that many spread over a longer
one (the `latency samples : n of N decisions` line). `elapsed` is the
replay alone, `generation` the time spent generating the workload and
`wall` the whole run: both shapes generate and replay a window of
ticks at a time, in memory that does not grow with --ticks, with
--topology too (its route table holds a window's requests); the
serial shape overlaps the two when the host has a second core (and
runs them in turn when it has one). A run may pass 2^40
(1099511627776) events or rate samples, and 2^28 (268435456) in one
tick.
--shards/--producers pick the plane shape; on a single-core host a
threaded shape falls back to the serial reference and says so.
--ring-capacity bounds each shard's ingest ring (the closed loop's
outstanding-event window). --source picks the flow model (rcbr
default, or ar1); --trace replays an LRD trace file instead and
cannot be combined with --mean/--sd/--t-c.
--topology switches to the routed multi-hop bench: requests carry a
route and are admitted only if *every* hop accepts (two-phase
reserve/commit across shards; a parking lot takes 2 to 255 hops, a
star 2 to 4096 legs).
Every link gets --capacity; --flows-per-route sizes the steady
workload per route and --noise-sd adds per-node measurement noise.
--topology replaces --links and --flows-per-link.
--metrics-stream emits bounded-memory streaming metrics as
mbac-metrics/v2-stream JSONL: per-decision samples (--stream-sample,
default 0) plus cumulative per-shard interval snapshots every
--stream-flush decisions (default 0 = end-of-run only); records that
do not fit the stream's ring (--stream-ring, default 1024) are
dropped and counted, never buffered unboundedly.";

/// Builds the per-flow traffic source for the generated workload.
fn build_model(args: &Args) -> Result<Box<dyn SourceModel>, ArgError> {
    let mean = args.f64_or("mean", 1.0)?;
    let sd = args.f64_or("sd", 0.3)?;
    let t_c = args.f64_or("t-c", 1.0)?;
    require_stats(&[("mean", mean), ("t-c", t_c)], ("sd", sd))?;
    if let Some(file) = args.get("trace") {
        let f =
            std::fs::File::open(file).map_err(|e| ArgError(format!("cannot open {file}: {e}")))?;
        let trace =
            Arc::new(Trace::read_from(f).map_err(|e| ArgError(format!("parse failed: {e}")))?);
        return Ok(Box::new(TraceModel::new(trace)));
    }
    match args.get("source").unwrap_or("rcbr") {
        "rcbr" => Ok(Box::new(RcbrModel::new(RcbrConfig {
            mean,
            std_dev: sd,
            t_c,
            truncate_at_zero: true,
        }))),
        "ar1" => Ok(Box::new(Ar1Model::new(Ar1Config {
            mean,
            std_dev: sd,
            t_c,
            tick: (t_c / 20.0).max(1e-3),
            clamp_at_zero: true,
        }))),
        other => Err(ArgError(format!(
            "--source must be rcbr or ar1, got {other}"
        ))),
    }
}

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "links",
        "flows-per-link",
        "ticks",
        "tick",
        "requests-per-tick",
        "holding",
        "capacity",
        "seed",
        "shards",
        "producers",
        "ring-capacity",
        "p-ce",
        "t-m",
        "source",
        "trace",
        "mean",
        "sd",
        "t-c",
        "topology",
        "flows-per-route",
        "noise-sd",
        "metrics-stream",
        "stream-sample",
        "stream-flush",
        "stream-ring",
    ])?;
    if args.get("trace").is_some() {
        for model_flag in ["mean", "sd", "t-c", "source"] {
            if args.get(model_flag).is_some() {
                return Err(ArgError(format!(
                    "--trace and --{model_flag} are mutually exclusive: a trace \
                     file fixes the source statistics"
                )));
            }
        }
    }
    let model = build_model(args)?;

    if let Some(spec) = args.get("topology") {
        for link_flag in ["links", "flows-per-link"] {
            if args.get(link_flag).is_some() {
                return Err(ArgError(format!(
                    "--topology and --{link_flag} are mutually exclusive: the \
                     topology fixes the link set (use --flows-per-route)"
                )));
            }
        }
        let d = RoutedBenchConfig::default();
        let capacity = args.f64_or("capacity", 60.0)?;
        let noise_sd = args.f64_or("noise-sd", d.noise_sd)?;
        if noise_sd < 0.0 {
            return Err(ArgError("--noise-sd must be >= 0".into()));
        }
        let topology = Arc::new(super::parse_topology(spec, capacity)?);
        let banner = format!(
            "serve bench (routed): topology = {spec}, links = {}, routes = {}",
            topology.links(),
            topology.routes()
        );
        let stream = open_stream(args)?;
        let cfg = RoutedBenchConfig {
            topology,
            flows_per_route: args.u64_or("flows-per-route", d.flows_per_route as u64)? as usize,
            ticks: args.u64_or("ticks", d.ticks as u64)? as usize,
            tick: args.f64_or("tick", d.tick)?,
            requests_per_tick: args.u64_or("requests-per-tick", d.requests_per_tick as u64)?
                as usize,
            mean_holding: args.f64_or("holding", d.mean_holding)?,
            noise_sd,
            seed: args.u64_or("seed", d.seed)?,
            shards: args.u64_or("shards", 1)? as usize,
            producers: args.u64_or("producers", 1)? as usize,
            ring_capacity: args.u64_or("ring-capacity", d.ring_capacity as u64)? as usize,
            p_ce: args.prob_or("p-ce", d.p_ce)?,
            t_m: args.f64_or("t-m", d.t_m)?,
            stream: stream.as_ref().map(|s| s.handle()),
            ..d
        };
        let report = routed_closed_loop_with_parallelism(&cfg, model.as_ref(), host_parallelism())
            .map_err(config_err)?;
        println!("{banner}");
        print_report(&report);
        finish_stream(args, stream)?;
        return Ok(());
    }

    let d = BenchConfig::default();
    if args.get("flows-per-route").is_some() || args.get("noise-sd").is_some() {
        return Err(ArgError(
            "--flows-per-route/--noise-sd require --topology".into(),
        ));
    }
    let stream = open_stream(args)?;
    let cfg = BenchConfig {
        links: args.u64_or("links", d.links as u64)? as usize,
        flows_per_link: args.u64_or("flows-per-link", d.flows_per_link as u64)? as usize,
        ticks: args.u64_or("ticks", d.ticks as u64)? as usize,
        tick: args.f64_or("tick", d.tick)?,
        requests_per_tick: args.u64_or("requests-per-tick", d.requests_per_tick as u64)? as usize,
        mean_holding: args.f64_or("holding", d.mean_holding)?,
        seed: args.u64_or("seed", d.seed)?,
        shards: args.u64_or("shards", 1)? as usize,
        producers: args.u64_or("producers", 1)? as usize,
        ring_capacity: args.u64_or("ring-capacity", d.ring_capacity as u64)? as usize,
        capacity: args.f64_or("capacity", d.capacity)?,
        p_ce: args.prob_or("p-ce", d.p_ce)?,
        t_m: args.f64_or("t-m", d.t_m)?,
        stream: stream.as_ref().map(|s| s.handle()),
        ..d
    };
    let report = closed_loop_with_parallelism(&cfg, model.as_ref(), host_parallelism())
        .map_err(config_err)?;
    println!("serve bench: links = {}", cfg.links);
    print_report(&report);
    finish_stream(args, stream)?;
    Ok(())
}

/// Prints the shape/decisions/timing blocks shared by the per-link and
/// routed benches, keeping the deterministic block separate from the
/// wall-clock one.
fn print_report(report: &BenchReport) {
    println!(
        "  shards = {}, producers = {}, mode = {}",
        report.shards, report.producers, report.mode
    );
    if report.skipped_single_core {
        println!(
            "  note: threaded shape requested on a single-core host \
             (available_parallelism = 1); ran the serial reference instead"
        );
    }
    println!("decisions:");
    println!("  total                : {}", report.decisions);
    println!(
        "  admitted / rejected  : {} / {}",
        report.admitted, report.rejected
    );
    println!("  events replayed      : {}", report.events);
    println!("timing:");
    println!(
        "  latency samples      : {} of {} decisions",
        report.latency_samples, report.decisions
    );
    println!(
        "  p50 / p99 / mean     : {:.0} / {:.0} / {:.0} ns",
        report.p50_ns, report.p99_ns, report.mean_ns
    );
    println!("  decisions per second : {:.3e}", report.decisions_per_sec);
    // Microseconds: a run of a few ticks replays in tens of them.
    println!("  elapsed              : {:.6} s", report.elapsed_secs);
    println!("  generation           : {:.6} s", report.generate_secs);
    println!("  wall                 : {:.6} s", report.wall_secs);
}
