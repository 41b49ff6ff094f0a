//! `mbacctl simulate` — run the load-model simulators from the command
//! line, with either RCBR sources or a trace file.
//!
//! All three load models run through the [`SessionBuilder`] pipeline;
//! invalid configurations surface as friendly [`ConfigError`] messages
//! (exit code 1), never as panics.

use super::{config_err, finish_stream, open_stream, require_positive, require_stats};
use crate::args::{ArgError, Args};
use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_metrics::MetricsSnapshot;
use mbac_sim::{
    ConfigError, ContinuousConfig, ContinuousLoad, ImpulsiveConfig, ImpulsiveLoad, MbacController,
    MetricsMode, PoissonConfig, PoissonLoad, RoutedNetworkConfig, RoutedNetworkLoad,
    SessionBuilder,
};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use mbac_traffic::trace::{Trace, TraceModel};
use std::sync::Arc;

/// Usage text.
pub const USAGE: &str = "\
mbacctl simulate --capacity <c> [--load continuous|impulsive|poisson|routed]
                 [--trace <file> | --mean <mu> --sd <sigma> --t-c <T_c>]
                 [--seed <s>] [--metrics-out <file|->]
                 [--metrics-stream <file>] [--stream-sample <fraction>]
                 [--stream-flush <n>] [--stream-ring <n>]
  continuous (default): --holding <T_h> [--t-m <T_m>] [--p-ce <p>]
                 [--p-q <p>] [--samples <n>]
  impulsive:     --flows <n> --observe <t1,t2,...> [--reps <n>]
                 [--holding <T_h>] [--p-ce <p>] [--workers <n>]
  poisson:       --lambda <rate> --holding <T_h> [--t-m <T_m>]
                 [--p-ce <p>] [--p-q <p>] [--samples <n>]
  routed:        --holding <T_h>
                 [--topology single|parking-lot:<h>|star:<l>]
                 [--ticks <n>] [--warmup <n>] [--flows-per-route <n>]
                 [--attempts <n>] [--noise-sd <sigma>] [--t-m <T_m>]
                 [--p-ce <p>] [--reps <n>] [--workers <n>]

Simulates a certainty-equivalent MBAC under one of the paper's three
load models, or a routed multi-hop network. continuous applies
infinite arrival pressure (§4), impulsive offers a burst at t = 0 and
watches it evolve (§3), poisson offers Poisson call arrivals at rate
lambda. routed runs per-link controllers on a multi-hop topology — a
flow is admitted only when every hop on its route accepts (a parking
lot takes 2 to 255 hops, a star 2 to 4096 legs) — and reports per-link
overflow/utilization
and per-route admit/block counts (shared links see correlated load;
--noise-sd adds independent per-node measurement noise). Defaults:
RCBR sources with mean 1, sd 0.3, T_c 1; T_m = T_h/sqrt(n) (the robust
rule); p_ce = p_q = 1e-3.
--workers (impulsive and routed) never changes a result: the same seed
gives bit-identical output on any worker count.
--metrics-out writes the run's aggregated metrics as mbac-metrics/v1
JSON (see results/METRICS_schema.md) to the file, or to stdout for -.
--metrics-stream additionally emits bounded-memory streaming metrics
as mbac-metrics/v2-stream JSONL to the file: sampled raw records
(--stream-sample, default 0) plus cumulative interval snapshots every
--stream-flush folds (default 0 = end-of-replication only). The
stream is fed through a fixed-capacity ring (--stream-ring, default
1024); records that do not fit are dropped and counted, never
buffered unboundedly.
--trace cannot be combined with the RCBR flags --mean/--sd/--t-c.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "load",
        "capacity",
        "holding",
        "trace",
        "mean",
        "sd",
        "t-c",
        "t-m",
        "p-ce",
        "p-q",
        "samples",
        "seed",
        "metrics-out",
        "metrics-stream",
        "stream-sample",
        "stream-flush",
        "stream-ring",
        "flows",
        "observe",
        "reps",
        "workers",
        "lambda",
        "topology",
        "ticks",
        "tick",
        "warmup",
        "flows-per-route",
        "attempts",
        "noise-sd",
    ])?;
    if args.get("trace").is_some() {
        for rcbr_flag in ["mean", "sd", "t-c"] {
            if args.get(rcbr_flag).is_some() {
                return Err(ArgError(format!(
                    "--trace and --{rcbr_flag} are mutually exclusive: a trace \
                     file fixes the source statistics"
                )));
            }
        }
    }
    match args.get("load").unwrap_or("continuous") {
        "continuous" => run_continuous_load(args),
        "impulsive" => run_impulsive_load(args),
        "poisson" => run_poisson_load(args),
        "routed" => run_routed_load(args),
        other => Err(ArgError(format!(
            "--load must be continuous, impulsive, poisson or routed, got {other}"
        ))),
    }
}

/// Builds the traffic source: trace file or RCBR, plus the correlation
/// scale used for tick/spacing rules.
fn build_model(args: &Args) -> Result<(Box<dyn SourceModel>, f64), ArgError> {
    match args.get("trace") {
        Some(file) => {
            let f = std::fs::File::open(file)
                .map_err(|e| ArgError(format!("cannot open {file}: {e}")))?;
            let trace =
                Arc::new(Trace::read_from(f).map_err(|e| ArgError(format!("parse failed: {e}")))?);
            let slot = trace.slot();
            Ok((Box::new(TraceModel::new(trace)), slot))
        }
        None => {
            let mean = args.f64_or("mean", 1.0)?;
            let sd = args.f64_or("sd", 0.3)?;
            let t_c = args.f64_or("t-c", 1.0)?;
            require_stats(&[("mean", mean), ("t-c", t_c)], ("sd", sd))?;
            Ok((
                Box::new(RcbrModel::new(RcbrConfig {
                    mean,
                    std_dev: sd,
                    t_c,
                    truncate_at_zero: true,
                })),
                t_c,
            ))
        }
    }
}

/// Writes the metrics snapshot to `--metrics-out` when requested.
fn write_metrics(args: &Args, snapshot: &MetricsSnapshot) -> Result<(), ArgError> {
    if let Some(dest) = args.get("metrics-out") {
        let json = snapshot.to_json();
        if dest == "-" {
            print!("{json}");
        } else {
            std::fs::write(dest, &json)
                .map_err(|e| ArgError(format!("cannot write {dest}: {e}")))?;
        }
    }
    Ok(())
}

/// The session metrics mode implied by `--metrics-out` and
/// `--metrics-stream`. Streaming collects everything snapshot mode
/// does, so the two flags compose.
fn metrics_mode(args: &Args) -> MetricsMode {
    if args.get("metrics-stream").is_some() {
        MetricsMode::Streaming
    } else if args.get("metrics-out").is_some() {
        MetricsMode::Enabled
    } else {
        MetricsMode::Disabled
    }
}

/// The continuous-load (infinite arrival pressure) mode.
fn run_continuous_load(args: &Args) -> Result<(), ArgError> {
    let capacity = args.f64_required("capacity")?;
    let holding = args.f64_required("holding")?;
    require_positive("capacity", capacity)?;
    require_positive("holding", holding)?;
    let p_q = args.prob_or("p-q", 1e-3)?;
    let p_ce = args.prob_or("p-ce", p_q)?;
    let samples = args.u64_or("samples", 5000)?;
    let seed = args.u64_or("seed", 1)?;
    let (model, t_c_scale) = build_model(args)?;

    let n = capacity / model.mean();
    let t_h_tilde = holding / n.sqrt();
    let t_m = args.f64_or("t-m", t_h_tilde)?;
    require_stats(&[], ("t-m", t_m))?;

    let mut ctl = MbacController::new(
        Box::new(FilteredEstimator::new(t_m)),
        Box::new(CertaintyEquivalent::from_probability(p_ce)),
    );
    let cfg = ContinuousConfig {
        capacity,
        mean_holding: holding,
        tick: (t_c_scale / 4.0).min(t_h_tilde / 4.0).max(1e-3),
        warmup: 10.0 * t_h_tilde.max(t_m).max(t_c_scale),
        sample_spacing: ContinuousConfig::paper_spacing(t_h_tilde, t_m, t_c_scale),
        target: p_q,
        max_samples: samples,
        seed,
    };
    let scenario = ContinuousLoad::new(&cfg, model.as_ref(), &mut ctl);
    let stream = open_stream(args)?;
    let mut session = SessionBuilder::new().seed(seed).metrics(metrics_mode(args));
    if let Some(s) = &stream {
        session = session.stream(s.handle());
    }
    // Validate before printing the banner so bad configs fail cleanly.
    let (rep, snapshot) = session.run_local_metered(&scenario).map_err(config_err)?;
    println!(
        "simulating: n = {n:.1}, T~h = {t_h_tilde:.2}, T_m = {t_m:.2}, p_ce = {p_ce:.2e}, \
         tick = {:.3}, spacing = {:.1}",
        cfg.tick, cfg.sample_spacing
    );
    write_metrics(args, &snapshot)?;
    println!("result:");
    println!(
        "  overflow probability : {:.4e}  [{:.1e}, {:.1e}]  ({:?}, {:?})",
        rep.pf.value, rep.pf.ci.lo, rep.pf.ci.hi, rep.pf.method, rep.pf.stopped
    );
    println!(
        "  vs target p_q        : {p_q:.1e}  ({})",
        if rep.pf.value <= p_q * 1.2 {
            "met"
        } else {
            "MISSED"
        }
    );
    println!(
        "  samples / overflows  : {} / {}",
        rep.pf.samples, rep.pf.overflows
    );
    println!(
        "  mean utilization     : {:.2}%",
        100.0 * rep.mean_utilization
    );
    println!("  mean flows in system : {:.1}", rep.mean_flows);
    println!(
        "  admitted / departed  : {} / {}",
        rep.admitted, rep.departed
    );
    println!("  simulated time       : {:.0}", rep.sim_time);
    finish_stream(args, stream)?;
    Ok(())
}

/// The impulsive-load (burst at `t = 0`) mode.
fn run_impulsive_load(args: &Args) -> Result<(), ArgError> {
    let capacity = args.f64_required("capacity")?;
    let flows = args.u64_required("flows")? as usize;
    let observe_times = parse_observe(args.require("observe")?)?;
    // The library accepts an empty list (M0-only studies); the CLI's
    // report is built around the per-time overflow lines, so demand one.
    if observe_times.is_empty() {
        return Err(config_err(ConfigError::EmptyObserveTimes));
    }
    let replications = args.u64_or("reps", 1000)? as usize;
    let seed = args.u64_or("seed", 1)?;
    let p_ce = args.prob_or("p-ce", 1e-3)?;
    let mean_holding = match args.get("holding") {
        Some(_) => Some(args.f64_required("holding")?),
        None => None,
    };
    let (model, _) = build_model(args)?;
    let policy = CertaintyEquivalent::from_probability(p_ce);
    let cfg = ImpulsiveConfig {
        capacity,
        estimation_flows: flows,
        mean_holding,
        observe_times,
        replications,
        seed,
    };
    let scenario = ImpulsiveLoad::new(&cfg, model.as_ref(), &policy);
    let stream = open_stream(args)?;
    let mut session = SessionBuilder::new().seed(seed).metrics(metrics_mode(args));
    if let Some(s) = &stream {
        session = session.stream(s.handle());
    }
    if let Some(w) = args.get("workers") {
        let workers: usize = w
            .parse()
            .map_err(|_| ArgError(format!("--workers expects an integer, got '{w}'")))?;
        session = session.workers(workers);
    }
    let (rep, snapshot) = session.run_metered(&scenario).map_err(config_err)?;
    write_metrics(args, &snapshot)?;
    println!("impulsive load: n = {flows}, {replications} replications, p_ce = {p_ce:.2e}");
    println!(
        "  M0 admitted          : mean {:.1}, sd {:.2}",
        rep.m0.mean(),
        rep.m0.std_dev()
    );
    println!("result:");
    for (i, obs) in rep.observations.iter().enumerate() {
        println!(
            "  t = {:>8.2}: p_f = {:.4e}  ({} overflows), mean load {:.1}, mean flows {:.1}",
            obs.t,
            rep.pf_at(i),
            obs.overflows,
            obs.load.mean(),
            obs.mean_flows
        );
    }
    finish_stream(args, stream)?;
    Ok(())
}

/// The Poisson-arrival (finite `λ`) mode.
fn run_poisson_load(args: &Args) -> Result<(), ArgError> {
    let capacity = args.f64_required("capacity")?;
    let arrival_rate = args.f64_required("lambda")?;
    let holding = args.f64_required("holding")?;
    require_positive("capacity", capacity)?;
    require_positive("holding", holding)?;
    let p_q = args.prob_or("p-q", 1e-3)?;
    let p_ce = args.prob_or("p-ce", p_q)?;
    let samples = args.u64_or("samples", 5000)?;
    let seed = args.u64_or("seed", 1)?;
    let (model, t_c_scale) = build_model(args)?;

    let n = (capacity / model.mean()).max(1.0);
    let t_h_tilde = holding / n.sqrt();
    let t_m = args.f64_or("t-m", t_h_tilde)?;
    require_stats(&[], ("t-m", t_m))?;
    let mut ctl = MbacController::new(
        Box::new(FilteredEstimator::new(t_m)),
        Box::new(CertaintyEquivalent::from_probability(p_ce)),
    );
    let cfg = PoissonConfig {
        capacity,
        arrival_rate,
        mean_holding: holding,
        tick: (t_c_scale / 4.0).min(t_h_tilde / 4.0).max(1e-3),
        warmup: 10.0 * t_h_tilde.max(t_m).max(t_c_scale),
        sample_spacing: ContinuousConfig::paper_spacing(t_h_tilde, t_m, t_c_scale),
        target: p_q,
        max_samples: samples,
        seed,
    };
    let scenario = PoissonLoad::new(&cfg, model.as_ref(), &mut ctl);
    let stream = open_stream(args)?;
    let mut session = SessionBuilder::new().seed(seed).metrics(metrics_mode(args));
    if let Some(s) = &stream {
        session = session.stream(s.handle());
    }
    let (rep, snapshot) = session.run_local_metered(&scenario).map_err(config_err)?;
    write_metrics(args, &snapshot)?;
    println!(
        "poisson load: lambda = {arrival_rate}, offered load {:.1} flows",
        arrival_rate * holding
    );
    println!("result:");
    println!(
        "  overflow probability : {:.4e}  [{:.1e}, {:.1e}]  ({:?}, {:?})",
        rep.pf.value, rep.pf.ci.lo, rep.pf.ci.hi, rep.pf.method, rep.pf.stopped
    );
    println!(
        "  blocking probability : {:.4}  ({} of {} arrivals admitted)",
        rep.blocking_probability, rep.admitted, rep.offered
    );
    println!(
        "  mean utilization     : {:.2}%",
        100.0 * rep.mean_utilization
    );
    println!("  mean flows in system : {:.1}", rep.mean_flows);
    finish_stream(args, stream)?;
    Ok(())
}

/// The routed multi-hop network mode: per-link controllers composed
/// along routes, admission only when every hop accepts.
fn run_routed_load(args: &Args) -> Result<(), ArgError> {
    let capacity = args.f64_required("capacity")?;
    let holding = args.f64_required("holding")?;
    require_positive("capacity", capacity)?;
    require_positive("holding", holding)?;
    let spec = args.get("topology").unwrap_or("parking-lot:3");
    let topology = Arc::new(super::parse_topology(spec, capacity)?);
    let p_ce = args.prob_or("p-ce", 1e-3)?;
    let seed = args.u64_or("seed", 1)?;
    let (model, t_c_scale) = build_model(args)?;

    // The robust rule per link: every link shares the same capacity, so
    // the single-link sizing applies hop by hop.
    let n = (capacity / model.mean()).max(1.0);
    let t_h_tilde = holding / n.sqrt();
    let t_m = args.f64_or("t-m", t_h_tilde)?;
    require_stats(&[], ("t-m", t_m))?;
    let noise_sd = args.f64_or("noise-sd", 0.0)?;
    if noise_sd < 0.0 {
        return Err(ArgError("--noise-sd must be >= 0".into()));
    }
    let ticks = args.u64_or("ticks", 2000)? as usize;
    let cfg = RoutedNetworkConfig {
        topology: Arc::clone(&topology),
        ticks,
        tick: args.f64_or("tick", (t_c_scale / 4.0).max(1e-3))?,
        warmup_ticks: args.u64_or("warmup", (ticks / 4) as u64)? as usize,
        initial_flows_per_route: args.u64_or("flows-per-route", 2)? as usize,
        mean_holding: holding,
        attempts_per_tick: args.u64_or("attempts", 2)? as usize,
        noise_sd,
        t_m,
        p_ce,
        replications: args.u64_or("reps", 8)? as usize,
        seed,
    };
    let scenario = RoutedNetworkLoad {
        model: model.as_ref(),
        cfg: cfg.clone(),
    };
    let stream = open_stream(args)?;
    let mut session = SessionBuilder::new().seed(seed).metrics(metrics_mode(args));
    if let Some(s) = &stream {
        session = session.stream(s.handle());
    }
    if let Some(w) = args.get("workers") {
        let workers: usize = w
            .parse()
            .map_err(|_| ArgError(format!("--workers expects an integer, got '{w}'")))?;
        session = session.workers(workers);
    }
    let report = session.run(&scenario).map_err(config_err)?;
    write_metrics(args, &report.metrics_snapshot())?;
    println!(
        "routed load: topology = {spec} ({} links, {} routes), n = {n:.1} per link, \
         T_m = {t_m:.2}, p_ce = {p_ce:.2e}, {} replications",
        topology.links(),
        topology.routes(),
        cfg.replications
    );
    println!("result:");
    println!("  worst-link p_f       : {:.4e}", report.max_pf());
    for (i, link) in report.per_link.iter().enumerate() {
        println!(
            "  link {i}: p_f = {:.4e}, utilization {:.2}%, mean occupancy {:.1}",
            link.pf,
            100.0 * link.utilization,
            link.occupancy
        );
    }
    for (r, route) in report.per_route.iter().enumerate() {
        let total = route.admitted + route.blocked;
        let hops = topology.route(mbac_sim::RouteId(r as u32)).len();
        println!(
            "  route {r} ({hops} hop{}): admitted / blocked = {} / {}  ({:.1}% blocked)",
            if hops == 1 { "" } else { "s" },
            route.admitted,
            route.blocked,
            if total > 0 {
                100.0 * route.blocked as f64 / total as f64
            } else {
                0.0
            }
        );
    }
    finish_stream(args, stream)?;
    Ok(())
}

/// Parses a comma-separated observation-time list; empty entries are
/// skipped so `--observe ""` yields an empty list (which the impulsive
/// mode rejects with a friendly message).
fn parse_observe(spec: &str) -> Result<Vec<f64>, ArgError> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| ArgError(format!("--observe expects numbers, got '{s}'")))
        })
        .collect()
}
