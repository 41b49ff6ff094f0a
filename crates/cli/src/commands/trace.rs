//! `mbacctl trace` — generate and inspect rate traces.

use super::config_err;
use crate::args::{ArgError, Args};
use mbac_traffic::starwars::{generate_starwars_like, StarwarsConfig};
use mbac_traffic::trace::Trace;
use mbac_traffic::{fit_correlation_timescale, hurst_rs, hurst_variance_time};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Usage text.
pub const USAGE: &str = "\
mbacctl trace gen <file> [--slots <n>] [--mean <mu>] [--cov <sigma/mu>]
                  [--hurst <H>] [--levels <k>] [--slot <dt>] [--seed <s>]
mbacctl trace info <file>

'gen' synthesizes a long-range-dependent piecewise-CBR movie trace
(the Starwars substitute of DESIGN.md §4) into the plain text format;
'info' prints marginal statistics, Hurst estimates (variance-time and
R/S), and a fitted short-range correlation time-scale.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), ArgError> {
    match args.positional() {
        [action, file] if action == "gen" => gen(args, file),
        [action, file] if action == "info" => info(file),
        _ => Err(ArgError(format!("usage:\n{USAGE}"))),
    }
}

fn gen(args: &Args, file: &str) -> Result<(), ArgError> {
    args.expect_only(&["slots", "mean", "cov", "hurst", "levels", "slot", "seed"])?;
    let cfg = StarwarsConfig {
        mean: args.f64_or("mean", 1.0)?,
        cov: args.f64_or("cov", 0.3)?,
        hurst: args.f64_or("hurst", 0.8)?,
        slots: args.u64_or("slots", 1 << 15)? as usize,
        slot: args.f64_or("slot", 1.0)?,
        levels: args.u64_or("levels", 32)? as usize,
    };
    cfg.validate().map_err(config_err)?;
    let seed = args.u64_or("seed", 0x57A7)?;
    let trace = generate_starwars_like(&cfg, &mut StdRng::seed_from_u64(seed));
    let mut f =
        std::fs::File::create(file).map_err(|e| ArgError(format!("cannot create {file}: {e}")))?;
    trace
        .write_to(&mut f)
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    println!(
        "wrote {file}: {} slots of {} time units, mean {:.4}, peak {:.4}",
        trace.len(),
        trace.slot(),
        trace.mean(),
        trace.peak()
    );
    Ok(())
}

fn info(file: &str) -> Result<(), ArgError> {
    let f = std::fs::File::open(file).map_err(|e| ArgError(format!("cannot open {file}: {e}")))?;
    let trace = Trace::read_from(f).map_err(|e| ArgError(format!("parse failed: {e}")))?;
    println!("{file}:");
    println!(
        "  slots           : {} x {} time units ({} total)",
        trace.len(),
        trace.slot(),
        trace.duration()
    );
    println!("  mean rate       : {:.4}", trace.mean());
    println!(
        "  std dev         : {:.4}  (cov {:.3})",
        trace.variance().sqrt(),
        trace.variance().sqrt() / trace.mean()
    );
    println!("  peak rate       : {:.4}", trace.peak());
    if trace.len() >= 64 {
        println!(
            "  Hurst (var-time): {:.3}",
            hurst_variance_time(trace.rates())
        );
        println!("  Hurst (R/S)     : {:.3}", hurst_rs(trace.rates()));
    }
    match fit_correlation_timescale(trace.rates(), trace.slot(), 50, 0.05) {
        Some(tc) => println!("  fitted T_c      : {tc:.3} (exponential fit to short-lag ACF)"),
        None => println!("  fitted T_c      : (no exponential short-range structure)"),
    }
    Ok(())
}
