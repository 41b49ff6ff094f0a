//! `mbacctl churn` — the flow-lifecycle churn smoke path.
//!
//! Drives the timing-wheel [`mbac_sim::FlowTable`] through a
//! steady-state expire-and-replace loop at `--flows` scale (the
//! lifecycle machinery alone — no process advance), reports per-tick
//! cost and departure throughput, and checks conservation (admitted −
//! departed = in system), exiting 1 if it fails. What the lifecycle
//! must do flow by flow is proved by `crates/sim/tests/churn.rs`; CI's
//! `churn-smoke` lane runs this command at a reduced population.

use super::config_err;
use crate::args::{ArgError, Args};
use mbac_sim::{ConfigError, FlowTable, MAX_RUN_ITEMS, MAX_WORKLOAD_ITEMS};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Usage text.
pub const USAGE: &str = "\
mbacctl churn [--flows <n>] [--ticks <n>] [--tick <dt>]
              [--holding <T_h>] [--seed <s>]

Runs the steady-state churn lifecycle loop: --flows flows are admitted
with exponential(--holding) departure times, then each tick expires
everything due and admits one replacement per departure, in one run,
holding the population constant. Reports ns/tick, ns per admitted flow
and departures/tick — the cost of the timing-wheel departure calendar
and of admission at scale, with every tick a departing tick — and exits
1 if admitted - departed != in system.
Defaults: 100000 flows, 200 ticks, tick 0.25, holding 250 (so ~flows/1000
depart per tick), seed 7.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["flows", "ticks", "tick", "holding", "seed"])?;
    let flows = args.u64_or("flows", 100_000)?;
    let ticks = args.u64_or("ticks", 200)?;
    let tick = args.f64_or("tick", 0.25)?;
    let holding = args.f64_or("holding", 250.0)?;
    let seed = args.u64_or("seed", 7)?;
    if flows == 0 || ticks == 0 {
        return Err(ArgError("--flows and --ticks must be >= 1".into()));
    }
    if tick <= 0.0 || !tick.is_finite() || holding <= 0.0 || !holding.is_finite() {
        return Err(ArgError("--tick and --holding must be positive".into()));
    }
    // The last tick's time, which every departure is held against.
    let length = ticks as f64 * tick;
    if !length.is_finite() {
        let field = "run length (ticks × tick)";
        return Err(config_err(ConfigError::NotFinite {
            field,
            value: length,
        }));
    }
    // The population is held in memory, and a tick can replace all of
    // it: bound both as the request-stream workloads are bounded.
    let too_large = |what, max| config_err(ConfigError::WorkloadTooLarge { what, max });
    if flows > MAX_WORKLOAD_ITEMS {
        return Err(too_large("flows", MAX_WORKLOAD_ITEMS));
    }
    if flows.checked_mul(ticks).is_none_or(|n| n > MAX_RUN_ITEMS) {
        return Err(too_large("flow-ticks", MAX_RUN_ITEMS));
    }
    let (flows, ticks) = (flows as usize, ticks as usize);

    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let mut table = FlowTable::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let departs_at = |t: f64| move |rng: &mut StdRng| t - holding * (1.0 - rng.gen::<f64>()).ln();
    table.admit_run(&model, flows, &mut rng, departs_at(t));
    let start = Instant::now();
    let mut admitting = Duration::ZERO;
    for _ in 0..ticks {
        t += tick;
        let gone = table.depart_until(t);
        let admit = Instant::now();
        table.admit_run(&model, gone, &mut rng, departs_at(t));
        admitting += admit.elapsed();
    }
    let ns_per_tick = start.elapsed().as_nanos() as f64 / ticks as f64;
    let departed = table.departed_total();
    // Every departure was replaced: the loop admitted `departed` flows.
    let ns_per_admission = admitting.as_nanos() as f64 / departed.max(1) as f64;

    println!("churn: {flows} flows, {ticks} ticks, tick = {tick}, holding = {holding}");
    println!("  departures           : {departed} ({:.1} per tick)", {
        departed as f64 / ticks as f64
    });
    println!(
        "  lifecycle cost       : {ns_per_tick:.0} ns/tick, {ns_per_admission:.0} ns/admitted flow"
    );
    println!(
        "  in system / admitted : {} / {}",
        table.len(),
        table.admitted_total()
    );
    if table.admitted_total() - departed != table.len() as u64 {
        return Err(ArgError(
            "conservation violated: admitted - departed != in-system".into(),
        ));
    }
    Ok(())
}
