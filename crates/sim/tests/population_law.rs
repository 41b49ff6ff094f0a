//! The law of a serve route's population.
//!
//! A `RoutedLoad` route holds exactly `flows_per_route` flows and, each
//! tick, advances them, lets each leave with probability `1 −
//! e^{−τ/T_h}` and spawns as many fresh ones: holds are exponential, so
//! which flows leave is a Bernoulli thinning and no flow needs its own
//! departure time. The reference is the step that rule replaced, kept
//! here: a `FlowTable` per route whose flows draw `Exp(T_h)` departure
//! times, taken to each tick by `advance_to`, `depart_until` and a top-up
//! `admit_run`, its snapshot folded by the link as the generator folds
//! it. Over many seeds, on a small parking lot with per-node noise off
//! and on, for RCBR and AR(1) flows, link 0's measured load — the sum of
//! its two crossing routes' flows — has the same mean, variance and lag-1
//! and lag-10 autocorrelation under both, within four standard errors of
//! their difference across seeds. Every tick of the generator measures
//! exactly its routes' flows.
//!
//! Flows renegotiate (or move) on a scale of `T_c = 10` and leave on one
//! of `T_h = 2`, so churn sets the load's correlation: a population that
//! left at half the rate reads its lag-1 and lag-10 autocorrelation 9 to
//! 16 standard errors off.

use mbac_core::topology::{LinkId, Topology};
use mbac_num::fold_noisy;
use mbac_num::rng::exponential;
use mbac_sim::{FlowTable, RoutedLoad, RoutedLoadConfig, Windows};
use mbac_traffic::process::SourceModel;
use mbac_traffic::{Ar1Config, Ar1Model, RcbrConfig, RcbrModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Independent runs of each side.
const SEEDS: u64 = 40;

/// The link whose load is compared: the long route and its own cross
/// route cross it.
const LINK: LinkId = LinkId(0);

fn config(noise_sd: f64, seed: u64) -> RoutedLoadConfig {
    RoutedLoadConfig {
        topology: Arc::new(Topology::parking_lot(3, 50.0)),
        flows_per_route: 20,
        ticks: 1_000,
        tick: 0.2,
        requests_per_tick: 0,
        mean_holding: 2.0,
        noise_sd,
        seed,
    }
}

/// Link `LINK`'s measured load at every tick of the generator's run.
fn generated(model: &dyn SourceModel, cfg: RoutedLoadConfig) -> Vec<f64> {
    let flows = cfg.topology.crossings(LINK).len() * cfg.flows_per_route;
    let mut windows = RoutedLoad { model, cfg }.windows().unwrap();
    let mut window = windows.new_window();
    let mut loads = Vec::new();
    while windows.next_window(64, &mut window) {
        for (link, step, _, moments) in window.snapshots().measurements() {
            if link == LINK {
                assert_eq!(moments.count(), flows, "occupancy at step {step}");
                loads.push(moments.sum());
            }
        }
    }
    loads
}

/// Link `LINK`'s measured load at every tick of the calendar step: each
/// crossing route a flow table on its own stream, its flows departing
/// at drawn `Exp(T_h)` times and topped up after each tick's departures.
fn reference(model: &dyn SourceModel, cfg: RoutedLoadConfig) -> Vec<f64> {
    let hold = cfg.mean_holding;
    let mut routes: Vec<(FlowTable, StdRng, Vec<f64>)> = cfg
        .topology
        .crossings(LINK)
        .iter()
        .map(|&(route, _)| {
            let stream = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ route.index() as u64;
            let mut rng = StdRng::seed_from_u64(stream);
            let mut table = FlowTable::new();
            table.admit_run(model, cfg.flows_per_route, &mut rng, |rng| {
                exponential(rng, hold)
            });
            (table, rng, Vec::new())
        })
        .collect();
    let mut noise = StdRng::seed_from_u64(!cfg.seed);
    (1..=cfg.ticks)
        .map(|step| {
            let now = step as f64 * cfg.tick;
            for (table, rng, rates) in &mut routes {
                table.advance_to(now, rng);
                table.depart_until(now);
                let missing = cfg.flows_per_route - table.len();
                table.admit_run(model, missing, rng, |rng| now + exponential(rng, hold));
                table.snapshot_into(rates);
            }
            let parts: Vec<&[f64]> = routes.iter().map(|(_, _, rates)| &rates[..]).collect();
            fold_noisy(&parts, None, cfg.noise_sd, &mut noise).sum()
        })
        .collect()
}

/// A run's mean, variance, and lag-1 and lag-10 autocorrelation.
fn statistics(xs: &[f64]) -> [f64; 4] {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let dev: Vec<f64> = xs.iter().map(|x| x - mean).collect();
    let var = dev.iter().map(|d| d * d).sum::<f64>() / n;
    let acf = |lag: usize| {
        let cov = dev.iter().zip(&dev[lag..]).map(|(a, b)| a * b).sum::<f64>() / n;
        cov / var
    };
    [mean, var, acf(1), acf(10)]
}

/// Each statistic's mean over the seeds and its standard error.
fn across_seeds(runs: &[[f64; 4]]) -> [(f64, f64); 4] {
    let n = runs.len() as f64;
    std::array::from_fn(|k| {
        let mean = runs.iter().map(|r| r[k]).sum::<f64>() / n;
        let var = runs.iter().map(|r| (r[k] - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    })
}

fn same_law(name: &str, model: &dyn SourceModel) {
    for noise_sd in [0.0, 0.05] {
        let runs = |side: fn(&dyn SourceModel, RoutedLoadConfig) -> Vec<f64>, salt: u64| {
            let run = |seed| statistics(&side(model, config(noise_sd, seed ^ salt)));
            across_seeds(&(0..SEEDS).map(run).collect::<Vec<_>>())
        };
        let (thinned, calendar) = (runs(generated, 0), runs(reference, 0x5EED_0000));
        let names = ["mean", "variance", "lag-1 ACF", "lag-10 ACF"];
        for ((what, (a, se_a)), (b, se_b)) in names.iter().zip(thinned).zip(calendar) {
            let se = (se_a * se_a + se_b * se_b).sqrt();
            assert!(
                (a - b).abs() <= 4.0 * se,
                "{name}, noise {noise_sd}: {what} {a} (thinned) vs {b} (calendar), se {se}"
            );
        }
    }
}

#[test]
fn rcbr_populations_have_the_calendar_law() {
    same_law("rcbr", &RcbrModel::new(RcbrConfig::paper_default(10.0)));
}

#[test]
fn ar1_populations_have_the_calendar_law() {
    let model = Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 10.0,
        tick: 0.2,
        clamp_at_zero: true,
    });
    same_law("ar1", &model);
}
