//! How fast the kernels draw, against the generator's own pace.
//!
//! One ignored test, run in release:
//!
//! ```text
//! cargo test --release -p mbac-traffic --test draw_pace -- --ignored --nocapture
//! ```
//!
//! It prints the ns per `u64`, per normal (one at a time and through
//! `NormalSampler::fill`) and per exponential, each draw's ratio to the
//! `u64`, and the AR(1) and RCBR kernels' ns a flow at the benchmark's
//! `ar1_dense`, `fig5_sweep` and `poisson_blocking` shapes, on one core.
//! A ziggurat normal costs one generator step plus a few flops. On the
//! 2-vCPU host, under the register rule (`mbac_num::rng`), a normal reads
//! ×2.0–2.9 of a `u64` and the AR(1) kernel 4.5–7.5 ns a flow; before it
//! they read ×2.8–4.0 and 10.5–13. A ratio above ×3, or the AR(1) kernel
//! back near 8–11 ns, means a draw loop lost its registers: a rare path
//! sits inline in the loop again, or something out of line receives the
//! generator. Nothing is asserted: the host decides the figures, and its
//! noise moves one set by ×1.5, so run it a few times against a build of
//! the parent in the same minute.

use mbac_num::parallel;
use mbac_num::rng::{ExpSampler, NormalSampler};
use mbac_traffic::{Ar1Config, Ar1Model, RcbrConfig, RcbrModel, SourceModel};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Timed sets per figure; the figures are their minimum and median.
const SETS: usize = 15;

/// Draws per set of a draw loop.
const DRAWS: usize = 1 << 20;

/// `(min, median)` of `SETS` runs of `set`, each returning its ns per unit.
fn quantiles(mut set: impl FnMut() -> f64) -> (f64, f64) {
    set(); // warm-up
    let mut ns: Vec<f64> = (0..SETS).map(|_| set()).collect();
    ns.sort_by(f64::total_cmp);
    (ns[0], ns[SETS / 2])
}

/// ns per call of `draw` over `DRAWS` calls on a local copy of `rng`,
/// as a kernel draws, its results folded by xor so the loop carries no
/// floating-point chain of its own.
fn per_draw(rng: &mut StdRng, draw: impl Fn(&mut StdRng) -> u64) -> f64 {
    let start = Instant::now();
    let (mut local, mut acc) = (rng.clone(), 0u64);
    for _ in 0..DRAWS {
        acc ^= draw(&mut local);
    }
    *rng = local;
    black_box(acc);
    start.elapsed().as_nanos() as f64 / DRAWS as f64
}

/// ns a flow of `rounds` advances by `dt` of an `n`-flow batch of `model`.
fn per_flow(model: &dyn SourceModel, n: usize, dt: f64, rounds: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xD4A3);
    let mut batch = model.new_batch().expect("batched kernel");
    batch.spawn(n, &mut rng);
    quantiles(|| {
        let start = Instant::now();
        for _ in 0..rounds {
            batch.advance_all(dt, &mut rng);
        }
        black_box(batch.rates()[0]);
        start.elapsed().as_nanos() as f64 / (rounds * n) as f64
    })
}

#[test]
#[ignore = "timing probe; run alone in release"]
fn draw_pace() {
    let normal = NormalSampler::get();
    let exp = ExpSampler::get();
    let mut rng = StdRng::seed_from_u64(0x9ACE);
    let u64s = quantiles(|| per_draw(&mut rng, |g| g.next_u64()));
    let normals = quantiles(|| per_draw(&mut rng, |g| normal.sample(g).to_bits()));
    let exps = quantiles(|| per_draw(&mut rng, |g| exp.sample(g).to_bits()));
    let mut buf = vec![0.0; 4096];
    let fills = quantiles(|| {
        let start = Instant::now();
        for _ in 0..DRAWS / buf.len() {
            normal.fill(&mut rng, &mut buf);
            black_box(buf[0]);
        }
        start.elapsed().as_nanos() as f64 / DRAWS as f64
    });
    println!("ns a draw (min / median of {SETS} sets of {DRAWS}; median ratio to the u64):");
    println!("  u64          {:6.2} / {:6.2}", u64s.0, u64s.1);
    for (name, (min, med)) in [
        ("normal", normals),
        ("normal fill", fills),
        ("exponential", exps),
    ] {
        println!("  {name:<12} {min:6.2} / {med:6.2}   ×{:.2}", med / u64s.1);
    }

    let ar1 = Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.25,
        clamp_at_zero: true,
    });
    let rcbr = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let shapes: [(&str, &dyn SourceModel, usize, f64, usize); 3] = [
        (
            "ar1 @ ar1_dense (10^5 flows, a tick)",
            &ar1,
            100_000,
            0.25,
            20,
        ),
        (
            "rcbr @ fig5_sweep (1000 flows, λ = 0.25)",
            &rcbr,
            1000,
            0.25,
            2000,
        ),
        (
            "rcbr @ poisson_blocking (6000 flows, λ = 0.029)",
            &rcbr,
            6000,
            0.029,
            2000,
        ),
    ];
    println!("kernel ns a flow, one core (min / median of {SETS} sets):");
    parallel::with_workers(1, || {
        for (name, model, n, dt, rounds) in shapes {
            let (min, med) = per_flow(model, n, dt, rounds);
            println!("  {name:<48} {min:6.2} / {med:6.2}");
        }
    });
}
