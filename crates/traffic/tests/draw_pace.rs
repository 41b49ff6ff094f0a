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
//! `ar1_dense`, `fig5_sweep` and `poisson_blocking` shapes, on one core,
//! with an on–off RCBR batch (`RcbrBatch<Marginal>`, the kernel of every
//! marginal but the Gaussian) at `fig5_sweep`'s beside the Gaussian one,
//! both again at λ = 50 (per advance; `prop33_impulsive`'s keeper walk),
//! and the on–off model at three renegotiation rates λ on its kernel and
//! on the boxed path (`Unbatched`, a `DynBatch`), which draw the same
//! bits.
//! A ziggurat normal costs one generator step plus a few flops. On the
//! 2-vCPU host, under the register rule (`mbac_num::rng`), a normal reads
//! ×2.0–2.9 of a `u64` and the AR(1) kernel 3.5–7.5 ns a flow; before it
//! they read ×2.8–4.0 and 10.5–13. The on–off batch reads ×0.9–1.1 of
//! the Gaussian batch at λ = 0.25 and ×0.7–0.8 at λ = 50; it read ×2.1–2.6
//! and ×2.7–3.9 while it drew through `&mut dyn RngCore` and branched on
//! its coin toss (a misprediction every other draw). The boxed path reads
//! ×3.3–4.5 the on–off kernel at λ = 0.25, ×3.1–4.0 at λ = 50 and ×12–13
//! at λ = 0.029. A normal above ×3 of the `u64`, or the AR(1) kernel back
//! near 8–11 ns, means a draw loop lost its registers: a rare path sits
//! inline in the loop again, or something out of line receives the
//! generator. The last rows time `rcbr::thin` beside the rarer side's
//! walk alone (gap walk to `ln 2`, keeper walk past it) at λ = 0.1 …
//! 3: the coins read about even at the lower edge of thinning's coin
//! band, `−ln(7/8)`, ×0.6–0.8 at λ = 0.25 to `ln 2`, ×0.2–0.35 of the
//! keeper walk at λ = 1 and ×0.8 at `ln 8`, the upper edge; at 0.1 and
//! 3 `thin` runs the rare-side walk itself (×1). Nothing is asserted:
//! the host decides the figures, and its noise moves one set by ×1.5,
//! so run it a few times against a build of the parent in the same
//! minute.

use mbac_num::parallel;
use mbac_num::rng::{ExpSampler, NormalSampler};
use mbac_traffic::process::Unbatched;
use mbac_traffic::rcbr::thin;
use mbac_traffic::{Ar1Config, Ar1Model, DynBatch, FlowBatch, RcbrConfig, RcbrModel, SourceModel};
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

/// ns a flow of `rounds` advances by `dt` of an `n`-flow batch of
/// `model`: its kernel, or the boxed `DynBatch` a flow table keeps a
/// model without one on (`Unbatched`).
fn per_flow(model: &dyn SourceModel, n: usize, dt: f64, rounds: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xD4A3);
    let mut batch = match model.new_batch() {
        Some(mut kernel) => {
            kernel.spawn(n, &mut rng);
            kernel
        }
        None => {
            let mut boxed: Box<dyn FlowBatch> = Box::new(DynBatch::new());
            for _ in 0..n {
                let flow = model.spawn(&mut rng);
                boxed.try_push_boxed(flow).ok().expect("DynBatch adopts");
            }
            boxed
        }
    };
    quantiles(|| {
        let start = Instant::now();
        for _ in 0..rounds {
            batch.advance_all(dt, &mut rng);
        }
        black_box(batch.rates()[0]);
        start.elapsed().as_nanos() as f64 / (rounds * n) as f64
    })
}

/// ns a flow of 2000 advances at `λ` of 1000 flows' rates, each
/// renegotiation a truncated Gaussian draw (the paper's marginal):
/// through `thin` when `coins`, else through the walk on the rarer side
/// alone — the gap walk up to `ln 2`, the keeper walk past it — which
/// `thin` runs outside its coin band and ran everywhere before it.
fn per_flow_walk(lambda: f64, coins: bool) -> (f64, f64) {
    const N: usize = 1000;
    const ROUNDS: usize = 2000;
    let (normal, exp) = (NormalSampler::get(), ExpSampler::get());
    let mut rng = StdRng::seed_from_u64(0x7417);
    let mut rates = vec![1.0; N];
    quantiles(|| {
        let start = Instant::now();
        let mut local = rng.clone();
        for _ in 0..ROUNDS {
            let draw = |g: &mut StdRng| loop {
                let x = 1.0 + 0.3 * normal.sample(g);
                if x >= 0.0 {
                    return x;
                }
            };
            if coins {
                // `always`, as the kernel's closure (`RcbrBatch::advance_all`).
                local = thin(
                    N,
                    lambda,
                    1.0,
                    exp,
                    local,
                    #[inline(always)]
                    |i, g| rates[i] = draw(g),
                );
            } else if lambda <= std::f64::consts::LN_2 {
                let mut i = 0;
                while i < N {
                    let skip = (exp.sample(&mut local) / lambda) as usize;
                    if skip >= N - i {
                        break;
                    }
                    i += skip;
                    rates[i] = draw(&mut local);
                    i += 1;
                }
            } else {
                let mu = -(-(-lambda).exp()).ln_1p();
                let mut i = 0;
                while i < N {
                    let run = (exp.sample(&mut local) / mu) as usize;
                    let end = i + run.min(N - i);
                    for rate in &mut rates[i..end] {
                        *rate = draw(&mut local);
                    }
                    i = end + 1;
                }
            }
        }
        rng = local;
        black_box(rates[0]);
        start.elapsed().as_nanos() as f64 / (ROUNDS * N) as f64
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
    // Mean 1 and T_c = 1, as the Gaussian batch's: an `RcbrBatch<Marginal>`,
    // and the same flows on the boxed path.
    let on_off = RcbrModel::on_off(2.0, 2.0, 2.0);
    let on_off_boxed = Unbatched(&on_off);
    let shapes: [(&str, &dyn SourceModel, usize, f64, usize); 10] = [
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
            "rcbr on–off @ fig5_sweep (1000 flows, λ = 0.25)",
            &on_off,
            1000,
            0.25,
            2000,
        ),
        (
            "  boxed (Unbatched), same shape",
            &on_off_boxed,
            1000,
            0.25,
            2000,
        ),
        ("rcbr (1000 flows, λ = 50)", &rcbr, 1000, 50.0, 20),
        ("rcbr on–off (1000 flows, λ = 50)", &on_off, 1000, 50.0, 20),
        (
            "  boxed (Unbatched), same shape",
            &on_off_boxed,
            1000,
            50.0,
            20,
        ),
        (
            "rcbr on–off (6000 flows, λ = 0.029)",
            &on_off,
            6000,
            0.029,
            2000,
        ),
        (
            "  boxed (Unbatched), same shape",
            &on_off_boxed,
            6000,
            0.029,
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

    println!(
        "thin against the rarer side's walk, 1000 flows (ns a flow, min / median; \
         median ratio): the coin band is −ln(7/8) ≤ λ ≤ ln 8"
    );
    let ln = |x: f64| x.ln();
    for (name, lambda) in [
        ("0.1", 0.1),
        ("−ln(7/8)", -ln(7.0 / 8.0)),
        ("0.25", 0.25),
        ("ln 2", ln(2.0)),
        ("1", 1.0),
        ("ln 8", ln(8.0)),
        ("3", 3.0),
    ] {
        let (coins, walk) = (per_flow_walk(lambda, true), per_flow_walk(lambda, false));
        println!(
            "  λ = {name:<9} thin {:5.2} / {:5.2}   rarer side {:5.2} / {:5.2}   ×{:.2}",
            coins.0,
            coins.1,
            walk.0,
            walk.1,
            coins.1 / walk.1
        );
    }
}
