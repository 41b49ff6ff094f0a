//! The law of the two-state on–off source, checked flow by flow.
//!
//! An on–off flow leaves off at `λ = 1/mean_off` and on at
//! `μ = 1/mean_on`, so after a step `dt`
//!
//! ```text
//! P(on | was on)  = π_on + π_off·e^{−(λ+μ)dt}
//! P(on | was off) = π_on·(1 − e^{−(λ+μ)dt})
//! ```
//!
//! with `π_on = λ/(λ+μ)`. About 10⁵ stationary flows are spawned on the
//! batch kernel (above one lane, so the lanes run too) and as boxed
//! sources, advanced once by each step, and every flow's transition is
//! counted. With `T_c = 1/(λ+μ) = 0.75` the steps are `0.067`, `1` and
//! `6.7 T_c`: below, inside and past RCBR thinning's coin band
//! (`−ln(7/8) ≤ dt/T_c ≤ ln 8`), one for each of its walks.

use mbac_traffic::process::{RateProcess, SourceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PEAK: f64 = 2.0;
const MEAN_ON: f64 = 1.0;
const MEAN_OFF: f64 = 3.0;
const FLOWS: usize = 100_000;
const STEPS: [f64; 3] = [0.05, 0.75, 5.0];

fn model() -> impl SourceModel {
    mbac_traffic::RcbrModel::on_off(PEAK, MEAN_ON, MEAN_OFF)
}

fn is_on(rate: f64) -> bool {
    assert!(
        rate == 0.0 || rate == PEAK,
        "an on–off rate is 0 or the peak, not {rate}"
    );
    rate == PEAK
}

/// Counts, over flows whose rates were `before` and are `after`, the
/// flows on before, those of them on after, the flows off before and
/// those of them on after; then checks both conditional shares against
/// the law within binomial 4-σ bounds.
fn check_transitions(engine: &str, dt: f64, before: &[f64], after: &[f64]) {
    let (lambda, mu) = (1.0 / MEAN_OFF, 1.0 / MEAN_ON);
    let pi_on = lambda / (lambda + mu);
    let decay = (-(lambda + mu) * dt).exp();
    let (mut on, mut on_on, mut off, mut off_on) = (0usize, 0usize, 0usize, 0usize);
    for (&b, &a) in before.iter().zip(after) {
        if is_on(b) {
            on += 1;
            on_on += is_on(a) as usize;
        } else {
            off += 1;
            off_on += is_on(a) as usize;
        }
    }
    let share = |hits: usize, n: usize, p: f64, what: &str| {
        let got = hits as f64 / n as f64;
        let bound = 4.0 * (p * (1.0 - p) / n as f64).sqrt();
        assert!(
            (got - p).abs() <= bound,
            "{engine}, dt = {dt}: {what} = {got}, law {p} ± {bound} ({n} flows)"
        );
    };
    share(on, FLOWS, pi_on, "P(on)");
    share(on_on, on, pi_on + (1.0 - pi_on) * decay, "P(on | was on)");
    share(off_on, off, pi_on * (1.0 - decay), "P(on | was off)");
}

#[test]
fn batch_kernel_follows_the_on_off_law() {
    let model = model();
    for (k, dt) in STEPS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(60 + k as u64);
        let mut batch = model
            .new_batch()
            .expect("on–off flows have a batched kernel");
        batch.spawn(FLOWS, &mut rng);
        let before = batch.rates().to_vec();
        batch.advance_all(dt, &mut rng);
        check_transitions("batch", dt, &before, batch.rates());
    }
}

#[test]
fn boxed_sources_follow_the_on_off_law() {
    let model = model();
    for (k, dt) in STEPS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(70 + k as u64);
        let mut flows: Vec<Box<dyn RateProcess>> =
            (0..FLOWS).map(|_| model.spawn(&mut rng)).collect();
        let before: Vec<f64> = flows.iter().map(|f| f.rate()).collect();
        flows.iter_mut().for_each(|f| f.advance(dt, &mut rng));
        let after: Vec<f64> = flows.iter().map(|f| f.rate()).collect();
        check_transitions("boxed", dt, &before, &after);
    }
}
