//! Voice trunk: heterogeneous on–off telephony with realistic (finite)
//! call arrivals.
//!
//! A trunk carries two classes of calls — standard voice (on–off with
//! silence suppression) and high-quality conference audio — arriving as
//! a Poisson process, each class with its own holding time. This
//! exercises:
//!
//! * on–off sources, the two-state Markov fluids of Assumption B.6's
//!   model class (each an RCBR flow over a two-point marginal),
//! * heterogeneous flows (§5.4): the naive variance estimator is biased
//!   conservative, the per-class estimator is not,
//! * the finite-arrival-rate harness (blocking probability as the
//!   second QoS metric alongside overflow).
//!
//! Run with: `cargo run --release --example voice_trunk`

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::heterogeneous::naive_variance_bias;
use mbac_core::estimators::FilteredEstimator;
use mbac_sim::{MbacController, PoissonConfig, PoissonLoad, SessionBuilder};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::RcbrModel;

fn main() {
    // Standard voice: 64 kb/s peak, talk-spurts ~0.4 s, silences ~0.6 s.
    let voice = RcbrModel::on_off(64.0, 0.4, 0.6);
    // Conference audio: 192 kb/s peak, mostly-on (0.8 s / 0.2 s).
    let conf = RcbrModel::on_off(192.0, 0.8, 0.2);
    println!(
        "voice class: mean {:.1} kb/s, sd {:.1};  conference class: mean {:.1} kb/s, sd {:.1}",
        voice.mean(),
        voice.std_dev(),
        conf.mean(),
        conf.std_dev()
    );

    // §5.4 in numbers: what the unclassified estimator would add on top
    // of the true within-class variance for a 80/20 voice/conference mix.
    let bias = naive_variance_bias(&[voice.mean(), conf.mean()], &[0.8, 0.2]);
    let within = 0.8 * voice.variance() + 0.2 * conf.variance();
    println!(
        "naive variance estimator on the 80/20 mix: within-class {:.0} + bias {:.0} = {:.0} \
         (+{:.0}% conservative)",
        within,
        bias,
        within + bias,
        100.0 * bias / within
    );

    // The trunk: 10 Mb/s, voice-class calls of ~180 s arriving at 2/s
    // (offered load 360 calls ≈ 9.2 Mb/s mean — near capacity).
    let capacity = 10_000.0; // kb/s
    let holding = 180.0;
    let p_q = 1e-2;
    let t_h_tilde = holding / (capacity / voice.mean()).sqrt();
    println!(
        "\ntrunk: {capacity} kb/s, T_h = {holding}s, T̃_h = {t_h_tilde:.1}s, target p_f ≤ {p_q}"
    );

    for (label, arrival_rate) in [("nominal load (λ=1.5/s)", 1.5), ("overload (λ=6/s)", 6.0)] {
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(t_h_tilde)),
            Box::new(CertaintyEquivalent::from_probability(p_q * 0.3)), // mild adjustment
        );
        let cfg = PoissonConfig {
            capacity,
            arrival_rate,
            mean_holding: holding,
            tick: 0.1,
            warmup: 20.0 * t_h_tilde,
            sample_spacing: 2.0 * t_h_tilde.max(1.0),
            target: p_q,
            max_samples: 1500,
            seed: 0xB01CE,
        };
        let rep = SessionBuilder::new()
            .run_local(&PoissonLoad::new(&cfg, &voice, &mut ctl))
            .expect("valid config");
        println!(
            "{label}: admitted {}/{} calls (blocking {:.1}%), utilization {:.0}%, \
             p_f = {:.2e} ({:?})",
            rep.admitted,
            rep.offered,
            100.0 * rep.blocking_probability,
            100.0 * rep.mean_utilization,
            rep.pf.value,
            rep.pf.method
        );
    }

    println!(
        "\ntakeaway: under overload the MBAC converts excess demand into blocking while\n\
         holding the in-call overflow probability at the target — the admission\n\
         decision, not the users' honesty, protects the QoS."
    );
}
