//! The paper's simulation source (§5.2): an RCBR (Renegotiated Constant
//! Bit Rate) flow.
//!
//! The rate is piecewise constant; at the end of each interval the flow
//! "renegotiates" to a fresh rate drawn from a Gaussian marginal with
//! `σ/μ` given (the paper uses 0.3). Interval lengths are i.i.d.
//! exponential with mean `T_c`, which — by memorylessness — makes the
//! rate process Markov with autocorrelation exactly
//! `ρ(τ) = e^{−|τ|/T_c}` (the paper's eqn (31)): the aggregate
//! fluctuation converges to the Ornstein–Uhlenbeck process assumed in
//! the theory.
//!
//! # The advance rule
//!
//! Every RCBR `advance(dt)` in this module — [`RcbrSource`],
//! [`GeneralRcbrSource`] and the batched kernel behind both models — is
//! the same two-armed rule:
//!
//! ```text
//! if dt >= remaining { rate = draw(); remaining = T_c · Exp(1) }
//! else               { remaining -= dt }
//! ```
//!
//! One rate draw, then one residual draw, per renegotiating flow per
//! call, however many correlation times `dt` spans. It is exact, not an
//! approximation: renegotiation epochs form a Poisson process and the
//! negotiated rates are i.i.d. and independent of the epochs, so given
//! that a flow renegotiated at all inside `(t, t+dt]`, its rate at
//! `t+dt` is the draw made at the *last* epoch — a fresh marginal draw —
//! and the time from `t+dt` to the next epoch is `Exp(T_c)` by
//! memorylessness, whatever happened in between. The joint law of the
//! states seen at the advance instants, hence `ρ(τ)` and every
//! statistic a caller can form, is that of the path-by-path
//! simulation; `tests::advance_law_matches_path_faithful_reference`
//! holds the two side by side.
//!
//! What is not simulated is the path *inside* an advance: the
//! intermediate rates a flow would have held between two calls. No
//! caller can observe them — a [`RateProcess`] is read only at the
//! instants it is advanced to — so a step of `50 T_c` (Prop. 3.3's
//! observe time) costs one renegotiation per flow instead of fifty.
//! Sample paths therefore depend on *where* the advance instants fall:
//! `advance(a); advance(b)` and `advance(a + b)` agree in law, not bit
//! for bit.
//!
//! Rates can optionally be truncated at zero to stay physical; with the
//! paper's `σ/μ = 0.3` the truncated mass is `Q(3.33) ≈ 4e-4`, a
//! negligible perturbation of the moments (the analytic `mean()` /
//! `variance()` report the *untruncated* values, as the theory assumes).

use crate::batch::{BatchKey, FlowBatch};
use crate::marginal::Marginal;
use crate::process::{RateProcess, SourceModel};
use mbac_num::rng::{exponential, normal, normal_truncated_below, ExpSampler, NormalSampler};
use rand::rngs::StdRng;
use rand::RngCore;

/// Configuration for RCBR flows.
#[derive(Debug, Clone, Copy)]
pub struct RcbrConfig {
    /// Marginal mean rate `μ`.
    pub mean: f64,
    /// Marginal standard deviation `σ`.
    pub std_dev: f64,
    /// Mean renegotiation interval `T_c` (the correlation time-scale).
    pub t_c: f64,
    /// Truncate negotiated rates at zero (keeps rates physical; see
    /// module docs).
    pub truncate_at_zero: bool,
}

impl RcbrConfig {
    /// The paper's standard setting: Gaussian marginal with
    /// `σ/μ = 0.3`, unit mean, and the given correlation time-scale.
    pub fn paper_default(t_c: f64) -> Self {
        RcbrConfig {
            mean: 1.0,
            std_dev: 0.3,
            t_c,
            truncate_at_zero: true,
        }
    }
}

/// Factory for independent RCBR flows.
#[derive(Debug, Clone, Copy)]
pub struct RcbrModel {
    cfg: RcbrConfig,
}

impl RcbrModel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics unless mean, std-dev and `T_c` are positive and finite.
    pub fn new(cfg: RcbrConfig) -> Self {
        assert!(cfg.mean > 0.0 && cfg.mean.is_finite());
        assert!(cfg.std_dev >= 0.0 && cfg.std_dev.is_finite());
        assert!(cfg.t_c > 0.0 && cfg.t_c.is_finite());
        RcbrModel { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> RcbrConfig {
        self.cfg
    }
}

impl SourceModel for RcbrModel {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        let mut src = RcbrSource {
            cfg: self.cfg,
            rate: 0.0,
            remaining: 0.0,
        };
        src.reset(rng);
        Box::new(src)
    }

    fn mean(&self) -> f64 {
        self.cfg.mean
    }

    fn variance(&self) -> f64 {
        self.cfg.std_dev * self.cfg.std_dev
    }

    fn batch_key(&self) -> Option<BatchKey> {
        Some(BatchKey::Rcbr {
            mean: self.cfg.mean,
            std_dev: self.cfg.std_dev,
            t_c: self.cfg.t_c,
            truncate_at_zero: self.cfg.truncate_at_zero,
        })
    }

    fn new_batch(&self) -> Option<Box<dyn FlowBatch>> {
        Some(Box::new(RcbrBatch::new(
            GaussianDraw::new(self.cfg),
            self.cfg.t_c,
        )))
    }
}

/// How an [`RcbrBatch`] draws a negotiated rate: the one thing the
/// classic and the generalized RCBR kernels differ in.
trait RateDraw: Send {
    /// One rate; must consume the RNG as the boxed source's draw does.
    fn draw(&self, rng: &mut StdRng) -> f64;
}

/// The classic Gaussian rate draw of [`RcbrSource`], with the ziggurat
/// handle resolved once per batch instead of once per draw and
/// `normal_truncated_below`'s per-call argument checks left out (the
/// model's constructor already guarantees them); same draw sequence.
struct GaussianDraw {
    mean: f64,
    /// Floored as the boxed source floors it, on the truncated path only.
    sd: f64,
    truncate_at_zero: bool,
    normal: NormalSampler,
}

impl GaussianDraw {
    fn new(cfg: RcbrConfig) -> Self {
        GaussianDraw {
            mean: cfg.mean,
            sd: if cfg.truncate_at_zero {
                cfg.std_dev.max(1e-300)
            } else {
                cfg.std_dev
            },
            truncate_at_zero: cfg.truncate_at_zero,
            normal: NormalSampler::get(),
        }
    }
}

impl RateDraw for GaussianDraw {
    // `always`, with `ExpSampler::sample`: at the default threshold
    // neither lands inside `advance_all`'s renegotiation loop, and two
    // calls per due flow cost a Poisson load (a sweep per arrival, ~3 %
    // of flows due) 8 % of its arrivals per second.
    #[inline(always)]
    fn draw(&self, rng: &mut StdRng) -> f64 {
        loop {
            let x = self.mean + self.sd * self.normal.sample(rng);
            if !self.truncate_at_zero || x >= 0.0 {
                return x;
            }
        }
    }
}

impl RateDraw for Marginal {
    #[inline]
    fn draw(&self, rng: &mut StdRng) -> f64 {
        self.sample(rng)
    }
}

/// Struct-of-arrays batch of RCBR flows, classic or generalized by its
/// [`RateDraw`]: the negotiated rates double as the cached rate vector
/// (the rate *is* the state), and residual interval lives sit in a
/// parallel array, so a tick that renegotiates nothing touches exactly
/// two contiguous arrays with no virtual calls.
struct RcbrBatch<D> {
    draw: D,
    t_c: f64,
    exp: ExpSampler,
    /// Negotiated rate per flow — also the cached rate vector.
    rates: Vec<f64>,
    /// Residual life of the current interval per flow.
    remaining: Vec<f64>,
    /// Scratch: slots whose interval expired this tick.
    due: Vec<u32>,
}

impl<D> RcbrBatch<D> {
    fn new(draw: D, t_c: f64) -> Self {
        RcbrBatch {
            draw,
            t_c,
            exp: ExpSampler::get(),
            rates: Vec::new(),
            remaining: Vec::new(),
            due: Vec::new(),
        }
    }
}

/// Ages every residual by `dt` and writes the slots whose interval
/// expired to the front of `due`, in slot order, in one sweep; returns
/// how many. The conditional-append idiom keeps the collect free of
/// per-flow data-dependent branches, which would otherwise mispredict
/// on ~20% of flows per tick. It runs only for the 8-slot chunks in
/// which something expired: when `dt` is far below `T_c` (a Poisson
/// load advances on every arrival) almost none do, and the sweep is
/// then the subtraction alone. A function of two slices rather than a
/// loop over the batch's fields: only as parameters are the arrays
/// known not to overlap, and without that the sweep runs at half the
/// speed.
fn age_and_collect_due(remaining: &mut [f64], due: &mut [u32], dt: f64) -> usize {
    const CHUNK: usize = 8;
    let due = &mut due[..remaining.len()];
    let mut count = 0usize;
    let mut collect = |base: usize, aged: &[f64]| {
        for (i, rem) in aged.iter().enumerate() {
            due[count] = (base + i) as u32;
            count += (*rem <= 0.0) as usize;
        }
    };
    let mut chunks = remaining.chunks_exact_mut(CHUNK);
    let mut base = 0;
    for chunk in &mut chunks {
        let mut expired = false;
        for rem in chunk.iter_mut() {
            *rem -= dt;
            expired |= *rem <= 0.0;
        }
        if expired {
            collect(base, chunk);
        }
        base += CHUNK;
    }
    let tail = chunks.into_remainder();
    for rem in tail.iter_mut() {
        *rem -= dt;
    }
    collect(base, tail);
    count
}

impl<D: RateDraw> FlowBatch for RcbrBatch<D> {
    fn len(&self) -> usize {
        self.rates.len()
    }

    fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
        assert!(dt >= 0.0, "cannot advance backwards");
        let (t_c, exp) = (self.t_c, self.exp);
        // Pass 1: age every interval and collect the expired ones. The
        // boxed source's `dt >= remaining` is `remaining - dt <= 0`
        // here — exactly, since a nonzero difference of nearby doubles
        // never rounds to zero (Sterbenz) and IEEE subtraction is
        // antisymmetric.
        self.due.resize(self.remaining.len(), 0);
        let count = age_and_collect_due(&mut self.remaining, &mut self.due, dt);
        // Pass 2: renegotiate the due flows, in flow order, consuming
        // the RNG exactly as the boxed source's `advance` does (rate
        // draw then residual draw, once per due flow).
        for &i in &self.due[..count] {
            let i = i as usize;
            self.rates[i] = self.draw.draw(rng);
            self.remaining[i] = t_c * exp.sample(rng);
        }
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn spawn_one(&mut self, rng: &mut StdRng) {
        // Same draws as the boxed source's `reset`.
        let rate = self.draw.draw(rng);
        let remaining = exponential(rng, self.t_c);
        self.rates.push(rate);
        self.remaining.push(remaining);
    }

    fn swap_remove(&mut self, i: usize) {
        self.rates.swap_remove(i);
        self.remaining.swap_remove(i);
    }
}

/// One RCBR flow: current negotiated rate plus the residual life of the
/// current interval.
#[derive(Debug, Clone)]
pub struct RcbrSource {
    cfg: RcbrConfig,
    rate: f64,
    remaining: f64,
}

impl RcbrSource {
    /// Creates a flow in its stationary distribution.
    pub fn new(cfg: RcbrConfig, rng: &mut dyn RngCore) -> Self {
        let mut s = RcbrSource {
            cfg,
            rate: 0.0,
            remaining: 0.0,
        };
        s.reset(rng);
        s
    }

    fn draw_rate(&self, rng: &mut dyn RngCore) -> f64 {
        if self.cfg.truncate_at_zero {
            normal_truncated_below(rng, self.cfg.mean, self.cfg.std_dev.max(1e-300), 0.0)
        } else {
            normal(rng, self.cfg.mean, self.cfg.std_dev)
        }
    }
}

impl RateProcess for RcbrSource {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore) {
        assert!(dt >= 0.0, "cannot advance backwards");
        if dt >= self.remaining {
            // Renegotiated inside the step: fresh rate, fresh residual
            // (see the module docs).
            self.rate = self.draw_rate(rng);
            self.remaining = exponential(rng, self.cfg.t_c);
        } else {
            self.remaining -= dt;
        }
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.rate = self.draw_rate(rng);
        // Memorylessness: the stationary residual interval is again
        // exponential with mean T_c.
        self.remaining = exponential(rng, self.cfg.t_c);
    }

    fn mean(&self) -> f64 {
        self.cfg.mean
    }

    fn variance(&self) -> f64 {
        self.cfg.std_dev * self.cfg.std_dev
    }

    fn autocorrelation(&self, tau: f64) -> Option<f64> {
        Some((-tau.abs() / self.cfg.t_c).exp())
    }
}

/// Generalized RCBR source: same renewal structure (piecewise-constant
/// rate, exponential intervals ⇒ exact OU autocorrelation), arbitrary
/// [`Marginal`] rate distribution. Used by the Prop. 3.3 universality
/// experiment to hold `(μ, σ, T_c)` fixed while swapping the shape.
#[derive(Debug, Clone, Copy)]
pub struct GeneralRcbrModel {
    marginal: Marginal,
    t_c: f64,
}

impl GeneralRcbrModel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics unless `t_c > 0` and finite.
    pub fn new(marginal: Marginal, t_c: f64) -> Self {
        assert!(t_c > 0.0 && t_c.is_finite());
        GeneralRcbrModel { marginal, t_c }
    }

    /// The configured marginal.
    pub fn marginal(&self) -> Marginal {
        self.marginal
    }
}

impl SourceModel for GeneralRcbrModel {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        Box::new(GeneralRcbrSource {
            marginal: self.marginal,
            t_c: self.t_c,
            rate: self.marginal.sample(rng),
            remaining: exponential(rng, self.t_c),
        })
    }

    fn mean(&self) -> f64 {
        self.marginal.mean()
    }

    fn variance(&self) -> f64 {
        self.marginal.variance()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        Some(BatchKey::GeneralRcbr {
            marginal: self.marginal,
            t_c: self.t_c,
        })
    }

    fn new_batch(&self) -> Option<Box<dyn FlowBatch>> {
        Some(Box::new(RcbrBatch::new(self.marginal, self.t_c)))
    }
}

/// One generalized-RCBR flow.
#[derive(Debug, Clone)]
pub struct GeneralRcbrSource {
    marginal: Marginal,
    t_c: f64,
    rate: f64,
    remaining: f64,
}

impl RateProcess for GeneralRcbrSource {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore) {
        assert!(dt >= 0.0);
        if dt >= self.remaining {
            self.rate = self.marginal.sample(rng);
            self.remaining = exponential(rng, self.t_c);
        } else {
            self.remaining -= dt;
        }
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.rate = self.marginal.sample(rng);
        self.remaining = exponential(rng, self.t_c);
    }

    fn mean(&self) -> f64 {
        self.marginal.mean()
    }

    fn variance(&self) -> f64 {
        self.marginal.variance()
    }

    fn autocorrelation(&self, tau: f64) -> Option<f64> {
        Some((-tau.abs() / self.t_c).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::test_util::{check_acf, check_moments};
    use mbac_num::RunningStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> RcbrConfig {
        RcbrConfig::paper_default(1.0)
    }

    #[test]
    fn stationary_moments_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = RcbrSource::new(cfg(), &mut rng);
        check_moments(&mut src, 0.25, 200_000, 0.01, 0.01, 2);
    }

    #[test]
    fn autocorrelation_is_exponential() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = RcbrSource::new(cfg(), &mut rng);
        // dt = 0.5, so lags 1..6 cover τ = 0.5..3 = 3 T_c.
        check_acf(&mut src, 0.5, 400_000, &[1, 2, 4, 6], 0.02, 4);
    }

    #[test]
    fn rate_constant_within_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut src = RcbrSource::new(
            RcbrConfig {
                mean: 1.0,
                std_dev: 0.3,
                t_c: 1e9,
                truncate_at_zero: true,
            },
            &mut rng,
        );
        let r0 = src.rate();
        for _ in 0..100 {
            src.advance(0.001, &mut rng);
            assert_eq!(src.rate(), r0, "rate must not change inside an interval");
        }
    }

    #[test]
    fn advancing_past_many_intervals_changes_rate() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut src = RcbrSource::new(cfg(), &mut rng);
        let r0 = src.rate();
        src.advance(1000.0, &mut rng); // due with probability 1 − e^{−1000}
        assert_ne!(src.rate(), r0);
    }

    #[test]
    fn autocorrelation_is_exponential_at_steps_of_a_correlation_time_and_more() {
        // With dt >= T_c most flows are due at every step, so the lag-1
        // correlation rests entirely on the redrawn residual.
        let general = GeneralRcbrModel::new(Marginal::uniform_with_moments(1.0, 0.3), 1.0);
        for (dt, lags, seed) in [(1.0, &[1, 2, 3][..], 11), (2.0, &[1, 2][..], 13)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut src = RcbrSource::new(cfg(), &mut rng);
            check_acf(&mut src, dt, 400_000, lags, 0.02, seed + 1);
            let mut src = general.spawn(&mut rng);
            check_acf(src.as_mut(), dt, 400_000, lags, 0.02, seed + 2);
        }
    }

    /// The path-faithful advance: replays every renegotiation inside the
    /// step. The reference law for the test below.
    fn advance_path_faithful(src: &mut RcbrSource, dt: f64, rng: &mut StdRng) {
        let mut left = dt;
        while left >= src.remaining {
            left -= src.remaining;
            src.rate = src.draw_rate(rng);
            src.remaining = exponential(rng, src.cfg.t_c);
        }
        src.remaining -= left;
    }

    /// `advance(a); advance(b)` and `advance(a + b)` share a law, not
    /// bits, and share it with the path-faithful loop. Checked on what a
    /// caller can observe after a step — whether the rate changed, the
    /// new rate, and (through every later step) the residual — each
    /// against its analytic value within a 4.5σ band. An advance that
    /// redraws the rate but keeps the stale residual fails the residual
    /// rows at every step length.
    #[test]
    fn advance_law_matches_path_faithful_reference() {
        const N: usize = 100_000;
        const Z: f64 = 4.5;
        // Untruncated, so the new rates are exactly Gaussian; T_c ≠ 1
        // so a residual drawn on the wrong scale shows.
        let cfg = RcbrConfig {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 2.0,
            truncate_at_zero: false,
        };
        type Advance = fn(&mut RcbrSource, f64, &mut StdRng);
        let variants: [(&str, Advance); 3] = [
            ("path-faithful", advance_path_faithful),
            ("one advance", |s, dt, rng| s.advance(dt, rng)),
            ("split in two", |s, dt, rng| {
                s.advance(0.3 * dt, rng);
                s.advance(0.7 * dt, rng);
            }),
        ];
        let n = N as f64;
        for (d, dt_over_tc) in [0.05, 0.25, 1.0, 5.0, 50.0].into_iter().enumerate() {
            let dt = dt_over_tc * cfg.t_c;
            let p = 1.0 - (-dt_over_tc).exp();
            for (v, (name, advance)) in variants.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(1000 + 10 * d as u64 + v as u64);
                let (mut new_rates, mut residuals) = (RunningStats::new(), RunningStats::new());
                for _ in 0..N {
                    let mut src = RcbrSource::new(cfg, &mut rng);
                    let r0 = src.rate;
                    advance(&mut src, dt, &mut rng);
                    if src.rate != r0 {
                        new_rates.push(src.rate);
                    }
                    residuals.push(src.remaining);
                }
                let at = format!("{name} at dt = {dt_over_tc} T_c");
                let k = new_rates.count() as f64;
                let near = |what: &str, got: f64, want: f64, sd: f64| {
                    assert!(
                        (got - want).abs() <= Z * sd,
                        "{at}: {what} {got}, want {want} ± {}",
                        Z * sd
                    );
                };
                near("changed share", k / n, p, (p * (1.0 - p) / n).sqrt());
                let var: f64 = cfg.std_dev * cfg.std_dev;
                near(
                    "new-rate mean",
                    new_rates.mean(),
                    cfg.mean,
                    (var / k).sqrt(),
                );
                near(
                    "new-rate variance",
                    new_rates.variance(),
                    var,
                    var * (2.0 / k).sqrt(),
                );
                // Exp(T_c): mean T_c, variance T_c², fourth central
                // moment 9 T_c⁴.
                let tc2 = cfg.t_c * cfg.t_c;
                near(
                    "residual mean",
                    residuals.mean(),
                    cfg.t_c,
                    cfg.t_c / n.sqrt(),
                );
                near(
                    "residual variance",
                    residuals.variance(),
                    tc2,
                    tc2 * (8.0 / n).sqrt(),
                );
            }
        }
    }

    #[test]
    fn truncation_keeps_rates_nonnegative() {
        let mut rng = StdRng::seed_from_u64(7);
        // Heavier tail into zero: σ/μ = 0.5.
        let mut src = RcbrSource::new(
            RcbrConfig {
                mean: 1.0,
                std_dev: 0.5,
                t_c: 0.1,
                truncate_at_zero: true,
            },
            &mut rng,
        );
        for _ in 0..50_000 {
            src.advance(0.1, &mut rng);
            assert!(src.rate() >= 0.0);
        }
    }

    #[test]
    fn model_spawns_independent_flows() {
        let model = RcbrModel::new(cfg());
        let mut rng = StdRng::seed_from_u64(8);
        let a = model.spawn(&mut rng);
        let b = model.spawn(&mut rng);
        // Two fresh stationary draws are almost surely different.
        assert_ne!(a.rate(), b.rate());
        assert_eq!(model.mean(), 1.0);
        assert!((model.std_dev() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn general_rcbr_uniform_marginal_moments() {
        let model = GeneralRcbrModel::new(Marginal::uniform_with_moments(1.0, 0.3), 1.0);
        let mut rng = StdRng::seed_from_u64(100);
        let mut src = model.spawn(&mut rng);
        check_moments(src.as_mut(), 0.25, 150_000, 0.01, 0.01, 101);
    }

    #[test]
    fn general_rcbr_two_point_autocorrelation() {
        let model = GeneralRcbrModel::new(Marginal::two_point_with_moments(1.0, 0.3), 1.0);
        let mut rng = StdRng::seed_from_u64(102);
        let mut src = model.spawn(&mut rng);
        check_acf(src.as_mut(), 0.5, 300_000, &[1, 2, 4], 0.02, 103);
    }

    #[test]
    fn general_rcbr_matches_classic_for_gaussian_marginal() {
        let general = GeneralRcbrModel::new(Marginal::Gaussian { mean: 1.0, sd: 0.3 }, 2.0);
        let classic = RcbrModel::new(RcbrConfig {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 2.0,
            truncate_at_zero: true,
        });
        assert_eq!(general.mean(), classic.mean());
        assert_eq!(general.variance(), classic.variance());
        let mut rng = StdRng::seed_from_u64(104);
        let g = general.spawn(&mut rng);
        assert_eq!(g.autocorrelation(1.0), Some((-0.5f64).exp()));
    }

    #[test]
    fn zero_dt_advance_is_identity() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut src = RcbrSource::new(cfg(), &mut rng);
        let r = src.rate();
        src.advance(0.0, &mut rng);
        assert_eq!(src.rate(), r);
    }
}
