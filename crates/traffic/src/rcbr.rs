//! The paper's simulation source (§5.2): an RCBR (Renegotiated Constant
//! Bit Rate) flow.
//!
//! The rate is piecewise constant; at the end of each interval the flow
//! "renegotiates" to a fresh rate drawn from its [`Marginal`] — in the
//! paper a Gaussian with `σ/μ` given (0.3), in Prop. 3.3's universality
//! experiment any shape with the same two moments
//! ([`RcbrModel::with_marginal`]). Interval lengths are i.i.d.
//! exponential with mean `T_c`, which — by memorylessness — makes the
//! rate process Markov with autocorrelation exactly
//! `ρ(τ) = e^{−|τ|/T_c}` (the paper's eqn (31)) whatever the marginal:
//! the aggregate fluctuation converges to the Ornstein–Uhlenbeck process
//! assumed in the theory.
//!
//! # The advance rule: thinning
//!
//! Every RCBR `advance(dt)` in this module — [`RcbrSource`] and the
//! batched kernel — renegotiates each flow independently with probability
//! `p = 1 − e^{−λ}`, `λ = dt / T_c`, and leaves every other flow alone.
//! No flow carries a residual interval life. The batched kernel does
//! not flip a coin per flow: it walks the rarer side. While `p ≤ ½`
//! (`λ ≤ ln 2`, every tick of a fixed-tick or Poisson load) it jumps
//! from one renegotiating flow to the next over a Geometric(`p`) gap:
//!
//! ```text
//! i = 0
//! loop {
//!     E ~ Exp(1);  i += ⌊E / λ⌋     // P(gap ≥ k) = P(E ≥ kλ) = e^{−kλ}
//!     if i >= len { break }          // nothing drawn past the last flow
//!     rate[i] = draw();  i += 1
//! }
//! ```
//!
//! Past `ln 2` most flows renegotiate, so it walks the flows that keep
//! their rate instead: each step renegotiates the next run of `R` flows
//! in slot order and skips one keeper, where
//!
//! ```text
//! μ = −ln(1 − e^{−λ})                // computed as −ln_1p(−e^{−λ})
//! i = 0
//! loop {
//!     E ~ Exp(1);  R = ⌊E / μ⌋       // P(R ≥ k) = e^{−kμ} = p^k
//!     rate[i..min(i + R, len)] = draw() each
//!     i += R + 1                     // skip the keeper
//!     if i >= len { break }
//! }
//! ```
//!
//! Both walks are the same i.i.d. Bernoulli(`p`) sequence over the
//! slots, read by its runs: a Geometric gap of keepers before each
//! renegotiation, or a Geometric run of renegotiations before each
//! keeper. So an advance costs `n·p` rate draws and `n·min(p, 1 − p)`
//! gap draws, plus at most one that lands past the end — one gap draw,
//! not `n`, at Prop. 3.3's `50 T_c`. `μ` is formed through `ln_1p`
//! because `1 − e^{−λ}` rounds to 1 from `λ ≈ 37` on, which would make
//! it zero; this way it stays positive out to `λ ≈ 745`. Beyond that,
//! and at `λ = ∞`, `μ = 0`: every flow renegotiates and no gap is drawn
//! (an `E = 0` would otherwise give `0/0`, a run of 0).
//!
//! A boxed source runs the same loop over a batch of one: it draws one
//! `E` and renegotiates iff `⌊E/λ⌋ = 0` — past `ln 2`, iff `⌊E/μ⌋ ≥ 1`;
//! a `DynBatch` runs it over each run of consecutive RCBR flows with
//! equal `T_c` ([`RateProcess::thinning_scale`]), so the two engines
//! consume the RNG identically. A batch larger than one lane runs the
//! loop once per lane, on the lane's own stream ([`crate::batch`],
//! "Lanes"): each flow still renegotiates independently with
//! probability `p`.
//!
//! It is exact, not an approximation. Renegotiation epochs form a
//! Poisson process of rate `1/T_c` and the negotiated rates are i.i.d.
//! and independent of the epochs. By memorylessness, whether a flow
//! renegotiates inside `(t, t+dt]` is independent of everything seen at
//! or before `t` — of other flows, of earlier advances — and happens
//! with probability `1 − e^{−dt/T_c}`; if it did, its rate at `t+dt` is
//! the draw made at the *last* epoch, a fresh marginal draw. So the
//! joint law of the rates seen at the advance instants, hence
//! `ρ(τ) = e^{−|τ|/T_c}` and every statistic a caller can form, is that
//! of the path-by-path simulation; the residual life such a simulation
//! carries is `Exp(T_c)` at every instant, whatever came before, and
//! tells a caller nothing. Which walk reads the Bernoulli sequence
//! changes which draws land where, never the law: each flow keeps its
//! rate independently with probability `e^{−λ}` under either.
//! `tests::advance_law_matches_path_faithful_reference` holds the
//! walks and the path-by-path loop side by side, on both sides of
//! `ln 2`.
//!
//! What is not simulated is the path *inside* an advance: the
//! intermediate rates a flow would have held between two calls. No
//! caller can observe them — a [`RateProcess`] is read only at the
//! instants it is advanced to — so a step of `50 T_c` (Prop. 3.3's
//! observe time) costs one renegotiation per flow instead of fifty, and
//! a Poisson load's per-arrival step of `≈ 0.03 T_c` touches about 3 %
//! of the flows instead of every one. Sample paths therefore depend on
//! *where* the advance instants fall: `advance(a); advance(b)` and
//! `advance(a + b)` agree in law, not bit for bit.
//!
//! The paper's Gaussian is truncated at zero to keep rates physical
//! ([`Marginal::Gaussian`]; [`Marginal::Normal`] is not); with
//! `σ/μ = 0.3` the truncated mass is `Q(3.33) ≈ 4e-4`, a negligible
//! perturbation of the moments (the analytic `mean()` / `variance()`
//! report the *untruncated* values, as the theory assumes). The batch
//! kernel draws a Gaussian marginal, truncated or not, through an inlined
//! sampler and every other marginal through [`Marginal::sample`]; both
//! consume the RNG as the boxed source does.

use crate::batch::{BatchKey, FlowBatch, LaneStreams, LANE};
use crate::marginal::Marginal;
use crate::process::{RateProcess, SourceModel};
use mbac_num::rng::{ExpSampler, NormalSampler};
use rand::rngs::StdRng;
use rand::RngCore;

/// The advance rule (module docs) over `len` flows advanced by `dt`,
/// mean interval `t_c`: calls `renegotiate(i, rng)` for each flow that
/// renegotiates, in ascending order, and draws one `Exp(1)` per flow on
/// the rarer side — renegotiating while `λ = dt/T_c ≤ ln 2`, keeping its
/// rate past it — plus at most one that lands past the end. A `λ` of
/// zero — `dt = 0`, or a subnormal `dt` that underflows — draws nothing,
/// and so does a `μ` of zero (`λ ≳ 745`, or infinite) beyond the rates.
/// The one loop behind the batch kernel, [`crate::batch::DynBatch`]'s
/// RCBR runs and a boxed source's `advance` (a batch of one).
///
/// The generator `G` comes in by value and goes back out — a local
/// `StdRng` from the kernel, a `&mut` one from the other two — so that
/// handing it to the out-of-line keeper walk takes no address of the
/// kernel's copy, which stays in registers (`mbac_num::rng`, "The
/// register rule").
#[inline(always)]
pub(crate) fn thin<G: RngCore>(
    len: usize,
    dt: f64,
    t_c: f64,
    exp: ExpSampler,
    mut rng: G,
    mut renegotiate: impl FnMut(usize, &mut G),
) -> G {
    assert!(dt >= 0.0, "cannot advance backwards");
    let lambda = dt / t_c;
    if lambda == 0.0 {
        return rng;
    }
    if lambda > std::f64::consts::LN_2 {
        // Only impulsive observations step this far; every tick of a
        // fixed-tick or Poisson load takes the loop below.
        std::hint::cold_path();
        return walk_keepers(len, lambda, exp, rng, renegotiate);
    }
    let mut i = 0;
    while i < len {
        // Flows skipped before the next renegotiation: ⌊E/λ⌋, a
        // Geometric(1 − e^{−λ}) gap. The cast saturates, so a huge or
        // infinite quotient skips past any batch; λ > 0 and a finite E
        // keep it from being NaN, which would cast to 0.
        let skip = (exp.sample(&mut rng) / lambda) as usize;
        if skip >= len - i {
            break;
        }
        i += skip;
        renegotiate(i, &mut rng);
        i += 1;
    }
    rng
}

/// [`thin`] past `λ = ln 2`: renegotiates runs of `⌊E/μ⌋` flows, each
/// followed by one keeper (module docs). Out of line, behind a cold
/// branch: inlined beside the renegotiation walk every tick takes, it
/// cost the tick workloads (`fig5_sweep`, `poisson_blocking`) a few per
/// cent.
#[inline(never)]
fn walk_keepers<G: RngCore>(
    len: usize,
    lambda: f64,
    exp: ExpSampler,
    mut rng: G,
    mut renegotiate: impl FnMut(usize, &mut G),
) -> G {
    let mu = keeper_rate(lambda);
    if mu == 0.0 {
        (0..len).for_each(|i| renegotiate(i, &mut rng));
        return rng;
    }
    let mut i = 0;
    while i < len {
        // Flows renegotiated before the next keeper: ⌊E/μ⌋, a run with
        // P(run ≥ k) = (1 − e^{−λ})^k. The cast saturates as above, and
        // μ > 0 keeps the quotient from being NaN.
        let run = (exp.sample(&mut rng) / mu) as usize;
        let end = i + run.min(len - i);
        for j in i..end {
            renegotiate(j, &mut rng);
        }
        i = end + 1;
    }
    rng
}

/// `μ = −ln(1 − e^{−λ})`, the rate of the keeper walk's runs (module
/// docs): positive out to `λ ≈ 745`, zero past it.
#[inline]
fn keeper_rate(lambda: f64) -> f64 {
    -(-(-lambda).exp()).ln_1p()
}

/// Configuration for the paper's RCBR flows: a Gaussian marginal.
#[derive(Debug, Clone, Copy)]
pub struct RcbrConfig {
    /// Marginal mean rate `μ`.
    pub mean: f64,
    /// Marginal standard deviation `σ`.
    pub std_dev: f64,
    /// Mean renegotiation interval `T_c` (the correlation time-scale).
    pub t_c: f64,
    /// Truncate negotiated rates at zero (keeps rates physical; see
    /// module docs): [`Marginal::Gaussian`] if set, else
    /// [`Marginal::Normal`].
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

/// Factory for independent RCBR flows: a marginal rate distribution and
/// the mean renegotiation interval `T_c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcbrModel {
    marginal: Marginal,
    t_c: f64,
}

impl RcbrModel {
    /// The paper's source: a Gaussian marginal, truncated at zero or not.
    ///
    /// # Panics
    /// Panics unless mean, std-dev and `T_c` are positive and finite.
    pub fn new(cfg: RcbrConfig) -> Self {
        assert!(cfg.mean > 0.0 && cfg.mean.is_finite());
        assert!(cfg.std_dev >= 0.0 && cfg.std_dev.is_finite());
        let (mean, sd) = (cfg.mean, cfg.std_dev);
        let marginal = if cfg.truncate_at_zero {
            Marginal::Gaussian { mean, sd }
        } else {
            Marginal::Normal { mean, sd }
        };
        Self::with_marginal(marginal, cfg.t_c)
    }

    /// RCBR over any marginal: the same renewal structure, hence the
    /// same `ρ(τ) = e^{−|τ|/T_c}`. The Prop. 3.3 universality experiment
    /// holds `(μ, σ, T_c)` fixed while swapping the shape.
    ///
    /// # Panics
    /// Panics unless `t_c > 0` and finite, or on a Gaussian truncated
    /// more than 5 σ above its mean, where the rejection loop of
    /// [`Marginal::sample`] (and of the batch kernel) would stall.
    pub fn with_marginal(marginal: Marginal, t_c: f64) -> Self {
        assert!(t_c > 0.0 && t_c.is_finite());
        if let Marginal::Gaussian { mean, sd } = marginal {
            assert!(-mean / sd.max(1e-300) < 5.0, "truncated 5 σ above the mean");
        }
        RcbrModel { marginal, t_c }
    }

    /// The classical on–off source: rate `peak` while on, 0 while off,
    /// exponential on-periods (mean `mean_on`) and off-periods (mean
    /// `mean_off`) — the two-state Markov fluid of Assumption B.6. It
    /// leaves off at `λ = 1/mean_off` and on at `μ = 1/mean_on`, which
    /// is renegotiating at rate `λ + μ` to a fresh draw that is on with
    /// probability `λ/(λ + μ)`: an RCBR flow over a two-point marginal,
    /// with `T_c = 1/(λ + μ)` and `ρ(τ) = e^{−(λ+μ)|τ|}`.
    ///
    /// # Panics
    /// Panics unless all three parameters are positive and finite.
    pub fn on_off(peak: f64, mean_on: f64, mean_off: f64) -> Self {
        for v in [peak, mean_on, mean_off] {
            assert!(
                v > 0.0 && v.is_finite(),
                "on–off parameter {v} must be positive"
            );
        }
        let cycle = mean_on + mean_off;
        let marginal = Marginal::TwoPoint {
            low: 0.0,
            high: peak,
            p_high: mean_on / cycle,
        };
        Self::with_marginal(marginal, mean_on * mean_off / cycle)
    }

    /// The configured marginal.
    pub fn marginal(&self) -> Marginal {
        self.marginal
    }
}

impl SourceModel for RcbrModel {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        Box::new(RcbrSource::new(*self, rng))
    }

    fn mean(&self) -> f64 {
        self.marginal.mean()
    }

    fn variance(&self) -> f64 {
        self.marginal.variance()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        Some(BatchKey::Rcbr {
            marginal: self.marginal,
            t_c: self.t_c,
        })
    }

    fn new_batch(&self) -> Option<Box<dyn FlowBatch>> {
        Some(match GaussianDraw::new(self.marginal) {
            Some(draw) => Box::new(RcbrBatch::new(draw, self.t_c)),
            None => Box::new(RcbrBatch::new(self.marginal, self.t_c)),
        })
    }
}

/// How an [`RcbrBatch`] draws a negotiated rate.
trait RateDraw: Send + Sync {
    /// One rate; must consume the RNG as [`Marginal::sample`] does.
    fn draw(&self, rng: &mut StdRng) -> f64;
}

/// A Gaussian marginal's draw, truncated or not, with the ziggurat
/// handle resolved once per batch instead of once per draw and
/// `normal_truncated_below`'s per-call argument checks left out (the
/// model's constructor already guarantees them); same draw sequence.
struct GaussianDraw {
    mean: f64,
    /// Floored as [`Marginal::sample`] floors it, on the truncated path
    /// only.
    sd: f64,
    truncate_at_zero: bool,
    normal: NormalSampler,
}

impl GaussianDraw {
    /// The draw of a Gaussian marginal; `None` for any other shape.
    fn new(marginal: Marginal) -> Option<Self> {
        let (mean, sd, truncate_at_zero) = match marginal {
            Marginal::Gaussian { mean, sd } => (mean, sd.max(1e-300), true),
            Marginal::Normal { mean, sd } => (mean, sd, false),
            _ => return None,
        };
        Some(GaussianDraw {
            mean,
            sd,
            truncate_at_zero,
            normal: NormalSampler::get(),
        })
    }
}

impl RateDraw for GaussianDraw {
    // `always`, with `ExpSampler::sample`: at the default threshold
    // neither lands inside `thin`'s loop, and two calls per
    // renegotiating flow cost a Poisson load (~3 % of flows renegotiate
    // per arrival) 8 % of its arrivals per second.
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

/// Struct-of-arrays batch of RCBR flows, drawing through its
/// [`RateDraw`]: the negotiated rates are the whole state and double as
/// the cached rate vector, so an advance writes only the slots that
/// renegotiate and reads nothing else (see "The advance rule").
struct RcbrBatch<D> {
    draw: D,
    t_c: f64,
    exp: ExpSampler,
    /// Negotiated rate per flow — also the cached rate vector.
    rates: Vec<f64>,
    /// RNG streams of lanes 1, 2, … (see [`crate::batch`], "Lanes").
    lanes: LaneStreams,
}

impl<D> RcbrBatch<D> {
    fn new(draw: D, t_c: f64) -> Self {
        RcbrBatch {
            draw,
            t_c,
            exp: ExpSampler::get(),
            rates: Vec::new(),
            lanes: LaneStreams::default(),
        }
    }
}

impl<D: RateDraw> FlowBatch for RcbrBatch<D> {
    fn len(&self) -> usize {
        self.rates.len()
    }

    fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
        let (draw, t_c, exp) = (&self.draw, self.t_c, self.exp);
        // A rate per renegotiation, a gap per flow on the rarer side.
        let n = self.rates.len() as f64;
        let draws = || {
            let p = -(-dt / t_c).exp_m1();
            n * (p + p.min(1.0 - p))
        };
        let lanes = self.rates.chunks_mut(LANE);
        self.lanes.advance(rng, lanes, draws, |rates, rng| {
            // On a copy of the lane's stream (`thin`'s docs). `always`:
            // `thin` calls this from both walks, and a closure with two
            // call sites is otherwise left out of line — a call per
            // renegotiation on every tick, 12 % of `fig5_sweep`.
            *rng = thin(
                rates.len(),
                dt,
                t_c,
                exp,
                rng.clone(),
                #[inline(always)]
                |i, rng| {
                    rates[i] = draw.draw(rng);
                },
            );
        });
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn spawn(&mut self, n: usize, rng: &mut StdRng) {
        // Same draws as `n` boxed sources' `reset`, on a local stream
        // (see `FlowBatch::spawn`).
        let (draw, mut local) = (&self.draw, rng.clone());
        self.rates.extend((0..n).map(|_| draw.draw(&mut local)));
        *rng = local;
    }

    fn spawn_each(&mut self, n: usize, rng: &mut StdRng, before: &mut dyn FnMut(&mut StdRng)) {
        self.rates.reserve(n);
        for _ in 0..n {
            before(rng);
            self.rates.push(self.draw.draw(rng));
        }
    }

    fn swap_remove(&mut self, i: usize) {
        self.rates.swap_remove(i);
    }
}

/// One RCBR flow: its current negotiated rate, the whole state (see
/// "The advance rule").
#[derive(Debug, Clone)]
pub struct RcbrSource {
    model: RcbrModel,
    rate: f64,
}

impl RcbrSource {
    /// Creates a flow of `model` in its stationary distribution.
    pub fn new(model: RcbrModel, rng: &mut dyn RngCore) -> Self {
        RcbrSource {
            model,
            rate: model.marginal.sample(rng),
        }
    }
}

impl RateProcess for RcbrSource {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore) {
        let t_c = self.model.t_c;
        thin(1, dt, t_c, ExpSampler::get(), rng, |_, rng| {
            self.reset(*rng)
        });
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.rate = self.model.marginal.sample(rng);
    }

    fn thinning_scale(&self) -> Option<f64> {
        Some(self.model.t_c)
    }

    fn mean(&self) -> f64 {
        self.model.mean()
    }

    fn variance(&self) -> f64 {
        self.model.variance()
    }

    fn autocorrelation(&self, tau: f64) -> Option<f64> {
        Some((-tau.abs() / self.model.t_c).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::test_util::{check_acf, check_moments};
    use mbac_num::rng::exponential;
    use mbac_num::RunningStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> RcbrConfig {
        RcbrConfig::paper_default(1.0)
    }

    fn source(cfg: RcbrConfig, rng: &mut StdRng) -> RcbrSource {
        RcbrSource::new(RcbrModel::new(cfg), rng)
    }

    #[test]
    fn stationary_moments_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = source(cfg(), &mut rng);
        check_moments(&mut src, 0.25, 200_000, 0.01, 0.01, 2);
    }

    #[test]
    fn autocorrelation_is_exponential() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = source(cfg(), &mut rng);
        // dt = 0.5, so lags 1..6 cover τ = 0.5..3 = 3 T_c.
        check_acf(&mut src, 0.5, 400_000, &[1, 2, 4, 6], 0.02, 4);
    }

    #[test]
    fn rate_constant_within_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut src = source(
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
        let mut src = source(cfg(), &mut rng);
        let r0 = src.rate();
        src.advance(1000.0, &mut rng); // renegotiates w.p. 1 − e^{−1000}
        assert_ne!(src.rate(), r0);
    }

    #[test]
    fn autocorrelation_is_exponential_at_steps_of_a_correlation_time_and_more() {
        // With dt >= T_c most steps renegotiate, so the lag-1
        // correlation rests entirely on the thinning probability.
        let general = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.3), 1.0);
        for (dt, lags, seed) in [(1.0, &[1, 2, 3][..], 11), (2.0, &[1, 2][..], 13)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut src = source(cfg(), &mut rng);
            check_acf(&mut src, dt, 400_000, lags, 0.02, seed + 1);
            let mut src = general.spawn(&mut rng);
            check_acf(src.as_mut(), dt, 400_000, lags, 0.02, seed + 2);
        }
    }

    /// The path-faithful reference: one flow carrying the residual life
    /// of its current interval and replaying every renegotiation inside
    /// a step — the law thinning must reproduce at the advance instants.
    struct PathFaithful {
        src: RcbrSource,
        residual: f64,
    }

    impl PathFaithful {
        fn new(cfg: RcbrConfig, rng: &mut StdRng) -> Self {
            let src = source(cfg, rng);
            PathFaithful {
                residual: exponential(rng, cfg.t_c),
                src,
            }
        }

        fn advance(&mut self, dt: f64, rng: &mut StdRng) {
            let mut left = dt;
            while left >= self.residual {
                left -= self.residual;
                self.src.reset(rng);
                self.residual = exponential(rng, self.src.model.t_c);
            }
            self.residual -= left;
        }
    }

    /// Untruncated, so new rates are exactly Gaussian and a redraw
    /// equal to the old rate has probability zero; `T_c ≠ 1`, so a
    /// thinning probability computed on the wrong scale shows.
    const LAW_CFG: RcbrConfig = RcbrConfig {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 2.0,
        truncate_at_zero: false,
    };

    fn gaussian_batch(cfg: RcbrConfig) -> RcbrBatch<GaussianDraw> {
        let draw = GaussianDraw::new(RcbrModel::new(cfg).marginal).unwrap();
        RcbrBatch::new(draw, cfg.t_c)
    }

    /// `n` flows of [`LAW_CFG`] advanced through `steps` in turn, on
    /// one engine; returns every flow's rate before each step and
    /// after the last (`n × (steps + 1)`, step-major).
    type Stepper = fn(usize, &[f64], &mut StdRng) -> Vec<Vec<f64>>;

    fn on_path_faithful(n: usize, steps: &[f64], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut flows: Vec<_> = (0..n).map(|_| PathFaithful::new(LAW_CFG, rng)).collect();
        let mut out = vec![flows.iter().map(|f| f.src.rate).collect::<Vec<_>>()];
        for &dt in steps {
            flows.iter_mut().for_each(|f| f.advance(dt, rng));
            out.push(flows.iter().map(|f| f.src.rate).collect());
        }
        out
    }

    fn on_boxed(n: usize, steps: &[f64], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut flows: Vec<_> = (0..n).map(|_| source(LAW_CFG, rng)).collect();
        let mut out = vec![flows.iter().map(|f| f.rate).collect::<Vec<_>>()];
        for &dt in steps {
            flows.iter_mut().for_each(|f| f.advance(dt, rng));
            out.push(flows.iter().map(|f| f.rate).collect());
        }
        out
    }

    fn on_batch(n: usize, steps: &[f64], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut batch = gaussian_batch(LAW_CFG);
        batch.spawn(n, rng);
        let mut out = vec![batch.rates.clone()];
        for &dt in steps {
            batch.advance_all(dt, rng);
            out.push(batch.rates.clone());
        }
        out
    }

    const ENGINES: [(&str, Stepper); 3] = [
        ("path-faithful", on_path_faithful),
        ("boxed source", on_boxed),
        ("batch", on_batch),
    ];

    /// `got` within `Z = 4.5` standard deviations `sd` of `want`.
    fn assert_near(at: &str, what: &str, got: f64, want: f64, sd: f64) {
        const Z: f64 = 4.5;
        assert!(
            (got - want).abs() <= Z * sd,
            "{at}: {what} {got}, want {want} ± {}",
            Z * sd
        );
    }

    /// A share of `n` Bernoulli(`q`) trials within its 4.5σ band.
    fn assert_share(at: &str, what: &str, hits: usize, n: usize, q: f64) {
        let n = n as f64;
        assert_near(at, what, hits as f64 / n, q, (q * (1.0 - q) / n).sqrt());
    }

    fn changed(before: &[f64], after: &[f64]) -> Vec<bool> {
        before.iter().zip(after).map(|(a, b)| a != b).collect()
    }

    /// Thinning, boxed and batched, against the path-faithful loop: at
    /// every step length, in one advance and split 0.3/0.7 — so
    /// `advance(a); advance(b)` ≡ `advance(a + b)` in law — the share of
    /// flows whose rate changed is `1 − e^{−dt/T_c}` and the new rates
    /// are marginal draws, each within a 4.5σ band. 0.69 and 0.70 `T_c`
    /// straddle the switch to the keeper walk at `ln 2`; 40 `T_c` is
    /// where `1 − e^{−λ}` has rounded to 1 and only `ln_1p` keeps `μ`.
    #[test]
    fn advance_law_matches_path_faithful_reference() {
        const N: usize = 100_000;
        let steps = [0.01, 0.05, 0.25, 1.0, 5.0, 50.0, 0.69, 0.70, 40.0];
        for (d, dt_over_tc) in steps.into_iter().enumerate() {
            let dt = dt_over_tc * LAW_CFG.t_c;
            let p = 1.0 - (-dt_over_tc).exp();
            let splits: [(&str, &[f64]); 2] = [
                ("one advance", &[dt]),
                ("split in two", &[0.3 * dt, 0.7 * dt]),
            ];
            for (e, (engine, run)) in ENGINES.iter().enumerate() {
                for (v, (split, steps)) in splits.iter().enumerate() {
                    let seed = 1000 + 10 * d as u64 + 3 * e as u64 + v as u64;
                    let rates = run(N, steps, &mut StdRng::seed_from_u64(seed));
                    let (first, last) = (&rates[0], &rates[steps.len()]);
                    let mut new_rates = RunningStats::new();
                    for (&r0, &r) in first.iter().zip(last) {
                        if r != r0 {
                            new_rates.push(r);
                        }
                    }
                    let at = format!("{engine}, {split} at dt = {dt_over_tc} T_c");
                    let k = new_rates.count() as f64;
                    assert_share(&at, "changed share", k as usize, N, p);
                    let var = LAW_CFG.std_dev * LAW_CFG.std_dev;
                    assert_near(
                        &at,
                        "new-rate mean",
                        new_rates.mean(),
                        LAW_CFG.mean,
                        (var / k).sqrt(),
                    );
                    assert_near(
                        &at,
                        "new-rate variance",
                        new_rates.variance(),
                        var,
                        var * (2.0 / k).sqrt(),
                    );
                }
            }
        }
    }

    /// Renegotiations are independent events: across two consecutive
    /// advances of one flow the joint share is `p₁p₂`, and within one
    /// advance two neighbouring slots both change with share `p₁²` —
    /// the Geometric gaps neither cluster nor repel.
    #[test]
    fn renegotiations_are_independent_across_advances_and_neighbours() {
        const N: usize = 100_000;
        for (d, (a, b)) in [(0.05f64, 0.25f64), (1.0, 0.01), (0.25, 5.0)]
            .into_iter()
            .enumerate()
        {
            let (p1, p2) = (1.0 - (-a).exp(), 1.0 - (-b).exp());
            for (e, (engine, run)) in ENGINES.iter().enumerate() {
                let seed = 2000 + 10 * d as u64 + e as u64;
                let steps = [a * LAW_CFG.t_c, b * LAW_CFG.t_c];
                let rates = run(N, &steps, &mut StdRng::seed_from_u64(seed));
                let first = changed(&rates[0], &rates[1]);
                let second = changed(&rates[1], &rates[2]);
                let at = format!("{engine} at dt = {a}, then {b} T_c");
                let both = first.iter().zip(&second).filter(|(x, y)| **x && **y);
                assert_share(&at, "joint share", both.count(), N, p1 * p2);
                assert_share(
                    &at,
                    "second share",
                    second.iter().filter(|x| **x).count(),
                    N,
                    p2,
                );
                let pairs = first.windows(2).filter(|w| w[0] && w[1]).count();
                assert_share(&at, "neighbour share", pairs, N - 1, p1 * p1);
            }
        }
    }

    /// No slot is favoured: over many advances of one batch the hits
    /// per slot are Binomial(`M`, `p`) alike, so their χ² statistic
    /// (`K` degrees of freedom) stays within 4.5σ of its mean `K`. A
    /// gap drawn from the wrong start — slot 0 skipped, the tail cut —
    /// shows at the short steps, where one gap spans many slots, and a
    /// run of the keeper walk cut the same way at 0.9 and 2 `T_c`.
    #[test]
    fn no_slot_is_favoured() {
        const K: usize = 37;
        const M: usize = 20_000;
        for (d, dt_over_tc) in [0.01f64, 0.25, 5.0, 0.9, 2.0].into_iter().enumerate() {
            let p = 1.0 - (-dt_over_tc).exp();
            let mut rng = StdRng::seed_from_u64(3000 + d as u64);
            let mut batch = gaussian_batch(LAW_CFG);
            batch.spawn(K, &mut rng);
            let mut hits = [0usize; K];
            for _ in 0..M {
                let before = batch.rates.clone();
                batch.advance_all(dt_over_tc * LAW_CFG.t_c, &mut rng);
                for (h, changed) in hits.iter_mut().zip(changed(&before, &batch.rates)) {
                    *h += changed as usize;
                }
            }
            let (mean, var) = (M as f64 * p, M as f64 * p * (1.0 - p));
            let chi2: f64 = hits.iter().map(|&h| (h as f64 - mean).powi(2) / var).sum();
            let k = K as f64;
            assert_near(
                &format!("dt = {dt_over_tc} T_c, hits {hits:?}"),
                "χ²",
                chi2,
                k,
                (2.0 * k).sqrt(),
            );
        }
    }

    /// The edges of the rule: `dt = 0` and an empty batch draw nothing;
    /// `dt = ∞` renegotiates every flow and draws no gap (`μ = 0`); a
    /// subnormal `dt` either underflows `λ` to zero (nothing drawn) or
    /// skips past the batch, and its skip is never NaN (which would cast
    /// to 0 and renegotiate); `μ` stays positive where `1 − e^{−λ}` has
    /// rounded to 1.
    #[test]
    fn thinning_edge_cases() {
        let mut rng = StdRng::seed_from_u64(4000);
        let mut batch = gaussian_batch(LAW_CFG);
        let mut src = source(LAW_CFG, &mut rng);
        batch.spawn(1000, &mut rng);

        let untouched = |batch: &mut RcbrBatch<GaussianDraw>,
                         src: &mut RcbrSource,
                         rng: &mut StdRng,
                         dt: f64| {
            let (before, rate, stream) = (batch.rates.clone(), src.rate, rng.clone());
            batch.advance_all(dt, rng);
            src.advance(dt, rng);
            assert_eq!(batch.rates, before, "dt = {dt:e}");
            assert_eq!(src.rate, rate, "dt = {dt:e}");
            *rng == stream
        };
        assert!(
            untouched(&mut batch, &mut src, &mut rng, 0.0),
            "dt = 0 drew"
        );
        // 5e-324 / 2 rounds to zero: nothing to thin, nothing drawn.
        assert!(
            untouched(&mut batch, &mut src, &mut rng, 5e-324),
            "λ = 0 drew"
        );
        // A nonzero subnormal λ: one gap draw each, far past the end.
        assert!(!untouched(&mut batch, &mut src, &mut rng, 1e-310));

        let mut empty = gaussian_batch(LAW_CFG);
        let stream = rng.clone();
        empty.advance_all(1.0, &mut rng);
        assert_eq!(rng, stream, "an empty batch drew");

        // λ = ∞: a rate draw per flow and nothing else.
        let before = batch.rates.clone();
        let mut replay = rng.clone();
        let want: Vec<f64> = (0..before.len())
            .map(|_| batch.draw.draw(&mut replay))
            .collect();
        batch.advance_all(f64::INFINITY, &mut rng);
        assert!(
            changed(&before, &batch.rates).iter().all(|&c| c),
            "dt = ∞ missed a flow"
        );
        assert_eq!(batch.rates, want, "dt = ∞ drew more than the rates");
        assert_eq!(rng, replay, "dt = ∞ drew a gap");
        let rate = src.rate;
        src.advance(f64::INFINITY, &mut rng);
        assert_ne!(src.rate, rate, "dt = ∞ kept the boxed rate");
        assert_eq!(keeper_rate(f64::INFINITY), 0.0);

        // 1 − e^{−40} rounds to 1, so only `ln_1p` keeps μ ≈ e^{−40} > 0.
        assert_eq!(1.0 - (-40f64).exp(), 1.0);
        let mu = keeper_rate(40.0);
        assert!(mu > 0.0, "μ = {mu:e} at λ = 40");
        assert!((mu / (-40f64).exp() - 1.0).abs() < 1e-12, "μ = {mu:e}");
        assert!(keeper_rate(745.0) > 0.0);

        for dt in [5e-324, 1e-320, 1e-310, f64::MIN_POSITIVE * 0.99] {
            for t_c in [1e-300, 1e-3, 1.0, 2.0, 1e300] {
                let lambda = dt / t_c;
                for e in [0.0, 5e-324, 1e-300, 1.0, 40.0] {
                    assert!(
                        lambda == 0.0 || !(e / lambda).is_nan(),
                        "NaN skip at dt = {dt:e}, T_c = {t_c:e}, E = {e:e}"
                    );
                }
            }
        }
    }

    /// The renegotiation walk alone, as a reference: the stream at
    /// `λ ≤ ln 2` must equal it draw for draw.
    fn renegotiation_walk(rates: &mut [f64], lambda: f64, draw: &GaussianDraw, rng: &mut StdRng) {
        let exp = ExpSampler::get();
        let mut i = 0;
        while i < rates.len() {
            let skip = (exp.sample(rng) / lambda) as usize;
            if skip >= rates.len() - i {
                return;
            }
            i += skip;
            rates[i] = draw.draw(rng);
            i += 1;
        }
    }

    /// What an advance draws. At 50 `T_c` an `n`-flow batch uses exactly
    /// one gap draw plus `n` rate draws, and a boxed source one gap and
    /// one rate (hand replays, RNG end state included). Up to `ln 2`
    /// (0.25 and 0.69 `T_c`, and `ln 2` itself) the stream is the
    /// renegotiation walk's, bit for bit.
    #[test]
    fn an_advance_draws_what_its_rarer_side_needs() {
        let exp = ExpSampler::get();
        for n in [1, 386, 1000] {
            let mut rng = StdRng::seed_from_u64(5000 + n as u64);
            let mut batch = gaussian_batch(LAW_CFG);
            batch.spawn(n, &mut rng);
            let mut replay = rng.clone();
            exp.sample(&mut replay);
            let want: Vec<f64> = (0..n).map(|_| batch.draw.draw(&mut replay)).collect();
            batch.advance_all(50.0 * LAW_CFG.t_c, &mut rng);
            assert_eq!(batch.rates, want, "n = {n}");
            assert_eq!(rng, replay, "n = {n}: RNG end state");
        }

        let mut rng = StdRng::seed_from_u64(5100);
        let mut src = source(LAW_CFG, &mut rng);
        let mut replay = rng.clone();
        exp.sample(&mut replay);
        let want = src.model.marginal.sample(&mut replay);
        src.advance(50.0 * LAW_CFG.t_c, &mut rng);
        assert_eq!((src.rate, &rng), (want, &replay), "boxed source");

        let ln2 = std::f64::consts::LN_2;
        for (d, dt_over_tc) in [0.25, 0.69, ln2].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(5200 + d as u64);
            let mut batch = gaussian_batch(LAW_CFG);
            batch.spawn(1000, &mut rng);
            let (mut reference, mut replay) = (batch.rates.clone(), rng.clone());
            for _ in 0..50 {
                let lambda = dt_over_tc * LAW_CFG.t_c / LAW_CFG.t_c;
                batch.advance_all(dt_over_tc * LAW_CFG.t_c, &mut rng);
                renegotiation_walk(&mut reference, lambda, &batch.draw, &mut replay);
            }
            assert_eq!(batch.rates, reference, "dt = {dt_over_tc} T_c");
            assert_eq!(rng, replay, "dt = {dt_over_tc} T_c: RNG end state");
        }
    }

    #[test]
    fn truncation_keeps_rates_nonnegative() {
        let mut rng = StdRng::seed_from_u64(7);
        // Heavier tail into zero: σ/μ = 0.5.
        let mut src = source(
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
        let model = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.3), 1.0);
        let mut rng = StdRng::seed_from_u64(100);
        let mut src = model.spawn(&mut rng);
        check_moments(src.as_mut(), 0.25, 150_000, 0.01, 0.01, 101);
    }

    #[test]
    fn general_rcbr_two_point_autocorrelation() {
        let model = RcbrModel::with_marginal(Marginal::two_point_with_moments(1.0, 0.3), 1.0);
        let mut rng = StdRng::seed_from_u64(102);
        let mut src = model.spawn(&mut rng);
        check_acf(src.as_mut(), 0.5, 300_000, &[1, 2, 4], 0.02, 103);
    }

    #[test]
    fn general_rcbr_matches_classic_for_gaussian_marginal() {
        let general = RcbrModel::with_marginal(Marginal::Gaussian { mean: 1.0, sd: 0.3 }, 2.0);
        let classic = RcbrModel::new(RcbrConfig {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 2.0,
            truncate_at_zero: true,
        });
        // One model, one batch: the paper's configuration is a marginal.
        assert_eq!(general, classic);
        assert_eq!(general.batch_key(), classic.batch_key());
        let untruncated = RcbrModel::new(RcbrConfig {
            truncate_at_zero: false,
            ..RcbrConfig::paper_default(2.0)
        });
        let normal = Marginal::Normal { mean: 1.0, sd: 0.3 };
        assert_eq!(untruncated.marginal(), normal);
        assert_ne!(untruncated.batch_key(), classic.batch_key());
        let mut rng = StdRng::seed_from_u64(104);
        let g = general.spawn(&mut rng);
        assert_eq!(g.autocorrelation(1.0), Some((-0.5f64).exp()));
    }

    #[test]
    fn on_off_moments() {
        // peak 2, on 1s, off 3s: activity 0.25, mean 0.5,
        // var = p(1-p)peak² = 0.25·0.75·4 = 0.75.
        let model = RcbrModel::on_off(2.0, 1.0, 3.0);
        let Marginal::TwoPoint { low, high, p_high } = model.marginal() else {
            panic!("an on–off flow has a two-point marginal");
        };
        assert_eq!((low, high), (0.0, 2.0));
        assert!((p_high - 0.25).abs() < 1e-12);
        assert!((model.mean() - 0.5).abs() < 1e-12);
        assert!((model.variance() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn on_off_empirical_moments() {
        let model = RcbrModel::on_off(2.0, 1.0, 3.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut src = RcbrSource::new(model, &mut rng);
        check_moments(&mut src, 0.2, 300_000, 0.01, 0.02, 12);
    }

    #[test]
    fn on_off_autocorrelation() {
        // λ + μ = 1/3 + 1 = 4/3 ⇒ ρ(τ) = e^{-4τ/3}.
        let model = RcbrModel::on_off(1.0, 1.0, 3.0);
        let mut rng = StdRng::seed_from_u64(13);
        let mut src = RcbrSource::new(model, &mut rng);
        assert!((src.autocorrelation(0.75).unwrap() - (-1.0f64).exp()).abs() < 1e-12);
        check_acf(&mut src, 0.25, 400_000, &[1, 2, 4], 0.02, 14);
    }

    #[test]
    fn states_visited_according_to_stationary_law() {
        let model = RcbrModel::on_off(1.0, 2.0, 2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut src = RcbrSource::new(model, &mut rng);
        let mut on_time = 0usize;
        let n = 200_000;
        for _ in 0..n {
            src.advance(0.1, &mut rng);
            if src.rate() == 1.0 {
                on_time += 1;
            }
        }
        let frac = on_time as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "on fraction {frac}");
    }

    #[test]
    fn zero_dt_advance_is_identity() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut src = source(cfg(), &mut rng);
        let r = src.rate();
        src.advance(0.0, &mut rng);
        assert_eq!(src.rate(), r);
    }
}
