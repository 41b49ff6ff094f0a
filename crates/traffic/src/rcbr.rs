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
//! not flip a coin per flow with a draw of its own; it reads the i.i.d.
//! Bernoulli(`p`) sequence over the slots one of three ways, by how
//! rare its rarer side is.
//!
//! While `p < 1/8` (`λ < −ln(7/8) ≈ 0.1335`, a Poisson load's
//! per-arrival step) it jumps from one renegotiating flow to the next
//! over a Geometric(`p`) gap:
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
//! While `p > 7/8` (`λ > ln 8`, only impulsive observations step this
//! far) most flows renegotiate, so it walks the flows that keep their
//! rate instead: each step renegotiates the next run of `R` flows in
//! slot order and skips one keeper, where
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
//! In the band between, `1/8 ≤ p ≤ 7/8` (every tick of Fig. 5's loads,
//! `λ = 0.25`), neither side is rare and both walks would pay an
//! exponential and a divide for every eighth flow or more. There it
//! takes the slots 64 at a time and decides their coins together:
//! slot `j`'s uniform `U_j` is bit `j` of successive 64-bit words, most
//! significant bit first, and `U_j < p` is decided at the first bit
//! where `U_j` and `p` differ. `p ≥ 1/8` has no mantissa bit below
//! `2⁻⁵⁵`, so its 64-bit fixed point `P = p·2⁶⁴` is exact and a slot
//! whose 64 bits all equal `P`'s keeps its rate (`U_j ≥ p`):
//!
//! ```text
//! open = the block's slots;  hits = ∅
//! for k in 0..64 while open ≠ ∅ {
//!     w = next_u64()                 // bit j: U_j's bit k
//!     if P's bit k is 1 { hits ∪= open ∩ ¬w;  open ∩= w }   // U_j < p
//!     else              {                     open ∩= ¬w }  // U_j > p
//! }
//! rate[j] = draw() for j in hits, ascending
//! ```
//!
//! Each word halves the open slots, so a block of 64 costs about
//! `log₂ 64 + 1.3 ≈ 7.3` words whatever `p`, plus a rate draw per hit.
//!
//! Each walk is the same i.i.d. Bernoulli(`p`) sequence over the slots:
//! a Geometric gap of keepers before each renegotiation, a Geometric
//! run of renegotiations before each keeper, or the comparison of each
//! slot's uniform with `p`. So an advance costs `n·p` rate draws plus
//! `n·min(p, 1 − p)` gap draws outside the band (and at most one that
//! lands past the end — one gap draw, not `n`, at Prop. 3.3's `50 T_c`)
//! or about `n/8` words in it. The band's edges, `p = 1/8` and `7/8`,
//! are about where the coins cost what the rarer side's walk does
//! (DESIGN §8.1). `μ` is formed through `ln_1p`
//! because `1 − e^{−λ}` rounds to 1 from `λ ≈ 37` on, which would make
//! it zero; this way it stays positive out to `λ ≈ 745`. Beyond that,
//! and at `λ = ∞`, `μ = 0`: every flow renegotiates and no gap is drawn
//! (an `E = 0` would otherwise give `0/0`, a run of 0).
//!
//! A boxed source runs the same rule over a batch of one: below the
//! band it draws one `E` and renegotiates iff `⌊E/λ⌋ = 0`, above it iff
//! `⌊E/μ⌋ ≥ 1`, in it iff its one coin comes up (about two words);
//! a `DynBatch` runs it over each run of consecutive RCBR flows with
//! equal `T_c` ([`RateProcess::thinning_scale`]), so the two engines
//! consume the RNG identically. A batch larger than one lane runs the
//! rule once per lane, on the lane's own stream ([`crate::batch`],
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
//! rate independently with probability `e^{−λ}` under any of the three.
//! `tests::advance_law_matches_path_faithful_reference` holds the
//! walks and the path-by-path loop side by side, on both sides of
//! each band edge.
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
//! sampler and every other marginal through [`Marginal::sample`]'s draw,
//! inlined on the kernel's generator; both consume the RNG as the boxed
//! source does.

use crate::batch::{BatchKey, FlowBatch, LaneStreams, LANE};
use crate::marginal::Marginal;
use crate::process::{RateProcess, SourceModel};
use mbac_num::rng::{ExpSampler, NormalSampler};
use rand::rngs::StdRng;
use rand::RngCore;

/// The band of `λ` in which [`thin`] decides the slots' coins 64 at a
/// time: `p = 1 − e^{−λ}` from `1/8` (`λ = −ln(7/8)`) to `7/8`
/// (`λ = ln 8`), both ends included (module docs). Below it the
/// renegotiations are rarer than one slot in eight and the gap walk
/// pays less; above it the keepers are.
const COIN_BAND: (f64, f64) = (0.133_531_392_624_522_63, 2.079_441_541_679_835_7);

/// The one thinning walk: picks each of `len` slots independently with
/// probability `p = 1 − e^{−dt/t_c}` — the slots whose exponential clock
/// of mean `t_c` rings within `dt` — and calls `renegotiate(i, rng)` for
/// each, in ascending order. Below `COIN_BAND` (`p < 1/8`) it draws one
/// `Exp(1)` per pick, above it (`p > 7/8`) one per slot passed over, each
/// plus at most one that lands past the end; inside it draws `u64` words,
/// 64 slots' coins at a time, until each coin is decided (module docs,
/// "The advance rule"). A `λ` of zero — `dt = 0`, or a subnormal `dt`
/// that underflows — draws nothing, and so does a `μ` of zero (`λ ≳ 745`,
/// or infinite) beyond the picks. It is the RCBR advance rule behind the
/// batch kernel, [`crate::batch::DynBatch`]'s RCBR runs and a boxed
/// source's `advance` (a batch of one), and it picks the flows of a
/// population with exponential holding times that leave in a tick
/// (`mbac_sim`'s serve generator).
///
/// The generator `G` comes in by value and goes back out — a local
/// `StdRng` from the kernel, a `&mut` one from the other two — so that
/// handing it to the out-of-line coin and keeper walks takes no address
/// of the kernel's copy, which stays in registers (`mbac_num::rng`, "The
/// register rule").
#[inline(always)]
pub fn thin<G: RngCore>(
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
    if lambda >= COIN_BAND.0 {
        // Every tick of Fig. 5's loads lands in the band; only impulsive
        // observations step past it.
        if lambda <= COIN_BAND.1 {
            return walk_coins(len, lambda, rng, renegotiate);
        }
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

/// [`thin`] inside `COIN_BAND`: decides the coins of slots `64b …
/// 64b + 63` from shared words, then renegotiates the block's hits in
/// ascending order, block after block (module docs). Out of line, as
/// the keeper walk is: the gap walk stays alone in the caller's loop.
#[inline(never)]
fn walk_coins<G: RngCore>(
    len: usize,
    lambda: f64,
    mut rng: G,
    mut renegotiate: impl FnMut(usize, &mut G),
) -> G {
    let p = coin_threshold(lambda);
    for base in (0..len).step_by(64) {
        let mut open = u64::MAX >> (64 - (len - base).min(64));
        let mut hits = 0;
        let mut bit = 63;
        while open != 0 {
            // Slot j's next bit is bit j of `w`; `ones` is all ones
            // where `p`'s bit is 1. A slot whose bit is below `p`'s
            // renegotiates, above it keeps, equal stays open.
            let w = rng.next_u64();
            let ones = ((p >> bit) & 1).wrapping_neg();
            hits |= open & !w & ones;
            open &= w ^ !ones;
            if bit == 0 {
                // All 64 bits equal to `p`'s, and `p` has no bit past
                // the 64th, so `U ≥ p`: the slot keeps.
                break;
            }
            bit -= 1;
        }
        while hits != 0 {
            renegotiate(base + hits.trailing_zeros() as usize, &mut rng);
            hits &= hits - 1;
        }
    }
    rng
}

/// `p = 1 − e^{−λ}` as the 64-bit fixed point `p·2⁶⁴`, exact for any
/// `p` of at least `2⁻¹²` (no mantissa bit below `2⁻⁶⁴`), so for all of
/// `COIN_BAND`.
#[inline]
fn coin_threshold(lambda: f64) -> u64 {
    (-(-lambda).exp_m1() * 18_446_744_073_709_551_616.0) as u64
}

/// Random draws [`thin`] spends a slot at `λ` beyond the renegotiations'
/// rates: `min(p, 1 − p)` gaps outside `COIN_BAND`, about `7.3/64`
/// words in it. An estimate of an advance's cost, for the lanes'
/// hand-off; it never moves a bit.
pub(crate) fn draws_per_slot(lambda: f64) -> f64 {
    if (COIN_BAND.0..=COIN_BAND.1).contains(&lambda) {
        return 0.125;
    }
    let p = -(-lambda).exp_m1();
    p.min(1.0 - p)
}

/// [`thin`] past `COIN_BAND`: renegotiates runs of `⌊E/μ⌋` flows,
/// each followed by one keeper (module docs). Out of line, behind a
/// cold branch: inlined beside the renegotiation walk a Poisson load
/// takes, it cost the tick workloads (`fig5_sweep`, `poisson_blocking`)
/// a few per cent.
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
    #[inline(always)]
    fn draw(&self, rng: &mut StdRng) -> f64 {
        self.sample_from(rng)
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
        // A rate per renegotiation, plus what the walk spends a slot.
        let n = self.rates.len() as f64;
        let draws = || {
            let lambda = dt / t_c;
            n * (-(-lambda).exp_m1() + draws_per_slot(lambda))
        };
        let lanes = self.rates.chunks_mut(LANE);
        self.lanes.advance(rng, lanes, draws, |rates, rng| {
            // On a copy of the lane's stream (`thin`'s docs). `always`:
            // `thin` calls this from three walks, and a closure with
            // several call sites is otherwise left out of line — a call
            // per renegotiation on every tick, 12 % of `fig5_sweep`.
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
    /// are marginal draws, each within a 4.5σ band. 0.13 and 0.14 `T_c`
    /// straddle the gap walk's edge of the coin band, 2.07 and 2.09 its
    /// keeper walk's edge (`ln 8`), 0.69 and 0.70 `ln 2` inside it; 40
    /// `T_c` is where `1 − e^{−λ}` has rounded to 1 and only `ln_1p`
    /// keeps `μ`.
    #[test]
    fn advance_law_matches_path_faithful_reference() {
        const N: usize = 100_000;
        let steps = [
            0.01, 0.05, 0.25, 1.0, 5.0, 50.0, 0.69, 0.70, 40.0, 0.13, 0.14, 2.07, 2.09,
        ];
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
    /// the Geometric gaps neither cluster nor repel, and the coins of
    /// one block, which share their words, are independent too. The
    /// pairs step inside the coin band, across its edges and past
    /// `ln 8`.
    #[test]
    fn renegotiations_are_independent_across_advances_and_neighbours() {
        const N: usize = 100_000;
        let pairs = [
            (0.05f64, 0.25f64),
            (1.0, 0.01),
            (0.25, 5.0),
            (0.14, 2.07),
            (2.09, 0.13),
            (0.5, 1.5),
            (3.0, 0.7),
        ];
        for (d, (a, b)) in pairs.into_iter().enumerate() {
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
    /// shows at the short steps, where one gap spans many slots, a run
    /// of the keeper walk cut the same way at 3 and 5 `T_c`, and a coin
    /// read from the wrong bit or a block cut short at 0.25 … 2 `T_c`
    /// (the coin band), over a part block of 37 slots and over 131, two
    /// blocks of 64 and three slots more.
    #[test]
    fn no_slot_is_favoured() {
        const M: usize = 20_000;
        let steps = [0.01f64, 0.25, 5.0, 0.9, 2.0, 0.14, 2.07, 3.0];
        for (d, (k, dt_over_tc)) in [37, 131]
            .into_iter()
            .flat_map(|k| steps.map(|dt| (k, dt)))
            .enumerate()
        {
            let p = 1.0 - (-dt_over_tc).exp();
            let mut rng = StdRng::seed_from_u64(3000 + d as u64);
            let mut batch = gaussian_batch(LAW_CFG);
            batch.spawn(k, &mut rng);
            let mut hits = vec![0usize; k];
            for _ in 0..M {
                let before = batch.rates.clone();
                batch.advance_all(dt_over_tc * LAW_CFG.t_c, &mut rng);
                for (h, changed) in hits.iter_mut().zip(changed(&before, &batch.rates)) {
                    *h += changed as usize;
                }
            }
            let (mean, var) = (M as f64 * p, M as f64 * p * (1.0 - p));
            let chi2: f64 = hits.iter().map(|&h| (h as f64 - mean).powi(2) / var).sum();
            let k = k as f64;
            assert_near(
                &format!("{k} slots, dt = {dt_over_tc} T_c, hits {hits:?}"),
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

    /// The renegotiation walk alone, as a reference: the stream below
    /// the coin band must equal it draw for draw.
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

    /// The keeper walk alone, as a reference: the stream past the coin
    /// band must equal it draw for draw.
    fn keeper_walk(rates: &mut [f64], lambda: f64, draw: &GaussianDraw, rng: &mut StdRng) {
        let exp = ExpSampler::get();
        let mu = -(-(-lambda).exp()).ln_1p();
        let mut i = 0;
        while i < rates.len() {
            let run = (exp.sample(rng) / mu) as usize;
            for rate in rates.iter_mut().skip(i).take(run) {
                *rate = draw.draw(rng);
            }
            i = i.saturating_add(run).saturating_add(1);
        }
    }

    /// The coin walk, slot by slot, as a reference: a block of 64 slots
    /// draws words until each slot's bits — bit `j` of each word for
    /// slot `j` — have differed from `p`'s (or all 64 matched, a
    /// keeper), then a rate per hit in slot order.
    fn coin_walk(rates: &mut [f64], lambda: f64, draw: &GaussianDraw, rng: &mut StdRng) {
        let p = -(-lambda).exp_m1() * 2f64.powi(64);
        let bits = p as u64;
        assert_eq!(bits as f64, p, "p has a bit below 2^-64");
        for block in rates.chunks_mut(64) {
            let mut hit: Vec<Option<bool>> = vec![None; block.len()];
            let mut k = 0;
            while k < 64 && hit.contains(&None) {
                let (w, p_bit) = (rng.next_u64(), (bits >> (63 - k)) & 1);
                for (j, h) in hit.iter_mut().enumerate() {
                    let u_bit = (w >> j) & 1;
                    if h.is_none() && u_bit != p_bit {
                        *h = Some(u_bit < p_bit);
                    }
                }
                k += 1;
            }
            for (rate, h) in block.iter_mut().zip(hit) {
                if h == Some(true) {
                    *rate = draw.draw(rng);
                }
            }
        }
    }

    /// What an advance draws. At 50 `T_c` an `n`-flow batch uses exactly
    /// one gap draw plus `n` rate draws, and a boxed source one gap and
    /// one rate (hand replays, RNG end state included). Below the coin
    /// band (0.01, 0.1 and its edge's last `λ`) the stream is the
    /// renegotiation walk's and past it (its edge's first `λ` past
    /// `ln 8`, and 3) the keeper walk's, bit for bit; in it (both edges,
    /// 0.25 and `ln 2`) it is the words each block of 64 slots consumes
    /// until every coin is decided, plus one rate per hit, over batches
    /// of 1, 63, 64, 65 and 1000 flows.
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

        type Walk = fn(&mut [f64], f64, &GaussianDraw, &mut StdRng);
        let (lo, hi) = COIN_BAND;
        let cases: [(f64, Walk, &[usize]); 10] = [
            (0.01, renegotiation_walk, &[1000]),
            (0.1, renegotiation_walk, &[1000]),
            (lo.next_down(), renegotiation_walk, &[1000]),
            (lo, coin_walk, &[1, 63, 64, 65, 1000]),
            (0.25, coin_walk, &[1, 63, 64, 65, 1000]),
            (std::f64::consts::LN_2, coin_walk, &[1, 63, 64, 65, 1000]),
            (hi, coin_walk, &[1, 63, 64, 65, 1000]),
            (hi.next_up(), keeper_walk, &[1000]),
            (3.0, keeper_walk, &[1000]),
            (3.0, keeper_walk, &[1]),
        ];
        for (d, (lambda, walk, sizes)) in cases.into_iter().enumerate() {
            for &n in sizes {
                let mut rng = StdRng::seed_from_u64(5200 + 10 * d as u64 + n as u64);
                let mut batch = gaussian_batch(LAW_CFG);
                batch.spawn(n, &mut rng);
                let (mut reference, mut replay) = (batch.rates.clone(), rng.clone());
                for _ in 0..50 {
                    batch.advance_all(lambda * LAW_CFG.t_c, &mut rng);
                    walk(&mut reference, lambda, &batch.draw, &mut replay);
                }
                assert_eq!(batch.rates, reference, "λ = {lambda}, n = {n}");
                assert_eq!(rng, replay, "λ = {lambda}, n = {n}: RNG end state");
            }
        }
    }

    /// Hands out the words it was given, in order, and nothing else.
    struct Scripted(std::collections::VecDeque<u64>);

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.pop_front().expect("drew past the script")
        }

        fn next_u32(&mut self) -> u32 {
            unreachable!("the coin walk draws words")
        }

        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("the coin walk draws words")
        }
    }

    /// The coin comparison is exact. Each slot's uniform is scripted
    /// whole (64 bits, laid into the words as the walk reads them), and
    /// a slot renegotiates iff its uniform is below `p`'s 64-bit fixed
    /// point: each block holds one slot equal to it, which keeps its
    /// rate, and one a unit below, which renegotiates (a block of one
    /// slot holds either in turn). A block draws exactly the words
    /// its last-decided slot needs — all 64 where a slot equals `p` —
    /// and the script must be used up, so a word too few or too many
    /// fails. Blocks of 1, 63, 64, 65 and `LANE` slots, at both band
    /// edges.
    #[test]
    fn the_coin_comparison_is_exact() {
        let mut rng = StdRng::seed_from_u64(5300);
        for lambda in [COIN_BAND.0, COIN_BAND.1] {
            // p·2⁶⁴, formed here rather than by the walk's own helper.
            let p = (-(-lambda).exp_m1() * 2f64.powi(64)) as u64;
            for len in [1, 63, 64, 65, LANE] {
                for equal_first in [true, false] {
                    // Slot 0 of every block equal to p and its last a unit
                    // below (or the other way round), the rest at random.
                    let mut uniform: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                    for block in uniform.chunks_mut(64) {
                        let last = block.len() - 1;
                        let (eq, below) = if equal_first { (0, last) } else { (last, 0) };
                        block[below] = p - 1;
                        if last > 0 || equal_first {
                            block[eq] = p;
                        }
                    }
                    let mut script = std::collections::VecDeque::new();
                    for block in uniform.chunks(64) {
                        let depth = |&u: &u64| ((u ^ p).leading_zeros() as usize + 1).min(64);
                        let words = block.iter().map(depth).max().unwrap();
                        script.extend((0..words).map(|k| {
                            let bits = block.iter().map(|u| (u >> (63 - k)) & 1);
                            bits.enumerate().fold(0, |w, (j, b)| w | b << j)
                        }));
                    }
                    let mut hits = Vec::new();
                    let left = thin(
                        len,
                        lambda,
                        1.0,
                        ExpSampler::get(),
                        Scripted(script),
                        |i, _| hits.push(i),
                    );
                    let want: Vec<usize> = (0..len).filter(|&i| uniform[i] < p).collect();
                    let at = format!("λ = {lambda}, {len} slots");
                    assert_eq!(hits, want, "{at}");
                    assert!(left.0.is_empty(), "{at}: {} words left", left.0.len());
                }
            }
        }
    }

    /// The band's edges are `p = 1/8` and `p = 7/8`, and `p`'s 64-bit
    /// fixed point is exact at both.
    #[test]
    fn the_coin_band_runs_from_one_eighth_to_seven_eighths() {
        assert_eq!(COIN_BAND.0, -(-0.125f64).ln_1p());
        assert_eq!(COIN_BAND.1, -(-0.875f64).ln_1p());
        for lambda in [COIN_BAND.0, COIN_BAND.1] {
            let p = -(-lambda).exp_m1();
            let fixed = p * 2f64.powi(64);
            assert_eq!(fixed.fract(), 0.0, "p = {p} has a bit below 2^-64");
            assert_eq!(coin_threshold(lambda), fixed as u64, "λ = {lambda}");
            assert!(
                (8.0 * p - (8.0 * p).round()).abs() < 1e-15,
                "p = {p} at λ = {lambda}"
            );
        }
    }

    /// The kernel and the boxed path (`Unbatched`, a `DynBatch` of boxed
    /// sources) draw the same bits in the coin band, across its edges
    /// and past `ln 8`, over batches of one lane and of two.
    #[test]
    fn kernel_and_boxed_thin_alike() {
        let model = RcbrModel::new(LAW_CFG);
        let hidden = crate::process::Unbatched(&model);
        let steps = [0.13, 0.14, 0.25, 0.7, 2.07, 2.09, 3.0, 0.01, 50.0];
        for n in [1, 63, 64, 65, 200, LANE + 65] {
            let run = |model: &dyn SourceModel| {
                let mut rng = StdRng::seed_from_u64(5400 + n as u64);
                let mut batch = model
                    .new_batch()
                    .unwrap_or_else(|| Box::new(crate::batch::DynBatch::new()));
                if model.batch_key().is_some() {
                    batch.spawn(n, &mut rng);
                } else {
                    for _ in 0..n {
                        let flow = model.spawn(&mut rng);
                        batch.try_push_boxed(flow).ok().expect("DynBatch adopts");
                    }
                }
                let mut rates = vec![];
                for dt in steps {
                    batch.advance_all(dt * LAW_CFG.t_c, &mut rng);
                    rates.extend_from_slice(batch.rates());
                }
                (rates, rng.next_u64())
            };
            assert!(run(&model) == run(&hidden), "{n} flows");
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
