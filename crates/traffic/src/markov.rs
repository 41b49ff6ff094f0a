//! K-state Markov-modulated fluid sources.
//!
//! Each flow is a continuous-time Markov chain over `K` states; state
//! `k` emits a constant rate `r_k`. The paper's convergence theorem
//! (Assumption B.6) explicitly covers Markov fluids — "the condition
//! holds if each individual flow is a Markov modulated fluid" — so these
//! sources exercise the theory beyond the RCBR/OU case. The classical
//! on–off voice model is provided as a convenience constructor.

use crate::batch::{BatchKey, FlowBatch, LaneStreams, LANE};
use crate::process::{RateProcess, SourceModel};
use mbac_num::linalg::{ctmc_stationary, Matrix};
use mbac_num::rng::{discrete, exponential};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Immutable description of a Markov fluid model, shared by all flows
/// spawned from it.
#[derive(Debug)]
pub struct MarkovFluidModel {
    /// Emission rate per state.
    rates: Vec<f64>,
    /// Stationary distribution `π`.
    stationary: Vec<f64>,
    /// Cached stationary mean.
    mean: f64,
    /// Cached stationary variance.
    variance: f64,
    /// Total exit rate per state (−Q_kk).
    exit_rates: Vec<f64>,
    /// Jump weights per origin state: its row of `Q`, diagonal zeroed.
    jump_weights: Vec<Vec<f64>>,
}

impl MarkovFluidModel {
    /// Builds a model from a generator matrix and per-state rates.
    ///
    /// # Panics
    /// Panics if the generator is not square, does not match the rate
    /// vector length, has rows that do not sum to ~0, has negative
    /// off-diagonal entries, or has no stationary distribution.
    pub fn new(generator: Matrix, rates: Vec<f64>) -> Arc<Self> {
        let k = generator.rows();
        assert_eq!(generator.cols(), k, "generator must be square");
        assert_eq!(rates.len(), k, "one emission rate per state");
        assert!(k >= 2, "need at least two states");
        for r in 0..k {
            let mut row_sum = 0.0;
            for c in 0..k {
                let v = generator.get(r, c);
                if r != c {
                    assert!(v >= 0.0, "off-diagonal Q[{r}][{c}] = {v} must be >= 0");
                }
                row_sum += v;
            }
            assert!(
                row_sum.abs() < 1e-9,
                "generator row {r} sums to {row_sum}, not 0"
            );
        }
        let stationary = ctmc_stationary(&generator).expect("generator has no stationary law");
        let mean: f64 = stationary.iter().zip(&rates).map(|(&p, &r)| p * r).sum();
        let variance: f64 = stationary
            .iter()
            .zip(&rates)
            .map(|(&p, &r)| p * (r - mean) * (r - mean))
            .sum();
        let exit_rates = (0..k).map(|i| -generator.get(i, i)).collect();
        let jump_weights = (0..k)
            .map(|s| {
                (0..k)
                    .map(|c| if c == s { 0.0 } else { generator.get(s, c) })
                    .collect()
            })
            .collect();
        Arc::new(MarkovFluidModel {
            rates,
            stationary,
            mean,
            variance,
            exit_rates,
            jump_weights,
        })
    }

    /// The classical on–off source: rate `peak` while on, 0 while off,
    /// exponential on-periods (mean `mean_on`) and off-periods
    /// (mean `mean_off`). Activity factor `mean_on/(mean_on+mean_off)`.
    pub fn on_off(peak: f64, mean_on: f64, mean_off: f64) -> Arc<Self> {
        assert!(peak > 0.0 && mean_on > 0.0 && mean_off > 0.0);
        let lambda = 1.0 / mean_off; // off -> on
        let mu = 1.0 / mean_on; // on -> off
        let q = Matrix::from_rows(2, 2, vec![-lambda, lambda, mu, -mu]);
        Self::new(q, vec![0.0, peak])
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.rates.len()
    }

    /// The stationary distribution `π`.
    pub fn stationary(&self) -> &[f64] {
        &self.stationary
    }

    /// The per-state emission rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Analytic autocorrelation for the *two-state* case:
    /// `ρ(τ) = e^{−(λ+μ)|τ|}`. Returns `None` for K > 2 (a closed form
    /// exists via the spectral decomposition of Q but is not needed).
    pub fn autocorrelation(&self, tau: f64) -> Option<f64> {
        if self.num_states() == 2 {
            let total = self.jump_weights[0][1] + self.jump_weights[1][0];
            Some((-total * tau.abs()).exp())
        } else {
            None
        }
    }

    /// A flow in the stationary law: its state and the residual
    /// sojourn there (memoryless, so again a full sojourn).
    fn start<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, f64) {
        let state = discrete(rng, &self.stationary);
        (state, self.sojourn(state, rng))
    }

    /// Advances one flow in `state` with `remaining` sojourn left by
    /// `dt`, jump by jump. The one statement of the law: the batch kernel
    /// and the boxed source both run it.
    #[inline]
    fn advance<R: Rng + ?Sized>(
        &self,
        state: &mut usize,
        remaining: &mut f64,
        dt: f64,
        rng: &mut R,
    ) {
        let mut left = dt;
        while left >= *remaining {
            left -= *remaining;
            *state = self.jump_from(*state, rng);
            *remaining = self.sojourn(*state, rng);
        }
        *remaining -= left;
    }

    fn jump_from<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> usize {
        discrete(rng, &self.jump_weights[state])
    }

    /// A sojourn in `state`: `Exp(−Q_kk)`, infinite in an absorbing state.
    fn sojourn<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> f64 {
        let rate = self.exit_rates[state];
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            exponential(rng, 1.0 / rate)
        }
    }
}

/// Factory wrapper so `Arc<MarkovFluidModel>` can serve as a
/// [`SourceModel`].
#[derive(Debug, Clone)]
pub struct MarkovFluidFactory {
    model: Arc<MarkovFluidModel>,
}

impl MarkovFluidFactory {
    /// Wraps a shared model.
    pub fn new(model: Arc<MarkovFluidModel>) -> Self {
        MarkovFluidFactory { model }
    }
}

impl SourceModel for MarkovFluidFactory {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        Box::new(MarkovFluidSource::new(self.model.clone(), rng))
    }

    fn mean(&self) -> f64 {
        self.model.mean
    }

    fn variance(&self) -> f64 {
        self.model.variance
    }

    fn batch_key(&self) -> Option<BatchKey> {
        // Flows can share a batch exactly when they share the generator;
        // the batch holds an `Arc` to the model, so the address stays
        // valid (and un-reused) for the batch's lifetime.
        Some(BatchKey::Markov(Arc::as_ptr(&self.model) as usize))
    }

    fn new_batch(&self) -> Option<Box<dyn FlowBatch>> {
        Some(Box::new(MarkovFluidBatch::new(self.model.clone())))
    }
}

/// Struct-of-arrays batch of Markov fluid flows sharing one generator:
/// per-flow state in contiguous arrays, advanced by the model's law.
pub struct MarkovFluidBatch {
    model: Arc<MarkovFluidModel>,
    /// Modulation state per flow.
    states: Vec<usize>,
    /// Residual sojourn time per flow.
    remaining: Vec<f64>,
    /// Cached emission rate per flow.
    rates: Vec<f64>,
    /// RNG streams of lanes 1, 2, … (see [`crate::batch`], "Lanes").
    lanes: LaneStreams,
}

impl MarkovFluidBatch {
    /// Creates an empty batch over a shared model.
    pub fn new(model: Arc<MarkovFluidModel>) -> Self {
        MarkovFluidBatch {
            model,
            states: Vec::new(),
            remaining: Vec::new(),
            rates: Vec::new(),
            lanes: LaneStreams::default(),
        }
    }
}

impl FlowBatch for MarkovFluidBatch {
    fn len(&self) -> usize {
        self.states.len()
    }

    fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
        assert!(dt >= 0.0);
        let model = &self.model;
        // A jump and a sojourn per transition, at the stationary rate.
        let n = self.states.len() as f64;
        let draws = || {
            let exits = model.stationary.iter().zip(&model.exit_rates);
            2.0 * n * dt * exits.map(|(p, e)| p * e).sum::<f64>()
        };
        let lanes = self
            .states
            .chunks_mut(LANE)
            .zip(self.remaining.chunks_mut(LANE))
            .zip(self.rates.chunks_mut(LANE));
        let advance =
            |((states, remaining), rates): &mut ((&mut [usize], &mut [f64]), &mut [f64]),
             rng: &mut StdRng| {
                // Lock-step slice iteration: no bounds checks in the hot loop.
                for ((state, rem), rate) in states
                    .iter_mut()
                    .zip(remaining.iter_mut())
                    .zip(rates.iter_mut())
                {
                    model.advance(state, rem, dt, rng);
                    *rate = model.rates[*state];
                }
            };
        self.lanes.advance(rng, lanes, draws, advance);
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn spawn(&mut self, n: usize, rng: &mut StdRng) {
        // Same draws as `n` calls of `MarkovFluidSource::reset`, on a
        // local stream (see `FlowBatch::spawn`).
        let mut local = rng.clone();
        self.states.reserve(n);
        self.remaining.reserve(n);
        self.rates.reserve(n);
        for _ in 0..n {
            let (state, remaining) = self.model.start(&mut local);
            self.states.push(state);
            self.remaining.push(remaining);
            self.rates.push(self.model.rates[state]);
        }
        *rng = local;
    }

    fn swap_remove(&mut self, i: usize) {
        self.states.swap_remove(i);
        self.remaining.swap_remove(i);
        self.rates.swap_remove(i);
    }
}

/// One Markov fluid flow.
#[derive(Debug, Clone)]
pub struct MarkovFluidSource {
    model: Arc<MarkovFluidModel>,
    state: usize,
    /// Residual sojourn time in the current state.
    remaining: f64,
}

impl MarkovFluidSource {
    /// Creates a flow with stationary initial state.
    pub fn new(model: Arc<MarkovFluidModel>, rng: &mut dyn RngCore) -> Self {
        let mut s = MarkovFluidSource {
            model,
            state: 0,
            remaining: 0.0,
        };
        s.reset(rng);
        s
    }

    /// The current modulation state.
    pub fn state(&self) -> usize {
        self.state
    }
}

impl RateProcess for MarkovFluidSource {
    fn rate(&self) -> f64 {
        self.model.rates[self.state]
    }

    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore) {
        assert!(dt >= 0.0);
        self.model
            .advance(&mut self.state, &mut self.remaining, dt, rng);
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        (self.state, self.remaining) = self.model.start(rng);
    }

    fn mean(&self) -> f64 {
        self.model.mean
    }

    fn variance(&self) -> f64 {
        self.model.variance
    }

    fn autocorrelation(&self, tau: f64) -> Option<f64> {
        self.model.autocorrelation(tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::test_util::{check_acf, check_moments};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn on_off_moments() {
        // peak 2, on 1s, off 3s: activity 0.25, mean 0.5,
        // var = p(1-p)peak² = 0.25·0.75·4 = 0.75.
        let model = MarkovFluidModel::on_off(2.0, 1.0, 3.0);
        assert!((model.stationary()[1] - 0.25).abs() < 1e-12);
        let f = MarkovFluidFactory::new(model);
        assert!((f.mean() - 0.5).abs() < 1e-12);
        assert!((f.variance() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn on_off_empirical_moments() {
        let model = MarkovFluidModel::on_off(2.0, 1.0, 3.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut src = MarkovFluidSource::new(model, &mut rng);
        check_moments(&mut src, 0.2, 300_000, 0.01, 0.02, 12);
    }

    #[test]
    fn on_off_autocorrelation() {
        // λ + μ = 1/3 + 1 = 4/3 ⇒ ρ(τ) = e^{-4τ/3}.
        let model = MarkovFluidModel::on_off(1.0, 1.0, 3.0);
        assert!((model.autocorrelation(0.75).unwrap() - (-1.0f64).exp()).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(13);
        let mut src = MarkovFluidSource::new(model, &mut rng);
        check_acf(&mut src, 0.25, 400_000, &[1, 2, 4], 0.02, 14);
    }

    #[test]
    fn three_state_video_model() {
        // Low/medium/high activity video: birth-death chain.
        let q = Matrix::from_rows(3, 3, vec![-0.5, 0.5, 0.0, 0.25, -0.75, 0.5, 0.0, 0.5, -0.5]);
        let model = MarkovFluidModel::new(q, vec![1.0, 3.0, 6.0]);
        let pi = model.stationary().to_vec();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mean_direct: f64 = pi.iter().zip(model.rates()).map(|(&p, &r)| p * r).sum();
        let mut rng = StdRng::seed_from_u64(15);
        let mut src = MarkovFluidSource::new(model, &mut rng);
        check_moments(&mut src, 0.5, 200_000, 0.05, 0.2, 16);
        assert!((src.mean() - mean_direct).abs() < 1e-12);
        assert!(src.autocorrelation(1.0).is_none(), "no closed ACF for K=3");
    }

    #[test]
    fn states_visited_according_to_stationary_law() {
        let model = MarkovFluidModel::on_off(1.0, 2.0, 2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut src = MarkovFluidSource::new(model, &mut rng);
        let mut on_time = 0usize;
        let n = 200_000;
        for _ in 0..n {
            src.advance(0.1, &mut rng);
            if src.state() == 1 {
                on_time += 1;
            }
        }
        let frac = on_time as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "on fraction {frac}");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_generator_rows() {
        let q = Matrix::from_rows(2, 2, vec![-1.0, 0.5, 1.0, -1.0]);
        MarkovFluidModel::new(q, vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_off_diagonal() {
        let q = Matrix::from_rows(2, 2, vec![1.0, -1.0, 1.0, -1.0]);
        MarkovFluidModel::new(q, vec![0.0, 1.0]);
    }
}
