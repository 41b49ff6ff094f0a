//! The [`RateProcess`] abstraction: a stationary stochastic bandwidth
//! process, advanced in continuous time by the simulator.
//!
//! Every traffic model in this crate implements `RateProcess`; the
//! simulator holds one instance per admitted flow. Processes are
//! object-safe (the simulator stores `Box<dyn RateProcess>`), take an
//! explicit RNG on every stochastic step for reproducibility, and report
//! their analytic moments so that perfect-knowledge controllers and
//! theory predictions can be computed without estimation.

use rand::RngCore;

/// A stationary bandwidth process `X(t)` for one flow.
pub trait RateProcess: Send {
    /// The instantaneous bandwidth at the process's current internal
    /// time. Constant between calls to [`RateProcess::advance`].
    fn rate(&self) -> f64;

    /// Advances internal time by `dt > 0`, resampling state as the
    /// model requires.
    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore);

    /// Resamples the state from the stationary distribution (used when
    /// a fresh flow is admitted mid-simulation).
    fn reset(&mut self, rng: &mut dyn RngCore);

    /// The true stationary mean `μ`.
    fn mean(&self) -> f64;

    /// The true stationary variance `σ²`.
    fn variance(&self) -> f64;

    /// The analytic autocorrelation `ρ(τ)` at lag `τ`, if the model has
    /// a closed form (`None` otherwise — e.g. trace-driven sources).
    fn autocorrelation(&self, tau: f64) -> Option<f64>;

    /// `Some(T_c)` if an advance by `dt` renegotiates the process with
    /// probability `1 − e^{−dt/T_c}` — a [`RateProcess::reset`] — and
    /// otherwise leaves it alone, as the RCBR sources do
    /// ([`crate::rcbr`], "The advance rule"). A
    /// [`crate::batch::DynBatch`] thins each run of consecutive flows
    /// with equal scale in one pass, consuming the RNG as the batched
    /// kernel does. `None` (the default): advance one by one.
    fn thinning_scale(&self) -> Option<f64> {
        None
    }
}

/// A factory that spawns independent per-flow processes; the simulator
/// uses one model for all flows of a class.
pub trait SourceModel: Send + Sync {
    /// Creates a new, independently-initialized flow process.
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess>;

    /// The true per-flow mean of spawned processes.
    fn mean(&self) -> f64;

    /// The true per-flow variance of spawned processes.
    fn variance(&self) -> f64;

    /// Standard deviation convenience.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// A structural key identifying which flows this model's spawns can
    /// share a batched kernel with (see [`crate::batch`]). `None` means
    /// the model has no batched kernel and its flows fall back to the
    /// boxed-process path.
    fn batch_key(&self) -> Option<crate::batch::BatchKey> {
        None
    }

    /// Creates an empty struct-of-arrays batch for this model's flows.
    /// Must return `Some` exactly when [`SourceModel::batch_key`] does,
    /// and the batch's per-flow draws must consume the RNG identically
    /// to [`SourceModel::spawn`] / [`RateProcess::advance`].
    fn new_batch(&self) -> Option<Box<dyn crate::batch::FlowBatch>> {
        None
    }
}

/// The model `M` points at with its batched kernel hidden, so a flow
/// table keeps its flows on the boxed [`crate::batch::DynBatch`] path:
/// the reference the kernels are checked against, to the same bits.
pub struct Unbatched<M>(pub M);

impl<M: std::ops::Deref<Target: SourceModel> + Send + Sync> SourceModel for Unbatched<M> {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        self.0.spawn(rng)
    }

    fn mean(&self) -> f64 {
        self.0.mean()
    }

    fn variance(&self) -> f64 {
        self.0.variance()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::RateProcess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Empirically checks the stationary mean/variance of a process by
    /// time-averaging over many correlation times.
    pub fn check_moments(
        proc: &mut dyn RateProcess,
        dt: f64,
        steps: usize,
        tol_mean: f64,
        tol_var: f64,
        seed: u64,
    ) {
        let (want_mean, want_var) = (proc.mean(), proc.variance());
        check_moments_fn(
            |dt, rng| {
                proc.advance(dt, rng);
                proc.rate()
            },
            dt,
            steps,
            want_mean,
            want_var,
            tol_mean,
            tol_var,
            seed,
        );
    }

    /// Closure form of [`check_moments`]: `step(dt, rng)` advances the
    /// sampled object by `dt` and returns its rate. Lets the batched
    /// kernels (whose `advance_all` takes a concrete [`StdRng`]) run
    /// through the same harness as boxed [`RateProcess`]es.
    #[allow(clippy::too_many_arguments)]
    pub fn check_moments_fn(
        mut step: impl FnMut(f64, &mut StdRng) -> f64,
        dt: f64,
        steps: usize,
        want_mean: f64,
        want_var: f64,
        tol_mean: f64,
        tol_var: f64,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = mbac_num::RunningStats::new();
        for _ in 0..steps {
            stats.push(step(dt, &mut rng));
        }
        assert!(
            (stats.mean() - want_mean).abs() < tol_mean,
            "mean: got {}, want {want_mean}",
            stats.mean()
        );
        assert!(
            (stats.variance() - want_var).abs() < tol_var,
            "variance: got {}, want {want_var}",
            stats.variance()
        );
    }

    /// Empirically checks the autocorrelation at the given lags against
    /// the process's analytic form.
    pub fn check_acf(
        proc: &mut dyn RateProcess,
        dt: f64,
        steps: usize,
        lags: &[usize],
        tol: f64,
        seed: u64,
    ) {
        let analytic: Vec<f64> = lags
            .iter()
            .map(|&lag| {
                proc.autocorrelation(lag as f64 * dt)
                    .expect("analytic ACF required")
            })
            .collect();
        check_acf_fn(
            |dt, rng| {
                proc.advance(dt, rng);
                proc.rate()
            },
            dt,
            steps,
            lags,
            &analytic,
            tol,
            seed,
        );
    }

    /// Closure form of [`check_acf`]; `want[i]` is the analytic ACF at
    /// `lags[i] * dt`.
    #[allow(clippy::too_many_arguments)]
    pub fn check_acf_fn(
        mut step: impl FnMut(f64, &mut StdRng) -> f64,
        dt: f64,
        steps: usize,
        lags: &[usize],
        want: &[f64],
        tol: f64,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let series: Vec<f64> = (0..steps).map(|_| step(dt, &mut rng)).collect();
        let max_lag = *lags.iter().max().unwrap();
        let acf = mbac_num::acf(&series, max_lag);
        for (&lag, &want) in lags.iter().zip(want) {
            let tau = lag as f64 * dt;
            assert!(
                (acf[lag] - want).abs() < tol,
                "acf at lag {lag} (τ={tau}): got {}, want {want}",
                acf[lag]
            );
        }
    }
}
