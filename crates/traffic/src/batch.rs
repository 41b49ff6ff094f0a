//! Batched struct-of-arrays (SoA) flow engines.
//!
//! The simulator's hot path advances `N` flows over millions of ticks.
//! With one `Box<dyn RateProcess>` per flow, every tick costs `N`
//! virtual `advance` calls plus `N` more virtual `rate()` calls per
//! snapshot, and the per-flow state is scattered across the heap — the
//! loop can neither vectorize nor stay in cache. A [`FlowBatch`]
//! instead holds the state of *all* flows of one model in contiguous
//! arrays and advances them in a single pass with the model constants
//! (`e^{−Δ/T_c}`, innovation σ, …) hoisted out of the loop, leaving a
//! cached rate vector the simulator reads for free.
//!
//! Models opt in by returning a [`BatchKey`] from
//! [`SourceModel::batch_key`] and an empty batch from
//! [`SourceModel::new_batch`]; heterogeneous, trace-driven, or
//! otherwise unbatchable sources keep working through the boxed
//! [`DynBatch`] fallback, which keeps the exact per-flow semantics of
//! one boxed process per flow and refreshes its rate cache in the same
//! pass as the advance. [`crate::process::Unbatched`] hides a model's
//! kernel, so its flows take that path: the reference the kernels are
//! tested against.
//!
//! # RNG-stream contract
//!
//! Batched kernels must consume the RNG in **exactly** the same order
//! as the boxed fallback [`DynBatch`] holding the same flows:
//! [`FlowBatch::spawn`] of `n` flows draws what `n` calls of
//! [`SourceModel::spawn`] draw ([`FlowBatch::spawn_each`] too, each
//! flow's draws right after its hook's), and
//! [`FlowBatch::advance_all`] advances flow 0, then flow 1, … drawing
//! what the boxed side draws for them. This makes a batched simulation
//! bit-identical to the boxed one for a fixed seed (the equivalence
//! tests in `mbac-sim` assert this), so hiding a kernel never changes
//! scientific results.
//!
//! The contract is between the two paths of *one* commit. What a
//! model draws per advance is the model's own rule. For most models it
//! is per flow — flow `i`'s draws are what [`RateProcess::advance`]
//! draws. RCBR thins (see [`crate::rcbr`]): one exponential gap draw
//! per flow on the rarer side — renegotiating or keeping its rate —
//! plus one past the end, whose count depends on the whole batch, so a
//! boxed source advanced alone cannot match it;
//! [`DynBatch`] instead runs the kernel's loop over each run of
//! consecutive flows with equal [`RateProcess::thinning_scale`].
//!
//! # Lanes
//!
//! A batch of more than [`LANE`] flows advances as *lanes*: contiguous
//! slot ranges of [`LANE`] flows (the last one shorter), each with an
//! RNG stream of its own. Lane 0 draws from the caller's RNG; lane
//! `k ≥ 1` from a stream the batch seeds from the caller's RNG (one
//! word, through SplitMix64), in lane order, the first time it is
//! advanced with a lane `k`, and keeps for its life. Within a lane the
//! stream contract above holds unchanged — every kernel and
//! [`DynBatch`] alike advance the lane's flows in slot order on the
//! lane's stream, and a thinning run ends at a lane edge — so the two
//! engines stay bit-identical, and since no lane ever draws from
//! another's stream, which thread advances a lane changes no bit. Lanes
//! run on the persistent pool ([`mbac_num::parallel`]) when the advance
//! is worth a hand-off; a batch of at most one lane takes the one-lane
//! path, the same loop on the caller's RNG that it always was.

use crate::process::RateProcess;
#[cfg(doc)]
use crate::process::SourceModel;
use crate::rcbr::thin;
use mbac_num::parallel;
use mbac_num::rng::ExpSampler;
use mbac_num::RateMoments;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Flows per lane (module docs, "Lanes").
pub const LANE: usize = 1 << 13;

/// What handing lanes to a parked pool worker costs the caller, in ns
/// (it wakes ~20 µs late), and what one random draw inside a kernel
/// loop and one flow folded into [`RateMoments`] cost. Measured on the
/// 2-vCPU host (DESIGN §11.1–11.2); they only decide whether lanes run
/// on the pool, never what they draw.
const HAND_OFF_NS: f64 = 20_000.0;
const DRAW_NS: f64 = 5.0;
const FOLD_NS: f64 = 0.25;

/// Participants for `work_ns` of lane work: the session's workers when
/// half the work outweighs a hand-off, else the caller alone.
fn workers_for(work_ns: f64) -> usize {
    if work_ns > 2.0 * HAND_OFF_NS {
        parallel::current_workers()
    } else {
        1
    }
}

/// The RNG streams of a batch's lanes `1, 2, …` (module docs, "Lanes").
#[derive(Default)]
pub(crate) struct LaneStreams(Vec<StdRng>);

impl LaneStreams {
    /// Runs `advance` on each of `lanes` — the batch's state cut at
    /// [`LANE`] boundaries, in slot order — with that lane's RNG. One
    /// lane runs inline on `rng`. `draws`, the advance's expected random
    /// draws (asked only of a batch of several lanes), decides whether
    /// the lanes run on the pool.
    ///
    /// Two rules keep a kernel's loop in registers:
    ///
    /// - *Captured constants into locals* (`let (a, dt) = (a, dt);`): a
    ///   capture is read through a pointer the lane's stores might
    ///   alias, so the loop reloads it for every flow — the AR(1) loop
    ///   ran 17 % slower for it.
    /// - *The generator into a local*: draw from `let mut local =
    ///   rng.clone()` and write `*rng = local` back once the lane is
    ///   done. The lane's `&mut StdRng` is an address other code holds,
    ///   so every draw through it loads and stores the four state words;
    ///   a copy that only inlined code and no out-of-line call receives
    ///   stays in registers (`mbac_num::rng`, "The register rule"). A
    ///   call that must take the generator — `thin`'s keeper walk —
    ///   takes it by value and hands it back; a hook that takes a `&mut
    ///   StdRng` leaves that flow's draw on the stream itself. With the
    ///   samplers' rare paths already out of line, `ar1_dense` ran ×1.13
    ///   faster for it (DESIGN.md §8.2).
    #[inline]
    pub(crate) fn advance<L: Send>(
        &mut self,
        rng: &mut StdRng,
        mut lanes: impl ExactSizeIterator<Item = L>,
        draws: impl FnOnce() -> f64,
        advance: impl Fn(&mut L, &mut StdRng) + Sync,
    ) {
        if lanes.len() < 2 {
            if let Some(mut lane) = lanes.next() {
                advance(&mut lane, rng);
            }
            return;
        }
        while self.0.len() < lanes.len() - 1 {
            self.0.push(StdRng::seed_from_u64(rng.next_u64()));
        }
        // Lane 0 runs on a copy of the caller's stream, written back
        // after: were `rng` itself handed to the pool, the compiler would
        // have to assume any call might touch it, and the one-lane loop
        // above would store the generator's state after every draw.
        let mut lane0 = rng.clone();
        let rngs = std::iter::once(&mut lane0).chain(&mut self.0);
        let mut jobs: Vec<(L, &mut StdRng)> = lanes.zip(rngs).collect();
        parallel::for_each_mut(
            &mut jobs,
            |(lane, rng)| advance(lane, rng),
            workers_for(draws() * DRAW_NS),
        );
        *rng = lane0;
    }
}

/// Folds `rates` into `mom`: one `add_slice` for a batch of at most one
/// lane, else one fold per lane — on the pool when worth a hand-off —
/// merged in lane order.
pub fn fold_lanes(mom: &mut RateMoments, rates: &[f64]) {
    if rates.len() <= LANE {
        mom.add_slice(rates);
        return;
    }
    let pivot = mom.pivot();
    let partials = parallel::parallel_map_with(
        rates.chunks(LANE).collect(),
        |lane: &&[f64]| {
            let mut m = RateMoments::new(pivot);
            m.add_slice(lane);
            m
        },
        workers_for(rates.len() as f64 * FOLD_NS),
    );
    for m in &partials {
        mom.merge(m);
    }
}

/// Identifies which [`FlowBatch`] a model's flows can join. Two models
/// with equal keys must spawn statistically identical flows (they share
/// one batch inside the simulator's flow table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchKey {
    /// AR(1) / sampled-OU sources (see [`crate::ar1`]).
    Ar1 {
        /// Stationary mean `μ`.
        mean: f64,
        /// Stationary standard deviation `σ`.
        std_dev: f64,
        /// Correlation time-scale `T_c`.
        t_c: f64,
        /// Update tick `Δ`.
        tick: f64,
        /// Whether rates are clamped at zero.
        clamp_at_zero: bool,
    },
    /// RCBR sources (see [`crate::rcbr`]).
    Rcbr {
        /// The marginal rate distribution.
        marginal: crate::marginal::Marginal,
        /// Mean renegotiation interval `T_c`.
        t_c: f64,
    },
}

/// A contiguous batch of flows spawned from one source model, advanced
/// together. See the module docs for the RNG-stream contract.
pub trait FlowBatch: Send {
    /// Number of flows in the batch.
    fn len(&self) -> usize;

    /// Whether the batch holds no flows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advances every flow by `dt` (flow 0 first, then flow 1, …) and
    /// refreshes the cached rate vector in the same pass.
    ///
    /// Takes a concrete [`StdRng`] (not `&mut dyn RngCore`): the hot
    /// path is dominated by random draws, and the concrete type lets
    /// the samplers monomorphize and inline into the kernel loop while
    /// still consuming the exact same stream as the boxed path.
    fn advance_all(&mut self, dt: f64, rng: &mut StdRng);

    /// The per-flow instantaneous rates, contiguous and in slot order.
    /// Valid until the next mutating call.
    fn rates(&self) -> &[f64];

    /// Spawns `n` fresh stationary flows at the end of the batch, drawing
    /// from the RNG exactly as `n` calls of [`SourceModel::spawn`] would.
    /// A kernel reserves the `n` slots and draws on a local copy of
    /// `rng`, written back after, so the generator stays in registers
    /// (the lanes' reason, module docs): a burst costs its draws and one
    /// call, not `n` calls that each store and reload the generator.
    ///
    /// # Panics
    /// Panics on batches that can only adopt existing processes
    /// ([`DynBatch`]): their flows are spawned boxed and pushed via
    /// [`FlowBatch::try_push_boxed`].
    fn spawn(&mut self, n: usize, rng: &mut StdRng);

    /// Spawns `n` fresh flows as [`FlowBatch::spawn`] does, calling
    /// `before` on `rng` ahead of each flow's draws: flow `i`'s state is
    /// drawn right after the `i`-th call, so `before` can draw what
    /// belongs to the flow first (the flow table draws its departure
    /// time there). The default calls `before`, then `spawn(1)`; a
    /// kernel overrides it with one reservation and one loop.
    fn spawn_each(&mut self, n: usize, rng: &mut StdRng, before: &mut dyn FnMut(&mut StdRng)) {
        for _ in 0..n {
            before(rng);
            self.spawn(1, rng);
        }
    }

    /// Adopts an already-running boxed process, if this batch supports
    /// heterogeneous members. Specialized SoA batches return the
    /// process back as `Err` (default); [`DynBatch`] accepts.
    fn try_push_boxed(
        &mut self,
        process: Box<dyn RateProcess>,
    ) -> Result<(), Box<dyn RateProcess>> {
        Err(process)
    }

    /// Removes the flow in slot `i` by swapping the last slot into it
    /// (O(1); the caller mirrors the reorder in its own bookkeeping).
    fn swap_remove(&mut self, i: usize);
}

/// The boxed fallback batch: a plain list of `Box<dyn RateProcess>`
/// plus a rate cache refreshed in the advance pass. Used for models
/// without a specialized kernel and for flows admitted as existing
/// processes. Flows advance one by one, except that each maximal run
/// of consecutive flows with equal [`RateProcess::thinning_scale`] is
/// thinned by the RCBR kernel's loop, renegotiating through
/// [`RateProcess::reset`].
#[derive(Default)]
pub struct DynBatch {
    procs: Vec<Box<dyn RateProcess>>,
    rates: Vec<f64>,
    lanes: LaneStreams,
}

impl DynBatch {
    /// Creates an empty fallback batch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FlowBatch for DynBatch {
    fn len(&self) -> usize {
        self.procs.len()
    }

    fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
        let exp = ExpSampler::get();
        // At least one virtual call per flow, about a draw's worth.
        let n = self.procs.len() as f64;
        let lanes = self.procs.chunks_mut(LANE).zip(self.rates.chunks_mut(LANE));
        self.lanes.advance(
            rng,
            lanes,
            || n,
            |(procs, rates), rng| {
                let mut start = 0;
                while start < procs.len() {
                    let Some(scale) = procs[start].thinning_scale() else {
                        let p = &mut procs[start];
                        p.advance(dt, rng);
                        rates[start] = p.rate();
                        start += 1;
                        continue;
                    };
                    // The maximal run of flows with this scale within the
                    // lane, thinned as the batched kernel thins the lane.
                    let end = procs[start..]
                        .iter()
                        .position(|p| p.thinning_scale() != Some(scale))
                        .map_or(procs.len(), |n| start + n);
                    let (run, run_rates) = (&mut procs[start..end], &mut rates[start..end]);
                    // `always`, as the kernel's (see `RcbrBatch::advance_all`).
                    thin(
                        run.len(),
                        dt,
                        scale,
                        exp,
                        &mut *rng,
                        #[inline(always)]
                        |i, rng| {
                            run[i].reset(*rng);
                            run_rates[i] = run[i].rate();
                        },
                    );
                    start = end;
                }
            },
        );
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn spawn(&mut self, _n: usize, _rng: &mut StdRng) {
        unreachable!("DynBatch flows are spawned boxed and pushed via try_push_boxed")
    }

    fn try_push_boxed(
        &mut self,
        process: Box<dyn RateProcess>,
    ) -> Result<(), Box<dyn RateProcess>> {
        self.rates.push(process.rate());
        self.procs.push(process);
        Ok(())
    }

    fn swap_remove(&mut self, i: usize) {
        self.procs.swap_remove(i);
        self.rates.swap_remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ar1::{Ar1Config, Ar1Model};
    use crate::marginal::Marginal;
    use crate::process::test_util::{check_acf_fn, check_moments_fn};
    use crate::process::SourceModel;
    use crate::rcbr::{RcbrConfig, RcbrModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A batch and its boxed twin — a [`DynBatch`] of the boxed
    /// processes, the fallback group an unbatched model's flows take —
    /// each on its own copy of one stream.
    struct Twins {
        boxed: DynBatch,
        batch: Box<dyn FlowBatch>,
        boxed_rng: StdRng,
        batch_rng: StdRng,
    }

    impl Twins {
        /// `n` flows of `model` on each side, spawned from one seed.
        fn spawn(model: &dyn SourceModel, n: usize, seed: u64) -> Self {
            let mut t = Twins {
                boxed: DynBatch::new(),
                batch: model
                    .new_batch()
                    .expect("model advertises a batched kernel"),
                boxed_rng: StdRng::seed_from_u64(seed),
                batch_rng: StdRng::seed_from_u64(seed),
            };
            for _ in 0..n {
                t.admit(model);
            }
            assert_eq!(t.boxed.rates(), t.batch.rates());
            t
        }

        fn admit(&mut self, model: &dyn SourceModel) {
            let process = model.spawn(&mut self.boxed_rng);
            self.boxed.try_push_boxed(process).ok().unwrap();
            self.batch.spawn(1, &mut self.batch_rng);
        }

        fn depart(&mut self, slot: usize) {
            self.boxed.swap_remove(slot);
            self.batch.swap_remove(slot);
        }

        fn advance(&mut self, dt: f64, step: usize) {
            self.boxed.advance_all(dt, &mut self.boxed_rng);
            self.batch.advance_all(dt, &mut self.batch_rng);
            assert_eq!(
                self.boxed.rates(),
                self.batch.rates(),
                "diverged at step {step} (dt = {dt})"
            );
        }
    }

    /// Verifies the RNG-stream contract: for identical seeds, a batch of
    /// `n` flows spawned via `spawn` and advanced via `advance_all`
    /// must produce bit-identical rates to `n` boxed flows spawned via
    /// `SourceModel::spawn` and advanced by their `DynBatch` — including after a
    /// mid-run swap-remove mirrored on both sides, and through steps of
    /// many correlation times.
    fn assert_bit_exact(model: &dyn SourceModel, seed: u64) {
        let mut t = Twins::spawn(model, 13, seed);

        for step in 0..200 {
            t.advance(0.05 + 0.11 * (step % 7) as f64, step);
        }

        // Departure: remove slot 1 on both sides, keep evolving.
        t.depart(1);
        for step in 200..250 {
            t.advance(0.25, step);
        }

        // Admission mid-run: spawn one more on both sides.
        t.admit(model);
        for step in 250..300 {
            t.advance(0.4, step);
        }

        // Steps far longer than the correlation time — the impulsive
        // harness's shape: every flow changes in every call (RCBR
        // renegotiates once per flow, AR(1) catches up tick by tick).
        for step in 300..320 {
            t.advance(50.0 + 0.37 * (step % 5) as f64, step);
        }
        assert_eq!(t.boxed_rng, t.batch_rng, "RNG end state");
    }

    #[test]
    fn ar1_batch_is_bit_exact() {
        let tick = 0.05;
        let model = Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick,
            clamp_at_zero: true,
        });
        assert_bit_exact(&model, 41);

        // The shapes that once had AR(1) kernels of their own: fewer
        // than, exactly and many more than eight flows; advances that
        // cross no tick boundary, one, a few and 70; every flow in one
        // tick phase (first round), then phases mixed by a mid-tick
        // departure and admission (the newcomer starts at phase zero).
        let ticks_per_advance = [0.4, 1.0, 5.0, 70.0, 0.4, 0.4, 1.0, 5.0];
        for n in [7, 8, 69] {
            let mut t = Twins::spawn(&model, n, 45 + n as u64);
            for round in 0..3 {
                for (step, ticks) in ticks_per_advance.iter().enumerate() {
                    t.advance(ticks * tick, round * ticks_per_advance.len() + step);
                }
                t.depart(2);
                t.admit(&model);
            }
            assert_eq!(t.boxed_rng, t.batch_rng, "RNG end state (n = {n})");
        }
    }

    #[test]
    fn rcbr_batch_is_bit_exact() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        assert_bit_exact(&model, 42);
    }

    #[test]
    fn general_rcbr_batch_is_bit_exact() {
        let model = RcbrModel::with_marginal(Marginal::two_point_with_moments(1.0, 0.3), 1.0);
        assert_bit_exact(&model, 43);
    }

    /// The two-state Markov fluid: the on–off source, an RCBR flow.
    #[test]
    fn markov_batch_is_bit_exact() {
        let model = RcbrModel::on_off(2.0, 1.0, 3.0);
        assert_bit_exact(&model, 44);
    }

    /// A zero-σ uniform marginal (`lo == hi`) draws its mean on both
    /// engines, through both thinning walks, one word a draw as any
    /// uniform draw takes, and never panics on its empty range.
    #[test]
    fn zero_sd_uniform_draws_its_mean_on_both_engines() {
        let model = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.0), 1.0);
        let mut t = Twins::spawn(&model, 20, 47);
        for step in 0..40 {
            t.advance([0.3, 2.0][step % 2], step);
        }
        assert!(t.batch.rates().iter().all(|&r| r == 1.0));
        assert_eq!(t.boxed_rng, t.batch_rng, "RNG end state");
    }

    /// The run-splitting rule: a `DynBatch` holding an RCBR run
    /// (`T_c = 1`), an AR(1) flow, a uniform-marginal RCBR run with
    /// `T_c = 2` and, straight after it, a second `T_c = 1` run consumes
    /// the RNG exactly as one kernel per run advanced in that order — a
    /// run ends wherever the thinning scale changes, not only at a flow
    /// without one.
    #[test]
    fn mixed_dyn_batch_thins_each_run_like_its_kernel() {
        let fast = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let slow = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.3), 2.0);
        let ar1 = Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        });
        let layout: [(&dyn SourceModel, usize); 4] =
            [(&fast, 9), (&ar1, 1), (&slow, 7), (&fast, 5)];
        let mut boxed_rng = StdRng::seed_from_u64(46);
        let mut kernel_rng = StdRng::seed_from_u64(46);
        let mut boxed = DynBatch::new();
        let mut kernels = Vec::new();
        for (model, n) in layout {
            let mut kernel = model.new_batch().expect("batched kernel");
            kernel.spawn(n, &mut kernel_rng);
            for _ in 0..n {
                let process = model.spawn(&mut boxed_rng);
                boxed.try_push_boxed(process).ok().unwrap();
            }
            kernels.push(kernel);
        }
        for step in 0..300 {
            let dt = [0.01, 0.05, 0.3, 1.0, 7.0][step % 5];
            boxed.advance_all(dt, &mut boxed_rng);
            for kernel in &mut kernels {
                kernel.advance_all(dt, &mut kernel_rng);
            }
            let want: Vec<f64> = kernels.iter().flat_map(|k| k.rates().to_vec()).collect();
            assert_eq!(
                boxed.rates(),
                &want[..],
                "diverged at step {step} (dt = {dt})"
            );
        }
        assert_eq!(boxed_rng, kernel_rng, "RNG end state");
    }

    /// `spawn(n)` is `n` calls of `spawn(1)` bit for bit on every kernel
    /// — rates, RNG end state, and the state an advance reads (AR(1)
    /// phase) — including a burst appended behind flows
    /// the batch already holds.
    #[test]
    fn bulk_spawn_is_repeated_single_spawns() {
        let rcbr = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let general = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.3), 2.0);
        let ar1 = Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        });
        let on_off = RcbrModel::on_off(2.0, 1.0, 3.0);
        let models: [&dyn SourceModel; 4] = [&rcbr, &general, &ar1, &on_off];
        for (m, model) in models.into_iter().enumerate() {
            for n in [0, 1, 7, 400] {
                let seed = 48 + m as u64;
                let (mut bulk_rng, mut single_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut bulk = model.new_batch().expect("batched kernel");
                let mut single = model.new_batch().expect("batched kernel");
                for (bulk_n, single_n) in [(3, 3), (n, n)] {
                    bulk.spawn(bulk_n, &mut bulk_rng);
                    (0..single_n).for_each(|_| single.spawn(1, &mut single_rng));
                }
                assert_eq!(bulk.rates(), single.rates(), "model {m}, n = {n}");
                assert_eq!(bulk_rng, single_rng, "model {m}, n = {n}: RNG end state");
                bulk.advance_all(0.37, &mut bulk_rng);
                single.advance_all(0.37, &mut single_rng);
                assert_eq!(bulk.rates(), single.rates(), "model {m}, n = {n}: advanced");
                assert_eq!(bulk_rng, single_rng, "model {m}, n = {n}: advanced RNG");
            }
        }
    }

    /// `spawn_each(n, before)` is `n` rounds of `before`, then
    /// `spawn(1)`, bit for bit on every kernel — the default the
    /// kernels override with one loop — with a hook that draws.
    #[test]
    fn spawn_each_interleaves_the_hook_with_single_spawns() {
        let rcbr = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let general = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.3), 2.0);
        let ar1 = Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        });
        let on_off = RcbrModel::on_off(2.0, 1.0, 3.0);
        let models: [&dyn SourceModel; 4] = [&rcbr, &general, &ar1, &on_off];
        for (m, model) in models.into_iter().enumerate() {
            for n in [0, 1, 7, 400] {
                let seed = 52 + m as u64;
                let (mut each_rng, mut single_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut each = model.new_batch().expect("batched kernel");
                let mut single = model.new_batch().expect("batched kernel");
                let (mut hooked, mut drawn) = (Vec::new(), Vec::new());
                each.spawn_each(n, &mut each_rng, &mut |rng| hooked.push(rng.next_u64()));
                for _ in 0..n {
                    drawn.push(single_rng.next_u64());
                    single.spawn(1, &mut single_rng);
                }
                assert_eq!(hooked, drawn, "model {m}, n = {n}: hook draws");
                assert_eq!(each.rates(), single.rates(), "model {m}, n = {n}");
                assert_eq!(each_rng, single_rng, "model {m}, n = {n}: RNG end state");
                each.advance_all(0.37, &mut each_rng);
                single.advance_all(0.37, &mut single_rng);
                assert_eq!(each.rates(), single.rates(), "model {m}, n = {n}: advanced");
            }
        }
    }

    /// Runs a one-flow batch through the same statistical harness
    /// (`check_moments_fn` / `check_acf_fn`, same tolerances) as the
    /// boxed sources: stationary moments and exponential ACF with
    /// time-scale `t_c`.
    #[allow(clippy::too_many_arguments)]
    fn check_batch_statistics(
        model: &dyn SourceModel,
        t_c: f64,
        dt_m: f64,
        steps_m: usize,
        tol_var: f64,
        dt_a: f64,
        steps_a: usize,
        lags: &[usize],
        seeds: (u64, u64, u64),
    ) {
        let mut rng = StdRng::seed_from_u64(seeds.0);
        let mut batch = model.new_batch().expect("batched kernel");
        batch.spawn(1, &mut rng);
        check_moments_fn(
            |dt, rng| {
                batch.advance_all(dt, rng);
                batch.rates()[0]
            },
            dt_m,
            steps_m,
            model.mean(),
            model.variance(),
            0.01,
            tol_var,
            seeds.1,
        );
        let mut batch = model.new_batch().expect("batched kernel");
        batch.spawn(1, &mut rng);
        let want: Vec<f64> = lags
            .iter()
            .map(|&lag| (-(lag as f64) * dt_a / t_c).exp())
            .collect();
        check_acf_fn(
            |dt, rng| {
                batch.advance_all(dt, rng);
                batch.rates()[0]
            },
            dt_a,
            steps_a,
            lags,
            &want,
            0.02,
            seeds.2,
        );
    }

    #[test]
    fn ar1_batch_stationary_moments_and_acf() {
        let model = Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: false,
        });
        check_batch_statistics(
            &model,
            1.0,
            0.25,
            200_000,
            0.01,
            0.5,
            300_000,
            &[1, 2, 4],
            (21, 22, 24),
        );
    }

    #[test]
    fn rcbr_batch_stationary_moments_and_acf() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        check_batch_statistics(
            &model,
            1.0,
            0.25,
            200_000,
            0.01,
            0.5,
            400_000,
            &[1, 2, 4, 6],
            (1, 2, 4),
        );
    }

    /// The two-state Markov fluid: the on–off source, an RCBR flow.
    #[test]
    fn markov_batch_stationary_moments_and_acf() {
        // λ + μ = 4/3 ⇒ ρ(τ) = e^{−4τ/3} ⇒ T_c = 3/4.
        let model = RcbrModel::on_off(1.0, 1.0, 3.0);
        check_batch_statistics(
            &model,
            0.75,
            0.2,
            300_000,
            0.02,
            0.25,
            400_000,
            &[1, 2, 4],
            (13, 12, 14),
        );
    }

    #[test]
    fn dyn_batch_tracks_boxed_processes() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = DynBatch::new();
        for _ in 0..8 {
            batch.try_push_boxed(model.spawn(&mut rng)).ok().unwrap();
        }
        assert_eq!(batch.len(), 8);
        let before = batch.rates().to_vec();
        batch.advance_all(10.0, &mut rng);
        assert_ne!(batch.rates(), &before[..]);
        batch.swap_remove(0);
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.rates().len(), 7);
    }

    #[test]
    fn batch_keys_compare_by_configuration() {
        let key = |t_c| RcbrModel::new(RcbrConfig::paper_default(t_c)).batch_key();
        let gaussian = Marginal::Gaussian { mean: 1.0, sd: 0.3 };
        let general = RcbrModel::with_marginal(gaussian, 1.0).batch_key();
        assert_eq!(key(1.0), general);
        assert_ne!(key(1.0), key(2.0));
        let uniform = RcbrModel::with_marginal(Marginal::uniform_with_moments(1.0, 0.3), 1.0);
        assert_ne!(key(1.0), uniform.batch_key());
    }
}
