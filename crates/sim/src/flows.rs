//! The flow table: admitted flows grouped into batched rate engines,
//! plus lifecycle bookkeeping.
//!
//! Holds the admitted flows, advances their bandwidth processes in
//! lock-step, applies departures, and produces the per-flow snapshots
//! the estimators consume. Conservation (`admitted − departed =
//! in-system`) is tracked and asserted by the property tests.
//!
//! Flows are stored in [`FlowBatch`] groups keyed by
//! [`SourceModel::batch_key`]: homogeneous flows share a
//! struct-of-arrays kernel that advances all of them in one pass and
//! leaves a cached rate vector, while heterogeneous or pre-spawned
//! processes fall back to a boxed group with identical semantics (see
//! `mbac_traffic::batch`). A burst that is measured before it is
//! admitted ([`FlowTable::spawn_burst`]) gets a kernel group of its own.
//!
//! Flows are admitted in runs ([`FlowTable::admit_run`]): `k` flows of
//! one model cost one group lookup, one kernel call
//! ([`FlowBatch::spawn_each`], which draws each flow's departure time
//! through a hook just before its state, so a run draws what `k` single
//! admissions draw) and one registration pass over ids, handles, the
//! slot map and the calendar. [`FlowTable::admit`] is the one-flow run;
//! a burst's kept prefix and a pre-spawned process register through
//! the same pass.
//!
//! Departures go through a hierarchical timing wheel (the
//! [`crate::calendar`] module), which is the one place a flow's
//! departure time is kept: a run schedules each finite departure in
//! O(1), a tick pops only the expiring buckets, and `next_departure`
//! reads the earliest non-empty bucket — so departing costs
//! O(departures popped), never O(flows in system). Advancing and
//! measuring do cost O(flows in system), every tick: a measurement tick
//! ([`FlowTable::advance_depart_measure`]) is one pass of each kernel
//! over its flows, the departures, then one fold over the cached rates;
//! a group larger than one lane does both lane by lane, on the session's
//! workers when the work outweighs the hand-off (`mbac_traffic::batch`).
//! Because the batch kernels compact with `swap_remove`, the wheel
//! stores stable flow *handles* resolved through a slot map whose
//! back-pointers are patched on every swap. Popped flows leave in the
//! calendar's own order, each by one `swap_remove`. That order decides
//! which slot a survivor ends up in, and so the order of a snapshot,
//! but never which flows are in the system: departures consume no
//! randomness, and each flow's next draws are fresh whatever slot it
//! holds, so the law of every observable is the same.
//!
//! The boxed path is a property of the model: one without a kernel —
//! [`Unbatched`](mbac_traffic::process::Unbatched)`(&model)` hides one —
//! keeps its flows in the [`DynBatch`] group. Both paths consume the RNG
//! identically (the kernels' stream contract), so a table runs `model`
//! and `Unbatched(&model)` to the same bits; the tests below and the
//! `tests/churn.rs` proptests check both at every step of randomized
//! schedules, against each other and a brute-force set model.

use crate::calendar::{CalendarEntry, DepartureCalendar};
use mbac_num::RateMoments;
use mbac_traffic::batch::{fold_lanes, BatchKey, DynBatch, FlowBatch};
use mbac_traffic::process::{RateProcess, SourceModel};
use rand::rngs::StdRng;
use std::ops::Range;

/// Where a flow currently lives: group index and slot within it. The
/// calendar's stable handle indexes into the slot map, which is kept
/// current as `swap_remove` relocates slots.
#[derive(Debug, Clone, Copy)]
struct SlotRef {
    group: u32,
    slot: u32,
}

/// Which admissions a group takes.
#[derive(PartialEq)]
enum GroupKey {
    /// The boxed fallback group (a [`DynBatch`]): every flow without a
    /// batched kernel, and every pre-spawned process.
    Boxed,
    /// One batched kernel, joined by every admission of an equal key.
    Kernel(BatchKey),
    /// The kernel batch of one [`FlowTable::spawn_burst`]. No later
    /// admission joins it, so the burst keeps its own partial sum in
    /// [`FlowTable::aggregate_rate`].
    Burst,
}

/// One group of flows sharing a batched kernel (or the boxed fallback).
/// A flow's departure time lives in its calendar entry alone.
struct BatchGroup {
    key: GroupKey,
    batch: Box<dyn FlowBatch>,
    /// Slot-parallel flow ids, reordered in lock-step with the batch.
    ids: Vec<u64>,
    /// Slot-parallel stable handles into the owner's slot map.
    handles: Vec<u32>,
}

impl BatchGroup {
    /// Spawns `n` fresh flows of `model` at the end of the batch, not
    /// yet registered, calling `before` ahead of each flow's draws; both
    /// arms draw what `n` calls of `SourceModel::spawn` draw, each after
    /// its call of `before`.
    fn spawn_each(
        &mut self,
        model: &dyn SourceModel,
        n: usize,
        rng: &mut StdRng,
        before: &mut dyn FnMut(&mut StdRng),
    ) {
        if self.key == GroupKey::Boxed {
            for _ in 0..n {
                before(rng);
                self.batch
                    .try_push_boxed(model.spawn(rng))
                    .ok()
                    .expect("fallback group accepts boxed processes");
            }
        } else {
            self.batch.spawn_each(n, rng, before);
        }
    }
}

/// The set of flows currently in the system.
pub struct FlowTable {
    groups: Vec<BatchGroup>,
    /// Flows currently in the system (sum of group lengths).
    count: usize,
    /// Flows in the system that hold forever (an `INFINITY` departure):
    /// they are never scheduled, so they never leave.
    forever: usize,
    next_id: u64,
    admitted_total: u64,
    departed_total: u64,
    /// Time up to which all processes have been advanced.
    advanced_to: f64,
    /// Exact minimum departure time over the live flows; `INFINITY`
    /// when empty or when every live flow holds forever. Kept exact: a
    /// run folds its minimum in once, departures re-read the calendar's
    /// earliest bucket.
    min_departure: f64,
    /// The departure calendar (finite departure times only; flows with
    /// `INFINITY` holds can never expire and are not scheduled).
    calendar: DepartureCalendar,
    /// Stable handle → current location; entries of freed handles are
    /// stale until reused.
    slots: Vec<SlotRef>,
    /// Freed handles, reused LIFO (deterministic).
    free: Vec<u32>,
    /// Scratch: entries popped by the current `depart_until`.
    expired: Vec<CalendarEntry>,
    /// Scratch: the departure times of the run being registered, in
    /// flow order.
    departs: Vec<f64>,
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowTable {
    /// Creates an empty table. Each model's flows share its batched
    /// kernel, or the boxed fallback group when it has none.
    pub fn new() -> Self {
        FlowTable {
            groups: Vec::new(),
            count: 0,
            forever: 0,
            next_id: 0,
            admitted_total: 0,
            departed_total: 0,
            advanced_to: 0.0,
            min_departure: f64::INFINITY,
            calendar: DepartureCalendar::new(),
            slots: Vec::new(),
            free: Vec::new(),
            expired: Vec::new(),
            departs: Vec::new(),
        }
    }

    /// Number of flows currently in the system (the paper's `N_t`).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total flows ever admitted.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Total flows ever departed.
    pub fn departed_total(&self) -> u64 {
        self.departed_total
    }

    /// The registration pass: registers the last `k` flows of `group`,
    /// `k` the number of times in the `departs` scratch, flow `i`
    /// departing at `departs[i]`. The run gets contiguous ids and a
    /// handle each — freed handles first, LIFO, as `k` single
    /// registrations would take them, then fresh ones — the group's ids
    /// and handles and the slot map are extended once, the finite
    /// departures are scheduled in flow order and their minimum folded
    /// in once. Returns the ids.
    ///
    /// # Panics
    /// Panics unless every time is finite or `+∞` (a flow that never
    /// departs): a NaN would never be scheduled and a `−∞` would become
    /// the table's next departure, which no `depart_until` can pop.
    fn register_run(&mut self, group: usize) -> Range<u64> {
        let k = self.departs.len();
        let ids = self.next_id..self.next_id + k as u64;
        self.next_id = ids.end;
        self.admitted_total += k as u64;
        self.count += k;
        let g = &mut self.groups[group];
        let base = g.ids.len();
        g.ids.extend(ids.clone());
        let reused = k.min(self.free.len());
        let fresh = self.slots.len() as u32;
        g.handles
            .extend(self.free.drain(self.free.len() - reused..).rev());
        g.handles.extend(fresh..fresh + (k - reused) as u32);
        let location = |slot: usize| SlotRef {
            group: group as u32,
            slot: slot as u32,
        };
        for (slot, &h) in (base..).zip(&g.handles[base..base + reused]) {
            self.slots[h as usize] = location(slot);
        }
        self.slots.extend((base + reused..base + k).map(location));
        let mut min = f64::INFINITY;
        for (&handle, &t) in g.handles[base..].iter().zip(&self.departs) {
            assert!(
                t > f64::NEG_INFINITY,
                "departure time {t} is neither finite nor +inf"
            );
            if t < f64::INFINITY {
                self.calendar.schedule(handle, t);
                min = min.min(t);
            } else {
                self.forever += 1;
            }
        }
        self.min_departure = self.min_departure.min(min);
        ids
    }

    fn fallback_group(&mut self) -> usize {
        match self.groups.iter().position(|g| g.key == GroupKey::Boxed) {
            Some(i) => i,
            None => self.push_group(GroupKey::Boxed, Box::new(DynBatch::new())),
        }
    }

    fn push_group(&mut self, key: GroupKey, batch: Box<dyn FlowBatch>) -> usize {
        self.groups.push(BatchGroup {
            key,
            batch,
            ids: Vec::new(),
            handles: Vec::new(),
        });
        self.groups.len() - 1
    }

    /// Admits a run of `k` new flows spawned from `model`, the `i`-th
    /// departing at the absolute time `departs` returns on its `i`-th
    /// call. Each flow draws its departure time (the call of `departs`)
    /// and then its state from `rng`, flow by flow, so a run draws
    /// exactly what `k` calls of [`FlowTable::admit`] draw, and gives the
    /// flows the same ids. One group lookup, one kernel call and one
    /// registration pass whatever `k`; an empty run does nothing.
    /// Returns the run's ids, contiguous.
    ///
    /// # Panics
    /// Panics if a departure time is NaN or `−∞`; `+∞` holds forever.
    pub fn admit_run(
        &mut self,
        model: &dyn SourceModel,
        k: usize,
        rng: &mut StdRng,
        mut departs: impl FnMut(&mut StdRng) -> f64,
    ) -> Range<u64> {
        // An empty run touches nothing: a group is made by its first
        // flow, so groups keep the order their first flows arrived in.
        if k == 0 {
            return self.next_id..self.next_id;
        }
        let group = match model.batch_key() {
            Some(key) => {
                let key = GroupKey::Kernel(key);
                match self.groups.iter().position(|g| g.key == key) {
                    Some(i) => i,
                    None => {
                        let batch = model
                            .new_batch()
                            .expect("batch_key() implies new_batch() (see SourceModel docs)");
                        self.push_group(key, batch)
                    }
                }
            }
            None => self.fallback_group(),
        };
        self.departs.clear();
        let times = &mut self.departs;
        self.groups[group].spawn_each(model, k, rng, &mut |rng| times.push(departs(rng)));
        self.register_run(group)
    }

    /// Admits a new flow spawned from `model`, departing at absolute
    /// time `departs_at`: the one-flow [`FlowTable::admit_run`]. O(1)
    /// (plus the kernel's spawn). Returns the flow id.
    ///
    /// # Panics
    /// Panics if `departs_at` is NaN or `−∞`; `+∞` holds forever.
    pub fn admit(&mut self, model: &dyn SourceModel, departs_at: f64, rng: &mut StdRng) -> u64 {
        self.admit_run(model, 1, rng, |_| departs_at).start
    }

    /// Spawns `n` candidate flows of `model` — the impulsive burst of
    /// §3 — into one batch and hands them back as a [`Burst`]: measure
    /// their [`Burst::rates`], then [`Burst::keep`] the admitted prefix.
    /// Draws exactly what `n` calls of [`SourceModel::spawn`] draw.
    ///
    /// If `model` has a batched kernel the candidates form
    /// a struct-of-arrays group of their own; otherwise they join the
    /// boxed fallback group, as pre-spawned processes always have.
    pub fn spawn_burst(
        &mut self,
        model: &dyn SourceModel,
        n: usize,
        rng: &mut StdRng,
    ) -> Burst<'_> {
        let group = match model.new_batch() {
            Some(mut batch) => {
                batch.spawn(n, rng);
                self.push_group(GroupKey::Burst, batch)
            }
            None => {
                let group = self.fallback_group();
                self.groups[group].spawn_each(model, n, rng, &mut |_| {});
                group
            }
        };
        let g = &mut self.groups[group];
        g.ids.reserve(n);
        g.handles.reserve(n);
        self.slots.reserve(n);
        Burst { table: self, group }
    }

    /// Admits a flow whose rate process already exists. Always lands in
    /// the boxed fallback group. Returns the flow id.
    ///
    /// No library code calls this: the impulsive harness admits its
    /// measured candidates through [`FlowTable::spawn_burst`]. It stays
    /// as the reference that path is tested against (`tests/burst.rs`)
    /// and for the benchmark's boxed replica of the harness.
    ///
    /// # Panics
    /// Panics if `departs_at` is NaN or `−∞`; `+∞` holds forever.
    pub fn admit_process(&mut self, process: Box<dyn RateProcess>, departs_at: f64) -> u64 {
        let group = self.fallback_group();
        self.groups[group]
            .batch
            .try_push_boxed(process)
            .ok()
            .expect("fallback group accepts boxed processes");
        self.departs.clear();
        self.departs.push(departs_at);
        self.register_run(group).start
    }

    /// Advances every flow's bandwidth process to absolute time `t`.
    ///
    /// # Panics
    /// Panics if `t` lies before the time already reached, or is not
    /// finite: AR(1) flows step through every tick inside the advance, so
    /// an infinite one would never return.
    pub fn advance_to(&mut self, t: f64, rng: &mut StdRng) {
        let dt = t - self.advanced_to;
        assert!(
            dt >= -1e-9,
            "cannot advance flows backwards ({t} < {})",
            self.advanced_to
        );
        assert!(t.is_finite(), "cannot advance flows to {t}");
        if dt > 0.0 {
            for g in &mut self.groups {
                g.batch.advance_all(dt, rng);
            }
            self.advanced_to = t;
        }
    }

    /// Removes every flow whose departure time is ≤ `t`. Returns how
    /// many departed. O(1) when no departure is pending (the common
    /// case, via the exact cached minimum), O(departures popped)
    /// otherwise — the calendar pops only expired buckets and each
    /// popped flow leaves by one `swap_remove`, so the cost never
    /// scales with the flows in system.
    pub fn depart_until(&mut self, t: f64) -> usize {
        if self.min_departure > t {
            return 0;
        }
        self.expired.clear();
        self.calendar.pop_until(t, &mut self.expired);
        let gone = self.expired.len();
        debug_assert!(gone > 0, "exact minimum {} <= {t}", self.min_departure);
        // In the calendar's order: each removal moves the group's tail
        // flow into the freed slot, so patch that flow's back-pointer
        // (a later entry of this batch may be the flow that moved).
        for e in &self.expired {
            let SlotRef { group, slot } = self.slots[e.handle as usize];
            let (g, slot) = (&mut self.groups[group as usize], slot as usize);
            debug_assert!(e.departs_at <= t, "removing a non-expired slot");
            g.ids.swap_remove(slot);
            g.handles.swap_remove(slot);
            g.batch.swap_remove(slot);
            if let Some(&moved) = g.handles.get(slot) {
                self.slots[moved as usize].slot = slot as u32;
            }
            self.free.push(e.handle);
        }
        self.count -= gone;
        self.departed_total += gone as u64;
        // The new exact minimum: the earliest non-empty bucket's fold
        // (`INFINITY` when only never-departing flows remain).
        self.min_departure = self.calendar.peek_min();
        debug_assert!(self.min_departure > t);
        gone
    }

    /// One measurement tick: advances every flow to absolute time `t`,
    /// applies departures, and reduces the surviving flows' rates into a
    /// [`RateMoments`] centered on `pivot` — [`FlowTable::advance_to`],
    /// then [`FlowTable::depart_until`], then a fold of the batches'
    /// cached rates, with no snapshot vector in between.
    ///
    /// The moments fold the rates in snapshot order (group order, slot
    /// order), so while no group holds more than one lane
    /// ([`mbac_traffic::batch::LANE`]) they are bit-identical to folding
    /// the [`FlowTable::snapshot_into`] slice; a larger group folds its
    /// lanes apart and merges them in lane order ([`fold_lanes`]).
    pub fn advance_depart_measure(&mut self, t: f64, rng: &mut StdRng, pivot: f64) -> RateMoments {
        self.advance_to(t, rng);
        self.depart_until(t);
        self.fold(pivot)
    }

    /// The cached rates of every group folded around `pivot`.
    fn fold(&self, pivot: f64) -> RateMoments {
        let mut mom = RateMoments::new(pivot);
        for g in &self.groups {
            fold_lanes(&mut mom, g.batch.rates());
        }
        mom
    }

    /// The earliest pending departure time, if any.
    pub fn next_departure(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min_departure)
    }

    /// Sum of the instantaneous rates (the aggregate load `S_t`), read
    /// from the batches' cached rate vectors: the sum of a measurement
    /// tick's moments.
    pub fn aggregate_rate(&self) -> f64 {
        self.fold(0.0).sum()
    }

    /// Writes the per-flow instantaneous rates into `out` (cleared
    /// first). The estimator snapshot of eqn (23). Reserves the full
    /// flow count up front so large-N snapshots never reallocate while
    /// crossing groups.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.count);
        for g in &self.groups {
            out.extend_from_slice(g.batch.rates());
        }
    }

    /// Ids of the flows currently in the system (test/diagnostic aid).
    pub fn ids(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.count);
        out.extend(self.groups.iter().flat_map(|g| g.ids.iter().copied()));
        out
    }

    /// Panics unless the slot map and the calendar agree with the
    /// groups (test/diagnostic aid, O(flows)):
    /// - every live handle's location holds that handle, each group's
    ///   ids, handles and batch have one length, and live plus freed
    ///   handles account for every handle issued;
    /// - the calendar holds one entry per live flow with a finite
    ///   departure: its finite entries number the live flows that do not
    ///   hold forever, each names a live handle, and no handle twice;
    /// - the cached minimum departure is the exact minimum of those
    ///   entries (`INFINITY` when there are none).
    pub fn check_invariants(&self) {
        let mut live = 0;
        for (i, g) in self.groups.iter().enumerate() {
            assert_eq!(g.ids.len(), g.handles.len(), "group {i}: ids vs handles");
            assert_eq!(g.ids.len(), g.batch.len(), "group {i}: ids vs batch");
            for (slot, &h) in g.handles.iter().enumerate() {
                let at = self.slots[h as usize];
                assert_eq!(
                    (at.group as usize, at.slot as usize),
                    (i, slot),
                    "handle {h} points away from its slot"
                );
            }
            live += g.ids.len();
        }
        assert_eq!(live, self.count, "group lengths vs flow count");
        assert_eq!(live + self.free.len(), self.slots.len(), "handles leaked");

        let mut scheduled = vec![false; self.slots.len()];
        let (mut entries, mut min) = (0, f64::INFINITY);
        for e in self.calendar.entries() {
            let h = e.handle as usize;
            assert!(
                e.departs_at.is_finite(),
                "handle {h} scheduled at {}",
                e.departs_at
            );
            let at = self.slots[h];
            let holder = self.groups[at.group as usize].handles.get(at.slot as usize);
            assert_eq!(holder, Some(&e.handle), "handle {h} scheduled but not live");
            assert!(!scheduled[h], "handle {h} scheduled twice");
            scheduled[h] = true;
            entries += 1;
            min = min.min(e.departs_at);
        }
        assert_eq!(
            entries,
            self.calendar.len(),
            "calendar entries vs its length"
        );
        assert_eq!(
            entries + self.forever,
            live,
            "calendar entries vs live flows with a finite departure"
        );
        assert_eq!(self.min_departure, min, "cached minimum departure");
    }
}

/// The candidates of one [`FlowTable::spawn_burst`]: spawned and
/// measurable, but not yet admitted. Holding the table borrowed keeps
/// every other table call out until the burst is settled; candidates
/// not admitted by [`Burst::keep`] leave the batch when it drops.
pub struct Burst<'a> {
    table: &'a mut FlowTable,
    group: usize,
}

impl Burst<'_> {
    /// The candidates' initial rates, in spawn order.
    pub fn rates(&self) -> &[f64] {
        // Admitted flows have ids; the candidates are the slots
        // beyond it (slot 0 on, unless a fallback group held flows).
        let g = &self.table.groups[self.group];
        &g.batch.rates()[g.ids.len()..]
    }

    /// Admits the first `keep` candidates (all of them if there are
    /// fewer), calling `departs_at` once per admitted flow, in order,
    /// for its absolute departure time, and drops the rest. Dropping
    /// consumes no randomness.
    ///
    /// # Panics
    /// Panics if a departure time is NaN or `−∞`; `+∞` holds forever.
    pub fn keep(self, keep: usize, mut departs_at: impl FnMut() -> f64) {
        let k = keep.min(self.rates().len());
        self.table.departs.clear();
        self.table.departs.extend((0..k).map(|_| departs_at()));
        self.table.register_run(self.group);
    }
}

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        let g = &mut self.table.groups[self.group];
        for slot in (g.ids.len()..g.batch.len()).rev() {
            g.batch.swap_remove(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_traffic::ar1::{Ar1Config, Ar1Model};
    use mbac_traffic::process::Unbatched;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> RcbrModel {
        RcbrModel::new(RcbrConfig::paper_default(1.0))
    }

    #[test]
    fn admit_and_depart_conserve_counts() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(1);
        let mut table = FlowTable::new();
        let mut departs = (10..20).map(f64::from);
        table.admit_run(&m, 10, &mut rng, |_| departs.next().unwrap());
        assert_eq!(table.len(), 10);
        let gone = table.depart_until(14.5);
        assert_eq!(gone, 5); // departures at 10,11,12,13,14
        assert_eq!(table.len(), 5);
        assert_eq!(
            table.admitted_total() - table.departed_total(),
            table.len() as u64
        );
    }

    #[test]
    fn aggregate_is_sum_of_snapshot() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(2);
        let mut table = FlowTable::new();
        table.admit_run(&m, 50, &mut rng, |_| f64::INFINITY);
        let mut snap = Vec::new();
        table.snapshot_into(&mut snap);
        assert_eq!(snap.len(), 50);
        let sum = RateMoments::of(0.0, &snap).sum();
        assert_eq!(sum.to_bits(), table.aggregate_rate().to_bits());
    }

    #[test]
    fn advance_moves_all_processes() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        let mut table = FlowTable::new();
        table.admit_run(&m, 20, &mut rng, |_| f64::INFINITY);
        let before = table.aggregate_rate();
        table.advance_to(100.0, &mut rng); // ~100 renegotiations each
        let after = table.aggregate_rate();
        assert_ne!(before, after);
    }

    #[test]
    fn next_departure_tracks_minimum() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(4);
        let mut table = FlowTable::new();
        assert!(table.next_departure().is_none());
        table.admit(&m, 7.0, &mut rng);
        table.admit(&m, 3.0, &mut rng);
        table.admit(&m, 9.0, &mut rng);
        assert_eq!(table.next_departure(), Some(3.0));
        table.depart_until(3.0);
        assert_eq!(table.next_departure(), Some(7.0));
    }

    /// Regression test for the exact minimum: interleave admissions and
    /// departures (including several with the same departure time and
    /// admissions that lower the pending minimum) and check the cache
    /// against a brute-force reference at every step.
    #[test]
    fn next_departure_survives_interleaved_admits_and_departs() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(40);
        let mut table = FlowTable::new();
        let mut reference: Vec<(u64, f64)> = Vec::new();

        let check = |table: &FlowTable, reference: &[(u64, f64)]| {
            let want = reference
                .iter()
                .map(|&(_, t)| t)
                .fold(f64::INFINITY, f64::min);
            match table.next_departure() {
                None => assert!(reference.is_empty()),
                Some(got) => assert_eq!(got, want),
            }
            let mut ids: Vec<u64> = reference.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            let mut got_ids = table.ids();
            got_ids.sort_unstable();
            assert_eq!(got_ids, ids);
            table.check_invariants();
        };

        // Deterministic but irregular schedule of admits/departs.
        let departure_times = [7.0, 3.0, 3.0, 9.0, 1.5, 12.0, 2.5, 2.5, 8.0, 4.0, 11.0, 0.5];
        let mut now = 0.0;
        for (k, &d) in departure_times.iter().enumerate() {
            let id = table.admit(&m, now + d, &mut rng);
            reference.push((id, now + d));
            check(&table, &reference);
            if k % 3 == 2 {
                now += 2.0;
                table.advance_to(now, &mut rng);
                table.depart_until(now);
                reference.retain(|&(_, t)| t > now);
                check(&table, &reference);
            }
        }
        // Drain everything.
        now += 100.0;
        table.depart_until(now);
        reference.retain(|&(_, t)| t > now);
        check(&table, &reference);
        assert!(table.is_empty());
        assert_eq!(table.admitted_total(), departure_times.len() as u64);
        assert_eq!(table.departed_total(), departure_times.len() as u64);
    }

    /// Flows that hold forever are never scheduled, so a table of them
    /// — an impulsive replication's burst and extras, advanced and
    /// drained — allocates no calendar buckets; the first finite hold
    /// does.
    #[test]
    fn a_table_of_forever_flows_allocates_no_calendar_buckets() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(41);
        let mut table = FlowTable::new();
        table
            .spawn_burst(&m, 50, &mut rng)
            .keep(40, || f64::INFINITY);
        table.admit(&m, f64::INFINITY, &mut rng);
        table.advance_to(50.0, &mut rng);
        assert_eq!(table.depart_until(50.0), 0);
        assert_eq!(table.len(), 41);
        assert!(!table.calendar.has_buckets(), "forever flows allocated");
        table.admit(&m, 60.0, &mut rng);
        assert!(table.calendar.has_buckets());
        assert_eq!(table.depart_until(60.0), 1);
        // The forever flows stay, however late the drain.
        table.check_invariants();
        assert_eq!(table.depart_until(f64::MAX), 0);
        assert_eq!(table.next_departure(), Some(f64::INFINITY));
        assert_eq!(table.len(), 41);
    }

    /// A NaN departure would never be scheduled and a `−∞` one would be
    /// a minimum no `depart_until` can pop: every admission refuses
    /// both, kernel or boxed, naming the value.
    fn admit_run_at(model: &dyn SourceModel, departs_at: f64) {
        let (mut table, mut rng) = (FlowTable::new(), StdRng::seed_from_u64(9));
        table.admit_run(model, 3, &mut rng, |_| departs_at);
    }

    #[test]
    #[should_panic(expected = "departure time NaN is neither finite nor +inf")]
    fn batched_run_refuses_a_nan_departure() {
        admit_run_at(&model(), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "departure time NaN is neither finite nor +inf")]
    fn unbatched_run_refuses_a_nan_departure() {
        admit_run_at(&Unbatched(&model()), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "departure time -inf is neither finite nor +inf")]
    fn batched_run_refuses_a_minus_infinite_departure() {
        admit_run_at(&model(), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "departure time -inf is neither finite nor +inf")]
    fn unbatched_run_refuses_a_minus_infinite_departure() {
        admit_run_at(&Unbatched(&model()), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "departure time NaN is neither finite nor +inf")]
    fn burst_keep_refuses_a_nan_departure() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut table = FlowTable::new();
        table
            .spawn_burst(&model(), 4, &mut rng)
            .keep(2, || f64::NAN);
    }

    #[test]
    #[should_panic(expected = "departure time -inf is neither finite nor +inf")]
    fn admit_process_refuses_a_minus_infinite_departure() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut table = FlowTable::new();
        table.admit_process(model().spawn(&mut rng), f64::NEG_INFINITY);
    }

    /// `Burst::keep` registers its kept prefix in one pass exactly as
    /// one registration per flow would: the same ids, handles (freed
    /// ones reused LIFO), calendar entries and snapshot, before and
    /// after a drain, kernel or boxed.
    #[test]
    fn burst_keep_registers_as_flow_by_flow() {
        let rcbr = model();
        let hidden = Unbatched(&rcbr);
        for m in [&rcbr as &dyn SourceModel, &hidden] {
            let departs = [4.0, f64::INFINITY, 2.5, 2.5, 1.0e6, 3.0, 2.5];
            let mut tables = [FlowTable::new(), FlowTable::new()];
            let mut rngs = [StdRng::seed_from_u64(12), StdRng::seed_from_u64(12)];
            for (table, rng) in tables.iter_mut().zip(&mut rngs) {
                // Freed handles for the burst to reuse.
                let mut holds = [1.0, 2.0, 1.0, 9.0, 1.0].into_iter();
                table.admit_run(m, 5, rng, |_| holds.next().unwrap());
                table.depart_until(1.0);
            }
            let mut times = departs.into_iter();
            tables[0]
                .spawn_burst(m, 9, &mut rngs[0])
                .keep(departs.len(), || times.next().unwrap());
            let burst = tables[1].spawn_burst(m, 9, &mut rngs[1]);
            for t in departs {
                burst.table.departs.clear();
                burst.table.departs.push(t);
                burst.table.register_run(burst.group);
            }
            drop(burst);
            let [a, b] = &mut tables;
            for drain in [0.0, 2.5, 5.0] {
                a.depart_until(drain);
                b.depart_until(drain);
                a.check_invariants();
                b.check_invariants();
                assert_eq!(a.ids(), b.ids());
                assert_eq!(a.slots.len(), b.slots.len());
                assert_eq!(a.next_departure(), b.next_departure());
                let (mut snap_a, mut snap_b) = (Vec::new(), Vec::new());
                a.snapshot_into(&mut snap_a);
                b.snapshot_into(&mut snap_b);
                assert_eq!(snap_a, snap_b, "after a drain to {drain}");
            }
            assert_eq!(a.len(), 3, "the forever flow, 1e6 and 9.0 left");
        }
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(5);
        let mut table = FlowTable::new();
        assert_eq!(table.admit_run(&m, 5, &mut rng, |_| f64::INFINITY), 0..5);
        assert_eq!(table.admit(&m, f64::INFINITY, &mut rng), 5);
        // An empty run of a new model makes no group: groups keep the
        // order their first flows arrived in.
        let ar1 = ar1_model();
        assert_eq!(table.admit_run(&ar1, 0, &mut rng, |_| f64::INFINITY), 6..6);
        assert_eq!(table.groups.len(), 1);
        assert_eq!(table.admit_run(&m, 3, &mut rng, |_| f64::INFINITY), 6..9);
        let ids = table.ids();
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    /// A table of `model`'s flows advanced to `t = ∞`. Without the
    /// finite-target check the AR(1) catch-up loop never returns; with it
    /// every kernel panics before drawing.
    fn advance_to_infinity(model: &dyn SourceModel) {
        let (mut table, mut rng) = (FlowTable::new(), StdRng::seed_from_u64(8));
        table.admit_run(model, 3, &mut rng, |_| f64::INFINITY);
        table.advance_to(f64::INFINITY, &mut rng);
    }

    fn ar1_model() -> Ar1Model {
        Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        })
    }

    #[test]
    #[should_panic(expected = "cannot advance flows to inf")]
    fn rcbr_table_refuses_an_infinite_advance() {
        advance_to_infinity(&model());
    }

    #[test]
    #[should_panic(expected = "cannot advance flows to inf")]
    fn ar1_table_refuses_an_infinite_advance() {
        advance_to_infinity(&ar1_model());
    }

    #[test]
    #[should_panic(expected = "cannot advance flows to inf")]
    fn markov_table_refuses_an_infinite_advance() {
        let m = RcbrModel::on_off(2.0, 1.0, 3.0);
        advance_to_infinity(&m);
    }

    #[test]
    #[should_panic(expected = "cannot advance flows to inf")]
    fn boxed_table_refuses_an_infinite_advance() {
        advance_to_infinity(&Unbatched(&ar1_model()));
    }

    /// The contract of `advance_depart_measure`: bit-identical to the
    /// advance → depart → snapshot sequence folded into `RateMoments` —
    /// same moments, same RNG stream — through admissions and
    /// departures, kernel or boxed, with flows of two models in the
    /// table: folding group by group is folding the snapshot whole.
    #[test]
    fn fused_tick_matches_unfused_sequence() {
        let (ar1, rcbr) = (ar1_model(), model());
        let (hidden_ar1, hidden_rcbr) = (Unbatched(&ar1), Unbatched(&rcbr));
        let models: [(&dyn SourceModel, &dyn SourceModel); 2] =
            [(&ar1, &rcbr), (&hidden_ar1, &hidden_rcbr)];
        for (ar1, rcbr) in models {
            let mut rng_a = StdRng::seed_from_u64(91);
            let mut rng_b = StdRng::seed_from_u64(91);
            let mut fused = FlowTable::new();
            let mut plain = FlowTable::new();
            let mut snap = Vec::new();
            let mut now = 0.0;
            for step in 0..200 {
                now += 0.1;
                let pivot = 1.0 + 0.001 * (step % 9) as f64;
                let mom = fused.advance_depart_measure(now, &mut rng_a, pivot);
                plain.advance_to(now, &mut rng_b);
                plain.depart_until(now);
                plain.snapshot_into(&mut snap);
                assert_eq!(
                    mom,
                    RateMoments::of(pivot, &snap),
                    "moments diverged at step {step}"
                );
                assert_eq!(fused.len(), plain.len());
                let holding = 0.7 + (step % 13) as f64;
                if step % 4 == 0 {
                    fused.admit(ar1, now + holding, &mut rng_a);
                    plain.admit(ar1, now + holding, &mut rng_b);
                }
                if step % 3 == 0 {
                    fused.admit(rcbr, now + 2.0 * holding, &mut rng_a);
                    plain.admit(rcbr, now + 2.0 * holding, &mut rng_b);
                }
            }
            assert!(fused.departed_total() > 0, "no departure exercised");
        }
    }

    /// A model and the same model unbatched must yield bit-identical
    /// snapshots for the same seed, through admissions, advances, and
    /// departures.
    #[test]
    fn batched_table_is_bit_exact_with_unbatched() {
        for (name, m) in [
            ("rcbr", Box::new(model()) as Box<dyn SourceModel>),
            (
                "ar1",
                Box::new(Ar1Model::new(Ar1Config {
                    mean: 1.0,
                    std_dev: 0.3,
                    t_c: 1.0,
                    tick: 0.05,
                    clamp_at_zero: true,
                })),
            ),
            ("on-off", Box::new(RcbrModel::on_off(2.0, 1.0, 3.0))),
        ] {
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let mut batched = FlowTable::new();
            let mut boxed = FlowTable::new();
            let hidden = Unbatched(m.as_ref());
            let mut snap_a = Vec::new();
            let mut snap_b = Vec::new();
            let mut now = 0.0;
            for step in 0..200 {
                now += 0.1;
                batched.advance_to(now, &mut rng_a);
                boxed.advance_to(now, &mut rng_b);
                batched.depart_until(now);
                boxed.depart_until(now);
                if step % 3 == 0 {
                    let holding = 1.0 + (step % 17) as f64;
                    batched.admit(m.as_ref(), now + holding, &mut rng_a);
                    boxed.admit(&hidden, now + holding, &mut rng_b);
                }
                batched.snapshot_into(&mut snap_a);
                boxed.snapshot_into(&mut snap_b);
                assert_eq!(snap_a, snap_b, "{name} diverged at step {step}");
                assert_eq!(batched.len(), boxed.len());
                assert_eq!(batched.next_departure(), boxed.next_departure());
            }
            assert!(batched.admitted_total() > 0 && batched.departed_total() > 0);
            // The two sides took the two paths.
            assert!(batched.groups.iter().all(|g| g.key != GroupKey::Boxed));
            assert!(boxed.groups.iter().all(|g| g.key == GroupKey::Boxed));
        }
    }

    /// One call expires half of a group, tail flow included: every
    /// survivor keeps its own rate wherever it lands, the other group
    /// is untouched, and the slot map still agrees with the groups.
    #[test]
    fn one_call_expiring_several_flows_and_the_tail_keeps_the_table_whole() {
        let (m, ar1) = (model(), ar1_model());
        let mut rng = StdRng::seed_from_u64(6);
        let mut table = FlowTable::new();
        // RCBR slots 0, 2, 5 and 7 (the tail) leave at t = 2.
        let mut departs = [2.0, 9.0, 2.0, 9.0, 9.0, 2.0, 9.0, 2.0].into_iter();
        table.admit_run(&m, 8, &mut rng, |_| departs.next().unwrap());
        table.admit(&ar1, 2.0, &mut rng);
        table.admit(&ar1, 9.0, &mut rng);
        let rates = |t: &FlowTable| {
            let mut snap = Vec::new();
            t.snapshot_into(&mut snap);
            let mut by_id: Vec<(u64, f64)> = t.ids().into_iter().zip(snap).collect();
            by_id.sort_by_key(|&(id, _)| id);
            by_id
        };
        let before = rates(&table);
        assert_eq!(table.depart_until(2.0), 5);
        table.check_invariants();
        let survivors: Vec<(u64, f64)> = before
            .into_iter()
            .filter(|(id, _)| [1, 3, 4, 6, 9].contains(id))
            .collect();
        assert_eq!(rates(&table), survivors);
        assert_eq!(table.next_departure(), Some(9.0));
        assert_eq!(table.depart_until(9.0), 5);
        table.check_invariants();
        assert!(table.is_empty());
    }
}
