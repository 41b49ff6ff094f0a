//! The pre-calendar flow table, frozen as a brute-force reference.
//!
//! This is the cached-minimum + linear-scan lifecycle exactly as it
//! stood before the timing-wheel departure calendar ([`crate::calendar`])
//! replaced it: `depart_until` walks every slot of any group whose
//! cached minimum has expired and then rescans the group to recompute
//! the minimum — O(flows in system) on any tick with a departure.
//!
//! It exists for two purposes only, both gated behind the
//! `reference-table` feature (always on under `cfg(test)` via the
//! self dev-dependency):
//!
//! * **equivalence proof** — the wheel table's contract is to be
//!   *bit-identical* to this table (snapshots, `next_departure`, ids,
//!   conservation counts, RNG stream) at every step; the proptests in
//!   `tests/churn.rs` and the unit tests in [`crate::flows`] drive both
//!   through randomized interleaved schedules and assert exactly that;
//! * **replay** — `mbacctl churn --verify true` replays its workload
//!   on this table and exits non-zero on any divergence from the wheel.
//!
//! Do not use it in simulations; it is the slow path by construction.

use mbac_num::RateMoments;
use mbac_traffic::batch::{fold_lanes, BatchKey, DynBatch, FlowBatch};
use mbac_traffic::process::{RateProcess, SourceModel};
use rand::rngs::StdRng;

/// Lifecycle bookkeeping for one flow; slot-parallel to its batch.
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    id: u64,
    /// Absolute departure time.
    departs_at: f64,
}

/// One group of flows sharing a batched kernel (or the boxed fallback).
struct BatchGroup {
    /// `None` marks the boxed fallback group.
    key: Option<BatchKey>,
    batch: Box<dyn FlowBatch>,
    /// Slot-parallel metadata, reordered in lock-step with the batch.
    meta: Vec<FlowMeta>,
    /// Cached `min(departs_at)` over the group; `INFINITY` when empty.
    min_departure: f64,
}

impl BatchGroup {
    fn recompute_min(&mut self) {
        self.min_departure = self
            .meta
            .iter()
            .map(|m| m.departs_at)
            .fold(f64::INFINITY, f64::min);
    }
}

/// The legacy flow table: cached minima, full-group departure scans.
pub struct ReferenceFlowTable {
    groups: Vec<BatchGroup>,
    /// Route flows into specialized kernels when the model offers one.
    batching: bool,
    /// Flows currently in the system (sum of group lengths).
    count: usize,
    next_id: u64,
    admitted_total: u64,
    departed_total: u64,
    /// Time up to which all processes have been advanced.
    advanced_to: f64,
    /// Cached `min(departs_at)` over all groups; `INFINITY` when empty.
    min_departure: f64,
}

impl Default for ReferenceFlowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceFlowTable {
    /// Creates an empty table using batched kernels where available.
    pub fn new() -> Self {
        ReferenceFlowTable {
            groups: Vec::new(),
            batching: true,
            count: 0,
            next_id: 0,
            admitted_total: 0,
            departed_total: 0,
            advanced_to: 0.0,
            min_departure: f64::INFINITY,
        }
    }

    /// Creates an empty table that keeps every flow on the boxed
    /// fallback path.
    pub fn new_unbatched() -> Self {
        ReferenceFlowTable {
            batching: false,
            ..Self::new()
        }
    }

    /// Number of flows currently in the system.
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

    fn register(&mut self, group: usize, departs_at: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.admitted_total += 1;
        self.count += 1;
        let g = &mut self.groups[group];
        g.meta.push(FlowMeta { id, departs_at });
        g.min_departure = g.min_departure.min(departs_at);
        self.min_departure = self.min_departure.min(departs_at);
        id
    }

    fn fallback_group(&mut self) -> usize {
        match self.groups.iter().position(|g| g.key.is_none()) {
            Some(i) => i,
            None => {
                self.groups.push(BatchGroup {
                    key: None,
                    batch: Box::new(DynBatch::new()),
                    meta: Vec::new(),
                    min_departure: f64::INFINITY,
                });
                self.groups.len() - 1
            }
        }
    }

    /// Admits a new flow spawned from `model`, departing at absolute
    /// time `departs_at`. Returns the flow id.
    pub fn admit(&mut self, model: &dyn SourceModel, departs_at: f64, rng: &mut StdRng) -> u64 {
        let group = match self.batching.then(|| model.batch_key()).flatten() {
            Some(key) => match self.groups.iter().position(|g| g.key == Some(key)) {
                Some(i) => i,
                None => {
                    let batch = model
                        .new_batch()
                        .expect("batch_key() implies new_batch() (see SourceModel docs)");
                    self.groups.push(BatchGroup {
                        key: Some(key),
                        batch,
                        meta: Vec::new(),
                        min_departure: f64::INFINITY,
                    });
                    self.groups.len() - 1
                }
            },
            None => self.fallback_group(),
        };
        if self.groups[group].key.is_some() {
            self.groups[group].batch.spawn_one(rng);
        } else {
            let process = model.spawn(rng);
            self.groups[group]
                .batch
                .try_push_boxed(process)
                .ok()
                .expect("fallback group accepts boxed processes");
        }
        self.register(group, departs_at)
    }

    /// Admits a flow whose rate process already exists. Always lands in
    /// the boxed fallback group. Returns the flow id.
    pub fn admit_process(&mut self, process: Box<dyn RateProcess>, departs_at: f64) -> u64 {
        let group = self.fallback_group();
        self.groups[group]
            .batch
            .try_push_boxed(process)
            .ok()
            .expect("fallback group accepts boxed processes");
        self.register(group, departs_at)
    }

    /// Advances every flow's bandwidth process to absolute time `t`.
    pub fn advance_to(&mut self, t: f64, rng: &mut StdRng) {
        let dt = t - self.advanced_to;
        assert!(
            dt >= -1e-9,
            "cannot advance flows backwards ({t} < {})",
            self.advanced_to
        );
        if dt > 0.0 {
            for g in &mut self.groups {
                g.batch.advance_all(dt, rng);
            }
            self.advanced_to = t;
        }
    }

    /// Removes every flow whose departure time is ≤ `t` — the O(N)
    /// scan-and-rescan the calendar replaced. Returns how many departed.
    pub fn depart_until(&mut self, t: f64) -> usize {
        if self.min_departure > t {
            return 0;
        }
        let mut gone = 0;
        for g in &mut self.groups {
            if g.min_departure > t {
                continue;
            }
            let mut i = 0;
            while i < g.meta.len() {
                if g.meta[i].departs_at <= t {
                    g.meta.swap_remove(i);
                    g.batch.swap_remove(i);
                    gone += 1;
                } else {
                    i += 1;
                }
            }
            g.recompute_min();
        }
        self.count -= gone;
        self.departed_total += gone as u64;
        self.min_departure = self
            .groups
            .iter()
            .map(|g| g.min_departure)
            .fold(f64::INFINITY, f64::min);
        gone
    }

    /// One measurement tick: advance, depart, fold the cached rates.
    pub fn advance_depart_measure(&mut self, t: f64, rng: &mut StdRng, pivot: f64) -> RateMoments {
        self.advance_to(t, rng);
        self.depart_until(t);
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

    /// Sum of the instantaneous rates (per-group partial sums).
    pub fn aggregate_rate(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.batch.rates().iter().sum::<f64>())
            .sum()
    }

    /// Writes the per-flow instantaneous rates into `out` (cleared
    /// first).
    pub fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for g in &self.groups {
            out.extend_from_slice(g.batch.rates());
        }
    }

    /// Ids of the flows currently in the system.
    pub fn ids(&self) -> Vec<u64> {
        self.groups
            .iter()
            .flat_map(|g| g.meta.iter().map(|m| m.id))
            .collect()
    }
}
