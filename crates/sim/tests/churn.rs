//! Flow-table lifecycle proptests: a set oracle and engine equivalence.
//!
//! Departures leave the timing-wheel table ([`mbac_sim::FlowTable`]) in
//! the calendar's own order, so the slot a survivor lands in is not a
//! contract; *which* flows are in the system, and when they leave, is.
//! These proptests drive a batched and an unbatched table through
//! randomized schedules of admissions, advances, departures and fused
//! measurement ticks, and at every step check:
//!
//! * **the set oracle** — each table against a brute-force model of the
//!   flows in the system (a `Vec<(id, departs_at)>` pruned with
//!   `retain`): sorted ids, `next_departure`, departure counts and
//!   conservation;
//! * **engine equivalence** — on schedules whose flows all come from
//!   one source model, the batched table against
//!   [`FlowTable::new_unbatched`] bit for bit: snapshots, ids,
//!   fused-tick moments and the RNG end state;
//! * **the table's own invariants** ([`FlowTable::check_invariants`]):
//!   the slot map agrees with the groups.
//!
//! The schedules are built to stress the wheel's hard cases:
//!
//! * duplicate departure times (holds and time steps share a 0.5 grid,
//!   so exact `f64` collisions are common);
//! * out-of-order holding times (a late admit with a short hold lowers
//!   the pending minimum below earlier admits);
//! * `INFINITY` holds (never scheduled in the calendar) and far-future
//!   holds (land in the wheel's top levels and must cascade down);
//! * empty-table and empty-window drains (`depart_until` with nothing
//!   expiring, including on a completely empty table);
//! * mixed groups (two keyed kernels plus the boxed fallback group via
//!   `admit_process`), so one call expires flows of several groups.

use mbac_sim::FlowTable;
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of the randomized schedule. Times are in half-unit steps so
/// departure times collide exactly in `f64`.
#[derive(Clone, Debug)]
enum Op {
    /// Admit from source model `which` (0 = RCBR, 1 = AR(1)) with a
    /// holding time of `hold_steps · 0.5`; `hold_steps == 0` means an
    /// `INFINITY` hold, and `far` pushes the departure ~1e6 time units
    /// out (top wheel levels).
    Admit {
        which: u8,
        hold_steps: u8,
        far: bool,
    },
    /// Admit a pre-spawned boxed process into the fallback group.
    AdmitBoxed { hold_steps: u8 },
    /// Advance all processes by `steps · 0.5` (RNG-consuming).
    Advance { steps: u8 },
    /// Expire everything due by now + `steps · 0.5` (no advance — the
    /// lifecycle side alone, including empty drains when `steps` is 0).
    Depart { steps: u8 },
    /// The fused advance+depart+measure tick.
    FusedTick { steps: u8 },
}

/// Weighted op generator (the vendored proptest stub has no
/// `prop_oneof`, so the mix is drawn by hand: admits dominate, with
/// lifecycle and fused ticks interleaved).
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn sample(&self, rng: &mut StdRng) -> Op {
        match rng.gen_range(0u8..11) {
            0..=3 => Op::Admit {
                which: rng.gen_range(0u8..2),
                hold_steps: rng.gen_range(0u8..12),
                far: rng.gen_range(0u8..10) == 0,
            },
            4 => Op::AdmitBoxed {
                hold_steps: rng.gen_range(1u8..12),
            },
            5 | 6 => Op::Advance {
                steps: rng.gen_range(1u8..5),
            },
            7 | 8 => Op::Depart {
                steps: rng.gen_range(0u8..5),
            },
            _ => Op::FusedTick {
                steps: rng.gen_range(1u8..5),
            },
        }
    }
}

struct Harness {
    batched: FlowTable,
    unbatched: FlowTable,
    /// The flows in the system, as `(id, departs_at)`.
    oracle: Vec<(u64, f64)>,
    rng_a: StdRng,
    rng_b: StdRng,
    now: f64,
    /// Whether the two engines must agree bit for bit: only when every
    /// flow comes from one model, since a second group reorders the
    /// batched table's snapshot and its draws.
    bitwise: bool,
    snap_a: Vec<f64>,
    snap_b: Vec<f64>,
}

impl Harness {
    fn hold(&self, hold_steps: u8, far: bool) -> f64 {
        if hold_steps == 0 {
            f64::INFINITY
        } else if far {
            self.now + 1.0e6 + hold_steps as f64 * 0.5
        } else {
            self.now + hold_steps as f64 * 0.5
        }
    }

    /// Expires the oracle's flows due by `t`; returns how many left.
    fn oracle_depart(&mut self, t: f64) -> usize {
        let before = self.oracle.len();
        self.oracle.retain(|&(_, departs)| departs > t);
        before - self.oracle.len()
    }

    fn check(&mut self, step: usize) {
        let mut want: Vec<u64> = self.oracle.iter().map(|&(id, _)| id).collect();
        want.sort_unstable();
        let next = self
            .oracle
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        for table in [&self.batched, &self.unbatched] {
            table.check_invariants();
            let mut ids = table.ids();
            ids.sort_unstable();
            prop_assert_eq!(&ids, &want, "ids at step {}", step);
            let want_next = (!self.oracle.is_empty()).then_some(next);
            prop_assert_eq!(table.next_departure(), want_next, "step {}", step);
            prop_assert_eq!(table.len(), self.oracle.len());
            prop_assert_eq!(
                table.admitted_total() - table.departed_total(),
                table.len() as u64,
                "conservation at step {}",
                step
            );
        }
        prop_assert_eq!(
            self.batched.departed_total(),
            self.unbatched.departed_total()
        );
        if self.bitwise {
            self.batched.snapshot_into(&mut self.snap_a);
            self.unbatched.snapshot_into(&mut self.snap_b);
            prop_assert_eq!(&self.snap_a, &self.snap_b, "snapshot at step {}", step);
            prop_assert_eq!(self.batched.ids(), self.unbatched.ids(), "step {}", step);
        }
    }
}

/// Runs `ops` on both engines against the oracle. With `single_model`
/// set, every admission (boxed ones included) spawns from that model,
/// so the engines must also agree bit for bit.
fn run_schedule(seed: u64, ops: &[Op], single_model: Option<u8>) {
    let rcbr = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let ar1 = Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.05,
        clamp_at_zero: true,
    });
    let models: [&dyn SourceModel; 2] = [&rcbr, &ar1];
    let mut h = Harness {
        batched: FlowTable::new(),
        unbatched: FlowTable::new_unbatched(),
        oracle: Vec::new(),
        rng_a: StdRng::seed_from_u64(seed),
        rng_b: StdRng::seed_from_u64(seed),
        now: 0.0,
        bitwise: single_model.is_some(),
        snap_a: Vec::new(),
        snap_b: Vec::new(),
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Admit {
                which,
                hold_steps,
                far,
            } => {
                let model = models[single_model.unwrap_or(which) as usize];
                let departs = h.hold(hold_steps, far);
                let id_a = h.batched.admit(model, departs, &mut h.rng_a);
                let id_b = h.unbatched.admit(model, departs, &mut h.rng_b);
                prop_assert_eq!(id_a, id_b);
                h.oracle.push((id_a, departs));
            }
            Op::AdmitBoxed { hold_steps } => {
                let departs = h.hold(hold_steps, false);
                let (id_a, id_b) = match single_model {
                    Some(m) => (
                        h.batched.admit(models[m as usize], departs, &mut h.rng_a),
                        h.unbatched.admit(models[m as usize], departs, &mut h.rng_b),
                    ),
                    None => (
                        h.batched.admit_process(rcbr.spawn(&mut h.rng_a), departs),
                        h.unbatched.admit_process(rcbr.spawn(&mut h.rng_b), departs),
                    ),
                };
                prop_assert_eq!(id_a, id_b);
                h.oracle.push((id_a, departs));
            }
            Op::Advance { steps } => {
                h.now += steps as f64 * 0.5;
                h.batched.advance_to(h.now, &mut h.rng_a);
                h.unbatched.advance_to(h.now, &mut h.rng_b);
            }
            Op::Depart { steps } => {
                let until = h.now + steps as f64 * 0.5;
                let gone = h.oracle_depart(until);
                prop_assert_eq!(h.batched.depart_until(until), gone, "step {}", step);
                prop_assert_eq!(h.unbatched.depart_until(until), gone, "step {}", step);
            }
            Op::FusedTick { steps } => {
                h.now += steps as f64 * 0.5;
                h.oracle_depart(h.now);
                let pivot = 1.0 + (step % 7) as f64 * 0.01;
                let mom_a = h.batched.advance_depart_measure(h.now, &mut h.rng_a, pivot);
                let mom_b = h
                    .unbatched
                    .advance_depart_measure(h.now, &mut h.rng_b, pivot);
                if h.bitwise {
                    prop_assert_eq!(mom_a, mom_b, "moments at step {}", step);
                }
            }
        }
        h.check(step);
    }
    // Final bulk drain (now + 2e6 clears the far-future entries too,
    // leaving only INFINITY holds), then prove the RNG streams never
    // diverged.
    let until = h.now + 2.0e6;
    let gone = h.oracle_depart(until);
    prop_assert_eq!(h.batched.depart_until(until), gone, "drain departure count");
    prop_assert_eq!(
        h.unbatched.depart_until(until),
        gone,
        "drain departure count"
    );
    h.check(usize::MAX);
    if h.bitwise {
        prop_assert_eq!(h.rng_a.gen::<u64>(), h.rng_b.gen::<u64>(), "RNG stream");
    }
}

proptest! {
    /// Mixed groups: both engines hold exactly the oracle's flows at
    /// every step.
    #[test]
    fn tables_match_the_set_oracle(
        seed in 0u64..1_000_000,
        ops in collection::vec(OpStrategy, 1..80),
    ) {
        run_schedule(seed, &ops, None);
    }

    /// One source model: the batched table is bit-identical to the
    /// unbatched one, and both match the oracle.
    #[test]
    fn batched_table_matches_unbatched_bit_for_bit(
        seed in 0u64..1_000_000,
        model in 0u8..2,
        ops in collection::vec(OpStrategy, 1..80),
    ) {
        run_schedule(seed, &ops, Some(model));
    }
}
