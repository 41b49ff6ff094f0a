//! Flow-table lifecycle proptests: a set oracle, and kernels ≡ the boxed
//! path.
//!
//! Departures leave the timing-wheel table ([`mbac_sim::FlowTable`]) in
//! the calendar's own order, so the slot a survivor lands in is not a
//! contract; *which* flows are in the system, and when they leave, is.
//! These proptests drive two tables through randomized schedules of admissions, advances, departures and fused
//! measurement ticks — one admitting each model, the other the same
//! model with its kernel hidden ([`Unbatched`]) — and at every step
//! check:
//!
//! * **the set oracle** — each table against a brute-force model of the
//!   flows in the system (a `Vec<(id, departs_at)>` pruned with
//!   `retain`): sorted ids, `next_departure`, departure counts and
//!   conservation;
//! * **kernels ≡ the boxed path** — on schedules whose flows all come
//!   from one source model, the two tables bit for bit: snapshots, ids,
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
//!   `admit_process`), so one call expires flows of several groups;
//! * runs ([`FlowTable::admit_run`]) of 0 to 40 flows whose holds mix
//!   `INFINITY`, far-future and grid times, taking freed handles and
//!   fresh ones in one pass.
//!
//! Beside the proptests, twin tables hold a run to the single
//! admissions it replaces, bit for bit, for every kernel and the boxed
//! fallback; and an ignored probe times the `rcbr_large` ramp's
//! admissions both ways.

use mbac_num::rng::exponential;
use mbac_sim::FlowTable;
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::{SourceModel, Unbatched};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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
    /// Admit one run of `holds.len()` flows from model `which`, flow `i`
    /// holding as an `Admit` with `holds[i]` as `(hold_steps, far)`.
    AdmitRun { which: u8, holds: Vec<(u8, bool)> },
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
        match rng.gen_range(0u8..12) {
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
            9 | 10 => Op::FusedTick {
                steps: rng.gen_range(1u8..5),
            },
            _ => Op::AdmitRun {
                which: rng.gen_range(0u8..2),
                holds: (0..rng.gen_range(0usize..=40))
                    .map(|_| (rng.gen_range(0u8..12), rng.gen_range(0u8..10) == 0))
                    .collect(),
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
    /// Whether the two tables must agree bit for bit: only when every
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

/// Runs `ops` on both tables against the oracle. With `single_model`
/// set, every admission (boxed ones included) spawns from that model,
/// so the tables must also agree bit for bit.
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
    let (hidden_rcbr, hidden_ar1) = (Unbatched(&rcbr), Unbatched(&ar1));
    let hidden: [&dyn SourceModel; 2] = [&hidden_rcbr, &hidden_ar1];
    let mut h = Harness {
        batched: FlowTable::new(),
        unbatched: FlowTable::new(),
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
                let which = single_model.unwrap_or(which) as usize;
                let departs = h.hold(hold_steps, far);
                let id_a = h.batched.admit(models[which], departs, &mut h.rng_a);
                let id_b = h.unbatched.admit(hidden[which], departs, &mut h.rng_b);
                prop_assert_eq!(id_a, id_b);
                h.oracle.push((id_a, departs));
            }
            Op::AdmitRun { which, ref holds } => {
                let which = single_model.unwrap_or(which) as usize;
                let departs: Vec<f64> = holds.iter().map(|&(s, far)| h.hold(s, far)).collect();
                let k = departs.len();
                let mut times_a = departs.iter().copied();
                let mut times_b = departs.iter().copied();
                let ids_a = h
                    .batched
                    .admit_run(models[which], k, &mut h.rng_a, |_| times_a.next().unwrap());
                let ids_b = h
                    .unbatched
                    .admit_run(hidden[which], k, &mut h.rng_b, |_| times_b.next().unwrap());
                prop_assert_eq!(ids_a.clone(), ids_b);
                prop_assert_eq!(ids_a.end - ids_a.start, k as u64);
                h.oracle.extend(ids_a.zip(departs));
            }
            Op::AdmitBoxed { hold_steps } => {
                let departs = h.hold(hold_steps, false);
                let (id_a, id_b) = match single_model {
                    Some(m) => (
                        h.batched.admit(models[m as usize], departs, &mut h.rng_a),
                        h.unbatched.admit(hidden[m as usize], departs, &mut h.rng_b),
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
    /// Mixed groups: both tables hold exactly the oracle's flows at
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

/// A hold drawn from the flow's own stream: `INFINITY`, a far-future
/// time or a time on the 0.5 grid past `now` (so equal times collide).
fn drawn_hold(now: f64, rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u8..6) {
        0 => f64::INFINITY,
        1 => now + 1.0e6 + rng.gen_range(0u8..4) as f64 * 0.5,
        _ => now + rng.gen_range(1u8..8) as f64 * 0.5,
    }
}

/// Twin tables, one admitting flow by flow and one in runs, through
/// rounds of admissions, advances and drains: the same ids, snapshot
/// bits, next departure, RNG end state and invariants at every step.
/// Each hold is drawn from the RNG right before its flow's state, so a
/// run that drew its holds in any other order would diverge at once.
fn assert_runs_are_their_admits(label: &str, model: &dyn SourceModel, seed: u64) {
    let mut single = FlowTable::new();
    let mut runs = FlowTable::new();
    let (mut rng_single, mut rng_runs) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let (mut snap_single, mut snap_runs) = (Vec::new(), Vec::new());
    let mut now = 0.0;
    for (round, k) in [0, 1, 7, 40, 3, 25, 1, 12].into_iter().enumerate() {
        let at = format!("{label}, round {round}");
        let mut want = Vec::new();
        for _ in 0..k {
            let departs = drawn_hold(now, &mut rng_single);
            want.push(single.admit(model, departs, &mut rng_single));
        }
        let got = runs.admit_run(model, k, &mut rng_runs, |rng| drawn_hold(now, rng));
        assert_eq!(got.collect::<Vec<u64>>(), want, "{at}: ids");
        for table in [&single, &runs] {
            table.check_invariants();
        }
        single.snapshot_into(&mut snap_single);
        runs.snapshot_into(&mut snap_runs);
        assert_eq!(snap_single, snap_runs, "{at}: snapshot");
        assert_eq!(single.ids(), runs.ids(), "{at}: slot order");
        assert_eq!(single.next_departure(), runs.next_departure(), "{at}");
        assert_eq!(rng_single, rng_runs, "{at}: RNG state");
        // Advance and drain, so later runs reuse freed handles.
        now += 1.5;
        assert_eq!(
            single.advance_depart_measure(now, &mut rng_single, 1.0),
            runs.advance_depart_measure(now, &mut rng_runs, 1.0),
            "{at}: moments"
        );
    }
    assert!(runs.departed_total() > 0, "{label}: no departure exercised");
    assert_eq!(rng_single, rng_runs, "{label}: RNG end state");
}

#[test]
fn a_run_is_its_admits_bit_for_bit() {
    let ar1 = Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.05,
        clamp_at_zero: true,
    });
    let models: [(&str, Box<dyn SourceModel>); 4] = [
        (
            "gaussian rcbr",
            Box::new(RcbrModel::new(RcbrConfig::paper_default(1.0))),
        ),
        (
            "general rcbr",
            Box::new(RcbrModel::with_marginal(
                Marginal::uniform_with_moments(1.0, 0.3),
                2.0,
            )),
        ),
        ("on-off", Box::new(RcbrModel::on_off(2.0, 1.0, 3.0))),
        ("ar1", Box::new(ar1)),
    ];
    for (m, (name, model)) in models.iter().enumerate() {
        let seed = 60 + m as u64;
        let label = format!("{name}, batched");
        assert_runs_are_their_admits(&label, model.as_ref(), seed);
        let label = format!("{name}, unbatched");
        assert_runs_are_their_admits(&label, &Unbatched(model.as_ref()), seed);
    }
}

/// The paired admission-time probe: `rcbr_large`'s ramp (capacity
/// 2.5·10⁵ flows of mean 1, each tick admitting up to 10 % of the table,
/// at least one, exponential holds of 100) admitted in one run per tick
/// against one `admit` per flow, in alternating pairs (ABBA, so drift
/// within a pair cancels). Prints each side's ns per admitted flow,
/// median over ten pairs. Run in release: `cargo test --release -p
/// mbac-sim --test churn ramp_admission -- --ignored --nocapture`.
#[test]
#[ignore = "timing probe; run in release"]
fn ramp_admission_time_runs_against_single_admits() {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let limit = 250_000;
    let ramp = |in_runs: bool| {
        let mut table = FlowTable::new();
        let mut rng = StdRng::seed_from_u64(24301);
        let start = Instant::now();
        let mut t = 0.0;
        while table.len() < limit {
            t += 0.05;
            let k = (limit - table.len()).min((table.len() / 10).max(1));
            let departs = |rng: &mut StdRng| t + exponential(rng, 100.0);
            if in_runs {
                table.admit_run(&model, k, &mut rng, departs);
            } else {
                for _ in 0..k {
                    let d = departs(&mut rng);
                    table.admit(&model, d, &mut rng);
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / table.len() as f64;
        (ns, rng.gen::<u64>())
    };
    let (mut runs, mut single) = (Vec::new(), Vec::new());
    for pair in 0..10 {
        let (a, b) = if pair % 2 == 0 {
            let a = ramp(true);
            (a, ramp(false))
        } else {
            let b = ramp(false);
            (ramp(true), b)
        };
        assert_eq!(a.1, b.1, "the two ramps drew differently");
        runs.push(a.0);
        single.push(b.0);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        (v[4] + v[5]) / 2.0
    };
    eprintln!(
        "rcbr_large ramp admission: {:.1} ns/flow in runs, {:.1} ns/flow one admit per flow (medians of 10 pairs)",
        median(&mut runs),
        median(&mut single)
    );
}
