//! A hierarchical timing wheel over departure times — the flow table's
//! departure calendar.
//!
//! The legacy lifecycle kept one cached minimum per group and, on any
//! tick with a departure, rescanned every slot to apply expiries and
//! recompute the minimum — O(flows in system) per departing tick. At
//! 10⁶ concurrent flows with Poisson churn essentially *every* tick has
//! departures, so the simulator was O(N·ticks) again through the back
//! door. The calendar makes the lifecycle O(departures popped):
//!
//! * [`DepartureCalendar::schedule`] is O(1): quantize the absolute
//!   departure time to a bucket index and push a `(handle, time)` entry
//!   into the bucket at the level the index selects;
//! * [`DepartureCalendar::pop_until`] visits only the buckets whose
//!   time range has expired (plus cascades), never the live population;
//! * [`DepartureCalendar::peek_min`] reads the earliest non-empty
//!   bucket (found through per-level occupancy bitmasks) and folds the
//!   exact `f64` minimum over just that bucket's entries.
//!
//! ## Structure
//!
//! Times are quantized to `u64` units of `bucket_width` seconds. Level
//! `l` has 64 slots of width `64^l` units; an entry lives at the level
//! of the highest bit in which its quantized time differs from the
//! cursor (the classic hashed-wheel placement), so at any moment the
//! per-level slot ranges partition the future and the slot holding the
//! earliest entry is found by scanning levels bottom-up. With 11
//! levels the wheel covers the entire `u64` range — the hashed-wheel
//! "overflow" level is simply the top levels, and quantization
//! saturates there, so arbitrarily far-future *finite* times need no
//! side table. `INFINITY` (a flow that never departs, e.g. the
//! impulsive harness's persistent sources) is counted but never stored:
//! it cannot expire, and [`DepartureCalendar::peek_min`] reports
//! `INFINITY` when only such entries remain — exactly the legacy
//! cached-minimum semantics.
//!
//! When the cursor crosses a higher-level slot, that slot's entries
//! cascade down toward level 0; each entry cascades at most
//! `LEVELS` times over its lifetime, so scheduling stays amortized
//! O(1).
//!
//! The buckets are one flat array, allocated by the first `schedule`.
//! Until then every occupancy mask is zero, so `peek_min` and
//! `pop_until` never reach for a bucket, and a calendar whose flows all
//! hold forever (an impulsive replication's) costs no allocation.
//!
//! ## Correctness does not depend on quantization
//!
//! Floating-point bucket math only *places* entries; expiry always
//! compares the exact stored `f64` against the exact query time. A
//! level-0 bucket reached by the cursor is filtered entry by entry:
//! whatever has `t ≤ now` pops, the rest is re-filed (clamped to the
//! cursor) and re-examined on a later call. Quantization monotonicity
//! (`t₁ ≤ t₂ ⇒ q(t₁) ≤ q(t₂)`, which `floor` of a monotone map
//! guarantees) is what makes the earliest-bucket minimum the *global*
//! minimum; nothing else is assumed about the mapping.

/// One scheduled departure: a stable flow handle (slot-map index owned
/// by the flow table) plus the exact absolute departure time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalendarEntry {
    /// Stable handle resolved through the owner's slot map.
    pub handle: u32,
    /// Exact absolute departure time (finite).
    pub departs_at: f64,
}

/// Slots per level (fixed at 64 so occupancy is one `u64` bitmask).
const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;
/// ceil(64 / 6): enough levels to cover the full `u64` index range.
const LEVELS: usize = 11;

/// Default level-0 bucket width in simulated seconds — a quarter time
/// unit, matching the canonical tick of the paper-scale simulations so
/// a level-0 bucket drains in about one tick. The width only shapes
/// constant factors (bucket occupancy vs cascade depth), never results.
pub const DEFAULT_BUCKET_WIDTH: f64 = 0.25;

/// Hierarchical timing wheel keyed on absolute departure times.
pub struct DepartureCalendar {
    /// `LEVELS × SLOTS` buckets, bucket `(level, slot)` at
    /// `level * SLOTS + slot`; entries are unordered within a bucket.
    /// Empty until the first `schedule`: a table whose flows all hold
    /// forever never files one, and the occupancy masks keep every
    /// lookup off the buckets while the wheel is empty.
    buckets: Vec<Vec<CalendarEntry>>,
    /// Per-level occupancy bitmask (bit `s` set ⇔ bucket `(l, s)` is
    /// non-empty) for O(1) earliest-slot lookup.
    occupied: [u64; LEVELS],
    /// Quantized current time; only ever advances.
    cursor: u64,
    /// Inverse bucket width, precomputed for the quantization divide.
    inv_width: f64,
    /// Finite entries currently scheduled.
    len: usize,
    /// Scratch for level-0 entries that outlive their popped bucket.
    leftovers: Vec<CalendarEntry>,
}

impl DepartureCalendar {
    /// An empty calendar with [`DEFAULT_BUCKET_WIDTH`].
    pub fn new() -> Self {
        Self::with_bucket_width(DEFAULT_BUCKET_WIDTH)
    }

    /// An empty calendar with level-0 buckets of `width` seconds.
    pub fn with_bucket_width(width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "bucket width must be positive and finite, got {width}"
        );
        DepartureCalendar {
            buckets: Vec::new(),
            occupied: [0; LEVELS],
            cursor: 0,
            inv_width: width.recip(),
            len: 0,
            leftovers: Vec::new(),
        }
    }

    /// Finite entries currently scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no finite entry is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buckets have been allocated (by a first `schedule`).
    #[cfg(test)]
    pub(crate) fn has_buckets(&self) -> bool {
        !self.buckets.is_empty()
    }

    /// Every scheduled entry, in no particular order (the flow table's
    /// invariant check reads departure times here, the only place they
    /// are kept). O(buckets + entries).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &CalendarEntry> {
        self.buckets.iter().flatten()
    }

    /// Quantizes an absolute time, clamped so entries never land behind
    /// the cursor (`as` saturates at `u64::MAX` for far-future times,
    /// which simply parks them in the top level).
    #[inline]
    fn quantize(&self, t: f64) -> u64 {
        ((t * self.inv_width) as u64).max(self.cursor)
    }

    /// The level an index belongs to, relative to the cursor: the
    /// highest differing slot digit (level 0 when equal).
    #[inline]
    fn level_for(&self, q: u64) -> usize {
        let differing = self.cursor ^ q;
        if differing == 0 {
            0
        } else {
            (63 - differing.leading_zeros() as usize) / SLOT_BITS as usize
        }
    }

    #[inline]
    fn slot_of(q: u64, level: usize) -> usize {
        ((q >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
    }

    #[inline]
    fn bucket(&mut self, level: usize, slot: usize) -> &mut Vec<CalendarEntry> {
        &mut self.buckets[level * SLOTS + slot]
    }

    #[inline]
    fn file(&mut self, entry: CalendarEntry) {
        let q = self.quantize(entry.departs_at);
        let level = self.level_for(q);
        let slot = Self::slot_of(q, level);
        self.bucket(level, slot).push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Schedules a departure at exact absolute time `departs_at`
    /// (finite; the caller keeps `INFINITY` flows out of the calendar —
    /// they cannot expire). O(1).
    pub fn schedule(&mut self, handle: u32, departs_at: f64) {
        debug_assert!(
            departs_at.is_finite(),
            "INFINITY never expires and must not be scheduled"
        );
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); LEVELS * SLOTS];
        }
        self.len += 1;
        self.file(CalendarEntry { handle, departs_at });
    }

    /// The earliest occupied bucket as `(level, slot, start_index)`, or
    /// `None` when the wheel is empty. Levels partition the future into
    /// disjoint, ascending ranges (see module docs), so the bottom-most
    /// occupied level's first occupied slot is globally earliest.
    fn earliest_bucket(&self) -> Option<(usize, usize, u64)> {
        for level in 0..LEVELS {
            let shift = SLOT_BITS as usize * level;
            let cursor_slot = Self::slot_of(self.cursor, level);
            // Entries at this level are never behind the cursor's slot;
            // the current slot itself is live only at level 0 (higher
            // levels would have cascaded it).
            let mask = if level == 0 {
                u64::MAX << cursor_slot
            } else {
                u64::MAX << cursor_slot << 1
            };
            let hits = self.occupied[level] & mask;
            if hits != 0 {
                let slot = hits.trailing_zeros() as usize;
                let above = SLOT_BITS as usize * (level + 1);
                let base = if above >= 64 {
                    0
                } else {
                    (self.cursor >> above) << above
                };
                return Some((level, slot, base + ((slot as u64) << shift)));
            }
        }
        None
    }

    /// The exact minimum scheduled departure time, or `INFINITY` when
    /// the calendar is empty. O(levels + entries in the earliest
    /// bucket).
    pub fn peek_min(&self) -> f64 {
        match self.earliest_bucket() {
            None => f64::INFINITY,
            Some((level, slot, _)) => self.buckets[level * SLOTS + slot]
                .iter()
                .map(|e| e.departs_at)
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Pops every entry with `departs_at ≤ t` into `expired` (bucket by
    /// bucket: a deterministic order the flow table removes flows in),
    /// advancing the cursor. O(entries popped + buckets cascaded),
    /// independent of the live population.
    pub fn pop_until(&mut self, t: f64, expired: &mut Vec<CalendarEntry>) {
        let target = self.quantize(t);
        debug_assert!(self.leftovers.is_empty());
        while let Some((level, slot, start)) = self.earliest_bucket() {
            if start > target {
                break;
            }
            // Advance to the bucket before redistributing so cascaded
            // entries re-file *below* this level and terminate.
            self.cursor = self.cursor.max(start);
            let mut bucket = std::mem::take(self.bucket(level, slot));
            self.occupied[level] &= !(1 << slot);
            if level == 0 {
                for entry in bucket.drain(..) {
                    if entry.departs_at <= t {
                        self.len -= 1;
                        expired.push(entry);
                    } else {
                        // Not yet due (same bucket as `t`, or a time
                        // whose quantization rounded down): survives,
                        // re-filed after the sweep so this loop cannot
                        // revisit it.
                        self.leftovers.push(entry);
                    }
                }
            } else {
                for entry in bucket.drain(..) {
                    self.file(entry);
                }
            }
            *self.bucket(level, slot) = bucket;
        }
        self.cursor = self.cursor.max(target);
        while let Some(entry) = self.leftovers.pop() {
            self.file(entry);
        }
    }
}

impl Default for DepartureCalendar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cal: &mut DepartureCalendar, t: f64) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        cal.pop_until(t, &mut out);
        let mut pairs: Vec<(u32, f64)> = out.iter().map(|e| (e.handle, e.departs_at)).collect();
        pairs.sort_by_key(|p| p.0);
        pairs
    }

    #[test]
    fn schedules_and_pops_in_time_windows() {
        let mut cal = DepartureCalendar::new();
        cal.schedule(0, 1.0);
        cal.schedule(1, 2.5);
        cal.schedule(2, 0.25);
        cal.schedule(3, 700.0);
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.peek_min(), 0.25);
        assert_eq!(drain(&mut cal, 1.0), vec![(0, 1.0), (2, 0.25)]);
        assert_eq!(cal.peek_min(), 2.5);
        assert_eq!(drain(&mut cal, 2.0), vec![]);
        assert_eq!(drain(&mut cal, 1000.0), vec![(1, 2.5), (3, 700.0)]);
        assert!(cal.is_empty());
        assert_eq!(cal.peek_min(), f64::INFINITY);
    }

    #[test]
    fn expiry_is_inclusive_and_exact() {
        let mut cal = DepartureCalendar::new();
        cal.schedule(7, 3.0);
        // Just below the departure time: nothing pops, min intact.
        assert_eq!(drain(&mut cal, 3.0 - 1e-12), vec![]);
        assert_eq!(cal.peek_min(), 3.0);
        // Exactly at it: pops (the table's `departs_at <= t` contract).
        assert_eq!(drain(&mut cal, 3.0), vec![(7, 3.0)]);
    }

    #[test]
    fn duplicate_times_all_pop_together() {
        let mut cal = DepartureCalendar::new();
        for h in 0..5 {
            cal.schedule(h, 2.5);
        }
        assert_eq!(cal.peek_min(), 2.5);
        assert_eq!(drain(&mut cal, 2.5).len(), 5);
    }

    #[test]
    fn far_future_times_cascade_down_correctly() {
        let mut cal = DepartureCalendar::new();
        // Spread across every level, including a time that saturates
        // quantization into the top level.
        let times = [0.3, 17.0, 1_000.0, 65_000.0, 4.2e6, 2.7e8, 1.0e18, 9.0];
        for (h, &t) in times.iter().enumerate() {
            cal.schedule(h as u32, t);
        }
        let mut sorted = times;
        sorted.sort_by(f64::total_cmp);
        assert_eq!(cal.peek_min(), sorted[0]);
        // Pop strictly between each pair of consecutive times.
        let mut popped = Vec::new();
        for &t in &sorted {
            let got = drain(&mut cal, t);
            assert_eq!(got.len(), 1, "at t = {t}: {got:?}");
            assert_eq!(got[0].1, t);
            popped.push(got[0].1);
        }
        assert_eq!(popped, sorted);
        assert!(cal.is_empty());
    }

    #[test]
    fn peek_min_sees_near_term_entry_after_cursor_advance() {
        let mut cal = DepartureCalendar::new();
        cal.schedule(0, 100.0);
        drain(&mut cal, 50.0);
        // Scheduling "behind" coarse bucket boundaries after the cursor
        // moved must still be found first.
        cal.schedule(1, 51.0);
        assert_eq!(cal.peek_min(), 51.0);
        assert_eq!(drain(&mut cal, 60.0), vec![(1, 51.0)]);
        assert_eq!(cal.peek_min(), 100.0);
    }

    #[test]
    fn mixed_bucket_survivors_are_refiled_not_lost() {
        let mut cal = DepartureCalendar::with_bucket_width(1.0);
        // Same level-0 bucket, either side of the query time.
        cal.schedule(0, 5.2);
        cal.schedule(1, 5.8);
        assert_eq!(drain(&mut cal, 5.5), vec![(0, 5.2)]);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_min(), 5.8);
        assert_eq!(drain(&mut cal, 5.8), vec![(1, 5.8)]);
    }

    /// Drives `cal` from time `now` through a deterministic pseudo-random
    /// schedule and checks every pop, minimum and length against a
    /// sorted-vec oracle.
    fn check_against_oracle(cal: &mut DepartureCalendar, mut now: f64) {
        let mut oracle: Vec<(u32, f64)> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut next_handle = 0u32;
        for step in 0..2000 {
            if step % 3 != 2 {
                // Admit with an irregular holding time; occasionally
                // far-future, occasionally duplicate-at-now.
                let hold = match step % 7 {
                    0 => 0.0,
                    1 => 1e6 * rand(),
                    _ => 20.0 * rand(),
                };
                cal.schedule(next_handle, now + hold);
                oracle.push((next_handle, now + hold));
                next_handle += 1;
            } else {
                now += 2.0 * rand();
                let mut got = drain(cal, now);
                got.sort_by_key(|p| p.0);
                let mut want: Vec<(u32, f64)> =
                    oracle.iter().copied().filter(|&(_, t)| t <= now).collect();
                want.sort_by_key(|p| p.0);
                oracle.retain(|&(_, t)| t > now);
                assert_eq!(got, want, "step {step}, now {now}");
            }
            let want_min = oracle.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
            assert_eq!(cal.peek_min(), want_min, "step {step}");
            assert_eq!(cal.len(), oracle.len());
        }
    }

    #[test]
    fn brute_force_equivalence_on_an_irregular_schedule() {
        check_against_oracle(&mut DepartureCalendar::new(), 0.0);
    }

    /// Pops on a calendar that has never scheduled move its cursor but
    /// allocate nothing; the wheel it allocates on the first schedule,
    /// far from time zero, still matches the oracle.
    #[test]
    fn a_wheel_first_scheduled_after_empty_pops_matches_the_oracle() {
        let mut cal = DepartureCalendar::new();
        for t in [0.0, 3.7, 1_000.0, 65_000.5] {
            assert_eq!(drain(&mut cal, t), vec![]);
            assert_eq!(cal.peek_min(), f64::INFINITY);
        }
        assert!(!cal.has_buckets(), "an empty calendar allocated");
        check_against_oracle(&mut cal, 65_000.5);
        assert!(cal.has_buckets());
    }
}
