//! Deterministic parallelism over a **persistent** worker pool.
//!
//! Simulation points and Monte Carlo replications are independent and
//! CPU-bound. The original implementation forked a fresh
//! `std::thread::scope` per call, which made replication fan-out
//! flat-to-negative on short sessions: thread spawn/join cost rivals the
//! work itself when a replication takes tens of microseconds. This
//! version keeps a lazily-spawned pool of workers alive for the life of
//! the process and hands each call's index space to the participants as
//! chunked deques with work stealing:
//!
//! * the index range `0..n` is split into one contiguous deque per
//!   participant; owners pop chunks from the front, idle participants
//!   steal half of the largest remaining deque from the back, so uneven
//!   per-item costs still balance;
//! * the **caller participates** as worker 0. A call therefore
//!   completes even if every pool thread is busy with another session,
//!   and nested `parallel_map` calls cannot deadlock;
//! * results are merged **in input order** by index, so reports are
//!   byte-identical for any worker count — the contract the replication
//!   harnesses property-test.
//!
//! This lives in `mbac-num` (the dependency-free substrate crate) so
//! that both the simulator's replication sharding and the experiment
//! sweeps can reach it.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Work-accounting for one participant slot of one [`parallel_map_with`]
/// call: how many items it processed, how it obtained them, and how long
/// it was busy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this participant evaluated.
    pub items: u64,
    /// Chunks popped from the participant's own deque.
    pub own_chunks: u64,
    /// Chunks stolen from another participant's deque.
    pub steals: u64,
    /// Wall time this participant spent inside the call (claim + work).
    pub busy_ns: u64,
}

impl WorkerStats {
    /// Elementwise accumulate (commutative and associative, so merged
    /// snapshots are independent of merge order).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.items += other.items;
        self.own_chunks += other.own_chunks;
        self.steals += other.steals;
        self.busy_ns += other.busy_ns;
    }
}

/// Aggregated work-accounting for one or more [`parallel_map_with_stats`]
/// calls, per participant slot. Slot 0 is always the caller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolCallStats {
    /// Per-slot stats, indexed by participant slot.
    pub workers: Vec<WorkerStats>,
    /// Wall time of the whole call (sum over calls when merged).
    pub elapsed_ns: u64,
}

impl PoolCallStats {
    /// Total items processed across all slots.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Fraction of the call's wall time slot `slot` was busy, in
    /// `[0, 1]`-ish (clock jitter can nudge it past 1).
    pub fn utilization(&self, slot: usize) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.workers
            .get(slot)
            .map_or(0.0, |w| w.busy_ns as f64 / self.elapsed_ns as f64)
    }

    /// Accumulates another call's stats slot-by-slot. All fields are
    /// sums of non-negative integers, so any merge order produces the
    /// same result — the invariance the metrics snapshot test pins.
    pub fn merge(&mut self, other: &PoolCallStats) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (slot, w) in other.workers.iter().enumerate() {
            self.workers[slot].merge(w);
        }
        self.elapsed_ns += other.elapsed_ns;
    }
}

/// Applies `f` to every item, running up to `available_parallelism`
/// workers, and returns the outputs in input order.
///
/// `f` must be `Sync` (it is shared across workers); items are consumed
/// by index so no cloning occurs.
pub fn parallel_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_with(items, f, default_workers())
}

/// The default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

thread_local! {
    /// The count [`with_workers`] installed on this thread, if any.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with [`current_workers`] answering `workers` on this
/// thread — how a session hands its worker count to the fan-outs the
/// code it drives starts, without threading it through every call.
/// The previous value is restored when `f` returns or unwinds.
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(INSTALLED.with(|w| w.replace(Some(workers))));
    f()
}

/// The worker count for a fan-out started on this thread: the innermost
/// [`with_workers`], else [`default_workers`] (resolved once).
pub fn current_workers() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    INSTALLED
        .with(Cell::get)
        .unwrap_or_else(|| *DEFAULT.get_or_init(default_workers))
}

/// Applies `f` to every item in place, running up to `workers`
/// participants (the caller is one), and returns when all are done —
/// the `&mut` counterpart of [`parallel_map_with`], on the same pool
/// and with the same work distribution. `workers == 1` runs inline, in
/// order. Each item is visited exactly once, by one participant.
pub fn for_each_mut<T, F>(items: &mut [T], f: F, workers: usize)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if workers == 1 || items.len() < 2 {
        items.iter_mut().for_each(f);
        return;
    }
    // An uncontended lock per item hands its `&mut` to whichever
    // participant claims the index.
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let run = |cell: &Mutex<&mut T>| {
        f(&mut cell
            .lock()
            .expect("only the claiming participant locks an item"))
    };
    parallel_map_with(cells, run, workers);
}

/// As [`parallel_map`] with an explicit worker count. `workers == 1`
/// runs inline on the caller; output is identical for any count.
pub fn parallel_map_with<I, O, F>(items: Vec<I>, f: F, workers: usize) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_with_stats(items, f, workers).0
}

/// As [`parallel_map_with`], also returning per-worker accounting for
/// the call: items, own-deque chunks, steals, and busy time per slot.
/// The outputs are identical to the stat-less entry points.
pub fn parallel_map_with_stats<I, O, F>(
    items: Vec<I>,
    f: F,
    workers: usize,
) -> (Vec<O>, PoolCallStats)
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(workers > 0);
    let started = Instant::now();
    let n = items.len();
    if n == 0 {
        return (Vec::new(), PoolCallStats::default());
    }
    let participants = workers.min(n);
    if participants == 1 {
        // Single participant: no shared state, no synchronization.
        let out: Vec<O> = items.iter().map(f).collect();
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let stats = PoolCallStats {
            workers: vec![WorkerStats {
                items: n as u64,
                own_chunks: 1,
                steals: 0,
                busy_ns: elapsed_ns,
            }],
            elapsed_ns,
        };
        return (out, stats);
    }

    let shared = Shared {
        items: &items,
        f: &f,
        deques: split_deques(n, participants),
        chunk: (n / (participants * 8)).max(1),
        results: Mutex::new(Vec::with_capacity(n)),
        stats: Mutex::new(vec![WorkerStats::default(); participants]),
        panic: Mutex::new(None),
        poisoned: AtomicBool::new(false),
        finished: Mutex::new(0),
        finished_cv: Condvar::new(),
    };

    // Offer the remaining participant slots to the pool, then do our own
    // share (and steal the slots nobody picked up).
    let job = JobMsg {
        ctx: (&shared as *const Shared<'_, I, O, F>).cast(),
        enter: enter_erased::<I, O, F>,
        next_slot: 1,
        slots_end: participants,
    };
    let handle = pool().submit(job, participants - 1);
    shared.run_participant(0);
    let entered = pool().retire(handle);

    // Wait for every pool participant that entered to leave `shared`
    // before it goes out of scope (they hold references into our stack).
    {
        let mut done = shared.finished.lock().unwrap();
        while *done < entered {
            done = shared.finished_cv.wait(done).unwrap();
        }
    }

    if let Some(payload) = shared.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }

    // Deterministic input-order merge: slot the (index, output) pairs.
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, out) in shared.results.into_inner().unwrap() {
        slots[i] = Some(out);
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect();
    let stats = PoolCallStats {
        workers: shared.stats.into_inner().unwrap(),
        elapsed_ns: started.elapsed().as_nanos() as u64,
    };
    (out, stats)
}

/// Initial contiguous split of `0..n` into one deque per participant.
fn split_deques(n: usize, participants: usize) -> Vec<Mutex<Range<usize>>> {
    (0..participants)
        .map(|p| {
            let lo = p * n / participants;
            let hi = (p + 1) * n / participants;
            Mutex::new(lo..hi)
        })
        .collect()
}

/// Per-call shared state, living on the caller's stack. Pool workers
/// reach it through a type-erased pointer; the caller's completion latch
/// guarantees it outlives every participant.
struct Shared<'a, I, O, F> {
    items: &'a [I],
    f: &'a F,
    /// One chunked index deque per participant (owner pops the front,
    /// thieves split the back).
    deques: Vec<Mutex<Range<usize>>>,
    /// Owner-side chunk size.
    chunk: usize,
    /// Completed `(index, output)` pairs from all participants.
    results: Mutex<Vec<(usize, O)>>,
    /// Per-slot work accounting, written once per participant on exit.
    stats: Mutex<Vec<WorkerStats>>,
    /// First panic payload observed in any participant.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set when a participant panicked: others drain quickly.
    poisoned: AtomicBool,
    /// Count of *pool* participants that have fully left `Shared`.
    finished: Mutex<usize>,
    finished_cv: Condvar,
}

impl<I, O, F> Shared<'_, I, O, F>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    /// Claims the next chunk of work for `slot`: the front of its own
    /// deque, else half of the fullest other deque (stolen off the back).
    /// Records the claim (own pop vs steal) into `acct`.
    fn claim(&self, slot: usize, acct: &mut WorkerStats) -> Option<Range<usize>> {
        {
            let mut own = self.deques[slot].lock().unwrap();
            if !own.is_empty() {
                let take = self.chunk.min(own.len());
                let r = own.start..own.start + take;
                own.start += take;
                acct.own_chunks += 1;
                return Some(r);
            }
        }
        // Steal: pick the victim with the most remaining work so the
        // split keeps both sides busy longest.
        loop {
            let victim = (0..self.deques.len())
                .filter(|&v| v != slot)
                .max_by_key(|&v| self.deques[v].lock().unwrap().len())?;
            let mut d = self.deques[victim].lock().unwrap();
            if d.is_empty() {
                // Lost the race; rescan unless everything is empty.
                drop(d);
                if self.deques.iter().all(|d| d.lock().unwrap().is_empty()) {
                    return None;
                }
                continue;
            }
            let take = d.len().div_ceil(2);
            let r = d.end - take..d.end;
            d.end -= take;
            acct.steals += 1;
            return Some(r);
        }
    }

    fn run_participant(&self, slot: usize) {
        let entered = Instant::now();
        let mut acct = WorkerStats::default();
        let mut produced: Vec<(usize, O)> = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            while let Some(range) = self.claim(slot, &mut acct) {
                acct.items += range.len() as u64;
                for i in range {
                    produced.push((i, (self.f)(&self.items[i])));
                }
                if self.poisoned.load(Ordering::Relaxed) {
                    break;
                }
            }
        }));
        if let Err(payload) = outcome {
            self.poisoned.store(true, Ordering::Relaxed);
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        self.results.lock().unwrap().extend(produced);
        acct.busy_ns = entered.elapsed().as_nanos() as u64;
        self.stats.lock().unwrap()[slot] = acct;
    }

    /// Pool-worker epilogue: record completion and wake the caller.
    fn finish_pool_participant(&self) {
        let mut done = self.finished.lock().unwrap();
        *done += 1;
        self.finished_cv.notify_all();
    }
}

/// Monomorphized entry point a pool worker calls through the erased
/// function pointer.
///
/// # Safety
/// `ctx` must point at a live `Shared<I, O, F>`; the caller's latch in
/// `parallel_map_with` keeps it alive until this returns.
unsafe fn enter_erased<I, O, F>(ctx: *const (), slot: usize)
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let shared = &*ctx.cast::<Shared<'_, I, O, F>>();
    shared.run_participant(slot);
    shared.finish_pool_participant();
}

/// A type-erased offer of participant slots in one `parallel_map` call.
struct JobMsg {
    ctx: *const (),
    enter: unsafe fn(*const (), usize),
    /// Next participant slot a pool worker would take.
    next_slot: usize,
    /// One past the last slot (`participants`).
    slots_end: usize,
}

// Safety: `ctx` is only dereferenced through `enter`, and the submitting
// caller blocks until every worker that claimed a slot has finished.
unsafe impl Send for JobMsg {}

/// Handle identifying a submitted job in the pool queue.
struct JobHandle {
    id: u64,
}

struct QueuedJob {
    id: u64,
    msg: JobMsg,
    /// Pool participants that claimed a slot (never un-claims).
    claimed: usize,
}

struct PoolState {
    queue: Vec<QueuedJob>,
    next_id: u64,
    spawned: usize,
    idle: usize,
}

/// The process-wide persistent pool: a job queue plus lazily spawned
/// workers that live for the life of the process.
struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    cap: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: Vec::new(),
            next_id: 0,
            spawned: 0,
            idle: 0,
        }),
        work_cv: Condvar::new(),
        // Enough threads to saturate the machine with headroom for a few
        // concurrent sessions; oversubscription beyond this is pointless.
        cap: default_workers().max(16),
    })
}

impl Pool {
    /// Enqueues `extra_slots` participant slots for pool workers,
    /// growing the pool (up to its cap) if too few workers are idle.
    fn submit(&self, msg: JobMsg, extra_slots: usize) -> JobHandle {
        let mut st = self.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        if extra_slots > 0 {
            st.queue.push(QueuedJob {
                id,
                msg,
                claimed: 0,
            });
            let wanted = extra_slots.saturating_sub(st.idle);
            let grow = wanted.min(self.cap.saturating_sub(st.spawned));
            for _ in 0..grow {
                st.spawned += 1;
                std::thread::Builder::new()
                    .name("mbac-pool".into())
                    .spawn(|| pool().worker_loop())
                    .expect("spawn pool worker");
            }
            drop(st);
            self.work_cv.notify_all();
        }
        JobHandle { id }
    }

    /// Removes the job from the queue (no further workers can claim a
    /// slot) and returns how many pool participants entered it.
    fn retire(&self, handle: JobHandle) -> usize {
        let mut st = self.state.lock().unwrap();
        match st.queue.iter().position(|j| j.id == handle.id) {
            Some(pos) => {
                let job = st.queue.swap_remove(pos);
                job.claimed
            }
            // Never enqueued (no extra slots were offered): nothing to
            // wait for. Enqueued jobs stay queued until this retire.
            None => 0,
        }
    }

    fn worker_loop(&self) {
        loop {
            let (enter, ctx, slot) = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(pos) = st
                        .queue
                        .iter()
                        .position(|j| j.msg.next_slot < j.msg.slots_end)
                    {
                        let job = &mut st.queue[pos];
                        let slot = job.msg.next_slot;
                        job.msg.next_slot += 1;
                        job.claimed += 1;
                        let enter = job.msg.enter;
                        let ctx = job.msg.ctx;
                        break (enter, ctx, slot);
                    }
                    st.idle += 1;
                    st = self.work_cv.wait(st).unwrap();
                    st.idle -= 1;
                }
            };
            // Safety: the submitting caller keeps `ctx` alive until its
            // completion latch sees this participant finish.
            unsafe { enter(ctx, slot) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches_sequential() {
        let items: Vec<i32> = (0..37).collect();
        let seq: Vec<i32> = items.iter().map(|&x| x - 3).collect();
        let par = parallel_map_with(items, |&x| x - 3, 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn more_workers_than_items() {
        let out = parallel_map_with(vec![1, 2, 3], |&x| x + 1, 64);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn output_independent_of_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        let run = |w: usize| parallel_map_with(items.clone(), |&x| x.wrapping_mul(x) ^ 0xA5, w);
        let one = run(1);
        for w in [2, 3, 4, 8] {
            assert_eq!(one, run(w), "worker count {w} changed the output");
        }
    }

    #[test]
    fn heavy_uneven_work_still_ordered() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(items, |&x| {
            // Uneven busy work.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn pool_is_reused_across_many_sessions() {
        // Hundreds of short sessions must not spawn hundreds of threads
        // (the old fork-join did); with the persistent pool the spawn
        // count is bounded by the pool cap.
        for round in 0..200 {
            let items: Vec<u64> = (0..8).collect();
            let out = parallel_map_with(items, |&x| x + round, 4);
            assert_eq!(out[3], 3 + round);
        }
        let spawned = pool().state.lock().unwrap().spawned;
        assert!(spawned <= pool().cap, "pool grew past its cap: {spawned}");
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let outer: Vec<u64> = (0..8).collect();
        let out = parallel_map_with(
            outer,
            |&x| {
                let inner: Vec<u64> = (0..8).collect();
                parallel_map_with(inner, |&y| x * 10 + y, 4)
                    .iter()
                    .sum::<u64>()
            },
            4,
        );
        for (i, &v) in out.iter().enumerate() {
            let want: u64 = (0..8).map(|y| (i as u64) * 10 + y).sum();
            assert_eq!(v, want);
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_on_any_worker_count() {
        for workers in [1, 2, 4] {
            let mut items: Vec<(u64, u32)> = (0..37).map(|i| (i, 0)).collect();
            for_each_mut(
                &mut items,
                |(x, visits)| {
                    *x = x.wrapping_mul(*x) ^ 0xA5;
                    *visits += 1;
                },
                workers,
            );
            for (i, &(x, visits)) in items.iter().enumerate() {
                let i = i as u64;
                assert_eq!(
                    (x, visits),
                    (i.wrapping_mul(i) ^ 0xA5, 1),
                    "workers {workers}"
                );
            }
        }
    }

    #[test]
    fn with_workers_scopes_the_current_count() {
        let outside = current_workers();
        let inner = with_workers(3, || {
            let nested = with_workers(1, current_workers);
            (current_workers(), nested)
        });
        assert_eq!(inner, (3, 1));
        assert_eq!(current_workers(), outside, "restored on return");
        let unwound = std::panic::catch_unwind(|| with_workers(5, || panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(current_workers(), outside, "restored on unwind");
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(
                (0..64).collect::<Vec<u64>>(),
                |&x| {
                    assert!(x != 13, "boom");
                    x
                },
                4,
            )
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn stats_account_for_every_item() {
        for workers in [1, 2, 4] {
            let items: Vec<u64> = (0..97).collect();
            let (out, stats) = parallel_map_with_stats(items, |&x| x * 2, workers);
            assert_eq!(out.len(), 97);
            assert_eq!(stats.total_items(), 97, "workers {workers}");
            assert_eq!(stats.workers.len(), workers.min(97));
            assert!(stats.elapsed_ns > 0);
            // Every item arrives via exactly one claimed chunk.
            let chunks: u64 = stats.workers.iter().map(|w| w.own_chunks + w.steals).sum();
            assert!(chunks >= 1);
        }
    }

    #[test]
    fn stats_merge_is_order_invariant() {
        let calls: Vec<PoolCallStats> = (0..6)
            .map(|k| {
                let items: Vec<u64> = (0..40 + k).collect();
                parallel_map_with_stats(items, |&x| x + k, 3).1
            })
            .collect();
        let mut forward = PoolCallStats::default();
        for c in &calls {
            forward.merge(c);
        }
        let mut backward = PoolCallStats::default();
        for c in calls.iter().rev() {
            backward.merge(c);
        }
        assert_eq!(forward, backward, "merge must be order-invariant");
        assert_eq!(
            forward.total_items(),
            calls.iter().map(|c| c.total_items()).sum::<u64>()
        );
    }

    #[test]
    fn concurrent_sessions_share_the_pool() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    s.spawn(move || {
                        let items: Vec<u64> = (0..40).collect();
                        parallel_map_with(items, move |&x| x + k, 3)
                    })
                })
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let out = h.join().unwrap();
                for (i, &v) in out.iter().enumerate() {
                    assert_eq!(v, i as u64 + k as u64);
                }
            }
        });
    }
}
