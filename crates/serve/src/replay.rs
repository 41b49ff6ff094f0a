//! Workload replay: one driver, two ways to apply a window.
//!
//! The driver is generic over a [`Replay`] workload — a window of a run
//! generated by `mbac_sim`'s window generator ([`SnapshotWindow`] on
//! the single-hop plane, [`mbac_sim::RoutedWindow`] on the two-phase
//! one) — and produces one decision sequence per link or route. It owns
//! the plane, the stamping rules and the sinks for a whole run and is
//! handed the run a window at a time (see `mbac_sim::Windows`). Its
//! serial step is the correctness oracle: one shard, no threads, events
//! applied in the window's own order. Its threaded step is the
//! production shape: producer threads push each link's events through
//! the lock-free ingest rings, a consumer thread per shard drains and
//! decides, and all are joined at the window's end. [`replay_serial`]
//! and [`replay_threaded`] drive one workload as one window. The
//! invariance suites hold both steps, at any shard/producer count and
//! window length, to the materialised runs of the crate's hidden
//! `compat` module, byte for byte.
//!
//! The driver keeps no decision: each goes to a `DecisionSink` as it is
//! made ([`crate::sink`]). The public entry points collect them per
//! sequence; the closed-loop bench tallies them.

use crate::plane::{
    check_producers, ControllerFactory, Decision, DecisionPlane, IngestHandle, LinkLogic, Plane,
    PlaneConfig, ServeError, ShardEvent, ShardOf, SingleHop,
};
use crate::sink::{Collect, Decided, DecisionSink, Replayed};
use mbac_metrics::{splitmix64, MetricsSnapshot};
use mbac_num::parallel::{current_workers, with_workers};
use mbac_sim::{LinkId, SnapshotWindow, Windows};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Replay configuration: the plane shape plus driver parallelism.
#[derive(Debug, Clone)]
pub struct ReplayConfig<P = PlaneConfig> {
    /// Plane configuration (shards, ring size, metrics mode, and for
    /// the single-hop plane the link capacity).
    pub plane: P,
    /// Producer threads feeding the rings (threaded replay only). Links
    /// are partitioned `link % producers`, so each link's events keep a
    /// single producer and therefore their per-link order.
    pub producers: usize,
    /// Stamp each request at enqueue time so decisions carry
    /// ingest-to-decision latency (machine-dependent; bench mode).
    pub stamp_latency: bool,
}

impl<P> ReplayConfig<P> {
    /// `stamp_latency` as a stamping rule: every request, or none.
    fn stamps(&self) -> Stamps {
        if self.stamp_latency {
            Stamps::ALL
        } else {
            Stamps::NONE
        }
    }
}

impl<P: Default> Default for ReplayConfig<P> {
    fn default() -> Self {
        ReplayConfig {
            plane: P::default(),
            producers: 1,
            stamp_latency: false,
        }
    }
}

/// What a replay produced: the decision sequences plus totals and the
/// plane's metrics snapshot.
#[derive(Debug)]
pub struct ReplayOutcome<D = Decision> {
    /// One decision sequence per link (single-hop) or route (two-phase,
    /// one decision per request, not per hop), indexed by its id, in
    /// decision order.
    pub sequences: Vec<Vec<D>>,
    /// Total decisions made.
    pub decisions: u64,
    /// Total admits.
    pub admitted: u64,
    /// Wall-clock time of the replay (producers + consumers, end to
    /// end).
    pub elapsed: Duration,
    /// The plane's merged `serve.shard<i>.*` / `net.link<j>.*` bundle.
    pub snapshot: MetricsSnapshot,
}

impl<D: Decided> ReplayOutcome<D> {
    /// Total rejects.
    pub fn rejected(&self) -> u64 {
        self.decisions - self.admitted
    }

    /// The canonical byte encoding of one decision sequence (what the
    /// invariance suites compare).
    pub fn encode(&self, group: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for d in &self.sequences[group] {
            d.encode_into(&mut out);
        }
        out
    }

    /// All recorded ingest-to-decision latencies, in sequence order.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.sequences
            .iter()
            .flatten()
            .filter_map(Decided::latency_ns)
            .collect()
    }
}

impl<D: Decided> From<Replayed<Collect<D>>> for ReplayOutcome<D> {
    fn from(replayed: Replayed<Collect<D>>) -> Self {
        let (sequences, decisions, admitted) = replayed.sink.finish();
        ReplayOutcome {
            sequences,
            decisions,
            admitted,
            elapsed: replayed.elapsed,
            snapshot: replayed.snapshot,
        }
    }
}

/// Which requests a replay stamps with the clock at ingest.
///
/// A stamp is two clock reads — one here, one where the decision is
/// made — and that costs more than the decision it times (the figures are in [`crate::bench`]'s module docs). So a long
/// run stamps a sample: the requests are cut, in the order a
/// [`Ingest::ingest`] iterator yields them, into as many strata of
/// near-equal length as there are stamps to spend, and one request of
/// each stratum is stamped, at an offset hashed from the stratum's
/// number with [`splitmix64`] (the `Sampler`'s mixer). The stamped set
/// is a pure function of the rule and that order — the same on every
/// run of one workload and shape — and has no period for a round-robin
/// order to lock onto, which a fixed stride has: every 64th request
/// over 32 links is always a request of the same link.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Requests to let pass before the next stamped one.
    skip: u64,
    /// Requests of the current stratum after its stamped one.
    rest: u64,
    /// Strata scheduled so far: the number of the next one.
    strata: u64,
    /// A stratum is `whole` requests long, and `extra` of every
    /// `budget` strata one longer, spread evenly by the running `carry`.
    whole: u64,
    extra: u64,
    budget: u64,
    carry: u64,
}

impl Stamps {
    /// Every request is stamped: strata of one.
    pub(crate) const ALL: Stamps = Stamps {
        skip: 0,
        rest: 0,
        strata: 0,
        whole: 1,
        extra: 0,
        budget: 1,
        carry: 0,
    };

    /// No request is stamped: the first stamp is 2⁶⁴ requests away.
    pub(crate) const NONE: Stamps = Stamps {
        skip: u64::MAX,
        ..Stamps::ALL
    };

    /// `budget` of `requests` requests, one per stratum of
    /// `requests / budget` — or every request, when there are no more
    /// than `budget` of them.
    pub(crate) fn budgeted(requests: u64, budget: u64) -> Stamps {
        if requests <= budget {
            return Stamps::ALL;
        }
        if budget == 0 {
            return Stamps::NONE;
        }
        let mut stamps = Stamps {
            whole: requests / budget,
            extra: requests % budget,
            budget,
            ..Stamps::ALL
        };
        stamps.schedule();
        stamps
    }

    /// Moves on to the next stratum and picks its stamped request.
    fn schedule(&mut self) {
        let mut len = self.whole;
        self.carry += self.extra;
        if self.carry >= self.budget {
            self.carry -= self.budget;
            len += 1;
        }
        // A stratum of one request leaves nothing to draw.
        let at = if len > 1 {
            splitmix64(self.strata) % len
        } else {
            0
        };
        self.strata += 1;
        self.skip = self.rest + at;
        self.rest = len - 1 - at;
    }

    /// Whether the next request is a stamped one. Call it once per
    /// request, in ingest order.
    #[inline]
    pub fn take(&mut self) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
            false
        } else {
            self.schedule();
            true
        }
    }
}

/// What the driver replays — a whole workload, or a window of one:
/// which plane's events it yields, and how many.
pub trait Ingest: Sync {
    /// The link logic of the plane this runs on.
    type Logic: LinkLogic;

    /// Number of ingest events: what [`Ingest::ingest`] yields when
    /// `keep` selects every link.
    fn events(&self) -> u64;

    /// The ingest events of the links `keep` selects, in the
    /// workload's canonical order. An event is built — and a request
    /// `stamps` takes stamped — when the iterator yields it. A request
    /// is offered to `stamps` once, where its decision's latency is
    /// read from: on a multi-hop route that is hop 0, and no other hop
    /// is stamped. The rule is the caller's, so that it runs on from
    /// one window of a run to the next. Every measurement is yielded as
    /// the moments its generator folded, around its first rate.
    fn ingest(
        &self,
        stamps: &mut Stamps,
        keep: impl Fn(LinkId) -> bool,
    ) -> impl Iterator<Item = EventOf<Self>>;

    /// Readies `logic` for these events while no shard runs: a routed
    /// window re-bases the shared route table. Nothing, by default.
    fn prepare(&self, _logic: &Self::Logic) {}
}

/// A workload the drivers can replay, a window or a whole run: the
/// plane it runs on and how many decision sequences it yields.
pub trait Replay: Ingest {
    /// That plane's configuration.
    type PlaneConfig;

    /// `cfg` on a single shard (the serial reference's shape).
    fn one_shard(cfg: &Self::PlaneConfig) -> Self::PlaneConfig;

    /// Builds the plane to replay this workload through, and after it any
    /// later window of its run no longer than this one: a routed window
    /// lays the route table out for its own requests.
    fn plane(
        &self,
        cfg: &Self::PlaneConfig,
        make: ControllerFactory,
    ) -> Result<Plane<Self::Logic>, ServeError>;

    /// Number of decision sequences: links, or routes.
    fn groups(&self) -> usize;
}

/// The ingest event type of `W`'s plane.
pub type EventOf<W> = <<W as Ingest>::Logic as LinkLogic>::Event;
/// The decision type of `W`'s plane.
pub type DecisionOf<W> = <<W as Ingest>::Logic as LinkLogic>::Decision;

/// A window is replayed on the single-link plane, which holds nothing
/// of a window's.
impl Replay for SnapshotWindow {
    type PlaneConfig = PlaneConfig;

    fn one_shard(cfg: &PlaneConfig) -> PlaneConfig {
        PlaneConfig {
            shards: 1,
            ..cfg.clone()
        }
    }

    fn plane(
        &self,
        cfg: &PlaneConfig,
        make: ControllerFactory,
    ) -> Result<DecisionPlane, ServeError> {
        DecisionPlane::new(cfg, make)
    }

    fn groups(&self) -> usize {
        self.links()
    }
}

/// A window is replayed tick by tick and, within a tick, link by link:
/// the link's snapshot, then its requests of the tick.
impl Ingest for SnapshotWindow {
    type Logic = SingleHop;

    fn events(&self) -> u64 {
        (self.ticks() * self.links() * (1 + self.requests_per_tick())) as u64
    }

    fn ingest(
        &self,
        stamps: &mut Stamps,
        keep: impl Fn(LinkId) -> bool,
    ) -> impl Iterator<Item = ShardEvent> {
        let asks = self.requests_per_tick();
        let measures = self.measurements();
        let mut measures = measures.filter(move |&(link, ..)| keep(link));
        // The link whose requests are being issued, and how many are left.
        let (mut link, mut left) = (LinkId(0), 0);
        std::iter::from_fn(move || {
            if left > 0 {
                left -= 1;
                let enqueued = stamps.take().then(Instant::now);
                return Some(ShardEvent::Request { link, enqueued });
            }
            let (next, _, t, rates) = measures.next()?;
            (link, left) = (next, asks);
            Some(ShardEvent::Measure { link, t, rates })
        })
    }
}

/// The single-threaded serial reference: one shard, no rings, no
/// threads — events applied in the workload's canonical order, the
/// shard settled after every event. Defines the decision sequences
/// every sharded run must reproduce. With `stamp_latency` on, each
/// request is stamped immediately before it is applied, so latencies
/// measure the bare decide cost.
pub fn replay_serial<W: Replay>(
    cfg: &ReplayConfig<W::PlaneConfig>,
    make: ControllerFactory,
    workload: &W,
) -> Result<ReplayOutcome<DecisionOf<W>>, ServeError> {
    let plane = W::one_shard(&cfg.plane);
    let sink = || Collect::new(workload.groups());
    replay_into(&plane, Step::Serial, cfg.stamps(), make, workload, sink).map(Into::into)
}

/// The sharded replay: `cfg.producers` producer threads push events
/// through the ingest rings (yielding under backpressure — the closed
/// loop), one consumer thread per shard drains and decides. Decision
/// sequences are invariant to `shards`/`producers` — see the module
/// docs of [`crate::plane`] and [`crate::routed`].
pub fn replay_threaded<W: Replay>(
    cfg: &ReplayConfig<W::PlaneConfig>,
    make: ControllerFactory,
    workload: &W,
) -> Result<ReplayOutcome<DecisionOf<W>>, ServeError> {
    let producers = cfg.producers;
    check_producers(producers)?;
    let (step, sink) = (Step::Threaded { producers }, || {
        Collect::new(workload.groups())
    });
    replay_into(&cfg.plane, step, cfg.stamps(), make, workload, sink).map(Into::into)
}

/// `workload` as one window, through the plane `plane` configures, by
/// `step`, into the sinks `new_sink` makes, stamping what `stamps`
/// takes.
pub(crate) fn replay_into<W: Replay, S: DecisionSink<DecisionOf<W>>>(
    plane: &W::PlaneConfig,
    step: Step,
    stamps: Stamps,
    make: ControllerFactory,
    workload: &W,
    new_sink: impl Fn() -> S,
) -> Result<Replayed<S>, ServeError> {
    let plane = workload.plane(plane, make)?;
    let mut driver = Driver::new(plane, step, stamps, new_sink);
    driver.drive(workload);
    Ok(driver.finish())
}

/// The run `windows` generates, `ticks` ticks a window, driven by
/// `step` on the plane `cfg` configures into the sinks `new_sink` makes,
/// stamping what `stamps` takes. The plane is built from the run's first
/// window, and no later window is longer: a routed run's route table is
/// laid out once, for that window's requests, never more than the run's.
///
/// With more than one worker ([`current_workers`]) the serial step
/// overlaps the stages: a scoped generator thread fills window *k + 1*
/// into the second of two rotating buffers while this thread replays
/// window *k*; the busy time counts its fills, not its waits. Otherwise,
/// and on the threaded step, whose threads take the cores, the same
/// windows are generated inline. A panic on either stage ends the run
/// with that panic: the side that unwinds drops its channel ends, so the
/// other's next send or receive fails instead of blocking.
pub(crate) fn drive_run<G, S>(
    mut windows: G,
    ticks: usize,
    cfg: &<G::Workload as Replay>::PlaneConfig,
    make: ControllerFactory,
    step: Step,
    stamps: Stamps,
    new_sink: impl Fn() -> S,
) -> Result<DrivenRun<G::Workload, S>, ServeError>
where
    G: Windows + Send,
    G::Workload: Replay + Send,
    S: DecisionSink<DecisionOf<G::Workload>>,
{
    // Writes the next window into `window`, timed into `busy`.
    let fill = move |windows: &mut G, window: &mut G::Workload, busy: &mut Duration| {
        let start = Instant::now();
        let more = windows.next_window(ticks, window);
        *busy += start.elapsed();
        more
    };
    let (mut window, mut busy, mut events) = (windows.new_window(), Duration::ZERO, 0);
    assert!(
        fill(&mut windows, &mut window, &mut busy),
        "a run has a tick"
    );
    let mut driver = Driver::new(window.plane(cfg, make)?, step, stamps, new_sink);
    let workers = current_workers();
    if workers == 1 || matches!(step, Step::Threaded { .. }) {
        loop {
            events += window.events();
            driver.drive(&window);
            if !fill(&mut windows, &mut window, &mut busy) {
                return Ok((driver, busy, events));
            }
        }
    }
    let overlapped = std::thread::scope(|s| {
        let (filled, full) = sync_channel(1);
        let (replayed, empty) = sync_channel(2);
        filled.send(window).expect("the channel holds a window");
        let second = windows.new_window();
        replayed
            .send(second)
            .expect("the channel holds both buffers");
        let generator = s.spawn(move || {
            with_workers(workers, || {
                let mut busy = Duration::ZERO;
                // Ends with the run, or once the replay has stopped.
                while let Ok(mut window) = empty.recv() {
                    if !fill(&mut windows, &mut window, &mut busy) || filled.send(window).is_err() {
                        break;
                    }
                }
                busy
            })
        });
        for window in full.iter() {
            events += window.events();
            driver.drive(&window);
            // Fails only once the generator has finished.
            let _ = replayed.send(window);
        }
        generator
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    Ok((driver, busy + overlapped, events))
}

/// A [`drive_run`]'s driver, generator busy time and events replayed.
pub(crate) type DrivenRun<W, S> = (Driver<<W as Ingest>::Logic, S>, Duration, u64);

/// How a [`Driver`] applies a window: the serial reference, on the
/// first shard in the window's order, or `producers` producer threads
/// (links split `link % producers`) and a consumer thread a shard,
/// joined at the window's end.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    Serial,
    Threaded { producers: usize },
}

/// The replay of a run that arrives in windows: the plane, each
/// producer's stamping rule and each shard's sink live for the whole
/// run, and [`Driver::drive`] applies one window's events to them by
/// the driver's [`Step`].
pub(crate) struct Driver<L: LinkLogic, S> {
    pub(crate) plane: Plane<L>,
    /// The producers' way into the plane's rings.
    handle: IngestHandle<L>,
    step: Step,
    /// One rule a producer (the serial step's one), run on from one
    /// window to the next.
    stamps: Vec<Stamps>,
    /// One sink a shard, merged in shard order when the run ends.
    sinks: Vec<S>,
    /// What the serial step's `apply` and `pump` append to, emptied into
    /// the sink after every event.
    out: Vec<L::Decision>,
    /// Time spent in [`Driver::drive`].
    elapsed: Duration,
}

impl<L: LinkLogic, S: DecisionSink<L::Decision>> Driver<L, S> {
    /// A driver of `plane` by `step`, every shard on a sink `new_sink`
    /// makes and every producer on a copy of `stamps`, which it applies
    /// to the requests it pushes: a sampling rule keeps its share of
    /// each producer's requests.
    pub(crate) fn new(
        mut plane: Plane<L>,
        step: Step,
        stamps: Stamps,
        new_sink: impl Fn() -> S,
    ) -> Self {
        let producers = match step {
            Step::Serial => 1,
            Step::Threaded { producers } => producers,
        };
        let shards = plane.shards_mut().len();
        Driver {
            handle: plane.handle(),
            plane,
            step,
            stamps: vec![stamps; producers],
            sinks: (0..shards).map(|_| new_sink()).collect(),
            out: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Applies `window`'s events and adds the span to the run's replay
    /// time: two clock reads a window. Every hop of a request lies in
    /// the window of its tick, so the window ends with no link parked
    /// and nothing buffered.
    pub(crate) fn drive<W: Ingest<Logic = L>>(&mut self, window: &W) {
        let start = Instant::now();
        window.prepare(self.plane.shards_mut()[0].logic());
        match self.step {
            Step::Serial => self.serial(window),
            Step::Threaded { producers } => self.threaded(window, producers),
        }
        assert!(
            !self.plane.shards_mut().iter().any(ShardOf::has_parked),
            "a complete workload leaves no dangling reserves"
        );
        self.elapsed += start.elapsed();
    }

    /// The serial step: the window's events applied to the first shard
    /// in order, the shard settled after every event. The sink is a local
    /// for the window: reached through `sinks` it cost the loop ~15 % of
    /// `serve_links`' decisions/s.
    fn serial<W: Ingest<Logic = L>>(&mut self, window: &W) {
        let mut sink = self.sinks.pop().expect("a plane has a shard");
        let (shard, out) = (&mut self.plane.shards_mut()[0], &mut self.out);
        for event in window.ingest(&mut self.stamps[0], |_| true) {
            shard.apply(event, out);
            while shard.pump(out) > 0 {}
            sink.record_all(out);
        }
        self.sinks.push(sink);
    }

    /// The threaded step. Each thread owns its sink or stamping rule for
    /// the window, so no two write one cache line: consumers that shared
    /// the sinks' `Vec` lost ~10 % of `serve_routed`'s decisions/s.
    ///
    /// A consumer that panics raises `stop` as it unwinds: its ring no
    /// longer drains, so a producer that finds its ring full, and a
    /// consumer that finds nothing to drain, returns on it, and the join
    /// ends the run with the panic instead of waiting for ever.
    fn threaded<W: Ingest<Logic = L>>(&mut self, window: &W, producers: usize) {
        let (done, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
        let sinks = std::mem::take(&mut self.sinks);
        self.sinks = std::thread::scope(|s| {
            let shards = self.plane.shards_mut().iter_mut().zip(sinks);
            let consumers: Vec<_> = shards
                .map(|(shard, sink)| {
                    let (done, stop) = (&done, &stop);
                    s.spawn(move || {
                        let _raise = StopOnPanic(stop);
                        consume(shard, sink, done, producers, stop)
                    })
                })
                .collect();
            for (p, rule) in self.stamps.iter_mut().enumerate() {
                let (handle, done, stop) = (&self.handle, &done, &stop);
                s.spawn(move || {
                    let (mut stamps, mine) = (*rule, |link: LinkId| link.index() % producers == p);
                    for mut event in window.ingest(&mut stamps, mine) {
                        // Bounded ring = bounded outstanding window:
                        // block (yielding) under backpressure rather
                        // than drop.
                        while let Err(back) = handle.try_send(event) {
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            event = back;
                            std::thread::yield_now();
                        }
                    }
                    *rule = stamps;
                    done.fetch_add(1, Ordering::Release);
                });
            }
            let joined = consumers.into_iter().map(|consumer| consumer.join());
            joined
                .map(|sink| sink.unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
    }

    /// The run's sinks, merged, with its replay time and the plane's
    /// metrics.
    pub(crate) fn finish(self) -> Replayed<S> {
        let mut sinks = self.sinks.into_iter();
        let mut sink = sinks.next().expect("a plane has a shard");
        for other in sinks {
            sink.merge(other);
        }
        Replayed {
            sink,
            elapsed: self.elapsed,
            snapshot: self.plane.snapshot(),
        }
    }
}

/// Raises its flag if the thread that holds it unwinds.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// A consumer's share of a threaded window: drains `shard`'s ring into
/// `sink` until every one of `producers` producers is `done`, the ring
/// is empty and no link of the shard is parked, or until another
/// consumer's panic raises `stop`.
fn consume<L: LinkLogic, S: DecisionSink<L::Decision>>(
    shard: &mut ShardOf<L>,
    mut sink: S,
    done: &AtomicUsize,
    producers: usize,
    stop: &AtomicBool,
) -> S {
    let mut out = Vec::new();
    let mut drain = |shard: &mut ShardOf<L>| {
        let n = shard.drain_into(&mut out);
        sink.record_all(&mut out);
        n
    };
    loop {
        if drain(shard) > 0 {
            continue;
        }
        if done.load(Ordering::Acquire) == producers {
            // All enqueues happen-before the final counter increment, so
            // an empty drain with nothing parked proves completion. A
            // parked link waits for another shard's vote — keep pumping
            // until the verdict lands.
            if drain(shard) == 0 && !shard.has_parked() {
                return sink;
            }
        }
        if stop.load(Ordering::Acquire) {
            return sink;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plane::{certainty_equivalent_factory, MAX_PRODUCERS};
    use crate::sink::Tally;
    use mbac_core::admission::CertaintyEquivalent;
    use mbac_core::estimators::WindowEstimator;
    use mbac_sim::{
        MbacController, MetricsMode, RequestLoad, RequestLoadConfig, ServeWorkload, SessionBuilder,
    };
    use mbac_traffic::process::{SourceModel, Unbatched};
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
    use std::sync::Arc;

    fn workload() -> ServeWorkload {
        sized_workload(4, 25, 3)
    }

    /// [`workload`]'s run as one window.
    fn window() -> SnapshotWindow {
        sized_window(4, 25, 3)
    }

    fn sized_config(links: usize, ticks: usize, requests_per_tick: usize) -> RequestLoadConfig {
        RequestLoadConfig {
            links,
            flows_per_link: 6,
            ticks,
            tick: 0.4,
            requests_per_tick,
            mean_holding: 4.0,
            seed: 5,
        }
    }

    fn sized_workload(links: usize, ticks: usize, requests_per_tick: usize) -> ServeWorkload {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RequestLoad {
            model: &model,
            cfg: sized_config(links, ticks, requests_per_tick),
        };
        SessionBuilder::new().run(&load).unwrap()
    }

    /// [`sized_workload`]'s run as one window.
    fn sized_window(links: usize, ticks: usize, requests_per_tick: usize) -> SnapshotWindow {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RequestLoad {
            model: &model,
            cfg: sized_config(links, ticks, requests_per_tick),
        };
        whole_run(load.windows().unwrap())
    }

    fn config(shards: usize, producers: usize) -> ReplayConfig {
        ReplayConfig {
            plane: PlaneConfig {
                shards,
                capacity: 8.0,
                ring_capacity: 16, // small: exercises backpressure
                metrics: MetricsMode::Enabled,
                stream: None,
            },
            producers,
            stamp_latency: false,
        }
    }

    /// `windows`' whole run as one window.
    pub(crate) fn whole_run<G: Windows>(mut windows: G) -> G::Workload {
        let mut run = windows.new_window();
        assert!(windows.next_window(usize::MAX, &mut run));
        run
    }

    /// `a` and `b` decided every sequence's bytes alike.
    pub(crate) fn same_bytes<D: Decided>(a: &ReplayOutcome<D>, b: &ReplayOutcome<D>, what: &str) {
        assert_eq!(a.decisions, b.decisions, "{what}");
        assert_eq!(a.admitted, b.admitted, "{what}");
        assert_eq!(a.sequences.len(), b.sequences.len(), "{what}");
        for group in 0..a.sequences.len() {
            assert_eq!(a.encode(group), b.encode(group), "{what}: sequence {group}");
        }
    }

    /// The serial reference decides each of `w`'s `requests` requests,
    /// `per_group` in every sequence, admitting some and rejecting
    /// some, and decides `window`, the same run as one window, alike.
    pub(crate) fn decides_every_request<W, V>(
        w: &W,
        window: &V,
        cfg: &ReplayConfig<W::PlaneConfig>,
        requests: usize,
        per_group: usize,
    ) -> ReplayOutcome<DecisionOf<W>>
    where
        W: Replay,
        V: Replay<PlaneConfig = W::PlaneConfig, Logic = W::Logic>,
    {
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let out = replay_serial(cfg, Arc::clone(&make), w).unwrap();
        assert_eq!(out.decisions as usize, requests);
        assert!(out.admitted > 0, "some requests must be admitted");
        assert!(out.rejected() > 0, "a tight capacity must reject some");
        assert_eq!(out.sequences.len(), w.groups());
        for sequence in &out.sequences {
            assert_eq!(sequence.len(), per_group);
        }
        assert_eq!(window.events(), w.events());
        let windowed = replay_serial(cfg, make, window).unwrap();
        same_bytes(&windowed, &out, "one window");
        out
    }

    /// The `sharded` replay of `w`, and of `window`, the same run as one
    /// window, reproduces the `serial` reference's decision bytes on
    /// `w`, sequence by sequence.
    pub(crate) fn threaded_matches_serial<W, V>(
        w: &W,
        window: &V,
        serial: &ReplayConfig<W::PlaneConfig>,
        sharded: &ReplayConfig<W::PlaneConfig>,
    ) where
        W: Replay,
        V: Replay<PlaneConfig = W::PlaneConfig, Logic = W::Logic>,
    {
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let reference = replay_serial(serial, Arc::clone(&make), w).unwrap();
        let sharded_run = replay_threaded(sharded, Arc::clone(&make), w).unwrap();
        same_bytes(&sharded_run, &reference, "materialised");
        let sharded_window = replay_threaded(sharded, make, window).unwrap();
        same_bytes(&sharded_window, &reference, "one window");
    }

    /// The tally sink counts what the collecting sink keeps, on both
    /// drivers, and with stamping on every decision carries a latency,
    /// on `w` and on `window`, the same run as one window.
    /// `cfg(shards, producers)` is the replay shape to run.
    pub(crate) fn tally_agrees<W, V>(
        w: &W,
        window: &V,
        cfg: impl Fn(usize, usize) -> ReplayConfig<W::PlaneConfig>,
    ) where
        W: Replay,
        V: Replay<PlaneConfig = W::PlaneConfig, Logic = W::Logic>,
    {
        for (shards, producers) in [(1, 1), (3, 2)] {
            let cfg = ReplayConfig {
                stamp_latency: true,
                ..cfg(shards, producers)
            };
            tally_agrees_on(w, &cfg, shards);
            tally_agrees_on(window, &cfg, shards);
        }
    }

    /// [`tally_agrees`] on one workload, at a shape of `shards` shards.
    fn tally_agrees_on<W: Replay>(w: &W, cfg: &ReplayConfig<W::PlaneConfig>, shards: usize) {
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let (plane, all, make) = (&cfg.plane, Stamps::ALL, || Arc::clone(&make));
        let producers = cfg.producers;
        let (collected, tallied) = if shards == 1 {
            (
                replay_serial(cfg, make(), w).unwrap(),
                replay_into(plane, Step::Serial, all, make(), w, Tally::default).unwrap(),
            )
        } else {
            let step = Step::Threaded { producers };
            (
                replay_threaded(cfg, make(), w).unwrap(),
                replay_into(plane, step, all, make(), w, Tally::default).unwrap(),
            )
        };
        let tally = tallied.sink;
        assert_eq!(tally.decisions, collected.decisions, "{shards} shards");
        assert_eq!(tally.admitted, collected.admitted, "{shards} shards");
        let stamped = tally.latencies.len();
        assert_eq!(stamped, collected.latencies_ns().len(), "{shards} shards");
        assert_eq!(stamped as u64, tally.decisions, "{shards} shards");
    }

    /// Stamping a sixteenth of `w`'s `requests` requests changes no
    /// decision: on the serial and on a `3 x 2` threaded shape, on `w`
    /// and on `window`, the same run as one window, the totals and every
    /// sequence's bytes are those of the fully stamped serial reference
    /// on `w`, and about `requests / 16` decisions carry a latency.
    /// `cfg(shards, producers)` is the replay shape.
    pub(crate) fn sampled_stamps_leave_decisions_alone<W, V>(
        w: &W,
        window: &V,
        cfg: impl Fn(usize, usize) -> ReplayConfig<W::PlaneConfig>,
        requests: u64,
    ) where
        W: Replay,
        V: Replay<PlaneConfig = W::PlaneConfig, Logic = W::Logic>,
    {
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let fully_stamped = ReplayConfig {
            stamp_latency: true,
            ..cfg(1, 1)
        };
        let reference = replay_serial(&fully_stamped, Arc::clone(&make), w).unwrap();
        assert_eq!(reference.decisions, requests);
        assert_eq!(reference.latencies_ns().len() as u64, requests);
        let budget = requests / 16;
        let stamps = Stamps::budgeted(requests, budget);
        for (shards, producers) in [(1, 1), (3, 2)] {
            let plane = cfg(shards, producers).plane;
            let sampled = [
                sampled_replay(w, &plane, shards, producers, stamps, Arc::clone(&make)),
                sampled_replay(window, &plane, shards, producers, stamps, Arc::clone(&make)),
            ];
            for sampled in sampled {
                same_bytes(&sampled, &reference, &format!("{shards} shards"));
                let samples = sampled.latencies_ns().len() as f64;
                let budget = budget as f64;
                assert!(
                    (0.75 * budget..=1.25 * budget).contains(&samples),
                    "{shards} shards: {samples} samples on a budget of {budget}"
                );
            }
        }
    }

    /// `w` replayed on the serial step (one shard) or the threaded one,
    /// stamping what `stamps` takes.
    fn sampled_replay<W: Replay>(
        w: &W,
        plane: &W::PlaneConfig,
        shards: usize,
        producers: usize,
        stamps: Stamps,
        make: ControllerFactory,
    ) -> ReplayOutcome<DecisionOf<W>> {
        let sink = || Collect::new(w.groups());
        let step = if shards == 1 {
            Step::Serial
        } else {
            Step::Threaded { producers }
        };
        replay_into(plane, step, stamps, make, w, sink)
            .unwrap()
            .into()
    }

    /// The run `windows()` generates, driven a window at a time by each
    /// of `steps` — a step and its shard count, which `plane` makes a
    /// plane configuration of — inline on one worker, and on the serial
    /// step overlapped with its generation on two, is decided as the
    /// serial reference decides `whole`, the same run materialised, with
    /// `make`'s controllers: totals, events and every sequence's bytes,
    /// for windows of one tick, of a few, of the whole run (`ticks`) and
    /// longer than it. The stamping rules run on across the windows: a
    /// budget below the request count is spent exactly by one producer,
    /// one at or above it stamps every request.
    pub(crate) fn windowed_matches_materialised<W: Replay, G: Windows + Send>(
        whole: &W,
        plane: impl Fn(usize) -> W::PlaneConfig,
        make: ControllerFactory,
        windows: impl Fn() -> G,
        ticks: usize,
        steps: &[(usize, Step)],
    ) where
        G::Workload: Replay<PlaneConfig = W::PlaneConfig, Logic = W::Logic> + Send,
    {
        let cfg = ReplayConfig {
            plane: plane(1),
            producers: 1,
            stamp_latency: false,
        };
        let reference = replay_serial(&cfg, Arc::clone(&make), whole).unwrap();
        let requests = reference.decisions;
        assert!(requests >= 16);
        for &(shards, step) in steps {
            for workers in [1, 2] {
                for window in [1, 7, ticks, ticks + 5] {
                    for budget in [requests / 16, requests, 16 * requests] {
                        let stamps = Stamps::budgeted(requests, budget);
                        let (cfg, make) = (plane(shards), Arc::clone(&make));
                        let sink = || Collect::new(whole.groups());
                        let run = || drive_run(windows(), window, &cfg, make, step, stamps, sink);
                        let (driver, busy, events) = with_workers(workers, run).unwrap();
                        let what = format!(
                            "{step:?} on {shards} shards, {workers} workers, windows of {window}, \
                             budget {budget}"
                        );
                        assert!(busy > Duration::ZERO, "{what}");
                        assert_eq!(events, whole.events(), "{what}");
                        let windowed: ReplayOutcome<_> = driver.finish().into();
                        same_bytes(&windowed, &reference, &what);
                        let stamped = windowed.latencies_ns().len() as u64;
                        let one_rule = !matches!(step, Step::Threaded { producers: 2.. });
                        if one_rule || budget >= requests {
                            assert_eq!(stamped, budget.min(requests), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_run_replayed_in_windows_decides_as_the_materialised_one() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let hidden = Unbatched(&model);
        for model in [&model as &dyn SourceModel, &hidden] {
            let load = RequestLoad {
                model,
                cfg: sized_config(4, 25, 3),
            };
            let whole = SessionBuilder::new().run(&load).unwrap();
            windowed_matches_materialised(
                &whole,
                |shards| config(shards, 1).plane,
                certainty_equivalent_factory(1e-2, 2.0),
                || load.windows().unwrap(),
                25,
                &[(1, Step::Serial)],
            );
        }
    }

    /// Controllers of a window estimator: a memory kernel other than
    /// the paper's filter, fed the same folded measurements.
    pub(crate) fn window_estimator_factory() -> ControllerFactory {
        let policy = Arc::new(CertaintyEquivalent::from_probability(1e-2));
        Arc::new(move || {
            MbacController::new(
                Box::new(WindowEstimator::new(4.0)),
                Box::new(Arc::clone(&policy)),
            )
        })
    }

    /// The plane takes any controller: with a window estimator's, a run
    /// replayed in windows still decides as the materialised one.
    #[test]
    fn a_window_estimator_decides_a_windowed_run_as_the_materialised_one() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RequestLoad {
            model: &model,
            cfg: sized_config(4, 25, 3),
        };
        let whole = SessionBuilder::new().run(&load).unwrap();
        windowed_matches_materialised(
            &whole,
            |shards| config(shards, 1).plane,
            window_estimator_factory(),
            || load.windows().unwrap(),
            25,
            &[(1, Step::Serial)],
        );
    }

    /// Folds `bytes` into the FNV-1a hash `h`.
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// FNV-1a over each group's decision bytes, for runs too long to
    /// keep every decision.
    pub(crate) struct Hashes {
        pub(crate) groups: Vec<u64>,
        bytes: Vec<u8>,
    }

    impl Hashes {
        /// The hashes of `groups` empty sequences.
        pub(crate) fn new(groups: usize) -> Self {
            Hashes {
                groups: vec![0xcbf2_9ce4_8422_2325; groups],
                bytes: Vec::new(),
            }
        }
    }

    impl<D: Decided> DecisionSink<D> for Hashes {
        fn record(&mut self, d: D) {
            self.bytes.clear();
            d.encode_into(&mut self.bytes);
            fnv(&mut self.groups[d.group()], &self.bytes);
        }

        fn merge(&mut self, _: Self) {
            unreachable!("a serial replay has one sink")
        }
    }

    /// The single-link plane's decision bytes on a `RequestLoad` run,
    /// hashed per link: the run materialised and replayed by
    /// [`replay_serial`], and generated in windows of 7 ticks through
    /// the driver's serial step, as the bench runs it. Both must give these
    /// constants, which hold the single-link generator to its bits.
    #[test]
    fn single_link_decision_bytes_are_pinned() {
        const PINNED: [u64; 6] = [
            0x5d65f6466b4d9536,
            0x428e675b6953c2dc,
            0x0b7eb5335f6b3205,
            0xe6b4fe4142806dfd,
            0x457938dabd63c912,
            0x217d7f7018e63e35,
        ];
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RequestLoad {
            model: &model,
            cfg: RequestLoadConfig {
                links: 6,
                flows_per_link: 20,
                ticks: 400,
                tick: 0.1,
                requests_per_tick: 8,
                mean_holding: 10.0,
                seed: 0x5eed,
            },
        };
        let plane = PlaneConfig {
            capacity: 24.0,
            ..PlaneConfig::default()
        };
        let make = certainty_equivalent_factory(1e-2, 5.0);
        let cfg = ReplayConfig {
            plane: plane.clone(),
            ..ReplayConfig::default()
        };
        let whole = SessionBuilder::new().run(&load).unwrap();
        let out = replay_serial(&cfg, Arc::clone(&make), &whole).unwrap();
        assert!(0 < out.admitted && out.admitted < out.decisions);
        let mut materialised = Hashes::new(6).groups;
        for (link, h) in materialised.iter_mut().enumerate() {
            fnv(h, &out.encode(link));
        }
        let sink = || Hashes::new(6);
        let (driver, ..) = drive_run(
            load.windows().unwrap(),
            7,
            &plane,
            make,
            Step::Serial,
            Stamps::NONE,
            sink,
        )
        .unwrap();
        let windowed = driver.finish().sink.groups;
        assert_eq!(materialised, windowed);
        assert_eq!(windowed, PINNED);
    }

    /// A sink that gives out at its `n`-th decision.
    struct GivesOut(u64);

    impl<D> DecisionSink<D> for GivesOut {
        fn record(&mut self, _: D) {
            self.0 -= 1;
            assert!(self.0 > 0, "the sink gave out");
        }
        fn merge(&mut self, _: Self) {}
    }

    /// A panic in the replay while the generator works a window ahead on
    /// the other thread ends the run with that panic, not a hang.
    #[test]
    #[should_panic(expected = "the sink gave out")]
    fn a_panic_in_the_replay_ends_an_overlapped_run() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RequestLoad {
            model: &model,
            cfg: sized_config(4, 25, 3),
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let plane = config(1, 1).plane;
        // Ten of the run's 25 ticks.
        let sink = || GivesOut(4 * 3 * 10);
        let windows = load.windows().unwrap();
        let _ = with_workers(2, || {
            drive_run(windows, 2, &plane, make, Step::Serial, Stamps::NONE, sink)
        });
    }

    /// A panic in one consumer of a threaded window ends the run with
    /// that panic: the producer stops pushing into the ring nobody
    /// drains, and the other consumer stops waiting for it. The run is
    /// one window, so the panic leaves more of the window's events for
    /// the dead consumer's ring than its 16 slots hold.
    #[test]
    #[should_panic(expected = "the sink gave out")]
    fn a_panic_in_a_consumer_ends_a_threaded_run() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RequestLoad {
            model: &model,
            cfg: sized_config(4, 25, 3),
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let plane = config(2, 1).plane;
        let sink = || GivesOut(4 * 3 * 10);
        let windows = load.windows().unwrap();
        let step = Step::Threaded { producers: 1 };
        let _ = drive_run(windows, 25, &plane, make, step, Stamps::NONE, sink);
    }

    /// `stamps`' verdicts on the next `requests` requests.
    fn taken(mut stamps: Stamps, requests: u64) -> Vec<bool> {
        (0..requests).map(|_| stamps.take()).collect()
    }

    #[test]
    fn a_budget_is_spent_one_stamp_per_stratum() {
        assert!(taken(Stamps::ALL, 100).iter().all(|&stamped| stamped));
        assert!(taken(Stamps::NONE, 100).iter().all(|&stamped| !stamped));
        // No more requests than the budget: every one.
        for requests in [0, 1, 99, 100] {
            let all = taken(Stamps::budgeted(requests, 100), requests);
            assert!(all.iter().all(|&stamped| stamped), "{requests}");
        }
        assert!(!taken(Stamps::budgeted(100, 0), 100).contains(&true));
        // More: exactly the budget, one in each stratum, whether the
        // budget divides the run (strata of 16) or not (of 15 and 16).
        for (requests, budget) in [(1600, 100), (1000, 64), (101, 100)] {
            let stamped = taken(Stamps::budgeted(requests, budget), requests);
            let mut start = 0;
            for stratum in 1..=budget {
                let end = stratum * requests / budget;
                let in_stratum = &stamped[start as usize..end as usize];
                let count = in_stratum.iter().filter(|&&stamped| stamped).count();
                assert_eq!(count, 1, "{requests}/{budget}: stratum {start}..{end}");
                start = end;
            }
        }
    }

    /// (link, ordinal on the link) of the requests `stamps` stamps on
    /// a serial pass over `w`.
    fn stamped_requests(w: &ServeWorkload, mut stamps: Stamps) -> Vec<(LinkId, usize)> {
        let mut seen = vec![0; w.links()];
        let mut stamped = Vec::new();
        for event in w.ingest(&mut stamps, |_| true) {
            if let ShardEvent::Request { link, enqueued } = event {
                if enqueued.is_some() {
                    stamped.push((link, seen[link.index()]));
                }
                seen[link.index()] += 1;
            }
        }
        stamped
    }

    /// The canonical order visits 32 links round-robin, and a stratum
    /// is 16 requests: a stamp at a fixed place in each stratum would
    /// only ever land on two of the links. Hashed places give every
    /// link its 1/32 of the stamps, within 4.5 sigma of a binomial
    /// draw — and the same requests on every pass.
    #[test]
    fn stamps_do_not_alias_with_the_round_robin_order() {
        let (links, budget) = (32usize, 4096u64);
        let w = sized_workload(links, 64, 32);
        let requests = w.total_requests() as u64;
        assert_eq!(requests, 16 * budget);
        let stamps = Stamps::budgeted(requests, budget);
        let stamped = stamped_requests(&w, stamps);
        assert_eq!(stamped.len() as u64, budget);
        let share = 1.0 / links as f64;
        let mean = budget as f64 * share;
        let band = 4.5 * (mean * (1.0 - share)).sqrt();
        for link in w.link_ids() {
            let on_link = stamped.iter().filter(|&&(l, _)| l == link).count() as f64;
            assert!(
                (on_link - mean).abs() <= band,
                "{link:?}: {on_link} stamps, expected {mean} +- {band}"
            );
        }
        assert_eq!(stamped, stamped_requests(&w, stamps));
    }

    #[test]
    fn sampled_stamps_leave_the_decisions_alone() {
        let w = sized_workload(4, 32, 4);
        let window = sized_window(4, 32, 4);
        sampled_stamps_leave_decisions_alone(&w, &window, config, 4 * 32 * 4);
    }

    #[test]
    fn serial_replay_decides_every_request() {
        let w = workload();
        decides_every_request(&w, &window(), &config(1, 1), w.total_requests(), 25 * 3);
    }

    #[test]
    fn threaded_replay_matches_serial_per_link() {
        threaded_matches_serial(&workload(), &window(), &config(1, 1), &config(3, 2));
    }

    #[test]
    fn latency_stamps_are_recorded_when_requested() {
        let w = workload();
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let cfg = ReplayConfig {
            stamp_latency: true,
            ..config(2, 1)
        };
        let out = replay_threaded(&cfg, make, &w).unwrap();
        assert_eq!(out.latencies_ns().len() as u64, out.decisions);
    }

    #[test]
    fn tally_sink_agrees_with_collecting_sink() {
        tally_agrees(&workload(), &window(), config);
    }

    #[test]
    fn threaded_replay_bounds_the_producer_count() {
        let w = workload();
        let make = certainty_equivalent_factory(1e-2, 2.0);
        assert_eq!(
            replay_threaded(&config(2, MAX_PRODUCERS + 1), make, &w).err(),
            Some(ServeError::TooManyProducers {
                got: MAX_PRODUCERS + 1,
                max: MAX_PRODUCERS
            })
        );
    }
}
