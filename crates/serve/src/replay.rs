//! Workload replay drivers: the single-threaded serial reference and
//! the multi-producer / multi-consumer sharded replay.
//!
//! Both drivers are generic over a [`Replay`] workload — a window of a
//! run generated by `mbac_sim`'s window generator
//! ([`SnapshotWindow`] on the single-hop plane,
//! [`mbac_sim::RoutedWindow`] on the two-phase one), a whole run as one
//! window included — and produce one decision sequence per link or
//! route. [`replay_serial`] is the correctness oracle: one shard, no
//! threads, events applied in the workload's own order, the shard
//! settled after every event. [`replay_threaded`] is the production
//! shape: producer threads push each link's events through the
//! lock-free ingest rings, one consumer thread per shard drains and
//! decides. The invariance suites assert the two agree per sequence,
//! byte for byte, for any shard/producer count, and hold both to the
//! materialised runs of the crate's hidden `compat` module, replayed in
//! a round-robin order of their own.
//!
//! Neither driver keeps the decisions it produces: each hands them to a
//! `DecisionSink` as they are made (see [`crate::sink`]). The public
//! entry points collect them per sequence; the closed-loop bench runs
//! the same driver bodies into a tally.
//!
//! The serial driver does not need the run in one piece: a
//! `SerialDriver` owns the plane, the stamping rule and the sink for a
//! whole run and is handed the run a window at a time (see
//! `mbac_sim::Windows`); [`replay_serial`] drives a whole workload as
//! one window.
//! Its window feed overlaps the generation of the next window with the
//! replay of this one when there is a second worker to generate on,
//! and decides the same bytes either way.

use crate::plane::{
    check_producers, plane_snapshot, ControllerFactory, Decision, DecisionPlane, LinkLogic, Plane,
    PlaneConfig, ServeError, ShardEvent, ShardOf, SingleHop,
};
use crate::sink::{Collect, Decided, DecisionSink, Replayed};
use mbac_metrics::{splitmix64, MetricsSnapshot};
use mbac_num::parallel::{current_workers, with_workers};
use mbac_sim::{LinkId, SnapshotWindow, Windows};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// What the serial driver replays — a whole workload, or a window of
/// one: which plane's events it yields, and how many.
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

    /// Readies the serial driver's `logic` for these events, before the
    /// first of them is applied: a routed window makes the route table
    /// hold its own requests. Nothing, by default.
    fn prepare(&self, _logic: &mut Self::Logic) {}
}

/// A whole workload the drivers can replay: the plane it runs on and
/// how many decision sequences it yields.
pub trait Replay: Ingest {
    /// That plane's configuration.
    type PlaneConfig;

    /// `cfg` on a single shard (the serial reference's shape).
    fn one_shard(cfg: &Self::PlaneConfig) -> Self::PlaneConfig;

    /// Builds the plane to replay this workload through.
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

/// A window is replayed on the single-link plane: a whole run as one
/// window is what the threaded bench replays.
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
    let sink = Collect::new(workload.groups());
    replay_serial_into(&cfg.plane, cfg.stamps(), make, workload, sink).map(Into::into)
}

/// [`replay_serial`] into any sink, stamping what `stamps` takes.
pub(crate) fn replay_serial_into<W: Replay, S: DecisionSink<DecisionOf<W>>>(
    plane: &W::PlaneConfig,
    stamps: Stamps,
    make: ControllerFactory,
    workload: &W,
    sink: S,
) -> Result<Replayed<S>, ServeError> {
    let plane = workload.plane(&W::one_shard(plane), make)?;
    let mut driver = SerialDriver::new(plane, stamps, sink);
    driver.drive(workload);
    Ok(driver.finish())
}

/// The serial reference over a run that arrives in windows: the plane
/// (its first shard is the one driven), the stamping rule and the sink
/// live for the whole run, and [`SerialDriver::drive`] applies one
/// window's events to them.
pub(crate) struct SerialDriver<L: LinkLogic, S> {
    pub(crate) plane: Plane<L>,
    stamps: Stamps,
    sink: S,
    /// What `apply` and `pump` append to, emptied into the sink after
    /// every event.
    out: Vec<L::Decision>,
    /// Time spent in [`SerialDriver::drive`].
    elapsed: Duration,
}

impl<L: LinkLogic, S: DecisionSink<L::Decision>> SerialDriver<L, S> {
    pub(crate) fn new(plane: Plane<L>, stamps: Stamps, sink: S) -> Self {
        SerialDriver {
            plane,
            stamps,
            sink,
            out: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Applies `window`'s events in its canonical order, the shard
    /// settled after every event, and adds the span to the run's
    /// replay time: two clock reads a window.
    pub(crate) fn drive<W: Ingest<Logic = L>>(&mut self, window: &W) {
        let start = Instant::now();
        let shard = &mut self.plane.shards_mut()[0];
        window.prepare(shard.logic_mut());
        for event in window.ingest(&mut self.stamps, |_| true) {
            shard.apply(event, &mut self.out);
            while shard.pump(&mut self.out) > 0 {}
            self.sink.record_all(&mut self.out);
        }
        // Every hop of a request lies in the window of its tick.
        assert!(
            !shard.has_parked(),
            "a complete workload leaves no dangling reserves"
        );
        self.elapsed += start.elapsed();
    }

    /// Drives the run `windows` generates, `ticks` ticks a window, and
    /// returns the generator's busy time and the events replayed.
    ///
    /// With more than one worker ([`current_workers`]) the two stages
    /// overlap: a scoped generator thread fills window *k + 1* while
    /// this thread replays window *k*. Two window buffers rotate between
    /// them — filled ones over a channel of one slot, replayed ones back
    /// — so the generator runs at most one window ahead and, once each
    /// buffer has held a window, allocates nothing. The busy time counts
    /// the generator's fills, not its waits for a free buffer. With one
    /// worker the same windows are generated inline, between the
    /// replays. Either way the replay sees the same windows in the same
    /// order, so every decision is the same.
    ///
    /// A panic on either stage ends the run with that panic: the channel
    /// ends live inside the scope, so the side that unwinds drops its
    /// ends and the other side's next send or receive fails instead of
    /// blocking, and a generator's panic is resumed here once it has
    /// been joined.
    pub(crate) fn drive_windows<G>(&mut self, mut windows: G, ticks: usize) -> (Duration, u64)
    where
        G: Windows + Send,
        G::Workload: Ingest<Logic = L> + Send,
    {
        // Writes the next window into `window`, timed into `busy`.
        let fill = move |windows: &mut G, window: &mut G::Workload, busy: &mut Duration| {
            let start = Instant::now();
            let more = windows.next_window(ticks, window);
            *busy += start.elapsed();
            more
        };
        let workers = current_workers();
        let mut events = 0;
        if workers == 1 {
            let (mut window, mut busy) = (windows.new_window(), Duration::ZERO);
            while fill(&mut windows, &mut window, &mut busy) {
                events += window.events();
                self.drive(&window);
            }
            return (busy, events);
        }
        std::thread::scope(|s| {
            let (filled, full) = sync_channel(1);
            let (replayed, empty) = sync_channel(2);
            for _ in 0..2 {
                let window = windows.new_window();
                replayed
                    .send(window)
                    .expect("the channel holds both buffers");
            }
            let generator = s.spawn(move || {
                with_workers(workers, || {
                    let mut busy = Duration::ZERO;
                    // Ends with the run, or once the replay has stopped.
                    while let Ok(mut window) = empty.recv() {
                        if !fill(&mut windows, &mut window, &mut busy)
                            || filled.send(window).is_err()
                        {
                            break;
                        }
                    }
                    busy
                })
            });
            for window in full.iter() {
                events += window.events();
                self.drive(&window);
                // Fails only once the generator has finished.
                let _ = replayed.send(window);
            }
            let busy = generator
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (busy, events)
        })
    }

    pub(crate) fn finish(self) -> Replayed<S> {
        Replayed {
            sink: self.sink,
            elapsed: self.elapsed,
            snapshot: self.plane.snapshot(),
        }
    }
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
    let new_sink = || Collect::new(workload.groups());
    replay_threaded_into(
        &cfg.plane,
        cfg.producers,
        cfg.stamps(),
        make,
        workload,
        new_sink,
    )
    .map(Into::into)
}

/// [`replay_threaded`] into one sink per consumer, merged in shard
/// order once the consumers have joined. Every producer applies
/// `stamps` to the requests it pushes, so a sampling rule keeps its
/// share of each producer's requests.
pub(crate) fn replay_threaded_into<W: Replay, S: DecisionSink<DecisionOf<W>>>(
    plane: &W::PlaneConfig,
    producers: usize,
    stamps: Stamps,
    make: ControllerFactory,
    workload: &W,
    new_sink: impl Fn() -> S + Sync,
) -> Result<Replayed<S>, ServeError> {
    check_producers(producers)?;
    let plane = workload.plane(plane, make)?;
    let handle = plane.handle();
    let shards = plane.into_shards();
    let done = AtomicUsize::new(0);

    let start = Instant::now();
    let (shards, sink) = std::thread::scope(|s| {
        let consumers: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                let (done, new_sink) = (&done, &new_sink);
                s.spawn(move || {
                    let mut sink = new_sink();
                    let mut out = Vec::new();
                    let mut drain = |shard: &mut ShardOf<W::Logic>| {
                        let n = shard.drain_into(&mut out);
                        sink.record_all(&mut out);
                        n
                    };
                    loop {
                        if drain(&mut shard) > 0 {
                            continue;
                        }
                        if done.load(Ordering::Acquire) == producers {
                            // All enqueues happen-before the final
                            // counter increment, so an empty drain with
                            // nothing parked proves completion. A parked
                            // link waits for another shard's vote — keep
                            // pumping until the verdict lands.
                            if drain(&mut shard) == 0 && !shard.has_parked() {
                                break;
                            }
                        }
                        std::thread::yield_now();
                    }
                    (shard, sink)
                })
            })
            .collect();
        for p in 0..producers {
            let (handle, done) = (&handle, &done);
            s.spawn(move || {
                let (mut stamps, mine) = (stamps, |link: LinkId| link.index() % producers == p);
                for mut event in workload.ingest(&mut stamps, mine) {
                    // Bounded ring = bounded outstanding window: block
                    // (yielding) under backpressure rather than drop.
                    while let Err(back) = handle.try_send(event) {
                        event = back;
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        let mut shards_back = Vec::with_capacity(consumers.len());
        let mut merged = new_sink();
        for c in consumers {
            let (shard, sink) = c.join().expect("consumer thread panicked");
            shards_back.push(shard);
            merged.merge(sink);
        }
        (shards_back, merged)
    });
    let elapsed = start.elapsed();
    let snapshot = plane_snapshot(&shards);
    Ok(Replayed {
        sink,
        elapsed,
        snapshot,
    })
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

    /// `windows`' whole run as one window, the one the threaded bench
    /// holds.
    pub(crate) fn whole_run<G: Windows>(mut windows: G) -> G::Workload {
        let mut run = windows.new_window();
        assert!(windows.next_window(usize::MAX, &mut run));
        run
    }

    /// `a` and `b` decided every sequence's bytes alike.
    fn same_bytes<D: Decided>(a: &ReplayOutcome<D>, b: &ReplayOutcome<D>, what: &str) {
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
                replay_serial_into(plane, all, make(), w, Tally::default()).unwrap(),
            )
        } else {
            (
                replay_threaded(cfg, make(), w).unwrap(),
                replay_threaded_into(plane, producers, all, make(), w, Tally::default).unwrap(),
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

    /// `w` replayed on the serial driver (one shard) or the threaded one,
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
        if shards == 1 {
            replay_serial_into(plane, stamps, make, w, sink()).unwrap()
        } else {
            replay_threaded_into(plane, producers, stamps, make, w, sink).unwrap()
        }
        .into()
    }

    /// The run `windows()` generates, fed through `plane(make)` a window
    /// at a time — inline on one worker, overlapped with its generation
    /// on two — is decided as the serial reference decides `whole`, the
    /// same run materialised, with `make`'s controllers: totals, events
    /// and every sequence's bytes, for windows of one tick, of a few, of
    /// the whole run (`ticks`) and longer than it. The stamping rule runs on across the windows: a
    /// budget below the request count is spent exactly, one at or above
    /// it stamps every request.
    pub(crate) fn windowed_matches_materialised<W: Replay, G: Windows + Send>(
        whole: &W,
        cfg: &ReplayConfig<W::PlaneConfig>,
        make: ControllerFactory,
        windows: impl Fn() -> G,
        plane: impl Fn(ControllerFactory) -> Plane<W::Logic>,
        ticks: usize,
    ) where
        G::Workload: Ingest<Logic = W::Logic> + Send,
    {
        let reference = replay_serial(cfg, Arc::clone(&make), whole).unwrap();
        let requests = reference.decisions;
        assert!(requests >= 16);
        for workers in [1, 2] {
            for window in [1, 7, ticks, ticks + 5] {
                for budget in [requests / 16, requests, 16 * requests] {
                    let stamps = Stamps::budgeted(requests, budget);
                    let sink = Collect::new(whole.groups());
                    let mut driver = SerialDriver::new(plane(Arc::clone(&make)), stamps, sink);
                    let (busy, events) =
                        with_workers(workers, || driver.drive_windows(windows(), window));
                    let what = format!("{workers} workers, windows of {window}, budget {budget}");
                    assert!(busy > Duration::ZERO, "{what}");
                    assert_eq!(events, whole.events(), "{what}");
                    let windowed: ReplayOutcome<_> = driver.finish().into();
                    assert_eq!(windowed.decisions, reference.decisions, "{what}");
                    assert_eq!(windowed.admitted, reference.admitted, "{what}");
                    for group in 0..whole.groups() {
                        assert_eq!(windowed.encode(group), reference.encode(group), "{what}");
                    }
                    let stamped = windowed.latencies_ns().len() as u64;
                    assert_eq!(stamped, budget.min(requests), "{what}");
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
            let cfg = config(1, 1);
            windowed_matches_materialised(
                &whole,
                &cfg,
                certainty_equivalent_factory(1e-2, 2.0),
                || load.windows().unwrap(),
                |make| DecisionPlane::new(&cfg.plane, make).unwrap(),
                25,
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
        let cfg = config(1, 1);
        windowed_matches_materialised(
            &whole,
            &cfg,
            window_estimator_factory(),
            || load.windows().unwrap(),
            |make| DecisionPlane::new(&cfg.plane, make).unwrap(),
            25,
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
    /// the serial driver the bench runs. Both must give these
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
        let plane = DecisionPlane::new(&plane, make).unwrap();
        let mut driver = SerialDriver::new(plane, Stamps::NONE, Hashes::new(6));
        driver.drive_windows(load.windows().unwrap(), 7);
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
        let plane = DecisionPlane::new(&config(1, 1).plane, make).unwrap();
        // Ten of the run's 25 ticks.
        let mut driver = SerialDriver::new(plane, Stamps::NONE, GivesOut(4 * 3 * 10));
        let windows = load.windows().unwrap();
        with_workers(2, || driver.drive_windows(windows, 2));
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
