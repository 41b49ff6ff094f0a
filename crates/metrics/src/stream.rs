//! Bounded-memory streaming emission: a JSONL writer fed by a
//! fixed-capacity ring.
//!
//! The snapshot pipeline accumulates everything in memory and emits one
//! merged `mbac-metrics/v1` document at the end — exactly right for
//! deterministic goldens, exactly wrong at 10⁶ flows where the metrics
//! themselves become the memory ceiling. Streaming mode inverts the
//! shape: unit-of-work entries still fold into worker-local mergeable
//! instruments (aggregates stay *exact* and bit-identical to snapshot
//! mode), but what crosses to the sink is bounded:
//!
//! * **samples** — a deterministic fraction of raw entries
//!   ([`crate::Sampler`]), fixed-size records for traceability;
//! * **intervals** — periodic flushes of the *cumulative* per-stream
//!   aggregate. Cumulative (Prometheus-style), not deltas: the last
//!   interval of each stream, merged in stream order, reproduces the
//!   snapshot-mode aggregate bit for bit ([`refold_intervals`]), and a
//!   torn run still has exact aggregates up to its last flush.
//!
//! Producers feed a fixed-capacity [`IngestRing`]; one writer thread
//! drains it to JSONL (`mbac-metrics/v2-stream`, see
//! `results/METRICS_schema.md`), polling at 50µs when records flow and
//! backing off to 5ms when idle (so an idle stream costs no scheduler
//! churn); [`StreamSink::finish`] wakes it from that wait rather than
//! sitting it out. A full ring never blocks the simulation and never
//! grows: the record is dropped and a visible drop counter increments,
//! reported in the final `summary` line. Retained state is therefore bounded by the
//! ring capacity plus one live instrument bundle per worker —
//! independent of flow count. Size the ring for the burst rate, not the
//! average: a burst landing after an idle stretch must fit in the ring
//! for up to the full backoff before the writer re-engages.

use crate::ring::IngestRing;
use crate::sampler::{splitmix64, Sampler};
use crate::snapshot::{json_f64, json_string, MetricsSnapshot};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Schema tag on the header line of every v2 stream.
pub const STREAM_SCHEMA: &str = "mbac-metrics/v2-stream";

/// Field capacity of a sample record (fixed so records stay
/// allocation-free on the hot path).
pub const MAX_SAMPLE_FIELDS: usize = 12;

/// A fixed-capacity list of named values — the allocation-free payload
/// of a sample record. Non-finite values and pushes past
/// [`MAX_SAMPLE_FIELDS`] are silently ignored.
#[derive(Debug, Clone, Copy)]
pub struct FieldBuf {
    len: usize,
    items: [(&'static str, f64); MAX_SAMPLE_FIELDS],
}

impl Default for FieldBuf {
    fn default() -> Self {
        FieldBuf {
            len: 0,
            items: [("", 0.0); MAX_SAMPLE_FIELDS],
        }
    }
}

impl FieldBuf {
    /// An empty field list.
    pub fn new() -> Self {
        FieldBuf::default()
    }

    /// Appends one named value (no-op when full or `v` is non-finite).
    #[inline]
    pub fn push(&mut self, name: &'static str, v: f64) {
        if self.len < MAX_SAMPLE_FIELDS && v.is_finite() {
            self.items[self.len] = (name, v);
            self.len += 1;
        }
    }

    /// Number of recorded fields.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no field has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recorded `(name, value)` pairs, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.items[..self.len].iter().copied()
    }
}

/// One record crossing the ring from a producer to the writer.
///
/// The `Sample` variant is deliberately inline-large (a [`FieldBuf`] is
/// ~200 bytes): samples are the hot-path record, and boxing the fields
/// would put an allocation on every sampled entry — the ring's slots
/// are sized for the largest variant either way.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// A sampled raw unit-of-work entry.
    Sample {
        /// Producer stream index (replication or shard).
        stream: u64,
        /// Entry sequence number within the stream.
        seq: u64,
        /// Simulation/measurement time of the entry.
        t: f64,
        /// The entry's finite fields.
        fields: FieldBuf,
    },
    /// A cumulative aggregate flush: every instrument of `stream` folded
    /// from its start through entry `seq`.
    Interval {
        /// Producer stream index (replication or shard).
        stream: u64,
        /// Entries folded into this flush (cumulative count).
        seq: u64,
        /// Time of the last folded entry.
        t: f64,
        /// The cumulative per-stream aggregate.
        metrics: MetricsSnapshot,
    },
}

/// Streaming sink shape: ring size, sampling fraction, flush cadence.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Ring capacity in records (rounded up to a power of two, min 2).
    pub ring_capacity: usize,
    /// Fraction of raw entries emitted as samples (deterministic, see
    /// [`Sampler`]); `0.0` disables sampling.
    pub sample_fraction: f64,
    /// Entries between cumulative interval flushes; `0` flushes only
    /// the final per-stream interval.
    pub flush_interval: u64,
    /// Base key for per-stream sampler derivation.
    pub key: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ring_capacity: 1024,
            sample_fraction: 0.0,
            flush_interval: 0,
            key: 0x6D62_6163, // "mbac"
        }
    }
}

/// What a finished stream emitted (and dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Sample records written.
    pub samples: u64,
    /// Interval records written.
    pub intervals: u64,
    /// Records dropped at a full ring (visible backpressure).
    pub dropped: u64,
    /// The ring's actual capacity (after power-of-two rounding).
    pub ring_capacity: usize,
}

struct Shared {
    ring: IngestRing<StreamItem>,
    dropped: AtomicU64,
    done: AtomicBool,
}

/// The producer side of a streaming sink: cheap to clone, safe to share
/// across workers. Emission never blocks — a full ring counts a drop.
#[derive(Clone)]
pub struct StreamHandle {
    shared: Arc<Shared>,
    cfg: StreamConfig,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("cfg", &self.cfg)
            .field("queued", &self.shared.ring.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl StreamHandle {
    /// The sink's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The sampler for producer stream `stream`, derived so the keep
    /// decisions are a pure function of `(config key, stream, seq)` —
    /// invariant under worker count and engine choice.
    pub fn sampler_for(&self, stream: u64) -> Sampler {
        Sampler::new(
            self.cfg.sample_fraction,
            splitmix64(self.cfg.key ^ splitmix64(stream)),
        )
    }

    /// Entries between cumulative interval flushes (0 = final only).
    pub fn flush_interval(&self) -> u64 {
        self.cfg.flush_interval
    }

    /// Enqueues one record; a full ring drops it and increments the
    /// visible drop counter instead of blocking the producer.
    #[inline]
    pub fn emit(&self, item: StreamItem) {
        if self.shared.ring.try_push(item).is_err() {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records dropped so far at a full ring.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

/// One producer stream's position: its index, sampler and flush
/// cadence, and the entries folded so far. A simulation replication and
/// a decision-plane shard each own one and [`advance`](Self::advance)
/// it once per folded entry; the `(stream, seq)` pairs, and so the
/// sampler's keep set, are a pure function of the producer's entries.
#[derive(Debug)]
pub struct StreamCursor {
    handle: StreamHandle,
    stream: u64,
    sampler: Sampler,
    flush_interval: u64,
    seq: u64,
    last_t: f64,
}

impl StreamCursor {
    /// A cursor at the start of producer stream `stream`.
    pub fn new(handle: StreamHandle, stream: u64) -> Self {
        StreamCursor {
            sampler: handle.sampler_for(stream),
            flush_interval: handle.flush_interval(),
            handle,
            stream,
            seq: 0,
            last_t: f64::NAN,
        }
    }

    /// Counts one folded entry at time `t`, emitting its `fields` (built
    /// only then) as a sample when the sampler keeps it. Returns `true`
    /// when a cumulative interval is due.
    #[inline]
    pub fn advance(&mut self, t: f64, fields: impl FnOnce() -> FieldBuf) -> bool {
        self.seq += 1;
        self.last_t = t;
        if self.sampler.keep(self.seq) {
            self.handle.emit(StreamItem::Sample {
                stream: self.stream,
                seq: self.seq,
                t,
                fields: fields(),
            });
        }
        self.flush_interval > 0 && self.seq.is_multiple_of(self.flush_interval)
    }

    /// Emits one cumulative interval carrying `metrics`, at the entry
    /// count and time reached.
    pub fn emit_interval(&self, metrics: MetricsSnapshot) {
        self.handle.emit(StreamItem::Interval {
            stream: self.stream,
            seq: self.seq,
            t: self.last_t,
            metrics,
        });
    }
}

enum Backend {
    Jsonl(Box<dyn Write + Send>),
    Collect(Arc<Mutex<Vec<StreamItem>>>),
}

/// The consumer side: owns the writer thread draining the ring. Create
/// one per run, hand [`StreamSink::handle`] clones to producers, then
/// call [`StreamSink::finish`] after every producer has stopped.
pub struct StreamSink {
    handle: StreamHandle,
    writer: Option<JoinHandle<io::Result<(u64, u64)>>>,
}

impl StreamSink {
    fn spawn(cfg: StreamConfig, mut backend: Backend) -> Self {
        let shared = Arc::new(Shared {
            ring: IngestRing::with_capacity(cfg.ring_capacity),
            dropped: AtomicU64::new(0),
            done: AtomicBool::new(false),
        });
        let handle = StreamHandle {
            shared: Arc::clone(&shared),
            cfg,
        };
        let ring_capacity = shared.ring.capacity();
        let writer = std::thread::spawn(move || -> io::Result<(u64, u64)> {
            let mut line = String::new();
            if let Backend::Jsonl(w) = &mut backend {
                header_line(&mut line, &cfg, ring_capacity);
                w.write_all(line.as_bytes())?;
            }
            let (mut samples, mut intervals) = (0u64, 0u64);
            // Idle sleep backs off exponentially: a hot stream is drained
            // at 50µs latency, but an idle stream (the common case — the
            // default config emits only final intervals) must not keep
            // waking the writer and context-switching against the
            // producers, which on a single-core host costs more than the
            // entire fold path. The first pop resets the backoff; the
            // price is that records produced in a burst after a long idle
            // can see up to `IDLE_MAX` of ring residency before draining
            // (size the ring for the burst, not the average). The wait is
            // a park, so `finish` and `drop` wake the writer at once; a
            // sleep would make `finish` wait out up to `IDLE_MAX` of it.
            const IDLE_MIN: Duration = Duration::from_micros(50);
            const IDLE_MAX: Duration = Duration::from_millis(5);
            let mut idle = IDLE_MIN;
            loop {
                match shared.ring.try_pop() {
                    Some(item) => {
                        idle = IDLE_MIN;
                        match &item {
                            StreamItem::Sample { .. } => samples += 1,
                            StreamItem::Interval { .. } => intervals += 1,
                        }
                        match &mut backend {
                            Backend::Jsonl(w) => {
                                line.clear();
                                item_line(&mut line, &item);
                                w.write_all(line.as_bytes())?;
                            }
                            Backend::Collect(out) => {
                                out.lock().expect("collector poisoned").push(item);
                            }
                        }
                    }
                    None => {
                        if shared.done.load(Ordering::Acquire) && shared.ring.is_empty() {
                            break;
                        }
                        // A wake-up that comes early or for nothing only
                        // sends the loop round again.
                        std::thread::park_timeout(idle);
                        idle = (idle * 2).min(IDLE_MAX);
                    }
                }
            }
            if let Backend::Jsonl(w) = &mut backend {
                line.clear();
                summary_line(
                    &mut line,
                    samples,
                    intervals,
                    shared.dropped.load(Ordering::Relaxed),
                    ring_capacity,
                );
                w.write_all(line.as_bytes())?;
                w.flush()?;
            }
            Ok((samples, intervals))
        });
        StreamSink {
            handle,
            writer: Some(writer),
        }
    }

    /// A sink writing v2 JSONL records to `w`.
    pub fn to_writer(cfg: StreamConfig, w: Box<dyn Write + Send>) -> Self {
        StreamSink::spawn(cfg, Backend::Jsonl(w))
    }

    /// A sink writing v2 JSONL records to the file at `path`
    /// (truncating), buffered. Most of its cost is the truncation of a
    /// file a previous run left at `path`, which the file system pays
    /// for; the ring's allocation and the writer's spawn are ~0.1 ms.
    pub fn to_path(cfg: StreamConfig, path: &std::path::Path) -> io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(StreamSink::to_writer(cfg, Box::new(io::BufWriter::new(f))))
    }

    /// A sink collecting the raw [`StreamItem`]s in memory instead of
    /// serializing — for tests asserting on record structure (e.g. the
    /// interval re-fold identity).
    pub fn collecting(cfg: StreamConfig) -> (Self, Arc<Mutex<Vec<StreamItem>>>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let sink = StreamSink::spawn(cfg, Backend::Collect(Arc::clone(&out)));
        (sink, out)
    }

    /// A producer handle for this sink.
    pub fn handle(&self) -> StreamHandle {
        self.handle.clone()
    }

    /// Stops the writer once the ring drains and returns what was
    /// emitted. Call after every producer has stopped emitting (drops
    /// counted after the writer exits would go unreported). Wakes an
    /// idle writer, so it takes the drain and the summary line, not the
    /// rest of an idle wait.
    pub fn finish(mut self) -> io::Result<StreamStats> {
        let writer = self.writer.take().expect("finish called once");
        let (samples, intervals) = self.stop(writer).expect("stream writer panicked")?;
        Ok(StreamStats {
            samples,
            intervals,
            dropped: self.handle.dropped(),
            ring_capacity: self.handle.shared.ring.capacity(),
        })
    }

    /// Tells `writer` the stream is done, wakes it and joins it. The
    /// flag is stored before the wake, and a wake that lands before the
    /// writer parks makes that park return at once, so none is lost.
    fn stop(
        &self,
        writer: JoinHandle<io::Result<(u64, u64)>>,
    ) -> std::thread::Result<io::Result<(u64, u64)>> {
        self.handle.shared.done.store(true, Ordering::Release);
        writer.thread().unpark();
        writer.join()
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        // A sink dropped without `finish` still stops its thread.
        if let Some(writer) = self.writer.take() {
            let _ = self.stop(writer);
        }
    }
}

/// Re-folds a captured record stream into the end-of-run aggregate:
/// each stream's *last* cumulative interval (highest `seq`; later
/// record wins a seq tie, since instruments that do not advance the
/// seq may have moved between the two emissions), merged in ascending
/// stream order — the same order the session merges per-rep snapshots,
/// so the result is bit-identical to snapshot mode.
pub fn refold_intervals(items: &[StreamItem]) -> MetricsSnapshot {
    let mut last: std::collections::BTreeMap<u64, (u64, &MetricsSnapshot)> =
        std::collections::BTreeMap::new();
    for item in items {
        if let StreamItem::Interval {
            stream,
            seq,
            metrics,
            ..
        } = item
        {
            match last.get(stream) {
                Some((best, _)) if best > seq => {}
                _ => {
                    last.insert(*stream, (*seq, metrics));
                }
            }
        }
    }
    let mut out = MetricsSnapshot::new();
    for (_, (_, metrics)) in last {
        out.merge(metrics);
    }
    out
}

fn header_line(out: &mut String, cfg: &StreamConfig, ring_capacity: usize) {
    out.push_str("{\"k\": \"header\", \"schema\": \"");
    out.push_str(STREAM_SCHEMA);
    out.push_str("\", \"ring_capacity\": ");
    out.push_str(&ring_capacity.to_string());
    out.push_str(", \"sample_fraction\": ");
    json_f64(out, cfg.sample_fraction);
    out.push_str(", \"flush_interval\": ");
    out.push_str(&cfg.flush_interval.to_string());
    out.push_str("}\n");
}

fn item_line(out: &mut String, item: &StreamItem) {
    match item {
        StreamItem::Sample {
            stream,
            seq,
            t,
            fields,
        } => {
            out.push_str("{\"k\": \"sample\", \"stream\": ");
            out.push_str(&stream.to_string());
            out.push_str(", \"seq\": ");
            out.push_str(&seq.to_string());
            out.push_str(", \"t\": ");
            json_f64(out, *t);
            out.push_str(", \"fields\": {");
            for (i, (name, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json_string(out, name);
                out.push_str(": ");
                json_f64(out, v);
            }
            out.push_str("}}\n");
        }
        StreamItem::Interval {
            stream,
            seq,
            t,
            metrics,
        } => {
            out.push_str("{\"k\": \"interval\", \"stream\": ");
            out.push_str(&stream.to_string());
            out.push_str(", \"seq\": ");
            out.push_str(&seq.to_string());
            out.push_str(", \"t\": ");
            json_f64(out, *t);
            out.push_str(", \"metrics\": ");
            metrics.write_metrics_object(out);
            out.push_str("}\n");
        }
    }
}

fn summary_line(
    out: &mut String,
    samples: u64,
    intervals: u64,
    dropped: u64,
    ring_capacity: usize,
) {
    out.push_str("{\"k\": \"summary\", \"samples\": ");
    out.push_str(&samples.to_string());
    out.push_str(", \"intervals\": ");
    out.push_str(&intervals.to_string());
    out.push_str(", \"dropped\": ");
    out.push_str(&dropped.to_string());
    out.push_str(", \"ring_capacity\": ");
    out.push_str(&ring_capacity.to_string());
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruments::{Aggregated, Counter};
    use crate::snapshot::MetricValue;

    fn counter_snapshot(n: u64) -> MetricsSnapshot {
        let mut c = Counter::new();
        c.add(n);
        let mut s = MetricsSnapshot::new();
        s.insert("n", MetricValue::Counter(c.snapshot()));
        s
    }

    #[test]
    fn jsonl_lines_carry_header_records_and_summary() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = StreamSink::to_writer(
            StreamConfig {
                sample_fraction: 1.0,
                flush_interval: 4,
                ..StreamConfig::default()
            },
            Box::new(SharedWriter(Arc::clone(&buf))),
        );
        let h = sink.handle();
        let mut fields = FieldBuf::new();
        fields.push("load", 3.25);
        fields.push("bogus", f64::NAN); // ignored
        h.emit(StreamItem::Sample {
            stream: 0,
            seq: 1,
            t: 0.5,
            fields,
        });
        h.emit(StreamItem::Interval {
            stream: 0,
            seq: 4,
            t: 2.0,
            metrics: counter_snapshot(4),
        });
        let stats = sink.finish().unwrap();
        assert_eq!((stats.samples, stats.intervals, stats.dropped), (1, 1, 0));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"schema\": \"mbac-metrics/v2-stream\""));
        assert!(lines[0].contains("\"flush_interval\": 4"));
        assert!(text.contains("\"k\": \"sample\""));
        assert!(text.contains("\"load\": 3.25"));
        assert!(!text.contains("bogus"));
        assert!(text.contains("\"k\": \"interval\""));
        assert!(text.contains("\"type\": \"counter\", \"count\": 4"));
        assert!(lines[3].contains("\"k\": \"summary\""));
        assert!(lines[3].contains("\"dropped\": 0"));
        for line in &lines {
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced: {line}"
            );
        }
    }

    #[test]
    fn refold_takes_last_interval_per_stream_in_stream_order() {
        let items = vec![
            StreamItem::Interval {
                stream: 1,
                seq: 2,
                t: 1.0,
                metrics: counter_snapshot(2),
            },
            StreamItem::Interval {
                stream: 0,
                seq: 8,
                t: 4.0,
                metrics: counter_snapshot(8),
            },
            StreamItem::Interval {
                stream: 1,
                seq: 6,
                t: 3.0,
                metrics: counter_snapshot(6),
            },
            StreamItem::Sample {
                stream: 0,
                seq: 1,
                t: 0.1,
                fields: FieldBuf::new(),
            },
            // Stale flush, arrives late: must lose to seq 8.
            StreamItem::Interval {
                stream: 0,
                seq: 4,
                t: 2.0,
                metrics: counter_snapshot(4),
            },
            // Seq tie: the later record wins (instruments that do not
            // advance the seq may have moved between the emissions).
            StreamItem::Interval {
                stream: 0,
                seq: 8,
                t: 5.0,
                metrics: counter_snapshot(9),
            },
        ];
        let folded = refold_intervals(&items);
        match folded.get("n") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, 9 + 6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn field_buf_caps_and_filters() {
        let mut f = FieldBuf::new();
        assert!(f.is_empty());
        for i in 0..(MAX_SAMPLE_FIELDS + 3) {
            f.push("x", i as f64);
        }
        assert_eq!(f.len(), MAX_SAMPLE_FIELDS);
        f.push("y", f64::INFINITY);
        assert_eq!(f.len(), MAX_SAMPLE_FIELDS);
    }
}
