//! Typed simulation instruments with associatively mergeable snapshots.
//!
//! The crate separates *live* instruments (cheap to update on the hot
//! path, owned by one thread) from their *frozen snapshots* (plain data
//! that merges associatively, crosses thread boundaries, and serializes
//! to stable JSON). The split is what lets the simulator's parallel
//! replication workers each record locally and still produce a result
//! that is bit-identical for any worker count: workers snapshot, the
//! harness folds the snapshots in replication input order.
//!
//! Instruments:
//! - [`Counter`] — monotone event count.
//! - [`Gauge`] — last-value instrument whose snapshot keeps the value
//!   distribution (count/sum/min/max).
//! - [`Histogram`] — full distribution: moments, extremes, and fixed
//!   log-scale bins (exactly mergeable) from which every quantile is
//!   read.
//! - [`TimeSeries`] — bounded-memory (t, v) trace with stride-doubling
//!   decimation.
//!
//! Snapshots are collected into a named [`MetricsSnapshot`], merged with
//! [`MetricsSnapshot::merge`], and emitted as `mbac-metrics/v1` JSON via
//! [`MetricsSnapshot::to_json`] (see `results/METRICS_schema.md`).
//!
//! For runs too large to hold a growing snapshot in memory, the
//! [`stream`] module adds a bounded alternative: unit-of-work entries
//! still fold into the mergeable instruments, a deterministic
//! [`Sampler`] emits a fraction of raw entries for traceability, and a
//! [`StreamSink`] drains cumulative interval flushes through a
//! fixed-capacity [`IngestRing`] to `mbac-metrics/v2-stream` JSONL with
//! visible drop counters.

#![warn(missing_docs)]

pub mod instruments;
pub mod ring;
pub mod sampler;
pub mod snapshot;
pub mod stream;

pub use instruments::{
    bin_index, bin_representative, Aggregated, Counter, CounterSnapshot, Gauge, GaugeSnapshot,
    Histogram, HistogramSnapshot, Mergeable, SeriesSnapshot, TimeSeries,
};
pub use ring::IngestRing;
pub use sampler::{splitmix64, Sampler};
pub use snapshot::{MetricValue, MetricsSnapshot};
pub use stream::{
    refold_intervals, FieldBuf, StreamConfig, StreamCursor, StreamHandle, StreamItem, StreamSink,
    StreamStats, MAX_SAMPLE_FIELDS, STREAM_SCHEMA,
};
