//! Integration tests for the streaming sink's bounded-memory contract:
//! a full ring drops records *visibly* — the summary line carries the
//! count — and never blocks or grows.

use mbac_metrics::{FieldBuf, StreamConfig, StreamItem, StreamSink};
use std::io::{self, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A writer that blocks until the test releases it, so the ring behind
/// it fills deterministically.
struct GatedWriter {
    gate: Arc<(Mutex<bool>, Condvar)>,
    out: Arc<Mutex<Vec<u8>>>,
}

impl Write for GatedWriter {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        self.out.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn sample(seq: u64) -> StreamItem {
    let mut fields = FieldBuf::new();
    fields.push("load", seq as f64);
    StreamItem::Sample {
        stream: 0,
        seq,
        t: seq as f64,
        fields,
    }
}

#[test]
fn full_ring_drops_are_counted_and_reported_in_summary() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let out = Arc::new(Mutex::new(Vec::new()));
    let cfg = StreamConfig {
        ring_capacity: 4,
        sample_fraction: 1.0,
        ..StreamConfig::default()
    };
    let sink = StreamSink::to_writer(
        cfg,
        Box::new(GatedWriter {
            gate: Arc::clone(&gate),
            out: Arc::clone(&out),
        }),
    );
    let h = sink.handle();

    // Writer is stalled on the gate (it blocks writing the header), so
    // once the ring's 4 slots fill, every further emit must drop.
    for seq in 0..64 {
        h.emit(sample(seq));
    }
    assert!(
        h.dropped() >= 60,
        "expected most of 64 emits to drop into a capacity-4 ring, got {}",
        h.dropped()
    );
    let dropped_before_finish = h.dropped();

    // Open the gate; the writer drains the ring and writes the summary.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let stats = sink.finish().unwrap();
    assert_eq!(stats.dropped, dropped_before_finish);
    assert_eq!(stats.samples + stats.dropped, 64);
    assert_eq!(stats.ring_capacity, 4);

    let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let summary = text
        .lines()
        .last()
        .expect("stream ends with a summary line");
    assert!(summary.contains("\"k\": \"summary\""), "{summary}");
    assert!(
        summary.contains(&format!("\"dropped\": {}", stats.dropped)),
        "summary must carry the drop counter: {summary}"
    );
}

#[test]
fn unblocked_stream_drops_nothing() {
    let dir = std::env::temp_dir().join(format!("mbac-stream-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ok.jsonl");
    let cfg = StreamConfig {
        ring_capacity: 1024,
        sample_fraction: 1.0,
        ..StreamConfig::default()
    };
    let sink = StreamSink::to_path(cfg, &path).unwrap();
    let h = sink.handle();
    for seq in 0..200 {
        h.emit(sample(seq));
        if seq % 16 == 0 {
            // Give the writer a chance to drain; capacity 1024 for 200
            // records cannot fill regardless.
            std::thread::yield_now();
        }
    }
    let stats = sink.finish().unwrap();
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.samples, 200);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 202, "header + 200 samples + summary");
    std::fs::remove_dir_all(&dir).ok();
}

/// `finish` wakes an idle writer instead of waiting out the rest of its
/// backoff wait. In each trial the writer has backed off to its longest
/// wait (5 ms, begun ~6.5–7 ms after the start) when `finish` is timed,
/// ~9 ms after the start. On a 2-vCPU host the median read 3.0–3.2 ms
/// while the writer slept its waits out, and reads 0.09–0.12 ms woken:
/// the bound is ×8 above it and ×3 below the sleeping writer's.
#[test]
fn finish_wakes_an_idle_writer() {
    let mut took: Vec<Duration> = (0..15)
        .map(|_| {
            let sink = StreamSink::to_writer(StreamConfig::default(), Box::new(io::sink()));
            std::thread::sleep(Duration::from_millis(9));
            let start = Instant::now();
            sink.finish().unwrap();
            start.elapsed()
        })
        .collect();
    took.sort();
    assert!(took[took.len() / 2] < Duration::from_millis(1), "{took:?}");
}
