//! Trace-driven traffic: piecewise-CBR playback of a recorded (or
//! synthesized) rate sequence.
//!
//! The paper's Figs 11–12 drive the MBAC with a piecewise-CBR version of
//! the MPEG-1 Starwars movie. A [`Trace`] holds the rate samples and the
//! slot duration; a [`TraceSource`] plays it back cyclically from a
//! random phase, so that concurrent flows are independently time-shifted
//! copies of the same movie (the standard methodology for trace-driven
//! multiplexing studies). Traces can be saved to / loaded from a plain
//! text format (`# key value` headers, one rate per line).

use crate::process::{RateProcess, SourceModel};
use rand::{Rng, RngCore};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// An immutable rate trace: `rates[k]` holds the (constant) rate during
/// slot `k`, each slot lasting `slot` time units.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Per-slot rates.
    rates: Vec<f64>,
    /// Slot duration.
    slot: f64,
}

impl Trace {
    /// Creates a trace.
    ///
    /// # Panics
    /// Panics on an empty rate vector, non-positive slot, or negative /
    /// non-finite rates.
    pub fn new(rates: Vec<f64>, slot: f64) -> Self {
        assert!(!rates.is_empty(), "trace must have at least one slot");
        assert!(
            slot > 0.0 && slot.is_finite(),
            "slot duration must be positive"
        );
        for (i, &r) in rates.iter().enumerate() {
            assert!(
                r >= 0.0 && r.is_finite(),
                "rate[{i}] = {r} must be finite and >= 0"
            );
        }
        Trace { rates, slot }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Slot duration.
    pub fn slot(&self) -> f64 {
        self.slot
    }

    /// Total duration of one playback cycle.
    pub fn duration(&self) -> f64 {
        self.slot * self.rates.len() as f64
    }

    /// The raw rate samples.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Time-average rate.
    pub fn mean(&self) -> f64 {
        mbac_num::mean(&self.rates)
    }

    /// Time variance of the rate.
    pub fn variance(&self) -> f64 {
        mbac_num::variance(&self.rates)
    }

    /// Largest rate in the trace.
    pub fn peak(&self) -> f64 {
        self.rates.iter().cloned().fold(0.0, f64::max)
    }

    /// Serializes to the plain text trace format.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "# mbac-trace v1")?;
        writeln!(w, "# slot {}", self.slot)?;
        writeln!(w, "# samples {}", self.rates.len())?;
        for r in &self.rates {
            writeln!(w, "{r}")?;
        }
        Ok(())
    }

    /// Parses the plain text trace format.
    ///
    /// Lines starting with `#` are headers/comments; `# slot <x>` sets
    /// the slot duration (default 1.0). Every other non-empty line is
    /// one rate sample. A slot that is not finite and positive, or a
    /// rate that is not finite and non-negative, is `InvalidData`
    /// naming its line, as is a file with no samples.
    pub fn read_from<R: Read>(r: R) -> std::io::Result<Self> {
        let reader = BufReader::new(r);
        let mut slot = 1.0f64;
        let mut rates = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            let bad = |what: &str, why: &dyn std::fmt::Display| {
                let msg = format!("bad {what} on line {}: {why}", lineno + 1);
                std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
            };
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let mut parts = rest.split_whitespace();
                if parts.next() == Some("slot") {
                    if let Some(v) = parts.next() {
                        slot = v.parse().map_err(|e| bad("slot", &e))?;
                        if !(slot > 0.0 && slot.is_finite()) {
                            return Err(bad("slot", &"must be finite and positive"));
                        }
                    }
                }
                continue;
            }
            let v: f64 = line.parse().map_err(|e| bad("rate", &e))?;
            if !(v >= 0.0 && v.is_finite()) {
                return Err(bad("rate", &"must be finite and non-negative"));
            }
            rates.push(v);
        }
        if rates.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "trace contains no samples",
            ));
        }
        Ok(Trace::new(rates, slot))
    }
}

/// Factory spawning independently-phased playbacks of a shared trace.
#[derive(Debug, Clone)]
pub struct TraceModel {
    trace: Arc<Trace>,
}

impl TraceModel {
    /// Wraps a trace for spawning.
    pub fn new(trace: Arc<Trace>) -> Self {
        TraceModel { trace }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }
}

impl SourceModel for TraceModel {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        Box::new(TraceSource::new(self.trace.clone(), rng))
    }

    fn mean(&self) -> f64 {
        self.trace.mean()
    }

    fn variance(&self) -> f64 {
        self.trace.variance()
    }
}

/// One flow playing the trace cyclically from a random initial phase.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Arc<Trace>,
    /// Playback position in `[0, duration)`.
    position: f64,
}

impl TraceSource {
    /// Creates a playback at a uniformly random phase.
    pub fn new(trace: Arc<Trace>, rng: &mut dyn RngCore) -> Self {
        let position = rng.gen::<f64>() * trace.duration();
        TraceSource { trace, position }
    }

    /// Current slot index.
    pub fn slot_index(&self) -> usize {
        ((self.position / self.trace.slot) as usize).min(self.trace.len() - 1)
    }
}

impl RateProcess for TraceSource {
    fn rate(&self) -> f64 {
        self.trace.rates[self.slot_index()]
    }

    fn advance(&mut self, dt: f64, _rng: &mut dyn RngCore) {
        assert!(dt >= 0.0);
        self.position = (self.position + dt) % self.trace.duration();
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.position = rng.gen::<f64>() * self.trace.duration();
    }

    fn mean(&self) -> f64 {
        self.trace.mean()
    }

    fn variance(&self) -> f64 {
        self.trace.variance()
    }

    fn autocorrelation(&self, _tau: f64) -> Option<f64> {
        None // empirical traffic: no closed form
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Arc<Trace> {
        Arc::new(Trace::new(vec![1.0, 2.0, 3.0, 2.0], 0.5))
    }

    #[test]
    fn trace_statistics() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert!((t.duration() - 2.0).abs() < 1e-12);
        assert!((t.mean() - 2.0).abs() < 1e-12);
        assert_eq!(t.peak(), 3.0);
    }

    #[test]
    fn playback_follows_slots() {
        let t = Arc::new(Trace::new(vec![10.0, 20.0], 1.0));
        let mut rng = StdRng::seed_from_u64(61);
        let mut s = TraceSource {
            trace: t,
            position: 0.0,
        };
        assert_eq!(s.rate(), 10.0);
        s.advance(1.0, &mut rng);
        assert_eq!(s.rate(), 20.0);
        s.advance(1.0, &mut rng); // wraps around
        assert_eq!(s.rate(), 10.0);
        s.advance(0.5, &mut rng);
        assert_eq!(s.rate(), 10.0);
        s.advance(0.5, &mut rng);
        assert_eq!(s.rate(), 20.0);
    }

    #[test]
    fn random_phases_differ_between_flows() {
        let model = TraceModel::new(trace());
        let mut rng = StdRng::seed_from_u64(62);
        let sources: Vec<_> = (0..16).map(|_| model.spawn(&mut rng)).collect();
        let rates: Vec<f64> = sources.iter().map(|s| s.rate()).collect();
        // With 16 random phases over 4 distinct values, not all equal.
        assert!(rates.iter().any(|&r| r != rates[0]));
    }

    #[test]
    fn io_roundtrip() {
        let t = trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(*t, back);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(Trace::read_from(&b"not a number\n"[..]).is_err());
        assert!(Trace::read_from(&b"# only headers\n"[..]).is_err());
        assert!(Trace::read_from(&b"# slot abc\n1.0\n"[..]).is_err());
    }

    /// Values `Trace::new` would reject are parse errors naming their
    /// line, never a panic.
    #[test]
    fn read_rejects_values_out_of_range() {
        for (text, line) in [
            ("1.0\nnan\n", "rate on line 2"),
            ("inf\n", "rate on line 1"),
            ("1.0\n\n-inf\n", "rate on line 3"),
            ("-3\n", "rate on line 1"),
            ("# slot 0\n1.0\n", "slot on line 1"),
            ("# slot -1\n1.0\n", "slot on line 1"),
            ("1.0\n# slot nan\n", "slot on line 2"),
            ("# slot inf\n1.0\n", "slot on line 1"),
        ] {
            let err = Trace::read_from(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
            assert!(err.to_string().contains(line), "{text:?}: {err}");
        }
        // The edges stay valid: a zero rate, a tiny slot.
        let t = Trace::read_from(&b"# slot 1e-9\n0\n-0\n"[..]).unwrap();
        assert_eq!((t.slot(), t.rates()), (1e-9, &[0.0, -0.0][..]));
    }

    #[test]
    fn read_accepts_comments_and_blank_lines() {
        let text = b"# mbac-trace v1\n# slot 2.5\n\n1.0\n# mid comment\n2.0\n";
        let t = Trace::read_from(&text[..]).unwrap();
        assert_eq!(t.len(), 2);
        assert!((t.slot() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn time_average_over_full_cycles_matches_mean() {
        let t = trace();
        let mut rng = StdRng::seed_from_u64(63);
        let mut s = TraceSource::new(t.clone(), &mut rng);
        let dt = 0.01;
        let steps = (t.duration() / dt).round() as usize * 5; // 5 cycles
        let mut acc = 0.0;
        for _ in 0..steps {
            acc += s.rate() * dt;
            s.advance(dt, &mut rng);
        }
        let avg = acc / (steps as f64 * dt);
        assert!((avg - t.mean()).abs() < 0.02, "avg {avg}");
    }

    #[test]
    #[should_panic]
    fn rejects_empty_trace() {
        Trace::new(vec![], 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_rate() {
        Trace::new(vec![1.0, -0.5], 1.0);
    }
}
