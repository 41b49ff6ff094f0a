//! Subcommand implementations.

pub mod churn;
pub mod design;
pub mod serve_bench;
pub mod simulate;
pub mod theory;
pub mod trace;

use crate::args::{ArgError, Args};
use mbac_core::topology::{Topology, MAX_ROUTE_HOPS};
use mbac_metrics::{StreamConfig, StreamSink};
use mbac_serve::MAX_RING_CAPACITY;
use mbac_sim::ConfigError;

/// Renders a configuration error as the CLI's error type.
pub(crate) fn config_err(e: impl std::fmt::Display) -> ArgError {
    ArgError(format!("invalid configuration: {e}"))
}

/// Rejects non-positive and non-finite values that derived quantities
/// (`T̃_h`, `T_m`, a topology's link capacities) depend on *before* the
/// session's own validation would catch them — deriving from a bad
/// value would produce NaNs, or a panicking constructor, first.
pub(crate) fn require_positive(field: &'static str, value: f64) -> Result<(), ArgError> {
    if value.is_nan() || value <= 0.0 {
        return Err(config_err(ConfigError::NonPositive { field, value }));
    }
    require_finite(field, value)
}

/// Rejects ±∞; the sign checks ahead of it have already caught NaN.
fn require_finite(field: &'static str, value: f64) -> Result<(), ArgError> {
    if value.is_infinite() {
        return Err(config_err(ConfigError::NotFinite { field, value }));
    }
    Ok(())
}

/// The check on the flow and link statistics that `serve-bench`,
/// `simulate`, `design` and `theory` hand to model and theory
/// constructors, all of which assert on them: every `positive` field
/// finite and > 0, and the `non_negative` one (a standard deviation, a
/// memory time-scale) finite and >= 0.
pub(crate) fn require_stats(
    positive: &[(&'static str, f64)],
    non_negative: (&'static str, f64),
) -> Result<(), ArgError> {
    for &(field, value) in positive {
        require_positive(field, value)?;
    }
    let (field, value) = non_negative;
    if value.is_nan() || value < 0.0 {
        return Err(config_err(ConfigError::Negative { field, value }));
    }
    require_finite(field, value)
}

/// Opens the streaming JSONL sink implied by `--metrics-stream` (with
/// `--stream-sample` and `--stream-flush` shaping it), or `None` when
/// the flag is absent.
pub(crate) fn open_stream(args: &Args) -> Result<Option<StreamSink>, ArgError> {
    let Some(path) = args.get("metrics-stream") else {
        return Ok(None);
    };
    let sample_fraction = args.f64_or("stream-sample", 0.0)?;
    if !(0.0..=1.0).contains(&sample_fraction) {
        return Err(ArgError(format!(
            "--stream-sample must be in [0, 1], got {sample_fraction}"
        )));
    }
    let ring_capacity = args.u64_or("stream-ring", StreamConfig::default().ring_capacity as u64)?;
    // The stream's ring is allocated up front like a shard's, so it
    // takes the same bound.
    if !(1..=MAX_RING_CAPACITY as u64).contains(&ring_capacity) {
        return Err(ArgError(format!(
            "--stream-ring must be in 1..={MAX_RING_CAPACITY}, got {ring_capacity}"
        )));
    }
    let cfg = StreamConfig {
        sample_fraction,
        flush_interval: args.u64_or("stream-flush", 0)?,
        ring_capacity: ring_capacity as usize,
        ..StreamConfig::default()
    };
    StreamSink::to_path(cfg, std::path::Path::new(path))
        .map(Some)
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// Joins the stream writer and reports its visible backpressure
/// accounting (dropped records are the bounded-memory trade-off; they
/// must be loud, never silent).
pub(crate) fn finish_stream(args: &Args, sink: Option<StreamSink>) -> Result<(), ArgError> {
    let Some(sink) = sink else {
        return Ok(());
    };
    let path = args.get("metrics-stream").unwrap_or("-");
    let stats = sink
        .finish()
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    println!(
        "metrics stream: {} samples, {} intervals, {} dropped (ring capacity {})",
        stats.samples, stats.intervals, stats.dropped, stats.ring_capacity
    );
    Ok(())
}

/// The most legs `star:<legs>` may ask for. A leg is a route with its
/// own flow population and a link with its own controller (some 20 KB),
/// and every tick assembles each link's measurement by scanning every
/// route, so a run's cost is quadratic in the legs: at this bound,
/// 85 MB and 2 s a tick. Far past it the shape constructor's own
/// allocations abort the process before any `validate` runs.
const MAX_STAR_LEGS: usize = 1 << 12;

/// Parses a `--topology` spec into a [`Topology`] with every link at
/// `capacity`. Accepted forms: `single`, `parking-lot:<hops>`,
/// `star:<legs>` (parking-lot needs 2..=255 hops, star 2..=4096 legs).
pub(crate) fn parse_topology(spec: &str, capacity: f64) -> Result<Topology, ArgError> {
    // The shape constructors below panic on a capacity `Topology`
    // rejects.
    require_positive("capacity", capacity)?;
    let bad = |why: &str| ArgError(format!("--topology '{spec}': {why}"));
    let size = |raw: &str, what: &str| -> Result<usize, ArgError> {
        let n: usize = raw
            .parse()
            .map_err(|_| bad(&format!("{what} must be an integer, got '{raw}'")))?;
        if n < 2 {
            return Err(bad(&format!("{what} must be >= 2")));
        }
        Ok(n)
    };
    match spec.split_once(':') {
        None => match spec {
            "single" => Ok(Topology::one_hop_links(1, capacity)),
            _ => Err(bad("expected single, parking-lot:<hops>, or star:<legs>")),
        },
        Some(("parking-lot", raw)) => {
            let hops = size(raw, "hops")?;
            if hops > MAX_ROUTE_HOPS {
                return Err(bad(&format!("hops must be <= {MAX_ROUTE_HOPS}")));
            }
            Ok(Topology::parking_lot(hops, capacity))
        }
        Some(("star", raw)) => {
            let legs = size(raw, "legs")?;
            if legs > MAX_STAR_LEGS {
                return Err(bad(&format!("legs must be <= {MAX_STAR_LEGS}")));
            }
            Ok(Topology::star(legs, capacity))
        }
        Some(_) => Err(bad("expected single, parking-lot:<hops>, or star:<legs>")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_shapes() {
        let t = parse_topology("single", 8.0).unwrap();
        assert_eq!(t.links(), 1);
        assert_eq!(t.routes(), 1);
        let t = parse_topology("parking-lot:3", 10.0).unwrap();
        assert_eq!(t.links(), 3);
        assert_eq!(t.routes(), 4);
        let t = parse_topology("star:4", 10.0).unwrap();
        assert_eq!(t.links(), 5);
        assert_eq!(t.routes(), 4);
    }

    #[test]
    fn rejects_malformed_specs() {
        for spec in [
            "ring",
            "parking-lot",
            "parking-lot:x",
            "parking-lot:1",
            "parking-lot:256",
            "star:0",
            "star:4097",
            "star:99999999999",
            "mesh:3",
        ] {
            assert!(parse_topology(spec, 8.0).is_err(), "{spec}");
        }
    }
}
