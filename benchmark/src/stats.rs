//! Median and quartiles, computed the way the acceptance rule does
//! (Python's `statistics.median` and `statistics.quantiles(v, n=4)`,
//! exclusive method), so a spread printed here is the spread a
//! reviewer recomputes from the raw rounds.

use crate::json::Json;

/// First quartile, median, third quartile and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// `None` for an empty sample. One value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Quartiles {
                q1: median,
                median,
                q3: median,
                n,
            });
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            // May be negative or above 4 at the clamped ends, which
            // extrapolates exactly as the Python routine does.
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Quartiles {
            q1: cut(1),
            median,
            q3: cut(3),
            n,
        })
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("samples", Json::UInt(self.n as u64)),
        ])
    }
}

/// Median of a non-empty sample (0 for an empty one, which only the
/// not-applicable per-layer rows produce).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).map_or(0.0, |q| q.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) = [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) = [2.0, 8.0, 32.0]
        let q = Quartiles::of(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.0, 8.0, 32.0));
    }

    #[test]
    fn degenerate_samples() {
        assert!(Quartiles::of(&[]).is_none());
        let q = Quartiles::of(&[4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(median(&[]), 0.0);
    }
}
