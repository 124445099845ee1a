//! Sample statistics, digests and the result line.

use std::fmt::Write as _;

/// Percentiles the tail rule may pick, lowest first.
const TAIL_GRID: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `pct` percentile in a sorted sample of `n`.
fn rank_index(n: usize, pct: f64) -> usize {
    // The epsilon keeps float error (99.9 % of 10,000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Sorts a copy of `values` (NaN-free by construction).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `pct` percentile; 0 for an empty sample.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    v[rank_index(v.len(), pct)]
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The highest grid percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked above it. A sample too small for any grid point falls back to
/// the median, with `beyond` saying how thin it is.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
            n,
        };
    }
    let pick = |pct: f64| {
        let i = rank_index(n, pct);
        Tail {
            pct,
            value: v[i],
            beyond: n - 1 - i,
            n,
        }
    };
    TAIL_GRID
        .iter()
        .rev()
        .map(|&pct| pick(pct))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| pick(50.0))
}

/// 64-bit FNV-1a, for digests two commits can compare exactly.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest string that round-trips the f64, so
        // every measured digit survives; non-finite values cannot occur
        // in JSON and are reported as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in [
            1, 5, 19, 20, 21, 40, 41, 100, 101, 200, 999, 1000, 1001, 5000, 10_001,
        ] {
            let t = tail(&ramp(n));
            let above = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert_eq!(above, t.beyond, "n={n}");
            if t.beyond < TAIL_MIN_BEYOND {
                assert_eq!(t.pct, 50.0, "thin samples fall back to the median (n={n})");
            }
        }
    }

    #[test]
    fn tail_picks_the_highest_qualifying_percentile() {
        assert_eq!(tail(&ramp(19)).pct, 50.0);
        assert_eq!(tail(&ramp(19)).beyond, 9);
        assert_eq!(tail(&ramp(20)).pct, 50.0);
        assert_eq!(tail(&ramp(20)).beyond, 10);
        assert_eq!(tail(&ramp(40)).pct, 75.0);
        assert_eq!(tail(&ramp(100)).pct, 90.0);
        assert_eq!(tail(&ramp(200)).pct, 95.0);
        assert_eq!(tail(&ramp(1000)).pct, 99.0);
        assert_eq!(tail(&ramp(1000)).beyond, 10);
        assert_eq!(tail(&ramp(999)).pct, 95.0);
        assert_eq!(tail(&ramp(10_000)).pct, 99.9);
        assert_eq!(tail(&ramp(10_000)).value, 9990.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "latency_p50_ms".into(),
                value: 1.234_567_890_123,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(1, 1, &[]).starts_with("{\"correct\": false"));
    }
}
