//! Measurement statistics: a fixed-size log-linear histogram, 1-second
//! windowing, nearest-rank percentiles, and the median/quartile summary
//! the report prints.
//!
//! The histogram keeps counts only — no per-sample storage — so the load
//! generator's memory stays flat however long a run lasts. Values below
//! 2^[`SUB_BITS`] land in exact buckets; above that each power of two is
//! split into 2^[`SUB_BITS`] equal buckets, so a bucket's width is at most
//! 1/128 of its lower edge and the reported midpoint is within 0.4% of
//! every value in it.

use std::time::{Duration, Instant};

/// Sub-bucket resolution: 2^7 = 128 buckets per power of two.
pub const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Largest exponent tracked; larger values clamp into the last bucket
/// (2^40 ns is over 18 minutes).
const MAX_EXP: u32 = 40;
const N_BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS + 1) as usize * SUB;

/// A percentile needs at least this many samples beyond its rank to be
/// reported; otherwise it is absent.
pub const MIN_TAIL: u64 = 10;

/// Log-linear histogram of `u64` samples (nanoseconds, bytes, …).
#[derive(Clone, Default)]
pub struct Histogram {
    /// Allocated on first record, so unused histograms cost nothing.
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return N_BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    SUB + (shift as usize) * SUB + sub
}

/// Inclusive lower edge and exclusive upper edge of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let shift = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let lo = (SUB as u64 + sub) << shift;
    (lo, lo + (1u64 << shift))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; N_BUCKETS];
        }
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; N_BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile `p` in `(0, 1]`: the value at rank
    /// `ceil(p·n)`, reported as its bucket's midpoint. `None` when fewer
    /// than [`MIN_TAIL`] samples lie beyond that rank — such a percentile
    /// is set by too few samples to mean anything.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        if self.total < rank + MIN_TAIL {
            return None;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(i);
                return Some(if hi - lo == 1 {
                    lo as f64
                } else {
                    (lo + hi) as f64 / 2.0
                });
            }
        }
        None
    }
}

/// Maps instants to 1-second (or `width`) measurement windows starting at
/// `start`. Instants before `start` (warm-up) or past the last window
/// (drain) belong to no window.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Start of the first measured window.
    pub start: Instant,
    /// Window width.
    pub width: Duration,
    /// Number of windows.
    pub windows: usize,
}

impl Clock {
    /// `windows` windows of `width`, the first starting at `start`.
    pub fn new(start: Instant, width: Duration, windows: usize) -> Clock {
        Clock {
            start,
            width,
            windows,
        }
    }

    /// End of the last window.
    pub fn end(&self) -> Instant {
        self.start + self.width * self.windows as u32
    }

    /// The window holding `at`, if any.
    pub fn window(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.start)?;
        let ix = (since.as_nanos() / self.width.as_nanos().max(1)) as usize;
        (ix < self.windows).then_some(ix)
    }
}

/// Median and quartiles of a set of values (per-window or per-run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values summarised.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`, ignoring absent ones; `None` if none are
    /// present. Quartiles follow Python's `statistics.quantiles(n=4)`
    /// ("exclusive" method), so the numbers printed here match a
    /// spreadsheet or script recomputing them from the raw values.
    pub fn of(values: impl IntoIterator<Item = Option<f64>>) -> Option<Summary> {
        let mut v: Vec<f64> = values.into_iter().flatten().collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Some(Summary { median, q1, q3, n })
    }
}

/// Quartile `i` (1 or 3) of sorted `v` by the "exclusive" method.
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    let n = 4;
    let m = v.len() + 1;
    let j = (i * m / n).clamp(1, v.len() - 1);
    // Negative for tiny samples, where the method extrapolates.
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_core::prng::SplitMix64;

    /// Nearest-rank oracle over the raw samples.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_match_sorted_oracle_within_one_percent() {
        let mut rng = SplitMix64::new(7);
        for round in 0..20 {
            let n = 200 + rng.range_usize(0, 20_000);
            let mut h = Histogram::new();
            let mut raw = Vec::with_capacity(n);
            for _ in 0..n {
                // Log-uniform over ~1 ns .. ~1 s, plus exact small values.
                let v = if round % 5 == 0 {
                    rng.range_usize(0, 200) as u64
                } else {
                    (2f64.powf(rng.next_f64() * 30.0)) as u64
                };
                h.record(v);
                raw.push(v);
            }
            raw.sort_unstable();
            for p in [0.01, 0.25, 0.5, 0.9, 0.99] {
                let want = oracle(&raw, p) as f64;
                match h.percentile(p) {
                    Some(got) => {
                        let err = (got - want).abs() / want.max(1.0);
                        assert!(err <= 0.01, "p{p} round {round}: got {got}, want {want}");
                    }
                    None => {
                        let rank = (p * n as f64).ceil() as u64;
                        assert!(n as u64 - rank < MIN_TAIL, "p{p} absent with enough tail");
                    }
                }
            }
        }
    }

    #[test]
    fn percentile_with_thin_tail_is_absent() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(h.percentile(0.99), None);
        // p50 has 50 beyond it.
        assert_eq!(h.percentile(0.5), Some(50.0));
        assert_eq!(Histogram::new().percentile(0.5), None);
    }

    #[test]
    fn bucket_error_is_bounded_over_the_whole_range() {
        for exp in 0..MAX_EXP {
            for frac in [0u64, 1, 3, 7] {
                let v = (1u64 << exp) + frac * ((1u64 << exp) / 8);
                let (lo, hi) = bucket_range(bucket_of(v));
                assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
                assert!((hi - lo) as f64 / lo.max(1) as f64 <= 1.0 / 128.0 + 1e-12 || hi - lo == 1);
            }
        }
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50 {
            a.record(v);
            b.record(v + 50);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.percentile(0.5), Some(49.0));
    }

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(|v| Some(v as f64))).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let two = Summary::of([Some(1.0), Some(2.0)]).unwrap();
        assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
        let one = Summary::of([Some(3.0), None]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (3.0, 3.0, 3.0, 1));
        assert!(Summary::of([None]).is_none());
    }

    #[test]
    fn clock_maps_instants_to_windows() {
        let t0 = Instant::now();
        let c = Clock::new(t0, Duration::from_secs(1), 3);
        assert_eq!(c.window(t0), Some(0));
        assert_eq!(c.window(t0 + Duration::from_millis(2500)), Some(2));
        assert_eq!(c.window(t0 + Duration::from_secs(3)), None);
        assert_eq!(c.window(t0 - Duration::from_millis(1)), None);
    }
}
