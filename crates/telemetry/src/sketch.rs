//! Bounded-memory log-bucketed histogram sketch.
//!
//! `LatencyStats` keeps every sample and clones + sorts the vector per
//! quantile query; fine for a few thousand cycle latencies, hopeless as a
//! general telemetry primitive. The sketch instead buckets values on a
//! logarithmic grid with [`BUCKETS_PER_DOUBLING`] buckets per power of two
//! (growth factor 2^(1/4) ~= 1.19), so any quantile is recoverable to
//! within one bucket of the exact answer while memory stays proportional
//! to the number of *distinct magnitudes* observed, not the sample count.

use std::collections::BTreeMap;

/// Buckets per doubling of the value range. Four gives a worst-case
/// relative quantile error of 2^(1/8) - 1 ~= 9% (half a bucket).
pub const BUCKETS_PER_DOUBLING: f64 = 4.0;

/// Bucket indices are clamped to this symmetric range, which covers
/// magnitudes from ~2^-512 to ~2^512 — far beyond any latency or count
/// this workspace produces — and bounds the map even on garbage input.
const MAX_BUCKET: i32 = 2048;

/// A bounded-memory quantile sketch over nonnegative samples.
///
/// Values `<= 0` are tallied in a dedicated underflow bucket whose
/// representative is zero, so latency streams that contain exact zeros
/// (e.g. disabled phases) keep correct ranks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSketch {
    buckets: BTreeMap<i32, u64>,
    zero_or_less: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Maps a positive value to its bucket index.
fn bucket_of(v: f64) -> i32 {
    let raw = (v.log2() * BUCKETS_PER_DOUBLING).floor();
    if raw.is_nan() {
        0
    } else {
        raw.clamp(-(MAX_BUCKET as f64), (MAX_BUCKET - 1) as f64) as i32
    }
}

/// Geometric midpoint of bucket `i`: the representative returned for any
/// rank that lands in the bucket.
fn representative(i: i32) -> f64 {
    ((i as f64 + 0.5) / BUCKETS_PER_DOUBLING).exp2()
}

impl HistogramSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v > 0.0 {
            *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        } else {
            self.zero_or_less += 1;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 for an empty sketch.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum sample, or 0 for an empty sketch.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum sample, or 0 for an empty sketch.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Number of occupied buckets (memory proxy; excludes the underflow
    /// bucket).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Nearest-rank quantile in `[0, 1]`, or 0 for an empty sketch.
    ///
    /// Uses the same nearest-rank convention as `LatencyStats::quantile`,
    /// so the two agree to within one bucket on identical streams. The
    /// bucket representative is clamped to the observed `[min, max]` so
    /// extreme quantiles never overshoot the data.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0)) * (self.count - 1) as f64).round() as u64;
        let mut seen = self.zero_or_less;
        if rank < seen {
            return 0.0;
        }
        for (&i, &n) in &self.buckets {
            seen += n;
            if rank < seen {
                return representative(i).clamp(self.min.max(0.0), self.max);
            }
        }
        self.max
    }

    /// CDF points `(bucket_representative, cumulative_fraction)` for
    /// plotting, ascending in value.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        let mut seen = 0u64;
        if self.zero_or_less > 0 {
            seen += self.zero_or_less;
            out.push((0.0, seen as f64 / self.count as f64));
        }
        for (&i, &n) in &self.buckets {
            seen += n;
            out.push((
                representative(i).clamp(self.min.max(0.0), self.max),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_zero() {
        let s = HistogramSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn single_sample_round_trips() {
        let mut s = HistogramSketch::new();
        s.observe(3.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
        // With one sample every quantile lands in its bucket; the
        // representative is clamped to [min, max] = [3, 3].
        assert_eq!(s.quantile(0.0), 3.0);
        assert_eq!(s.quantile(1.0), 3.0);
    }

    #[test]
    fn quantile_within_one_bucket() {
        let mut s = HistogramSketch::new();
        let samples = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        for v in samples {
            s.observe(v);
        }
        for (q, exact) in [(0.0, 1.0), (0.5, 16.0), (1.0, 128.0)] {
            let approx = s.quantile(q);
            let ratio = approx / exact;
            assert!(
                (2f64.powf(-0.5)..=2f64.powf(0.5)).contains(&ratio),
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zeros_occupy_low_ranks() {
        let mut s = HistogramSketch::new();
        s.observe(0.0);
        s.observe(0.0);
        s.observe(10.0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.count(), 3);
        assert!(s.quantile(1.0) > 0.0);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = HistogramSketch::new();
        for i in 0..100_000u32 {
            s.observe(1.0 + (i % 1000) as f64);
        }
        assert_eq!(s.count(), 100_000);
        // 1..=1000 spans ~10 doublings -> at most ~40 buckets.
        assert!(s.bucket_count() <= 64, "buckets: {}", s.bucket_count());
    }
}
