//! Log-linear latency histogram: 16 sub-buckets per power of two.
//!
//! A value `v >= 16` with highest set bit `m` falls in the sub-bucket
//! `(v >> (m - 4)) & 15` of octave `m`; values below 16 get a bucket
//! each. A bucket is at most 1/16 of its lower bound wide, so any
//! value read from a bucket is within 6.25% of every sample in it —
//! fine enough to tell p95 from p99, where a log₂ histogram reports the
//! same power of two for both. Quantiles interpolate within the bucket,
//! so they move smoothly between runs instead of jumping from one
//! bucket bound to the next.
//!
//! Recording is one relaxed `fetch_add` per counter: the histogram
//! publishes no other data, and readers only look after the writers
//! have been joined.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets `0..16`, then 16 sub-buckets for each octave 4..=63.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A concurrent histogram of `u64` samples (nanoseconds, counts, …).
pub struct Hist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
    ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
}

/// The `[low, high]` range of values bucket `i` holds.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        return (i as u64, i as u64);
    }
    let msb = (i / SUB as usize) as u32 + SUB_BITS - 1;
    let sub = (i % SUB as usize) as u64;
    let width = 1u64 << (msb - SUB_BITS);
    let low = (SUB + sub) << (msb - SUB_BITS);
    (low, low + (width - 1))
}

impl Hist {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add every sample of `other` to `self`.
    pub fn merge(&self, other: &Hist) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`): the sample of rank
    /// `ceil(q * count)`, placed within its bucket by linear
    /// interpolation on rank and clamped to the observed range. `0.0`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if seen + in_bucket >= rank {
                let (low, high) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                let v = low as f64 + within / in_bucket as f64 * (high - low + 1) as f64;
                let lo = self.min.load(Ordering::Relaxed) as f64;
                let hi = self.max.load(Ordering::Relaxed) as f64;
                return if low == high {
                    low as f64
                } else {
                    v.clamp(lo, hi)
                };
            }
            seen += in_bucket;
        }
        self.max.load(Ordering::Relaxed) as f64
    }

    /// Samples strictly above the `q`-quantile's bucket: how much of
    /// the tail a percentile rests on.
    pub fn beyond(&self, q: f64) -> u64 {
        let n = self.count();
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        let mut seen = 0;
        for b in self.buckets.iter() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return n - seen;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Rng;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, high) = bucket_range(i);
            assert_eq!(low, next, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert_eq!(bucket_of(low), i);
            assert_eq!(bucket_of(high), i);
            assert!((high - low) as f64 <= low.max(16) as f64 / 16.0);
            next = high.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_match_exactly_sorted_samples() {
        let mut rng = Rng::new(7);
        for shape in 0..3 {
            let h = Hist::default();
            let mut exact: Vec<u64> = (0..50_000)
                .map(|_| match shape {
                    // Uniform, heavy-tailed, and mostly tiny values.
                    0 => 1_000 + rng.below(9_000),
                    1 => 200 + (rng.below(1 << 20) * rng.below(1 << 10)) / 997,
                    _ => rng.below(40),
                })
                .collect();
            for &v in &exact {
                h.record(v);
            }
            exact.sort_unstable();
            for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
                let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
                let want = exact[rank - 1] as f64;
                let got = h.quantile(q);
                let err = (got - want).abs() / want.max(1.0);
                assert!(err <= 0.0625, "shape {shape} q {q}: {got} vs exact {want}");
            }
        }
    }

    #[test]
    fn p95_and_p99_stay_apart_within_one_octave() {
        // 1,000..=2,000 ns uniform: a log₂ histogram reports 2,048 for
        // both; this one must resolve them.
        let h = Hist::default();
        for v in 1_000..=2_000 {
            h.record(v);
        }
        assert!(h.quantile(0.99) - h.quantile(0.95) > 25.0);
    }

    #[test]
    fn merge_adds_counts() {
        let (a, b) = (Hist::default(), Hist::default());
        a.record(5);
        b.record(500);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 512);
        // The top bucket is [496, 511]; the estimate clamps to the max.
        assert_eq!(a.quantile(1.0), 500.0);
    }
}
