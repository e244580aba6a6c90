//! Log-bucketed (HDR-style) latency histogram.
//!
//! Values are simulated nanoseconds. Buckets are log-linear: below
//! `2^(SUB_BITS + 1)` every value gets its own bucket; above that each
//! power-of-two tier is split into `2^SUB_BITS` sub-buckets, bounding
//! relative error at `2^-SUB_BITS` (~3%) while keeping the index table
//! small enough to clone freely (the recorder lives inside the clock,
//! which is `Clone`). All arithmetic is saturating so merges of
//! adversarial inputs stay total and associative.

use enclosure_support::Json;

/// Sub-bucket precision: each power-of-two tier holds `2^SUB_BITS`
/// buckets.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// A mergeable log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, grown lazily to the highest index touched.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for `v` (monotone non-decreasing in `v`).
fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB as u64) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = msb - SUB_BITS; // >= 1
    let sub = (v >> shift) as usize; // in [SUB, 2*SUB)
    (shift as usize) * SUB + sub
}

/// Largest value mapping to bucket `index` (inverse of
/// [`bucket_index`], used to report percentile values).
fn bucket_upper_bound(index: usize) -> u64 {
    if index < 2 * SUB {
        return index as u64;
    }
    let shift = (index / SUB) as u32 - 1;
    let sub = (index - (shift as usize) * SUB) as u128;
    let ub = ((sub + 1) << shift) - 1; // can exceed u64 in the top tier
    u64::try_from(ub).unwrap_or(u64::MAX)
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = self.counts[idx].saturating_add(n);
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Folds another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst = dst.saturating_add(*src);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`0` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (`0` when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of recorded samples, rounded down (`0` when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at percentile `p` (a fraction of 1000, so `p999` is
    /// `percentile(999)`): the upper bound of the bucket holding the
    /// sample of rank `ceil(p/1000 * count)`, clamped to the recorded
    /// `[min, max]` range. Returns `0` on an empty histogram; monotone
    /// non-decreasing in `p`.
    #[must_use]
    pub fn percentile(&self, p_per_mille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p_per_mille.min(1000);
        let target = (p.saturating_mul(self.count)).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return bucket_upper_bound(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Sum of all bucket counts (equals [`Histogram::count`] by
    /// construction; exposed so property tests can assert conservation
    /// across bucket boundaries).
    #[must_use]
    pub fn bucket_total(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Standard percentile row: (label, per-mille) pairs rendered by
    /// `--profile` tables.
    pub const QUANTILES: [(&'static str, u64); 4] =
        [("p50", 500), ("p90", 900), ("p99", 990), ("p99.9", 999)];

    /// Summary as a JSON object (count, sum, min/max/mean, and the
    /// standard quantiles).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count())),
            ("sum", Json::U64(self.sum())),
            ("min", Json::U64(self.min())),
            ("max", Json::U64(self.max())),
            ("mean", Json::U64(self.mean())),
            ("p50", Json::U64(self.percentile(500))),
            ("p90", Json::U64(self.percentile(900))),
            ("p99", Json::U64(self.percentile(990))),
            ("p999", Json::U64(self.percentile(999))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            assert!(idx <= prev + 1, "index skipped a bucket at {v}");
            prev = idx;
        }
    }

    #[test]
    fn upper_bound_inverts_index() {
        for v in [
            0u64,
            1,
            31,
            32,
            63,
            64,
            65,
            127,
            128,
            1000,
            1 << 20,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            assert_eq!(bucket_index(ub), idx, "upper bound left the bucket of {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(500), 31, "rank 32 of 0..64 is the value 31");
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 64);
        assert_eq!(h.bucket_total(), 64);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        assert!(h.percentile(500) >= 1_000 && h.percentile(500) < 1_100);
        assert_eq!(h.percentile(1000), 1_000_000);
        assert!(h.percentile(990) < 1_000_000);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [5u64, 70, 900, 12_345] {
            a.record(v);
            c.record(v);
        }
        for v in [1u64, 64, 1_000_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(500), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }
}
