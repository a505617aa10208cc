//! Log-bucketed (HDR-style) histograms with lock-free recording.
//!
//! Values are non-negative integer **ticks**; the caller picks the
//! unit (the serving layer records microseconds, batch-size histograms
//! record plain counts). Bucket layout: values `0..8` each get an
//! exact bucket; beyond that every power-of-two octave is split into
//! `2^SUB_BITS = 8` linear sub-buckets, so a bucket's relative width —
//! and therefore the worst-case quantile error — is bounded by
//! `2^-SUB_BITS = 12.5%`. 496 fixed buckets cover the whole `u64`
//! range: a histogram is ~4 KiB and never grows, which is the point —
//! it replaces the serving engine's unbounded `Vec<f64>` sample store.
//!
//! [`HistogramCore::record`] is lock-free: relaxed `fetch_add`s on the
//! bucket, count and tick sum, relaxed `fetch_min`/`fetch_max` on the
//! extremes, and a CAS loop for the `f64` sum of squares (kept for
//! standard-deviation reconstruction). Count, sum, min and max are
//! exact; only quantiles are bucket-approximated.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear buckets.
pub const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering all of `u64` (group 0 is the exact
/// `0..SUB` range; groups `1..=64-SUB_BITS` carry one octave each).
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index a value lands in.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let offset = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    group * SUB + offset
}

/// Largest value (inclusive) landing in bucket `idx`.
#[must_use]
pub fn bucket_upper(idx: usize) -> u64 {
    assert!(idx < NUM_BUCKETS, "bucket index out of range");
    if idx < SUB {
        return idx as u64;
    }
    let group = (idx / SUB) as u32;
    let offset = (idx % SUB) as u64;
    let shift = group - 1;
    let lower = (SUB as u64 + offset) << shift;
    lower + ((1u64 << shift) - 1)
}

/// Fixed-footprint concurrent histogram over `u64` ticks.
pub struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    sum_sq: AtomicU64, // f64 bits, CAS-accumulated
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramCore {
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            sum_sq: AtomicU64::new(0.0f64.to_bits()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free; safe from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        let vf = v as f64;
        let mut cur = self.sum_sq.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + vf * vf).to_bits();
            match self
                .sum_sq
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Point-in-time copy. Concurrent recorders may land between field
    /// reads, so a snapshot taken mid-storm can be momentarily torn
    /// (count ahead of a bucket, say); quiescent snapshots are exact.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            sum_sq: f64::from_bits(self.sum_sq.load(Relaxed)),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// Owned copy of a histogram's state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket increment counts (`NUM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    pub count: u64,
    /// Exact sum of all recorded ticks (wraps past `u64::MAX`).
    pub sum: u64,
    /// Sum of squared ticks, for std-dev reconstruction.
    pub sum_sq: f64,
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile in ticks (`q` in `[0, 1]`), reported as
    /// the containing bucket's upper bound clamped to the exact
    /// observed `[min, max]`. `None` when empty.
    #[must_use]
    pub fn quantile_ticks(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum as f64 / self.count as f64)
    }

    /// Population standard deviation in ticks. `None` when empty.
    #[must_use]
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = (self.sum_sq / self.count as f64 - mean * mean).max(0.0);
        Some(var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_exhaustive() {
        // Every bucket's upper bound maps back to that bucket, and
        // upper bounds strictly increase.
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let up = bucket_upper(idx);
            assert_eq!(bucket_index(up), idx, "upper bound of bucket {idx}");
            if let Some(p) = prev {
                assert!(up > p, "bounds must increase at {idx}");
                // The value one past the previous bound starts this bucket.
                assert_eq!(bucket_index(p + 1), idx);
            }
            prev = Some(up);
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for idx in SUB..NUM_BUCKETS {
            let up = bucket_upper(idx);
            let lo = if idx == SUB {
                8
            } else {
                bucket_upper(idx - 1) + 1
            };
            let width = (up - lo) as f64;
            assert!(
                width / lo as f64 <= 0.125 + 1e-12,
                "bucket {idx}: [{lo}, {up}] wider than 12.5%"
            );
        }
    }

    #[test]
    fn count_sum_min_max_are_exact() {
        let h = HistogramCore::new();
        let vals = [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, 7_654_321];
        for &v in &vals {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, vals.len() as u64);
        assert_eq!(s.sum, vals.iter().sum::<u64>());
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 7_654_321);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn quantiles_stay_within_bucket_error() {
        let h = HistogramCore::new();
        // Deterministic LCG sample set spread over several octaves.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..5_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = (x >> 40) + 50; // ~[50, 16M)
            exact.push(v);
            h.record(v);
        }
        exact.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1] as f64;
            let got = s.quantile_ticks(q).unwrap() as f64;
            // Bucket upper bound: overshoots by at most the 12.5%
            // relative bucket width, never undershoots the true rank
            // value's bucket lower bound.
            assert!(got >= truth * (1.0 - 0.125) - 1.0, "q{q}: {got} < {truth}");
            assert!(got <= truth * (1.0 + 0.125) + 1.0, "q{q}: {got} > {truth}");
        }
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        use std::sync::Arc;
        let h = Arc::new(HistogramCore::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 40_000);
    }
}
