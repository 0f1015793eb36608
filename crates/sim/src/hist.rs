//! Fixed-bucket log-scale latency histogram for open-loop SLO reporting.
//!
//! The open-loop driver stamps every demand fault at issue and at
//! satisfaction and must accumulate millions of samples without touching
//! the allocator on the hot path. This histogram is an HDR-lite design:
//! values below 32 ns land in exact unit buckets; above that, each
//! power-of-two octave is split into 32 linear sub-buckets, so relative
//! resolution is bounded by 1/32 (~3%) everywhere. The bucket array is
//! allocated once at construction and never grows.
//!
//! Histograms are mergeable (bucket-wise addition plus max-of-maxes),
//! which is what lets every host keep its own histogram and a run cut
//! into per-segment lanes (`ParallelMode::Workers`) still produce the
//! exact same percentile report as a one-lane run: merging is
//! associative and commutative, and the digest is computed over bucket
//! counts, not insertion order.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per octave (and the exact-bucket region size).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: exact region plus one octave row per possible
/// shift `k` in `0..=63 - SUB_BITS` (the top row ends at 2^64 - 1).
const BUCKETS: usize = (SUB as usize) * (65 - SUB_BITS as usize);

/// Log-scale latency histogram with exact counts and bounded relative error.
///
/// Values are recorded in nanoseconds (any `u64` unit works; the unit is
/// the caller's contract). Percentile extraction returns the upper bound
/// of the bucket holding the nearest-rank sample, clamped to the exact
/// recorded maximum, so reported tails never exceed reality.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram. Allocates the bucket array once.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0u64; BUCKETS]),
            total: 0,
            max: 0,
        }
    }

    /// Bucket index for a value. Exact below `SUB`; log-linear above.
    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let k = msb - SUB_BITS;
            let offset = (v >> k) - SUB;
            (SUB as usize) * (k as usize + 1) + offset as usize
        }
    }

    /// Inclusive upper bound of bucket `b` (the largest value mapping to it).
    fn upper_bound(b: usize) -> u64 {
        if b < SUB as usize {
            b as u64
        } else {
            let k = (b / SUB as usize - 1) as u32;
            let offset = (b % SUB as usize) as u64;
            // The top bucket's bound is 2^64; the wrapped shift is 0 and
            // wrapping_sub yields u64::MAX, which is exactly right.
            ((SUB + offset + 1) << k).wrapping_sub(1)
        }
    }

    /// Records one sample. No allocation; O(1).
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one. Associative and commutative,
    /// so lane-local histograms can merge in any order with identical results.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Nearest-rank percentile: the upper bound of the bucket containing the
    /// `ceil(q * count)`-th sample, clamped to the exact maximum. Returns 0
    /// when empty. `q` is in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::upper_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// FNV-1a digest over bucket counts, total, and max. Two histograms with
    /// the same sample multiset produce the same digest regardless of the
    /// order samples were recorded or merged in.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.total);
        mix(self.max);
        for (b, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                mix(b as u64);
                mix(c);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        for v in 0..SUB {
            assert_eq!(LatencyHistogram::bucket_of(v), v as usize);
            assert_eq!(LatencyHistogram::upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // Every value maps into a bucket whose range contains it, and
        // adjacent buckets tile the line with no gaps or overlaps.
        let probes = [
            31u64,
            32,
            33,
            63,
            64,
            65,
            127,
            128,
            1_000,
            4_095,
            4_096,
            1 << 20,
            (1 << 20) + 12_345,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let b = LatencyHistogram::bucket_of(v);
            assert!(
                LatencyHistogram::upper_bound(b) >= v,
                "value {v} above bucket {b} bound"
            );
            if b > 0 {
                assert!(
                    LatencyHistogram::upper_bound(b - 1) < v,
                    "value {v} also fits bucket {}",
                    b - 1
                );
            }
        }
        // Boundary tiling: the first value of each bucket is one past the
        // previous bucket's upper bound, across the whole valid range.
        for b in 1..BUCKETS {
            let prev_hi = LatencyHistogram::upper_bound(b - 1);
            assert_eq!(LatencyHistogram::bucket_of(prev_hi + 1), b);
        }
        assert_eq!(LatencyHistogram::upper_bound(BUCKETS - 1), u64::MAX);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded() {
        // Upper bound overestimates a value by at most one sub-bucket width,
        // i.e. relative error < 1/SUB for values >= SUB.
        let mut v = SUB;
        while v < 1 << 40 {
            let hi = LatencyHistogram::upper_bound(LatencyHistogram::bucket_of(v));
            assert!(hi >= v);
            assert!((hi - v) as f64 / v as f64 <= 1.0 / SUB as f64 + f64::EPSILON);
            v = v * 7 / 3 + 1;
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let samples_a = [3u64, 50, 900, 1 << 22, 7];
        let samples_b = [12u64, 12, 4_000_000, 31];
        let samples_c = [1u64, 1 << 33, 600];
        let fill = |s: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in s {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (fill(&samples_a), fill(&samples_b), fill(&samples_c));

        // (a + b) + c
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // c + b + a
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);

        assert_eq!(ab_c.digest(), a_bc.digest());
        assert_eq!(ab_c.digest(), cba.digest());
        assert_eq!(ab_c.count(), 12);
        assert_eq!(ab_c.max(), 1 << 33);
    }

    #[test]
    fn percentiles_match_sorted_vec_oracle() {
        // Deterministic pseudo-random sample set; compare nearest-rank
        // percentiles against the sorted vector, allowing bucket resolution.
        let mut state: u64 = 0x5eed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Spread across several octaves: low bits pick magnitude.
            let mag = (state >> 60) % 5; // 0..=4
            (state >> 32) % (1u64 << (8 + 4 * mag)) + 1
        };
        let mut h = LatencyHistogram::new();
        let mut all: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let v = next();
            h.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for &q in &[0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let oracle = all[rank - 1];
            let got = h.percentile(q);
            assert!(got >= oracle, "p{q}: got {got} < oracle {oracle}");
            // Overestimate bounded by one sub-bucket (plus exact-region slack).
            let slack = oracle / SUB + 1;
            assert!(
                got <= oracle + slack,
                "p{q}: got {got} > oracle {oracle} + {slack}"
            );
        }
        assert_eq!(h.percentile(1.0), *all.last().unwrap());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.999), 0);
    }

    #[test]
    fn digest_is_order_independent() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [5u64, 77, 3000, 5, 1 << 25] {
            a.record(v);
        }
        for v in [1u64 << 25, 5, 5, 3000, 77] {
            b.record(v);
        }
        assert_eq!(a.digest(), b.digest());
        // And sensitive to content.
        b.record(6);
        assert_ne!(a.digest(), b.digest());
    }
}
