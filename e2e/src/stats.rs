//! Order statistics over what the benchmark samples.

use mether_sim::LatencyHistogram;

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of unsorted `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank quantile of an ascending slice of nanosecond samples.
pub fn rank_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Quantile `q` of a [`LatencyHistogram`], interpolated by rank inside
/// the bucket that holds it.
///
/// `LatencyHistogram::percentile` returns a bucket's upper bound, which
/// steps by ~3 %: two seeds whose medians differ by 1 % read the very
/// same number. The histogram's buckets are private, but `percentile`
/// is exact in *rank*, so the ranks that share the answer `hi` are the
/// bucket's population, the answer one rank below them bounds it from
/// underneath, and the target rank's position among them places the
/// sample between the two.
pub fn hist_quantile_ns(hist: &LatencyHistogram, q: f64) -> f64 {
    let n = hist.count();
    if n == 0 {
        return 0.0;
    }
    // `percentile(q)` resolves to rank ceil(q·n); aiming at the middle
    // of a rank's interval keeps float rounding from moving it.
    let at_rank = |r: u64| hist.percentile((r as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let hi = at_rank(rank);
    // First and last rank that answer `hi` (answers ascend with rank).
    let first = partition_point(1, rank, |r| at_rank(r) < hi);
    let last = partition_point(rank, n + 1, |r| at_rank(r) <= hi) - 1;
    let lo = if first > 1 { at_rank(first - 1) } else { 0 };
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    lo as f64 + (hi - lo) as f64 * share
}

/// First `r` in `[from, to)` for which `pred(r)` is false (`to` if none);
/// `pred` must be true on a prefix of the range.
fn partition_point(from: u64, to: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (from, to);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}
