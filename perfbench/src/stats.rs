//! Order statistics used by the benchmark: latency percentiles within a
//! run and the median/quartile summary of repeated runs.

/// How many samples lie strictly beyond the `q`-quantile's rank — the
/// support the choosing of a tail percentile rests on.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * len as f64).ceil() as usize;
    len.saturating_sub(rank.max(1))
}

/// Median of `values` (mean of the two middle values for an even count),
/// as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles of `values` with the same "exclusive"
/// interpolation as Python's `statistics.quantiles(values, n=4)`, so the
/// spread this prints is the spread an outside check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Sub-buckets per power of two in [`LatencyHist`]: values are kept to
/// within 1/256 of their size.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Buckets needed for every `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A latency histogram of fixed size with log-linear buckets (exact below
/// 128 ns, then 128 buckets per power of two): percentiles within 0.4 %,
/// and memory that does not grow with the number of requests, so the
/// generator's own footprint does not depend on how fast the system is.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = ((v >> shift) as usize) & (SUB - 1);
    (shift as usize + 1) * SUB + mantissa
}

/// Middle of bucket `b`'s value range.
fn bucket_mid(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let shift = (b / SUB - 1) as u32;
    let lower = ((SUB + b % SUB) as u64) << shift;
    lower + ((1u64 << shift) - 1) / 2
}

impl LatencyHist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, o: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
        self.sum += o.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of the recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile by the nearest-rank rule, as the middle of the
    /// bucket holding that rank. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_mid(b));
            }
        }
        unreachable!("rank is at most the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random samples for oracle comparisons.
    fn samples(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) % 10_000
            })
            .collect()
    }

    #[test]
    fn histogram_percentiles_stay_within_bucket_precision_of_the_oracle() {
        for n in [1usize, 7, 100, 1000, 50_000] {
            // Latency-like values from 100 ns to about 100 ms.
            let data: Vec<u64> = samples(n, 3 * n as u64)
                .into_iter()
                .map(|v| 100 + v * v)
                .collect();
            let mut h = LatencyHist::default();
            for &v in &data {
                h.record(v);
            }
            assert_eq!(h.count(), n as u64);
            let exact_mean = data.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
            assert!((h.mean() - exact_mean).abs() < 1e-6 * exact_mean);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                let oracle = sorted[rank - 1] as f64;
                let got = h.percentile(q).unwrap() as f64;
                assert!(
                    (got - oracle).abs() <= oracle / 256.0 + 0.5,
                    "n={n} q={q}: {got} vs {oracle}"
                );
            }
        }
        assert_eq!(LatencyHist::default().percentile(0.5), None);
        for v in [0u64, 127, 128, 255, 256, 1 << 40, u64::MAX] {
            let b = bucket(v);
            assert!(b < BUCKETS);
            assert!(bucket_mid(b).abs_diff(v) <= v / 256 + 1, "v={v}");
        }
    }

    #[test]
    fn merged_histograms_count_both() {
        let mut a = LatencyHist::default();
        let mut b = LatencyHist::default();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.percentile(0.5), Some(10));
        assert!(a.percentile(1.0).unwrap().abs_diff(1_000_000) < 4_000);
    }

    #[test]
    fn tail_support_counts_samples_beyond_rank() {
        assert_eq!(samples_beyond(10_000, 0.99), 100);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) reference values.
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        let odd = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&odd), 3.0);
        assert_eq!(quartiles(&odd), (1.5, 4.5));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
