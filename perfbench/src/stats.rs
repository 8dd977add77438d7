//! Order statistics and output digests.

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// tolerance keeps a product such as `0.7368… × 38` that lands a rounding
/// error above an integer on that integer.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `p`-th percentile, or `None` unless at least ten
/// samples lie beyond it (a percentile with fewer is not measured, only
/// guessed).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(n, p) < 10 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(n, p) - 1])
}

/// The tail latency reported as `latency_p99_ms`: the 99th percentile
/// when at least ten samples lie beyond it, otherwise the highest
/// percentile that has ten samples beyond it. With fewer than 20 samples
/// no percentile above the median qualifies, and the median is reported
/// (the maximum of a handful of rounds measures only noise). Returns
/// `(percentile used, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if let Some(v) = percentile(samples, 99.0) {
        return (99.0, v);
    }
    if n >= 20 {
        let p = 100.0 * (n - 10) as f64 / n as f64;
        if let Some(v) = percentile(samples, p) {
            return (p, v);
        }
    }
    (50.0, median(samples))
}

/// 64-bit FNV-1a, the digest pinning a workload's full output in one
/// comparable value.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn push_f64(&mut self, v: f64) {
        self.update(&v.to_bits().to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — measurable.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank 990, nine beyond — refused.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_measurable_percentile() {
        assert_eq!(tail(&ramp(2000)), (99.0, 1980.0));
        // 50 samples: p80 is the highest percentile with ten beyond it.
        let (p, v) = tail(&ramp(50));
        assert_eq!((p, v), (80.0, 40.0));
        assert_eq!(ramp(50).iter().filter(|&&x| x > v).count(), 10);
        // Every count above 20 finds its rank despite rounding in
        // `p / 100 × n` (38 samples once fell back to the median).
        for n in 21..1000 {
            let (p, v) = tail(&ramp(n));
            assert!(p > 50.0, "{n} samples fell back to p{p}");
            assert_eq!(ramp(n).iter().filter(|&&x| x > v).count(), 10, "{n}");
        }
        // Too few samples for a measured tail above the median: the
        // median.
        assert_eq!(tail(&ramp(19)), (50.0, 10.0));
        assert_eq!(tail(&ramp(5)), (50.0, 3.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut d = Fnv64::new();
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }
}
