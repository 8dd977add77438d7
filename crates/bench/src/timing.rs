//! Std-only micro-benchmark harness (offline replacement for criterion).
//!
//! Each kernel is warmed up for a fixed wall-clock budget, then timed over
//! a fixed number of samples; the harness reports min / median / mean
//! per-iteration times. Iteration counts per sample are auto-calibrated so
//! one sample lasts roughly `sample_budget`. Use `--quick` on the bench
//! binary to shrink budgets by 10× (CI smoke mode).
//!
//! ```
//! use digiq_bench::timing::Harness;
//!
//! let mut h = Harness::quick();
//! let stats = h.bench("sum_1k", || (0..1000u64).sum::<u64>());
//! assert!(stats.median_ns > 0.0);
//! ```

use sfq_hw::json::{Json, ToJson};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-kernel timing summary (per-iteration, nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Population standard deviation over the samples — near-zero spread
    /// distinguishes a stable measurement from one dominated by noise
    /// (e.g. a slow kernel that landed at one iteration per sample).
    pub stddev_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (calibrated).
    pub iters_per_sample: u64,
}

impl ToJson for Stats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("min_ns", self.min_ns.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("stddev_ns", self.stddev_ns.to_json()),
            ("samples", self.samples.to_json()),
            ("iters_per_sample", self.iters_per_sample.to_json()),
        ])
    }
}

/// The `p`-th percentile (0–100) of a latency sample by
/// nearest-rank on a sorted copy — what `loadgen` reports as p50/p99.
/// Returns 0.0 on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Micro-benchmark runner with fixed warm-up and sample budgets.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Wall-clock spent warming each kernel before timing.
    pub warm_up: Duration,
    /// Target wall-clock per timed sample.
    pub sample_budget: Duration,
    /// Timed samples per kernel.
    pub samples: usize,
    /// Minimum total iterations across all samples. Slow kernels whose
    /// calibration lands at one iteration per sample would otherwise be
    /// summarized from `samples` single shots — the floor spreads at
    /// least this many iterations over the samples regardless of budget.
    pub min_total_iters: u64,
    /// Collected results, in run order.
    pub results: Vec<(String, Stats)>,
}

impl Harness {
    /// Criterion-comparable defaults (~3 s per kernel).
    pub fn standard() -> Self {
        Harness {
            warm_up: Duration::from_millis(500),
            sample_budget: Duration::from_millis(150),
            samples: 20,
            min_total_iters: 60,
            results: Vec::new(),
        }
    }

    /// Fast smoke-mode budgets (~0.3 s per kernel).
    pub fn quick() -> Self {
        Harness {
            warm_up: Duration::from_millis(50),
            sample_budget: Duration::from_millis(15),
            samples: 10,
            min_total_iters: 20,
            results: Vec::new(),
        }
    }

    /// Times `f`, prints one report line, and records the stats.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> Stats {
        // Warm up and calibrate: how many iterations fit the sample budget?
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let floor = self.min_total_iters.div_ceil(self.samples.max(1) as u64);
        let iters = ((self.sample_budget.as_secs_f64() / per_iter).ceil() as u64)
            .max(floor)
            .max(1);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            sample_ns.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let mean_ns = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
        let var = sample_ns
            .iter()
            .map(|&x| (x - mean_ns) * (x - mean_ns))
            .sum::<f64>()
            / sample_ns.len() as f64;
        let stats = Stats {
            min_ns: sample_ns[0],
            median_ns: sample_ns[sample_ns.len() / 2],
            mean_ns,
            stddev_ns: var.sqrt(),
            samples: self.samples,
            iters_per_sample: iters,
        };
        println!(
            "{name:<32} min {:>12}  median {:>12}  mean {:>12} ±{:>10}  ({} samples x {} iters)",
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.stddev_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push((name.to_string(), stats));
        stats
    }
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_trivial_kernel() {
        let mut h = Harness {
            warm_up: Duration::from_millis(1),
            sample_budget: Duration::from_micros(200),
            samples: 3,
            min_total_iters: 0,
            results: Vec::new(),
        };
        let s = h.bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns || (s.median_ns - s.min_ns).abs() < 1e3);
        assert!(s.stddev_ns >= 0.0);
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].0, "noop_sum");
    }

    #[test]
    fn slow_kernels_hit_the_iteration_floor() {
        // A zero sample budget calibrates to 1 iter/sample; the floor must
        // still spread min_total_iters over the samples.
        let mut h = Harness {
            warm_up: Duration::from_micros(10),
            sample_budget: Duration::ZERO,
            samples: 4,
            min_total_iters: 30,
            results: Vec::new(),
        };
        let s = h.bench("floored", || black_box(1u64 + 1));
        assert!(
            s.iters_per_sample >= 8,
            "floor not applied: {} iters/sample",
            s.iters_per_sample
        );
        assert!(s.iters_per_sample * s.samples as u64 >= 30);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order-independent: percentile sorts its own copy.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn stats_serialize_their_fields() {
        let s = Stats {
            min_ns: 1.0,
            median_ns: 2.0,
            mean_ns: 3.0,
            stddev_ns: 0.25,
            samples: 4,
            iters_per_sample: 5,
        };
        let j = Json::parse(&s.to_json_string()).unwrap();
        assert_eq!(j.num_field("median_ns", "stats"), Ok(2.0));
        assert_eq!(j.count_field("iters_per_sample", "stats"), Ok(5));
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 us");
        assert_eq!(fmt_ns(3.2e6), "3.20 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
