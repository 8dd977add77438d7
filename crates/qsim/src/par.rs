//! The workspace's one worker pool and order-preserving parallel map.
//!
//! Every parallel stage — the evaluation engine's sweep executor, the
//! Fig 10 error model's searches, qubits and couplers, the CZ hold-time
//! scan — runs on [`run_pool`], and every map over independent items goes
//! through [`par_map_ordered`]. The map lives here, beside
//! [`crate::counters`], because it rolls each worker's tallies into the
//! caller's table at the join, so a `counted` scope around it sees the
//! same totals for any worker count. Parallelism is `std::thread::scope`
//! only: no pool outlives a call.

use crate::counters::{self, KernelCounters};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The number of workers a parallel stage uses when the caller does not
/// care: every available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The one worker pool: `workers` (at least one) scoped threads, each
/// calling `step` until it returns `false`.
pub fn run_pool(workers: usize, step: impl Fn() -> bool + Sync) {
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| while step() {});
        }
    });
}

/// Order-preserving parallel map: `f(i, &items[i])` runs on a pool of
/// `workers` scoped threads pulling indices from an atomic counter, and
/// the results are returned **in input order** regardless of worker count
/// or scheduling — the merge step every deterministic sweep binary uses.
///
/// The [`counters`] tallies each call accrues on its worker thread are
/// added into the calling thread's table at the join, so a `counted`
/// scope around the map sees the same totals for any worker count.
///
/// # Panics
///
/// Propagates any panic raised inside `f`.
pub fn par_map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, KernelCounters)>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    run_pool(workers.min(items.len()), || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            return false;
        };
        let out = counters::counted(|| f(i, item));
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        true
    });
    slots
        .into_iter()
        .map(|m| {
            let (r, tally) = m
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker completed every claimed job");
            counters::add(&tally);
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..57).collect();
        let serial = par_map_ordered(&items, 1, |i, &x| i * 1000 + x * x);
        for workers in [2, 4, 9] {
            let parallel = par_map_ordered(&items, workers, |i, &x| i * 1000 + x * x);
            assert_eq!(serial, parallel);
        }
        assert!(par_map_ordered(&[] as &[usize], 4, |_, &x| x).is_empty());
    }
}
