//! Span tallies for the traced runs.
//!
//! A traced round times the calls it makes into each layer's public
//! functions from here, in the benchmark's own code, so the program
//! under test runs unmodified. Each thread keeps its own [`Spans`];
//! [`par_map`] merges its workers' spans into **wall-equivalent** time:
//! inside a parallel section each layer gets the section's wall time in
//! proportion to its share of the workers' busy time, so the layer times
//! of a round plus its `unattributed.ms` add up to the round's wall time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Named span times (ns) and counts of one thread or one round.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Disjoint spans: together they are the round's covered time.
    top: BTreeMap<&'static str, f64>,
    /// Spans inside a top-level span (reported, not summed for coverage).
    nested: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Runs `f` inside the top-level span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.top.entry(name).or_default() += t.elapsed().as_nanos() as f64;
        out
    }

    /// Adds `ns` to a span nested inside a top-level one.
    pub fn nested(&mut self, name: &'static str, ns: f64) {
        *self.nested.entry(name).or_default() += ns;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Adds this thread's `qsim::counters` tallies since its last reset.
    pub fn count_qsim(&mut self) {
        let c = qsim::counters::snapshot();
        self.count("qsim.flops", c.flops);
        self.count("qsim.allocs", c.allocs);
    }

    /// Folds `other` in, scaling its times by `scale`.
    pub fn absorb(&mut self, other: &Spans, scale: f64) {
        for (k, v) in &other.top {
            *self.top.entry(k).or_default() += v * scale;
        }
        for (k, v) in &other.nested {
            *self.nested.entry(k).or_default() += v * scale;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    fn covered_ns(&self) -> f64 {
        self.top.values().sum()
    }

    /// The round's metrics: every span as `<name>.ms`, every count under
    /// its own name, and `unattributed.ms`, the part of `wall_ns` no
    /// top-level span covers.
    pub fn into_metrics(self, wall_ns: f64) -> BTreeMap<String, f64> {
        let covered = self.covered_ns();
        let mut out = BTreeMap::new();
        for (k, v) in self.top.into_iter().chain(self.nested) {
            out.insert(format!("{k}.ms"), v / 1e6);
        }
        for (k, v) in self.counts {
            out.insert(k.to_string(), v as f64);
        }
        out.insert("unattributed.ms".to_string(), (wall_ns - covered) / 1e6);
        out
    }
}

/// How [`par_map`] hands items to its workers — mirroring the code it
/// rebuilds, so traced and untraced rounds balance load alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Workers pull the next index from a shared counter
    /// (`engine::par_map_ordered`).
    Dynamic,
    /// Worker `w` takes the `w`-th of `workers` contiguous chunks (the
    /// `error_model` figures' scoped pools).
    Chunks,
}

/// Order-preserving parallel map on `workers` scoped threads, with a
/// [`Spans`] per worker. Returns the results in input order, the
/// section's wall-equivalent spans (qsim counts included), and the
/// scale that turned the workers' summed busy time into wall time (for
/// nested times the caller reads afterwards, such as pass timings).
pub fn par_map<T, R, F>(items: &[T], workers: usize, split: Split, f: F) -> (Vec<R>, Spans, f64)
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut Spans) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    let chunk = n.div_ceil(workers);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    let per_worker: Vec<(Spans, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, slots, f) = (&next, &slots, &f);
                s.spawn(move || {
                    let start = Instant::now();
                    qsim::counters::reset();
                    let mut spans = Spans::default();
                    let mut own = (w * chunk).min(n)..((w + 1) * chunk).min(n);
                    loop {
                        let i = match split {
                            Split::Dynamic => next.fetch_add(1, Ordering::Relaxed),
                            Split::Chunks => own.next().unwrap_or(n),
                        };
                        if i >= n {
                            break;
                        }
                        let r = f(&items[i], &mut spans);
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                    }
                    spans.count_qsim();
                    (spans, start.elapsed().as_nanos() as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_nanos() as f64;
    let busy: f64 = per_worker.iter().map(|(_, b)| b).sum();
    let scale = if busy > 0.0 { wall / busy } else { 0.0 };
    let mut merged = Spans::default();
    for (spans, _) in &per_worker {
        merged.absorb(spans, scale);
    }
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every item was mapped")
        })
        .collect();
    (results, merged, scale)
}

/// Per-metric mean over traced rounds (means keep the layer times and
/// `unattributed.ms` additive to the mean round wall time).
pub fn mean_rounds(rounds: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for r in rounds {
        for (k, v) in r {
            *out.entry(k.clone()).or_default() += v / rounds.len() as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_order_and_covers_the_section() {
        let items: Vec<u64> = (0..40).collect();
        let t = Instant::now();
        let (out, spans, scale) = par_map(&items, 2, Split::Dynamic, |&x, sp| {
            sp.count("items", 1);
            sp.time("work", || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                x * 2
            })
        });
        let wall = t.elapsed().as_nanos() as f64;
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert!(scale > 0.0);
        let m = spans.into_metrics(wall);
        assert_eq!(m["items"], 40.0);
        // Wall-equivalent: the span never exceeds the section's wall
        // time, and sleeping dominates it.
        assert!(m["unattributed.ms"] >= 0.0);
        assert!(m["work.ms"] > 0.5 * wall / 1e6);
    }
}
