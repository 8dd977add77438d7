//! Deterministic work/allocation counters for the numeric kernels, the
//! compile passes and the synthesis passes.
//!
//! Perf regressions in allocation-free kernels are invisible to ordinary
//! tests: a stray `.clone()` or a helper that quietly allocates again
//! keeps every result bit-identical while destroying the speedup. These
//! counters make that testable — the kernels and passes record their
//! deterministic work into one thread-local table that tests (and the
//! kernels bench via `--json-out`) can assert exactly. Its five counters,
//! in record order, are listed once, by [`KernelCounters::fields`].
//!
//! Counting policy (deterministic for a fixed input):
//!
//! * **allocs** — one per fresh matrix/state buffer: `CMat` constructors,
//!   operator results (`+`, `-`, `conj`, `scale`, …) and `apply`. `Clone`
//!   is not counted (derived impl), nor are transient `Vec<f64>` scratch
//!   vectors outside the matrix type.
//! * **flops** — 8 per complex multiply-accumulate:
//!   `matmul`/`matmul_into`/`matmul_fixed` count `8·rows·inner·cols`,
//!   `apply`/`apply_into` count `8·rows·cols`, one Jacobi plane rotation
//!   counts `48·n` (three n-length two-output updates of two complex
//!   MACs each), and the fused spectral apply counts `8·n³ + 6·n²`.
//! * **compile passes** (qcircuit routers/schedulers) — one alloc per
//!   **materialized output artifact**, exactly: a route is 2 (the
//!   routed circuit plus the final layout), a schedule is 1 (the slot
//!   list). Workspace scratch — trial layouts, candidate buffers,
//!   moment levels, colour-group pools — is reused across calls and
//!   never tallied (the same rule that keeps transient `Vec` scratch
//!   uncounted in the numeric core), and `Circuit::moments` is an
//!   untallied query. Flops are unchanged: 2 per f64 lookahead term
//!   (divide + accumulate) and 4 per randomized candidate score
//!   (weight multiply, two adds, one tie-break scale).
//! * **cells** — netlist nodes examined by a synthesis pass (sfq-hw):
//!   `insert_splitters` and `path_balance` each tally the node count
//!   they scan, and every `retime` fixpoint iteration tallies the full
//!   node count again (the fixpoint trip count is itself deterministic).
//! * **dffs_moved** — balancing DFFs materialized or relocated:
//!   `path_balance` tallies every edge-weight DFF it inserts, `retime`
//!   tallies every DFF it lifts from an input edge to the output.
//! * **synth_allocs** — one per materialized netlist (`Netlist::new`),
//!   kept apart from `allocs` so the two tiers never mix. Node storage,
//!   the passes' local buffers (topo orders, fanout tables, endpoint
//!   queues) and `Clone` are never tallied.
//!
//! Only outputs count, in every tier, so a pass's cold and warm tallies
//! are identical by construction.
//!
//! The table is **thread-local**, so the parallel test runner and scoped
//! worker threads never race and exact-equality asserts are safe;
//! snapshot and reset on the same thread that runs the code under test.
//! A parallel map that wants its workers' tallies seen by the caller
//! rolls them in with [`add`] at the join.

use std::cell::Cell;

const FLOPS: usize = 0;
const ALLOCS: usize = 1;
const CELLS: usize = 2;
const DFFS_MOVED: usize = 3;
const SYNTH_ALLOCS: usize = 4;

thread_local! {
    /// This thread's tallies, indexed in record order.
    static TALLY: [Cell<u64>; 5] = const {
        [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)]
    };
}

/// A point-in-time snapshot of this thread's tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounters {
    /// Floating-point operations (8 per complex MAC; see module docs).
    pub flops: u64,
    /// Fresh matrix/state buffers and materialized compile artifacts.
    pub allocs: u64,
    /// Netlist nodes examined by the synthesis passes.
    pub cells: u64,
    /// Balancing DFFs inserted or relocated.
    pub dffs_moved: u64,
    /// Materialized netlists.
    pub synth_allocs: u64,
}

impl KernelCounters {
    /// Every counter as `(name, value)`, in record order: the one place
    /// the counter names live (bench rows and their compare read them
    /// from here).
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("flops", self.flops),
            ("allocs", self.allocs),
            ("cells", self.cells),
            ("dffs_moved", self.dffs_moved),
            ("synth_allocs", self.synth_allocs),
        ]
    }
}

#[inline]
fn bump(slot: usize, n: u64) {
    TALLY.with(|t| t[slot].set(t[slot].get().wrapping_add(n)));
}

/// Adds `n` flops to this thread's tally.
#[inline]
pub fn tally_flops(n: u64) {
    bump(FLOPS, n);
}

/// Records one buffer allocation on this thread.
#[inline]
pub fn tally_alloc() {
    bump(ALLOCS, 1);
}

/// Records `n` buffer allocations on this thread (batch accounting for
/// callers that materialize several output buffers in one step, e.g. a
/// router's circuit + final-layout pair).
#[inline]
pub fn tally_allocs(n: u64) {
    bump(ALLOCS, n);
}

/// Adds `n` examined netlist nodes to this thread's tally.
#[inline]
pub fn tally_cells(n: u64) {
    bump(CELLS, n);
}

/// Adds `n` inserted/relocated balancing DFFs to this thread's tally.
#[inline]
pub fn tally_dffs_moved(n: u64) {
    bump(DFFS_MOVED, n);
}

/// Records `n` materialized netlists on this thread.
#[inline]
pub fn tally_synth_allocs(n: u64) {
    bump(SYNTH_ALLOCS, n);
}

/// Adds every counter of `c` to this thread's tallies: how a parallel
/// map rolls the tallies its workers accrued into the calling thread.
pub fn add(c: &KernelCounters) {
    TALLY.with(|t| {
        for (slot, (_, n)) in t.iter().zip(c.fields()) {
            slot.set(slot.get().wrapping_add(n));
        }
    });
}

/// Reads this thread's tallies without resetting them.
pub fn snapshot() -> KernelCounters {
    TALLY.with(|t| KernelCounters {
        flops: t[FLOPS].get(),
        allocs: t[ALLOCS].get(),
        cells: t[CELLS].get(),
        dffs_moved: t[DFFS_MOVED].get(),
        synth_allocs: t[SYNTH_ALLOCS].get(),
    })
}

/// Zeroes this thread's tallies.
pub fn reset() {
    TALLY.with(|t| t.iter().for_each(|c| c.set(0)));
}

/// Runs `f` with freshly reset tallies and returns its result together
/// with the counters it accrued (equivalent to `reset(); f(); snapshot()`).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, KernelCounters) {
    reset();
    let out = f();
    (out, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_and_reset() {
        reset();
        tally_flops(16);
        tally_flops(4);
        tally_alloc();
        tally_cells(7);
        tally_dffs_moved(3);
        tally_synth_allocs(1);
        let c = snapshot();
        assert_eq!(
            c.fields(),
            [
                ("flops", 20),
                ("allocs", 1),
                ("cells", 7),
                ("dffs_moved", 3),
                ("synth_allocs", 1)
            ]
        );
        reset();
        assert_eq!(snapshot(), KernelCounters::default());
    }

    #[test]
    fn add_rolls_a_snapshot_into_this_thread() {
        reset();
        tally_flops(5);
        let worker = std::thread::spawn(|| {
            counted(|| {
                tally_flops(8);
                tally_alloc();
                tally_synth_allocs(2);
            })
            .1
        })
        .join()
        .unwrap();
        add(&worker);
        assert_eq!(
            snapshot(),
            KernelCounters {
                flops: 13,
                allocs: 1,
                cells: 0,
                dffs_moved: 0,
                synth_allocs: 2
            }
        );
    }

    #[test]
    fn counted_scopes_a_closure() {
        tally_flops(999); // stale tallies from an earlier kernel and pass
        tally_cells(999);
        let (val, c) = counted(|| {
            tally_flops(8);
            tally_alloc();
            tally_cells(4);
            tally_dffs_moved(2);
            42
        });
        assert_eq!(val, 42);
        assert_eq!(
            c,
            KernelCounters {
                flops: 8,
                allocs: 1,
                cells: 4,
                dffs_moved: 2,
                synth_allocs: 0
            }
        );
    }
}
