//! Qubit layout and stochastic SWAP routing (§VI-B).
//!
//! Benchmarks are "mapped to a 32×32 square grid via SWAP-gate insertion
//! using the stochastic transpiler pass packaged with Qiskit Terra". This
//! module substitutes our own seeded stochastic router (the workspace
//! has no Python or Qiskit dependency, and a seed makes routes
//! reproducible) with the same contract: after routing, every CZ acts
//! on grid-adjacent physical qubits, and the logical gate sequence is
//! preserved under the evolving layout.
//!
//! One SWAP-insertion loop serves both [`RouteStrategy`] variants. It
//! processes gates in order, and for each non-adjacent CZ inserts SWAPs
//! chosen among the neighbours of the two endpoints — each SWAP must
//! strictly shrink the endpoint distance. The strategy only scores the
//! candidates: the greedy router adds a lookahead bonus for pending
//! gates and seeded random tie-breaking and keeps the best of several
//! trials; the lookahead router scores a decayed window of pending gates
//! deterministically, in one attempt.
//!
//! # Examples
//!
//! ```
//! use qcircuit::ir::Circuit;
//! use qcircuit::topology::Grid;
//! use qcircuit::mapping::{route, Layout, RouteWorkspace};
//! use qcircuit::pipeline::RouteStrategy;
//!
//! let mut c = Circuit::new(4);
//! c.cz(0, 3);
//! let grid = Grid::new(2, 2);
//! let mut ws = RouteWorkspace::new();
//! let routed = route(&mut ws, &c, &grid, &Layout::identity(4, 4), RouteStrategy::Greedy);
//! // All CZs now nearest-neighbour.
//! assert!(routed.is_hardware_compliant(&grid));
//! ```

use crate::ir::{Circuit, Gate};
use crate::pipeline::RouteStrategy;
use crate::topology::Grid;
use qsim::rng::StdRng;

/// A logical→physical qubit assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    log_to_phys: Vec<usize>,
    phys_to_log: Vec<Option<usize>>,
}

impl Layout {
    /// Identity layout: logical `i` on physical `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n_logical > n_physical`.
    pub fn identity(n_logical: usize, n_physical: usize) -> Self {
        assert!(n_logical <= n_physical);
        let mut phys_to_log = vec![None; n_physical];
        for (l, slot) in phys_to_log.iter_mut().take(n_logical).enumerate() {
            *slot = Some(l);
        }
        Layout {
            log_to_phys: (0..n_logical).collect(),
            phys_to_log,
        }
    }

    /// Snake layout: logical `i` on the `i`-th qubit of the grid's
    /// boustrophedon path, so linear-chain circuits need no routing.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the grid has.
    pub fn snake(n_logical: usize, grid: &Grid) -> Self {
        assert!(n_logical <= grid.n_qubits());
        let snake = grid.snake_order();
        let mut phys_to_log = vec![None; grid.n_qubits()];
        let mut log_to_phys = Vec::with_capacity(n_logical);
        for l in 0..n_logical {
            log_to_phys.push(snake[l]);
            phys_to_log[snake[l]] = Some(l);
        }
        Layout {
            log_to_phys,
            phys_to_log,
        }
    }

    /// Builds a layout from an explicit logical→physical table.
    ///
    /// # Panics
    ///
    /// Panics if the table maps two logical qubits to one physical qubit
    /// or indexes out of `n_physical`.
    pub fn from_assignment(log_to_phys: Vec<usize>, n_physical: usize) -> Self {
        let mut phys_to_log = vec![None; n_physical];
        for (l, &p) in log_to_phys.iter().enumerate() {
            assert!(p < n_physical, "physical index out of range");
            assert!(
                phys_to_log[p].is_none(),
                "physical qubit {p} assigned twice"
            );
            phys_to_log[p] = Some(l);
        }
        Layout {
            log_to_phys,
            phys_to_log,
        }
    }

    /// Number of logical qubits.
    pub fn n_logical(&self) -> usize {
        self.log_to_phys.len()
    }

    /// Size of the physical register this layout maps into.
    pub fn n_physical(&self) -> usize {
        self.phys_to_log.len()
    }

    /// The full logical→physical table (`assignment()[l]` is the physical
    /// home of logical qubit `l`) — with [`Layout::n_physical`], enough to
    /// reconstruct the layout via [`Layout::from_assignment`], which is
    /// how the artifact store serializes compiled artifacts.
    pub fn assignment(&self) -> &[usize] {
        &self.log_to_phys
    }

    /// Physical home of logical qubit `l`.
    pub fn phys(&self, l: usize) -> usize {
        self.log_to_phys[l]
    }

    /// Logical occupant of physical qubit `p`, if any.
    pub fn logical(&self, p: usize) -> Option<usize> {
        self.phys_to_log[p]
    }

    /// Structural fingerprint of the assignment, stable across runs,
    /// processes, and toolchains (`qsim::rng::StableHasher` over the
    /// logical→physical table and the physical register size). Used with
    /// [`Circuit::cache_key`] by the evaluation engine to memoize routed
    /// circuits.
    pub fn cache_key(&self) -> u64 {
        let mut h = qsim::rng::StableHasher::new();
        h.write_usize(self.phys_to_log.len());
        h.write_usize(self.log_to_phys.len());
        for &p in &self.log_to_phys {
            h.write_usize(p);
        }
        h.finish()
    }

    /// Overwrites `self` with `src`, reusing the existing buffers — the
    /// workspace idiom: once capacities have grown to the largest layout
    /// seen, repeated copies allocate nothing.
    pub fn copy_from(&mut self, src: &Layout) {
        self.log_to_phys.clear();
        self.log_to_phys.extend_from_slice(&src.log_to_phys);
        self.phys_to_log.clear();
        self.phys_to_log.extend_from_slice(&src.phys_to_log);
    }

    /// Applies a SWAP between two physical qubits (either may be empty).
    /// Involutive: applying the same swap twice restores the layout —
    /// the routers score trial swaps with an apply/undo pair instead of
    /// cloning.
    pub fn swap_physical(&mut self, pa: usize, pb: usize) {
        let la = self.phys_to_log[pa];
        let lb = self.phys_to_log[pb];
        if let Some(l) = la {
            self.log_to_phys[l] = pb;
        }
        if let Some(l) = lb {
            self.log_to_phys[l] = pa;
        }
        self.phys_to_log.swap(pa, pb);
    }
}

/// A routed circuit: gates rewritten over *physical* qubit indices with
/// explicit SWAPs inserted.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// The physical circuit (indices are grid qubits).
    pub circuit: Circuit,
    /// Layout after the last gate.
    pub final_layout: Layout,
    /// Number of SWAPs inserted.
    pub swap_count: usize,
}

impl RoutedCircuit {
    /// True when every multi-qubit gate acts on grid-adjacent qubits.
    pub fn is_hardware_compliant(&self, grid: &Grid) -> bool {
        self.circuit.gates().iter().all(|g| match *g {
            Gate::OneQ { .. } => true,
            Gate::Cz { a, b } | Gate::Swap { a, b } => grid.are_adjacent(a, b),
            Gate::Cx { c, t } => grid.are_adjacent(c, t),
            Gate::Ccx { .. } => false,
        })
    }
}

/// Reusable scratch for [`route`] — the allocation-free hot-loop
/// contract of the compile path. Holds the upcoming two-qubit endpoint
/// list, the per-SWAP-iteration window of precomputed front-gate
/// distances, the trial layout driven by [`Layout::swap_physical`]
/// apply/undo pairs, and the output circuit under construction. Buffers
/// grow to the largest circuit routed and are then reused; only the
/// returned [`RoutedCircuit`] (circuit + final layout) is materialized
/// fresh, so a warm route call performs O(1) heap allocations. The
/// compile pipeline keeps one per thread; standalone callers pass their
/// own.
#[derive(Debug)]
pub struct RouteWorkspace {
    upcoming: Vec<(usize, usize)>,
    base_d: Vec<usize>,
    layout: Layout,
    out: Circuit,
}

impl Default for RouteWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteWorkspace {
    /// An empty workspace; buffers grow on first use and stay allocated.
    pub fn new() -> Self {
        RouteWorkspace {
            upcoming: Vec::new(),
            base_d: Vec::new(),
            layout: Layout::identity(0, 0),
            out: Circuit::new(0),
        }
    }

    /// Refills the upcoming two-qubit endpoint list and sizes the
    /// window buffer, without allocating once grown.
    fn prepare(&mut self, c: &Circuit, window: usize) {
        self.upcoming.clear();
        self.upcoming
            .extend(c.gates().iter().filter_map(|g| match *g {
                Gate::Cz { a, b } => Some((a, b)),
                _ => None,
            }));
        if self.base_d.len() < window {
            self.base_d.resize(window, 0);
        }
    }
}

/// RNG seed of the greedy router's first trial (trial `t` uses
/// `seed + t`).
pub(crate) const GREEDY_SEED: u64 = 0xD161_0A11;
/// Greedy trials; the first one with the fewest SWAPs wins.
pub(crate) const GREEDY_TRIALS: usize = 2;
/// Upcoming 2q gates in the greedy router's lookahead score.
pub(crate) const GREEDY_LOOKAHEAD: usize = 8;
/// Weight of the greedy router's lookahead term.
pub(crate) const GREEDY_LOOKAHEAD_WEIGHT: f64 = 0.5;

/// A candidate SWAP `(endpoint, neighbour)` with its score.
type Candidate = (usize, usize, f64);

/// What a routing strategy contributes to the shared SWAP-insertion
/// loop: the candidate score, accumulated over the window as
/// `start(d_after) + Σ dk / (k + OFFSET)` in that f64 order and then
/// closed by `finish`, and the rule for replacing the running best.
trait Scorer {
    /// Divisor offset of the `k`-th window gate's distance.
    const OFFSET: usize;
    /// The accumulator before the first window gate.
    fn start(&self, d_after: usize) -> f64;
    /// The candidate's score from the accumulated window sum.
    fn finish(&mut self, d_after: usize, acc: f64) -> f64;
    /// True when candidate `(end, n, score)` replaces `best`.
    fn beats(&self, cand: Candidate, best: Candidate) -> bool;
}

/// The seeded stochastic router: the current gate's residual distance
/// plus a weighted, harmonically decayed lookahead and a small random
/// tie-break; the first minimal score wins.
struct Greedy(StdRng);

impl Scorer for Greedy {
    const OFFSET: usize = 1;

    fn start(&self, _d_after: usize) -> f64 {
        0.0
    }

    fn finish(&mut self, d_after: usize, la: f64) -> f64 {
        // Weight multiply, two adds, tie-break scale.
        qsim::counters::tally_flops(4);
        d_after as f64 + GREEDY_LOOKAHEAD_WEIGHT * la + self.0.gen::<f64>() * 1e-3
    }

    fn beats(&self, (_, _, score): Candidate, (_, _, bs): Candidate) -> bool {
        score < bs
    }
}

/// The deterministic window router: the current gate counts as the
/// window's head and pending gates decay harmonically behind it; ties
/// break on the (endpoint, neighbour) pair.
struct Lookahead;

impl Scorer for Lookahead {
    const OFFSET: usize = 2;

    fn start(&self, d_after: usize) -> f64 {
        d_after as f64
    }

    fn finish(&mut self, _d_after: usize, score: f64) -> f64 {
        score
    }

    fn beats(&self, (end, n, score): Candidate, (be, bn, bs): Candidate) -> bool {
        score < bs || (score == bs && (end, n) < (be, bn))
    }
}

/// Routes a lowered circuit onto the grid (see module docs) with the
/// given strategy, reusing `ws`: the greedy router keeps the first of
/// its seeded trials with the fewest SWAPs, the lookahead router makes
/// one deterministic attempt over the next `window` two-qubit gates.
/// Warm calls allocate only the returned artifact.
///
/// # Panics
///
/// Panics if the circuit contains un-lowered `CX`/`CCX`/`SWAP` gates,
/// needs more qubits than the grid provides, or `initial` does not map
/// the circuit's qubits onto exactly the grid's physical register.
pub fn route(
    ws: &mut RouteWorkspace,
    c: &Circuit,
    grid: &Grid,
    initial: &Layout,
    strategy: RouteStrategy,
) -> RoutedCircuit {
    crate::lower::assert_lowered(c, "route");
    if let Err(e) = check_fit(c, grid, initial) {
        panic!("route: {e}");
    }
    let (window, trials) = match strategy {
        RouteStrategy::Greedy => (GREEDY_LOOKAHEAD, GREEDY_TRIALS),
        RouteStrategy::Lookahead { window } => (window, 1),
    };
    ws.prepare(c, window);
    let mut best: Option<RoutedCircuit> = None;
    for t in 0..trials {
        let swap_count = match strategy {
            RouteStrategy::Greedy => {
                let rng = StdRng::seed_from_u64(GREEDY_SEED.wrapping_add(t as u64));
                insert_swaps(ws, c, grid, initial, window, Greedy(rng))
            }
            RouteStrategy::Lookahead { .. } => {
                insert_swaps(ws, c, grid, initial, window, Lookahead)
            }
        };
        // Strictly-fewer-swaps keeps the FIRST minimal trial; only
        // improving trials materialize.
        if best.as_ref().is_none_or(|b| swap_count < b.swap_count) {
            best = Some(RoutedCircuit {
                circuit: ws.out.clone(),
                final_layout: ws.layout.clone(),
                swap_count,
            });
        }
    }
    // Exactly the two materialized output buffers (routed circuit +
    // final layout) per call — losing trials live in the workspace.
    qsim::counters::tally_allocs(2);
    best.expect("at least one trial")
}

/// Why `initial` cannot route `c` onto `grid`, if it cannot: the circuit
/// must fit the grid, and the layout must place every circuit qubit on
/// exactly the grid's physical register.
pub(crate) fn check_fit(c: &Circuit, grid: &Grid, initial: &Layout) -> Result<(), String> {
    if c.n_qubits() > grid.n_qubits() {
        return Err(format!(
            "circuit needs {} qubits but the grid has {}",
            c.n_qubits(),
            grid.n_qubits()
        ));
    }
    if initial.n_physical() != grid.n_qubits() || initial.n_logical() < c.n_qubits() {
        return Err(format!(
            "layout maps {} logical onto {} physical qubits, but the circuit has {} qubits \
             and the grid {}",
            initial.n_logical(),
            initial.n_physical(),
            c.n_qubits(),
            grid.n_qubits()
        ));
    }
    Ok(())
}

/// The SWAP-insertion loop: one routing attempt built into the
/// workspace's `out`/`layout` buffers. For each non-adjacent CZ it
/// inserts the best-scoring SWAP among the neighbours of the two
/// endpoints that strictly shrinks their distance (so it terminates),
/// until the endpoints are adjacent. Returns the attempt's SWAP count;
/// the caller materializes the winner.
fn insert_swaps<S: Scorer>(
    ws: &mut RouteWorkspace,
    c: &Circuit,
    grid: &Grid,
    initial: &Layout,
    window: usize,
    mut scorer: S,
) -> usize {
    let RouteWorkspace {
        upcoming,
        base_d,
        layout,
        out,
    } = ws;
    layout.copy_from(initial);
    out.reset(grid.n_qubits());
    let mut swap_count = 0usize;
    let mut next_2q = 0usize; // index into `upcoming` of the current gate

    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => out.push(Gate::OneQ {
                q: layout.phys(q),
                kind,
            }),
            Gate::Cz { a, b } => {
                loop {
                    let (pa, pb) = (layout.phys(a), layout.phys(b));
                    let d = grid.distance(pa, pb);
                    if d == 1 {
                        break;
                    }
                    // Window front-gate distances, once per SWAP iteration;
                    // candidates below patch only the gates whose
                    // endpoints ride the swapped pair.
                    let mut window_len = 0usize;
                    for k in 0..window {
                        let idx = next_2q + 1 + k;
                        if idx >= upcoming.len() {
                            break;
                        }
                        let (x, y) = upcoming[idx];
                        base_d[k] = grid.distance(layout.phys(x), layout.phys(y));
                        window_len = k + 1;
                    }
                    // Candidates in a fixed order, so the greedy RNG draws
                    // stay in candidate order.
                    let mut best: Option<Candidate> = None;
                    for &(end, other) in &[(pa, pb), (pb, pa)] {
                        for n in grid.neighbors_iter(end) {
                            let d_after = grid.distance(n, other);
                            if d_after >= d {
                                continue;
                            }
                            // Trial swap applied in place and undone below
                            // (swap_physical is involutive) — no clone.
                            let occ_end = layout.logical(end);
                            let occ_n = layout.logical(n);
                            layout.swap_physical(end, n);
                            let mut acc = scorer.start(d_after);
                            for (k, &bd) in base_d.iter().enumerate().take(window_len) {
                                let (x, y) = upcoming[next_2q + 1 + k];
                                let moved = occ_end == Some(x)
                                    || occ_end == Some(y)
                                    || occ_n == Some(x)
                                    || occ_n == Some(y);
                                let dk = if moved {
                                    grid.distance(layout.phys(x), layout.phys(y))
                                } else {
                                    bd
                                };
                                acc += dk as f64 / (k + S::OFFSET) as f64;
                                qsim::counters::tally_flops(2); // divide + accumulate
                            }
                            layout.swap_physical(end, n); // undo
                            let cand = (end, n, scorer.finish(d_after, acc));
                            if best.is_none_or(|b| scorer.beats(cand, b)) {
                                best = Some(cand);
                            }
                        }
                    }
                    let (x, y, _) = best.expect("a distance-reducing swap always exists on a grid");
                    out.swap(x, y);
                    layout.swap_physical(x, y);
                    swap_count += 1;
                }
                out.cz(layout.phys(a), layout.phys(b));
                next_2q += 1;
            }
            _ => panic!("route requires a lowered circuit (1q + CZ only)"),
        }
    }

    swap_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::lower::lower_to_cz;

    #[test]
    fn layout_identity_and_snake() {
        let grid = Grid::new(4, 4);
        let id = Layout::identity(8, 16);
        assert_eq!(id.phys(3), 3);
        assert_eq!(id.logical(3), Some(3));
        assert_eq!(id.logical(12), None);

        let snake = Layout::snake(8, &grid);
        // Consecutive logical qubits are physically adjacent.
        for l in 0..7 {
            assert!(grid.are_adjacent(snake.phys(l), snake.phys(l + 1)));
        }
    }

    #[test]
    fn layout_swap_physical() {
        let mut l = Layout::identity(2, 4);
        l.swap_physical(0, 3);
        assert_eq!(l.phys(0), 3);
        assert_eq!(l.logical(3), Some(0));
        assert_eq!(l.logical(0), None);
        // Swapping two empties is a no-op.
        l.swap_physical(0, 2);
        assert_eq!(l.logical(0), None);
    }

    #[test]
    #[should_panic]
    fn from_assignment_rejects_collision() {
        let _ = Layout::from_assignment(vec![1, 1], 4);
    }

    #[test]
    fn adjacent_gate_needs_no_swaps() {
        let mut c = Circuit::new(2);
        c.cz(0, 1);
        let grid = Grid::new(2, 2);
        let r = route(
            &mut RouteWorkspace::new(),
            &c,
            &grid,
            &Layout::identity(2, 4),
            RouteStrategy::Greedy,
        );
        assert_eq!(r.swap_count, 0);
        assert_eq!(r.circuit.len(), 1);
    }

    #[test]
    fn distant_gate_gets_routed() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.cz(0, 15); // opposite corners, distance 6
        let r = route(
            &mut RouteWorkspace::new(),
            &c,
            &grid,
            &Layout::identity(16, 16),
            RouteStrategy::Greedy,
        );
        assert!(r.is_hardware_compliant(&grid));
        assert!(r.swap_count >= 5, "needs ≥5 swaps, got {}", r.swap_count);
        // Routed circuit ends with the CZ.
        assert!(matches!(r.circuit.gates().last(), Some(Gate::Cz { .. })));
    }

    #[test]
    fn routing_preserves_semantics_small() {
        // 2×2 grid, a circuit with non-adjacent CZ (0,3 are diagonal).
        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.h(0);
        c.cz(0, 3);
        c.h(3);
        c.cz(1, 2);
        let r = route(
            &mut RouteWorkspace::new(),
            &c,
            &grid,
            &Layout::identity(4, 4),
            RouteStrategy::Greedy,
        );
        assert!(r.is_hardware_compliant(&grid));

        // Simulate both; account for the final layout permutation.
        use crate::ir::StateVector;
        let mut logical = StateVector::zero(4);
        logical.apply_circuit(&c);
        let mut physical = StateVector::zero(4);
        physical.apply_circuit(&r.circuit);
        // Check per-qubit marginals through the layout.
        for l in 0..4 {
            let p = r.final_layout.phys(l);
            assert!(
                (logical.prob_one(l) - physical.prob_one(p)).abs() < 1e-9,
                "marginal mismatch on logical {l}"
            );
        }
    }

    #[test]
    fn snake_layout_makes_chains_swap_free() {
        let grid = Grid::new(8, 8);
        let chain = lower_to_cz(&bench::ising_chain(64, 1, 0.3, 0.7));
        let r = route(
            &mut RouteWorkspace::new(),
            &chain,
            &grid,
            &Layout::snake(64, &grid),
            RouteStrategy::Greedy,
        );
        assert_eq!(r.swap_count, 0, "snake-embedded chain needs no swaps");
    }

    #[test]
    fn bv_routing_is_heavy() {
        // All CXs funnel into one ancilla: routing cost must be
        // substantial (this drives BV's serialization in Fig 9).
        let grid = Grid::new(6, 6);
        let secret: Vec<bool> = (0..31).map(|i| i % 2 == 0).collect();
        let c = lower_to_cz(&bench::bernstein_vazirani(&secret));
        let r = route(
            &mut RouteWorkspace::new(),
            &c,
            &grid,
            &Layout::snake(32, &grid),
            RouteStrategy::Greedy,
        );
        assert!(r.is_hardware_compliant(&grid));
        assert!(r.swap_count > 20, "swap count {}", r.swap_count);
    }

    #[test]
    fn determinism_by_seed() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.cz(0, 15);
        c.cz(3, 12);
        let ws = &mut RouteWorkspace::new();
        let a = route(
            ws,
            &c,
            &grid,
            &Layout::identity(16, 16),
            RouteStrategy::Greedy,
        );
        let b = route(
            ws,
            &c,
            &grid,
            &Layout::identity(16, 16),
            RouteStrategy::Greedy,
        );
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn layout_cache_key_tracks_assignment() {
        let grid = Grid::new(4, 4);
        assert_eq!(
            Layout::snake(8, &grid).cache_key(),
            Layout::snake(8, &grid).cache_key()
        );
        assert_ne!(
            Layout::snake(8, &grid).cache_key(),
            Layout::identity(8, 16).cache_key()
        );
        // Same table over a different physical register differs too.
        assert_ne!(
            Layout::identity(4, 8).cache_key(),
            Layout::identity(4, 16).cache_key()
        );
    }
}
