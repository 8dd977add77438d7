//! Crosstalk-aware gate scheduling (§VI-B).
//!
//! After routing, "a crosstalk-aware scheduling pass \[58\] is used to sort
//! and group commuting two-qubit gates which can be executed
//! simultaneously without interference". Two CZs *interfere* when a qubit
//! of one is grid-adjacent to a qubit of the other (spectator coupling);
//! the scheduler greedily colours each ASAP moment's CZs into
//! non-interfering sub-moments while single-qubit gates ride along with
//! their moment.

use crate::ir::{Circuit, Gate, MomentScratch};
use crate::topology::Grid;

/// One executable time slot: gate indices (into the source circuit) whose
/// gates touch disjoint qubits and whose CZs are pairwise non-interfering.
pub type Slot = Vec<usize>;

/// Reusable scratch for [`schedule_crosstalk_aware`]: the ASAP
/// moment layering, the per-moment colour-group pool, and the epoch-
/// stamped per-qubit interference masks. Warm reuse makes a schedule
/// pass allocate only its materialized output.
#[derive(Debug, Default)]
pub struct ScheduleWorkspace {
    moments: MomentScratch,
    oneq: Vec<usize>,
    /// Colour-group buffer pool; the first `active` (a per-moment local)
    /// entries are live, the rest keep their capacity for reuse.
    groups: Vec<Vec<usize>>,
    /// Epoch stamp + blocked-group bitmask per physical qubit: bit `g`
    /// set means "some CZ in colour group `g` touches this qubit or a
    /// grid neighbour of it", valid only while the stamp matches the
    /// current epoch (one epoch per moment — no clearing between them).
    blk_stamp: Vec<u32>,
    blk_mask: Vec<u64>,
    epoch: u32,
}

impl ScheduleWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n_qubits: usize) {
        if self.blk_stamp.len() < n_qubits {
            self.blk_stamp.resize(n_qubits, 0);
            self.blk_mask.resize(n_qubits, 0);
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.blk_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Returns true when two CZ gates interfere under the spectator-coupling
/// model: some qubit of one is identical or grid-adjacent to some qubit
/// of the other.
pub fn czs_interfere(grid: &Grid, a: (usize, usize), b: (usize, usize)) -> bool {
    for &x in &[a.0, a.1] {
        for &y in &[b.0, b.1] {
            if x == y || grid.are_adjacent(x, y) {
                return true;
            }
        }
    }
    false
}

/// Schedules a routed, lowered circuit into crosstalk-free slots,
/// reusing `ws`.
///
/// Gates within one returned slot act on disjoint qubits, and its CZs are
/// pairwise non-interfering. Slots preserve program order per qubit. The
/// greedy colouring places each CZ into the first non-interfering group
/// in creation order, answered by the per-qubit blocked-group bitmask
/// instead of a member scan — a group's blocked set is exactly "qubit or
/// neighbour of a member", which is the [`czs_interfere`] predicate from
/// the other side.
///
/// # Panics
///
/// Panics if the circuit contains gates other than 1q and CZ.
pub fn schedule_crosstalk_aware(ws: &mut ScheduleWorkspace, c: &Circuit, grid: &Grid) -> Vec<Slot> {
    crate::lower::assert_lowered(c, "scheduler");
    ws.prepare(grid.n_qubits().max(c.n_qubits()));
    // First ASAP moments (dependency layering)…
    c.moments_into(&mut ws.moments);
    let mut slots: Vec<Slot> = Vec::new();
    for mi in 0..ws.moments.count() {
        let epoch = ws.next_epoch();
        let ScheduleWorkspace {
            moments,
            oneq,
            groups,
            blk_stamp,
            blk_mask,
            ..
        } = &mut *ws;
        let moment = moments.moment(mi);
        // …then split each moment's CZs into non-interfering groups
        // (greedy colouring in index order).
        oneq.clear();
        let mut active = 0usize;
        for &gi in moment {
            match c.gates()[gi] {
                Gate::OneQ { .. } => oneq.push(gi),
                Gate::Cz { a, b } => {
                    // Groups blocked for this CZ, among the first 64.
                    let blocked = |q: usize| {
                        if blk_stamp[q] == epoch {
                            blk_mask[q]
                        } else {
                            0
                        }
                    };
                    let bm = blocked(a) | blocked(b);
                    let mut g = bm.trailing_ones() as usize;
                    if g >= active.min(64) {
                        // Either every live maskable group is blocked or
                        // the first free one doesn't exist yet; scan any
                        // overflow groups (≥ 64, rare) the slow way.
                        g = active;
                        'groups: for (oi, group) in
                            groups[64.min(active)..active].iter().enumerate()
                        {
                            for &other in group.iter() {
                                let (oa, ob) = match c.gates()[other] {
                                    Gate::Cz { a, b } => (a, b),
                                    _ => unreachable!(),
                                };
                                if czs_interfere(grid, (a, b), (oa, ob)) {
                                    continue 'groups;
                                }
                            }
                            g = 64.min(active) + oi;
                            break;
                        }
                    }
                    if g == active {
                        // Fresh colour group from the pool.
                        if groups.len() == active {
                            groups.push(Vec::new());
                        }
                        groups[active].clear();
                        active += 1;
                    }
                    groups[g].push(gi);
                    if g < 64 {
                        for y in [a, b] {
                            let mut mark = |q: usize| {
                                if blk_stamp[q] != epoch {
                                    blk_stamp[q] = epoch;
                                    blk_mask[q] = 0;
                                }
                                blk_mask[q] |= 1 << g;
                            };
                            mark(y);
                            for n in grid.neighbors_iter(y) {
                                mark(n);
                            }
                        }
                    }
                }
                _ => panic!("scheduler requires a lowered circuit"),
            }
        }
        if active == 0 {
            if !oneq.is_empty() {
                slots.push(oneq.clone());
            }
        } else {
            // 1q gates ride with the first CZ group.
            let mut first = Vec::with_capacity(oneq.len() + groups[0].len());
            first.extend_from_slice(oneq);
            first.extend_from_slice(&groups[0]);
            slots.push(first);
            for g in &groups[1..active] {
                slots.push(g.clone());
            }
        }
    }
    qsim::counters::tally_alloc(); // materialized slot list
    slots
}

/// Schedules a lowered circuit into plain ASAP dependency moments,
/// **ignoring crosstalk**: gates within a slot act on disjoint qubits and
/// per-qubit program order is preserved, but CZs in one slot may
/// interfere. This is the crosstalk-oblivious alternative strategy of the
/// pass pipeline — the full [`validate_schedule`] rejects its output on
/// interfering workloads (see the strategy-discrimination tests), which
/// is exactly the point of having both.
///
/// # Panics
///
/// Panics if the circuit contains gates other than 1q and CZ.
pub fn schedule_asap(c: &Circuit) -> Vec<Slot> {
    crate::lower::assert_lowered(c, "scheduler");
    let slots = c.moments();
    qsim::counters::tally_alloc(); // materialized slot list
    slots
}

/// Reusable scratch for schedule validation: gate/qubit marker arrays
/// plus epoch-stamped per-slot usage and interference-blocking tables —
/// the per-slot `HashSet` and O(CZs²) pairwise scan of the original
/// validator, flattened into stamped linear passes.
#[derive(Debug, Default)]
pub struct ValidateWorkspace {
    seen: Vec<bool>,
    order_of_gate: Vec<usize>,
    /// `used_stamp[q] == epoch` ⇔ qubit `q` already used in this slot.
    used_stamp: Vec<u32>,
    /// `blk_stamp[q] == epoch` ⇔ an earlier CZ of this slot touches `q`
    /// or a grid neighbour of `q` — the incremental interference check.
    blk_stamp: Vec<u32>,
    czs: Vec<(usize, usize)>,
    last: Vec<usize>,
    epoch: u32,
}

impl ValidateWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.used_stamp.iter_mut().for_each(|s| *s = 0);
            self.blk_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Validates a schedule, reusing `ws`: every gate exactly once, disjoint
/// qubits within a slot, per-qubit program order preserved, CZs
/// non-interfering.
pub fn validate_schedule(
    ws: &mut ValidateWorkspace,
    c: &Circuit,
    grid: &Grid,
    slots: &[Slot],
) -> Result<(), String> {
    validate_schedule_impl(ws, c, Some(grid), slots)
}

/// The structural subset of [`validate_schedule`]: every gate exactly
/// once, disjoint qubits within a slot, per-qubit program order preserved
/// — **without** the CZ-interference check. The post-validation contract
/// of deliberately crosstalk-oblivious schedulers.
pub fn validate_schedule_structural(
    ws: &mut ValidateWorkspace,
    c: &Circuit,
    slots: &[Slot],
) -> Result<(), String> {
    validate_schedule_impl(ws, c, None, slots)
}

fn validate_schedule_impl(
    ws: &mut ValidateWorkspace,
    c: &Circuit,
    grid: Option<&Grid>,
    slots: &[Slot],
) -> Result<(), String> {
    ws.seen.clear();
    ws.seen.resize(c.len(), false);
    ws.order_of_gate.clear();
    ws.order_of_gate.resize(c.len(), usize::MAX);
    let nq = c.n_qubits().max(grid.map_or(0, |g| g.n_qubits()));
    if ws.used_stamp.len() < nq {
        ws.used_stamp.resize(nq, 0);
        ws.blk_stamp.resize(nq, 0);
    }
    for (si, slot) in slots.iter().enumerate() {
        let epoch = ws.next_epoch();
        ws.czs.clear();
        for &gi in slot {
            if ws.seen[gi] {
                return Err(format!("gate {gi} scheduled twice"));
            }
            ws.seen[gi] = true;
            ws.order_of_gate[gi] = si;
            for &q in &c.gates()[gi].qubits_inline() {
                if ws.used_stamp[q] == epoch {
                    return Err(format!("slot {si}: qubit {q} used twice"));
                }
                ws.used_stamp[q] = epoch;
            }
            if grid.is_some() {
                if let Gate::Cz { a, b } = c.gates()[gi] {
                    ws.czs.push((a, b));
                }
            }
        }
        // CZ interference check (skipped by the structural validator):
        // a CZ interferes with an earlier one in the slot exactly when
        // one of its qubits lands in that CZ's blocked (qubit ∪
        // neighbour) set, so one stamped forward pass replaces the
        // pairwise scan.
        let Some(grid) = grid else { continue };
        for i in 0..ws.czs.len() {
            let (a, b) = ws.czs[i];
            if ws.blk_stamp[a] == epoch || ws.blk_stamp[b] == epoch {
                return Err(format!("slot {si}: interfering CZs"));
            }
            for y in [a, b] {
                ws.blk_stamp[y] = epoch;
                for n in grid.neighbors_iter(y) {
                    ws.blk_stamp[n] = epoch;
                }
            }
        }
    }
    if !ws.seen.iter().all(|&s| s) {
        return Err("not all gates scheduled".into());
    }
    // Program order per qubit.
    ws.last.clear();
    ws.last.resize(c.n_qubits(), usize::MAX);
    for (gi, g) in c.gates().iter().enumerate() {
        for &q in &g.qubits_inline() {
            if ws.last[q] != usize::MAX && ws.order_of_gate[gi] <= ws.order_of_gate[ws.last[q]] {
                return Err(format!("qubit {q}: order violated at gate {gi}"));
            }
            ws.last[q] = gi;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::lower::lower_to_cz;
    use crate::mapping::{route, Layout, RouteWorkspace};
    use crate::pipeline::RouteStrategy;

    #[test]
    fn interference_model() {
        let grid = Grid::new(4, 4);
        // Shared qubit.
        assert!(czs_interfere(&grid, (0, 1), (1, 2)));
        // Adjacent spectator: qubits 1 and 2 are neighbours.
        assert!(czs_interfere(&grid, (0, 1), (2, 3)));
        // Far apart: rows 0 and 2.
        assert!(!czs_interfere(&grid, (0, 1), (8, 9)));
    }

    #[test]
    fn schedule_simple_parallel() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.cz(0, 1);
        c.cz(8, 9); // far from (0,1): same slot OK
        let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &c, &grid);
        assert_eq!(slots.len(), 1);
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid, &slots).unwrap();
    }

    #[test]
    fn schedule_splits_interfering_czs() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.cz(0, 1);
        c.cz(2, 3); // qubit 2 adjacent to 1 → interferes
        let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &c, &grid);
        assert_eq!(slots.len(), 2, "interfering CZs must serialize");
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid, &slots).unwrap();
    }

    #[test]
    fn schedule_respects_dependencies() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        c.h(0);
        c.cz(0, 1);
        c.h(1);
        let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &c, &grid);
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid, &slots).unwrap();
        assert!(slots.len() >= 3);
    }

    #[test]
    fn full_pipeline_schedule_validates() {
        let grid = Grid::new(6, 6);
        let c = lower_to_cz(&bench::ising_chain(36, 2, 0.3, 0.7));
        let r = route(
            &mut RouteWorkspace::new(),
            &c,
            &grid,
            &Layout::snake(36, &grid),
            RouteStrategy::Greedy,
        );
        let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &r.circuit, &grid);
        validate_schedule(&mut ValidateWorkspace::new(), &r.circuit, &grid, &slots).unwrap();
        // Crosstalk splitting makes the schedule longer than raw ASAP.
        assert!(slots.len() >= r.circuit.depth());
    }

    #[test]
    fn crosstalk_costs_slots_on_dense_brickwork() {
        let grid = Grid::new(2, 8);
        // Disjoint CZs packed along a row: one ASAP moment, but adjacent
        // pairs interfere, so the crosstalk pass must split them.
        let mut c = Circuit::new(16);
        for i in (0..7).step_by(2) {
            c.cz(i, i + 1);
        }
        let plain_depth = c.depth();
        assert_eq!(plain_depth, 1);
        let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &c, &grid);
        assert!(slots.len() > plain_depth);
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid, &slots).unwrap();
    }
}
