//! Error-path coverage for the schedule validator and the mapping-layer
//! edge cases the compile pipeline leans on: every rejection branch of
//! `validate_schedule`, the `Layout` constructor/SWAP edges, and
//! `RoutedCircuit::is_hardware_compliant` — plus the
//! strategy-discrimination guard proving the full validator rejects the
//! crosstalk-oblivious ASAP scheduler's output where the crosstalk-aware
//! strategy passes.

use qcircuit::ir::Circuit;
use qcircuit::mapping::{Layout, RoutedCircuit};
use qcircuit::schedule::{
    schedule_asap, schedule_crosstalk_aware, validate_schedule, validate_schedule_structural,
    ScheduleWorkspace, ValidateWorkspace,
};
use qcircuit::topology::Grid;

fn grid4() -> Grid {
    Grid::new(4, 4)
}

// ---------------------------------------------------------------- validator

#[test]
fn rejects_overlapping_qubit_in_a_slot() {
    let mut c = Circuit::new(16);
    c.h(0);
    c.cz(0, 1); // shares qubit 0 with the H
    let err =
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid4(), &[vec![0, 1]]).unwrap_err();
    assert!(err.contains("qubit 0 used twice"), "{err}");
    // The structural validator rejects it too — disjointness is not an
    // interference concern.
    let err =
        validate_schedule_structural(&mut ValidateWorkspace::new(), &c, &[vec![0, 1]]).unwrap_err();
    assert!(err.contains("qubit 0 used twice"), "{err}");
}

#[test]
fn rejects_interfering_cz_pair_in_a_slot() {
    let mut c = Circuit::new(16);
    c.cz(0, 1);
    c.cz(2, 3); // qubit 2 is grid-adjacent to qubit 1 → spectator coupling
    let err =
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid4(), &[vec![0, 1]]).unwrap_err();
    assert!(err.contains("interfering CZs"), "{err}");
    // The structural validator deliberately accepts the same slots.
    validate_schedule_structural(&mut ValidateWorkspace::new(), &c, &[vec![0, 1]]).unwrap();
}

#[test]
fn rejects_gate_missing_from_slots() {
    let mut c = Circuit::new(16);
    c.h(0);
    c.h(1);
    let err =
        validate_schedule(&mut ValidateWorkspace::new(), &c, &grid4(), &[vec![0]]).unwrap_err();
    assert!(err.contains("not all gates scheduled"), "{err}");
}

#[test]
fn rejects_gate_scheduled_twice() {
    let mut c = Circuit::new(16);
    c.h(0);
    let err = validate_schedule(
        &mut ValidateWorkspace::new(),
        &c,
        &grid4(),
        &[vec![0], vec![0]],
    )
    .unwrap_err();
    assert!(err.contains("gate 0 scheduled twice"), "{err}");
}

#[test]
fn rejects_program_order_violation() {
    let mut c = Circuit::new(16);
    c.h(0); // gate 0 must run before…
    c.t(0); // …gate 1 on the same qubit
    let err = validate_schedule(
        &mut ValidateWorkspace::new(),
        &c,
        &grid4(),
        &[vec![1], vec![0]],
    )
    .unwrap_err();
    assert!(err.contains("order violated"), "{err}");
}

#[test]
fn accepts_a_correct_schedule() {
    let mut c = Circuit::new(16);
    c.h(0);
    c.cz(0, 1);
    c.cz(8, 9);
    validate_schedule(
        &mut ValidateWorkspace::new(),
        &c,
        &grid4(),
        &[vec![0], vec![1, 2]],
    )
    .unwrap();
}

// ------------------------------------------------- strategy discrimination

/// The bugfix-by-construction guard: on a workload with an interfering CZ
/// pair, the crosstalk-oblivious ASAP scheduler's output is **rejected**
/// by the full validator while the crosstalk-aware scheduler's output
/// passes — the validator genuinely discriminates the two strategies.
#[test]
fn full_validator_discriminates_asap_from_crosstalk_aware() {
    let grid = grid4();
    let mut c = Circuit::new(16);
    c.cz(0, 1);
    c.cz(2, 3); // same ASAP moment, interfering spectators

    let asap = schedule_asap(&c);
    assert_eq!(asap.len(), 1, "ASAP packs both CZs into one moment");
    let err = validate_schedule(&mut ValidateWorkspace::new(), &c, &grid, &asap).unwrap_err();
    assert!(err.contains("interfering CZs"), "{err}");
    // …but ASAP honours every structural invariant.
    validate_schedule_structural(&mut ValidateWorkspace::new(), &c, &asap).unwrap();

    let aware = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &c, &grid);
    assert!(aware.len() > asap.len(), "serializing costs slots");
    validate_schedule(&mut ValidateWorkspace::new(), &c, &grid, &aware).unwrap();
}

#[test]
fn asap_matches_plain_moments_and_preserves_order() {
    let mut c = Circuit::new(16);
    c.h(0);
    c.cz(0, 1);
    c.h(1);
    let slots = schedule_asap(&c);
    assert_eq!(slots, c.moments());
    validate_schedule_structural(&mut ValidateWorkspace::new(), &c, &slots).unwrap();
}

// ------------------------------------------------------------ layout edges

#[test]
fn from_assignment_roundtrips() {
    let l = Layout::from_assignment(vec![3, 0, 2], 4);
    assert_eq!(l.n_logical(), 3);
    assert_eq!((l.phys(0), l.phys(1), l.phys(2)), (3, 0, 2));
    assert_eq!(l.logical(3), Some(0));
    assert_eq!(l.logical(1), None);
}

#[test]
#[should_panic(expected = "physical index out of range")]
fn from_assignment_rejects_out_of_range() {
    let _ = Layout::from_assignment(vec![0, 4], 4);
}

#[test]
#[should_panic(expected = "assigned twice")]
fn from_assignment_rejects_double_assignment() {
    let _ = Layout::from_assignment(vec![2, 2], 4);
}

#[test]
fn swap_physical_handles_empty_slots() {
    let mut l = Layout::from_assignment(vec![1], 4);
    // Occupied ↔ empty.
    l.swap_physical(1, 3);
    assert_eq!(l.phys(0), 3);
    assert_eq!(l.logical(1), None);
    assert_eq!(l.logical(3), Some(0));
    // Empty ↔ empty is a no-op.
    l.swap_physical(0, 2);
    assert_eq!(l.logical(0), None);
    assert_eq!(l.logical(2), None);
    // Swap back restores the original assignment.
    l.swap_physical(3, 1);
    assert_eq!(l.phys(0), 1);
}

#[test]
fn swap_physical_swaps_two_occupied_slots() {
    let mut l = Layout::identity(2, 4);
    l.swap_physical(0, 1);
    assert_eq!((l.phys(0), l.phys(1)), (1, 0));
    assert_eq!(l.logical(0), Some(1));
    assert_eq!(l.logical(1), Some(0));
}

#[test]
fn cache_key_ignores_history_but_not_assignment() {
    // Two different SWAP histories reaching the same assignment key alike.
    let mut a = Layout::identity(3, 4);
    a.swap_physical(0, 1);
    a.swap_physical(0, 1);
    assert_eq!(a.cache_key(), Layout::identity(3, 4).cache_key());
    a.swap_physical(1, 2);
    assert_ne!(a.cache_key(), Layout::identity(3, 4).cache_key());
}

// ---------------------------------------------------- hardware compliance

#[test]
fn hardware_compliance_edges() {
    let grid = grid4();
    let compliant = |c: Circuit| RoutedCircuit {
        circuit: c,
        final_layout: Layout::identity(16, 16),
        swap_count: 0,
    };

    // 1q everywhere is always compliant.
    let mut c = Circuit::new(16);
    c.h(0);
    c.t(15);
    assert!(compliant(c).is_hardware_compliant(&grid));

    // Adjacent CZ/SWAP/CX pass; a diagonal CZ fails.
    let mut c = Circuit::new(16);
    c.cz(0, 1);
    c.swap(1, 2);
    c.cx(4, 5);
    assert!(compliant(c).is_hardware_compliant(&grid));
    let mut c = Circuit::new(16);
    c.cz(0, 5); // diagonal: distance 2
    assert!(!compliant(c).is_hardware_compliant(&grid));
    let mut c = Circuit::new(16);
    c.swap(0, 2); // same row, distance 2
    assert!(!compliant(c).is_hardware_compliant(&grid));

    // CCX never counts as hardware-compliant, adjacency notwithstanding.
    let mut c = Circuit::new(16);
    c.ccx(0, 1, 2);
    assert!(!compliant(c).is_hardware_compliant(&grid));
}
