//! Negative-path tests for the lowered-circuit contract.
//!
//! Routing, scheduling, and fusion all consume hardware-form circuits
//! ({1q, CZ} only). Each now guards its entry through
//! `lower::assert_lowered`, which panics with a typed message naming the
//! pass and the offending gate; these tests pin that contract for every
//! consumer in this crate (the executor and co-simulator guards live in
//! `digiq-core`'s test suite).

use qcircuit::ir::Circuit;
use qcircuit::lower::{assert_lowered, fuse_single_qubit_runs, lower_to_cz};
use qcircuit::mapping::{route, Layout, RouteWorkspace};
use qcircuit::pipeline::RouteStrategy;
use qcircuit::schedule::{schedule_crosstalk_aware, ScheduleWorkspace};
use qcircuit::topology::Grid;

fn unlowered() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0);
    c.cx(0, 1); // CX is not hardware form
    c
}

#[test]
fn assert_lowered_accepts_hardware_form() {
    let c = lower_to_cz(&unlowered());
    assert_lowered(&c, "test"); // must not panic
    assert_lowered(&Circuit::new(3), "test"); // empty circuits are fine
}

#[test]
#[should_panic(expected = "test-pass requires a lowered circuit")]
fn assert_lowered_names_the_pass() {
    assert_lowered(&unlowered(), "test-pass");
}

#[test]
#[should_panic(expected = "gate 1 is `CX q0,q1`")]
fn assert_lowered_names_the_offending_gate() {
    assert_lowered(&unlowered(), "test-pass");
}

#[test]
#[should_panic(expected = "route requires a lowered circuit")]
fn route_rejects_unlowered_circuits() {
    let grid = Grid::new(2, 2);
    let _ = route(
        &mut RouteWorkspace::new(),
        &unlowered(),
        &grid,
        &Layout::identity(4, 4),
        RouteStrategy::Greedy,
    );
}

#[test]
#[should_panic(expected = "route requires a lowered circuit")]
fn route_rejects_bare_swaps() {
    let grid = Grid::new(2, 2);
    let mut c = Circuit::new(4);
    c.swap(0, 1); // SWAPs are router *output*, not legal input
    let _ = route(
        &mut RouteWorkspace::new(),
        &c,
        &grid,
        &Layout::identity(4, 4),
        RouteStrategy::Greedy,
    );
}

#[test]
#[should_panic(expected = "scheduler requires a lowered circuit")]
fn scheduler_rejects_unlowered_circuits() {
    let grid = Grid::new(2, 2);
    let _ = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &unlowered(), &grid);
}

#[test]
#[should_panic(expected = "fuse_single_qubit_runs requires a lowered circuit")]
fn fusion_rejects_unlowered_circuits() {
    let mut c = Circuit::new(3);
    c.ccx(0, 1, 2);
    let _ = fuse_single_qubit_runs(&c);
}

#[test]
fn lowering_then_consuming_succeeds_end_to_end() {
    // The positive path: the same circuits pass every consumer once
    // lowered.
    let grid = Grid::new(2, 2);
    let c = lower_to_cz(&unlowered());
    let routed = route(
        &mut RouteWorkspace::new(),
        &c,
        &grid,
        &Layout::identity(4, 4),
        RouteStrategy::Greedy,
    );
    let physical = lower_to_cz(&routed.circuit);
    let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &physical, &grid);
    assert!(!slots.is_empty());
    let fused = fuse_single_qubit_runs(&physical);
    assert!(fused.len() <= physical.len());
}
