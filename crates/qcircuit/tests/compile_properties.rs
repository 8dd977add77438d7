//! Property-based tests for the compilation pipeline: lowering preserves
//! semantics, routing produces hardware-compliant circuits, scheduling
//! preserves order and covers every gate. Randomized cases come from the
//! workspace's seeded internal RNG (no proptest offline).

use qcircuit::ir::{Circuit, StateVector};
use qcircuit::lower::{fuse_single_qubit_runs, is_lowered, lower_to_cz};
use qcircuit::mapping::{route, Layout, RouteWorkspace};
use qcircuit::pipeline::RouteStrategy;
use qcircuit::schedule::{
    schedule_crosstalk_aware, validate_schedule, ScheduleWorkspace, ValidateWorkspace,
};
use qcircuit::topology::Grid;
use qsim::rng::StdRng;

const N: usize = 6; // grid 2×3
const CASES: u64 = 32;

fn random_circuit(rng: &mut StdRng) -> Circuit {
    let n_ops = rng.gen_range(1usize..25);
    let mut c = Circuit::new(N);
    for _ in 0..n_ops {
        let kind = rng.gen_range(0u32..8);
        let a = rng.gen_range(0usize..N);
        let b = rng.gen_range(0usize..N);
        let t = rng.gen_range(0usize..N);
        let angle = rng.gen_range(-3.0..3.0);
        let b2 = if b == a { (b + 1) % N } else { b };
        let t2 = if t == a || t == b2 {
            (a.max(b2) + 1) % N
        } else {
            t
        };
        match kind {
            0 => c.h(a),
            1 => c.t(a),
            2 => c.rx(a, angle),
            3 => c.rz(a, angle),
            4 => c.cx(a, b2),
            5 => c.cz(a, b2),
            6 => c.swap(a, b2),
            _ => {
                if t2 != a && t2 != b2 {
                    c.ccx(a, b2, t2);
                } else {
                    c.x(a);
                }
            }
        }
    }
    c
}

fn states_equal_up_to_phase(a: &StateVector, b: &StateVector, tol: f64) -> bool {
    let (ia, pa) = a.argmax();
    if pa < 1e-20 {
        return true;
    }
    let phase = a.amps[ia] / b.amps[ia];
    if (phase.abs() - 1.0).abs() > tol {
        return false;
    }
    a.amps
        .iter()
        .zip(b.amps.iter())
        .all(|(x, y)| (*x - *y * phase).abs() < tol)
}

#[test]
fn lowering_preserves_statevector() {
    for case in 0..CASES {
        let c = random_circuit(&mut StdRng::seed_from_u64(case));
        let low = lower_to_cz(&c);
        assert!(is_lowered(&low), "case {case}");
        let mut sa = StateVector::zero(N);
        let mut sb = StateVector::zero(N);
        sa.apply_circuit(&c);
        sb.apply_circuit(&low);
        assert!(states_equal_up_to_phase(&sa, &sb, 1e-7), "case {case}");
    }
}

#[test]
fn fusion_preserves_statevector() {
    for case in 0..CASES {
        let c = random_circuit(&mut StdRng::seed_from_u64(case));
        let low = lower_to_cz(&c);
        let fused = fuse_single_qubit_runs(&low);
        assert!(fused.len() <= low.len(), "case {case}");
        let mut sa = StateVector::zero(N);
        let mut sb = StateVector::zero(N);
        sa.apply_circuit(&low);
        sb.apply_circuit(&fused);
        assert!(states_equal_up_to_phase(&sa, &sb, 1e-7), "case {case}");
    }
}

#[test]
fn routing_is_compliant_and_preserves_marginals() {
    let ws = &mut RouteWorkspace::new();
    for case in 0..CASES {
        let c = random_circuit(&mut StdRng::seed_from_u64(case));
        let grid = Grid::new(2, 3);
        let low = lower_to_cz(&c);
        let routed = route(
            ws,
            &low,
            &grid,
            &Layout::identity(N, N),
            RouteStrategy::Greedy,
        );
        assert!(routed.is_hardware_compliant(&grid), "case {case}");
        // Per-qubit marginals survive the layout permutation.
        let mut sl = StateVector::zero(N);
        sl.apply_circuit(&low);
        let mut sp = StateVector::zero(N);
        sp.apply_circuit(&routed.circuit);
        for l in 0..N {
            let p = routed.final_layout.phys(l);
            assert!(
                (sl.prob_one(l) - sp.prob_one(p)).abs() < 1e-7,
                "case {case}: qubit {l}"
            );
        }
    }
}

#[test]
fn schedule_is_valid_for_any_routed_circuit() {
    let (route_ws, sched_ws) = (&mut RouteWorkspace::new(), &mut ScheduleWorkspace::new());
    let validate_ws = &mut ValidateWorkspace::new();
    for case in 0..CASES {
        let c = random_circuit(&mut StdRng::seed_from_u64(case));
        let grid = Grid::new(2, 3);
        let low = lower_to_cz(&c);
        let routed = route(
            route_ws,
            &low,
            &grid,
            &Layout::identity(N, N),
            RouteStrategy::Greedy,
        );
        // Router-inserted SWAPs are physical 3-CZ sequences: lower again
        // before scheduling (the production pipeline's order).
        let phys = lower_to_cz(&routed.circuit);
        let slots = schedule_crosstalk_aware(sched_ws, &phys, &grid);
        assert!(
            validate_schedule(validate_ws, &phys, &grid, &slots).is_ok(),
            "case {case}"
        );
        // Slot count bounded below by dependency depth.
        assert!(slots.len() >= phys.depth(), "case {case}");
    }
}

#[test]
fn depth_never_exceeds_gate_count() {
    for case in 0..CASES {
        let c = random_circuit(&mut StdRng::seed_from_u64(case));
        assert!(c.depth() <= c.len(), "case {case}");
        let m = c.moments();
        let total: usize = m.iter().map(|x| x.len()).sum();
        assert_eq!(total, c.len(), "case {case}");
    }
}
