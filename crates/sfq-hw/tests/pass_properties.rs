//! Property-based tests for the RSFQ synthesis passes.
//!
//! Random DAGs are generated (seeded, via the workspace's internal RNG —
//! no proptest offline), pushed through the full synthesis flow, and
//! checked against the structural invariants the cost model relies on:
//! legality of fanout, full path balance, retiming's conservation of
//! input-to-output stage counts, and equality between the edge-weight
//! bookkeeping and physically materialized DFF chains.

use qsim::rng::StdRng;
use sfq_hw::cells::CellType;
use sfq_hw::netlist::{Netlist, NodeId};
use sfq_hw::passes::{
    check_balance, insert_splitters, materialize_balancing, path_balance, retime, stage_depths,
    synthesize,
};

const CASES: u64 = 48;

/// A random DAG: for each gate, a cell choice and fanin picks (indices
/// into the already-built prefix).
fn random_netlist(rng: &mut StdRng) -> Netlist {
    let n_inputs = rng.gen_range(2usize..6);
    let n_gates = rng.gen_range(1usize..40);
    let mut nl = Netlist::new("prop");
    let mut pool: Vec<NodeId> = nl.inputs("i", n_inputs);
    for _ in 0..n_gates {
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let id = match rng.gen_range(0u32..5) {
            0 => nl.gate(CellType::And2, &[a, b]),
            1 => nl.gate(CellType::Or2, &[a, b]),
            2 => nl.gate(CellType::Xor2, &[a, b]),
            3 => nl.gate(CellType::Not, &[a]),
            _ => nl.gate(CellType::DroDff, &[a]),
        };
        pool.push(id);
    }
    // Mark sinks (nodes with no fanout) as outputs.
    let fo = nl.fanouts();
    for id in nl.ids().collect::<Vec<_>>() {
        if fo.of(id).is_empty() && nl.node(id).cell().is_some() {
            nl.mark_output("o", id);
        }
    }
    nl
}

#[test]
fn synthesis_preserves_validity() {
    for case in 0..CASES {
        let mut nl = random_netlist(&mut StdRng::seed_from_u64(case));
        assert!(nl.validate().is_ok(), "case {case}: invalid before");
        synthesize(&mut nl);
        assert!(nl.validate().is_ok(), "case {case}: invalid after");
    }
}

#[test]
fn fanout_is_legal_after_splitter_insertion() {
    for case in 0..CASES {
        let mut nl = random_netlist(&mut StdRng::seed_from_u64(case));
        insert_splitters(&mut nl);
        let fo = nl.fanouts();
        for (id, node) in nl.iter() {
            let max = node.cell().map_or(1, CellType::max_fanout);
            let k = fo.of(id).len();
            assert!(
                k <= max,
                "case {case}: node {id:?} fanout {k} exceeds {max}"
            );
        }
    }
}

#[test]
fn balance_invariant_holds_after_flow() {
    for case in 0..CASES {
        let mut nl = random_netlist(&mut StdRng::seed_from_u64(case));
        synthesize(&mut nl);
        assert!(check_balance(&nl).is_ok(), "case {case}");
    }
}

#[test]
fn retiming_never_increases_dffs_and_keeps_balance() {
    for case in 0..CASES {
        let mut nl = random_netlist(&mut StdRng::seed_from_u64(case));
        insert_splitters(&mut nl);
        path_balance(&mut nl);
        let before = nl.stats().balancing_dffs;
        let depths_before = stage_depths(&nl).unwrap();
        let saved = retime(&mut nl);
        let after = nl.stats().balancing_dffs;
        assert_eq!(before - after, saved, "case {case}");
        assert!(check_balance(&nl).is_ok(), "case {case}");
        // Output stage depths unchanged (retiming conserves path weights).
        let depths_after = stage_depths(&nl).unwrap();
        for (name, id) in nl.outputs() {
            assert_eq!(
                depths_before[id.index()],
                depths_after[id.index()],
                "case {case}: output {name} depth changed"
            );
        }
    }
}

#[test]
fn materialized_netlist_matches_weights() {
    for case in 0..CASES {
        let mut nl = random_netlist(&mut StdRng::seed_from_u64(case));
        synthesize(&mut nl);
        let weights = nl.stats();
        let phys = materialize_balancing(&nl);
        assert!(phys.validate().is_ok(), "case {case}");
        let pstats = phys.stats();
        assert_eq!(
            pstats.count(CellType::DroDff),
            weights.count(CellType::DroDff),
            "case {case}"
        );
        assert_eq!(pstats.total_jj, weights.total_jj, "case {case}");
        assert!(check_balance(&phys).is_ok(), "case {case}");
    }
}

#[test]
fn path_balance_is_idempotent() {
    for case in 0..CASES {
        let mut nl = random_netlist(&mut StdRng::seed_from_u64(case));
        insert_splitters(&mut nl);
        path_balance(&mut nl);
        let again = path_balance(&mut nl);
        assert_eq!(again, 0, "case {case}");
    }
}

#[test]
fn stats_scale_linearly() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let nl = random_netlist(&mut rng);
        let k = rng.gen_range(1u64..20);
        let one = nl.stats();
        let mut many = sfq_hw::netlist::NetlistStats::default();
        many.add_scaled(&one, k);
        assert_eq!(many.total_jj, one.total_jj * k, "case {case}");
        assert!(
            (many.cell_area_um2 - one.cell_area_um2 * k as f64).abs() < 1e-6,
            "case {case}"
        );
    }
}

// ------------------------------------------------------------------
// Deterministic synthesis-counter contracts (bench-compare gate inputs).
// ------------------------------------------------------------------

#[test]
fn pass_counters_match_returned_work() {
    use qsim::counters;
    let mut nl = Netlist::new("cnt");
    let ins = nl.inputs("i", 4);
    let a = nl.gate(CellType::And2, &[ins[0], ins[1]]);
    let b = nl.gate(CellType::And2, &[a, ins[2]]);
    let c = nl.gate(CellType::And2, &[b, ins[3]]);
    nl.mark_output("o", c);
    let n0 = nl.len() as u64;
    let (_, tally) = counters::counted(|| insert_splitters(&mut nl));
    assert_eq!(tally.cells, n0, "insert_splitters examines every node once");
    let (inserted, tally) = counters::counted(|| path_balance(&mut nl));
    assert!(inserted > 0);
    assert_eq!(tally.dffs_moved, inserted, "every inserted DFF is tallied");
    assert_eq!(tally.cells, nl.len() as u64);
    let (_, tally) = counters::counted(|| retime(&mut nl));
    assert!(
        tally.cells >= nl.len() as u64,
        "retime tallies at least one full fixpoint sweep"
    );
    assert_eq!(
        tally.synth_allocs, 0,
        "passes must not materialize netlists"
    );
}

#[test]
fn synthesis_counters_cold_equal_warm() {
    use qsim::counters;
    let run = || {
        counters::counted(|| {
            let mut nl = sfq_hw::generators::one_hot_mux(16);
            synthesize(&mut nl);
            nl.stats().total_jj
        })
    };
    // Synthesis keeps no state between calls, so a second run must
    // repeat the first exactly, results and tallies alike.
    let (jj_cold, cold) = run();
    let (jj_warm, warm) = run();
    assert_eq!(
        jj_cold, jj_warm,
        "a rerun must not change synthesis results"
    );
    assert_eq!(cold, warm, "tallies must not depend on earlier runs");
    assert!(cold.cells > 0, "cells examined must be counted");
    assert_eq!(cold.synth_allocs, 1, "one netlist materialized per run");
}
