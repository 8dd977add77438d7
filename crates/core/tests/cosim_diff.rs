//! Differential validation: the cycle-accurate co-simulator against the
//! analytic execution model, on the same compiled artifacts and hash
//! draws.
//!
//! The contract (see `digiq_core::cosim`):
//!
//! * **MIMD baselines and DigiQ_min** — integer cycle counts equal the
//!   analytic model *exactly* (the co-simulator's per-qubit timelines are
//!   the same machine the closed form describes, run in integer ticks);
//! * **DigiQ_opt** — totals match under identical hash draws, and the
//!   serialization cycles are attributed to the same schedule slots the
//!   analytic per-slot cost assigns them to;
//! * the engine's co-simulation mode is byte-identical for any worker
//!   count and unchanged by warm caches.

use digiq_core::cosim::{diff_analytic, simulate, CosimParams, CosimReport};
use digiq_core::delay_model::DelayModel;
use digiq_core::design::{ControllerDesign, SystemConfig};
use digiq_core::engine::{CosimSweepReport, EvalEngine, SweepSpec};
use digiq_core::exec::{checkerboard_groups, execute, opt_slot_cost, ExecParams, OptWorkspace};
use qcircuit::bench::Benchmark;
use qcircuit::ir::Circuit;
use qcircuit::lower::lower_to_cz;
use qcircuit::mapping::{route, Layout, RouterConfig};
use qcircuit::schedule::{schedule_crosstalk_aware, Slot};
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;

/// f64-rounding tolerance between integer-tick and f64-ns totals.
const TOL: f64 = 1e-9;

/// Compiles a benchmark the way the engine does: lower → route (snake) →
/// lower SWAPs → crosstalk-aware schedule.
fn compile(bench: Benchmark, grid: &Grid) -> (Circuit, Vec<Slot>) {
    let circuit = bench.scaled(grid.n_qubits(), 0xD161_5EED);
    let lowered = lower_to_cz(&circuit);
    let routed = route(
        &lowered,
        grid,
        &Layout::snake(circuit.n_qubits(), grid),
        &RouterConfig::default(),
    );
    let physical = lower_to_cz(&routed.circuit);
    let slots = schedule_crosstalk_aware(&physical, grid);
    (physical, slots)
}

fn params_for(design: ControllerDesign, n_qubits: usize) -> ExecParams {
    let mut params = ExecParams::new(SystemConfig::paper_default(design, 2));
    params.config.n_qubits = n_qubits;
    params
}

fn run_both(
    design: ControllerDesign,
    physical: &Circuit,
    slots: &[Slot],
    grid: &Grid,
) -> (CosimReport, digiq_core::exec::ExecReport) {
    let groups = checkerboard_groups(grid.cols(), physical.n_qubits(), 2);
    let params = params_for(design, physical.n_qubits());
    let cosim = simulate(physical, slots, &groups, &CosimParams::new(params.clone()));
    let analytic = execute(physical, slots, &groups, &params);
    (cosim, analytic)
}

#[test]
fn mimd_and_min_designs_match_exactly_on_small_benchmarks() {
    let grid = Grid::new(6, 6);
    for bench in [Benchmark::Bv, Benchmark::Qgan, Benchmark::Ising] {
        let (physical, slots) = compile(bench, &grid);
        for design in [
            ControllerDesign::ImpossibleMimd,
            ControllerDesign::SfqMimdNaive,
            ControllerDesign::SfqMimdDecomp,
            ControllerDesign::DigiqMin { bs: 2 },
            ControllerDesign::DigiqMin { bs: 4 },
        ] {
            let (cosim, analytic) = run_both(design, &physical, &slots, &grid);
            let d = diff_analytic(&cosim, &analytic);
            assert!(d.is_exact(TOL), "{design} on {}: {d:?}", bench.name());
            // These designs never serialize, and every counter agrees.
            assert_eq!(cosim.serialization_cycles, 0);
            assert_eq!(cosim.oneq_cycles, analytic.oneq_cycles);
            assert_eq!(cosim.slots, analytic.slots);
            assert_eq!(cosim.cz_ns, analytic.cz_ns);
        }
    }
}

#[test]
fn opt_totals_match_under_identical_draws() {
    let grid = Grid::new(6, 6);
    for bench in [Benchmark::Bv, Benchmark::Qgan, Benchmark::Ising] {
        let (physical, slots) = compile(bench, &grid);
        for bs in [2usize, 4, 8, 16] {
            let design = ControllerDesign::DigiqOpt { bs };
            let (cosim, analytic) = run_both(design, &physical, &slots, &grid);
            let d = diff_analytic(&cosim, &analytic);
            assert!(d.is_exact(TOL), "{design} on {}: {d:?}", bench.name());
            assert_eq!(cosim.oneq_cycles, analytic.oneq_cycles);
            assert_eq!(cosim.serialization_cycles, analytic.serialization_cycles);
        }
    }
}

#[test]
fn opt_serialization_is_attributed_to_the_same_slots() {
    let grid = Grid::new(6, 6);
    let (physical, slots) = compile(Benchmark::Qgan, &grid);
    let groups = checkerboard_groups(grid.cols(), physical.n_qubits(), 2);
    let design = ControllerDesign::DigiqOpt { bs: 2 }; // narrow BS → contention
    let params = params_for(design, physical.n_qubits());
    let cosim = simulate(
        &physical,
        &slots,
        &groups,
        &CosimParams::new(params.clone()),
    );
    assert!(
        cosim.serialization_cycles > 0,
        "BS=2 must serialize this workload"
    );

    // Recompute the analytic per-slot cost through the shared delay model
    // and demand that the co-simulator charged contention to exactly the
    // same slots, cycle for cycle.
    let mut model = DelayModel::new(&params, &groups, physical.n_qubits());
    let mut ws = OptWorkspace::new(&groups);
    let mut attributed = 0u64;
    for (si, slot) in slots.iter().enumerate() {
        let cost = opt_slot_cost(&physical, slot, &mut model, &mut ws, 2);
        let cosim_cycles = cosim
            .slot_serialization
            .iter()
            .find(|s| s.slot == si)
            .map(|s| s.cycles)
            .unwrap_or(0);
        assert_eq!(
            cosim_cycles, cost.serialization_cycles,
            "slot {si}: cosim attributed {cosim_cycles}, analytic charges {}",
            cost.serialization_cycles
        );
        attributed += cosim_cycles;
    }
    assert_eq!(attributed, cosim.serialization_cycles);
    // The sparse list only carries contended slots.
    assert!(cosim.slot_serialization.iter().all(|s| s.cycles > 0));
}

#[test]
fn engine_cosim_mode_is_deterministic_across_workers_and_cache_state() {
    let spec = SweepSpec::small_grid(
        vec![
            ControllerDesign::SfqMimdNaive.into(),
            ControllerDesign::DigiqOpt { bs: 4 }.into(),
        ],
        &[Benchmark::Bv, Benchmark::Ising],
        4,
        4,
    )
    .with_seeds(vec![0, 1]);

    let engine = EvalEngine::new(CostModel::default());
    let cold = engine.run_cosim(&spec, 1);
    let (hits_after_cold, misses_after_cold) = engine.cosim_cache_stats();
    assert_eq!(misses_after_cold, 8, "one simulation per job");
    assert_eq!(hits_after_cold, 0);

    // Warm engine, more workers: byte-identical serialization.
    let warm = engine.run_cosim(&spec, 3);
    assert_eq!(cold, warm, "cache hits must not change results");
    let (hits_after_warm, misses_after_warm) = engine.cosim_cache_stats();
    assert_eq!(misses_after_warm, 8, "warm run builds nothing");
    assert_eq!(hits_after_warm, 8);

    // Fresh engine, different worker count: byte-identical too.
    let fresh = EvalEngine::new(CostModel::default()).run_cosim(&spec, 4);
    assert_eq!(cold.to_json_string(), fresh.to_json_string());

    // Every job in the sweep validates differentially.
    assert!(cold.all_exact(TOL));
    assert_eq!(cold.jobs.len(), 8);
}

#[test]
fn cosim_sweep_report_round_trips_and_rejects_malformed_input() {
    let spec = SweepSpec::small_grid(
        vec![ControllerDesign::DigiqOpt { bs: 8 }.into()],
        &[Benchmark::Bv],
        4,
        4,
    );
    let report = EvalEngine::new(CostModel::default()).run_cosim(&spec, 2);
    let text = report.to_json_string();
    assert_eq!(CosimSweepReport::parse(&text), Ok(report.clone()));

    assert!(CosimSweepReport::parse("{}").is_err());
    assert!(CosimSweepReport::parse("not json").is_err());
    // Structurally valid JSON with a mistyped jobs field is rejected.
    assert!(CosimSweepReport::parse(r#"{"grid_rows":4,"grid_cols":4,"jobs":3}"#).is_err());
}

#[test]
fn seed_changes_move_both_engines_together() {
    // Different drift seeds re-draw the DigiQ_min decomposition depths
    // (DigiQ_opt's delay classes are 64-bit hashes, so their *distinct
    // counts* are seed-invariant); the two engines must stay locked to
    // each other at every seed even as the totals move.
    let grid = Grid::new(4, 4);
    let (physical, slots) = compile(Benchmark::Qgan, &grid);
    let groups = checkerboard_groups(grid.cols(), physical.n_qubits(), 2);
    let mut totals = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut params = params_for(ControllerDesign::DigiqMin { bs: 2 }, physical.n_qubits());
        params.seed = seed;
        let cosim = simulate(
            &physical,
            &slots,
            &groups,
            &CosimParams::new(params.clone()),
        );
        let analytic = execute(&physical, &slots, &groups, &params);
        assert!(
            diff_analytic(&cosim, &analytic).is_exact(TOL),
            "seed {seed}"
        );
        totals.push(cosim.total_ticks);
    }
    assert!(
        totals.windows(2).any(|w| w[0] != w[1]),
        "seeds should perturb the depth draws: {totals:?}"
    );
}

// ---- negative paths: the executor/co-simulator lowered-circuit guard ----

fn unlowered() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0);
    c.cx(0, 1);
    c
}

#[test]
#[should_panic(expected = "executor requires a lowered circuit")]
fn analytic_timeline_branch_rejects_unlowered_circuits() {
    let c = unlowered();
    let params = params_for(ControllerDesign::SfqMimdNaive, 4);
    // A fake schedule referencing the raw gates.
    let slots: Vec<Slot> = vec![vec![0, 1]];
    let _ = execute(&c, &slots, &[0, 1, 0, 1], &params);
}

#[test]
#[should_panic(expected = "executor requires a lowered circuit")]
fn analytic_opt_branch_rejects_unlowered_circuits() {
    let c = unlowered();
    let params = params_for(ControllerDesign::DigiqOpt { bs: 4 }, 4);
    let slots: Vec<Slot> = vec![vec![0, 1]];
    let _ = execute(&c, &slots, &[0, 1, 0, 1], &params);
}

#[test]
#[should_panic(expected = "co-simulator requires a lowered circuit")]
fn cosim_rejects_unlowered_circuits() {
    let c = unlowered();
    let params = CosimParams::new(params_for(ControllerDesign::DigiqOpt { bs: 4 }, 4));
    let slots: Vec<Slot> = vec![vec![0, 1]];
    let _ = simulate(&c, &slots, &[0, 1, 0, 1], &params);
}
