//! Quickstart: build a DigiQ controller, compile a small circuit through
//! the full pipeline, and print the hardware + execution report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use digiq::digiq_core::design::ControllerDesign;
use digiq::digiq_core::engine::EvalEngine;
use digiq::qcircuit::ir::Circuit;
use digiq::qcircuit::pipeline::PipelineConfig;
use digiq::qcircuit::topology::Grid;
use digiq::sfq_hw::cost::CostModel;

fn main() {
    // 1. Pick a design point: DigiQ_opt with 8 broadcast delays, 2 groups.
    let engine = EvalEngine::new(CostModel::default());
    let design = ControllerDesign::DigiqOpt { bs: 8 };

    // 2. The synthesized hardware (Fig 8's numbers for this point).
    let hw = engine.hardware(design, 2).expect("buildable design");
    println!("hardware @ 1,024 qubits:");
    println!("  power      {:8.3} W", hw.report.power_w);
    println!("  area       {:8.1} mm2", hw.report.area_mm2);
    println!(
        "  worst stage{:8.1} ps (40 ps clock)",
        hw.report.worst_stage_ps
    );
    println!("  cables     {:8}", hw.cables);
    println!("  JJs        {:8}", hw.report.total_jj);

    // 3. A small GHZ-flavoured workload.
    let mut circuit = Circuit::new(32);
    circuit.h(0);
    for q in 0..31 {
        circuit.cx(q, q + 1);
    }
    for q in 0..32 {
        circuit.t(q);
    }

    // 4. Compile: lower → route on the 32×32 grid → schedule → execute,
    //    normalized to Impossible MIMD.
    let report = engine.evaluate_circuit(
        "ghz32+t",
        &circuit,
        &Grid::paper_grid(),
        &PipelineConfig::default(),
        design.into(),
        0xD161_0E0C, // exec seed: salts the per-gate delay draws
    );
    println!(
        "\nexecution of {} ({} logical gates):",
        report.benchmark, report.logical_gates
    );
    println!("  SWAPs inserted      {:8}", report.swaps);
    println!("  schedule slots      {:8}", report.slots);
    println!("  total time          {:8.1} ns", report.exec.total_ns);
    println!("  vs Impossible MIMD  {:8.2}x", report.normalized_time);
}
