//! Cross-crate integration tests: the full DigiQ pipeline from physics to
//! architecture, exercised end-to-end at reduced scale.

use digiq::calib::bitstream::{find_bitstream, SearchConfig, ZFreedom};
use digiq::calib::opt_decomp::{decompose_opt, realize_opt, OptBasis};
use digiq::digiq_core::design::ControllerDesign;
use digiq::digiq_core::engine::{EvalEngine, SweepReport, SweepSpec};
use digiq::digiq_core::BenchmarkReport;
use digiq::qcircuit::bench;
use digiq::qcircuit::bench::Benchmark;
use digiq::qcircuit::ir::{Circuit, StateVector};
use digiq::qcircuit::lower::lower_to_cz;
use digiq::qcircuit::pipeline::PipelineConfig;
use digiq::qcircuit::topology::Grid;
use digiq::qsim::optimize::GaConfig;
use digiq::qsim::pulse::SfqParams;
use digiq::qsim::transmon::Transmon;
use digiq::sfq_hw::cost::CostModel;
use digiq::sfq_hw::json::ToJson;

/// Physics → calibration → decomposition: a bitstream found by the GA,
/// recomputed on a drifted qubit, still compiles H below 1e-3 error via
/// the delay decomposition — §V-A's central claim, across three crates.
#[test]
fn software_calibration_closes_the_loop() {
    let params = SfqParams::default();
    let nominal = Transmon::new(6.21286);
    let found = find_bitstream(
        nominal,
        params,
        &digiq::qsim::gates::ry(std::f64::consts::FRAC_PI_2),
        ZFreedom::PrePost,
        &SearchConfig {
            length: 253,
            ga: GaConfig {
                population: 32,
                generations: 40,
                ..GaConfig::default()
            },
        },
    );
    assert!(
        found.error < 2e-3,
        "bitstream search error {:.2e}",
        found.error
    );

    // Drift the qubit by +6 MHz (the paper's σ scale) and recalibrate.
    let drifted = Transmon::new(6.21286 + 0.006);
    let ubs = digiq::calib::bitstream::basis_op_for_qubit(&found.bits, drifted, params);
    let basis = OptBasis::new(&ubs, drifted.frequency_ghz, params.clock_period_ns, 255);
    let target = digiq::qsim::gates::h();
    let dec = decompose_opt(&target, &basis, 0.0, 3, 1e-4);
    assert!(
        dec.error < 5e-3,
        "drifted H decomposition error {:.2e}",
        dec.error
    );
    // The realized operation matches the reported error.
    let realized = realize_opt(&basis, &dec);
    let direct = digiq::qsim::fidelity::average_gate_error(&realized, &target);
    assert!((direct - dec.error).abs() < 1e-9);
}

/// Exec seed of the single-circuit evaluations below.
const EXEC_SEED: u64 = 0xD161_0E0C;

/// Evaluates `circuit` at `design` (G = 2) on the paper's 32×32 grid.
fn evaluate(
    engine: &EvalEngine,
    design: ControllerDesign,
    pipeline: PipelineConfig,
    circuit: &Circuit,
) -> BenchmarkReport {
    engine.evaluate_circuit(
        "qgan",
        circuit,
        &Grid::paper_grid(),
        &pipeline,
        design.into(),
        EXEC_SEED,
    )
}

/// Compiler → architecture: a benchmark circuit survives the full
/// pipeline and the Fig 9 orderings hold at reduced scale.
#[test]
fn pipeline_orderings_hold() {
    let engine = EvalEngine::new(CostModel::default());
    let qgan = bench::qgan(64, 2, 11);
    let eval = |design| evaluate(&engine, design, PipelineConfig::default(), &qgan);

    let r_min = eval(ControllerDesign::DigiqMin { bs: 2 });
    let r_opt16 = eval(ControllerDesign::DigiqOpt { bs: 16 });
    let r_opt4 = eval(ControllerDesign::DigiqOpt { bs: 4 });

    // Everything is slower than the Impossible MIMD reference.
    for r in [&r_min, &r_opt16, &r_opt4] {
        assert!(r.normalized_time >= 1.0);
    }
    // More broadcast slots help the parallel workload.
    assert!(r_opt16.normalized_time <= r_opt4.normalized_time);
}

/// Benchmark semantics survive lowering (statevector oracle) and the
/// hardware fits the fridge — the headline sanity chain.
#[test]
fn benchmarks_and_budget() {
    // 3-bit Cuccaro adds correctly after CZ lowering.
    let add = bench::cuccaro_adder(3);
    let low = lower_to_cz(&add);
    let mut c = Circuit::new(low.n_qubits());
    // a = 5, b = 6 → sum 11 = 3 mod 8 with carry.
    for (i, bit) in [true, false, true].iter().enumerate() {
        if *bit {
            c.x(2 + 2 * i);
        }
    }
    for (i, bit) in [false, true, true].iter().enumerate() {
        if *bit {
            c.x(1 + 2 * i);
        }
    }
    c.extend(&low);
    let mut sv = StateVector::zero(c.n_qubits());
    sv.apply_circuit(&c);
    let (idx, p) = sv.argmax();
    assert!(p > 0.99);
    let nq = c.n_qubits();
    let bit = |q: usize| (idx >> (nq - 1 - q)) & 1;
    let sum = bit(1) | (bit(3) << 1) | (bit(5) << 2);
    assert_eq!(sum, 3, "5 + 6 mod 8");
    assert_eq!(bit(2 * 3 + 1), 1, "carry out");

    // Every DigiQ design point fits 10 W.
    let engine = EvalEngine::new(CostModel::default());
    for design in [
        ControllerDesign::DigiqMin { bs: 2 },
        ControllerDesign::DigiqMin { bs: 4 },
        ControllerDesign::DigiqOpt { bs: 8 },
        ControllerDesign::DigiqOpt { bs: 16 },
    ] {
        let hw = engine.hardware(design, 2).expect("buildable");
        assert!(
            hw.report.power_w < 10.0,
            "{design}: {} W",
            hw.report.power_w
        );
        assert!(
            hw.report.worst_stage_ps < 40.0,
            "{design} misses the 40 ps clock"
        );
    }
}

/// Architecture at full breadth: the entire Table I design space runs
/// through the batched evaluation engine on a small grid, hardware and
/// all, and the cross-design orderings hold on every benchmark.
#[test]
fn full_design_space_through_the_engine() {
    let mut designs = SweepSpec::table_one_designs();
    designs.push(ControllerDesign::ImpossibleMimd.into());
    let spec = SweepSpec::small_grid(
        designs,
        &[Benchmark::Qgan, Benchmark::Ising, Benchmark::Bv],
        6,
        6,
    )
    .with_hardware();
    let engine = EvalEngine::new(digiq::sfq_hw::cost::CostModel::default());
    let report = engine.run(&spec, 2);

    // 5 designs × 3 benchmarks, merged design-major.
    assert_eq!(report.jobs.len(), 15);
    for job in &report.jobs {
        assert!(job.report.normalized_time >= 1.0, "{}", job.design);
        assert!(job.report.exec.total_ns > 0.0);
        match job.design {
            ControllerDesign::ImpossibleMimd => {
                assert_eq!(job.power_w, None, "the reference has no hardware")
            }
            d => {
                let p = job.power_w.unwrap_or_else(|| panic!("{d}: hardware"));
                assert!(p > 0.0 && p < 11.0, "{d}: {p} W");
            }
        }
    }
    // Each benchmark compiled exactly once for all five designs.
    assert_eq!(report.cache.compile_misses, 3);
    assert_eq!(report.cache.compile_hits, 12);
    // The DigiQ designs beat the naive register-streaming baseline on
    // hardware cost by an order of magnitude (Fig 8's headline).
    let power = |d: ControllerDesign| {
        report
            .jobs
            .iter()
            .find(|j| j.design == d)
            .and_then(|j| j.power_w)
            .unwrap()
    };
    assert!(
        power(ControllerDesign::DigiqOpt { bs: 8 }) * 4.0 < power(ControllerDesign::SfqMimdNaive)
    );
    // The whole report survives serialization.
    let parsed = SweepReport::parse(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
}

/// The two execution engines, end to end through the facade: the
/// cycle-accurate co-simulator reproduces the analytic model's cycle
/// counts on the full small design space, and the co-simulation sweep
/// survives serialization.
#[test]
fn cosim_validates_the_analytic_model_end_to_end() {
    let mut designs = SweepSpec::table_one_designs();
    designs.push(ControllerDesign::ImpossibleMimd.into());
    let spec = SweepSpec::small_grid(designs, &[Benchmark::Qgan, Benchmark::Bv], 6, 6);
    let engine = EvalEngine::new(digiq::sfq_hw::cost::CostModel::default());
    let report = engine.run_cosim(&spec, 2);

    assert_eq!(report.jobs.len(), 10);
    assert!(
        report.all_exact(1e-9),
        "divergence: {:?}",
        report.worst_diff()
    );
    // The SIMD contention story holds in the cycle-accurate machine too:
    // the analytic and simulated serialization agree per design, and the
    // co-simulator attributes every contention cycle to some slot.
    for job in &report.jobs {
        assert_eq!(
            job.cosim.serialization_cycles, job.analytic.serialization_cycles,
            "{}",
            job.design
        );
        let attributed: u64 = job.cosim.slot_serialization.iter().map(|s| s.cycles).sum();
        assert_eq!(attributed, job.cosim.serialization_cycles);
    }
    let parsed =
        digiq::digiq_core::engine::CosimSweepReport::parse(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
}

/// The paper's cross-artifact consistency: Table II parking frequencies
/// are exactly where the drift population is parked, and the delay phases
/// those frequencies generate drive the opt decomposition.
#[test]
fn parking_and_drift_are_consistent() {
    let rows = digiq::calib::parking::parking_search((6.1, 6.3), 0.040, 255, 1e-4, 1e-4, 1);
    assert!(!rows.is_empty());
    let f = rows[0].freq_ghz;
    assert!(
        (f - 6.21286).abs() < 0.08,
        "search strays from Table II: {f}"
    );

    // Population parked there drifts within tolerance most of the time.
    let pop = digiq::calib::drift::sample_population(
        32,
        256,
        &[f, 4.14238],
        &digiq::calib::drift::DriftModel::default(),
    );
    let within = pop
        .iter()
        .filter(|q| q.nominal_ghz > 5.0)
        .filter(|q| q.drift_ghz().abs() <= rows[0].drift_tolerance_ghz)
        .count();
    let total = pop.iter().filter(|q| q.nominal_ghz > 5.0).count();
    assert!(
        within * 10 >= total * 8,
        "only {within}/{total} qubits within drift tolerance"
    );
}

/// Compiler pass pipeline through the facade crate's engine: the engine
/// reports the per-pass metrics of its compiles, and every strategy
/// combination yields a valid evaluation whose numbers respond to the
/// strategy — the full scenario-diversity surface in one cross-crate
/// check.
#[test]
fn pass_pipeline_strategies_through_the_facade() {
    use digiq::digiq_core::engine::{BenchScale, BenchmarkSpec};
    use digiq::qcircuit::mapping::Layout;
    use digiq::qcircuit::pipeline::{CompileArtifact, RouteStrategy, ScheduleStrategy};

    let engine = EvalEngine::new(CostModel::default());
    let design = ControllerDesign::DigiqOpt { bs: 8 };
    let qgan = bench::qgan(64, 2, 11);

    let default = PipelineConfig::default();
    let grid = Grid::new(4, 4);
    let small = bench::qgan(16, 1, 11);
    let (_, run_metrics) = default
        .run(
            CompileArtifact::new(small.clone(), Layout::snake(small.n_qubits(), &grid)),
            &grid,
        )
        .expect("the default pipeline compiles");
    let labels: Vec<&str> = run_metrics.iter().map(|m| m.pass.as_str()).collect();
    assert_eq!(labels, ["lower", "route", "lower_swaps", "schedule"]);
    let r_default = engine.evaluate_circuit(
        "qgan",
        &qgan,
        &Grid::paper_grid(),
        &default,
        design.into(),
        EXEC_SEED,
    );
    // Per-pass metrics of the one compile agree with the evaluation
    // report.
    let metrics = engine.pass_cache_stats();
    assert_eq!(metrics.passes.len(), 4);
    let schedule = metrics.get("schedule").expect("schedule ran");
    assert!(schedule.slots_out > 0);
    assert_eq!(schedule.slots_out, r_default.slots as u64);
    assert_eq!(
        metrics.get("route").expect("route ran").swaps_added,
        r_default.swaps as u64
    );

    let asap = default.with_scheduler(ScheduleStrategy::Asap);
    let r_asap = evaluate(&engine, design, asap, &qgan);
    // Crosstalk-oblivious packing needs fewer slots (it ignores the
    // spectator constraint the aware scheduler pays for).
    assert!(r_asap.slots < r_default.slots);
    assert!(r_asap.normalized_time >= 1.0);

    let lookahead = default.with_router(RouteStrategy::Lookahead { window: 16 });
    let r_look = evaluate(&engine, design, lookahead, &qgan);
    assert!(r_look.normalized_time >= 1.0);

    // The cycle-accurate co-simulator stays in lockstep with the
    // analytic model under a non-default pipeline: a co-simulation sweep
    // of the same qgan(64, 2, 11) instance on the 32×32 grid.
    let spec = SweepSpec {
        designs: vec![design.into()],
        benchmarks: vec![BenchmarkSpec {
            bench: Benchmark::Qgan,
            scale: BenchScale::Small { max_qubits: 64 },
        }],
        seeds: vec![0],
        grid_rows: 32,
        grid_cols: 32,
        synthesize_hardware: false,
        base_seed: 11,
        pipeline: lookahead,
    };
    assert_eq!(
        **engine.benchmark_circuit(spec.benchmarks[0], spec.base_seed),
        qgan
    );
    let cosim = engine.run_cosim(&spec, 1);
    assert_eq!(cosim.jobs.len(), 1);
    assert!(cosim.all_exact(1e-9), "{:?}", cosim.worst_diff());
}
