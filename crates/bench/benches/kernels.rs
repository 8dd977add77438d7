//! Timing kernels for the computational hot paths behind every figure:
//! Hamiltonian propagation and the CZ echo optimizer (Fig 7), bitstream
//! fitness (§V-A step 1), gate decomposition (Fig 10a), routing, the
//! analytic execution model and synthesis (Figs 8/9).
//!
//! Runs on the std-only harness in `digiq_bench::timing` (no criterion —
//! the workspace is offline and dependency-free); its flags are the
//! extras declared in `main`. `--json-out FILE` writes the collected
//! stats as a JSON array (what `scripts/ci.sh --bench-json` records in
//! `BENCH_<date>.json`).
//!
//! Besides wall time, each kernel is run once under
//! `qsim::counters::counted` to record its deterministic counters, one
//! row column per entry of `KernelCounters::fields`.
//! `--compare FILE` diffs the fresh run against a committed
//! `BENCH_<date>.json` record through `digiq_bench::record` with the gate
//! `record::counter_gate`: counter regressions are hard failures
//! (exit 1), wall-time regressions only warn — the CI container timing
//! is too noisy to gate on.

use digiq_bench::cli::CommonArgs;
use digiq_bench::record::{self, RecordRow};
use digiq_bench::timing::{Harness, Stats};
use qsim::counters::KernelCounters;
use sfq_hw::json::{Json, ToJson};
use std::hint::black_box;

/// The timing harness plus one deterministic counter snapshot per kernel.
struct Bench {
    h: Harness,
    counters: Vec<KernelCounters>,
    /// `--filter SUBSTR`: only kernels whose name contains this run.
    filter: Option<String>,
}

impl Bench {
    fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(fl) = &self.filter {
            if !name.contains(fl.as_str()) {
                return;
            }
        }
        let (_, c) = qsim::counters::counted(|| black_box(f()));
        self.counters.push(c);
        self.h.bench(name, f);
    }
}

fn bench_eigen(h: &mut Bench) {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let ham = pair.hamiltonian(-1.8);
    // The raw workspace Jacobi core, the deepest numeric tier under
    // every propagator.
    h.bench("eigh_9x9_cold", || qsim::eigen::eigh(black_box(&ham)));
}

fn bench_expm(h: &mut Bench) {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let ham = pair.hamiltonian(-1.8);
    h.bench("expm_9x9_propagator", || {
        qsim::expm::expm_hermitian_propagator(black_box(&ham), 0.25)
    });
    let wf =
        qsim::two_qubit::DetuningWaveform::rounded(pair.cz_resonance_detuning(), 4.0, 35.0, 0.5);
    h.bench("uqq_full_pulse", || pair.propagate(black_box(&wf)));
}

/// One Fig 10b echo-sequence optimization (2 `Uqq` pulses, 2 starts) on
/// a drifted pair: the CZ calibration's inner loop, whose counters pin it
/// allocation-free.
fn bench_cz(h: &mut Bench) {
    use calib::cz::{calibrate_shared_pulse, cz_error_with_local_1q, uqq_for_drift};
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let pulse = calibrate_shared_pulse(&pair, 4.0, 0.25);
    let uqq = uqq_for_drift(&pair, &pulse, 0.006, -0.004, 1.01);
    h.bench("cz_echo_2pulse", || {
        cz_error_with_local_1q(black_box(&uqq), 2, 2, 0xF160_10B1)
    });
}

fn bench_bitstream(h: &mut Bench) {
    use qsim::pulse::{SfqParams, SfqPulseSim};
    let sim = SfqPulseSim::new(qsim::transmon::Transmon::new(6.21286), SfqParams::default());
    let bits = sim.resonant_comb(63);
    let target = qsim::gates::ry(std::f64::consts::FRAC_PI_2);
    h.bench("bitstream_frame_gate_253", || {
        sim.frame_gate_qubit(black_box(&bits))
    });
    // The search's fitness: the z-phase-free score prepared once per
    // target, as `find_bitstream` runs it.
    let m = sim.frame_gate_qubit(&bits);
    let score =
        calib::bitstream::FreedomFidelity::new(&target, calib::bitstream::ZFreedom::PrePost);
    h.bench("bitstream_fitness_free_z", || score.fidelity(black_box(&m)));
    // One whole shared-calibration search (§V-A step 1): the GA at the
    // `ErrorModelConfig::small` budget, then the prefix-resumed polish.
    let search = calib::bitstream::SearchConfig {
        length: 253,
        ga: digiq_core::error_model::ErrorModelConfig::small(1).ga,
    };
    h.bench("bitstream_search_ry_opt", || {
        calib::bitstream::find_bitstream(
            *sim.transmon(),
            SfqParams::default(),
            black_box(&target),
            calib::bitstream::ZFreedom::PrePost,
            &search,
        )
    });
}

fn bench_decomposition(h: &mut Bench) {
    let basis = calib::opt_decomp::OptBasis::ideal(255);
    let target = qsim::gates::h();
    h.bench("opt_decompose_L2", || {
        calib::opt_decomp::decompose_opt(black_box(&target), &basis, 0.0, 2, 0.0)
    });
    // The drifted basis of `near_pi_rotations_benefit_from_l3` with X and
    // a zero error target: the L=2 scan, the stem selection and the L=3
    // scan run without an early exit, like every Fig 10a call, so the
    // row and stem floors decide what is scanned.
    let drifted = calib::opt_decomp::OptBasis {
        ubs: qsim::gates::rz(0.21)
            .matmul(&qsim::gates::ry(std::f64::consts::FRAC_PI_2 + 0.07))
            .matmul(&qsim::gates::rz(-0.13)),
        phase_per_tick: 2.0 * std::f64::consts::PI * 0.2487,
        n_delays: 255,
    };
    let tables = calib::opt_decomp::OptTables::build(&drifted);
    let x = qsim::gates::x();
    h.bench("opt_decompose_L3", || {
        calib::opt_decomp::decompose_opt_with(&tables, black_box(&x), 0.0, 3, 0.0)
    });
    let min_basis = calib::min_decomp::MinBasis::ideal_ry_t();
    let db = calib::min_decomp::SequenceDb::build(&min_basis, 10);
    h.bench("min_mitm_query_depth20", || {
        calib::min_decomp::decompose_min(black_box(&target), &min_basis, &db, 1e-4)
    });
    // The drifted basis of `drifted_basis_still_universal` with a zero
    // error target: the scan visits every database entry's neighbourhood
    // without an early exit, like every Fig 10a call.
    let drifted_min = calib::min_decomp::MinBasis::new(vec![
        qsim::gates::rz(0.11)
            .matmul(&qsim::gates::ry(std::f64::consts::FRAC_PI_2 + 0.04))
            .matmul(&qsim::gates::rz(-0.07)),
        qsim::gates::rz(std::f64::consts::FRAC_PI_4 + 0.03),
    ]);
    let drifted_db = calib::min_decomp::SequenceDb::build(&drifted_min, 8);
    h.bench("min_mitm_drifted_depth16", || {
        calib::min_decomp::decompose_min(black_box(&target), &drifted_min, &drifted_db, 0.0)
    });
}

fn bench_compile(h: &mut Bench) {
    use qcircuit::lower::lower_to_cz;
    use qcircuit::mapping::{route, Layout, RouteWorkspace};
    use qcircuit::pipeline::{CompileArtifact, PipelineConfig, RouteStrategy, ScheduleStrategy};
    use qcircuit::schedule::{schedule_crosstalk_aware, ScheduleWorkspace};
    use qcircuit::topology::Grid;
    let grid = Grid::new(8, 8);
    let circuit = lower_to_cz(&qcircuit::bench::ising_chain(64, 2, 0.3, 0.7));
    let snake = Layout::snake(64, &grid);
    let mut route_ws = RouteWorkspace::new();
    h.bench("route_ising64", || {
        route(
            &mut route_ws,
            black_box(&circuit),
            &grid,
            black_box(&snake),
            RouteStrategy::Greedy,
        )
    });
    let routed = route(
        &mut route_ws,
        &circuit,
        &grid,
        &snake,
        RouteStrategy::Greedy,
    );
    let phys = lower_to_cz(&routed.circuit);
    let mut sched_ws = ScheduleWorkspace::new();
    h.bench("schedule_ising64", || {
        schedule_crosstalk_aware(&mut sched_ws, black_box(&phys), &grid)
    });

    // The whole pass pipeline (lower → route → lower_swaps → schedule,
    // post-validated per stage) on the same workload, default vs the
    // alternative strategies.
    let logical = qcircuit::bench::ising_chain(64, 2, 0.3, 0.7);
    let mut pipe = |name: &'static str, cfg: PipelineConfig| {
        h.bench(name, || {
            cfg.run(
                CompileArtifact::new(black_box(&logical).clone(), snake.clone()),
                &grid,
            )
            .unwrap()
            .0
            .scheduled()
            .len()
        });
    };
    pipe("pipeline_default_ising64", PipelineConfig::default());
    pipe(
        "pipeline_lookahead_asap_ising64",
        PipelineConfig::default()
            .with_router(RouteStrategy::Lookahead { window: 16 })
            .with_scheduler(ScheduleStrategy::Asap),
    );
}

/// The analytic Fig 9 execution model over the six Table IV benchmarks
/// at paper scale, compiled once on the 32×32 grid by the default
/// pipeline: one row per design family the model charges differently,
/// each executing prebuilt plans as the engine does, the Fig 9 BS
/// siblings charged in one contention pass, and the one-off plan build
/// of every compile. The same compiles give the cold crosstalk-aware
/// schedule of the routed Add2, a fresh workspace per iteration as in a
/// cold sweep round.
fn bench_exec(h: &mut Bench) {
    use digiq_core::design::{ControllerDesign, SystemConfig};
    use digiq_core::exec::{
        checkerboard_groups, execute_opt_siblings, execute_plan, ExecParams, ExecPlan,
    };
    use qcircuit::bench::{Benchmark, ALL_BENCHMARKS};
    use qcircuit::mapping::Layout;
    use qcircuit::pipeline::{CompileArtifact, PipelineConfig};
    use qcircuit::schedule::{schedule_crosstalk_aware, ScheduleWorkspace};
    use qcircuit::topology::Grid;
    let grid = Grid::new(32, 32);
    let compiled: Vec<CompileArtifact> = ALL_BENCHMARKS
        .iter()
        .map(|bench| {
            let circuit = bench.paper_scale();
            let layout = Layout::snake(circuit.n_qubits(), &grid);
            PipelineConfig::default()
                .run(CompileArtifact::new(circuit, layout), &grid)
                .unwrap()
                .0
        })
        .collect();
    let add2 = &compiled[ALL_BENCHMARKS
        .iter()
        .position(|&b| b == Benchmark::Add2)
        .expect("Add2 is a Table IV benchmark")];
    h.bench("schedule_add2_paper_cold", || {
        schedule_crosstalk_aware(
            &mut ScheduleWorkspace::new(),
            black_box(&add2.circuit),
            &grid,
        )
    });
    h.bench("exec_plan_build_paper", || {
        compiled
            .iter()
            .map(|art| ExecPlan::new(black_box(&art.circuit), art.scheduled()))
            .collect::<Vec<_>>()
    });
    let plans: Vec<ExecPlan> = compiled
        .iter()
        .map(|art| ExecPlan::new(&art.circuit, art.scheduled()))
        .collect();
    let groups = checkerboard_groups(grid.cols(), grid.n_qubits(), 2);
    let params_of = |design| {
        let mut params = ExecParams::new(SystemConfig::paper_default(design, 2));
        params.config.n_qubits = grid.n_qubits();
        params
    };
    for (name, design) in [
        ("exec_opt_bs8_paper", ControllerDesign::DigiqOpt { bs: 8 }),
        ("exec_min_paper", ControllerDesign::DigiqMin { bs: 2 }),
    ] {
        let params = params_of(design);
        h.bench(name, || {
            plans
                .iter()
                .map(|plan| execute_plan(plan, &groups, black_box(&params)).total_ns)
                .sum::<f64>()
        });
    }
    let siblings: Vec<ExecParams> = [4, 8, 16]
        .map(|bs| params_of(ControllerDesign::DigiqOpt { bs }))
        .into();
    h.bench("exec_opt_siblings_paper", || {
        plans
            .iter()
            .flat_map(|plan| execute_opt_siblings(plan, &groups, black_box(&siblings)))
            .map(|report| report.total_ns)
            .sum::<f64>()
    });
}

fn bench_synthesis(h: &mut Bench) {
    h.bench("synthesize_mux16", || {
        let mut nl = sfq_hw::generators::one_hot_mux(16);
        sfq_hw::passes::synthesize(&mut nl);
        nl.stats().total_jj
    });
    let cfg = digiq_core::design::SystemConfig::paper_default(
        digiq_core::design::ControllerDesign::DigiqOpt { bs: 8 },
        2,
    );
    let model = sfq_hw::cost::CostModel::default();
    // `build_hardware` keeps no state between calls, so the counted
    // (first) run and every timed iteration do the same cold synthesis.
    h.bench("build_hardware_opt_bs8", || {
        digiq_core::hardware::build_hardware(black_box(&cfg), &model)
    });
    // Every Fig 8 row built on the calling thread, without the worker
    // pool `fig8_sweep` maps the points on.
    let points = digiq_core::hardware::fig8_points();
    h.bench("fig8_sweep_serial", || {
        points
            .iter()
            .map(|&(design, groups)| {
                digiq_core::hardware::fig8_row(design, black_box(groups), &model)
            })
            .collect::<Vec<_>>()
    });
}

/// One fresh result row: timing stats plus the deterministic counters.
struct Row<'a> {
    name: &'a str,
    stats: &'a Stats,
    counters: KernelCounters,
}

impl RecordRow for Row<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn wall_ns(&self) -> f64 {
        self.stats.median_ns
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), self.name.to_json())];
        if let Json::Obj(stat_fields) = self.stats.to_json() {
            fields.extend(stat_fields);
        }
        for (field, value) in self.counters.fields() {
            fields.push((field.to_string(), value.to_json()));
        }
        Json::Obj(fields)
    }
}

fn main() {
    let args = CommonArgs::parse_for(
        "kernels",
        &[
            ("--quick", "smaller timing budgets (CI smoke mode)"),
            ("--filter SUBSTR", "only time kernels whose name has SUBSTR"),
            ("--json-out FILE", "write the fresh rows to FILE"),
            ("--compare FILE", "gate the rows on a committed record"),
        ],
        1,
    );
    let mut h = Bench {
        h: if args.flag("--quick") {
            Harness::quick()
        } else {
            Harness::standard()
        },
        counters: Vec::new(),
        filter: args.value("--filter").map(str::to_string),
    };
    bench_eigen(&mut h);
    bench_expm(&mut h);
    bench_cz(&mut h);
    bench_bitstream(&mut h);
    bench_decomposition(&mut h);
    bench_compile(&mut h);
    bench_exec(&mut h);
    bench_synthesis(&mut h);
    println!("\n{} kernels timed.", h.h.results.len());
    let rows: Vec<Row> =
        h.h.results
            .iter()
            .zip(&h.counters)
            .map(|((name, stats), &counters)| Row {
                name,
                stats,
                counters,
            })
            .collect();
    record::finish(&rows, &record::KERNELS, &args, |row, base| {
        record::counter_gate(&row.counters, base)
    });
}
