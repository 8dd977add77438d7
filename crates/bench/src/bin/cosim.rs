//! Cycle-accurate co-simulation driver: runs designs × benchmarks × seeds
//! through `digiq_core::cosim` via the evaluation engine, with every job
//! also executing the analytic Fig 9 model on the identical compiled
//! artifact and hash draws.
//!
//! Modes:
//!
//! * default / `--small` — all four Table I designs plus the Impossible
//!   MIMD reference × {QGAN, Ising, BV} on an 8×8 grid;
//! * `--full` — the five Fig 9 configurations × all six Table IV
//!   benchmarks at paper scale (32×32 grid);
//! * `--smoke` — a tiny 2-design × 2-benchmark sweep on a 4×4 grid with
//!   2 workers, printing **only** the compact report JSON (the CI golden
//!   check diffs this byte-for-byte);
//! * `--diff-analytic` — after the sweep, prints the per-job divergence
//!   table, re-runs on a fresh single-worker engine to prove the
//!   serialized report is byte-identical for any worker count, and exits
//!   non-zero on any cycle-count divergence;
//! * `--trace` — co-simulates one small DigiQ_opt workload with the
//!   per-cycle trace enabled and prints the first events.
//!
//! `cosim --help` lists every flag (the `digiq_bench::cli` family plus
//! the extras declared in `main`). The differential check holds for
//! every `--router`/`--scheduler` selection, since both engines consume
//! the identical compiled artifact; under `--cache-dir` compiles and
//! co-simulation reports persist (store counters go to stderr).

use digiq_bench::cli::CommonArgs;
use digiq_core::cosim::{simulate, CosimParams};
use digiq_core::design::{ControllerDesign, SystemConfig};
use digiq_core::engine::{default_workers, CosimSweepReport, EvalEngine, SweepSpec};
use digiq_core::exec::{checkerboard_groups, ExecParams};
use qcircuit::bench::Benchmark;
use qcircuit::schedule::{schedule_crosstalk_aware, ScheduleWorkspace};
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;

/// Acceptable f64-rounding gap between integer-tick and f64-ns totals.
const NS_TOLERANCE: f64 = 1e-9;

fn spec_for_mode(smoke: bool, full: bool, seeds: usize) -> SweepSpec {
    let spec = if smoke {
        // The shared constructor digiq-serve replays over the wire —
        // one definition, one golden.
        SweepSpec::cosim_smoke()
    } else if full {
        SweepSpec::fig9_paper()
    } else {
        let mut designs = vec![ControllerDesign::ImpossibleMimd.into()];
        designs.extend(SweepSpec::table_one_designs());
        SweepSpec::small_grid(
            designs,
            &[Benchmark::Qgan, Benchmark::Ising, Benchmark::Bv],
            8,
            8,
        )
    };
    spec.with_seeds((0..seeds.max(1) as u64).collect())
}

fn print_table(report: &CosimSweepReport) {
    println!(
        "cosim: {} jobs on the {}x{} grid",
        report.jobs.len(),
        report.grid_rows,
        report.grid_cols
    );
    digiq_bench::rule(96);
    println!(
        "{:22} | {:>8} | {:>12} | {:>12} | {:>7} | {:>7} | {:>8}",
        "design", "bench", "cosim (ns)", "analytic", "1q cyc", "ser cyc", "util"
    );
    digiq_bench::rule(96);
    for job in &report.jobs {
        let util = job
            .cosim
            .groups
            .iter()
            .map(|g| g.utilization)
            .fold(0.0f64, f64::max);
        println!(
            "{:22} | {:>8} | {:>12.1} | {:>12.1} | {:>7} | {:>7} | {:>7.1}%",
            job.design.to_string(),
            job.benchmark,
            job.cosim.total_ns,
            job.analytic.total_ns,
            job.cosim.oneq_cycles,
            job.cosim.serialization_cycles,
            100.0 * util,
        );
    }
    digiq_bench::rule(96);
}

fn print_diff(report: &CosimSweepReport) -> bool {
    println!("differential validation (cosim − analytic):");
    digiq_bench::rule(96);
    println!(
        "{:22} | {:>8} | {:>4} | {:>7} | {:>7} | {:>6} | {:>12} | {:>6}",
        "design", "bench", "seed", "Δ1q", "Δser", "Δslots", "rel ns err", "exact"
    );
    digiq_bench::rule(96);
    let mut all_exact = true;
    for job in &report.jobs {
        let d = job.diff();
        let exact = d.is_exact(NS_TOLERANCE);
        all_exact &= exact;
        println!(
            "{:22} | {:>8} | {:>4} | {:>7} | {:>7} | {:>6} | {:>12.2e} | {:>6}",
            job.design.to_string(),
            job.benchmark,
            job.seed,
            d.oneq_delta,
            d.serialization_delta,
            d.slots_delta,
            d.total_rel_err,
            if exact { "yes" } else { "NO" },
        );
    }
    digiq_bench::rule(96);
    all_exact
}

fn trace_demo() {
    let grid = Grid::new(4, 4);
    let mut c = qcircuit::ir::Circuit::new(16);
    for q in 0..16 {
        c.ry(q, 0.1 + 0.05 * q as f64);
    }
    c.cz(0, 1);
    let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &c, &grid);
    let groups = checkerboard_groups(4, 16, 2);
    let mut params = ExecParams::new(SystemConfig::paper_default(
        ControllerDesign::DigiqOpt { bs: 2 },
        2,
    ));
    params.config.n_qubits = 16;
    let report = simulate(&c, &slots, &groups, &CosimParams::new(params).with_trace());
    println!(
        "trace demo: DigiQ_opt(BS=2), 16 rotations + 1 CZ, {} cycles of 1q work, {} lost to contention",
        report.oneq_cycles, report.serialization_cycles
    );
    digiq_bench::rule(72);
    println!(
        "{:>9} | {:>4} | {:>5} | {:>5} | {:>9} | {:>6}",
        "tick", "slot", "group", "qubit", "kind", "detail"
    );
    digiq_bench::rule(72);
    for e in report.trace.iter().take(40) {
        let qubit = e.qubit.map(|q| q.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "{:>9} | {:>4} | {:>5} | {:>5} | {:>9} | {:>6}",
            e.tick,
            e.slot,
            e.group,
            qubit,
            e.kind.name(),
            e.detail
        );
    }
    if report.trace.len() > 40 {
        println!("… {} more events", report.trace.len() - 40);
    }
    digiq_bench::rule(72);
}

fn main() {
    let args = CommonArgs::parse_for(
        "cosim",
        &[
            (
                "--trace",
                "co-simulate one small workload with the per-cycle trace and exit",
            ),
            (
                "--diff-analytic",
                "print per-job divergence, verify worker-count byte-identity, exit non-zero on drift",
            ),
        ],
        default_workers(),
    );
    if args.flag("--trace") {
        trace_demo();
        return;
    }
    let (smoke, workers) = (args.smoke, args.workers);
    let spec = spec_for_mode(smoke, args.full, args.seeds).with_pipeline(args.pipeline);

    let engine = args.engine();
    let report = engine.run_cosim(&spec, workers);
    args.report_store_stats(&engine);

    if smoke || args.json {
        println!("{}", report.to_json_string());
        if smoke {
            return; // the golden check diffs pure JSON output
        }
    } else {
        print_table(&report);
        let (hits, misses) = engine.cosim_cache_stats();
        println!("cosim cache: {misses} simulated, {hits} reused");
        for p in &engine.pass_cache_stats().passes {
            println!(
                "pipeline pass {:12} {} gates in, {} out ({})",
                p.pass,
                p.gates_in,
                p.gates_out,
                digiq_bench::timing::fmt_ns(p.wall_ns)
            );
        }
    }

    if args.flag("--diff-analytic") {
        // In --json mode stdout stays pure JSON; validation chatter goes
        // to stderr, and the exit code still reports divergence.
        let quiet = args.json;
        let all_exact = if quiet {
            report.jobs.iter().all(|r| r.diff().is_exact(NS_TOLERANCE))
        } else {
            print_diff(&report)
        };

        // Worker-count invariance: a fresh single-worker engine must
        // serialize the byte-identical report.
        let serial = EvalEngine::new(CostModel::default()).run_cosim(&spec, 1);
        let a = report.to_json_string();
        let b = serial.to_json_string();
        assert_eq!(
            a, b,
            "worker count changed the serialized co-simulation report"
        );
        let say = |msg: String| {
            if quiet {
                eprintln!("{msg}");
            } else {
                println!("{msg}");
            }
        };
        say(format!(
            "report byte-identical across worker counts ({} bytes, {} vs 1 workers)",
            a.len(),
            workers
        ));

        if all_exact {
            say(format!(
                "zero cycle-count divergence across {} jobs (ns totals within {NS_TOLERANCE:.0e} relative)",
                report.jobs.len()
            ));
        } else {
            eprintln!("cycle-count divergence detected — the co-simulator and the analytic model disagree");
            std::process::exit(1);
        }
    }
}
