//! Regenerates Fig 9: execution time of the Table IV benchmarks on each
//! DigiQ configuration, normalized to the Impossible MIMD baseline.
//!
//! Driven by the batched evaluation engine: the 5 × 6 job matrix is
//! sharded over `--workers` threads (default: all cores) and every
//! shared artifact — compiled circuits, sequence databases — is built
//! once in the engine's artifact store, so each benchmark compiles a
//! single time for all five designs. Default runs the full paper-scale
//! benchmarks on the 32×32 grid (release build recommended); `--small`
//! runs reduced instances on an 8×8 grid in seconds. With `--cache-dir`
//! the compiles and baselines persist, so a second run (or a
//! preceding `sweep --cache-dir` over the same benchmarks) warm-starts
//! with zero pass builds.

use digiq_bench::cli::CommonArgs;
use digiq_core::engine::{default_workers, SweepSpec};
use qcircuit::bench::ALL_BENCHMARKS;

fn main() {
    let args = CommonArgs::parse_for("fig9_exec_time", &[], default_workers());
    let (small, workers) = (args.small, args.workers);
    let spec = if small {
        SweepSpec::small_grid(SweepSpec::fig9_designs(), &ALL_BENCHMARKS, 8, 8)
    } else {
        SweepSpec::fig9_paper()
    }
    .with_pipeline(args.pipeline);
    let (rows, cols) = (spec.grid_rows, spec.grid_cols);

    let engine = args.engine();
    let report = engine.run(&spec, workers);

    println!(
        "Fig 9: execution time normalized to Impossible MIMD ({} qubits, {rows}x{cols} grid)",
        rows * cols
    );
    digiq_bench::rule(96);
    print!("{:18}", "design");
    for b in ALL_BENCHMARKS {
        print!(" | {:>9}", b.name());
    }
    println!();
    digiq_bench::rule(96);
    // Jobs are design-major in benchmark order: one table row per design.
    for design_row in report.jobs.chunks(ALL_BENCHMARKS.len()) {
        print!("{:18}", design_row[0].design.to_string());
        for job in design_row {
            print!(" | {:>9.2}", job.report.normalized_time);
        }
        println!();
    }
    println!();
    println!(
        "engine: {workers} workers, {} artifacts built, {} reused",
        report.cache.total_misses(),
        report.cache.total_hits()
    );
    // The compile flow is design-independent: each benchmark compiles
    // once (one store entry) and the other four designs reuse it.
    println!(
        "  compiles: {} built, {} reused across the design axis",
        report.cache.compile_misses, report.cache.compile_hits
    );
    for p in &engine.pass_cache_stats().passes {
        println!(
            "  pass {:12} {} gates in, {} out ({})",
            p.pass,
            p.gates_in,
            p.gates_out,
            digiq_bench::timing::fmt_ns(p.wall_ns)
        );
    }
    println!("paper: DigiQ_opt(BS=16) 4.7–9.8x; DigiQ_min(BS=4) 11.0–14.4x; outliers up to 36.9x");
    args.report_store_stats(&engine);
}
