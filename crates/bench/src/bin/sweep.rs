//! The batched sweep driver: runs designs × benchmarks × seeds through
//! `digiq_core::engine`, sharded over worker threads with every shared
//! artifact memoized, and emits a deterministic `SweepReport`.
//!
//! Modes:
//!
//! * default / `--small` — the four Table I designs × {QGAN, Ising, BV}
//!   on an 8×8 grid;
//! * `--full` — the five Fig 9 configurations × all six Table IV
//!   benchmarks at paper scale (32×32 grid);
//! * `--smoke` — a tiny 2-design × 2-benchmark sweep on a 4×4 grid with
//!   2 workers, printing **only** the compact report JSON (the CI golden
//!   check diffs this byte-for-byte);
//! * `--compare-serial` — times the sweep on fresh engines with 1 worker
//!   and with `--workers` workers, verifies the two serialized reports
//!   are byte-identical, and prints the speedup;
//! * `--distributed` — spawns `--n-workers` child processes of this
//!   binary (each `--worker-id N`) that coordinate through claim files
//!   under the shared `--cache-dir`, then merges their shard journals
//!   into a report byte-identical to the serial run; `--merge` runs
//!   just the merge step over existing shards.
//!
//! `sweep --help` lists every flag (the `digiq_bench::cli` family plus
//! the extras declared in `main`). `--json` appends per-pass pipeline
//! metrics and store counters to the report JSON; under `--cache-dir` a
//! second run warm-starts with byte-identical JSON and zero pass builds
//! (store counters go to stderr), and `--interrupt-after N` is the
//! interruption hook behind the CI resume check.

use digiq_bench::cli::CommonArgs;
use digiq_core::engine::{
    default_workers, DistributedConfig, EvalEngine, PassCacheStats, RunControl, SweepReport,
    SweepSpec,
};
use digiq_core::store::{ArtifactStore, SweepJournal};
use qcircuit::bench::Benchmark;
use sfq_hw::cost::CostModel;
use sfq_hw::json::{Json, ToJson};
use std::path::Path;
use std::time::{Duration, Instant};

fn spec_for_mode(smoke: bool, full: bool, seeds: usize) -> SweepSpec {
    let spec = if smoke {
        // The shared constructor digiq-serve replays over the wire —
        // one definition, one golden.
        SweepSpec::smoke()
    } else if full {
        SweepSpec::fig9_paper()
    } else {
        SweepSpec::small_grid(
            SweepSpec::table_one_designs(),
            &[Benchmark::Qgan, Benchmark::Ising, Benchmark::Bv],
            8,
            8,
        )
    };
    spec.with_seeds((0..seeds.max(1) as u64).collect())
}

fn print_table(report: &SweepReport) {
    println!(
        "sweep: {} jobs on the {}x{} grid",
        report.jobs.len(),
        report.grid_rows,
        report.grid_cols
    );
    digiq_bench::rule(78);
    println!(
        "{:22} | {:>8} | {:>4} | {:>12} | {:>10}",
        "design", "bench", "seed", "total (ns)", "vs MIMD"
    );
    digiq_bench::rule(78);
    for job in &report.jobs {
        println!(
            "{:22} | {:>8} | {:>4} | {:>12.1} | {:>10.2}",
            job.design.to_string(),
            job.benchmark,
            job.seed,
            job.report.exec.total_ns,
            job.report.normalized_time
        );
    }
    digiq_bench::rule(78);
    let c = &report.cache;
    println!(
        "cache: {} artifacts built, {} reused (circuits {}+{}, compiles {}+{}, seq-dbs {}+{})",
        c.total_misses(),
        c.total_hits(),
        c.circuit_misses,
        c.circuit_hits,
        c.compile_misses,
        c.compile_hits,
        c.seq_db_misses,
        c.seq_db_hits,
    );
}

fn print_pass_stats(stats: &PassCacheStats) {
    println!("pipeline passes (build metrics, summed over compile misses):");
    println!(
        "{:12} | {:>10} | {:>9} | {:>9} | {:>6} | {:>6}",
        "pass", "wall", "gates in", "gates out", "swaps", "slots"
    );
    for p in &stats.passes {
        println!(
            "{:12} | {:>10} | {:>9} | {:>9} | {:>6} | {:>6}",
            p.pass,
            digiq_bench::timing::fmt_ns(p.wall_ns),
            p.gates_in,
            p.gates_out,
            p.swaps_added,
            p.slots_out,
        );
    }
}

/// The report JSON with the pipeline configuration, per-pass accounting
/// and store counters appended as extra top-level fields
/// (`SweepReport::parse` ignores unknown fields, so the result still
/// parses as a plain report). Recording the strategy selection keeps
/// archived reports reproducible — two runs under different pipelines
/// stay distinguishable.
fn json_with_pass_stats(
    report: &SweepReport,
    spec: &SweepSpec,
    stats: &PassCacheStats,
    engine: &EvalEngine,
) -> String {
    let mut j = report.to_json();
    if let Json::Obj(fields) = &mut j {
        fields.push((
            "pipeline".to_string(),
            Json::obj([
                ("router", spec.pipeline.router.name().to_json()),
                ("scheduler", spec.pipeline.scheduler.name().to_json()),
                ("fuse", spec.pipeline.fuse.to_json()),
            ]),
        ));
        fields.push(("pass_cache".to_string(), stats.to_json()));
        fields.push(("store".to_string(), engine.store_stats().to_json()));
    }
    j.render()
}

fn main() {
    let args = CommonArgs::parse_for(
        "sweep",
        &[
            (
                "--compare-serial",
                "time fresh-engine serial vs parallel runs and verify byte-identity",
            ),
            (
                "--interrupt-after N",
                "stop after N fresh jobs (journal testing hook; needs --cache-dir)",
            ),
            (
                "--distributed",
                "spawn --n-workers worker processes over --cache-dir, wait, merge, print",
            ),
            (
                "--n-workers N",
                "worker process count for --distributed (default 4)",
            ),
            (
                "--worker-id N",
                "run as one distributed worker: claim jobs, stream a shard journal",
            ),
            (
                "--merge",
                "assemble the final report from a distributed sweep's shard journals",
            ),
            (
                "--claim-ttl-ms N",
                "stale-claim expiry for distributed workers (default 30000)",
            ),
            (
                "--dist-hold-ms N",
                "hold each claimed job N ms before evaluating (crash-testing hook)",
            ),
        ],
        default_workers(),
    );
    let (smoke, workers) = (args.smoke, args.workers);
    let spec = spec_for_mode(smoke, args.full, args.seeds).with_pipeline(args.pipeline);

    if args.flag("--compare-serial") {
        // The serial equivalent of the old hand-rolled loops: every job
        // rebuilds its artifacts from scratch (a fresh engine per job, so
        // nothing is shared — exactly what the per-figure binaries did
        // before the engine existed).
        let jobs = spec.jobs();
        let t0 = Instant::now();
        let naive: Vec<_> = jobs
            .iter()
            .map(|job| EvalEngine::new(CostModel::default()).run_job(&spec, job))
            .collect();
        let naive_ns = t0.elapsed().as_nanos() as f64;

        let t1 = Instant::now();
        let serial = EvalEngine::new(CostModel::default()).run(&spec, 1);
        let serial_ns = t1.elapsed().as_nanos() as f64;
        let t2 = Instant::now();
        let parallel = EvalEngine::new(CostModel::default()).run(&spec, workers);
        let parallel_ns = t2.elapsed().as_nanos() as f64;

        assert_eq!(naive, serial.jobs, "caching changed the results");
        let a = serial.to_json_string();
        let b = parallel.to_json_string();
        assert_eq!(a, b, "worker count changed the serialized report");
        println!(
            "serial, no sharing:    {}  (artifacts rebuilt per job)",
            digiq_bench::timing::fmt_ns(naive_ns)
        );
        println!(
            "engine, 1 worker:      {}",
            digiq_bench::timing::fmt_ns(serial_ns)
        );
        println!(
            "engine, {workers} workers:     {}",
            digiq_bench::timing::fmt_ns(parallel_ns)
        );
        println!(
            "engine speedup {:.2}x over the serial equivalent ({} jobs); \
             reports byte-identical across worker counts ({} bytes)",
            naive_ns / parallel_ns.max(1.0),
            spec.job_count(),
            a.len()
        );
        return;
    }

    let engine = args.engine();

    // Distributed modes, all anchored on one shared `--cache-dir`:
    // `--worker-id N` runs one claiming worker (normally spawned as a
    // child of `--distributed`), `--distributed` spawns `--n-workers`
    // such children and merges once they exit, and `--merge` assembles
    // a report from whatever shard journals are already on disk.
    let worker_id = args.count("--worker-id");
    let distributed = args.flag("--distributed");
    let merge_only = args.flag("--merge");

    let report = if worker_id.is_some() || distributed || merge_only {
        let Some(dir) = args.cache_dir.as_deref() else {
            eprintln!("error: distributed sweep modes need --cache-dir");
            std::process::exit(2);
        };
        let dir = Path::new(dir);
        let n_workers = args.count("--n-workers").unwrap_or(4).max(1);

        if let Some(id) = worker_id {
            // Worker process: claim → evaluate → shard-journal until the
            // whole sweep is journaled. Prints nothing to stdout — the
            // coordinator (or `--merge`) owns the report.
            let mut cfg = DistributedConfig::new(format!("w{id}"));
            cfg.scan_offset = id * spec.job_count() / n_workers;
            if let Some(ms) = args.count("--claim-ttl-ms") {
                cfg.claim_ttl = Duration::from_millis(ms as u64);
            }
            cfg.hold = args
                .count("--dist-hold-ms")
                .map(|ms| Duration::from_millis(ms as u64));
            if let Err(e) = engine.run_distributed(&spec, dir, &cfg, RunControl::default()) {
                eprintln!("error: worker w{id}: {e}");
                std::process::exit(1);
            }
            args.report_store_stats(&engine);
            return;
        }

        if distributed {
            // Coordinator: respawn this binary as N worker children
            // sharing the cache dir, forwarding our own flags (minus
            // `--distributed`) so mode/pipeline/ttl selections carry.
            let exe = std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("error: cannot locate the sweep binary: {e}");
                std::process::exit(1);
            });
            let forwarded = args.argv().iter().filter(|a| *a != "--distributed");
            let mut children = Vec::new();
            for id in 0..n_workers {
                let child = std::process::Command::new(&exe)
                    .args(forwarded.clone())
                    .args(["--worker-id", &id.to_string()])
                    .args(["--n-workers", &n_workers.to_string()])
                    .spawn()
                    .unwrap_or_else(|e| {
                        eprintln!("error: cannot spawn worker w{id}: {e}");
                        std::process::exit(1);
                    });
                children.push((id, child));
            }
            let mut failed = false;
            for (id, mut child) in children {
                let ok = child.wait().map(|s| s.success()).unwrap_or(false);
                if !ok {
                    eprintln!("error: worker w{id} exited with failure");
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
        }

        // Merge (runs for both the coordinator and `--merge`): assemble
        // the report from every shard journal under the cache dir. The
        // result is byte-identical to a serial in-process run.
        engine.merge_distributed(&spec, dir).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    } else {
        match &args.cache_dir {
            None => engine.run(&spec, workers),
            Some(dir) => {
                // Persistent mode: journal completed jobs under the cache
                // dir (keyed by the spec fingerprint) so `--resume` can skip
                // them, and report the deterministic cold-run cache
                // accounting so warm-started and resumed runs serialize
                // byte-identically to an uninterrupted one.
                let journal_dir = ArtifactStore::journal_dir(Path::new(dir));
                let journal =
                    SweepJournal::open(&journal_dir, spec.stable_key()).unwrap_or_else(|e| {
                        eprintln!("error: cannot open sweep journal under `{dir}`: {e}");
                        std::process::exit(1);
                    });
                let ctl = RunControl {
                    interrupt_after: args.count("--interrupt-after"),
                    stop: None,
                };
                match engine.run_journaled(&spec, workers, &journal, args.resume, ctl) {
                    Some(report) => report,
                    None => {
                        eprintln!(
                            "sweep interrupted after {} fresh job(s); journal at {} — \
                         rerun with --resume to finish",
                            ctl.interrupt_after.unwrap_or(0),
                            journal.path().display()
                        );
                        return;
                    }
                }
            }
        }
    };
    if smoke {
        // The CI golden check diffs this byte-for-byte: the plain report
        // only, nothing appended.
        println!("{}", report.to_json_string());
    } else if args.json {
        println!(
            "{}",
            json_with_pass_stats(&report, &spec, &engine.pass_cache_stats(), &engine)
        );
    } else {
        print_table(&report);
        print_pass_stats(&engine.pass_cache_stats());
    }
    args.report_store_stats(&engine);
}
