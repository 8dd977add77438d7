//! The DigiQ workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_sweep|fig10_error|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload derives all of its inputs from `--seed` through
//! `qsim::rng`; the crates under test receive only the generated specs
//! and configs. Load comes from this one process with at most `nproc`
//! worker threads or client connections. Every run checks its outputs,
//! prints a `{"report": …}` line (host block, digests, sample counts),
//! and ends with one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Every run prints every metric of its kind;
//! a per-layer metric a workload's traced run never observes reads 0.
//!
//! # Why each workload exists
//!
//! * `fig9_sweep` — the cold design-space sweep architects run: the
//!   paper-scale Fig 9 spec (5 designs × all 6 Table IV benchmarks on
//!   the 32×32 grid, 2 drift seeds) on a fresh engine per round. Its
//!   time is in `core::exec` and the `qcircuit` passes, some in
//!   `calib::min_decomp`; none in `qsim` numerics or `serve`.
//! * `fig10_error` — the 64-qubit Fig 10 error model (shared
//!   calibration, Fig 10a, Fig 10b at coupler stride 4). All `calib`
//!   and `qsim` numerics; it never touches compile, exec, the store or
//!   serve, so optimising those must leave it unchanged.
//! * `serve_mix` — a closed loop of one client against an in-process
//!   `digiq-serve` (`nproc` eval workers) whose store persists to a fresh
//!   cache dir: ~70% repeats of a primed hot set, ~15% fresh analytic
//!   sweeps (half synthesizing hardware), ~15% fresh co-simulations. The
//!   client parses every reply, and a request's latency includes the
//!   parse. The only workload for the serve protocol and queue, the
//!   store's disk path, `core::cosim` and `sfq_hw` synthesis (with one
//!   client in flight nothing coalesces: `core.store.coalesced` reads 0).
//!   The median request is a memo hit; the tail request is a fresh
//!   evaluation.
//!
//! # End-to-end metrics (untraced runs)
//!
//! `ops_per_s` (jobs, qubits or requests per second; the median round
//! rate on the batch workloads), `latency_p50_ms` and `latency_p99_ms`
//! (per request; per round on the batch workloads, whose few rounds fall
//! back to the highest percentile with ten samples beyond it, or the
//! median — see [`stats::tail`]), `ok_frac` (1 − failed/attempted, the
//! complement of a failed fraction, so that a healthy run reads 1, not
//! 0: Busy, Error, Draining, I/O errors and digest mismatches all fail),
//! `setup_s` (median of the set-up repetitions, the first measured from
//! process start) and `peak_rss_mb` (`VmHWM`, with glibc's malloc held
//! to one arena — see [`single_malloc_arena`]).
//!
//! # Layer → metric map (traced runs)
//!
//! | workload | per-layer metric | should move |
//! |---|---|---|
//! | fig9_sweep | `qcircuit.bench.ms`, `qcircuit.pipeline.ms`, `qcircuit.pass.{lower,route,lower_swaps,schedule}.ms`, `qcircuit.pass.route.swaps_added`, `qcircuit.pass.schedule.slots_out` | `ops_per_s` |
//! | fig9_sweep | `calib.min_decomp.ms` | `ops_per_s` |
//! | fig9_sweep | `core.exec.ms`, `core.exec.calls`, `core.exec.gates` (the largest share) | `ops_per_s` |
//! | fig9_sweep | `core.store.hits`, `core.store.misses` | `ops_per_s` |
//! | fig10_error | `core.error_model.calibrate_shared.ms`, `calib.bitstream.basis_op.ms` | `ops_per_s` |
//! | fig10_error | `calib.opt_decomp.{tables,decompose}.ms`, `calib.opt_decomp.decompose.calls` | `ops_per_s` |
//! | fig10_error | `calib.min_decomp.{db,decompose}.ms` | `ops_per_s` |
//! | fig10_error | `calib.cz.{shared_pulse,uqq,error}.ms`, `qsim.flops`, `qsim.allocs` | `ops_per_s` |
//! | serve_mix | `serve.repeat.p50_ms` (wire + store hit path + client parse), `serve.repeat.parse.p50_ms` (the client parse alone) | `latency_p50_ms` |
//! | serve_mix | `serve.fresh_sweep.p50_ms`, `serve.fresh_cosim.p50_ms` | `latency_p99_ms`, `ops_per_s` |
//! | serve_mix | `core.store.{hits,builds,coalesced,hit_ratio}` | `latency_p50_ms` |
//! | serve_mix | `core.store.resident` | `peak_rss_mb` |
//! | serve_mix | `serve.busy` | `ok_frac` |
//!
//! Every workload also reports `unattributed.ms` (round wall time no
//! named span covers), `span_coverage` (the covered share; the batch
//! traced runs must reach 0.95) and `trace.wall.ms`. The batch workloads
//! alternate untraced and traced rounds and report `trace.overhead.ms`,
//! traced minus untraced round wall time, the cost of tracing. On
//! `serve_mix` a round is one request: spans are the client-side round
//! trips by request kind, the traced loop is the untraced one, and the
//! overhead reads 0.

mod batch;
mod fig10;
mod fig9;
mod serve_mix;
mod stats;
mod trace;

use sfq_hw::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("qcircuit.bench.ms", "ms"),
    ("qcircuit.pipeline.ms", "ms"),
    ("qcircuit.pass.lower.ms", "ms"),
    ("qcircuit.pass.route.ms", "ms"),
    ("qcircuit.pass.lower_swaps.ms", "ms"),
    ("qcircuit.pass.schedule.ms", "ms"),
    ("qcircuit.pass.route.swaps_added", "count"),
    ("qcircuit.pass.schedule.slots_out", "count"),
    ("calib.min_decomp.ms", "ms"),
    ("core.exec.ms", "ms"),
    ("core.exec.calls", "count"),
    ("core.exec.gates", "count"),
    ("core.store.hits", "count"),
    ("core.store.misses", "count"),
    ("core.error_model.calibrate_shared.ms", "ms"),
    ("calib.bitstream.basis_op.ms", "ms"),
    ("calib.opt_decomp.tables.ms", "ms"),
    ("calib.opt_decomp.decompose.ms", "ms"),
    ("calib.opt_decomp.decompose.calls", "count"),
    ("calib.min_decomp.db.ms", "ms"),
    ("calib.min_decomp.decompose.ms", "ms"),
    ("calib.cz.shared_pulse.ms", "ms"),
    ("calib.cz.uqq.ms", "ms"),
    ("calib.cz.error.ms", "ms"),
    ("qsim.flops", "count"),
    ("qsim.allocs", "count"),
    ("serve.repeat.p50_ms", "ms"),
    ("serve.repeat.parse.p50_ms", "ms"),
    ("serve.fresh_sweep.p50_ms", "ms"),
    ("serve.fresh_cosim.p50_ms", "ms"),
    ("core.store.builds", "count"),
    ("core.store.coalesced", "count"),
    ("core.store.hit_ratio", "ratio"),
    ("core.store.resident", "count"),
    ("serve.busy", "count"),
    ("unattributed.ms", "ms"),
    ("trace.wall.ms", "ms"),
    ("trace.overhead.ms", "ms"),
    ("span_coverage", "ratio"),
];

/// What a workload run hands back: correctness accounting, its metrics
/// and free-form report context.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    pub info: Vec<(String, Json)>,
    pub errors: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            info: Vec::new(),
            errors: Vec::new(),
        }
    }
}

impl Outcome {
    /// Marks the run incorrect, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn info(&mut self, name: &str, v: impl ToJson) {
        self.info.push((name.to_string(), v.to_json()));
    }

    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.to_string(), v);
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["fig9_sweep", "fig10_error", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `nproc`: the worker-thread and client-connection budget.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `key: value` field of a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall times are comparable only between records of the same host.
fn host_block(workers: usize, clients: usize) -> Json {
    Json::obj([
        ("available_parallelism", nproc().to_json()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string())
                .to_json(),
        ),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_json()),
        ("target_cpu", env!("PERFBENCH_TARGET_CPU").to_json()),
        ("workers", workers.to_json()),
        ("clients", clients.to_json()),
    ])
}

fn metric_map(names: &[(&str, &str)], values: &BTreeMap<String, f64>) -> Json {
    Json::obj(names.iter().map(|&(name, unit)| {
        let v = values.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([("value", v.to_json()), ("unit", unit.to_json())]),
        )
    }))
}

/// Limits glibc's malloc to one arena for the whole process. By default
/// glibc hands threads that contend for the allocator arenas of their
/// own; which arenas a run's threads land in, and how fragmented each
/// gets, varies from run to run, so `peak_rss_mb` measured the allocator
/// more than the program (fig9_sweep read 86–128 MB over five runs of
/// the same code, 70 MB ± 0.4% with one arena, at the same throughput).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` in glibc's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's documented tuning entry point; it
    // takes two integers by value and touches no memory of ours. It runs
    // first thing in `main`, before this program starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: perfbench --workload fig9_sweep|fig10_error|serve_mix \
             --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let workers = nproc();
    let (mut out, clients) = match args.workload.as_str() {
        "fig9_sweep" => (
            fig9::run(start, args.seed, args.seconds, args.trace, workers),
            0,
        ),
        "fig10_error" => (
            fig10::run(start, args.seed, args.seconds, args.trace, workers),
            0,
        ),
        _ => (
            serve_mix::run(start, args.seed, args.seconds, args.trace, workers),
            serve_mix::CLIENTS,
        ),
    };
    let attempted = out.attempted.max(1);
    out.e2e(
        "ok_frac",
        1.0 - out.failed.min(attempted) as f64 / attempted as f64,
    );
    out.e2e("peak_rss_mb", peak_rss_mb());
    let metrics = if args.trace {
        metric_map(&PER_LAYER, &out.layers)
    } else {
        metric_map(&END_TO_END, &out.e2e)
    };
    let report = Json::obj([
        ("workload", args.workload.to_json()),
        ("seed", args.seed.to_json()),
        ("trace", args.trace.to_json()),
        ("host", host_block(workers, clients)),
        ("info", Json::Obj(out.info.clone())),
        ("errors", out.errors.to_json()),
    ]);
    println!("{}", Json::obj([("report", report)]).render());
    println!(
        "{}",
        Json::obj([
            ("correct", out.correct.to_json()),
            ("attempted", attempted.to_json()),
            ("failed", out.failed.to_json()),
            ("metrics", metrics),
        ])
        .render()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload fig9_sweep --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fig9_sweep".to_string(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve_mix --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve_mix --seed 1 --seconds 1 --trace 2")).is_err());
    }

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(items)) = j.get(key) else {
                panic!("BENCHMARK.json lacks `{key}`")
            };
            let named: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    (
                        m.str_field("name", key).unwrap().to_string(),
                        m.str_field("unit", key).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(named, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
