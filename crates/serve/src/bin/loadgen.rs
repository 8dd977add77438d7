//! Load generator for the sweep service: N concurrent clients replaying
//! a request mix against a running `serve` daemon, reporting requests
//! per second and p50/p99 latency for a **cold** store (first wave,
//! artifacts built) and a **warm** one (second wave, everything
//! memoized). The warm wave only starts after every cold-wave thread
//! has joined, so its percentiles measure steady-state replay — no
//! request in the warm window can own (or wait on) the cold build.
//!
//! Historical note: records through `BENCH_2026-08-07_r3.json` show a
//! warm p99 near 87ms against a sub-ms p50. That was not the cold
//! build leaking into the warm window — it was Nagle's algorithm
//! colliding with delayed ACKs on the small request/response frames
//! (~40ms per stalled write, twice per round trip), fixed by
//! `TCP_NODELAY` on both ends plus single-buffer frame writes. The
//! steady-state invariant is pinned by `warm_replay_is_steady_state`
//! in `crates/serve/tests/service.rs`.
//!
//! Shared flags used: `--seeds K` scales the replayed sweep spec
//! (heavier specs widen the coalescing window), `--workers N` is the
//! per-request worker ask, `--json` emits the summary as JSON (what
//! `scripts/ci.sh --bench-json` records in `BENCH_<date>.json`). The CI
//! smoke's assertions are extras that `loadgen --help` lists.

use digiq_bench::cli::CommonArgs;
use digiq_bench::timing::{fmt_ns, percentile};
use digiq_core::engine::SweepSpec;
use digiq_serve::server::{NS_COSIM, NS_SWEEP};
use digiq_serve::{Client, EvalOutcome};
use sfq_hw::json::{Json, ToJson};
use std::sync::Barrier;
use std::time::{Duration, Instant};

struct WaveStats {
    total_ns: f64,
    latencies_ns: Vec<f64>,
}

impl WaveStats {
    fn req_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / (self.total_ns / 1e9).max(1e-12)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", self.latencies_ns.len().to_json()),
            ("req_per_s", self.req_per_s().to_json()),
            ("p50_ns", percentile(&self.latencies_ns, 50.0).to_json()),
            ("p99_ns", percentile(&self.latencies_ns, 99.0).to_json()),
            ("total_ns", self.total_ns.to_json()),
        ])
    }

    fn print(&self, label: &str) {
        println!(
            "{label:5} {:>7.2} req/s   p50 {:>12}   p99 {:>12}   ({} requests in {})",
            self.req_per_s(),
            fmt_ns(percentile(&self.latencies_ns, 50.0)),
            fmt_ns(percentile(&self.latencies_ns, 99.0)),
            self.latencies_ns.len(),
            fmt_ns(self.total_ns),
        );
    }
}

/// What every wave sends: `clients` connections to `addr`, each making
/// `requests` sequential evaluations of `spec`, every report checked
/// against `expect` when given.
#[derive(Clone, Copy)]
struct Load<'a> {
    addr: &'a str,
    spec: &'a SweepSpec,
    workers: usize,
    clients: usize,
    requests: usize,
    cosim: bool,
    expect: Option<&'a str>,
}

/// One wave of `load`: `clients` threads, each `requests` sequential
/// evaluations of the identical spec, released together once every
/// connection is up. Panics (exit non-zero) on any refused or failed request — the
/// smoke asserts clean service.
///
/// `stagger` delays client `c`'s first send by `c * stagger`: the
/// coalescing assertion uses a few milliseconds so later duplicates
/// land mid-build (a cold smoke evaluation runs tens of milliseconds)
/// instead of racing the first request's completion on a loaded box.
fn wave(load: &Load<'_>, stagger: Duration) -> WaveStats {
    let Load {
        addr,
        spec,
        workers,
        clients,
        requests,
        cosim,
        expect,
    } = *load;
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let ready = Barrier::new(clients);
    let ready = &ready;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr)
                        .unwrap_or_else(|e| panic!("client {c}: connect {addr}: {e}"));
                    ready.wait();
                    if c > 0 && !stagger.is_zero() {
                        std::thread::sleep(stagger * c as u32);
                    }
                    let mut lats = Vec::with_capacity(requests);
                    for r in 0..requests {
                        let t = Instant::now();
                        let outcome = if cosim {
                            client.cosim(spec, workers)
                        } else {
                            client.sweep(spec, workers)
                        }
                        .unwrap_or_else(|e| panic!("client {c} request {r}: {e}"));
                        lats.push(t.elapsed().as_nanos() as f64);
                        match outcome {
                            EvalOutcome::Report(text) => {
                                if let Some(golden) = expect {
                                    assert!(
                                        text == golden,
                                        "client {c} request {r}: response diverged from the golden \
                                         ({} vs {} bytes)",
                                        text.len(),
                                        golden.len()
                                    );
                                }
                            }
                            other => {
                                panic!("client {c} request {r}: expected a report, got {other:?}")
                            }
                        }
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
    });
    WaveStats {
        total_ns: t0.elapsed().as_nanos() as f64,
        latencies_ns: latencies,
    }
}

fn main() {
    let args = CommonArgs::parse_for(
        "loadgen",
        &[
            ("--addr HOST:PORT", "server address (required)"),
            ("--clients N", "concurrent client connections (default 4)"),
            ("--requests N", "sequential requests per client (default 2)"),
            (
                "--cosim",
                "replay co-simulation sweeps instead of analytic ones",
            ),
            (
                "--expect FILE",
                "assert every report byte-identical to FILE (a committed golden)",
            ),
            (
                "--assert-coalesced",
                "assert the duplicate concurrent requests coalesced onto one evaluation",
            ),
            (
                "--expect-interrupted",
                "assert the server answers Interrupted (drain smoke), then exit",
            ),
            ("--shutdown", "drain the server after the run"),
        ],
        2,
    );
    let Some(addr) = args.value("--addr") else {
        eprintln!("error: `--addr HOST:PORT` is required (the serve daemon prints its address)");
        std::process::exit(2);
    };
    let clients = args.count("--clients").unwrap_or(4);
    let requests = args.count("--requests").unwrap_or(2);
    let cosim = args.flag("--cosim");
    let spec = if cosim {
        SweepSpec::cosim_smoke()
    } else {
        SweepSpec::smoke()
    }
    .with_seeds((0..args.seeds.max(1) as u64).collect());

    if args.flag("--expect-interrupted") {
        let mut client = Client::connect(addr).unwrap_or_else(|e| {
            eprintln!("error: connect {addr}: {e}");
            std::process::exit(1);
        });
        let outcome = client.sweep(&spec, args.workers).unwrap_or_else(|e| {
            eprintln!("error: sweep request: {e}");
            std::process::exit(1);
        });
        assert_eq!(
            outcome,
            EvalOutcome::Interrupted,
            "expected the draining server to interrupt the journaled sweep"
        );
        println!("interrupted as expected (journaled partial progress on disk)");
        return;
    }

    let expect = args.value("--expect").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read golden `{path}`: {e}");
            std::process::exit(1);
        });
        // The CLI prints the report with a trailing newline; the wire
        // carries the bare bytes.
        text.strip_suffix('\n').unwrap_or(&text).to_string()
    });

    // Only the cold wave is staggered, and only when the coalescing
    // assertion is on — throughput waves send as fast as they can.
    let assert_coalesced = args.flag("--assert-coalesced");
    let stagger = if assert_coalesced {
        Duration::from_millis(5)
    } else {
        Duration::ZERO
    };
    let load = Load {
        addr,
        spec: &spec,
        workers: args.workers,
        clients,
        requests,
        cosim,
        expect: expect.as_deref(),
    };
    let cold = wave(&load, stagger);
    let warm = wave(&load, Duration::ZERO);

    let mut probe = Client::connect(addr).expect("stats connection");
    let stats = probe.stats().expect("stats request");
    let ns = stats
        .get(if cosim { NS_COSIM } else { NS_SWEEP })
        .cloned()
        .unwrap_or_default();

    if assert_coalesced {
        assert_eq!(
            ns.builds, 1,
            "identical requests must share one evaluation (saw {} builds)",
            ns.builds
        );
        assert!(
            ns.coalesced >= 1,
            "no request joined the in-flight evaluation (hits={}, coalesced={})",
            ns.hits,
            ns.coalesced
        );
    }

    if args.json {
        println!(
            "{}",
            Json::obj([
                ("clients", clients.to_json()),
                ("requests_per_client", requests.to_json()),
                ("seeds", args.seeds.to_json()),
                ("mode", if cosim { "cosim" } else { "sweep" }.to_json()),
                ("cold", cold.to_json()),
                ("warm", warm.to_json()),
                ("response_builds", ns.builds.to_json()),
                ("response_coalesced", ns.coalesced.to_json()),
            ])
            .render()
        );
    } else {
        println!(
            "loadgen: {clients} clients x {requests} requests ({} mode, {} jobs/request)",
            if cosim { "cosim" } else { "sweep" },
            spec.job_count(),
        );
        cold.print("cold");
        warm.print("warm");
        println!(
            "service evaluated once, reused {} times ({} coalesced onto the in-flight build)",
            ns.hits, ns.coalesced
        );
    }

    if args.flag("--shutdown") {
        let _ = probe.shutdown();
    }
}
