//! The sweep-service daemon.
//!
//! Binds a TCP listener, prints one `digiq-serve listening on ADDR`
//! line to stdout (scripts poll for it; port 0 resolves to the real
//! port), then serves until a shutdown request drains it.
//!
//! Inherits the `digiq_bench::cli` flag family: `--workers N` is the
//! per-sweep worker budget, and the store flags (`--cache-dir DIR`,
//! `--store-capacity N`) configure the shared artifact store — with a
//! cache dir, sweeps are journaled so a drain is resumable after
//! restart. `serve --help` lists the bespoke flags; a malformed one
//! exits 2 before the bind.

use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use digiq_serve::{serve, ServeConfig};
use std::io::Write;
use std::time::Duration;

fn main() {
    let args = CommonArgs::parse_for(
        "serve",
        &[
            (
                "--addr HOST:PORT",
                "bind address (default 127.0.0.1:0 — a free port)",
            ),
            (
                "--eval-workers N",
                "requests evaluated concurrently (default 2)",
            ),
            (
                "--queue-capacity N",
                "bound on queued requests; beyond it clients get Busy (default 16)",
            ),
            (
                "--drain-after N",
                "testing hook: drain after N evaluation responses",
            ),
            (
                "--interrupt-after N",
                "testing hook: journaled sweeps stop after N fresh jobs (needs --cache-dir)",
            ),
            (
                "--eval-delay-ms N",
                "testing hook: stretch fresh evaluations by N ms so coalescing checks are deterministic",
            ),
            (
                "--dist-claims-ttl-ms N",
                "run journaled sweeps through the distributed claim protocol (stale-claim TTL N ms; needs --cache-dir)",
            ),
        ],
        default_workers(),
    );
    let millis = |flag: &str| args.count(flag).map(|ms| Duration::from_millis(ms as u64));
    let cfg = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
        eval_workers: args.count("--eval-workers").unwrap_or(2),
        sweep_workers: args.workers,
        queue_capacity: args.count("--queue-capacity").unwrap_or(16),
        store: args.store_config(),
        drain_after: args.count("--drain-after").map(|n| n as u64),
        interrupt_after: args.count("--interrupt-after"),
        eval_delay: millis("--eval-delay-ms"),
        dist_claims_ttl: millis("--dist-claims-ttl-ms"),
    };
    let handle = serve(cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot bind: {e}");
        std::process::exit(1);
    });
    println!("digiq-serve listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    println!("digiq-serve drained");
}
