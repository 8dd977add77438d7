//! End-to-end benchmark recorder: whole-system rows for the committed
//! `BENCH_<date>.json` trajectory, one tier above the kernel
//! micro-benchmarks.
//!
//! The micro-kernel gate (`benches/kernels.rs`) catches hot-loop churn;
//! these rows catch regressions that only show up when the layers
//! compose — store coalescing, pipeline workspace reuse across thousands
//! of jobs, worker sharding. Three in-process workloads plus one
//! over-the-wire round:
//!
//! * `sweep_cold_full` — a cold `sweep --full` (the five Fig 9
//!   configurations × all six Table IV benchmarks, paper-scale 32×32
//!   grid) on a fresh engine;
//! * `fig7_paper` — shared-pulse calibration plus all three paper-scale
//!   Fig 7 panels (5×5 drift grid, 3 Uqq echo depths);
//! * `fig10_64q` — the bounded Fig 10 error model (64 qubits, coupler
//!   stride 4): shared-bitstream calibration, per-qubit 1q medians, CZ
//!   couplers;
//! * `serve_loadgen` — a serve daemon plus one loadgen round over
//!   localhost TCP (sibling binaries next to this one; skipped with a
//!   note when they are not built).
//!
//! Every row records `wall_ns` plus a `checks` object of deterministic
//! fields (job counts, FNV-1a digests of the numeric output).
//! `--json-out FILE` writes the row array (what `scripts/ci.sh
//! --bench-e2e` and `bench_record` embed under `"e2e"`), and `--compare
//! FILE` diffs against a committed record's `"e2e"` section through
//! `digiq_bench::record` with the gate `record::checks_gate`: any
//! `checks` mismatch is a hard failure (exit 1) — the outputs are seeded
//! and sharding-order-independent, so any drift is a real behaviour
//! change — while wall time only warns (CI timing is noisy). Records
//! that predate the e2e section pass with a note, and a fresh record
//! picks up the gate from there.
//!
//! Sizes are bounded so the whole set finishes in well under a minute of
//! compute on a single-CPU container (the fig10 row dominates).

use digiq_bench::cli::CommonArgs;
use digiq_bench::record::{self, RecordRow};
use digiq_core::engine::{default_workers, par_map_ordered, EvalEngine, SweepSpec};
use digiq_core::error_model::{calibrate_shared, fig10a, fig10b, ErrorModelConfig};
use sfq_hw::cost::CostModel;
use sfq_hw::json::{Json, ToJson};
use std::io::BufRead;
use std::process::{Child, Command};
use std::time::Instant;

/// One end-to-end row: wall time (warn-only in compares) plus the
/// deterministic `checks` fields (hard-fail) and free-form `info`
/// context (never compared).
struct Row {
    name: &'static str,
    wall_ns: f64,
    checks: Vec<(String, Json)>,
    info: Vec<(String, Json)>,
}

impl RecordRow for Row {
    fn name(&self) -> &str {
        self.name
    }

    fn wall_ns(&self) -> f64 {
        self.wall_ns
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("wall_ns", self.wall_ns.to_json()),
            ("checks", Json::Obj(self.checks.clone())),
            ("info", Json::Obj(self.info.clone())),
        ])
    }
}

/// 64-bit FNV-1a — the digest that pins a workload's full numeric output
/// into one comparable field (any drift anywhere flips it).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
    fn push_f64(&mut self, v: f64) {
        self.update(&v.to_bits().to_le_bytes());
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Cold paper-scale sweep: [`SweepSpec::fig9_paper`] (the `sweep
/// --full` spec) on a fresh engine. The serialized report is digested
/// whole — it is byte-identical across worker counts by the engine's
/// merge-order contract, so the digest is scheduling-independent.
fn sweep_cold_full(workers: usize) -> Row {
    let spec = SweepSpec::fig9_paper();
    let (report, wall_ns) = timed(|| EvalEngine::new(CostModel::default()).run(&spec, workers));
    let mut d = Fnv64::new();
    d.update(report.to_json_string().as_bytes());
    Row {
        name: "sweep_cold_full",
        wall_ns,
        checks: vec![
            ("jobs".to_string(), report.jobs.len().to_json()),
            ("report_digest".to_string(), d.hex().to_json()),
        ],
        info: vec![("workers".to_string(), workers.to_json())],
    }
}

/// Paper-scale Fig 7: shared-pulse calibration plus the three echo
/// panels on the 5×5 drift grid, sharded like the figure binary.
fn fig7_paper(workers: usize) -> Row {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let panels: Vec<usize> = (1..=3).collect();
    let ((pulse, results), wall_ns) = timed(|| {
        let pulse = calib::cz::calibrate_shared_pulse(&pair, 4.0, 0.25);
        let results = par_map_ordered(&panels, workers.min(panels.len()), |_, &n| {
            calib::cz::fig7_panel(&pair, &pulse, n, 0.006, 5, 3)
        });
        (pulse, results)
    });
    let mut d = Fnv64::new();
    d.push_f64(pulse.nominal_error);
    let mut points = 0u64;
    for p in results.iter().flatten() {
        d.push_f64(p.drift1_ghz);
        d.push_f64(p.drift2_ghz);
        d.push_f64(p.error);
        points += 1;
    }
    Row {
        name: "fig7_paper",
        wall_ns,
        checks: vec![
            ("points".to_string(), points.to_json()),
            ("error_digest".to_string(), d.hex().to_json()),
        ],
        info: vec![("workers".to_string(), workers.to_json())],
    }
}

/// Bounded Fig 10 error model: 64 qubits on an 8-column grid, CZ
/// couplers at stride 4 (the figure binary's default mode).
fn fig10_64q(workers: usize) -> Row {
    let mut config = ErrorModelConfig::small(64);
    config.grid_cols = 8;
    config.threads = workers;
    let ((rows, czs), wall_ns) = timed(|| {
        let shared = calibrate_shared(&config);
        let rows = fig10a(&config, &shared);
        let oneq: Vec<f64> = rows.iter().map(|r| r.opt_median).collect();
        let czs = fig10b(&config, &oneq, 4);
        (rows, czs)
    });
    let mut d = Fnv64::new();
    for r in &rows {
        d.push_f64(r.opt_median);
        d.push_f64(r.min_median);
    }
    for c in &czs {
        d.push_f64(c.cz_error);
    }
    Row {
        name: "fig10_64q",
        wall_ns,
        checks: vec![
            ("qubits".to_string(), rows.len().to_json()),
            ("couplers".to_string(), czs.len().to_json()),
            ("error_digest".to_string(), d.hex().to_json()),
        ],
        info: vec![("workers".to_string(), workers.to_json())],
    }
}

/// One serve+loadgen round over localhost TCP: 4 clients × 2 requests
/// (cold wave builds, warm wave replays the coalesced artifacts). The
/// sibling binaries live next to this one in `target/release`; when they
/// are not built the row is skipped with a note rather than failing —
/// the in-process rows still gate.
fn serve_loadgen() -> Option<Row> {
    let dir = std::env::current_exe().ok()?.parent()?.to_path_buf();
    let (serve, loadgen) = (dir.join("serve"), dir.join("loadgen"));
    if !serve.exists() || !loadgen.exists() {
        eprintln!(
            "note: skipping serve_loadgen row ({} not built; run `cargo build --release -p digiq-serve`)",
            if serve.exists() { "loadgen" } else { "serve" }
        );
        return None;
    }
    let mut daemon = Command::new(&serve)
        .args(["--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| eprintln!("note: skipping serve_loadgen row (cannot spawn serve: {e})"))
        .ok()?;
    // Keep the stdout pipe open until the daemon exits — it prints a
    // drain message on shutdown, and closing the pipe early would turn
    // that into an EPIPE panic inside serve.
    let mut reader = daemon.stdout.take().map(std::io::BufReader::new);
    let mut addr = None;
    if let Some(r) = reader.as_mut() {
        let mut line = String::new();
        while r.read_line(&mut line).is_ok_and(|n| n > 0) {
            if let Some(a) = line.trim_end().strip_prefix("digiq-serve listening on ") {
                addr = Some(a.to_string());
                break;
            }
            line.clear();
        }
    }
    let Some(addr) = addr else {
        eprintln!("note: skipping serve_loadgen row (serve never printed its address)");
        let _ = daemon.kill();
        return None;
    };
    let (output, wall_ns) = timed(|| {
        Command::new(&loadgen)
            .args(["--addr", &addr, "--clients", "4", "--requests", "2"])
            .args(["--json", "--shutdown"])
            .output()
    });
    reap_daemon(
        &mut daemon,
        output.as_ref().is_ok_and(|o| o.status.success()),
    );
    drop(reader);
    let output = output
        .map_err(|e| eprintln!("note: skipping serve_loadgen row (cannot run loadgen: {e})"))
        .ok()?;
    if !output.status.success() {
        eprintln!("note: skipping serve_loadgen row (loadgen failed)");
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let j = Json::parse(text.trim())
        .map_err(|e| eprintln!("note: skipping serve_loadgen row (bad loadgen JSON: {e:?})"))
        .ok()?;
    let wave = |name: &str, field: &str| {
        j.get(name)
            .and_then(|w| w.num_field(field, "wave").ok())
            .unwrap_or(f64::NAN)
    };
    Some(Row {
        name: "serve_loadgen",
        wall_ns,
        checks: vec![
            (
                "requests".to_string(),
                ((j.count_field("clients", "loadgen").unwrap_or(0))
                    * (j.count_field("requests_per_client", "loadgen").unwrap_or(0)))
                .to_json(),
            ),
            (
                "mode".to_string(),
                j.str_field("mode", "loadgen").unwrap_or("?").to_json(),
            ),
        ],
        info: vec![
            (
                "cold_req_per_s".to_string(),
                wave("cold", "req_per_s").to_json(),
            ),
            (
                "warm_req_per_s".to_string(),
                wave("warm", "req_per_s").to_json(),
            ),
            ("warm_p99_ns".to_string(), wave("warm", "p99_ns").to_json()),
        ],
    })
}

/// Waits for the serve daemon after its loadgen round. Loadgen drains
/// the daemon (`--shutdown`) only when it runs to the end, so after a
/// loadgen that failed to spawn, exited early or panicked, the daemon is
/// killed first: waiting on a daemon nobody shut down never returns.
fn reap_daemon(daemon: &mut Child, loadgen_ok: bool) {
    if !loadgen_ok {
        let _ = daemon.kill();
    }
    let _ = daemon.wait();
}

fn main() {
    let args = CommonArgs::parse_for(
        "e2e",
        &[
            ("--json-out FILE", "write the fresh rows to FILE"),
            ("--compare FILE", "gate the rows on a committed record"),
            ("--skip-serve", "leave out the serve_loadgen row"),
        ],
        default_workers(),
    );
    let workers = args.workers;
    let mut rows = Vec::new();
    for (name, run) in [
        ("sweep_cold_full", sweep_cold_full as fn(usize) -> Row),
        ("fig7_paper", fig7_paper),
        ("fig10_64q", fig10_64q),
    ] {
        eprintln!("e2e: {name}…");
        rows.push(run(workers));
    }
    if args.flag("--skip-serve") {
        eprintln!("e2e: serve_loadgen skipped (--skip-serve)");
    } else {
        eprintln!("e2e: serve_loadgen…");
        rows.extend(serve_loadgen());
    }
    println!("\n{:<18} {:>12}  checks", "row", "wall");
    for row in &rows {
        let checks: Vec<String> = row
            .checks
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        println!(
            "{:<18} {:>12}  {}",
            row.name,
            digiq_bench::timing::fmt_ns(row.wall_ns),
            checks.join(" ")
        );
    }
    record::finish(&rows, &record::E2E, &args, |row, base| {
        record::checks_gate(&row.checks, base)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn failed_loadgen_never_hangs_on_the_daemon() {
        // A daemon that never exits by itself, as after a loadgen that
        // died before sending `Shutdown`. The reap runs on its own thread
        // so a regression fails here in bounded time instead of hanging.
        let mut daemon = Command::new("sleep").arg("600").spawn().unwrap();
        let pid = daemon.id();
        let (tx, rx) = mpsc::channel();
        let reaper = std::thread::spawn(move || {
            reap_daemon(&mut daemon, false);
            let _ = tx.send(());
        });
        let hung = rx.recv_timeout(Duration::from_secs(30)).is_err();
        if hung {
            // Unblock the reaper so it can be joined.
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        reaper.join().unwrap();
        assert!(
            !hung,
            "reap_daemon blocked on a daemon that loadgen never shut down"
        );
    }
}
