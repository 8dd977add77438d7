//! End-to-end benchmark recorder: whole-system rows for the committed
//! `BENCH_<date>.json` trajectory, one tier above the kernel
//! micro-benchmarks.
//!
//! The micro-kernel gate (`benches/kernels.rs`) catches hot-loop churn;
//! these rows catch regressions that only show up when the layers
//! compose — store coalescing, pipeline workspace reuse across thousands
//! of jobs, worker sharding. Three in-process workloads, the paper's
//! §VI evaluation at bench scale:
//!
//! * `sweep_cold_full` — a cold `sweep --full` (the five Fig 9
//!   configurations × all six Table IV benchmarks, paper-scale 32×32
//!   grid) on a fresh engine;
//! * `fig7_paper` — shared-pulse calibration plus all three paper-scale
//!   Fig 7 panels (5×5 drift grid, 3 Uqq echo depths);
//! * `fig10_64q` — the bounded Fig 10 error model (64 qubits, coupler
//!   stride 4): shared-bitstream calibration, per-qubit 1q medians, CZ
//!   couplers.
//!
//! The serve daemon is measured elsewhere: `scripts/ci.sh`'s
//! `bench_record` writes one loadgen round to the record's `loadgen`
//! section, and perfbench's `serve_mix` workload is the sustained load.
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
        let pulse = calib::cz::calibrate_shared_pulse_on(&pair, 4.0, 0.25, workers);
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

fn main() {
    let args = CommonArgs::parse_for(
        "e2e",
        &[
            ("--json-out FILE", "write the fresh rows to FILE"),
            ("--compare FILE", "gate the rows on a committed record"),
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
