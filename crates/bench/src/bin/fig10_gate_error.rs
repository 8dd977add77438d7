//! Regenerates Fig 10: (a) median single-qubit gate error per qubit for
//! DigiQ_opt(BS=8) and DigiQ_min(BS=2); (b) CZ error per coupler.
//!
//! Default: 64 qubits with coupler stride 4 (minutes). `--full`: all
//! 1,024 qubits / 1,984 couplers (much longer). `--workers N` sets the
//! error model's per-qubit/per-coupler worker pool (default: all cores,
//! matching the evaluation engine's sharding; flags parsed by
//! `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use digiq_core::error_model::{calibrate_shared, fig10a, fig10b, ErrorModelConfig};

fn main() {
    let args = CommonArgs::parse_for("fig10_gate_error", &[], default_workers());
    let full = args.full;
    let mut config = if full {
        ErrorModelConfig::default()
    } else {
        let mut c = ErrorModelConfig::small(64);
        c.grid_cols = 8;
        c
    };
    config.threads = args.workers;
    eprintln!("calibrating shared bitstreams…");
    let shared = calibrate_shared(&config);
    eprintln!(
        "evaluating per-qubit errors ({} qubits, {} workers)…",
        config.n_qubits, config.threads
    );
    let rows = fig10a(&config, &shared);
    println!("# Fig 10a: qubit drift(GHz) opt_median min_median");
    for r in &rows {
        println!(
            "A {:4} {:+.5} {:.3e} {:.3e}",
            r.qubit, r.drift_ghz, r.opt_median, r.min_median
        );
    }
    let med = |f: &dyn Fn(&digiq_core::error_model::QubitErrorRow) -> f64| {
        let mut v: Vec<f64> = rows.iter().map(f).collect();
        v.sort_by(|a, b| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
        v[v.len() / 2]
    };
    eprintln!(
        "medians: opt {:.2e}, min {:.2e} (paper band ~1e-4..1e-3 with outliers)",
        med(&|r| r.opt_median),
        med(&|r| r.min_median)
    );

    let oneq: Vec<f64> = rows.iter().map(|r| r.opt_median).collect();
    let stride = if full { 1 } else { 4 };
    eprintln!("evaluating CZ errors (stride {stride})…");
    let czs = fig10b(&config, &oneq, stride);
    println!("# Fig 10b: coupler qa qb cz_error");
    for c in &czs {
        println!(
            "B {:4} {:4} {:4} {:.3e}",
            c.coupler, c.qubits.0, c.qubits.1, c.cz_error
        );
    }
    let over = czs.iter().filter(|c| c.cz_error > 0.002).count();
    eprintln!(
        "CZ error > 0.002 on {over}/{} couplers (paper: 3–7% with calibration, 84% without)",
        czs.len()
    );
}
