//! Regenerates Table II: optimal parking frequencies and drift tolerance
//! for delay-implemented Rz gates with error ≤ 1e-4 at N = 255.
//!
//! `--max-rows N` caps the ranked rows (default 3, the paper's count);
//! `--json` emits the rows via `sfq_hw::json`.
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use sfq_hw::json::{Json, ToJson};

fn main() {
    let args = CommonArgs::parse_for(
        "table2_parking",
        &[(
            "--max-rows N",
            "cap the ranked rows (default 3, the paper's count)",
        )],
        default_workers(),
    );
    let step = if args.full { 2.0e-5 } else { 1.0e-4 };
    let max_rows = args.count("--max-rows").unwrap_or(3);
    let rows = calib::parking::parking_search((4.0, 6.5), 0.040, 255, 1.0e-4, step, max_rows);
    if args.json {
        let json = Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("freq_ghz", r.freq_ghz.to_json()),
                        ("drift_tolerance_ghz", r.drift_tolerance_ghz.to_json()),
                        ("center_error", r.center_error.to_json()),
                    ])
                })
                .collect(),
        );
        println!("{}", json.render());
        return;
    }
    println!("Table II: optimal parking frequencies (N=255, err ≤ 1e-4, 40 ps clock)");
    println!("search band 4.0–6.5 GHz, step {step} GHz");
    digiq_bench::rule(66);
    println!(
        "{:>22} | {:>22} | {:>12}",
        "parking freq (GHz)", "drift tol (± GHz)", "center err"
    );
    digiq_bench::rule(66);
    for r in &rows {
        println!(
            "{:>22.5} | {:>22.5} | {:>12.2e}",
            r.freq_ghz, r.drift_tolerance_ghz, r.center_error
        );
    }
    println!();
    println!("paper reports: 6.21286 ±0.01282 | 5.02978 ±0.01049 | 4.14238 ±0.00820");
}
