//! Regenerates §VI-A3: maximum qubit counts within the 10 W budget.
//!
//! Tiles synthesize in parallel through the evaluation engine's hardware
//! cache (`--workers`, default: all cores); `--json` emits the rows via
//! `sfq_hw::json` (flags parsed by `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use digiq_core::scalability::scalability_table_parallel;
use sfq_hw::json::ToJson;

fn main() {
    let args = CommonArgs::parse_for("scalability", &[], default_workers());
    let workers = args.workers;
    let rows = scalability_table_parallel(&sfq_hw::cost::CostModel::default(), workers);
    if args.json {
        println!("{}", rows.to_json_string());
        return;
    }
    println!("Scalability at the 10 W 4K-stage budget (1,024-qubit tiles)");
    digiq_bench::rule(84);
    println!(
        "{:22} | {:>10} | {:>12} | {:>11} | {:>10}",
        "design", "tile W", "tile mm2", "max qubits", "cables"
    );
    digiq_bench::rule(84);
    for r in rows {
        println!(
            "{:22} | {:>10.3} | {:>12.1} | {:>11} | {:>10}",
            r.design, r.tile_power_w, r.tile_area_mm2, r.max_qubits, r.cables_per_tile
        );
    }
    println!();
    println!("paper: DigiQ_min(BS=2) >42,000 | DigiQ_opt(BS=8) >25,000 | DigiQ_opt(BS=16) >17,000");
}
