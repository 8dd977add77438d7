//! Regenerates Fig 8: power (a), area (b) and cable count (c) of every
//! design point per 1,024 qubits, plus the §VI-A2 worst-stage delay.
//!
//! The 26 design points synthesize independently, so the sweep is
//! sharded over `--workers` threads (default: all cores) through the
//! evaluation engine's ordered map — rows always print in the canonical
//! `fig8_points` order. `--json` emits the rows via `sfq_hw::json`
//! (flags parsed by `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use digiq_core::hardware::fig8_sweep;
use sfq_hw::json::ToJson;

fn main() {
    let args = CommonArgs::parse_for("fig8_synthesis", &[], default_workers());
    let workers = args.workers;
    let rows = fig8_sweep(&sfq_hw::cost::CostModel::default(), workers);
    if args.json {
        println!("{}", rows.to_json_string());
        return;
    }
    println!("Fig 8: hardware cost per 1,024 qubits ({workers} synthesis workers)");
    digiq_bench::rule(86);
    println!(
        "{:22} | {:>3} | {:>9} | {:>11} | {:>7} | {:>10}",
        "design", "G", "power (W)", "area (mm2)", "cables", "stage (ps)"
    );
    digiq_bench::rule(86);
    let mut worst: f64 = 0.0;
    for r in &rows {
        worst = worst.max(r.worst_stage_ps);
        println!(
            "{:22} | {:>3} | {:>9.3} | {:>11.1} | {:>7} | {:>10.1}",
            r.design, r.groups, r.power_w, r.area_mm2, r.cables, r.worst_stage_ps
        );
    }
    println!();
    println!("worst synthesized stage {worst:.1} ps -> 40 ps SFQ clock (paper: 34.5 ps)");
    println!("paper anchors: naive 5.9 W / 16,197 mm2 / 2,619 cables; decomp 10.7 W / 29,571 mm2 / 161 cables");
    println!("               DigiQ_min(G=2,BS=2) 39 cables; DigiQ_opt(G=2,BS=16) 33 cables");
}
