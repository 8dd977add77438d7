//! Regenerates Table III: the RSFQ cell library.
//!
//! `--json` emits the rows via `sfq_hw::json` (flags parsed by
//! `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use sfq_hw::json::{Json, ToJson};

fn main() {
    let args = CommonArgs::parse_for("table3_cells", &[], default_workers());
    if args.json {
        let json = Json::Arr(
            sfq_hw::cells::ALL_CELLS
                .iter()
                .map(|c| {
                    Json::obj([
                        ("cell", c.mnemonic().to_json()),
                        ("area_um2", c.area_um2().to_json()),
                        ("jj_count", c.jj_count().to_json()),
                        ("delay_ps", c.delay_ps().to_json()),
                        ("in_table_iii", c.in_table_iii().to_json()),
                    ])
                })
                .collect(),
        );
        println!("{}", json.render());
        return;
    }
    println!("Table III: RSFQ cell library");
    digiq_bench::rule(56);
    println!(
        "{:10} | {:>11} | {:>8} | {:>9} | source",
        "cell", "area (um2)", "JJs", "delay(ps)"
    );
    digiq_bench::rule(56);
    for c in sfq_hw::cells::ALL_CELLS {
        println!(
            "{:10} | {:>11.0} | {:>8} | {:>9.1} | {}",
            c.mnemonic(),
            c.area_um2(),
            c.jj_count(),
            c.delay_ps(),
            if c.in_table_iii() {
                "Table III"
            } else {
                "estimate"
            }
        );
    }
}
