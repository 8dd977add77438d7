//! Regenerates Fig 3: the gate sequence inside one DigiQ_opt controller
//! cycle — d "0"s (Rz via delay), the Ry(π/2) bitstream, and the residual
//! Rz absorbed into the next cycle.
//!
//! `--json` emits the decomposition via `sfq_hw::json` (flags parsed by
//! `digiq_bench::cli`).
use calib::opt_decomp::{decompose_opt, OptBasis};
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use sfq_hw::json::{Json, ToJson};

fn main() {
    let args = CommonArgs::parse_for("fig3_cycle", &[], default_workers());
    let basis = OptBasis::ideal(255);
    let target = qsim::gates::h();
    let dec = decompose_opt(&target, &basis, 0.0, 2, 1e-6);
    if args.json {
        let delays: Vec<u64> = dec.delays.iter().map(|&d| d as u64).collect();
        let json = Json::obj([
            ("delays", delays.to_json()),
            ("residual_rz_rad", dec.phi_out.to_json()),
            ("error", dec.error.to_json()),
        ]);
        println!("{}", json.render());
        return;
    }
    println!("decomposing H on the ideal DigiQ_opt basis:");
    for (k, &d) in dec.delays.iter().enumerate() {
        println!(
            "  cycle {k}: wait d={d:3} ticks (Rz({:+.4} rad)) then fire Ry(pi/2) bitstream",
            basis.theta(d as usize)
        );
    }
    println!(
        "  residual Rz({:+.4} rad) absorbed into the next gate",
        dec.phi_out
    );
    println!("  achieved error: {:.2e}", dec.error);
    println!();
    println!("cycle timing: 253 bitstream ticks + 255 delay slots @40 ps = 20.32 ns");
}
