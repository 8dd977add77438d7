//! Regenerates Fig 7: CZ gate error as a function of per-qubit frequency
//! drift for echo sequences of 1, 2 and 3 Uqq pulses (ideal 1q gates).
//!
//! Default: 5×5 drift grid ±6 MHz (runtime ~minutes). `--small`: 3×3.
//! The independent panels are sharded through the evaluation engine's
//! ordered map, so output order is fixed for any worker count (flags
//! parsed by `digiq_bench::cli`).
use calib::cz::{calibrate_shared_pulse, fig7_panel};
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::{default_workers, par_map_ordered};
use qsim::two_qubit::CoupledTransmons;

fn main() {
    let args = CommonArgs::parse_for("fig7_cz_error", &[], default_workers());
    let (grid, pulses_max) = if args.small { (3, 2) } else { (5, 3) };
    let pair = CoupledTransmons::paper_pair(6.21286, 4.14238);
    let pulse = calibrate_shared_pulse(&pair, 4.0, 0.25);
    println!(
        "# calibrated shared pulse: nominal CZ error {:.2e} (paper ~3e-4)",
        pulse.nominal_error
    );
    let panels: Vec<usize> = (1..=pulses_max).collect();
    let results = par_map_ordered(&panels, args.workers.min(panels.len()), |_, &n| {
        fig7_panel(&pair, &pulse, n, 0.006, grid, 3)
    });
    for (n, points) in panels.iter().zip(&results) {
        println!("# panel {n}: {n} Uqq pulse(s); columns: drift1(GHz) drift2(GHz) error");
        for p in points {
            println!(
                "{n} {:+.4} {:+.4} {:.3e}",
                p.drift1_ghz, p.drift2_ghz, p.error
            );
        }
    }
}
