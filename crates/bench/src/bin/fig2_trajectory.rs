//! Regenerates Fig 2: Bloch-sphere trajectory of a qubit driven by a
//! resonant SFQ pulse train (blue) vs free evolution (orange).
//!
//! The two trajectories are independent, so they run through the
//! evaluation engine's ordered map (output order fixed regardless of
//! scheduling or `--workers`; flags parsed by `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::{default_workers, par_map_ordered};
use qsim::pulse::{SfqParams, SfqPulseSim};
use qsim::transmon::Transmon;

fn main() {
    let args = CommonArgs::parse_for("fig2_trajectory", &[], default_workers());
    let sim = SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default());
    let driven = sim.resonant_comb(16);
    let mut free_prefixed = vec![true];
    free_prefixed.extend_from_slice(&[false; 16]);
    let pulse_trains = [driven, free_prefixed];
    let trajectories = par_map_ordered(&pulse_trains, args.workers.min(2), |_, bits| {
        sim.bloch_trajectory(bits)
    });

    println!("# driven trajectory: tick x y z   (one SFQ pulse per qubit period)");
    for (k, (x, y, z)) in trajectories[0].iter().enumerate() {
        println!("D {k:4} {x:+.5} {y:+.5} {z:+.5}");
    }
    println!("# free evolution: tick x y z   (constant z, xy precession)");
    for (k, (x, y, z)) in trajectories[1].iter().enumerate() {
        println!("F {k:4} {x:+.5} {y:+.5} {z:+.5}");
    }
}
