//! Regenerates Fig 4b: the CZ current waveform from 25 staggered SFQ/DC
//! blocks into the R1/C1/R2 + flex-line network.
//!
//! `--json` emits the waveform via `sfq_hw::json` (flags parsed by
//! `digiq_bench::cli`).
use digiq_bench::cli::CommonArgs;
use digiq_core::engine::default_workers;
use sfq_hw::analog::CurrentGenerator;
use sfq_hw::json::{Json, ToJson};

fn main() {
    let args = CommonArgs::parse_for("fig4_waveform", &[], default_workers());
    let gen = CurrentGenerator::paper_fig4();
    let wave = gen.simulate(70.0, 0.5);
    if args.json {
        let json = Json::obj([
            ("dt_ns", wave.dt_ns.to_json()),
            ("samples_ma", wave.samples_ma.to_json()),
            ("peak_ma", wave.peak_ma().to_json()),
            ("plateau_ns", wave.plateau_ns().to_json()),
        ]);
        println!("{}", json.render());
        return;
    }
    println!("# t(ns) I(mA)   [25 SFQ/DC blocks, R1=R2=0.05 ohm, C1=10 nF]");
    for (k, i) in wave.samples_ma.iter().enumerate() {
        println!("{:6.2} {:+.4}", k as f64 * wave.dt_ns, i);
    }
    eprintln!(
        "peak {:.3} mA (paper ~1.2), rise {:.1} ns (paper ~10), plateau {:.1} ns",
        wave.peak_ma(),
        wave.rise_time_ns().unwrap_or(f64::NAN),
        wave.plateau_ns()
    );
}
