//! Differential test of the two-column bitstream search.
//!
//! `SfqPulseSim::frame_gate_qubit` propagates only columns 0 and 1 of
//! the lab-frame product, and `find_bitstream`'s single-flip polish
//! resumes every trial from a trail of prefix blocks. The oracle below is
//! the earlier implementation, kept verbatim: the same GA call, then a
//! polish that re-evaluates every trial from scratch through the full
//! 6×6 `frame_gate(bits).top_left_block(2)`. Both must agree bit for bit
//! (`to_bits` equality on every entry, fidelity and error) on:
//!
//! * the qubit block of seeded random streams, the all-zero stream and
//!   resonant combs, at both parking frequencies, both tip angles (opt
//!   and min) and lengths 1, 64, 225 and 253, plus resumed single flips;
//! * whole searches for all three shared targets (opt Ry(π/2) with free
//!   z-phases, min Ry(π/2) and min T) at small GA budgets and several GA
//!   seeds;
//! * `calibrate_shared` at 1, 2 and 8 threads.
//!
//! Debug builds run a reduced search matrix to keep the suite fast;
//! `scripts/ci.sh` runs the full matrix in release (`cargo test --release
//! -p calib --test bitstream_differential`).

use calib::bitstream::{
    comb_seed, fidelity_with_freedom, find_bitstream, rz_seed, BitstreamResult, SearchConfig,
    ZFreedom,
};
use digiq_core::error_model::{calibrate_shared, ErrorModelConfig};
use qsim::matrix::CMat;
use qsim::optimize::{ga_bitstring, GaConfig};
use qsim::pulse::{QubitTrail, SfqParams, SfqPulseSim};
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use std::f64::consts::PI;

const PARKING: [f64; 2] = [6.21286, 4.14238];

mod oracle {
    //! The earlier `find_bitstream`, verbatim, with the fitness through
    //! the full-level frame gate.

    use super::*;

    pub fn frame_gate_qubit(sim: &SfqPulseSim, bits: &[bool]) -> CMat {
        sim.frame_gate(bits).top_left_block(2)
    }

    pub fn find_bitstream(
        transmon: Transmon,
        params: SfqParams,
        target: &CMat,
        freedom: ZFreedom,
        cfg: &SearchConfig,
    ) -> BitstreamResult {
        assert!(cfg.length > 0);
        assert_eq!((target.rows(), target.cols()), (2, 2));
        let sim = SfqPulseSim::new(transmon, params);

        let (theta, _phi, _lam, _) = qsim::gates::zyz_angles(target);
        let pulses_for_theta = ((theta / params.delta_theta).round() as usize).max(1);
        let mut seeds: Vec<Vec<bool>> = Vec::new();
        let ticks_per_period = 1.0 / (transmon.frequency_ghz * params.clock_period_ns);
        for start in 0..(ticks_per_period.ceil() as usize + 1) {
            seeds.push(comb_seed(&sim, cfg.length, start, pulses_for_theta));
        }
        if theta < 0.3 {
            let (_, phi_t, lam_t, _) = qsim::gates::zyz_angles(target);
            seeds.push(rz_seed(&sim, cfg.length, phi_t + lam_t));
            seeds.push(vec![false; cfg.length]);
        }

        let fitness = |bits: &[bool]| -> f64 {
            let m = frame_gate_qubit(&sim, bits);
            fidelity_with_freedom(&m, target, freedom)
        };
        let result = ga_bitstring(&fitness, cfg.length, &seeds, cfg.ga);

        let mut bits = result.bits;
        let mut best_f = fitness(&bits);
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..bits.len() {
                bits[i] = !bits[i];
                let f = fitness(&bits);
                if f > best_f {
                    best_f = f;
                    improved = true;
                } else {
                    bits[i] = !bits[i];
                }
            }
        }
        BitstreamResult {
            bits,
            fidelity: best_f,
            error: 1.0 - best_f,
        }
    }
}

fn opt_params() -> SfqParams {
    SfqParams::default()
}

fn min_params() -> SfqParams {
    SfqParams {
        delta_theta: (PI / 2.0) / 16.0,
        ..SfqParams::default()
    }
}

fn assert_bits_eq(got: &CMat, want: &CMat, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (k, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what}: entry {k} differs: {a:?} vs {b:?}"
        );
    }
}

fn random_bits(rng: &mut StdRng, len: usize, density: f64) -> Vec<bool> {
    (0..len).map(|_| rng.gen::<f64>() < density).collect()
}

/// Every case of the qubit-block matrix: both frequencies, both tip
/// angles, the four lengths; per case the all-zero stream, a resonant
/// comb and three seeded random streams of different densities.
fn block_cases() -> Vec<(SfqPulseSim, Vec<bool>, String)> {
    let mut rng = StdRng::seed_from_u64(0xB175_7EA4);
    let mut cases = Vec::new();
    for f in PARKING {
        for (pname, params) in [("opt", opt_params()), ("min", min_params())] {
            let sim = SfqPulseSim::new(Transmon::new(f), params);
            for len in [1usize, 64, 225, 253] {
                let mut streams = vec![("zero", vec![false; len])];
                let mut comb = sim.resonant_comb(63);
                comb.resize(len, false);
                streams.push(("comb", comb));
                for (name, density) in [("sparse", 0.1), ("quarter", 0.25), ("half", 0.5)] {
                    streams.push((name, random_bits(&mut rng, len, density)));
                }
                for (name, bits) in streams {
                    cases.push((sim.clone(), bits, format!("{f} GHz {pname} L={len} {name}")));
                }
            }
        }
    }
    cases
}

#[test]
fn qubit_block_matches_full_frame_gate() {
    for (sim, bits, what) in block_cases() {
        assert_bits_eq(
            &sim.frame_gate_qubit(&bits),
            &oracle::frame_gate_qubit(&sim, &bits),
            &what,
        );
    }
}

#[test]
fn resumed_flips_match_from_scratch_gates() {
    // A trail walked through rejected and accepted flips, as the polish
    // walks it: every trial gate and every accepted state must be the
    // from-scratch gate of the flipped stream.
    let mut rng = StdRng::seed_from_u64(0x7EA1_F11B);
    for (sim, bits, what) in block_cases() {
        let mut current = bits.clone();
        let mut trail = QubitTrail::new(&sim, &bits);
        assert_bits_eq(
            &trail.gate(),
            &oracle::frame_gate_qubit(&sim, &current),
            &what,
        );
        let mut flips: Vec<usize> = (0..6).map(|_| rng.gen_range(0..bits.len())).collect();
        flips.extend([0, bits.len() - 1]);
        for i in flips {
            current[i] = !current[i];
            let want = oracle::frame_gate_qubit(&sim, &current);
            assert_bits_eq(&trail.flipped_gate(i), &want, &format!("{what} flip {i}"));
            if rng.gen::<bool>() {
                trail.accept_flip(i);
                assert_eq!(trail.bits(), &current[..], "{what} flip {i}");
                assert_bits_eq(&trail.gate(), &want, &format!("{what} accept {i}"));
            } else {
                current[i] = !current[i];
            }
        }
    }
}

fn assert_same_search(got: &BitstreamResult, want: &BitstreamResult, what: &str) {
    assert_eq!(got.bits, want.bits, "{what}: bits");
    assert_eq!(
        got.fidelity.to_bits(),
        want.fidelity.to_bits(),
        "{what}: fidelity {} vs {}",
        got.fidelity,
        want.fidelity
    );
    assert_eq!(got.error.to_bits(), want.error.to_bits(), "{what}: error");
}

#[test]
fn searches_match_the_from_scratch_polish() {
    let ry = qsim::gates::ry(PI / 2.0);
    let t = qsim::gates::t();
    let targets = [
        ("opt Ry", opt_params(), &ry, ZFreedom::PrePost),
        ("min Ry", min_params(), &ry, ZFreedom::None),
        ("min T", min_params(), &t, ZFreedom::None),
    ];
    // Debug builds: one GA seed at the high frequency; release: three
    // seeds at both frequencies.
    let (freqs, seeds): (&[f64], &[u64]) = if cfg!(debug_assertions) {
        (&PARKING[..1], &[0x5EED])
    } else {
        (&PARKING, &[0x5EED, 1, 0xC0FFEE])
    };
    for &f in freqs {
        let length = if f > 5.0 { 253 } else { 225 };
        for &seed in seeds {
            let cfg = SearchConfig {
                length,
                ga: GaConfig {
                    population: 8,
                    generations: 4,
                    seed,
                    ..GaConfig::default()
                },
            };
            for (name, params, target, freedom) in targets {
                let what = format!("{name} at {f} GHz, GA seed {seed:#x}");
                let got = find_bitstream(Transmon::new(f), params, target, freedom, &cfg);
                let want = oracle::find_bitstream(Transmon::new(f), params, target, freedom, &cfg);
                assert_same_search(&got, &want, &what);
            }
        }
    }
}

#[test]
fn shared_calibration_is_the_oracle_at_any_thread_count() {
    let mut config = ErrorModelConfig::small(8);
    if cfg!(debug_assertions) {
        // The full small budget costs the 6×6 oracle minutes in debug.
        config.parking_ghz.truncate(1);
    }
    let ry = qsim::gates::ry(PI / 2.0);
    let t = qsim::gates::t();
    let mut want_ry = Vec::new();
    let mut want_min = Vec::new();
    for &f in &config.parking_ghz {
        let sc = SearchConfig {
            length: if f > 5.0 { 253 } else { 225 },
            ga: config.ga,
        };
        let search = |params, target, freedom| {
            oracle::find_bitstream(Transmon::new(f), params, target, freedom, &sc).bits
        };
        want_ry.push(search(opt_params(), &ry, ZFreedom::PrePost));
        want_min.push([
            search(min_params(), &ry, ZFreedom::None),
            search(min_params(), &t, ZFreedom::None),
        ]);
    }
    for threads in [1, 2, 8] {
        config.threads = threads;
        let shared = calibrate_shared(&config);
        assert_eq!(shared.ry_bits, want_ry, "{threads} threads: opt bits");
        assert_eq!(shared.min_bits, want_min, "{threads} threads: min bits");
        assert_eq!(shared.opt_params, opt_params());
        assert_eq!(shared.min_params, min_params());
    }
}
