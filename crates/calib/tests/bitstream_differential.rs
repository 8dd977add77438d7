//! Differential test of the bitstream search.
//!
//! `SfqPulseSim::frame_gate_qubit` propagates only columns 0 and 1 of
//! the lab-frame product; `find_bitstream` scores through a
//! `FreedomFidelity` prepared once per target (the z-phase scan's
//! `V†·e^{±ia/2}` factors tabled), runs a GA that keeps its elites'
//! scores, and polishes with single flips resumed from a trail of prefix
//! blocks until one full cycle of flips is rejected. The oracle below is
//! the earlier implementation, kept verbatim: the earlier
//! `fidelity_with_freedom` (every scan angle's `cis` recomputed per call)
//! and `ga_bitstring` (every elite scored again each generation), then a
//! polish that sweeps until a whole sweep is clean and re-evaluates every
//! trial from scratch through the full 6×6
//! `frame_gate(bits).top_left_block(2)`. Both must agree bit for bit
//! (`to_bits` equality on every entry, fidelity and error) on:
//!
//! * the fitness under both freedoms: seeded frame gates, near-unitary
//!   2×2s and the named gates, against the named gates, Ry(π/2) and
//!   Haar-random targets;
//! * the qubit block of seeded random streams, the all-zero stream and
//!   resonant combs, at both parking frequencies, both tip angles (opt
//!   and min) and lengths 1, 64, 225 and 253, plus resumed single flips;
//! * whole searches for all three shared targets (opt Ry(π/2) with free
//!   z-phases, min Ry(π/2) and min T) at small GA budgets and several GA
//!   seeds;
//! * `calibrate_shared` at 1, 2 and 8 threads.
//!
//! Debug builds run a reduced matrix to keep the suite fast;
//! `scripts/ci.sh` runs the full matrix in release (`cargo test --release
//! -p calib --test bitstream_differential`).

use calib::bitstream::{
    comb_seed, fidelity_with_freedom, find_bitstream, rz_seed, BitstreamResult, FreedomFidelity,
    SearchConfig, ZFreedom,
};
use digiq_core::error_model::{calibrate_shared, ErrorModelConfig};
use qsim::complex::C64;
use qsim::matrix::CMat;
use qsim::optimize::{GaConfig, GaResult};
use qsim::pulse::{QubitTrail, SfqParams, SfqPulseSim};
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use std::f64::consts::PI;

const PARKING: [f64; 2] = [6.21286, 4.14238];

mod oracle {
    //! The earlier `fidelity_with_freedom`, `ga_bitstring` (with its
    //! private `nan_last`/`fitter`) and `find_bitstream`, verbatim, with
    //! the fitness through the full-level frame gate.

    use super::*;
    use std::cmp::Ordering;

    pub fn fidelity_with_freedom(m: &CMat, v: &CMat, freedom: ZFreedom) -> f64 {
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!((v.rows(), v.cols()), (2, 2));
        let mm = m.dagger().matmul(m).trace().re;
        let overlap2 = match freedom {
            ZFreedom::None => v.dagger().matmul(m).trace().abs2(),
            ZFreedom::PrePost => {
                // tr((Rz(a)·V·Rz(b))†·M) = e^{ib/2}·X00(a) + e^{−ib/2}·X11(a)
                // with X = V†·diag(e^{ia/2},e^{−ia/2})·M; max over b is
                // |X00|+|X11|; scan a (the sinusoids make 256 points ample),
                // then golden-refine.
                let vd = v.dagger();
                let best_at = |a: f64| -> f64 {
                    let d0 = C64::cis(a / 2.0);
                    let d1 = C64::cis(-a / 2.0);
                    let x00 = vd[(0, 0)] * d0 * m[(0, 0)] + vd[(0, 1)] * d1 * m[(1, 0)];
                    let x11 = vd[(1, 0)] * d0 * m[(0, 1)] + vd[(1, 1)] * d1 * m[(1, 1)];
                    x00.abs() + x11.abs()
                };
                let mut best = 0.0f64;
                let mut best_a = 0.0f64;
                for k in 0..256 {
                    let a = k as f64 / 256.0 * 4.0 * PI; // period 4π in a/2
                    let s = best_at(a);
                    if s > best {
                        best = s;
                        best_a = a;
                    }
                }
                // Local refinement.
                let (mut lo, mut hi) = (best_a - 4.0 * PI / 256.0, best_a + 4.0 * PI / 256.0);
                for _ in 0..40 {
                    let m1 = lo + (hi - lo) / 3.0;
                    let m2 = hi - (hi - lo) / 3.0;
                    if best_at(m1) < best_at(m2) {
                        lo = m1;
                    } else {
                        hi = m2;
                    }
                }
                best_at(0.5 * (lo + hi)).max(best).powi(2)
            }
        };
        ((mm + overlap2) / 6.0).clamp(0.0, 1.0)
    }

    fn nan_last(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (false, false) if a < b => Ordering::Less,
            (false, false) if a > b => Ordering::Greater,
            (a_nan, b_nan) => a_nan.cmp(&b_nan),
        }
    }

    fn fitter(a: f64, b: f64) -> bool {
        nan_last(-a, -b).is_lt()
    }

    pub fn ga_bitstring(
        mut fitness: impl FnMut(&[bool]) -> f64,
        len: usize,
        seeds: &[Vec<bool>],
        cfg: GaConfig,
    ) -> GaResult {
        assert!(len > 0, "bitstring length must be positive");
        assert!(cfg.population >= 4, "population too small");
        for s in seeds {
            assert_eq!(s.len(), len, "seed length mismatch");
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut population: Vec<Vec<bool>> = Vec::with_capacity(cfg.population);
        for s in seeds.iter().take(cfg.population) {
            population.push(s.clone());
        }
        while population.len() < cfg.population {
            // Mutated copies of seeds (if any) plus pure random fill.
            if !seeds.is_empty() && population.len() < cfg.population / 2 {
                let base = &seeds[population.len() % seeds.len()];
                let mut ind = base.clone();
                for b in ind.iter_mut() {
                    if rng.gen::<f64>() < 0.05 {
                        *b = !*b;
                    }
                }
                population.push(ind);
            } else {
                population.push((0..len).map(|_| rng.gen::<bool>()).collect());
            }
        }
        let mut scores: Vec<f64> = population.iter().map(|p| fitness(p)).collect();

        let mut best_idx = 0;
        for gen in 0..cfg.generations {
            // Track best.
            for (i, &s) in scores.iter().enumerate() {
                if fitter(s, scores[best_idx]) {
                    best_idx = i;
                }
            }
            if gen + 1 == cfg.generations {
                break;
            }

            let mut order: Vec<usize> = (0..cfg.population).collect();
            order.sort_by(|&a, &b| nan_last(-scores[a], -scores[b]));

            let mut next: Vec<Vec<bool>> = order
                .iter()
                .take(cfg.elitism)
                .map(|&i| population[i].clone())
                .collect();

            let tournament_pick = |rng: &mut StdRng, scores: &[f64]| -> usize {
                let mut best = rng.gen_range(0..cfg.population);
                for _ in 1..cfg.tournament {
                    let c = rng.gen_range(0..cfg.population);
                    if fitter(scores[c], scores[best]) {
                        best = c;
                    }
                }
                best
            };

            while next.len() < cfg.population {
                let p1 = tournament_pick(&mut rng, &scores);
                let p2 = tournament_pick(&mut rng, &scores);
                let mut child: Vec<bool> = (0..len)
                    .map(|j| {
                        if rng.gen::<bool>() {
                            population[p1][j]
                        } else {
                            population[p2][j]
                        }
                    })
                    .collect();
                for b in child.iter_mut() {
                    if rng.gen::<f64>() < cfg.mutation_rate {
                        *b = !*b;
                    }
                }
                next.push(child);
            }
            population = next;
            scores = population.iter().map(|p| fitness(p)).collect();
            best_idx = 0;
        }

        for (i, &s) in scores.iter().enumerate() {
            if fitter(s, scores[best_idx]) {
                best_idx = i;
            }
        }
        GaResult {
            bits: population[best_idx].clone(),
            fitness: scores[best_idx],
            generations: cfg.generations,
        }
    }

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

/// A Haar-random 2×2 unitary (Haar tip angle, uniform Euler phases and
/// a global phase).
fn haar_unitary(rng: &mut StdRng) -> CMat {
    let theta = 2.0 * rng.gen::<f64>().sqrt().asin();
    let u = qsim::gates::u_zyz(theta, rng.gen_range(-PI..PI), rng.gen_range(-PI..PI));
    u.scale(C64::cis(rng.gen_range(-PI..PI)))
}

/// The fitness differential's evolutions `m`: qubit blocks of seeded
/// frame gates, near-unitary 2×2s (a Haar unitary shrunk and nudged, as
/// leakage and drift leave a block) and the named gates.
fn fitness_evolutions(rng: &mut StdRng) -> Vec<(CMat, String)> {
    let per_kind = if cfg!(debug_assertions) { 6 } else { 40 };
    let mut out = Vec::new();
    for f in PARKING {
        for (pname, params) in [("opt", opt_params()), ("min", min_params())] {
            let sim = SfqPulseSim::new(Transmon::new(f), params);
            out.push((
                sim.frame_gate_qubit(&sim.resonant_comb(63)),
                format!("{f} {pname} comb"),
            ));
            for k in 0..per_kind {
                let bits = random_bits(rng, 253, 0.05 + 0.1 * (k % 5) as f64);
                out.push((
                    sim.frame_gate_qubit(&bits),
                    format!("{f} {pname} stream {k}"),
                ));
            }
        }
    }
    for k in 0..per_kind {
        let mut m = haar_unitary(rng).scale(C64::new(1.0 - 0.02 * rng.gen::<f64>(), 0.0));
        for z in m.as_mut_slice() {
            *z += C64::new(rng.gen_range(-1e-3..1e-3), rng.gen_range(-1e-3..1e-3));
        }
        out.push((m, format!("near-unitary {k}")));
    }
    for (name, g) in named_gates() {
        out.push((g, name.to_string()));
    }
    out
}

fn named_gates() -> [(&'static str, CMat); 4] {
    use qsim::gates::{h, s, t, x};
    [("H", h()), ("X", x()), ("S", s()), ("T", t())]
}

#[test]
fn fitness_matches_the_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xF17_0E55);
    let evolutions = fitness_evolutions(&mut rng);
    let mut targets: Vec<(CMat, String)> = named_gates()
        .into_iter()
        .map(|(name, g)| (g, name.to_string()))
        .collect();
    targets.push((qsim::gates::ry(PI / 2.0), "Ry(pi/2)".to_string()));
    let haar = if cfg!(debug_assertions) { 4 } else { 24 };
    for k in 0..haar {
        targets.push((haar_unitary(&mut rng), format!("Haar {k}")));
    }
    for freedom in [ZFreedom::None, ZFreedom::PrePost] {
        for (v, vname) in &targets {
            let prepared = FreedomFidelity::new(v, freedom);
            for (m, mname) in &evolutions {
                let want = oracle::fidelity_with_freedom(m, v, freedom);
                let what = format!("{freedom:?}: {mname} against {vname}");
                for got in [prepared.fidelity(m), fidelity_with_freedom(m, v, freedom)] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:e} vs {want:e}");
                }
            }
        }
    }
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
