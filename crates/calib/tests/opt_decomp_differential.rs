//! Differential test of the DigiQ_opt decomposition scans.
//!
//! `decompose_opt_with` fills error buffers with vectorizable map loops,
//! skips every L=2 row and L=3 stem whose closed-form error floor rules
//! it out, keeps the best 96 L=2 keys in a bounded pool and recomputes
//! only each scan's winner. The oracle below is the earlier scalar
//! implementation, kept verbatim: it scans everything, pushes every L=2
//! candidate, stable-sorts them by error and keeps the best 96. Both must
//! agree bit for bit — delays, `phi_in_used`, `phi_out` and `error` — on
//! every case of the matrix: the ideal basis (whose lattice gives exact
//! L=2 ties, so the stem order is tested on ties) and seeded drifted
//! bases; Pauli, Clifford, T and seeded ZYZ targets; every cycle budget,
//! three error targets, two incoming residuals, and delay counts where
//! `(n+1)²` is smaller than the kept stem count. A second matrix stresses
//! the pruning: strongly leaky bases, a zero delay phase (every row the
//! same, so ties cross every row) and bases with a NaN entry.
//!
//! The vectorized loops exist only in optimized code, so the full matrix
//! runs in release builds (`cargo test --release -p calib --test
//! opt_decomp_differential`, part of `scripts/ci.sh`); debug builds run
//! fewer bases at `n_delays = 255` to keep the suite fast.

use calib::opt_decomp::{decompose_opt_with, OptBasis, OptDecomposition, OptTables};
use qsim::complex::C64;
use qsim::gates;
use qsim::matrix::CMat;
use qsim::rng::StdRng;
use std::f64::consts::PI;

mod oracle {
    //! The earlier scalar scan, verbatim, with its tables rebuilt from
    //! the public `OptBasis` fields.
    #![allow(clippy::needless_range_loop)] // kept as written

    use super::*;

    #[inline]
    fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
        [
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        ]
    }

    #[inline]
    fn col_scale2(a: &[C64; 4], z0: C64, z1: C64) -> [C64; 4] {
        [a[0] * z0, a[1] * z1, a[2] * z0, a[3] * z1]
    }

    #[inline]
    fn fid_free_out2(m: &[C64; 4], td: &[C64; 4]) -> (f64, C64, C64) {
        let a = m[0] * td[0] + m[1] * td[2];
        let b = m[2] * td[1] + m[3] * td[3];
        let overlap = a.abs2().sqrt() + b.abs2().sqrt();
        let mm = m[0].abs2() + m[1].abs2() + m[2].abs2() + m[3].abs2();
        let fid = ((mm + overlap * overlap) / 6.0).clamp(0.0, 1.0);
        (fid, a, b)
    }

    pub struct OptTables {
        thetas: Vec<f64>,
        g: [C64; 4],
        gz: Vec<[C64; 4]>,
        w: Vec<[C64; 4]>,
    }

    impl OptTables {
        pub fn build(basis: &OptBasis) -> Self {
            let g = [
                basis.ubs[(0, 0)],
                basis.ubs[(0, 1)],
                basis.ubs[(1, 0)],
                basis.ubs[(1, 1)],
            ];
            let thetas: Vec<f64> = (0..=basis.n_delays).map(|d| basis.theta(d)).collect();
            let gz: Vec<[C64; 4]> = thetas
                .iter()
                .map(|&th| col_scale2(&g, C64::cis(-th / 2.0), C64::cis(th / 2.0)))
                .collect();
            let w: Vec<[C64; 4]> = gz.iter().map(|gzd| mul2(gzd, &g)).collect();
            OptTables { thetas, g, gz, w }
        }

        pub fn n_delays(&self) -> usize {
            self.thetas.len() - 1
        }
    }

    pub fn decompose_opt_with(
        tables: &OptTables,
        target: &CMat,
        phi_in: f64,
        max_cycles: usize,
        err_target: f64,
    ) -> OptDecomposition {
        assert!(max_cycles >= 1);
        assert_eq!((target.rows(), target.cols()), (2, 2));
        let n = tables.n_delays();
        let td = [
            target[(0, 0)].conj(),
            target[(1, 0)].conj(),
            target[(0, 1)].conj(),
            target[(1, 1)].conj(),
        ];
        let zin: Vec<(C64, C64)> = tables
            .thetas
            .iter()
            .map(|&th| {
                let z = th + phi_in;
                (C64::cis(-z / 2.0), C64::cis(z / 2.0))
            })
            .collect();

        let mut best_delays = ([0u16; 3], 1u8);
        let mut best_ab = (C64::ONE, C64::ONE);
        let mut best_err = f64::INFINITY;

        for d0 in 0..=n {
            let (z0, z1) = zin[d0];
            let m = col_scale2(&tables.g, z0, z1);
            let (fid, a, b) = fid_free_out2(&m, &td);
            let err = 1.0 - fid;
            if err < best_err {
                best_delays = ([d0 as u16, 0, 0], 1);
                best_ab = (a, b);
                best_err = err;
            }
        }
        let finish = |delays: ([u16; 3], u8), (a, b): (C64, C64), error: f64| OptDecomposition {
            delays: delays.0[..delays.1 as usize].to_vec(),
            phi_in_used: phi_in,
            phi_out: a.arg() - b.arg(),
            error,
        };
        if best_err <= err_target || max_cycles == 1 {
            return finish(best_delays, best_ab, best_err);
        }

        let mut order2: Vec<(usize, usize, f64)> = Vec::new();
        for (d1, wm) in tables.w.iter().enumerate() {
            for d0 in 0..=n {
                let (z0, z1) = zin[d0];
                let m = col_scale2(wm, z0, z1);
                let (fid, a, b) = fid_free_out2(&m, &td);
                let err = 1.0 - fid;
                if err < best_err {
                    best_delays = ([d0 as u16, d1 as u16, 0], 2);
                    best_ab = (a, b);
                    best_err = err;
                }
                if max_cycles >= 3 {
                    order2.push((d0, d1, err));
                }
            }
        }
        if best_err <= err_target || max_cycles == 2 {
            return finish(best_delays, best_ab, best_err);
        }

        order2.sort_by(|a, b| a.2.total_cmp(&b.2));
        order2.truncate(96);
        for d0 in (0..=n).step_by(8) {
            for d1 in (0..=n).step_by(8) {
                order2.push((d0, d1, f64::NAN));
            }
        }
        for &(d0, d1, _) in &order2 {
            let (z0, z1) = zin[d0];
            let stem = col_scale2(&tables.w[d1], z0, z1);
            for (d2, gzd) in tables.gz.iter().enumerate() {
                let m = mul2(gzd, &stem);
                let (fid, a, b) = fid_free_out2(&m, &td);
                let err = 1.0 - fid;
                if err < best_err {
                    best_delays = ([d0 as u16, d1 as u16, d2 as u16], 3);
                    best_ab = (a, b);
                    best_err = err;
                }
            }
            if best_err <= err_target {
                break;
            }
        }
        if best_delays.1 == 3 {
            let mut improved = true;
            while improved {
                improved = false;
                for pos in 0..3 {
                    let center = best_delays.0[pos] as i64;
                    for delta in -4i64..=4 {
                        let cand = center + delta;
                        if cand < 0 || cand as usize > n || cand == center {
                            continue;
                        }
                        let mut delays = best_delays.0;
                        delays[pos] = cand as u16;
                        let (z0, z1) = zin[delays[0] as usize];
                        let mut m = col_scale2(&tables.g, z0, z1);
                        for &d in &delays[1..] {
                            m = mul2(&tables.gz[d as usize], &m);
                        }
                        let (fid, a, b) = fid_free_out2(&m, &td);
                        let err = 1.0 - fid;
                        if err < best_err {
                            best_delays = (delays, 3);
                            best_ab = (a, b);
                            best_err = err;
                            improved = true;
                        }
                    }
                }
            }
        }
        finish(best_delays, best_ab, best_err)
    }
}

const N_DELAYS: [usize; 5] = [0, 3, 7, 9, 255];
const ERR_TARGETS: [f64; 3] = [0.0, 1e-4, 1e-2];
const PHI_INS: [f64; 2] = [0.0, 0.83];
const DRIFTED_BASES: usize = 16;

/// A drifted basis: `Rz(a)·Ry(π/2 + b)·Rz(c)` with seeded small angles,
/// shrunk by a seeded leakage factor, on a seeded phase lattice.
fn drifted(rng: &mut StdRng, n_delays: usize) -> OptBasis {
    let mut angle = |span: f64| rng.gen_range(-span..span);
    let (a, b, c) = (angle(0.3), angle(0.1), angle(0.3));
    let shrink = 1.0 - angle(0.01).abs();
    OptBasis {
        ubs: gates::rz(a)
            .matmul(&gates::ry(PI / 2.0 + b))
            .matmul(&gates::rz(c))
            .scale(C64::real(shrink)),
        phase_per_tick: rng.gen_range(0.0..2.0 * PI),
        n_delays,
    }
}

fn targets(rng: &mut StdRng) -> Vec<(String, CMat)> {
    let mut ts = vec![
        ("X".to_string(), gates::x()),
        ("Y".to_string(), gates::y()),
        ("H".to_string(), gates::h()),
        ("S".to_string(), gates::s()),
        ("T".to_string(), gates::t()),
    ];
    let mut angle = || rng.gen_range(-PI..PI);
    let (theta, phi, lam) = (angle(), angle(), angle());
    ts.push((
        format!("U({theta:.3},{phi:.3},{lam:.3})"),
        gates::u_zyz(theta, phi, lam),
    ));
    ts
}

/// Asserts bit-identical results for every target, cycle budget, error
/// target and incoming residual on one basis; returns the case count.
fn check_basis(label: &str, basis: &OptBasis, rng: &mut StdRng) -> usize {
    let new_tables = OptTables::build(basis);
    let old_tables = oracle::OptTables::build(basis);
    let mut cases = 0;
    for (name, target) in targets(rng) {
        for max_cycles in 1..=3 {
            for err_target in ERR_TARGETS {
                for phi_in in PHI_INS {
                    let got =
                        decompose_opt_with(&new_tables, &target, phi_in, max_cycles, err_target);
                    let want = oracle::decompose_opt_with(
                        &old_tables,
                        &target,
                        phi_in,
                        max_cycles,
                        err_target,
                    );
                    let case = format!(
                        "{label} n={} {name} L<={max_cycles} err_target={err_target:e} phi_in={phi_in}",
                        basis.n_delays
                    );
                    assert_eq!(got.delays, want.delays, "{case}: delays");
                    assert_eq!(
                        got.phi_in_used.to_bits(),
                        want.phi_in_used.to_bits(),
                        "{case}: phi_in_used"
                    );
                    assert_eq!(
                        got.phi_out.to_bits(),
                        want.phi_out.to_bits(),
                        "{case}: phi_out {} vs {}",
                        got.phi_out,
                        want.phi_out
                    );
                    assert_eq!(
                        got.error.to_bits(),
                        want.error.to_bits(),
                        "{case}: error {:e} vs {:e}",
                        got.error,
                        want.error
                    );
                    cases += 1;
                }
            }
        }
    }
    cases
}

#[test]
fn vectorized_scan_matches_the_scalar_oracle_bit_for_bit() {
    // Debug builds cover every delay count, but only the ideal basis and
    // one drifted basis at the full 256-delay lattice.
    let full_bases = if cfg!(debug_assertions) {
        1
    } else {
        DRIFTED_BASES
    };
    let mut cases = 0;
    for n_delays in N_DELAYS {
        let mut rng = StdRng::seed_from_u64(0x0D1F_F000 + n_delays as u64);
        cases += check_basis("ideal", &OptBasis::ideal(n_delays), &mut rng);
        let drifted_bases = if n_delays == 255 {
            full_bases
        } else {
            DRIFTED_BASES
        };
        for i in 0..drifted_bases {
            let basis = drifted(&mut rng, n_delays);
            cases += check_basis(&format!("drifted#{i}"), &basis, &mut rng);
        }
    }
    // 6 targets × 3 cycle budgets × 3 error targets × 2 residuals per basis.
    let bases = (N_DELAYS.len() - 1) * (1 + DRIFTED_BASES) + 1 + full_bases;
    assert_eq!(cases, bases * 6 * 3 * 3 * 2);
}

/// A basis with strong, uneven leakage: `Rz(a)·Ry(π/2 + b)·diag(s0, s1)·Rz(c)`
/// with each `s` in `[0.5, 0.9]`.
fn strongly_leaky(rng: &mut StdRng, n_delays: usize) -> OptBasis {
    let mut angle = |span: f64| rng.gen_range(-span..span);
    let (a, b, c) = (angle(0.3), angle(0.1), angle(0.3));
    let (s0, s1) = (0.7 + angle(0.2), 0.7 + angle(0.2));
    OptBasis {
        ubs: gates::rz(a)
            .matmul(&gates::ry(PI / 2.0 + b))
            .matmul(&CMat::diag(&[C64::real(s0), C64::real(s1)]))
            .matmul(&gates::rz(c)),
        phase_per_tick: rng.gen_range(0.0..2.0 * PI),
        n_delays,
    }
}

#[test]
fn pruning_stress_cases_match_the_scalar_oracle() {
    // In debug builds, one basis of each kind at the full 256-delay lattice.
    let per_kind = if cfg!(debug_assertions) { 1 } else { 4 };
    let mut cases = 0;
    for n_delays in N_DELAYS {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + n_delays as u64);
        let kinds = if n_delays == 255 { per_kind } else { 4 };
        for i in 0..kinds {
            let basis = strongly_leaky(&mut rng, n_delays);
            cases += check_basis(&format!("leaky#{i}"), &basis, &mut rng);

            // θ_d = 0 for every d: all rows equal, all entries of a row equal.
            let still = OptBasis {
                phase_per_tick: 0.0,
                ..drifted(&mut rng, n_delays)
            };
            cases += check_basis(&format!("still#{i}"), &still, &mut rng);

            let mut nan = drifted(&mut rng, n_delays);
            let (r, c) = (i / 2 % 2, i % 2);
            nan.ubs[(r, c)] = C64::new(nan.ubs[(r, c)].re, f64::NAN);
            cases += check_basis(&format!("nan({r},{c})#{i}"), &nan, &mut rng);
        }
    }
    let bases = 3 * ((N_DELAYS.len() - 1) * 4 + per_kind);
    assert_eq!(cases, bases * 6 * 3 * 3 * 2);
}
