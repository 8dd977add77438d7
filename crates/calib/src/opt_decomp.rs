//! Per-qubit gate decomposition for DigiQ_opt (§V-A).
//!
//! A DigiQ_opt controller cycle broadcasts the stored Ry(π/2) bitstream
//! delayed by a per-cycle value `d`, realizing (in the qubit frame)
//! `Rz(−θ_d)·Ubs·Rz(θ_d)` with `θ_d = d·2π·f·T_clk`. Chaining `L` cycles
//! and absorbing the trailing rotation into the next gate, an arbitrary
//! target is approximated as
//!
//! ```text
//! U ≈ Rz(φ_out)·Ubs·Rz(θ_{d_{L-1}})·…·Ubs·Rz(θ_{d_0} + φ_in)
//! ```
//!
//! where `φ_in` is the residual absorbed from the previous gate (free,
//! tracked by the compiler), `φ_out` is this gate's own residual, and each
//! middle angle is quantized to the qubit's 256 reachable delay phases.
//! The search "chooses sets of delays holistically … numerically searching
//! for the best combination" — here an exact enumeration over delay
//! tuples with the two boundary rotations maximized in closed form, using
//! `L ≤ 2` and escalating to `L = 3` for near-π rotations exactly as the
//! paper reports.

use crate::parking::rz_error_for_offset;
use qsim::complex::C64;
use qsim::matrix::CMat;
use std::f64::consts::PI;

/// The calibrated per-qubit basis for DigiQ_opt decomposition.
#[derive(Debug, Clone)]
pub struct OptBasis {
    /// Qubit-subspace block (2×2, sub-unitary with leakage) of the basis
    /// operation this qubit's shared bitstream actually implements.
    pub ubs: CMat,
    /// Reachable delay phase per clock tick: `2π·f_actual·T_clk mod 2π`.
    pub phase_per_tick: f64,
    /// Number of delay steps `N` (256 phases including zero).
    pub n_delays: usize,
}

impl OptBasis {
    /// Builds the basis from a 6-level basis operation (projecting the
    /// qubit block) and the qubit's actual frequency.
    ///
    /// # Panics
    ///
    /// Panics if the basis op is smaller than 2×2.
    pub fn new(ubs_full: &CMat, actual_freq_ghz: f64, clock_ns: f64, n_delays: usize) -> Self {
        assert!(ubs_full.rows() >= 2);
        OptBasis {
            ubs: ubs_full.top_left_block(2),
            phase_per_tick: (2.0 * PI * actual_freq_ghz * clock_ns).rem_euclid(2.0 * PI),
            n_delays,
        }
    }

    /// The idealized basis (exact Ry(π/2), no drift) — the reference point
    /// of §V-A's "in the ideal case, L ≤ 2 is enough".
    pub fn ideal(n_delays: usize) -> Self {
        OptBasis {
            ubs: qsim::gates::ry(PI / 2.0),
            // Uniform coverage: exactly the 256-point lattice.
            phase_per_tick: 2.0 * PI * 63.0 / 256.0,
            n_delays,
        }
    }

    /// Reachable Rz angle for delay `d`.
    pub fn theta(&self, d: usize) -> f64 {
        (d as f64 * self.phase_per_tick).rem_euclid(2.0 * PI)
    }
}

/// An opt-mode decomposition: delays for each Ubs firing plus boundary
/// rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct OptDecomposition {
    /// Delay value before each Ubs firing (`L = delays.len()` cycles).
    pub delays: Vec<u16>,
    /// Continuous rotation folded into the *incoming* residual (already
    /// includes the provided `phi_in`).
    pub phi_in_used: f64,
    /// Residual rotation handed to the next gate.
    pub phi_out: f64,
    /// Average gate error of the realized operation vs. the target.
    pub error: f64,
}

impl OptDecomposition {
    /// Number of controller cycles consumed.
    pub fn cycles(&self) -> usize {
        self.delays.len()
    }
}

/// `Rz(θ)` as a 2×2 matrix (local helper).
fn rzm(theta: f64) -> CMat {
    qsim::gates::rz(theta)
}

/// Row-major scalar 2×2 product `a·b` — the decomposition scans run
/// millions of these, so they stay on the stack instead of going through
/// heap-backed `CMat`s.
#[inline]
fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Scales the columns of a row-major 2×2 by a diagonal `(z0, z1)` — i.e.
/// `a · diag(z0, z1)`.
#[inline]
fn col_scale2(a: &[C64; 4], z0: C64, z1: C64) -> [C64; 4] {
    [a[0] * z0, a[1] * z1, a[2] * z0, a[3] * z1]
}

/// Fidelity of `Rz(φ_out)·M` vs the target maximized over `φ_out` in
/// closed form: `max_φ |tr(T†·Rz(φ)·M)| = |(M·T†)₀₀| + |(M·T†)₁₁|`.
///
/// `td` is the target's dagger (row-major), hoisted out by the caller.
/// Returns the fidelity plus the two diagonal entries `a`, `b` of `M·T†`;
/// the optimal phase `φ = arg(a) − arg(b)` is derived lazily for the
/// winning candidate only (two `atan2`s per decomposition instead of two
/// per scan entry).
#[inline]
fn fid_free_out2(m: &[C64; 4], td: &[C64; 4]) -> (f64, C64, C64) {
    let a = m[0] * td[0] + m[1] * td[2];
    let b = m[2] * td[1] + m[3] * td[3];
    let overlap = a.abs2().sqrt() + b.abs2().sqrt();
    let mm = m[0].abs2() + m[1].abs2() + m[2].abs2() + m[3].abs2();
    let fid = ((mm + overlap * overlap) / 6.0).clamp(0.0, 1.0);
    (fid, a, b)
}

/// Precomputed per-basis tables for [`decompose_opt`]: the reachable
/// angles plus the basis products every scan re-derives — `G·Rz(θ_d)` and
/// `W(d) = G·Rz(θ_d)·G` for all `n_delays + 1` delay values, as stack 2×2s.
///
/// Building the tables is one pass over the delay lattice; decomposing
/// against prebuilt tables is then allocation-free in the scan loops.
/// Batched callers (the error model decomposes 24 targets per qubit
/// against one basis) build the tables once and reuse them.
#[derive(Debug, Clone)]
pub struct OptTables {
    /// θ_d for `d ∈ [0, n_delays]`.
    thetas: Vec<f64>,
    /// The 2×2 basis block `G`, row-major.
    g: [C64; 4],
    /// `G·Rz(θ_d)` per delay.
    gz: Vec<[C64; 4]>,
    /// `W(d) = G·Rz(θ_d)·G` per delay.
    w: Vec<[C64; 4]>,
}

impl OptTables {
    /// Builds the delay tables for a basis.
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

    /// Number of delay steps `N` (the tables cover `d ∈ [0, N]`).
    pub fn n_delays(&self) -> usize {
        self.thetas.len() - 1
    }
}

/// Decomposes `target` (2×2 unitary) on the given basis, consuming an
/// incoming residual `phi_in`, with at most `max_cycles` Ubs firings.
/// Stops early once `err_target` is met; always returns the best found.
///
/// Builds the delay tables on the fly; callers decomposing many targets
/// against one basis should build [`OptTables`] once and call
/// [`decompose_opt_with`].
///
/// # Panics
///
/// Panics if `max_cycles == 0` or `target` is not 2×2.
pub fn decompose_opt(
    target: &CMat,
    basis: &OptBasis,
    phi_in: f64,
    max_cycles: usize,
    err_target: f64,
) -> OptDecomposition {
    decompose_opt_with(
        &OptTables::build(basis),
        target,
        phi_in,
        max_cycles,
        err_target,
    )
}

/// [`decompose_opt`] against prebuilt delay tables.
///
/// # Panics
///
/// Panics if `max_cycles == 0` or `target` is not 2×2.
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
    // Incoming boundary diagonal per d0: Rz(θ_{d0} + φ_in).
    let zin: Vec<(C64, C64)> = tables
        .thetas
        .iter()
        .map(|&th| {
            let z = th + phi_in;
            (C64::cis(-z / 2.0), C64::cis(z / 2.0))
        })
        .collect();

    // Best candidate so far: delay tuple + the M·T† diagonal that yields
    // its φ_out (converted to an angle once, at the end).
    let mut best_delays = ([0u16; 3], 1u8);
    let mut best_ab = (C64::ONE, C64::ONE);
    let mut best_err = f64::INFINITY;

    // L = 1: M = G·Rz(θ_{d0} + φ_in).
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

    // L = 2: M = W(d1)·Rz(θ_{d0}+φ_in) with W = G·Rz·G prebuilt; the scan
    // body is a column scale + the closed-form fidelity, nothing else.
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

    // L = 3 (the paper: "a subset of gates nearing π rotations … need
    // L = 3"): extend the best L=2 stems, plus a coarse uniform stem grid
    // (the optimal L=3 region need not contain any good L=2 prefix).
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
    // Local refinement of the winning tuple: coordinate descent over ±4
    // neighbourhoods (closes the gap the coarse stem grid leaves).
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

/// Reconstructs the 2×2 operation a decomposition realizes (including the
/// boundary rotations) — used by tests and the error model.
pub fn realize_opt(basis: &OptBasis, dec: &OptDecomposition) -> CMat {
    let mut m = rzm(dec.phi_in_used + basis.theta(dec.delays[0] as usize));
    m = basis.ubs.matmul(&m);
    for &d in &dec.delays[1..] {
        m = basis.ubs.matmul(&rzm(basis.theta(d as usize))).matmul(&m);
    }
    rzm(dec.phi_out).matmul(&m)
}

/// The worst-case single-delay Rz error of a basis (diagnostic tying this
/// module back to the Table II coverage analysis).
pub fn coverage_error(basis: &OptBasis) -> f64 {
    let mut phases: Vec<f64> = (0..=basis.n_delays).map(|d| basis.theta(d)).collect();
    phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut gap: f64 = 2.0 * PI - phases.last().unwrap() + phases.first().unwrap();
    for w in phases.windows(2) {
        gap = gap.max(w[1] - w[0]);
    }
    rz_error_for_offset(gap / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::fidelity::average_gate_error;
    use qsim::gates;

    fn ideal() -> OptBasis {
        OptBasis::ideal(255)
    }

    #[test]
    fn ideal_basis_decomposes_standard_gates_in_two_cycles() {
        // §V-A: "in the ideal case (Ubs = Ry(π/2)), L ≤ 2 is enough for
        // all single-qubit gates" at ~1e-4 error.
        for (name, g) in [
            ("H", gates::h()),
            ("T", gates::t()),
            ("S", gates::s()),
            ("Rx(0.7)", gates::rx(0.7)),
            ("U", gates::u_zyz(1.1, 0.4, -0.9)),
        ] {
            let dec = decompose_opt(&g, &ideal(), 0.0, 2, 1e-4);
            assert!(
                dec.error < 2e-4,
                "{name}: error {:.2e} with {} cycles",
                dec.error,
                dec.cycles()
            );
            // Realized operation matches within the reported error.
            let m = realize_opt(&ideal(), &dec);
            let direct = average_gate_error(&m, &g);
            assert!((direct - dec.error).abs() < 1e-9, "{name} bookkeeping");
        }
    }

    #[test]
    fn diagonal_gates_need_one_cycle_wait_no_they_need_zero_ubs() {
        // Rz targets: with free boundary rotations even L=1 works — the
        // firing is absorbed by the boundaries.
        let dec = decompose_opt(&gates::rz(0.37), &ideal(), 0.0, 2, 1e-4);
        assert!(dec.error < 1e-4);
    }

    #[test]
    fn near_pi_rotations_benefit_from_l3() {
        // On a *drifted* basis, X/Y-like gates are the hard cases (§V-A);
        // L = 3 must do at least as well as L = 2.
        let drifted = OptBasis {
            ubs: gates::rz(0.21)
                .matmul(&gates::ry(PI / 2.0 + 0.07))
                .matmul(&gates::rz(-0.13)),
            phase_per_tick: 2.0 * PI * 0.2487,
            n_delays: 255,
        };
        let x = gates::x();
        let l2 = decompose_opt(&x, &drifted, 0.0, 2, 0.0);
        let l3 = decompose_opt(&x, &drifted, 0.0, 3, 0.0);
        assert!(l3.error <= l2.error + 1e-12);
        assert!(l3.error < 1e-3, "L3 error {:.2e}", l3.error);
    }

    #[test]
    fn phi_in_is_honoured() {
        // A nonzero incoming residual must be folded in exactly.
        let g = gates::h();
        let dec = decompose_opt(&g, &ideal(), 0.83, 2, 1e-5);
        let m = realize_opt(&ideal(), &dec);
        assert!((average_gate_error(&m, &g) - dec.error).abs() < 1e-9);
        assert!(dec.error < 2e-4);
        assert_eq!(dec.phi_in_used, 0.83);
    }

    #[test]
    fn delays_in_range() {
        let dec = decompose_opt(&gates::t(), &ideal(), 0.0, 3, 1e-6);
        for &d in &dec.delays {
            assert!((d as usize) <= 255);
        }
    }

    #[test]
    fn coverage_matches_parking_module() {
        let b = OptBasis::new(&CMat::identity(6), 6.21286, 0.040, 255);
        let here = coverage_error(&b);
        let there = crate::parking::worst_rz_error(6.21286, 0.040, 255);
        assert!((here - there).abs() < 1e-12);
    }

    #[test]
    fn drift_degrades_then_recalibration_recovers() {
        // Same bitstream on a drifted qubit: using the *nominal* basis
        // matrices to compile gives larger realized error than compiling
        // against the measured (actual) basis — the essence of §V-A.
        let nominal = ideal();
        let actual = OptBasis {
            ubs: gates::rz(0.15)
                .matmul(&gates::ry(PI / 2.0 + 0.05))
                .matmul(&gates::rz(0.08)),
            phase_per_tick: nominal.phase_per_tick + 0.006,
            n_delays: 255,
        };
        let target = gates::h();
        // Compile against nominal, run on actual.
        let dec_stale = decompose_opt(&target, &nominal, 0.0, 2, 1e-6);
        let realized_stale = realize_opt(
            &OptBasis {
                ubs: actual.ubs.clone(),
                ..nominal.clone()
            },
            &dec_stale,
        );
        let stale_err = average_gate_error(&realized_stale, &target);
        // Compile against actual.
        let dec_fresh = decompose_opt(&target, &actual, 0.0, 3, 1e-6);
        assert!(
            dec_fresh.error < stale_err,
            "recalibration should win: fresh {:.2e} vs stale {:.2e}",
            dec_fresh.error,
            stale_err
        );
        assert!(dec_fresh.error < 1e-3);
    }
}
