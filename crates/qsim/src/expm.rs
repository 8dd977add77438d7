//! Matrix exponentials for quantum propagation.
//!
//! Two paths are provided:
//!
//! * [`expm_hermitian_propagator`] — the workhorse. For a Hermitian `H` it
//!   computes `U = exp(−i·H·t)` exactly through the spectral decomposition
//!   (`qsim::eigen`), which is unconditionally stable for the
//!   piecewise-constant Hamiltonians used in the CZ flux-pulse simulation.
//!   It is a pure function: no memo outlives a call, so two calls with the
//!   same input cost the same and return the same bits.
//! * [`expm_taylor`] — a scaled-and-squared Taylor series for *general*
//!   matrices, used in tests as an independent cross-check of the spectral
//!   path and for small non-Hermitian experiments.
//!
//! # Examples
//!
//! ```
//! use qsim::matrix::CMat;
//! use qsim::expm::expm_hermitian_propagator;
//! use std::f64::consts::PI;
//!
//! // exp(-i·X·π/2) = -i·X (a π rotation about x, up to phase)
//! let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
//! let u = expm_hermitian_propagator(&x, PI / 2.0);
//! assert!(u.is_unitary(1e-12));
//! ```

use crate::complex::C64;
use crate::eigen::eigh;
use crate::matrix::CMat;

/// Computes the unitary propagator `U = exp(−i·H·t)` for Hermitian `H`.
///
/// `t` is the evolution time in the same units that make `H·t`
/// dimensionless (this crate uses angular frequency × seconds).
///
/// Every call pays one Jacobi eigendecomposition plus the spectral
/// reassembly and keeps no state between calls. Callers that step the
/// same Hamiltonian many times reuse whole step propagators instead (see
/// [`crate::two_qubit::PropagatorCache`]).
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn expm_hermitian_propagator(h: &CMat, t: f64) -> CMat {
    eigh(h).map_spectrum(|lambda| C64::cis(-lambda * t))
}

/// Computes `exp(A)` for a general complex square matrix using a
/// scaling-and-squaring Taylor expansion.
///
/// The matrix is scaled by `2^−s` so its norm is below 0.5, the series is
/// summed to machine precision, and the result squared `s` times. Accuracy
/// degrades for highly non-normal matrices; for Hermitian propagation prefer
/// [`expm_hermitian_propagator`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn expm_taylor(a: &CMat) -> CMat {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    let norm = a.frobenius_norm();
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as u32
    } else {
        0
    };
    let scaled = a.scale(C64::real(1.0 / f64::powi(2.0, s as i32)));

    // The series and the squaring chain ping-pong between `result`/`term`
    // and one scratch buffer — three allocations total, none per term.
    let mut result = CMat::identity(n);
    let mut term = CMat::identity(n);
    let mut tmp = CMat::zeros(n, n);
    for k in 1..64 {
        term.matmul_into(&scaled, &mut tmp);
        tmp.scale_in_place(C64::real(1.0 / k as f64));
        std::mem::swap(&mut term, &mut tmp);
        let tn = term.frobenius_norm();
        result.add_assign(&term);
        if tn < 1e-18 {
            break;
        }
    }
    for _ in 0..s {
        result.matmul_into(&result, &mut tmp);
        std::mem::swap(&mut result, &mut tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn pauli_x() -> CMat {
        CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_z() -> CMat {
        CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn propagator_of_zero_time_is_identity() {
        let u = expm_hermitian_propagator(&pauli_x(), 0.0);
        assert!(u.approx_eq(&CMat::identity(2), 1e-14));
    }

    #[test]
    fn x_rotation_formula() {
        // exp(-i·X·θ/2) = cos(θ/2)·I − i·sin(θ/2)·X
        let theta = 0.73;
        let u = expm_hermitian_propagator(&pauli_x(), theta / 2.0);
        let expect = &CMat::identity(2).scale(C64::real((theta / 2.0).cos()))
            + &pauli_x().scale(C64::new(0.0, -(theta / 2.0).sin()));
        assert!(u.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn z_rotation_is_diagonal_phases() {
        let u = expm_hermitian_propagator(&pauli_z(), PI / 4.0);
        assert!(u[(0, 0)].approx_eq(C64::cis(-PI / 4.0), 1e-12));
        assert!(u[(1, 1)].approx_eq(C64::cis(PI / 4.0), 1e-12));
        assert_eq!(u[(0, 1)], C64::ZERO);
    }

    #[test]
    fn propagator_is_always_unitary() {
        for k in 1..8 {
            let t = k as f64 * 0.37;
            let h = CMat::from_slice(
                3,
                3,
                &[
                    C64::real(1.0),
                    C64::new(0.2, 0.1),
                    C64::ZERO,
                    C64::new(0.2, -0.1),
                    C64::real(-0.5),
                    C64::new(0.0, 0.3),
                    C64::ZERO,
                    C64::new(0.0, -0.3),
                    C64::real(2.0),
                ],
            );
            let u = expm_hermitian_propagator(&h, t);
            assert!(u.is_unitary(1e-11), "not unitary at t={t}");
        }
    }

    #[test]
    fn group_property_composition() {
        // U(t1+t2) = U(t2)·U(t1) for time-independent H.
        let h = pauli_x();
        let u1 = expm_hermitian_propagator(&h, 0.3);
        let u2 = expm_hermitian_propagator(&h, 0.9);
        let u12 = expm_hermitian_propagator(&h, 1.2);
        assert!(u2.matmul(&u1).approx_eq(&u12, 1e-11));
    }

    #[test]
    fn taylor_matches_spectral_path() {
        let h = CMat::from_slice(
            4,
            4,
            &[
                C64::real(0.5),
                C64::new(0.1, 0.2),
                C64::ZERO,
                C64::ZERO,
                C64::new(0.1, -0.2),
                C64::real(-1.0),
                C64::new(0.3, 0.0),
                C64::ZERO,
                C64::ZERO,
                C64::new(0.3, 0.0),
                C64::real(0.0),
                C64::new(0.0, 0.4),
                C64::ZERO,
                C64::ZERO,
                C64::new(0.0, -0.4),
                C64::real(1.5),
            ],
        );
        let t = 2.1;
        let spectral = expm_hermitian_propagator(&h, t);
        let taylor = expm_taylor(&h.scale(C64::new(0.0, -t)));
        assert!(
            spectral.approx_eq(&taylor, 1e-9),
            "diff = {}",
            spectral.max_abs_diff(&taylor)
        );
    }

    #[test]
    fn taylor_of_nilpotent() {
        // exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
        let n = CMat::from_real(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        let e = expm_taylor(&n);
        let expect = CMat::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(e.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn taylor_handles_large_norm_via_scaling() {
        let a = pauli_z().scale(C64::real(20.0));
        let e = expm_taylor(&a);
        assert!((e[(0, 0)].re - 20f64.exp()).abs() / 20f64.exp() < 1e-10);
        assert!((e[(1, 1)].re - (-20f64).exp()).abs() < 1e-10);
    }
}
