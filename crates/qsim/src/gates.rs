//! Standard quantum gate constructors and SU(2) utilities.
//!
//! Provides the ideal (two-level) gate matrices used as *targets* by the
//! DigiQ calibration layer, the ZYZ Euler decomposition, and the paper's
//! `U(φ3, φ2, φ1) = Rz(φ3)·Ry(π/2)·Rz(φ2)·Ry(π/2)·Rz(φ1)` form (§IV-A2),
//! plus a canonical quaternion representation of SU(2) used by the
//! DigiQ_min meet-in-the-middle sequence search.
//!
//! # Examples
//!
//! ```
//! use qsim::gates;
//!
//! let h = gates::h();
//! let (phi1, phi2, phi3) = gates::paper_angles(&h);
//! let rebuilt = gates::u_paper(phi3, phi2, phi1);
//! // Equal up to global phase:
//! assert!(gates::phase_distance(&rebuilt, &h) < 1e-12);
//! ```

use crate::complex::C64;
use crate::matrix::{matmul_fixed, CMat};
use std::f64::consts::{FRAC_PI_2, PI};

/// 2×2 identity.
pub fn id2() -> CMat {
    CMat::identity(2)
}

/// Pauli X.
pub fn x() -> CMat {
    CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
}

/// Pauli Y.
pub fn y() -> CMat {
    CMat::from_slice(2, 2, &[C64::ZERO, -C64::I, C64::I, C64::ZERO])
}

/// Pauli Z.
pub fn z() -> CMat {
    CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
}

/// Hadamard.
pub fn h() -> CMat {
    let s = 1.0 / 2f64.sqrt();
    CMat::from_real(2, 2, &[s, s, s, -s])
}

/// Phase gate S = diag(1, i).
pub fn s() -> CMat {
    CMat::from_slice(2, 2, &[C64::ONE, C64::ZERO, C64::ZERO, C64::I])
}

/// S†.
pub fn sdg() -> CMat {
    s().dagger()
}

/// T gate = diag(1, e^{iπ/4}).
pub fn t() -> CMat {
    CMat::from_slice(2, 2, &[C64::ONE, C64::ZERO, C64::ZERO, C64::cis(PI / 4.0)])
}

/// T†.
pub fn tdg() -> CMat {
    t().dagger()
}

/// Rotation about x: `exp(−i·θ·X/2)`.
pub fn rx(theta: f64) -> CMat {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    CMat::from_slice(
        2,
        2,
        &[
            C64::real(c),
            C64::new(0.0, -s),
            C64::new(0.0, -s),
            C64::real(c),
        ],
    )
}

/// Rotation about y: `exp(−i·θ·Y/2)`.
pub fn ry(theta: f64) -> CMat {
    CMat::from_slice(2, 2, &ry_entries(theta))
}

fn ry_entries(theta: f64) -> [C64; 4] {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [C64::real(c), C64::real(-s), C64::real(s), C64::real(c)]
}

/// Rotation about z: `exp(−i·θ·Z/2) = diag(e^{−iθ/2}, e^{iθ/2})`.
pub fn rz(theta: f64) -> CMat {
    CMat::from_slice(2, 2, &rz_entries(theta))
}

fn rz_entries(theta: f64) -> [C64; 4] {
    [
        C64::cis(-theta / 2.0),
        C64::ZERO,
        C64::ZERO,
        C64::cis(theta / 2.0),
    ]
}

/// General single-qubit unitary in ZYZ form:
/// `U(θ, φ, λ) = Rz(φ)·Ry(θ)·Rz(λ)` (up to global phase, the universal
/// parameterization used by OpenQASM's `u3` modulo phase conventions).
pub fn u_zyz(theta: f64, phi: f64, lam: f64) -> CMat {
    CMat::from_slice(2, 2, &u_zyz_array(theta, phi, lam))
}

/// [`u_zyz`] as a row-major stack array, for loops that must not
/// allocate: the same products through the same fixed 2×2 core, so the
/// entries and the flop tally are identical.
pub fn u_zyz_array(theta: f64, phi: f64, lam: f64) -> [C64; 4] {
    let (mut zy, mut u) = ([C64::ZERO; 4], [C64::ZERO; 4]);
    matmul_fixed::<2>(&rz_entries(phi), &ry_entries(theta), &mut zy);
    matmul_fixed::<2>(&zy, &rz_entries(lam), &mut u);
    u
}

/// The paper's DigiQ_opt gate form (§IV-A2):
/// `U(φ3, φ2, φ1) = Rz(φ3)·Ry(π/2)·Rz(φ2)·Ry(π/2)·Rz(φ1)`.
pub fn u_paper(phi3: f64, phi2: f64, phi1: f64) -> CMat {
    rz(phi3)
        .matmul(&ry(FRAC_PI_2))
        .matmul(&rz(phi2))
        .matmul(&ry(FRAC_PI_2))
        .matmul(&rz(phi1))
}

/// CZ on two qubits = diag(1, 1, 1, −1).
pub fn cz() -> CMat {
    CMat::diag(&[C64::ONE, C64::ONE, C64::ONE, C64::real(-1.0)])
}

/// CNOT with qubit 0 as control (big-endian: basis |q0 q1⟩).
pub fn cx() -> CMat {
    CMat::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0,
        ],
    )
}

/// SWAP on two qubits.
pub fn swap() -> CMat {
    CMat::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0,
        ],
    )
}

/// ZYZ Euler angles of an arbitrary 2×2 unitary.
///
/// Returns `(theta, phi, lam, phase)` such that
/// `U = e^{i·phase} · Rz(phi) · Ry(theta) · Rz(lam)`, with
/// `theta ∈ [0, π]`.
///
/// # Panics
///
/// Panics if `u` is not 2×2.
pub fn zyz_angles(u: &CMat) -> (f64, f64, f64, f64) {
    assert_eq!((u.rows(), u.cols()), (2, 2), "zyz_angles requires 2x2");
    // Normalize to SU(2): V = U / sqrt(det U).
    let det = u[(0, 0)] * u[(1, 1)] - u[(0, 1)] * u[(1, 0)];
    let root = det.sqrt();
    let v00 = u[(0, 0)] / root;
    let v10 = u[(1, 0)] / root;

    // V = [[e^{-i(φ+λ)/2} c, -e^{-i(φ-λ)/2} s], [e^{i(φ-λ)/2} s, ...]]
    let c = v00.abs().min(1.0);
    let theta = 2.0 * c.acos();
    let (phi, lam) = if v00.abs() > 1e-12 && v10.abs() > 1e-12 {
        let sum = -2.0 * v00.arg(); // φ+λ
        let diff = 2.0 * v10.arg(); // φ−λ
        ((sum + diff) / 2.0, (sum - diff) / 2.0)
    } else if v00.abs() > 1e-12 {
        // θ ≈ 0: only φ+λ matters.
        (-2.0 * v00.arg(), 0.0)
    } else {
        // θ ≈ π: only φ−λ matters; V ≈ [[0, -e^{-i(φ-λ)/2} s], ...]
        (2.0 * v10.arg(), 0.0)
    };
    // Global phase: e^{i·phase} = root adjusted so reconstruction matches.
    let rebuilt = u_zyz(theta, phi, lam);
    // Find phase from the largest entry.
    let mut phase = 0.0;
    let mut best = 0.0;
    for i in 0..2 {
        for j in 0..2 {
            let m = rebuilt[(i, j)].abs();
            if m > best {
                best = m;
                phase = (u[(i, j)] / rebuilt[(i, j)]).arg();
            }
        }
    }
    (theta, phi, lam, phase)
}

/// DigiQ_opt decomposition angles (§IV-A2): returns `(φ1, φ2, φ3)` with
/// `U ∝ Rz(φ3)·Ry(π/2)·Rz(φ2)·Ry(π/2)·Rz(φ1)` up to global phase.
///
/// Derivation: with ZYZ angles `(θ, φ, λ)`, the identity
/// `Ry(π/2)·Rz(π−θ)·Ry(π/2) = ±Rz(π/2)·Ry(θ)·Rz(π/2)` yields
/// `φ1 = λ − π/2`, `φ2 = π − θ`, `φ3 = φ − π/2`.
///
/// # Panics
///
/// Panics if `u` is not 2×2.
pub fn paper_angles(u: &CMat) -> (f64, f64, f64) {
    let (theta, phi, lam, _) = zyz_angles(u);
    (lam - FRAC_PI_2, PI - theta, phi - FRAC_PI_2)
}

/// Phase-insensitive distance between two equal-shaped matrices:
/// `min_φ ‖A − e^{iφ}B‖_F / √dim`. Zero iff the gates are identical up to
/// global phase.
///
/// # Panics
///
/// Panics if shapes differ or matrices are not square.
pub fn phase_distance(a: &CMat, b: &CMat) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let n = a.rows() as f64;
    // ‖A − e^{iφ}B‖ is minimized at e^{iφ} = tr(B†A)/|tr(B†A)|; subtracting
    // directly (rather than expanding the square) avoids catastrophic
    // cancellation when the distance is near zero.
    let ip = b.dagger().matmul(a).trace();
    let phase = if ip.abs() > 0.0 {
        C64::cis(ip.arg())
    } else {
        C64::ONE
    };
    (a - &b.scale(phase)).frobenius_norm() / n.sqrt()
}

/// An element of SU(2) in unit-quaternion form.
///
/// `U = w·I − i(x·X + y·Y + z·Z)` with `w² + x² + y² + z² = 1`. The sign
/// ambiguity (`q` and `−q` encode the same physical gate) is resolved by
/// [`Su2::canonicalize`], enabling use as a spatial-hash key in the
/// DigiQ_min sequence database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Su2 {
    /// Scalar (identity) component.
    pub w: f64,
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Su2 {
    /// The identity gate.
    pub const IDENTITY: Su2 = Su2 {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Builds from a 2×2 unitary, stripping global phase (projecting U(2)
    /// onto SU(2) and canonicalizing the quaternion sign).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not 2×2.
    pub fn from_matrix(u: &CMat) -> Su2 {
        assert_eq!((u.rows(), u.cols()), (2, 2));
        let det = u[(0, 0)] * u[(1, 1)] - u[(0, 1)] * u[(1, 0)];
        let root = det.sqrt();
        let a = u[(0, 0)] / root; // = w − i z
        let b = u[(0, 1)] / root; // = −i x − y
        Su2 {
            w: a.re,
            x: -b.im,
            y: -b.re,
            z: -a.im,
        }
        .canonicalize()
    }

    /// Converts back to the 2×2 matrix representation.
    pub fn to_matrix(self) -> CMat {
        CMat::from_slice(
            2,
            2,
            &[
                C64::new(self.w, -self.z),
                C64::new(-self.y, -self.x),
                C64::new(self.y, -self.x),
                C64::new(self.w, self.z),
            ],
        )
    }

    /// Group composition: `self · rhs` (apply `rhs` first). Quaternion
    /// multiplication, then sign canonicalization.
    pub fn compose(self, rhs: Su2) -> Su2 {
        let (w1, x1, y1, z1) = (self.w, self.x, self.y, self.z);
        let (w2, x2, y2, z2) = (rhs.w, rhs.x, rhs.y, rhs.z);
        Su2 {
            w: w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            x: w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            y: w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            z: w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        }
        .canonicalize()
    }

    /// Group inverse (adjoint).
    pub fn inverse(self) -> Su2 {
        Su2 {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
        .canonicalize()
    }

    /// Fixes the `±q` ambiguity: flips sign so the first component of
    /// `(w, x, y, z)` with magnitude above 1e-12 is positive, and
    /// renormalizes to exactly unit length.
    pub fn canonicalize(self) -> Su2 {
        let n = (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt();
        let mut q = Su2 {
            w: self.w / n,
            x: self.x / n,
            y: self.y / n,
            z: self.z / n,
        };
        let flip = if q.w.abs() > 1e-12 {
            q.w < 0.0
        } else if q.x.abs() > 1e-12 {
            q.x < 0.0
        } else if q.y.abs() > 1e-12 {
            q.y < 0.0
        } else {
            q.z < 0.0
        };
        if flip {
            q = Su2 {
                w: -q.w,
                x: -q.x,
                y: -q.y,
                z: -q.z,
            };
        }
        q
    }

    /// Phase-insensitive gate distance in `[0, √2]`:
    /// `√(1 − |⟨q1, q2⟩|)·√2`, monotone in the average-gate-infidelity.
    pub fn distance(self, other: Su2) -> f64 {
        let dot = self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z;
        (2.0 * (1.0 - dot.abs()).max(0.0)).sqrt()
    }

    /// `|tr(U†V)|/2 ∈ [0, 1]`; 1 iff equal up to global phase.
    pub fn trace_overlap(self, other: Su2) -> f64 {
        (self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paulis_from_rotations() {
        // Rx(π) = −iX, Ry(π) = −iY, Rz(π) = −iZ (up to phase).
        assert!(phase_distance(&rx(PI), &x()) < 1e-12);
        assert!(phase_distance(&ry(PI), &y()) < 1e-12);
        assert!(phase_distance(&rz(PI), &z()) < 1e-12);
    }

    #[test]
    fn hadamard_properties() {
        let hh = h().matmul(&h());
        assert!(hh.approx_eq(&id2(), 1e-14));
        // HXH = Z
        let hxh = h().matmul(&x()).matmul(&h());
        assert!(hxh.approx_eq(&z(), 1e-14));
    }

    #[test]
    fn t_squared_is_s() {
        assert!(t().matmul(&t()).approx_eq(&s(), 1e-14));
        assert!(s().matmul(&sdg()).approx_eq(&id2(), 1e-14));
        assert!(t().matmul(&tdg()).approx_eq(&id2(), 1e-14));
    }

    #[test]
    fn all_standard_gates_unitary() {
        for g in [id2(), x(), y(), z(), h(), s(), sdg(), t(), tdg()] {
            assert!(g.is_unitary(1e-13));
        }
        for g in [rx(0.4), ry(1.3), rz(-2.1), u_zyz(0.5, 1.1, -0.7)] {
            assert!(g.is_unitary(1e-13));
        }
        for g in [cz(), cx(), swap()] {
            assert!(g.is_unitary(1e-13));
        }
    }

    #[test]
    fn cx_from_cz_and_hadamards() {
        // CX = (I⊗H)·CZ·(I⊗H)
        let ih = id2().kron(&h());
        let built = ih.matmul(&cz()).matmul(&ih);
        assert!(built.approx_eq(&cx(), 1e-13));
    }

    #[test]
    fn zyz_roundtrip_standard_gates() {
        for g in [x(), y(), z(), h(), s(), t(), rx(0.3), ry(2.0), rz(1.2)] {
            let (theta, phi, lam, phase) = zyz_angles(&g);
            let rebuilt = u_zyz(theta, phi, lam).scale(C64::cis(phase));
            assert!(
                rebuilt.approx_eq(&g, 1e-10),
                "zyz roundtrip failed, err={}",
                rebuilt.max_abs_diff(&g)
            );
        }
    }

    #[test]
    fn zyz_roundtrip_random_unitaries() {
        for k in 0..32 {
            let a = 0.1 + 0.37 * k as f64;
            let g = u_zyz(a % PI, (1.7 * a) % (2.0 * PI), (0.9 * a) % (2.0 * PI))
                .scale(C64::cis(0.23 * a));
            let (theta, phi, lam, phase) = zyz_angles(&g);
            let rebuilt = u_zyz(theta, phi, lam).scale(C64::cis(phase));
            assert!(rebuilt.approx_eq(&g, 1e-9));
            assert!((0.0..=PI + 1e-9).contains(&theta));
        }
    }

    #[test]
    fn paper_form_reproduces_gates() {
        for g in [
            id2(),
            x(),
            y(),
            z(),
            h(),
            s(),
            t(),
            rx(0.7),
            ry(2.4),
            rz(-1.3),
            u_zyz(1.0, 0.5, -2.0),
        ] {
            let (p1, p2, p3) = paper_angles(&g);
            let rebuilt = u_paper(p3, p2, p1);
            assert!(
                phase_distance(&rebuilt, &g) < 1e-9,
                "paper form failed: dist={}",
                phase_distance(&rebuilt, &g)
            );
        }
    }

    #[test]
    fn phase_distance_detects_difference() {
        assert!(phase_distance(&x(), &x().scale(C64::cis(1.0))) < 1e-12);
        assert!(phase_distance(&x(), &y()) > 0.5);
        assert!(phase_distance(&id2(), &z()) > 0.5);
    }

    #[test]
    fn su2_matrix_roundtrip() {
        for g in [x(), y(), z(), h(), s(), t(), rx(0.3), ry(1.1)] {
            let q = Su2::from_matrix(&g);
            assert!(
                phase_distance(&q.to_matrix(), &g) < 1e-12,
                "su2 roundtrip failed"
            );
        }
    }

    #[test]
    fn su2_composition_matches_matrix_product() {
        let a = Su2::from_matrix(&h());
        let b = Su2::from_matrix(&t());
        let c = a.compose(b);
        let m = h().matmul(&t());
        assert!(phase_distance(&c.to_matrix(), &m) < 1e-12);
    }

    #[test]
    fn su2_inverse() {
        let q = Su2::from_matrix(&u_zyz(0.9, 0.4, 1.8));
        let prod = q.compose(q.inverse());
        assert!(prod.distance(Su2::IDENTITY) < 1e-12);
    }

    #[test]
    fn su2_distance_properties() {
        let a = Su2::from_matrix(&h());
        assert!(a.distance(a) < 1e-12);
        let b = Su2::from_matrix(&t());
        assert!((a.distance(b) - b.distance(a)).abs() < 1e-14);
        assert!(a.trace_overlap(a) > 1.0 - 1e-12);
    }

    #[test]
    fn su2_canonical_sign_is_stable() {
        let q = Su2::from_matrix(&t());
        let negated = Su2 {
            w: -q.w,
            x: -q.x,
            y: -q.y,
            z: -q.z,
        }
        .canonicalize();
        assert!((q.w - negated.w).abs() < 1e-14);
        assert!((q.z - negated.z).abs() < 1e-14);
    }
}
