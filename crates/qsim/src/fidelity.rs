//! Gate fidelity measures with leakage accounting.
//!
//! DigiQ (§V) reports gate errors as `ε = 1 − F̄` where `F̄` is the *average
//! gate fidelity* of the evolution projected onto the computational
//! subspace. Projection makes the evolution sub-unitary, and the standard
//! formula (Nielsen \[44\], extended to non-unitary maps by Ghosh/Pedersen
//! \[45\]) then automatically counts leakage out of the subspace as error:
//!
//! ```text
//! F̄(M, V) = [ Tr(M†M) + |Tr(V†M)|² ] / (d(d+1))
//! ```
//!
//! with `M` the projected evolution, `V` the `d × d` unitary target.
//!
//! # Examples
//!
//! ```
//! use qsim::gates;
//! use qsim::fidelity::average_gate_fidelity;
//!
//! let f = average_gate_fidelity(&gates::x(), &gates::x());
//! assert!((f - 1.0).abs() < 1e-12);
//! ```

use crate::complex::C64;
use crate::matrix::CMat;

/// `Tr(M†M)` of a row-major `n × n` slice as a direct O(n²) column sum —
/// no dagger/product matrices.
///
/// Accumulation order matches the historical `m.dagger().matmul(m).trace()`
/// chain exactly (diagonal index ascending, inner index ascending, real
/// part at the end), so results are bitwise-identical to the allocating
/// path — the golden files depend on that.
#[inline]
fn trace_mdm(n: usize, d: &[C64]) -> f64 {
    let mut tr = 0.0;
    for i in 0..n {
        let mut di = 0.0;
        for k in 0..n {
            let a = d[k * n + i];
            di += a.re * a.re + a.im * a.im;
        }
        tr += di;
    }
    tr
}

/// `Tr(V†M)` of row-major `n × n` slices as a direct O(n²) column sum
/// (same ordering contract as [`trace_mdm`]).
#[inline]
fn trace_vdm(n: usize, vd: &[C64], md: &[C64]) -> C64 {
    let mut tr = C64::ZERO;
    for i in 0..n {
        let mut di = C64::ZERO;
        for k in 0..n {
            let a = vd[k * n + i]; // V†[i][k] = conj(V[k][i])
            let b = md[k * n + i];
            di.re += a.re * b.re + a.im * b.im;
            di.im += a.re * b.im - a.im * b.re;
        }
        tr += di;
    }
    tr
}

/// [`average_gate_fidelity`] of row-major `d × d` slices: the kernel the
/// matrix form delegates to, callable directly on stack arrays by loops
/// that must not allocate.
///
/// # Panics
///
/// Panics if a slice is shorter than `d·d`.
#[inline]
pub fn average_gate_fidelity_slice(d: usize, m: &[C64], v: &[C64]) -> f64 {
    let mdm = trace_mdm(d, m);
    let ov = trace_vdm(d, v, m).abs2();
    let d = d as f64;
    ((mdm + ov) / (d * (d + 1.0))).clamp(0.0, 1.0)
}

/// [`average_gate_error`] of row-major `d × d` slices (see
/// [`average_gate_fidelity_slice`]).
#[inline]
pub fn average_gate_error_slice(d: usize, m: &[C64], v: &[C64]) -> f64 {
    1.0 - average_gate_fidelity_slice(d, m, v)
}

/// Average gate fidelity of (possibly sub-unitary) evolution `m` against
/// unitary target `v`, both `d × d`.
///
/// Returns a value in `[0, 1]`; equals 1 iff `m = e^{iφ}·v`.
///
/// # Panics
///
/// Panics if shapes differ or are not square.
pub fn average_gate_fidelity(m: &CMat, v: &CMat) -> f64 {
    assert!(m.is_square() && v.is_square());
    assert_eq!(m.rows(), v.rows(), "fidelity: dimension mismatch");
    average_gate_fidelity_slice(m.rows(), m.as_slice(), v.as_slice())
}

/// Average gate **error** `ε = 1 − F̄`, the quantity plotted throughout the
/// paper's evaluation (Figs 7 and 10).
pub fn average_gate_error(m: &CMat, v: &CMat) -> f64 {
    1.0 - average_gate_fidelity(m, v)
}

/// Leakage of a projected evolution: `1 − Tr(M†M)/d`, the average
/// population escaping the computational subspace.
///
/// Zero for exactly unitary `M`; positive once amplitude leaks to higher
/// levels.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn leakage(m: &CMat) -> f64 {
    assert!(m.is_square());
    let d = m.rows() as f64;
    (1.0 - trace_mdm(m.rows(), m.as_slice()) / d).max(0.0)
}

/// Combines per-gate errors into a circuit error estimate by fidelity
/// product: `ε_circuit = 1 − Π(1 − εᵢ)` (paper §VI-B2).
pub fn circuit_error<I: IntoIterator<Item = f64>>(gate_errors: I) -> f64 {
    let mut f = 1.0f64;
    for e in gate_errors {
        f *= (1.0 - e).clamp(0.0, 1.0);
    }
    1.0 - f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn perfect_gate_has_unit_fidelity() {
        for g in [gates::x(), gates::h(), gates::t(), gates::cz()] {
            assert!((average_gate_fidelity(&g, &g) - 1.0).abs() < 1e-12);
            assert!(average_gate_error(&g, &g) < 1e-12);
        }
    }

    #[test]
    fn global_phase_is_ignored() {
        let g = gates::h();
        let phased = g.scale(C64::cis(0.917));
        assert!((average_gate_fidelity(&phased, &g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_gates_have_known_fidelity() {
        // F̄(X, Z) for d=2: Tr(M†M)=2, |Tr(Z†X)|²=0 → F̄ = 2/6 = 1/3.
        let f = average_gate_fidelity(&gates::x(), &gates::z());
        assert!((f - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn small_rotation_error_is_quadratic() {
        // ε(Rz(δ) vs I) = (2/3)·sin²(δ/2) ≈ δ²/6.
        for delta in [1e-2, 1e-3, 1e-4] {
            let e = average_gate_error(&gates::rz(delta), &gates::id2());
            let expect = (2.0 / 3.0) * (delta / 2.0).sin().powi(2);
            assert!((e - expect).abs() < 1e-12, "delta={delta}");
        }
    }

    #[test]
    fn leakage_of_unitary_is_zero() {
        assert!(leakage(&gates::h()) < 1e-12);
        assert!(leakage(&gates::cz()) < 1e-12);
    }

    #[test]
    fn leakage_of_damped_evolution() {
        // M = diag(1, 0.8): Tr(M†M) = 1.64, leakage = 1 − 0.82 = 0.18.
        let m = CMat::diag(&[C64::ONE, C64::real(0.8)]);
        assert!((leakage(&m) - 0.18).abs() < 1e-12);
        // And fidelity against identity drops accordingly.
        let f = average_gate_fidelity(&m, &gates::id2());
        assert!(f < 1.0);
        assert!(f > 0.8);
    }

    #[test]
    fn process_vs_average_fidelity_relation() {
        let m = gates::rz(0.3);
        let v = gates::id2();
        let d = 2.0;
        // Entanglement (process) fidelity |Tr(V†M)|²/d².
        let fpro = trace_vdm(2, v.as_slice(), m.as_slice()).abs2() / (d * d);
        let favg = average_gate_fidelity(&m, &v);
        let expect = (d * d * fpro / d + 1.0) / (d + 1.0);
        assert!((favg - expect).abs() < 1e-12);
    }

    #[test]
    fn direct_trace_sums_match_allocating_chain_bitwise() {
        // The golden files pin decomposition scores that flow through these
        // traces, so the O(d²) sums must match the dagger/matmul/trace
        // chain to the last bit, not just approximately.
        let m = CMat::from_fn(6, 6, |i, j| {
            C64::new(
                ((i * 7 + j) as f64 * 0.37).sin(),
                ((i + 3 * j) as f64 * 0.23).cos(),
            )
        });
        let v = CMat::from_fn(6, 6, |i, j| {
            C64::new(
                ((i * 5 + j) as f64 * 0.19).cos(),
                ((2 * i + j) as f64 * 0.41).sin(),
            )
        });
        let mdm_naive = m.dagger().matmul(&m).trace().re;
        assert_eq!(trace_mdm(6, m.as_slice()).to_bits(), mdm_naive.to_bits());
        let ov_naive = v.dagger().matmul(&m).trace();
        let ov = trace_vdm(6, v.as_slice(), m.as_slice());
        assert_eq!(ov.re.to_bits(), ov_naive.re.to_bits());
        assert_eq!(ov.im.to_bits(), ov_naive.im.to_bits());
    }

    #[test]
    fn circuit_error_composition() {
        assert!(circuit_error([0.0, 0.0]) < 1e-15);
        let e = circuit_error([0.1, 0.1]);
        assert!((e - 0.19).abs() < 1e-12);
        // Small-error regime ≈ sum.
        let e2 = circuit_error(vec![1e-4; 10]);
        assert!((e2 - 1e-3).abs() < 1e-5);
    }
}
