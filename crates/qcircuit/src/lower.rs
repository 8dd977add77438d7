//! Lowering to the DigiQ hardware gate set {single-qubit, CZ}.
//!
//! "Each circuit is then decomposed into CZ and single-qubit gates"
//! (§VI-B). The rewrites are the textbook identities:
//!
//! * `CX(c,t) = H(t)·CZ(c,t)·H(t)`
//! * `SWAP(a,b) = CX(a,b)·CX(b,a)·CX(a,b)`
//! * `CCX =` the standard 6-CX + T/T† network (Barenco et al. \[23\])
//!
//! Lowering is *semantic-preserving by construction* and verified by
//! statevector equivalence in the tests.
//!
//! # Examples
//!
//! ```
//! use qcircuit::ir::Circuit;
//! use qcircuit::lower::lower_to_cz;
//!
//! let mut c = Circuit::new(3);
//! c.ccx(0, 1, 2);
//! let low = lower_to_cz(&c);
//! assert!(low.gates().iter().all(|g| !matches!(g,
//!     qcircuit::ir::Gate::Cx{..} | qcircuit::ir::Gate::Swap{..} |
//!     qcircuit::ir::Gate::Ccx{..})));
//! ```

use crate::ir::{Circuit, Gate, OneQ};

/// Appends `CX(c,t)` as `H(t)·CZ·H(t)`.
fn emit_cx(out: &mut Circuit, c: usize, t: usize) {
    out.h(t);
    out.cz(c, t);
    out.h(t);
}

/// Appends the standard Toffoli decomposition (6 CX, 7 T/T†, 2 H), with
/// each CX further lowered to CZ form.
fn emit_ccx(out: &mut Circuit, c1: usize, c2: usize, t: usize) {
    out.h(t);
    emit_cx(out, c2, t);
    out.tdg(t);
    emit_cx(out, c1, t);
    out.t(t);
    emit_cx(out, c2, t);
    out.tdg(t);
    emit_cx(out, c1, t);
    out.t(c2);
    out.t(t);
    out.h(t);
    emit_cx(out, c1, c2);
    out.t(c1);
    out.tdg(c2);
    emit_cx(out, c1, c2);
}

/// Gates each input gate lowers to (see [`lower_to_cz`]).
fn lowered_len(g: &Gate) -> usize {
    match g {
        Gate::Cx { .. } => 3,
        Gate::Swap { .. } => 9,
        Gate::Ccx { .. } => 27,
        Gate::OneQ { .. } | Gate::Cz { .. } => 1,
    }
}

/// Lowers a circuit to {1q, CZ}: the output contains only
/// [`Gate::OneQ`] and [`Gate::Cz`]. The output is sized exactly up
/// front, so a large lowering never holds two growing buffers at once.
pub fn lower_to_cz(c: &Circuit) -> Circuit {
    let len = c.gates().iter().map(lowered_len).sum();
    let mut out = Circuit::with_capacity(c.n_qubits(), len);
    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => out.push(Gate::OneQ { q, kind }),
            Gate::Cz { a, b } => out.cz(a, b),
            Gate::Cx { c: ctl, t } => emit_cx(&mut out, ctl, t),
            Gate::Swap { a, b } => {
                emit_cx(&mut out, a, b);
                emit_cx(&mut out, b, a);
                emit_cx(&mut out, a, b);
            }
            Gate::Ccx { c1, c2, t } => emit_ccx(&mut out, c1, c2, t),
        }
    }
    debug_assert_eq!(out.len(), len, "lowered_len matches the emitters");
    out
}

/// Returns true when the circuit is already in hardware form.
pub fn is_lowered(c: &Circuit) -> bool {
    c.gates()
        .iter()
        .all(|g| matches!(g, Gate::OneQ { .. } | Gate::Cz { .. }))
}

/// Asserts that a circuit is in hardware form ({1q, CZ} only) — the
/// shared entry guard of every pass that consumes lowered circuits
/// (routing, scheduling, fusion, both execution engines).
///
/// # Panics
///
/// Panics with a typed message naming the offending pass, gate, and gate
/// index when the circuit contains `CX`/`SWAP`/`CCX` gates; run
/// [`lower_to_cz`] first.
pub fn assert_lowered(c: &Circuit, who: &str) {
    if let Some((i, g)) = c
        .gates()
        .iter()
        .enumerate()
        .find(|(_, g)| !matches!(g, Gate::OneQ { .. } | Gate::Cz { .. }))
    {
        panic!("{who} requires a lowered circuit ({{1q, CZ}} only), but gate {i} is `{g}` — run lower_to_cz first");
    }
}

/// Fuses runs of adjacent single-qubit gates on the same qubit into one
/// `U(θ,φ,λ)` gate (the per-cycle unit DigiQ executes, §IV-A2). CZ gates
/// act as barriers. Returns the fused circuit.
pub fn fuse_single_qubit_runs(c: &Circuit) -> Circuit {
    assert_lowered(c, "fuse_single_qubit_runs");
    let mut out = Circuit::new(c.n_qubits());
    // Pending accumulated unitary per qubit.
    let mut pending: Vec<Option<qsim::CMat>> = vec![None; c.n_qubits()];

    let flush = |out: &mut Circuit, pending: &mut Vec<Option<qsim::CMat>>, q: usize| {
        if let Some(m) = pending[q].take() {
            let (theta, phi, lam, _) = qsim::gates::zyz_angles(&m);
            out.push(Gate::OneQ {
                q,
                kind: OneQ::U { theta, phi, lam },
            });
        }
    };

    for g in c.gates() {
        match *g {
            Gate::OneQ { q, kind } => {
                let m = kind.matrix();
                pending[q] = Some(match pending[q].take() {
                    Some(prev) => m.matmul(&prev),
                    None => m,
                });
            }
            Gate::Cz { a, b } => {
                flush(&mut out, &mut pending, a);
                flush(&mut out, &mut pending, b);
                out.cz(a, b);
            }
            _ => panic!("fuse_single_qubit_runs requires a lowered circuit"),
        }
    }
    for q in 0..c.n_qubits() {
        flush(&mut out, &mut pending, q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::StateVector;

    /// Statevector equivalence over all computational basis inputs.
    fn assert_equivalent(a: &Circuit, b: &Circuit, n: usize) {
        for basis in 0..(1usize << n) {
            let bits: Vec<bool> = (0..n).map(|q| (basis >> (n - 1 - q)) & 1 == 1).collect();
            let mut sa = StateVector::basis(&bits);
            let mut sb = StateVector::basis(&bits);
            sa.apply_circuit(a);
            sb.apply_circuit(b);
            // Compare up to global phase: find largest amp and align.
            let (ia, _) = sa.argmax();
            let phase = if sb.amps[ia].abs() > 1e-12 {
                sa.amps[ia] / sb.amps[ia]
            } else {
                qsim::C64::ONE
            };
            for i in 0..sa.amps.len() {
                let diff = (sa.amps[i] - sb.amps[i] * phase).abs();
                assert!(diff < 1e-9, "basis {basis}: amp {i} differs by {diff}");
            }
        }
    }

    #[test]
    fn cx_lowering_equivalent() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let low = lower_to_cz(&c);
        assert!(is_lowered(&low));
        assert_equivalent(&c, &low, 2);
    }

    #[test]
    fn swap_lowering_equivalent() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let low = lower_to_cz(&c);
        assert!(is_lowered(&low));
        assert_equivalent(&c, &low, 2);
    }

    #[test]
    fn ccx_lowering_equivalent() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let low = lower_to_cz(&c);
        assert!(is_lowered(&low));
        assert_equivalent(&c, &low, 3);
        // 6 CX → 6 CZ.
        assert_eq!(low.two_qubit_count(), 6);
    }

    #[test]
    fn mixed_circuit_lowering() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.ccx(0, 1, 2);
        c.swap(1, 2);
        c.rz(2, 0.7);
        let low = lower_to_cz(&c);
        assert!(is_lowered(&low));
        assert_equivalent(&c, &low, 3);
    }

    #[test]
    fn lowering_is_idempotent() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cz(0, 1);
        let low = lower_to_cz(&c);
        assert_eq!(low, lower_to_cz(&low));
    }

    #[test]
    fn fusion_reduces_gate_count_and_preserves_semantics() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.t(0);
        c.h(0);
        c.s(1);
        c.cz(0, 1);
        c.x(0);
        c.z(0);
        let low = lower_to_cz(&c);
        let fused = fuse_single_qubit_runs(&low);
        // h,t,h fuse to one U; s stays one U; x,z fuse to one U.
        assert_eq!(fused.len(), 4);
        assert_equivalent(&low, &fused, 2);
    }

    #[test]
    fn fusion_flushes_before_cz() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cz(0, 1);
        let fused = fuse_single_qubit_runs(&c);
        // The H must appear before the CZ.
        assert!(matches!(fused.gates()[0], Gate::OneQ { q: 0, .. }));
        assert!(matches!(fused.gates()[1], Gate::Cz { .. }));
    }

    #[test]
    fn benchmark_lowering_smoke() {
        let add = crate::bench::cuccaro_adder(2);
        let low = lower_to_cz(&add);
        assert!(is_lowered(&low));
        assert_equivalent(&add, &low, add.n_qubits());
    }
}
