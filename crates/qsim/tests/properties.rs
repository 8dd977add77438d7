//! Property-based tests for the qsim numerical core.
//!
//! Randomized cases are generated with the crate's own seeded RNG (no
//! proptest offline). They pin down the algebraic invariants every other
//! crate relies on: unitarity of propagators, spectral-decomposition
//! consistency, fidelity bounds, and SU(2) group structure.

use qsim::complex::C64;
use qsim::eigen::eigh;
use qsim::expm::expm_hermitian_propagator;
use qsim::fidelity::{average_gate_fidelity, leakage};
use qsim::gates::{self, Su2};
use qsim::matrix::CMat;
use qsim::pulse::{pack_bits, unpack_bits, SfqParams, SfqPulseSim};
use qsim::rng::StdRng;
use qsim::transmon::Transmon;

const CASES: u64 = 64;

fn random_hermitian(rng: &mut StdRng, n: usize) -> CMat {
    let g = CMat::from_fn(n, n, |_, _| {
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    let gd = g.dagger();
    CMat::from_fn(n, n, |i, j| (g[(i, j)] + gd[(i, j)]) * 0.5)
}

fn random_su2(rng: &mut StdRng) -> CMat {
    gates::u_zyz(
        rng.gen_range(0.0..std::f64::consts::PI),
        rng.gen_range(-3.2..3.2),
        rng.gen_range(-3.2..3.2),
    )
}

fn random_bits(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<bool> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| rng.gen::<bool>()).collect()
}

#[test]
fn complex_field_axioms() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let a = C64::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
        let b = C64::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
        // Commutativity and distributivity.
        assert!((a * b).approx_eq(b * a, 1e-12), "case {case}");
        assert!((a + b).approx_eq(b + a, 1e-12), "case {case}");
        let c = C64::new(1.3, -0.4);
        assert!((a * (b + c)).approx_eq(a * b + a * c, 1e-9), "case {case}");
        // Conjugation is an involution and multiplicative.
        assert!(a.conj().conj().approx_eq(a, 0.0), "case {case}");
        assert!(
            (a * b).conj().approx_eq(a.conj() * b.conj(), 1e-9),
            "case {case}"
        );
        // |ab| = |a||b|.
        assert!(
            ((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn eigh_reconstructs_and_is_unitary() {
    for case in 0..CASES {
        let h = random_hermitian(&mut StdRng::seed_from_u64(case), 5);
        let e = eigh(&h);
        assert!(e.vectors.is_unitary(1e-9), "case {case}");
        assert!(e.reconstruct().approx_eq(&h, 1e-8), "case {case}");
        // Eigenvalues sorted ascending.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-10, "case {case}");
        }
    }
}

#[test]
fn propagator_unitary_and_group_law() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let h = random_hermitian(&mut rng, 4);
        let t1 = rng.gen_range(0.0..3.0);
        let t2 = rng.gen_range(0.0..3.0);
        let u1 = expm_hermitian_propagator(&h, t1);
        let u2 = expm_hermitian_propagator(&h, t2);
        let u12 = expm_hermitian_propagator(&h, t1 + t2);
        assert!(u1.is_unitary(1e-9), "case {case}");
        assert!(u2.matmul(&u1).approx_eq(&u12, 1e-8), "case {case}");
    }
}

#[test]
fn fidelity_bounds_and_phase_invariance() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let u = random_su2(&mut rng);
        let v = random_su2(&mut rng);
        #[allow(
            clippy::approx_constant,
            reason = "seeded test data: the range 0..6.28 fixes the drawn phases, TAU would move them"
        )]
        let phase = rng.gen_range(0.0..6.28);
        let f = average_gate_fidelity(&u, &v);
        assert!((0.0..=1.0).contains(&f), "case {case}");
        // Global phase on either argument changes nothing.
        let fp = average_gate_fidelity(&u.scale(C64::cis(phase)), &v);
        assert!((f - fp).abs() < 1e-10, "case {case}");
        // Self-fidelity is 1.
        assert!(
            (average_gate_fidelity(&u, &u) - 1.0).abs() < 1e-10,
            "case {case}"
        );
        // Unitaries have no leakage.
        assert!(leakage(&u) < 1e-10, "case {case}");
    }
}

#[test]
fn su2_group_axioms() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let a = random_su2(&mut rng);
        let b = random_su2(&mut rng);
        let qa = Su2::from_matrix(&a);
        let qb = Su2::from_matrix(&b);
        // Composition matches matrix product (up to phase).
        let qc = qa.compose(qb);
        let m = a.matmul(&b);
        assert!(
            gates::phase_distance(&qc.to_matrix(), &m) < 1e-9,
            "case {case}"
        );
        // Inverse law.
        // The sqrt-based metric amplifies 1e-16 rounding to ~1e-8, hence
        // the 1e-7 tolerances.
        assert!(
            qa.compose(qa.inverse()).distance(Su2::IDENTITY) < 1e-7,
            "case {case}"
        );
        // Distance symmetry and identity.
        assert!(
            (qa.distance(qb) - qb.distance(qa)).abs() < 1e-12,
            "case {case}"
        );
        assert!(qa.distance(qa) < 1e-7, "case {case}");
    }
}

#[test]
fn zyz_decomposition_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let u = random_su2(&mut rng);
        #[allow(
            clippy::approx_constant,
            reason = "seeded test data: the range 0..6.28 fixes the drawn phases, TAU would move them"
        )]
        let phase = rng.gen_range(0.0..6.28);
        let phased = u.scale(C64::cis(phase));
        let (theta, phi, lam, g) = gates::zyz_angles(&phased);
        let rebuilt = gates::u_zyz(theta, phi, lam).scale(C64::cis(g));
        assert!(
            rebuilt.approx_eq(&phased, 1e-8),
            "case {case}: err = {}",
            rebuilt.max_abs_diff(&phased)
        );
    }
}

#[test]
fn paper_form_decomposition_roundtrip() {
    for case in 0..CASES {
        let u = random_su2(&mut StdRng::seed_from_u64(case));
        let (p1, p2, p3) = gates::paper_angles(&u);
        let rebuilt = gates::u_paper(p3, p2, p1);
        assert!(gates::phase_distance(&rebuilt, &u) < 1e-8, "case {case}");
    }
}

#[test]
fn bitstream_evolution_is_unitary() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let bits = random_bits(&mut rng, 1, 120);
        let freq = rng.gen_range(4.0..7.0);
        let sim = SfqPulseSim::new(Transmon::new(freq), SfqParams::default());
        let u = sim.frame_gate(&bits);
        assert!(u.is_unitary(1e-8), "case {case}");
        // Projected gate never gains norm.
        let q = sim.frame_gate_qubit(&bits);
        assert!(leakage(&q) >= -1e-12, "case {case}");
        let fid = average_gate_fidelity(&q, &gates::id2());
        assert!((0.0..=1.0).contains(&fid), "case {case}");
    }
}

#[test]
fn bitstream_concatenation_composes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let b1 = random_bits(&mut rng, 1, 40);
        let b2 = random_bits(&mut rng, 1, 40);
        // Frame gates compose with the delay conjugation accounted for:
        // lab gates compose exactly.
        let sim = SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default());
        let mut cat = b1.clone();
        cat.extend_from_slice(&b2);
        let lhs = sim.lab_gate(&cat);
        let rhs = sim.lab_gate(&b2).matmul(&sim.lab_gate(&b1));
        assert!(lhs.approx_eq(&rhs, 1e-9), "case {case}");
    }
}

#[test]
fn pack_unpack_is_identity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let bits = random_bits(&mut rng, 0, 512);
        let packed = pack_bits(&bits);
        let back = unpack_bits(&packed, bits.len());
        assert_eq!(bits, back, "case {case}");
    }
}

#[test]
fn phase_distance_is_a_pseudometric() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let a = random_su2(&mut rng);
        let b = random_su2(&mut rng);
        let c = random_su2(&mut rng);
        let dab = gates::phase_distance(&a, &b);
        let dba = gates::phase_distance(&b, &a);
        assert!((dab - dba).abs() < 1e-9, "case {case}");
        assert!(gates::phase_distance(&a, &a) < 1e-10, "case {case}");
        // Triangle inequality (with numerical slack).
        let dac = gates::phase_distance(&a, &c);
        let dcb = gates::phase_distance(&c, &b);
        assert!(dab <= dac + dcb + 1e-9, "case {case}");
    }
}
