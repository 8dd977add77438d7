//! Differential property suite for the optimized numeric kernels.
//!
//! Every in-place / restructured hot-path kernel is pinned against a
//! naive textbook reference implementation over seeded random matrix
//! families — generic complex, Hermitian, non-normal, and NaN-containing —
//! to 1e-12 (or exactly, where the optimized path is a pure reordering).
//! The deterministic flop/allocation counters are asserted *exactly*: the
//! counts are part of the bench-compare contract in `scripts/ci.sh`, so a
//! drive-by allocation shows up here before it shows up in CI.

use qsim::complex::C64;
use qsim::counters;
use qsim::matrix::CMat;
use qsim::rng::StdRng;

fn rand_c64(rng: &mut StdRng) -> C64 {
    C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
}

/// A generic dense complex matrix.
fn random_matrix(n: usize, rng: &mut StdRng) -> CMat {
    let data: Vec<C64> = (0..n * n).map(|_| rand_c64(rng)).collect();
    CMat::from_slice(n, n, &data)
}

/// A Hermitian matrix (`A + A†` halved).
fn random_hermitian(n: usize, rng: &mut StdRng) -> CMat {
    let a = random_matrix(n, rng);
    (&a + &a.dagger()).scale(C64::real(0.5))
}

/// A deliberately non-normal matrix: strictly upper triangular with a
/// scaled diagonal, far from commuting with its adjoint.
fn random_non_normal(n: usize, rng: &mut StdRng) -> CMat {
    CMat::from_fn(n, n, |i, j| {
        if j > i {
            rand_c64(rng) * C64::real(3.0)
        } else if i == j {
            C64::real(0.1 * (i as f64 + 1.0))
        } else {
            C64::ZERO
        }
    })
}

/// A random matrix with a NaN planted at a random position.
fn random_with_nan(n: usize, rng: &mut StdRng) -> CMat {
    let mut m = random_matrix(n, rng);
    let (i, j) = (
        rng.gen_range(0..n as u64) as usize,
        rng.gen_range(0..n as u64) as usize,
    );
    let nan = C64::new(f64::NAN, 0.0);
    let d = m.as_mut_slice();
    d[i * n + j] = nan;
    m
}

/// Textbook i-j-k matmul, no zero-skips, scalar accumulator.
fn naive_matmul(a: &CMat, b: &CMat) -> CMat {
    let (r, k, c) = (a.rows(), a.cols(), b.cols());
    CMat::from_fn(r, c, |i, j| {
        let mut acc = C64::ZERO;
        for x in 0..k {
            acc += a[(i, x)] * b[(x, j)];
        }
        acc
    })
}

/// Naive allocating Taylor series for `exp(A)` (no scaling — callers pass
/// small-norm matrices).
fn naive_expm_small(a: &CMat) -> CMat {
    let n = a.rows();
    let mut result = CMat::identity(n);
    let mut term = CMat::identity(n);
    for k in 1..64 {
        term = term.matmul(a).scale(C64::real(1.0 / k as f64));
        result = &result + &term;
        if term.frobenius_norm() < 1e-18 {
            break;
        }
    }
    result
}

fn max_abs_diff(a: &CMat, b: &CMat) -> f64 {
    a.max_abs_diff(b)
}

#[test]
fn matmul_matches_naive_reference_across_families() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    for n in [1, 2, 3, 5, 8] {
        for family in 0..3 {
            let (a, b) = match family {
                0 => (random_matrix(n, &mut rng), random_matrix(n, &mut rng)),
                1 => (random_hermitian(n, &mut rng), random_hermitian(n, &mut rng)),
                _ => (
                    random_non_normal(n, &mut rng),
                    random_non_normal(n, &mut rng),
                ),
            };
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-12,
                "matmul diverged at n={n} family={family}"
            );
        }
    }
}

#[test]
fn matmul_into_is_bitwise_equal_to_matmul() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    for n in [2, 4, 7] {
        let a = random_matrix(n, &mut rng);
        let b = random_matrix(n, &mut rng);
        let owned = a.matmul(&b);
        // Start from a poisoned buffer: matmul_into must fully overwrite.
        let mut out = CMat::from_fn(n, n, |_, _| C64::new(f64::NAN, f64::INFINITY));
        a.matmul_into(&b, &mut out);
        assert_eq!(owned, out, "in-place product differs at n={n}");
    }
}

#[test]
fn matmul_propagates_nan_through_zero_entries() {
    // The historical zero-skip silently dropped NaN/Inf columns; the
    // contract now is IEEE propagation: 0·NaN = NaN reaches the output.
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    for n in [2, 3, 6] {
        let a = CMat::zeros(n, n);
        let b = random_with_nan(n, &mut rng);
        let p = a.matmul(&b);
        assert!(
            p.as_slice().iter().any(|e| e.re.is_nan() || e.im.is_nan()),
            "NaN swallowed by zero matrix at n={n}"
        );
    }
}

#[test]
fn apply_into_matches_naive_matvec() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0004);
    for n in [2, 5, 9] {
        let m = random_matrix(n, &mut rng);
        let v: Vec<C64> = (0..n).map(|_| rand_c64(&mut rng)).collect();
        let naive: Vec<C64> = (0..n)
            .map(|i| {
                let mut acc = C64::ZERO;
                for j in 0..n {
                    acc += m[(i, j)] * v[j];
                }
                acc
            })
            .collect();
        let fast = m.apply(&v);
        let mut out = vec![C64::ZERO; n];
        m.apply_into(&v, &mut out);
        for i in 0..n {
            assert!((fast[i] - naive[i]).abs() < 1e-12);
            assert_eq!(fast[i], out[i], "apply_into differs from apply at {i}");
        }
    }
}

#[test]
fn expm_taylor_matches_naive_series() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0005);
    for n in [2, 4, 6] {
        // Small norm so the naive (unscaled) series converges directly.
        let a = random_matrix(n, &mut rng).scale(C64::real(0.1));
        let fast = qsim::expm::expm_taylor(&a);
        let slow = naive_expm_small(&a);
        assert!(
            max_abs_diff(&fast, &slow) < 1e-12,
            "expm_taylor diverged at n={n}"
        );
        // Non-normal input too (the Taylor path is the general one).
        let nn = random_non_normal(n, &mut rng).scale(C64::real(0.05));
        assert!(max_abs_diff(&qsim::expm::expm_taylor(&nn), &naive_expm_small(&nn)) < 1e-12);
    }
}

#[test]
fn spectral_propagator_matches_taylor_on_hermitian() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0006);
    for n in [2, 3, 5, 9] {
        let h = random_hermitian(n, &mut rng);
        let t = 0.37;
        let spectral = qsim::expm::expm_hermitian_propagator(&h, t);
        let taylor = qsim::expm::expm_taylor(&h.scale(C64::new(0.0, -t)));
        assert!(
            max_abs_diff(&spectral, &taylor) < 1e-9,
            "propagator paths diverged at n={n}: {}",
            max_abs_diff(&spectral, &taylor)
        );
        assert!(spectral.is_unitary(1e-10));
    }
}

#[test]
fn eigh_reconstructs_random_hermitians() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0007);
    for n in [2, 4, 6, 9] {
        let h = random_hermitian(n, &mut rng);
        let e = qsim::eigen::eigh(&h);
        assert!(
            max_abs_diff(&e.reconstruct(), &h) < 1e-10,
            "eigh reconstruction failed at n={n}"
        );
        // Eigenvalues must come out sorted (total order, satellite of the
        // NaN-sort fix).
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}

#[test]
fn eigh_does_not_panic_on_nan_input() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0008);
    for n in [2, 4] {
        let m = random_with_nan(n, &mut rng);
        let h = (&m + &m.dagger()).scale(C64::real(0.5));
        let e = qsim::eigen::eigh(&h); // must not panic in the NaN sort
        assert_eq!(e.values.len(), n);
    }
}

#[test]
fn fidelity_matches_naive_trace_chain() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0009);
    for n in [2, 4, 6] {
        let m = random_matrix(n, &mut rng);
        let v = random_matrix(n, &mut rng);
        let d = n as f64;
        let mdm = m.dagger().matmul(&m).trace().re;
        let ov = v.dagger().matmul(&m).trace().abs2();
        let naive = ((mdm + ov) / (d * (d + 1.0))).clamp(0.0, 1.0);
        let fast = qsim::fidelity::average_gate_fidelity(&m, &v);
        assert!(
            (fast - naive).abs() < 1e-12,
            "fidelity diverged at n={n}: {fast} vs {naive}"
        );
        let leak_naive = (1.0 - mdm / d).max(0.0);
        assert!((qsim::fidelity::leakage(&m) - leak_naive).abs() < 1e-12);
    }
}

// ------------------------------------------------------------------
// Exact, deterministic counter contracts (bench-compare gate inputs).
// ------------------------------------------------------------------

#[test]
fn matmul_counters_are_exact() {
    let a = CMat::identity(3);
    let b = CMat::identity(3);
    let (_, c) = counters::counted(|| a.matmul(&b));
    assert_eq!(c.flops, 8 * 3 * 3 * 3, "matmul flop count");
    assert_eq!(c.allocs, 1, "matmul allocates exactly the output");

    let mut out = CMat::zeros(3, 3);
    let (_, c) = counters::counted(|| a.matmul_into(&b, &mut out));
    assert_eq!(c.flops, 8 * 3 * 3 * 3);
    assert_eq!(c.allocs, 0, "matmul_into must not allocate");
}

#[test]
fn propagator_counters_are_exact_and_deterministic() {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let ham = pair.hamiltonian(-1.8);
    let run = || counters::counted(|| qsim::expm::expm_hermitian_propagator(&ham, 0.25));
    let (first, cold) = run();
    // eigh: one output `vectors` matrix (workspace-resident otherwise);
    // map_spectrum: one output.
    assert_eq!(cold.allocs, 2, "cold spectral propagator allocation budget");
    assert!(cold.flops > 0);
    // No hidden state: a repeat of the bitwise-same Hamiltonian redoes
    // the whole decomposition and returns the same bits.
    let (second, again) = run();
    assert_eq!(cold, again, "a repeat call must cost exactly the same");
    assert_eq!(first, second);
}

#[test]
fn pulse_propagation_keeps_no_state_between_calls() {
    let pair = qsim::two_qubit::CoupledTransmons::paper_pair(6.21286, 4.14238);
    let wf =
        qsim::two_qubit::DetuningWaveform::rounded(pair.cz_resonance_detuning(), 4.0, 35.0, 0.5);
    let (first, cold) = counters::counted(|| pair.propagate(&wf));
    let (second, again) = counters::counted(|| pair.propagate(&wf));
    assert!(cold.flops > 0 && cold.allocs > 0);
    assert_eq!(cold, again, "a repeat pulse must rebuild every step");
    assert_eq!(first, second);
}

#[test]
fn in_place_pipelines_do_not_allocate_per_step() {
    // The qubit-block fitness propagates only columns 0 and 1 of the
    // lab-frame product (an n×2 block per tick: 8·n·n·2 flops), then
    // computes the four needed entries of the frame product (8·n each).
    // Its buffers are the frame propagator, the prefix trail and the 2×2
    // output: O(1), not O(steps). A return to full n×n step products
    // (8·n³ per tick) or to per-step allocations fails here.
    use qsim::pulse::{SfqParams, SfqPulseSim};
    let sim = SfqPulseSim::new(qsim::transmon::Transmon::new(6.21286), SfqParams::default());
    let bits = sim.resonant_comb(63);
    let n = sim.transmon().levels as u64;
    let (_, warm) = counters::counted(|| sim.frame_gate_qubit(&bits));
    let (_, again) = counters::counted(|| sim.frame_gate_qubit(&bits));
    assert_eq!(warm, again, "frame_gate counters deterministic");
    assert_eq!(
        warm.flops,
        8 * n * n * 2 * bits.len() as u64 + 8 * n * 4,
        "two-column step products plus four frame entries"
    );
    assert_eq!(warm.allocs, 3, "frame propagator, trail, output");
}
