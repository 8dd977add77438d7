//! Differential test of the allocation-free CZ echo optimizer.
//!
//! `cz_error_with_local_1q` builds every local layer and product in 4×4
//! stack arrays and `nelder_mead` keeps its simplex in one flat buffer
//! permuted in place. The oracle below is the earlier implementation,
//! kept verbatim: `CMat` layers through `u_zyz`/`kron`, a fresh matrix per
//! product, and a simplex of `Vec`s re-collected every iteration. Both
//! must agree bit for bit (`to_bits` equality) on:
//!
//! * drifted `uqq_for_drift` pairs on a 5×5 grid at ±6 MHz, at current
//!   scales 0.97, 1.0 and 1.03, with Fig 10b's exact calls (1 and 2
//!   pulses, 2 starts, seeds `0xF160_10B0 + idx` and `0xF160_10B1 + idx`)
//!   and a 3-pulse call per pair;
//! * `n_pulses` 1..=3 × `starts` 1..=4 × several seeds on a few pairs;
//! * `calibrate_shared_pulse`'s hold scan, and `calibrate_shared_pulse_on`
//!   at 1, 2 and 8 workers (the holds scanned in parallel over one
//!   shared propagator cache), whose counter tallies must also be equal
//!   across worker counts.
//!
//! Every call must also tally exactly the oracle's flops, and its counted
//! allocations must stay at a constant that does not grow with the
//! iteration count.
//!
//! Debug builds run a reduced matrix to keep the suite fast;
//! `scripts/ci.sh` runs the full matrix in release (`cargo test --release
//! -p calib --test cz_differential`).

use calib::cz::{
    calibrate_shared_pulse, calibrate_shared_pulse_on, cz_error_with_local_1q, uqq_for_drift,
    SharedCzPulse,
};
use qsim::counters::counted;
use qsim::matrix::CMat;
use qsim::two_qubit::{CoupledTransmons, DetuningWaveform, PropagatorCache};

/// Counted allocations per call: the CZ target matrix, nothing else.
const MAX_ALLOCS: u64 = 1;

mod oracle {
    //! The earlier `local_layer`, `cz_error_with_local_1q` and
    //! `nelder_mead`, verbatim (with the earlier `u_zyz` chain), plus the
    //! earlier hold scan of `calibrate_shared_pulse` on top of them.

    use super::*;
    use qsim::optimize::OptResult;
    use qsim::rng::StdRng;
    use std::cmp::Ordering;
    use std::f64::consts::PI;

    fn u_zyz(theta: f64, phi: f64, lam: f64) -> CMat {
        use qsim::gates::{ry, rz};
        rz(phi).matmul(&ry(theta)).matmul(&rz(lam))
    }

    /// Builds `(A ⊗ B)` from two ZYZ-parameterized single-qubit gates.
    fn local_layer(params: &[f64]) -> CMat {
        let a = u_zyz(params[0], params[1], params[2]);
        let b = u_zyz(params[3], params[4], params[5]);
        a.kron(&b)
    }

    pub fn cz_error_with_local_1q(uqq: &CMat, n_pulses: usize, starts: usize, seed: u64) -> f64 {
        assert_eq!((uqq.rows(), uqq.cols()), (4, 4));
        assert!(n_pulses >= 1);
        let target = qsim::gates::cz();
        let n_layers = n_pulses + 1;
        let dim = 6 * n_layers;

        let objective = |params: &[f64]| -> f64 {
            let mut m = local_layer(&params[0..6]);
            for k in 0..n_pulses {
                m = uqq.matmul(&m);
                m = local_layer(&params[6 * (k + 1)..6 * (k + 2)]).matmul(&m);
            }
            qsim::fidelity::average_gate_error(&m, &target)
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = f64::INFINITY;
        for s in 0..starts.max(1) {
            let x0: Vec<f64> = if s == 0 {
                // Identity layers.
                vec![0.0; dim]
            } else if s == 1 && n_pulses >= 2 {
                // X-echo seed: π x-rotations between pulses.
                let mut x = vec![0.0; dim];
                for k in 1..n_pulses {
                    // u_zyz(π, 0, 0)·… ≈ Ry(π); close enough as a seed.
                    x[6 * k] = PI;
                    x[6 * k + 3] = PI;
                }
                x
            } else {
                (0..dim).map(|_| rng.gen_range(-PI..PI)).collect()
            };
            let r = nelder_mead(objective, &x0, 0.4, 1200, 1e-12);
            best = best.min(r.value);
        }
        best
    }

    fn nan_last(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (false, false) if a < b => Ordering::Less,
            (false, false) if a > b => Ordering::Greater,
            (a_nan, b_nan) => a_nan.cmp(&b_nan),
        }
    }

    pub fn nelder_mead(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        step: f64,
        max_iter: usize,
        tol: f64,
    ) -> OptResult {
        assert!(
            !x0.is_empty(),
            "nelder_mead requires at least one parameter"
        );
        let n = x0.len();
        let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
        let mut evals = 0usize;

        // Initial simplex: x0 plus n perturbed points.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut p = x0.to_vec();
            p[i] += step;
            simplex.push(p);
        }
        let mut values: Vec<f64> = simplex
            .iter()
            .map(|p| {
                evals += 1;
                f(p)
            })
            .collect();

        for _ in 0..max_iter {
            // Sort simplex by value.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| nan_last(values[a], values[b]));
            let simplex_sorted: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
            let values_sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
            simplex = simplex_sorted;
            values = values_sorted;

            if (values[n] - values[0]).abs() < tol {
                break;
            }

            // Centroid of all but the worst.
            let mut centroid = vec![0.0; n];
            for p in simplex.iter().take(n) {
                for (c, v) in centroid.iter_mut().zip(p.iter()) {
                    *c += v / n as f64;
                }
            }

            let worst = simplex[n].clone();
            let reflect: Vec<f64> = centroid
                .iter()
                .zip(worst.iter())
                .map(|(c, w)| c + alpha * (c - w))
                .collect();
            evals += 1;
            let fr = f(&reflect);

            if fr < values[0] {
                // Try expansion.
                let expand: Vec<f64> = centroid
                    .iter()
                    .zip(worst.iter())
                    .map(|(c, w)| c + gamma * (c - w))
                    .collect();
                evals += 1;
                let fe = f(&expand);
                if fe < fr {
                    simplex[n] = expand;
                    values[n] = fe;
                } else {
                    simplex[n] = reflect;
                    values[n] = fr;
                }
            } else if fr < values[n - 1] {
                simplex[n] = reflect;
                values[n] = fr;
            } else {
                // Contraction.
                let contract: Vec<f64> = centroid
                    .iter()
                    .zip(worst.iter())
                    .map(|(c, w)| c + rho * (w - c))
                    .collect();
                evals += 1;
                let fc = f(&contract);
                if fc < values[n] {
                    simplex[n] = contract;
                    values[n] = fc;
                } else {
                    // Shrink towards the best point.
                    let best = simplex[0].clone();
                    for i in 1..=n {
                        for j in 0..n {
                            simplex[i][j] = best[j] + sigma * (simplex[i][j] - best[j]);
                        }
                        evals += 1;
                        values[i] = f(&simplex[i]);
                    }
                }
            }
        }

        let mut best = 0;
        for i in 1..=n {
            if values[i] < values[best] {
                best = i;
            }
        }
        OptResult {
            x: simplex[best].clone(),
            value: values[best],
            evals,
        }
    }

    /// `calibrate_shared_pulse`'s hold scan on the oracle objective.
    pub fn calibrate_shared_pulse(
        pair: &CoupledTransmons,
        rise_ns: f64,
        dt_ns: f64,
    ) -> SharedCzPulse {
        let delta = pair.cz_resonance_detuning();
        let t_analytic = 1.0 / (2.0 * 2f64.sqrt() * pair.coupling_ghz);
        let mut best: Option<(f64, DetuningWaveform)> = None;
        let cache = PropagatorCache::new();
        let mut hold = (t_analytic - rise_ns).max(1.0);
        while hold <= t_analytic + 6.0 {
            let wf = DetuningWaveform::rounded(delta, rise_ns, hold, dt_ns);
            let uqq = pair.uqq_with_cache(&wf, &cache);
            let err = cz_error_with_local_1q(&uqq, 1, 4, 0xCA11);
            if best.as_ref().is_none_or(|(e, _)| err < *e) {
                best = Some((err, wf));
            }
            hold += 0.5;
        }
        let (nominal_error, waveform) = best.expect("scan non-empty");
        SharedCzPulse {
            waveform,
            nominal_error,
        }
    }
}

fn paper_pair() -> CoupledTransmons {
    CoupledTransmons::paper_pair(6.21286, 4.14238)
}

/// Runs both implementations on one call and checks value bits, flops
/// and the allocation ceiling.
fn check(label: &str, uqq: &CMat, n_pulses: usize, starts: usize, seed: u64) {
    let (want, want_c) = counted(|| oracle::cz_error_with_local_1q(uqq, n_pulses, starts, seed));
    let (got, got_c) = counted(|| cz_error_with_local_1q(uqq, n_pulses, starts, seed));
    let call = format!("{label}: n_pulses {n_pulses}, starts {starts}, seed {seed:#x}");
    assert_eq!(got.to_bits(), want.to_bits(), "{call}: {got:e} vs {want:e}");
    assert_eq!(got_c.flops, want_c.flops, "{call}: flops");
    assert!(
        got_c.allocs <= MAX_ALLOCS,
        "{call}: {} counted allocs (oracle {})",
        got_c.allocs,
        want_c.allocs
    );
}

/// The drift grid: `(label, qubit-1 drift, qubit-2 drift, current scale)`.
fn drift_grid() -> Vec<(String, f64, f64, f64)> {
    let (max, grid) = (0.006, 5);
    let mut out = Vec::new();
    for scale in [0.97, 1.0, 1.03] {
        for i in 0..grid {
            for j in 0..grid {
                let d1 = -max + 2.0 * max * i as f64 / (grid - 1) as f64;
                let d2 = -max + 2.0 * max * j as f64 / (grid - 1) as f64;
                out.push((format!("({d1:+.4}, {d2:+.4}) x{scale}"), d1, d2, scale));
            }
        }
    }
    out
}

#[test]
fn echo_optimizer_matches_the_allocating_oracle_bit_for_bit() {
    let pair = paper_pair();
    let pulse = calibrate_shared_pulse(&pair, 4.0, 0.25);
    let grid = drift_grid();
    // Debug: the four corners and the centre at nominal current.
    let picked: Vec<usize> = if cfg!(debug_assertions) {
        vec![25, 29, 37, 45, 49]
    } else {
        (0..grid.len()).collect()
    };
    for idx in picked {
        let (label, d1, d2, scale) = &grid[idx];
        let uqq = uqq_for_drift(&pair, &pulse, *d1, *d2, *scale);
        let idx = idx as u64;
        check(label, &uqq, 1, 2, 0xF160_10B0 + idx);
        check(label, &uqq, 2, 2, 0xF160_10B1 + idx);
        if !cfg!(debug_assertions) {
            check(label, &uqq, 3, 1 + idx as usize % 4, 0xF160_0007 ^ idx);
        }
    }
}

#[test]
fn every_pulse_count_and_start_count_matches() {
    let pair = paper_pair();
    let pulse = calibrate_shared_pulse(&pair, 4.0, 0.25);
    let (pairs, seeds): (&[(f64, f64, f64)], &[u64]) = if cfg!(debug_assertions) {
        (&[(0.006, -0.004, 1.0)], &[11])
    } else {
        (
            &[(0.0, 0.0, 1.0), (0.006, -0.004, 1.0), (-0.006, 0.003, 1.03)],
            &[7, 11, 0xF160_0007, 0xF160_10B0 + 5],
        )
    };
    for &(d1, d2, scale) in pairs {
        let uqq = uqq_for_drift(&pair, &pulse, d1, d2, scale);
        let label = format!("({d1:+.4}, {d2:+.4}) x{scale}");
        for n_pulses in 1..=3 {
            for starts in 1..=4 {
                for &seed in seeds {
                    check(&label, &uqq, n_pulses, starts, seed);
                }
            }
        }
    }
}

#[test]
fn shared_pulse_calibration_matches() {
    let pair = paper_pair();
    let want = oracle::calibrate_shared_pulse(&pair, 4.0, 0.25);
    let got = calibrate_shared_pulse(&pair, 4.0, 0.25);
    assert_eq!(got.waveform, want.waveform);
    assert_eq!(got.nominal_error.to_bits(), want.nominal_error.to_bits());
}

#[test]
fn parallel_hold_scan_matches_at_any_worker_count() {
    let pair = paper_pair();
    let want = oracle::calibrate_shared_pulse(&pair, 4.0, 0.25);
    let mut tallies = Vec::new();
    for workers in [1, 2, 8] {
        let (got, tally) = counted(|| calibrate_shared_pulse_on(&pair, 4.0, 0.25, workers));
        assert_eq!(got.waveform, want.waveform, "{workers} workers");
        assert_eq!(
            got.nominal_error.to_bits(),
            want.nominal_error.to_bits(),
            "{workers} workers"
        );
        assert!(tally.flops > 0, "{workers} workers: tallies lost");
        tallies.push((workers, tally));
    }
    for (workers, tally) in &tallies[1..] {
        assert_eq!(*tally, tallies[0].1, "{workers} workers vs 1");
    }
}
