//! Two-qubit gate calibration: CZ from Uqq echo sequences (§V-B, Fig 7).
//!
//! Without per-pair pulse shaping, every coupled pair gets whatever
//! `Uqq` the shared current waveform produces at its drifted frequencies.
//! The software-calibration claim of §V-B is that CZ can still be composed
//! as 1–3 `Uqq` pulses interleaved with numerically optimized single-qubit
//! gates ("similar to the 'echo' sequences … but with single-qubit gates
//! obtained via numerical optimization"). This module:
//!
//! * calibrates the nominal flux waveform (hold time) once, at zero drift,
//!   scanning the holds in parallel over one shared propagator cache;
//! * computes `Uqq` for a drifted pair via `qsim::two_qubit`;
//! * optimizes the interleaved single-qubit layers (Nelder–Mead multistart
//!   seeded with the X-echo structure) and reports the residual CZ error —
//!   the quantity mapped over drift in Fig 7.
//!
//! The optimizer is the hot loop of Fig 7 and Fig 10b, so its objective
//! allocates nothing: each layer is a `[C64; 16]` built from two
//! [`u_zyz_array`]s by [`kron_into`], the echo chain multiplies through
//! [`matmul_fixed`]`::<4>`, and the score is
//! [`average_gate_error_slice`] — the same kernels, in the same f64
//! operation order, that the `CMat` forms delegate to, so the errors are
//! bit-for-bit those of the matrix chain.

use qsim::complex::C64;
use qsim::fidelity::average_gate_error_slice;
use qsim::gates::u_zyz_array;
use qsim::matrix::{kron_into, matmul_fixed, CMat};
use qsim::optimize::nelder_mead;
use qsim::par::{default_workers, par_map_ordered};
use qsim::rng::StdRng;
use qsim::two_qubit::{CoupledTransmons, DetuningWaveform, PropagatorCache};
use std::f64::consts::PI;

/// A calibrated shared CZ pulse: the detuning waveform every pair receives.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedCzPulse {
    /// The waveform (qubit-1 detuning over time).
    pub waveform: DetuningWaveform,
    /// The single-pulse CZ error at zero drift after 1q optimization.
    pub nominal_error: f64,
}

/// Calibrates the hold time of a rounded flux pulse so a single `Uqq`
/// realizes CZ as well as possible at the nominal (zero-drift)
/// frequencies. Scans hold times around the analytic half-Rabi period
/// `1/(2√2·g)` on [`default_workers`] threads; see
/// [`calibrate_shared_pulse_on`].
pub fn calibrate_shared_pulse(pair: &CoupledTransmons, rise_ns: f64, dt_ns: f64) -> SharedCzPulse {
    calibrate_shared_pulse_on(pair, rise_ns, dt_ns, default_workers())
}

/// [`calibrate_shared_pulse`] on `workers` threads. The holds are
/// independent, so they run through [`par_map_ordered`]; the first hold
/// with the strictly smallest error wins, as in a serial scan, so the
/// pulse does not depend on `workers`.
pub fn calibrate_shared_pulse_on(
    pair: &CoupledTransmons,
    rise_ns: f64,
    dt_ns: f64,
    workers: usize,
) -> SharedCzPulse {
    let delta = pair.cz_resonance_detuning();
    let t_analytic = 1.0 / (2.0 * 2f64.sqrt() * pair.coupling_ghz);
    // The rounded edges contribute partial interaction; scan a bracket.
    let mut holds = Vec::new();
    let mut hold = (t_analytic - rise_ns).max(1.0);
    while hold <= t_analytic + 6.0 {
        holds.push(hold);
        hold += 0.5;
    }
    // Every hold time shares the same rise/fall/plateau detuning samples,
    // so one propagator cache serves the whole scan — each distinct
    // per-sample Hamiltonian is exponentiated once, not once per hold.
    let cache = PropagatorCache::new();
    let scanned = par_map_ordered(&holds, workers, |_, &hold| {
        let wf = DetuningWaveform::rounded(delta, rise_ns, hold, dt_ns);
        let uqq = pair.uqq_with_cache(&wf, &cache);
        (cz_error_with_local_1q(&uqq, 1, 4, 0xCA11), wf)
    });
    let mut best: Option<(f64, DetuningWaveform)> = None;
    for (err, wf) in scanned {
        if best.as_ref().is_none_or(|(e, _)| err < *e) {
            best = Some((err, wf));
        }
    }
    let (nominal_error, waveform) = best.expect("scan non-empty");
    SharedCzPulse {
        waveform,
        nominal_error,
    }
}

/// Computes the projected 4×4 `Uqq` a drifted pair experiences under the
/// shared pulse, including the σ = 1% current-generator amplitude error
/// (`current_scale`).
pub fn uqq_for_drift(
    nominal: &CoupledTransmons,
    pulse: &SharedCzPulse,
    drift1_ghz: f64,
    drift2_ghz: f64,
    current_scale: f64,
) -> CMat {
    let pair = CoupledTransmons::new(
        nominal.q1.detuned(drift1_ghz),
        nominal.q2.detuned(drift2_ghz),
        nominal.coupling_ghz,
    );
    // Current error scales the detuning amplitude; qubit-2 drift also
    // shifts the effective resonance.
    let wf = pulse.waveform.scaled(current_scale);
    pair.uqq(&wf)
}

/// Writes the local layer `A ⊗ B` of two ZYZ-parameterized single-qubit
/// gates into `out`.
fn local_layer(params: &[f64], out: &mut [C64; 16]) {
    let a = u_zyz_array(params[0], params[1], params[2]);
    let b = u_zyz_array(params[3], params[4], params[5]);
    kron_into(&a, (2, 2), &b, (2, 2), out);
}

/// CZ error of an echo sequence `L_n·Uqq·L_{n−1}·…·Uqq·L_0` with the local
/// layers optimized numerically (multistart Nelder–Mead; deterministic
/// given `seed`). `n_pulses ∈ 1..=3` matches Fig 7's three panels.
///
/// Each objective evaluation builds its layers and products in 4×4 stack
/// arrays (no allocation) and tallies `256·(n_pulses+1) + 1024·n_pulses`
/// flops.
///
/// # Panics
///
/// Panics if `uqq` is not 4×4 or `n_pulses == 0`.
pub fn cz_error_with_local_1q(uqq: &CMat, n_pulses: usize, starts: usize, seed: u64) -> f64 {
    assert_eq!((uqq.rows(), uqq.cols()), (4, 4));
    assert!(n_pulses >= 1);
    let target = qsim::gates::cz();
    let (uqq, target) = (uqq.as_slice(), target.as_slice());
    let n_layers = n_pulses + 1;
    let dim = 6 * n_layers;

    let objective = |params: &[f64]| -> f64 {
        let mut m = [C64::ZERO; 16];
        let mut pulsed = [C64::ZERO; 16];
        let mut layer = [C64::ZERO; 16];
        local_layer(&params[0..6], &mut m);
        for k in 0..n_pulses {
            matmul_fixed::<4>(uqq, &m, &mut pulsed);
            local_layer(&params[6 * (k + 1)..6 * (k + 2)], &mut layer);
            matmul_fixed::<4>(&layer, &pulsed, &mut m);
        }
        average_gate_error_slice(4, &m, target)
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

/// One point of a Fig 7 panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CzErrorPoint {
    /// Qubit-1 drift in GHz.
    pub drift1_ghz: f64,
    /// Qubit-2 drift in GHz.
    pub drift2_ghz: f64,
    /// Optimized CZ error.
    pub error: f64,
}

/// Sweeps a `grid × grid` drift plane for a given pulse count — one panel
/// of Fig 7 ("CZ gate error as a function of frequency drift, assuming 1,
/// 2, or 3 Uqq operations and ideal single-qubit gates").
pub fn fig7_panel(
    nominal: &CoupledTransmons,
    pulse: &SharedCzPulse,
    n_pulses: usize,
    max_drift_ghz: f64,
    grid: usize,
    opt_starts: usize,
) -> Vec<CzErrorPoint> {
    let mut out = Vec::with_capacity(grid * grid);
    for i in 0..grid {
        for j in 0..grid {
            let d1 = -max_drift_ghz + 2.0 * max_drift_ghz * i as f64 / (grid - 1).max(1) as f64;
            let d2 = -max_drift_ghz + 2.0 * max_drift_ghz * j as f64 / (grid - 1).max(1) as f64;
            let uqq = uqq_for_drift(nominal, pulse, d1, d2, 1.0);
            let error = cz_error_with_local_1q(&uqq, n_pulses, opt_starts, 0xF160_0007);
            out.push(CzErrorPoint {
                drift1_ghz: d1,
                drift2_ghz: d2,
                error,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_pair() -> CoupledTransmons {
        CoupledTransmons::paper_pair(6.21286, 4.14238)
    }

    fn pulse() -> SharedCzPulse {
        calibrate_shared_pulse(&paper_pair(), 4.0, 0.25)
    }

    #[test]
    fn nominal_single_pulse_cz_is_good() {
        // Fig 7a at zero drift: ε ≈ 3e-4 in the paper; our simulator and
        // pulse shape land in the same decade.
        let p = pulse();
        assert!(
            p.nominal_error < 5e-3,
            "nominal CZ error {:.2e} too high",
            p.nominal_error
        );
    }

    #[test]
    fn drift_degrades_single_pulse() {
        let pair = paper_pair();
        let p = pulse();
        let near = cz_error_with_local_1q(&uqq_for_drift(&pair, &p, 0.0, 0.0, 1.0), 1, 3, 7);
        let far = cz_error_with_local_1q(&uqq_for_drift(&pair, &p, 0.008, -0.008, 1.0), 1, 3, 7);
        assert!(
            far > near,
            "drift must hurt: near {:.2e}, far {:.2e}",
            near,
            far
        );
    }

    #[test]
    fn more_pulses_help_under_drift() {
        // The Fig 7 headline: echo sequences recover fidelity over a wide
        // drift range.
        let pair = paper_pair();
        let p = pulse();
        let uqq = uqq_for_drift(&pair, &p, 0.006, -0.004, 1.0);
        let e1 = cz_error_with_local_1q(&uqq, 1, 3, 11);
        let e2 = cz_error_with_local_1q(&uqq, 2, 3, 11);
        assert!(
            e2 < e1 * 1.05,
            "2 pulses should not be worse: e1 {:.2e}, e2 {:.2e}",
            e1,
            e2
        );
    }

    #[test]
    fn current_error_matters() {
        let pair = paper_pair();
        let p = pulse();
        let clean = cz_error_with_local_1q(&uqq_for_drift(&pair, &p, 0.0, 0.0, 1.0), 1, 2, 3);
        let dirty = cz_error_with_local_1q(&uqq_for_drift(&pair, &p, 0.0, 0.0, 1.03), 1, 2, 3);
        assert!(dirty > clean, "3% current error must degrade the gate");
    }

    #[test]
    fn fig7_panel_shape() {
        let pair = paper_pair();
        let p = pulse();
        let panel = fig7_panel(&pair, &p, 1, 0.004, 3, 2);
        assert_eq!(panel.len(), 9);
        // Center point is the nominal one — best or near-best error.
        let center = panel[4].error;
        let worst = panel.iter().map(|pt| pt.error).fold(0.0, f64::max);
        assert!(center <= worst + 1e-12);
    }
}
