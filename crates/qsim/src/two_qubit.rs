//! Coupled-transmon simulation for flux-tunable CZ gates (§IV-A3, §V-B).
//!
//! Two capacitively coupled, flux-tunable asymmetric transmons with
//! Hamiltonian (GHz units, 3 levels each → 9-dimensional):
//!
//! ```text
//! H(t) = Σᵢ [ ωᵢ(t)·nᵢ − (ηᵢ/2)·nᵢ(nᵢ−1) ]  +  g·(a†b + a b†)
//! ```
//!
//! The CZ gate detunes qubit 1 (via the SFQ/DC current generator of Fig 4)
//! to the |11⟩ ↔ |20⟩ avoided crossing at `ω₁ = ω₂ + η₁`; holding there for
//! half a (√2·g) Rabi period returns the |11⟩ population with a −1 phase.
//! The paper computes the resulting `Uqq` "by numerically integrating the
//! Schrödinger equation" — here propagation is piecewise-constant over the
//! sampled current waveform using exact Hermitian matrix exponentials.
//! Each distinct sample's step propagator is built once per call through a
//! [`PropagatorCache`]; the module keeps no process-wide state, and a
//! caller that scans many waveforms of one pair (the CZ hold-time search)
//! owns and threads its own cache.
//!
//! # Examples
//!
//! ```
//! use qsim::two_qubit::{CoupledTransmons, DetuningWaveform};
//!
//! let pair = CoupledTransmons::paper_pair(6.21286, 4.14238);
//! let wf = DetuningWaveform::square(pair.cz_resonance_detuning(), 35.0, 0.25);
//! let u = pair.propagate(&wf);
//! assert!(u.is_unitary(1e-9));
//! ```

use crate::complex::C64;
use crate::expm::expm_hermitian_propagator;
use crate::matrix::CMat;
use crate::transmon::Transmon;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex};

/// Number of levels per transmon in the two-qubit model. Three levels
/// suffice to capture the |20⟩ state that mediates the CZ interaction and
/// its leakage channel. The single-qubit model keeps six levels; three per
/// transmon keep each CZ propagator 9×9 instead of 36×36.
pub const TWO_QUBIT_LEVELS: usize = 3;

/// Basis indices of the computational subspace {|00⟩,|01⟩,|10⟩,|11⟩} in the
/// row-major |n₁ n₂⟩ ordering with 3 levels per qubit.
pub const COMPUTATIONAL_IDX: [usize; 4] = [0, 1, 3, 4];

/// Default capacitive coupling strength in GHz (paper §V-B: 10 MHz).
pub const DEFAULT_COUPLING_GHZ: f64 = 0.010;

/// A piecewise-constant detuning waveform applied to qubit 1.
///
/// Sample `k` holds detuning `deltas[k]` (GHz, negative = downward) for
/// `dt_ns`. Generated either synthetically ([`DetuningWaveform::square`],
/// [`DetuningWaveform::rounded`]) or from the `sfq_hw` analog simulation of
/// the SFQ/DC current generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DetuningWaveform {
    /// Duration of each sample in ns.
    pub dt_ns: f64,
    /// Detuning of qubit 1 during each sample, in GHz.
    pub deltas: Vec<f64>,
}

impl DetuningWaveform {
    /// An ideal square pulse: `hold_ns` at `delta_ghz`, sampled every
    /// `dt_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0` or `hold_ns < 0`.
    pub fn square(delta_ghz: f64, hold_ns: f64, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0 && hold_ns >= 0.0);
        let n = (hold_ns / dt_ns).round() as usize;
        DetuningWaveform {
            dt_ns,
            deltas: vec![delta_ghz; n],
        }
    }

    /// A pulse with raised-cosine rise and fall edges (closer to the RC
    /// shape of Fig 4b): `rise_ns` up, `hold_ns` flat, `rise_ns` down.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0`.
    pub fn rounded(delta_ghz: f64, rise_ns: f64, hold_ns: f64, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0);
        let nr = (rise_ns / dt_ns).round() as usize;
        let nh = (hold_ns / dt_ns).round() as usize;
        let mut deltas = Vec::with_capacity(2 * nr + nh);
        for k in 0..nr {
            let x = (k as f64 + 0.5) / nr as f64;
            deltas.push(delta_ghz * 0.5 * (1.0 - (PI * x).cos()));
        }
        deltas.extend(std::iter::repeat(delta_ghz).take(nh));
        // The raised-cosine fall is the rise mirrored in time; copying the
        // stored rise samples (rather than re-evaluating the cosine) makes
        // the symmetry exact to the bit, so the propagator memo in
        // `propagate` reuses every edge sample instead of recomputing an
        // expm for each fall step.
        for k in (0..nr).rev() {
            deltas.push(deltas[k]);
        }
        DetuningWaveform { dt_ns, deltas }
    }

    /// Total duration in ns.
    pub fn duration_ns(&self) -> f64 {
        self.dt_ns * self.deltas.len() as f64
    }

    /// Scales every sample by `factor` — models the σ=1% current-generator
    /// amplitude error of §VI-B.
    pub fn scaled(&self, factor: f64) -> Self {
        DetuningWaveform {
            dt_ns: self.dt_ns,
            deltas: self.deltas.iter().map(|d| d * factor).collect(),
        }
    }
}

/// A pair of capacitively coupled transmons.
#[derive(Debug, Clone)]
pub struct CoupledTransmons {
    /// Qubit 1 (the flux-tuned qubit; higher idle frequency).
    pub q1: Transmon,
    /// Qubit 2 (static during the CZ).
    pub q2: Transmon,
    /// Capacitive coupling strength `g` in GHz.
    pub coupling_ghz: f64,
}

impl CoupledTransmons {
    /// Creates a pair with explicit transmons (forced to
    /// [`TWO_QUBIT_LEVELS`] levels).
    pub fn new(q1: Transmon, q2: Transmon, coupling_ghz: f64) -> Self {
        CoupledTransmons {
            q1: Transmon::with_params(q1.frequency_ghz, q1.anharmonicity_ghz, TWO_QUBIT_LEVELS),
            q2: Transmon::with_params(q2.frequency_ghz, q2.anharmonicity_ghz, TWO_QUBIT_LEVELS),
            coupling_ghz,
        }
    }

    /// The paper's evaluation pair: given idle frequencies (GHz), both with
    /// 250 MHz anharmonicity and 10 MHz coupling (§V-B).
    pub fn paper_pair(f1_ghz: f64, f2_ghz: f64) -> Self {
        Self::new(
            Transmon::with_params(f1_ghz, 0.25, TWO_QUBIT_LEVELS),
            Transmon::with_params(f2_ghz, 0.25, TWO_QUBIT_LEVELS),
            DEFAULT_COUPLING_GHZ,
        )
    }

    /// Hilbert-space dimension (9).
    pub fn dim(&self) -> usize {
        TWO_QUBIT_LEVELS * TWO_QUBIT_LEVELS
    }

    /// The detuning that brings |11⟩ and |20⟩ on resonance:
    /// `Δ = (f₂ + η₁) − f₁` (negative when tuning q1 downward).
    pub fn cz_resonance_detuning(&self) -> f64 {
        (self.q2.frequency_ghz + self.q1.anharmonicity_ghz) - self.q1.frequency_ghz
    }

    /// The full 9×9 Hamiltonian with qubit 1 detuned by `delta1_ghz`.
    pub fn hamiltonian(&self, delta1_ghz: f64) -> CMat {
        let d = self.dim();
        let mut h = CMat::zeros(d, d);
        let f1 = self.q1.frequency_ghz + delta1_ghz;
        for n1 in 0..TWO_QUBIT_LEVELS {
            for n2 in 0..TWO_QUBIT_LEVELS {
                let i = n1 * TWO_QUBIT_LEVELS + n2;
                let e1 = n1 as f64 * f1
                    - 0.5 * self.q1.anharmonicity_ghz * (n1 * (n1.max(1) - 1)) as f64;
                let e2 = n2 as f64 * self.q2.frequency_ghz
                    - 0.5 * self.q2.anharmonicity_ghz * (n2 * (n2.max(1) - 1)) as f64;
                h[(i, i)] = C64::real(e1 + e2);
            }
        }
        // g·(a†b + a b†): couples |n1, n2⟩ ↔ |n1+1, n2−1⟩.
        for n1 in 0..TWO_QUBIT_LEVELS - 1 {
            for n2 in 1..TWO_QUBIT_LEVELS {
                let i = n1 * TWO_QUBIT_LEVELS + n2;
                let j = (n1 + 1) * TWO_QUBIT_LEVELS + (n2 - 1);
                let amp = ((n1 + 1) as f64).sqrt() * (n2 as f64).sqrt() * self.coupling_ghz;
                h[(j, i)] = C64::real(amp);
                h[(i, j)] = C64::real(amp);
            }
        }
        h
    }

    /// Doubly-rotating-frame transformation at the idle frequencies over
    /// time `t_ns`.
    pub fn frame(&self, t_ns: f64) -> CMat {
        let d = self.dim();
        CMat::from_fn(d, d, |i, j| {
            if i != j {
                return C64::ZERO;
            }
            let n1 = (i / TWO_QUBIT_LEVELS) as f64;
            let n2 = (i % TWO_QUBIT_LEVELS) as f64;
            C64::cis(-2.0 * PI * (n1 * self.q1.frequency_ghz + n2 * self.q2.frequency_ghz) * t_ns)
        })
    }

    /// Propagates the pair through a detuning waveform and returns the
    /// rotating-frame evolution `Uqq = R(T)† · U_lab` (9×9 unitary).
    ///
    /// Step propagators are memoized by the exact bit pattern of the
    /// detuning in a [`PropagatorCache`] that lives for this one call, so
    /// a symmetric pulse (rise mirrored into the fall, long plateau) costs
    /// one `expm` per *distinct* sample, not per sample; the per-step
    /// products ping-pong between two reused buffers. Nothing outlives the
    /// call: to share steps across waveforms, thread one cache through
    /// [`CoupledTransmons::propagate_with_cache`].
    pub fn propagate(&self, waveform: &DetuningWaveform) -> CMat {
        self.propagate_with_cache(waveform, &PropagatorCache::new())
    }

    /// [`CoupledTransmons::propagate`] with a caller-owned step-propagator
    /// cache, for workloads that sweep many waveforms sharing samples
    /// (e.g. a CZ hold-time calibration scan). The cache is only valid for
    /// one physical pair — key it per `CoupledTransmons` instance.
    pub fn propagate_with_cache(
        &self,
        waveform: &DetuningWaveform,
        cache: &PropagatorCache,
    ) -> CMat {
        let d = self.dim();
        let mut u = CMat::identity(d);
        let mut tmp = CMat::zeros(d, d);
        let mut last: Option<(u64, Arc<CMat>)> = None;
        for &delta in &waveform.deltas {
            let bits = delta.to_bits();
            let step: Arc<CMat> = match &last {
                Some((b, s)) if *b == bits => s.clone(),
                _ => {
                    let s = cache.get_or_build(bits, waveform.dt_ns, || {
                        expm_hermitian_propagator(
                            &self.hamiltonian(delta),
                            2.0 * PI * waveform.dt_ns,
                        )
                    });
                    last = Some((bits, s.clone()));
                    s
                }
            };
            step.matmul_into(&u, &mut tmp);
            std::mem::swap(&mut u, &mut tmp);
        }
        // R(T) is diagonal by construction, so R†·U is a per-row scaling by
        // conj(R[i][i]) — O(d²) instead of a dagger allocation and a matmul.
        let r = self.frame(waveform.duration_ns());
        let (rd, ud) = (r.as_slice(), u.as_mut_slice());
        for i in 0..d {
            let s = rd[i * d + i].conj();
            for z in &mut ud[i * d..(i + 1) * d] {
                let (zr, zi) = (z.re, z.im);
                z.re = s.re * zr - s.im * zi;
                z.im = s.re * zi + s.im * zr;
            }
        }
        u
    }

    /// Projects a 9×9 evolution onto the 4-dimensional computational
    /// subspace (leakage becomes sub-unitarity, counted as error by
    /// `qsim::fidelity`).
    pub fn computational_block(&self, u9: &CMat) -> CMat {
        u9.submatrix(&COMPUTATIONAL_IDX, &COMPUTATIONAL_IDX)
    }

    /// Convenience: propagate and project in one call.
    pub fn uqq(&self, waveform: &DetuningWaveform) -> CMat {
        self.computational_block(&self.propagate(waveform))
    }

    /// [`CoupledTransmons::uqq`] with a caller-owned propagator cache (see
    /// [`CoupledTransmons::propagate_with_cache`]).
    pub fn uqq_with_cache(&self, waveform: &DetuningWaveform, cache: &PropagatorCache) -> CMat {
        self.computational_block(&self.propagate_with_cache(waveform, cache))
    }
}

/// Memo of piecewise-constant step propagators, keyed by the exact bit
/// patterns of `(delta_ghz, dt_ns)`.
///
/// Each entry is `exp(−i·H(δ)·2π·dt)` for one physical pair; scope a cache
/// per [`CoupledTransmons`] instance (the key does not include the pair's
/// frequencies). Shared behind a `Mutex` so a calibration scan can be
/// parallelized over `std::thread::scope` workers without duplicating
/// `expm` work.
#[derive(Debug, Default)]
pub struct PropagatorCache {
    steps: Mutex<HashMap<(u64, u64), Arc<CMat>>>,
}

impl PropagatorCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct `(delta, dt)` propagators built so far.
    pub fn len(&self) -> usize {
        self.steps.lock().unwrap().len()
    }

    /// Returns `true` if no propagator has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_build(&self, delta_bits: u64, dt_ns: f64, build: impl FnOnce() -> CMat) -> Arc<CMat> {
        let key = (delta_bits, dt_ns.to_bits());
        if let Some(step) = self.steps.lock().unwrap().get(&key) {
            return step.clone();
        }
        // Built outside the lock: expm is the expensive part, and a rare
        // duplicate build is cheaper than holding the mutex through it.
        let step = Arc::new(build());
        let mut steps = self.steps.lock().unwrap();
        // Bound the memo: a sweep over thousands of distinct amplitudes
        // degrades to cache misses instead of unbounded growth (each 9×9
        // entry is ~1.3 KB). Clearing never changes results, only timing.
        if steps.len() >= 1024 {
            steps.clear();
        }
        steps.entry(key).or_insert(step).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::average_gate_error;
    use crate::gates;

    fn pair() -> CoupledTransmons {
        CoupledTransmons::paper_pair(6.21286, 4.14238)
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let p = pair();
        assert!(p.hamiltonian(0.0).is_hermitian(1e-12));
        assert!(p.hamiltonian(-1.82).is_hermitian(1e-12));
    }

    #[test]
    fn resonance_detuning_value() {
        let p = pair();
        // (4.14238 + 0.25) − 6.21286 = −1.82048
        assert!((p.cz_resonance_detuning() + 1.82048).abs() < 1e-9);
    }

    #[test]
    fn idle_evolution_is_diagonal_in_frame() {
        let p = pair();
        let wf = DetuningWaveform::square(0.0, 10.0, 0.5);
        let u = p.propagate(&wf);
        assert!(u.is_unitary(1e-9));
        // Off-diagonal leakage from the static coupling is tiny at
        // 2 GHz detuning vs 10 MHz coupling.
        let mut off = 0.0f64;
        for i in 0..9 {
            for j in 0..9 {
                if i != j {
                    off = off.max(u[(i, j)].abs());
                }
            }
        }
        assert!(off < 0.02, "off-diagonal {off}");
    }

    #[test]
    fn rabi_oscillation_at_avoided_crossing() {
        let p = pair();
        let delta = p.cz_resonance_detuning();
        // Half Rabi period of the √2·g coupling: |11⟩ fully transfers to
        // |20⟩ and back at t = 1/(2·√2·g).
        let t_full = 1.0 / (2.0 * 2f64.sqrt() * p.coupling_ghz);
        let wf_half = DetuningWaveform::square(delta, t_full / 2.0, 0.05);
        let u_half = p.propagate(&wf_half);
        // |11⟩ is basis index 4; |20⟩ is index 6.
        let p11 = u_half[(4, 4)].abs2();
        assert!(p11 < 0.1, "should have left |11⟩, p11 = {p11}");

        let wf_full = DetuningWaveform::square(delta, t_full, 0.05);
        let u_full = p.propagate(&wf_full);
        let p11 = u_full[(4, 4)].abs2();
        assert!(p11 > 0.9, "should have returned to |11⟩, p11 = {p11}");
    }

    #[test]
    fn full_rabi_cycle_acquires_cz_phase() {
        let p = pair();
        let delta = p.cz_resonance_detuning();
        let t_full = 1.0 / (2.0 * 2f64.sqrt() * p.coupling_ghz);
        let u = p.propagate(&DetuningWaveform::square(delta, t_full, 0.02));
        let m = p.computational_block(&u);
        // Strip single-qubit z-phases: the CZ invariant is
        // φ00 − φ01 − φ10 + φ11 = π.
        let phase = m[(0, 0)].arg() - m[(1, 1)].arg() - m[(2, 2)].arg() + m[(3, 3)].arg();
        let wrapped = (phase - PI)
            .rem_euclid(2.0 * PI)
            .min((PI - phase).rem_euclid(2.0 * PI));
        assert!(
            wrapped < 0.15,
            "conditional phase should be ≈π, got {phase} (dev {wrapped})"
        );
    }

    #[test]
    fn off_resonance_square_pulse_does_nothing_entangling() {
        let p = pair();
        // Detune the wrong way: no crossing encountered.
        let u = p.propagate(&DetuningWaveform::square(0.3, 35.0, 0.25));
        let m = p.computational_block(&u);
        let phase = m[(0, 0)].arg() - m[(1, 1)].arg() - m[(2, 2)].arg() + m[(3, 3)].arg();
        let dev_from_0 = phase
            .rem_euclid(2.0 * PI)
            .min(2.0 * PI - phase.rem_euclid(2.0 * PI));
        assert!(dev_from_0 < 0.3, "unexpected conditional phase {phase}");
    }

    #[test]
    fn waveform_constructors() {
        let s = DetuningWaveform::square(-1.8, 30.0, 0.25);
        assert_eq!(s.deltas.len(), 120);
        assert!((s.duration_ns() - 30.0).abs() < 1e-12);

        let r = DetuningWaveform::rounded(-1.8, 5.0, 30.0, 0.25);
        assert!((r.duration_ns() - 40.0).abs() < 1e-12);
        // Monotone rise to the plateau.
        assert!(r.deltas[0].abs() < r.deltas[10].abs());
        let mid = r.deltas[r.deltas.len() / 2];
        assert!((mid + 1.8).abs() < 1e-9);

        let scaled = r.scaled(1.01);
        assert!((scaled.deltas[30] - r.deltas[30] * 1.01).abs() < 1e-12);
    }

    #[test]
    fn rounded_fall_mirrors_rise_bitwise() {
        // The fall edge must be the rise edge reversed *to the bit* — the
        // propagator memo keys on f64 bit patterns, so an ulp of asymmetry
        // would silently double the expm count.
        let r = DetuningWaveform::rounded(-1.82048, 4.0, 35.0, 0.5);
        let n = r.deltas.len();
        for k in 0..8 {
            assert_eq!(r.deltas[k].to_bits(), r.deltas[n - 1 - k].to_bits());
        }
    }

    #[test]
    fn cached_propagation_matches_uncached() {
        let p = pair();
        let wf = DetuningWaveform::rounded(p.cz_resonance_detuning(), 4.0, 20.0, 0.5);
        let cache = PropagatorCache::new();
        let u1 = p.propagate_with_cache(&wf, &cache);
        let distinct = cache.len();
        // 8 distinct rise samples + 1 plateau value, for 56 samples total.
        assert_eq!(distinct, 9);
        assert_eq!(u1, p.propagate(&wf));
        // A second pass builds nothing new and reproduces the result.
        let u3 = p.propagate_with_cache(&wf, &cache);
        assert_eq!(cache.len(), distinct);
        assert_eq!(u1, u3);
    }

    #[test]
    fn computational_block_shape_and_content() {
        let p = pair();
        let u = CMat::identity(9);
        let m = p.computational_block(&u);
        assert_eq!(m.rows(), 4);
        assert!(m.approx_eq(&CMat::identity(4), 1e-14));
    }

    #[test]
    fn near_cz_after_ideal_pulse_with_phase_freedom() {
        // With optimal local Z rotations, an ideal resonant pulse should
        // approximate CZ well (the Fig 7(a) zero-drift point, before the
        // 1q-gate optimization refines it further).
        let p = pair();
        let delta = p.cz_resonance_detuning();
        let t_full = 1.0 / (2.0 * 2f64.sqrt() * p.coupling_ghz);
        let m = p.uqq(&DetuningWaveform::square(delta, t_full, 0.02));
        // Optimize the four local-Z phases coarsely.
        let mut best = f64::INFINITY;
        let n = 24;
        for a in 0..n {
            for b in 0..n {
                let pa = a as f64 / n as f64 * 2.0 * PI;
                let pb = b as f64 / n as f64 * 2.0 * PI;
                let zz = CMat::diag(&[C64::ONE, C64::cis(pb), C64::cis(pa), C64::cis(pa + pb)]);
                let err = average_gate_error(&zz.matmul(&m), &gates::cz());
                best = best.min(err);
            }
        }
        assert!(best < 0.02, "CZ error too high: {best}");
    }
}
