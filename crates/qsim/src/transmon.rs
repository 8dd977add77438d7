//! Transmon qubit models.
//!
//! Units convention for the whole crate: frequencies in **GHz** (linear, as
//! quoted in the paper, e.g. the 6.21286 GHz parking frequency of Table II)
//! and times in **ns**. A level with energy `E` (GHz) accumulates phase
//! `e^{−i·2π·E·t}` over `t` ns.
//!
//! The transmon is modelled as a Duffing oscillator truncated to a small
//! number of levels (six for single-qubit calibration, per §V-A; three per
//! qubit in the two-qubit simulation):
//!
//! ```text
//! E_n = n·f − (η/2)·n·(n−1)
//! ```
//!
//! with `f` the 0→1 transition frequency and `η` the anharmonicity
//! (250 MHz in the paper's evaluation).
//!
//! Flux-tunable *asymmetric* transmons (§II-B) additionally expose a
//! frequency-vs-flux curve used by the CZ flux pulse, and a Josephson-energy
//! parameterization used by the Monte-Carlo variability model (§VI-B).

use crate::complex::C64;
use crate::matrix::CMat;
use std::f64::consts::PI;

/// Default anharmonicity used throughout the paper's evaluation (§V-B).
pub const DEFAULT_ANHARMONICITY_GHZ: f64 = 0.250;

/// Number of levels retained for single-qubit leakage-aware simulation
/// (§V-A: "we model transmons using six energy levels").
pub const SINGLE_QUBIT_LEVELS: usize = 6;

/// A fixed-frequency transmon truncated to `levels` energy levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmon {
    /// 0→1 transition frequency in GHz.
    pub frequency_ghz: f64,
    /// Anharmonicity `η` in GHz (positive; the 1→2 transition sits at
    /// `f − η`).
    pub anharmonicity_ghz: f64,
    /// Number of retained levels (≥ 2).
    pub levels: usize,
}

impl Transmon {
    /// Creates a transmon with the paper's default anharmonicity and six
    /// levels.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_ghz` is not positive.
    pub fn new(frequency_ghz: f64) -> Self {
        Self::with_params(
            frequency_ghz,
            DEFAULT_ANHARMONICITY_GHZ,
            SINGLE_QUBIT_LEVELS,
        )
    }

    /// Creates a transmon with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_ghz <= 0` or `levels < 2`.
    pub fn with_params(frequency_ghz: f64, anharmonicity_ghz: f64, levels: usize) -> Self {
        assert!(frequency_ghz > 0.0, "qubit frequency must be positive");
        assert!(levels >= 2, "need at least 2 levels for a qubit");
        Transmon {
            frequency_ghz,
            anharmonicity_ghz,
            levels,
        }
    }

    /// Energy of level `n` in GHz: `E_n = n·f − (η/2)·n(n−1)`.
    pub fn energy(&self, n: usize) -> f64 {
        let nf = n as f64;
        nf * self.frequency_ghz - 0.5 * self.anharmonicity_ghz * nf * (nf - 1.0)
    }

    /// All level energies.
    pub fn energies(&self) -> Vec<f64> {
        (0..self.levels).map(|n| self.energy(n)).collect()
    }

    /// The diagonal Hamiltonian (GHz units) in the energy basis.
    pub fn hamiltonian(&self) -> CMat {
        CMat::diag(
            &self
                .energies()
                .iter()
                .map(|&e| C64::real(e))
                .collect::<Vec<_>>(),
        )
    }

    /// Lowering operator `a` with `⟨n−1|a|n⟩ = √n`.
    pub fn lowering(&self) -> CMat {
        let mut m = CMat::zeros(self.levels, self.levels);
        for n in 1..self.levels {
            m[(n - 1, n)] = C64::real((n as f64).sqrt());
        }
        m
    }

    /// Charge-coupling drive generator `Y = i(a† − a)`, the multilevel
    /// analogue of Pauli Y. An instantaneous SFQ pulse applies
    /// `exp(−i·(δθ/2)·Y)` (McDermott–Vavilov model, §II-C).
    pub fn drive_y(&self) -> CMat {
        let a = self.lowering();
        let ad = a.dagger();
        (&ad - &a).scale(C64::I)
    }

    /// Free-evolution propagator over `t_ns` in the lab frame:
    /// `diag(e^{−i·2π·E_n·t})`.
    pub fn free_propagator(&self, t_ns: f64) -> CMat {
        CMat::diag(
            &self
                .energies()
                .iter()
                .map(|&e| C64::cis(-2.0 * PI * e * t_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Rotating-frame transformation `R(t) = diag(e^{−i·2π·n·f_frame·t})`
    /// at frame frequency `f_frame` (GHz). A lab-frame evolution `U`
    /// over duration `t` becomes `R(t)† · U` in the frame.
    pub fn frame_propagator(&self, f_frame_ghz: f64, t_ns: f64) -> CMat {
        CMat::diag(
            &(0..self.levels)
                .map(|n| C64::cis(-2.0 * PI * n as f64 * f_frame_ghz * t_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Detunes the transmon by `delta_ghz`, returning a new model.
    pub fn detuned(&self, delta_ghz: f64) -> Transmon {
        Transmon {
            frequency_ghz: self.frequency_ghz + delta_ghz,
            ..*self
        }
    }
}

/// A flux-tunable asymmetric transmon (§II-B).
///
/// The two parallel Josephson junctions with energies `ej1`, `ej2` give a
/// flux-dependent effective Josephson energy
///
/// ```text
/// EJ(Φ) = (EJ1+EJ2) · |cos(πΦ/Φ₀)| · √(1 + d²·tan²(πΦ/Φ₀))
/// d = (EJ2−EJ1)/(EJ1+EJ2)
/// ```
///
/// and transmon frequency `f(Φ) ≈ √(8·EJ(Φ)·EC) − EC`. The charging energy
/// `EC` equals the anharmonicity in the transmon limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricTransmon {
    /// Josephson energy of junction 1 in GHz.
    pub ej1_ghz: f64,
    /// Josephson energy of junction 2 in GHz.
    pub ej2_ghz: f64,
    /// Charging energy `EC` in GHz (≈ anharmonicity).
    pub ec_ghz: f64,
    /// Number of retained levels.
    pub levels: usize,
}

impl AsymmetricTransmon {
    /// Designs an asymmetric transmon hitting `target_freq_ghz` at zero
    /// flux, with junction asymmetry `d` and charging energy `ec_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if the target frequency or `ec_ghz` is not positive, or if
    /// `d` is outside `[0, 1)`.
    pub fn design(target_freq_ghz: f64, asymmetry: f64, ec_ghz: f64, levels: usize) -> Self {
        assert!(target_freq_ghz > 0.0 && ec_ghz > 0.0);
        assert!((0.0..1.0).contains(&asymmetry));
        // f = sqrt(8·EJΣ·EC) − EC at Φ=0 ⇒ EJΣ = (f+EC)²/(8·EC).
        let ej_sum = (target_freq_ghz + ec_ghz).powi(2) / (8.0 * ec_ghz);
        let ej1 = ej_sum * (1.0 - asymmetry) / 2.0;
        let ej2 = ej_sum * (1.0 + asymmetry) / 2.0;
        AsymmetricTransmon {
            ej1_ghz: ej1,
            ej2_ghz: ej2,
            ec_ghz,
            levels,
        }
    }

    /// Junction asymmetry `d = (EJ2−EJ1)/(EJ1+EJ2)`.
    pub fn asymmetry(&self) -> f64 {
        (self.ej2_ghz - self.ej1_ghz) / (self.ej1_ghz + self.ej2_ghz)
    }

    /// Effective Josephson energy at reduced flux `phi = Φ/Φ₀`.
    pub fn effective_ej(&self, phi: f64) -> f64 {
        let d = self.asymmetry();
        let x = PI * phi;
        let c = x.cos().abs();
        let t2 = if x.cos().abs() < 1e-12 {
            f64::INFINITY
        } else {
            (x.tan()).powi(2)
        };
        let sum = self.ej1_ghz + self.ej2_ghz;
        if t2.is_infinite() {
            sum * d.abs()
        } else {
            sum * c * (1.0 + d * d * t2).sqrt()
        }
    }

    /// Qubit 0→1 frequency at reduced flux `phi` (GHz).
    pub fn frequency_at(&self, phi: f64) -> f64 {
        (8.0 * self.effective_ej(phi) * self.ec_ghz).sqrt() - self.ec_ghz
    }

    /// Applies multiplicative Josephson-energy variation (the paper's
    /// σ=0.2% Monte-Carlo model, §VI-B): each junction energy is scaled by
    /// the given factors.
    pub fn with_ej_variation(&self, scale1: f64, scale2: f64) -> Self {
        AsymmetricTransmon {
            ej1_ghz: self.ej1_ghz * scale1,
            ej2_ghz: self.ej2_ghz * scale2,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_ladder_with_anharmonicity() {
        let t = Transmon::new(6.0);
        assert_eq!(t.energy(0), 0.0);
        assert_eq!(t.energy(1), 6.0);
        // E2 = 2f − η = 12 − 0.25
        assert!((t.energy(2) - 11.75).abs() < 1e-12);
        // 1→2 transition is f − η.
        assert!((t.energy(2) - t.energy(1) - (6.0 - 0.25)).abs() < 1e-12);
    }

    #[test]
    fn lowering_operator_elements() {
        let t = Transmon::with_params(5.0, 0.3, 4);
        let a = t.lowering();
        assert_eq!(a[(0, 1)], C64::ONE);
        assert!((a[(1, 2)].re - 2f64.sqrt()).abs() < 1e-15);
        assert!((a[(2, 3)].re - 3f64.sqrt()).abs() < 1e-15);
        assert_eq!(a[(1, 0)], C64::ZERO);
    }

    #[test]
    fn drive_y_is_hermitian_and_pauli_like() {
        let t = Transmon::new(6.0);
        let y = t.drive_y();
        assert!(y.is_hermitian(1e-14));
        // Top 2×2 block is Pauli Y.
        let block = y.top_left_block(2);
        assert!(block.approx_eq(&crate::gates::y(), 1e-14));
    }

    #[test]
    fn free_propagator_is_unitary_and_periodic() {
        let t = Transmon::with_params(4.0, 0.25, 3);
        let u = t.free_propagator(0.125);
        assert!(u.is_unitary(1e-14));
        // After one full period of the 0→1 transition the qubit subspace
        // phase difference returns: e^{-i2πf t} with t = 1/f.
        let period = 1.0 / t.frequency_ghz;
        let up = t.free_propagator(period);
        let rel = up[(1, 1)] / up[(0, 0)];
        assert!(rel.approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn frame_removes_qubit_phase() {
        let t = Transmon::new(6.21286);
        let dt = 0.04; // one 40 ps SFQ clock tick
        let lab = t.free_propagator(dt);
        let rot = t
            .frame_propagator(t.frequency_ghz, dt)
            .dagger()
            .matmul(&lab);
        // In the qubit frame, the 0→1 relative phase vanishes.
        let rel = rot[(1, 1)] / rot[(0, 0)];
        assert!(rel.approx_eq(C64::ONE, 1e-12));
        // Higher levels keep anharmonic phase.
        let rel2 = rot[(2, 2)] / rot[(0, 0)];
        let expect = C64::cis(2.0 * PI * t.anharmonicity_ghz * dt);
        assert!(rel2.approx_eq(expect, 1e-12));
    }

    #[test]
    fn asymmetric_transmon_design_hits_target() {
        let a = AsymmetricTransmon::design(6.21286, 0.3, 0.25, 6);
        assert!((a.frequency_at(0.0) - 6.21286).abs() < 1e-9);
        assert!((a.asymmetry() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn frequency_decreases_with_flux() {
        let a = AsymmetricTransmon::design(6.0, 0.2, 0.25, 6);
        let f0 = a.frequency_at(0.0);
        let f1 = a.frequency_at(0.2);
        let f2 = a.frequency_at(0.4);
        assert!(f0 > f1 && f1 > f2);
        // Sweet spot: derivative ≈ 0 at Φ=0 (quadratic dependence).
        let df = (a.frequency_at(1e-4) - f0).abs();
        assert!(df < 1e-5);
    }

    #[test]
    fn ej_variation_shifts_frequency_as_expected() {
        // σ = 0.2% on each junction ⇒ ~0.1% frequency shift ≈ 6 MHz at
        // 6.2 GHz (paper §VI-B: "about ±6 MHz fluctuation").
        let a = AsymmetricTransmon::design(6.21286, 0.3, 0.25, 6);
        let v = a.with_ej_variation(1.002, 1.002);
        let shift = (v.frequency_at(0.0) - a.frequency_at(0.0)).abs();
        assert!(shift > 0.004 && shift < 0.009, "shift = {shift} GHz");
    }

    #[test]
    fn detuned_transmon() {
        let t = Transmon::new(6.0).detuned(0.01);
        assert!((t.frequency_ghz - 6.01).abs() < 1e-12);
        assert_eq!(t.levels, SINGLE_QUBIT_LEVELS);
    }
}
