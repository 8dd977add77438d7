//! # qsim — quantum physics substrate for the DigiQ reproduction
//!
//! This crate provides everything the DigiQ controller evaluation needs to
//! *physically model* superconducting qubits under SFQ control, built from
//! scratch with no external linear-algebra dependencies:
//!
//! * [`complex`] / [`matrix`] — complex arithmetic and small dense matrices
//!   with allocation-free in-place kernels ([`counters`] tallies their
//!   flops/allocations deterministically for perf regression tests, in
//!   the one counter table the compile and synthesis passes share);
//! * [`eigen`] / [`expm`] — Hermitian eigendecomposition (Jacobi) and
//!   matrix exponentials for exact piecewise-constant propagation;
//! * [`gates`] — ideal gate targets, ZYZ/paper-form Euler decomposition,
//!   canonical SU(2) quaternions;
//! * [`transmon`] — 6-level Duffing transmons and flux-tunable asymmetric
//!   transmons (§II-B of the paper);
//! * [`pulse`] — SFQ bitstream-driven evolution (§II-C, Fig 2) including
//!   the DigiQ_opt delay-as-Rz mechanism (§IV-A2, Fig 3);
//! * [`two_qubit`] — coupled transmon pairs and flux-pulse CZ gates
//!   (§IV-A3, §V-B, Fig 7);
//! * [`fidelity`] — average gate fidelity with leakage accounting
//!   (refs \[44\], \[45\]);
//! * [`optimize`] — Nelder–Mead and a genetic bitstring search used by
//!   the software-calibration layer.
//!
//! ## Units
//!
//! Frequencies are linear **GHz**, times are **ns**; a level of energy `E`
//! accumulates `e^{−i·2π·E·t}` of phase. The SFQ clock defaults to the
//! paper's 40 ps period.
//!
//! ## Quickstart
//!
//! ```
//! use qsim::transmon::Transmon;
//! use qsim::pulse::{SfqParams, SfqPulseSim};
//!
//! // Drive a 6.21286 GHz transmon with a resonant SFQ comb…
//! let sim = SfqPulseSim::new(Transmon::new(6.21286), SfqParams::default());
//! let bits = sim.resonant_comb(63);
//! let gate = sim.frame_gate_qubit(&bits);
//! // …and the projected evolution stays (nearly) norm-preserving: leakage
//! // is small for the gentle default tip angle.
//! assert!(qsim::fidelity::leakage(&gate) < 0.05);
//! ```

pub mod complex;
pub mod counters;
pub mod eigen;
pub mod expm;
pub mod fidelity;
pub mod gates;
pub mod matrix;
pub mod optimize;
pub mod pulse;
pub mod rng;
pub mod transmon;
pub mod two_qubit;

pub use complex::C64;
pub use matrix::CMat;
