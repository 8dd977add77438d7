//! # digiq — a scalable digital SFQ controller for quantum computers
//!
//! Full-system Rust reproduction of **DigiQ** (Jokar et al., HPCA 2022):
//! the first system-level design of a NISQ-friendly Single-Flux-Quantum
//! classical controller for superconducting quantum computers.
//!
//! This facade crate re-exports the five workspace layers:
//!
//! * [`qsim`] — quantum physics substrate (transmons, SFQ pulse trains,
//!   coupled-qubit CZ simulation, fidelity metrics, optimizers);
//! * [`sfq_hw`] — RSFQ hardware substrate (Table III cells, netlists,
//!   synthesis passes, calibrated cost model, analog current generator);
//! * [`qcircuit`] — circuit IR, the Table IV NISQ benchmarks, 32×32-grid
//!   routing, crosstalk-aware scheduling, and the unified compiler pass
//!   pipeline (`qcircuit::pipeline`) with pluggable strategies;
//! * [`calib`] — the §V software-calibration layer (bitstream search,
//!   parking frequencies, drift models, per-qubit decomposition);
//! * [`digiq_core`] — the controller architectures themselves (design
//!   space, hardware composition, execution model, error model,
//!   scalability).
//!
//! See `README.md` for the quickstart, the crate map ("Crate map") and
//! the binary ↔ artifact map ("Regenerating paper artifacts"). The
//! `examples/` directory and the `digiq-bench` harnesses regenerate every
//! table and figure.

pub use calib;
pub use digiq_core;
pub use qcircuit;
pub use qsim;
pub use sfq_hw;
