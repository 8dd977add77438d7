//! # digiq-core — the DigiQ controller architectures
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`design`] — the Table I design space (`SFQ_MIMD_naive`,
//!   `SFQ_MIMD_decomp`, `DigiQ_min(BS)`, `DigiQ_opt(BS)`) and the timing /
//!   control-payload parameters of §IV;
//! * [`hardware`] — Fig 5's structure composed from synthesized `sfq_hw`
//!   modules, priced by the calibrated cost model (Fig 8a/8b/8c);
//! * [`exec`] — the analytic SIMD execution-time model with delay-slot
//!   contention (Fig 9);
//! * [`delay_model`] — the shared gate → delay-class / decomposition-depth
//!   assignment both execution engines draw from;
//! * [`cosim`] — the cycle-accurate controller co-simulator: per-group
//!   sequencers, double-buffered select staging, per-cycle traces, and
//!   exact differential validation of the analytic model;
//! * [`error_model`] — per-qubit / per-coupler gate errors under drift
//!   with full software calibration (Fig 10);
//! * [`scalability`] — qubits-per-10 W analysis (§VI-A3);
//! * [`system`] — the per-benchmark [`BenchmarkReport`] and the
//!   DigiQ_min decomposition-length distribution;
//! * [`engine`] — the one evaluation path: a circuit at a design point
//!   (compile → route → schedule → execute → normalize,
//!   [`engine::EvalEngine::evaluate_circuit`]) and the batched,
//!   multi-threaded sweep engine built on it: declarative design ×
//!   benchmark × seed specs sharded across scoped workers, deterministic
//!   for any worker count;
//! * [`store`] — the unified content-addressed artifact store behind the
//!   engine: sharded build-once namespaces, LRU
//!   eviction under an optional capacity, optional disk persistence
//!   (`--cache-dir`) with atomic writes, and the sweep-resume journal.
//!
//! ## Quickstart
//!
//! ```
//! use digiq_core::design::ControllerDesign;
//! use digiq_core::engine::EvalEngine;
//! use sfq_hw::cost::CostModel;
//!
//! let engine = EvalEngine::new(CostModel::default());
//! let hw = engine.hardware(ControllerDesign::DigiqOpt { bs: 8 }, 2).unwrap();
//! assert!(hw.report.power_w < 1.0); // fits the fridge with room to spare
//! ```

pub mod cosim;
pub mod delay_model;
pub mod design;
pub mod engine;
pub mod error_model;
pub mod exec;
pub mod hardware;
pub mod scalability;
pub mod store;
pub mod system;

pub use cosim::{CosimParams, CosimReport};
pub use design::{ControllerDesign, SystemConfig};
pub use engine::{CosimSweepReport, EvalEngine, SweepReport, SweepSpec};
pub use hardware::{build_hardware, DesignHardware};
pub use store::{Artifact, ArtifactStore, StoreConfig, StoreStats, SweepJournal};
pub use system::BenchmarkReport;
