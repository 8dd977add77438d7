//! # qcircuit — circuit IR, NISQ benchmarks and compilation for DigiQ
//!
//! The software side of the paper's evaluation pipeline (§VI-B), from
//! algorithm to hardware-shaped schedule:
//!
//! 1. [`bench`](mod@bench) — algorithmically generated benchmark
//!    circuits (Table IV: QGAN, Ising, BV, two 256-bit adders, Grover
//!    square root);
//! 2. [`lower`] — decomposition into the {1q, CZ} hardware set;
//! 3. [`topology`] / [`mapping`] — the 32×32 grid and stochastic SWAP
//!    routing;
//! 4. [`schedule`] — crosstalk-aware (and plain ASAP) grouping of
//!    commuting CZs;
//! 5. [`pipeline`] — the compile pipeline: the above as one closed
//!    sequence of named, fingerprinted, individually timed and validated
//!    stages, with per-stage metrics and the routing/scheduling strategy
//!    selection of [`PipelineConfig`];
//! 6. [`ir`] — the gate/circuit types plus a statevector simulator used
//!    as the correctness oracle for everything above.
//!
//! ## Quickstart
//!
//! ```
//! use qcircuit::bench::ising_chain;
//! use qcircuit::lower::lower_to_cz;
//! use qcircuit::mapping::{route, Layout, RouteWorkspace};
//! use qcircuit::pipeline::RouteStrategy;
//! use qcircuit::schedule::{schedule_crosstalk_aware, ScheduleWorkspace};
//! use qcircuit::topology::Grid;
//!
//! let grid = Grid::new(4, 4);
//! let circuit = lower_to_cz(&ising_chain(16, 1, 0.3, 0.7));
//! let routed = route(&mut RouteWorkspace::new(), &circuit, &grid,
//!                    &Layout::snake(16, &grid), RouteStrategy::Greedy);
//! let slots = schedule_crosstalk_aware(&mut ScheduleWorkspace::new(), &routed.circuit, &grid);
//! assert!(!slots.is_empty());
//! ```

pub mod bench;
pub mod ir;
pub mod lower;
pub mod mapping;
pub mod pipeline;
pub mod schedule;
pub mod topology;

pub use ir::{Circuit, Gate, OneQ};
pub use pipeline::PipelineConfig;
pub use topology::Grid;
