//! # sfq-hw — RSFQ hardware substrate for the DigiQ reproduction
//!
//! Everything needed to estimate the power, area, delay, and cabling of
//! SFQ controller hardware the way the paper's §VI-A does, substituting a
//! calibrated structural model for the proprietary synthesis/extraction
//! toolchain (exact cell counts, with constants anchored to the paper's
//! published totals; see [`cost`]):
//!
//! * [`cells`] — the RSFQ standard-cell library of Table III;
//! * [`netlist`] — gate-level netlists with registered feedback and
//!   edge-weight balancing DFFs;
//! * [`generators`] — the structural building blocks of Fig 5
//!   (circulating bitstream registers, one-hot muxes, delay lines,
//!   counters, comparators, broadcast trees, SFQ/DC arrays, double
//!   buffers);
//! * [`passes`] — splitter insertion, full path balancing, retiming;
//! * [`workspace`] — per-thread node pool and pass scratch keeping the
//!   synthesis iteration path allocation-free;
//! * [`cost`] — calibrated power/area/delay roll-up;
//! * [`analog`] — transient simulation of the Fig 4 current generator;
//! * [`cables`] — room-temperature digital link sizing (Fig 8c).
//!
//! ## Quickstart
//!
//! ```
//! use sfq_hw::generators::one_hot_mux;
//! use sfq_hw::passes::synthesize;
//! use sfq_hw::cost::CostModel;
//!
//! // Synthesize the per-qubit bitstream selector for BS = 8…
//! let mut mux = one_hot_mux(8);
//! synthesize(&mut mux);
//! // …and price it with the calibrated technology model.
//! let report = CostModel::default().report(&mux);
//! assert!(report.power_w > 0.0 && report.worst_stage_ps < 40.0);
//! ```

pub mod analog;
pub mod cables;
pub mod cells;
pub mod cost;
pub mod generators;
pub mod json;
pub mod netlist;
pub mod passes;
pub mod workspace;

pub use cells::CellType;
pub use cost::{CostModel, CostReport};
pub use netlist::{Netlist, NetlistStats, NodeId};
