//! digiq-serve: the DigiQ evaluation engine as a multi-tenant service.
//!
//! The batch binaries (`sweep`, `cosim`) answer one question per
//! process; this crate lifts the same [`digiq_core::engine::EvalEngine`]
//! behind a std-only TCP daemon so many concurrent clients share one
//! engine, one artifact store, and one set of builds:
//!
//! * [`proto`] — the length-prefixed [`sfq_hw::json`] wire protocol
//!   (versioned control frames; report bodies as raw frames so the
//!   golden byte-identity guarantee survives the wire untouched);
//! * [`server`] — the daemon: bounded admission through one FIFO
//!   (fair because each connection queues at most one request), request
//!   coalescing through the store's build-once slots, and journaled
//!   graceful drain (restart-resume merges byte-identical, extending the
//!   PR-5 interrupt/resume contract across a process boundary);
//! * [`client`] — the blocking client `loadgen` and the integration
//!   tests drive.
//!
//! Binaries: `serve` (the daemon) and `loadgen` (N concurrent clients,
//! req/s and p50/p99 latency, warm vs cold store); both parse argv with
//! `digiq_bench::cli`, so a malformed flag exits 2 before any I/O.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, EvalOutcome};
pub use proto::{Request, Response, MAX_FRAME, PROTOCOL_VERSION};
pub use server::{serve, ServeConfig, ServerHandle};
