//! # digiq-bench — harnesses regenerating every DigiQ table and figure
//!
//! Each binary prints the rows/series of one paper artifact; run them all
//! with `cargo run -p digiq-bench --release --bin <name>`:
//!
//! | Binary              | Artifact |
//! |---------------------|----------|
//! | `table1_design_space` | Table I (design space) |
//! | `table2_parking`      | Table II (parking frequencies + drift tolerance) |
//! | `table3_cells`        | Table III (RSFQ cell library) |
//! | `fig2_trajectory`     | Fig 2 (SFQ-driven Bloch trajectory) |
//! | `fig3_cycle`          | Fig 3 (one DigiQ_opt controller cycle) |
//! | `fig4_waveform`       | Fig 4b (current-generator transient) |
//! | `fig7_cz_error`       | Fig 7 (CZ error vs drift, 1–3 pulses) |
//! | `fig8_synthesis`      | Fig 8a/b/c (power, area, cables) + §VI-A2 delay |
//! | `fig9_exec_time`      | Fig 9 (normalized execution time) |
//! | `fig10_gate_error`    | Fig 10a/b (per-qubit and per-coupler errors) |
//! | `scalability`         | §VI-A3 (max qubits at 10 W) |
//! | `sweep`               | batched design × benchmark × seed sweeps via `digiq_core::engine` |
//! | `cosim`               | cycle-accurate co-simulation (`digiq_core::cosim`) with `--diff-analytic` validation of the Fig 9 model and `--trace` per-cycle dumps |
//!
//! Every binary (these, `e2e`, the `kernels` bench, `serve` and
//! `loadgen`) reads argv only through [`cli`]: the shared flag family
//! plus its declared extras, which `--help` / `-h` print and which exit
//! 2 when malformed or missing their value. The sweep-shaped binaries are
//! driven by the batched evaluation engine (`digiq_core::engine`): jobs
//! shard over `--workers` threads (default: every core), shared
//! artifacts are memoized in the unified `digiq_core::store`
//! (persistently under `--cache-dir` — a second `sweep`, `cosim` or
//! `fig9_exec_time` run warm-starts with zero pass builds, and an
//! interrupted `sweep` resumes via `--resume`), and output is
//! deterministic for any worker count. `sweep --compare-serial`
//! measures the parallel speedup and proves byte-identical reports.
//!
//! Heavier harnesses accept `--small` / `--full` to trade fidelity for
//! runtime (defaults regenerate a faithful reduced grid; `--full` matches
//! paper scale). The `benches/` directory holds std-only timing kernels
//! (see [`timing`]) for the computational hot paths; run them with
//! `cargo bench -p digiq-bench --bench kernels` (add `-- --quick` for
//! smoke mode, `--json-out FILE` to record the stats, `--compare FILE`
//! to diff against a committed record; both go through [`record`]).
//!
//! The same evaluations are also served over TCP by the `digiq-serve`
//! crate: its `serve` daemon shares one engine across clients (with
//! request coalescing and graceful drain), and its `loadgen` binary —
//! built on [`timing::percentile`] — measures the service's req/s and
//! p50/p99 latency. `scripts/ci.sh --bench-json` records both kernel
//! and service numbers in `BENCH_<date>.json`.

pub mod cli;
pub mod record;
pub mod timing;

/// Prints a rule line for table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    #[test]
    fn helpers_do_not_panic() {
        super::rule(10);
    }
}
