//! `fig9_sweep`: the paper-scale Fig 9 sweep, cold, in a batch loop.
//!
//! Each round runs the spec on a fresh `EvalEngine` with `nproc`
//! workers; the digest covers the whole serialized report (job records
//! plus cache accounting), which the engine keeps byte-identical for any
//! worker count. The traced round rebuilds `run_job` from the engine's
//! public calls — `benchmark_circuit`, `compiled_with`, `min_lengths`,
//! `exec::execute`, with the Impossible-MIMD baseline executed once per
//! compile key through the store — and must reproduce the same bytes.

use crate::batch::{self, Batch, Checked};
use crate::stats::Fnv64;
use crate::trace::{self, Spans, Split};
use crate::Outcome;
use digiq_core::engine::{
    derive_seed, BenchScale, BenchmarkSpec, EvalEngine, JobRecord, JobSpec, SweepReport,
};
use digiq_core::exec::{checkerboard_groups, execute, ExecParams, ExecReport};
use digiq_core::store::ns;
use digiq_core::{BenchmarkReport, ControllerDesign, SweepSpec, SystemConfig};
use qcircuit::bench::ALL_BENCHMARKS;
use qcircuit::mapping::Layout;
use qcircuit::Grid;
use qsim::rng::{stable_hash_str, StdRng};
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seeded Fig 9 spec: the five Fig 9 designs × all six Table IV
/// benchmarks at paper scale on the 32×32 grid, two drift seeds and a
/// `base_seed`, all drawn from `seed` (kept below 2⁵³, the spec's JSON
/// round-trip bound).
pub fn spec(seed: u64) -> SweepSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = || rng.next_u64() >> 11;
    let mut spec = SweepSpec::small_grid(SweepSpec::fig9_designs(), &ALL_BENCHMARKS, 32, 32);
    spec.benchmarks = ALL_BENCHMARKS
        .iter()
        .map(|&bench| BenchmarkSpec {
            bench,
            scale: BenchScale::Paper,
        })
        .collect();
    spec.base_seed = draw();
    let seeds = vec![draw(), draw()];
    spec.with_seeds(seeds)
}

/// Invariants of a sweep report (one record per job; every normalized
/// time finite and at least 1), then its digest.
pub fn check(spec: &SweepSpec, report: &SweepReport) -> Checked {
    if report.jobs.len() != spec.job_count() {
        return Err(format!(
            "{} job records for {} jobs",
            report.jobs.len(),
            spec.job_count()
        ));
    }
    // Impossible MIMD lower-bounds every design (Fig 9's y-axis is >= 1).
    if let Some(j) = report
        .jobs
        .iter()
        .find(|j| !(j.report.normalized_time >= 1.0 - 1e-9 && j.report.normalized_time.is_finite()))
    {
        return Err(format!(
            "{:?} on {}: normalized time {}",
            j.design, j.benchmark, j.report.normalized_time
        ));
    }
    let mut d = Fnv64::new();
    d.update(report.to_json_string().as_bytes());
    Ok(d.hex())
}

fn round(spec: &SweepSpec, workers: usize) -> Checked {
    let report = EvalEngine::new(CostModel::default()).run(spec, workers);
    check(spec, &report)
}

/// `EvalEngine::run_job`, rebuilt from public calls with a span around
/// each layer.
fn traced_job(
    engine: &EvalEngine,
    spec: &SweepSpec,
    grid: &Grid,
    job: &JobSpec,
    sp: &mut Spans,
) -> JobRecord {
    let circuit = sp.time("qcircuit.bench", || {
        engine.benchmark_circuit(job.bench, spec.base_seed)
    });
    let compiled = sp.time("qcircuit.pipeline", || {
        engine.compiled_with(&circuit, grid, &spec.pipeline)
    });
    let layout = Layout::snake(circuit.n_qubits(), grid);
    let baseline_key = stable_hash_str(
        "baseline",
        &[
            circuit.cache_key(),
            layout.cache_key(),
            grid.rows() as u64,
            grid.cols() as u64,
            spec.pipeline.fingerprint(),
        ],
    );

    let mut config = SystemConfig::paper_default(job.point.design, job.point.groups);
    config.n_qubits = grid.n_qubits();
    let mut params = ExecParams::new(config);
    params.seed = derive_seed(spec.base_seed, job.seed);
    if let Some(lengths) = sp.time("calib.min_decomp", || engine.min_lengths(job.point.design)) {
        params.min_lengths = (*lengths).clone();
    }
    let groups = checkerboard_groups(grid.cols(), grid.n_qubits(), job.point.groups.clamp(1, 2));

    let gates = compiled.circuit.gates().len() as u64;
    let exec_timed = |sp: &mut Spans, params: &ExecParams| -> ExecReport {
        sp.count("core.exec.calls", 1);
        sp.count("core.exec.gates", gates);
        sp.time("core.exec", || {
            execute(&compiled.circuit, compiled.scheduled(), &groups, params)
        })
    };
    let exec = exec_timed(sp, &params);
    let base_exec = engine
        .store()
        .get_or_build_artifact(ns::BASELINE, baseline_key, || {
            let mut base = params.clone();
            base.config.design = ControllerDesign::ImpossibleMimd;
            exec_timed(sp, &base)
        });

    JobRecord {
        design: job.point.design,
        groups: job.point.groups,
        benchmark: job.bench.bench.name().to_string(),
        n_qubits: circuit.n_qubits(),
        seed: job.seed,
        power_w: None,
        report: BenchmarkReport {
            benchmark: job.bench.bench.name().to_string(),
            logical_gates: compiled.logical_gates,
            swaps: compiled.swaps,
            slots: compiled.scheduled().len(),
            normalized_time: exec.total_ns / base_exec.total_ns.max(f64::MIN_POSITIVE),
            exec,
        },
    }
}

fn traced_round(spec: &SweepSpec, workers: usize) -> (Checked, BTreeMap<String, f64>) {
    let t0 = Instant::now();
    qsim::counters::reset();
    let engine = EvalEngine::new(CostModel::default());
    let grid = Grid::new(spec.grid_rows, spec.grid_cols);
    let jobs = spec.jobs();
    let (records, mut spans, scale) = trace::par_map(&jobs, workers, Split::Dynamic, |job, sp| {
        traced_job(&engine, spec, &grid, job, sp)
    });
    for p in engine.pass_cache_stats().passes {
        let name = match p.pass.as_str() {
            "lower" => "qcircuit.pass.lower",
            "route" => "qcircuit.pass.route",
            "lower_swaps" => "qcircuit.pass.lower_swaps",
            "schedule" => "qcircuit.pass.schedule",
            _ => continue,
        };
        spans.nested(name, p.wall_ns * scale);
        match p.pass.as_str() {
            "route" => spans.count("qcircuit.pass.route.swaps_added", p.swaps_added),
            "schedule" => spans.count("qcircuit.pass.schedule.slots_out", p.slots_out),
            _ => {}
        }
    }
    let (hits, misses, ..) = engine.store_stats().totals();
    spans.count("core.store.hits", hits);
    spans.count("core.store.misses", misses);
    let report = SweepReport {
        grid_rows: spec.grid_rows,
        grid_cols: spec.grid_cols,
        jobs: records,
        cache: engine.cache_stats(),
    };
    let checked = check(spec, &report);
    spans.count_qsim();
    let wall = t0.elapsed().as_nanos() as f64;
    (checked, spans.into_metrics(wall))
}

pub fn run(start: Instant, seed: u64, seconds: f64, trace: bool, workers: usize) -> Outcome {
    let spec = spec(seed);
    let mut out = batch::run(
        start,
        seconds,
        trace,
        Batch {
            units: spec.job_count() as f64,
            round: || round(&spec, workers),
            traced: || traced_round(&spec, workers),
        },
    );
    out.info("jobs_per_round", spec.job_count());
    out.info("spec_key", format!("{:016x}", spec.stable_key()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_a_function_of_the_seed() {
        assert_eq!(spec(3), spec(3));
        assert_ne!(spec(3).stable_key(), spec(4).stable_key());
        assert_eq!(spec(3).job_count(), 5 * 6 * 2);
    }
}
