//! `fig10_error`: the 64-qubit Fig 10 error model in a batch loop.
//!
//! A round is `calibrate_shared`, then `fig10a`, then `fig10b` at
//! coupler stride 4 on an 8-column grid with `nproc` threads; the drift
//! population's seed comes from the workload seed. The digest covers
//! every qubit's opt/min median and every coupler's CZ error. The traced
//! round rebuilds both figures from the calib layer's public calls (the
//! per-qubit and per-coupler bodies of `error_model`), so reproducing
//! the untraced digest proves the spans time the real computation.

use crate::batch::{self, Batch, Checked};
use crate::stats::Fnv64;
use crate::trace::{self, Spans, Split};
use crate::Outcome;
use calib::bitstream::basis_op_for_qubit;
use calib::cz::{calibrate_shared_pulse, cz_error_with_local_1q, uqq_for_drift};
use calib::drift::{sample_population, SampledQubit};
use calib::min_decomp::{decompose_min, MinBasis, SequenceDb};
use calib::opt_decomp::{decompose_opt_with, OptBasis, OptTables};
use digiq_core::error_model::{
    calibrate_shared, fig10a, fig10b, target_sample, ErrorModelConfig, SharedCalibration,
};
use qcircuit::Grid;
use qsim::matrix::CMat;
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use qsim::two_qubit::CoupledTransmons;
use std::collections::BTreeMap;
use std::time::Instant;

const QUBITS: usize = 64;
const GRID_COLS: usize = 8;
const COUPLER_STRIDE: usize = 4;
/// `error_model::fig10a`'s target-sample seed.
const TARGET_SEED: u64 = 0xF160_10A0;

/// The seeded configuration: `ErrorModelConfig::small(64)` on 8 grid
/// columns with the drift population's seed drawn from `seed`.
pub fn config(seed: u64, threads: usize) -> ErrorModelConfig {
    let mut config = ErrorModelConfig::small(QUBITS);
    config.grid_cols = GRID_COLS;
    config.threads = threads;
    config.drift.seed = StdRng::seed_from_u64(seed).next_u64();
    config
}

/// Invariants of one evaluation, then its digest.
fn check(medians: &[(f64, f64)], cz: &[f64]) -> Checked {
    if medians.len() != QUBITS {
        return Err(format!("{} qubit rows for {QUBITS} qubits", medians.len()));
    }
    // Gate errors are probabilities; strongly drifted qubits legitimately
    // reach tenths, so only the physical range is an invariant.
    let sane = |e: f64| e.is_finite() && (0.0..=1.0).contains(&e);
    if let Some((q, m)) = medians
        .iter()
        .enumerate()
        .find(|(_, &(opt, min))| !(sane(opt) && sane(min)))
    {
        return Err(format!("qubit {q}: medians {m:?} out of range"));
    }
    if cz.is_empty() || !cz.iter().all(|&e| sane(e)) {
        return Err(format!("CZ errors out of range: {cz:?}"));
    }
    let mut d = Fnv64::new();
    for &(opt, min) in medians {
        d.push_f64(opt);
        d.push_f64(min);
    }
    for &e in cz {
        d.push_f64(e);
    }
    Ok(d.hex())
}

fn round(config: &ErrorModelConfig) -> Checked {
    let shared = calibrate_shared(config);
    let rows = fig10a(config, &shared);
    let oneq: Vec<f64> = rows.iter().map(|r| r.opt_median).collect();
    let czs = fig10b(config, &oneq, COUPLER_STRIDE);
    let medians: Vec<(f64, f64)> = rows.iter().map(|r| (r.opt_median, r.min_median)).collect();
    let cz: Vec<f64> = czs.iter().map(|c| c.cz_error).collect();
    check(&medians, &cz)
}

/// `error_model`'s median: NaN-tolerant sort, upper middle element.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// One qubit of Fig 10a: its (opt, min) median errors.
fn traced_qubit(
    config: &ErrorModelConfig,
    shared: &SharedCalibration,
    targets: &[CMat],
    q: &SampledQubit,
    sp: &mut Spans,
) -> (f64, f64) {
    let class = config
        .parking_ghz
        .iter()
        .position(|&f| (f - q.nominal_ghz).abs() < 1e-9)
        .unwrap_or(0);
    let actual = Transmon::new(q.actual_ghz);

    let ubs = sp.time("calib.bitstream.basis_op", || {
        basis_op_for_qubit(&shared.ry_bits[class], actual, shared.opt_params)
    });
    let basis = OptBasis::new(&ubs, q.actual_ghz, shared.opt_params.clock_period_ns, 255);
    let tables = sp.time("calib.opt_decomp.tables", || OptTables::build(&basis));
    sp.count("calib.opt_decomp.decompose.calls", targets.len() as u64);
    let opt = sp.time("calib.opt_decomp.decompose", || {
        targets
            .iter()
            .map(|t| decompose_opt_with(&tables, t, 0.0, 3, 1e-4).error)
            .collect()
    });

    let min_basis = sp.time("calib.bitstream.basis_op", || {
        let [b0, b1] = [0, 1].map(|i| {
            basis_op_for_qubit(&shared.min_bits[class][i], actual, shared.min_params)
                .top_left_block(2)
        });
        MinBasis::new(vec![b0, b1])
    });
    let db = sp.time("calib.min_decomp.db", || {
        SequenceDb::build(&min_basis, config.min_half_depth)
    });
    let min = sp.time("calib.min_decomp.decompose", || {
        targets
            .iter()
            .map(|t| decompose_min(t, &min_basis, &db, 1e-4).error)
            .collect()
    });
    (median(opt), median(min))
}

fn traced_round(config: &ErrorModelConfig) -> (Checked, BTreeMap<String, f64>) {
    let t0 = Instant::now();
    qsim::counters::reset();
    let mut spans = Spans::default();
    let shared = spans.time("core.error_model.calibrate_shared", || {
        calibrate_shared(config)
    });

    // Fig 10a.
    let population = sample_population(
        config.grid_cols,
        config.n_qubits,
        &config.parking_ghz,
        &config.drift,
    );
    let targets = target_sample(config.n_targets, TARGET_SEED);
    let (medians, section, _) =
        trace::par_map(&population, config.threads, Split::Chunks, |q, sp| {
            traced_qubit(config, &shared, &targets, q, sp)
        });
    spans.absorb(&section, 1.0);

    // Fig 10b.
    let oneq: Vec<f64> = medians.iter().map(|m| m.0).collect();
    let grid = Grid::new(config.n_qubits.div_ceil(config.grid_cols), config.grid_cols);
    let nominal = CoupledTransmons::paper_pair(
        config.parking_ghz[0],
        *config.parking_ghz.last().expect("parking frequencies"),
    );
    let pulse = spans.time("calib.cz.shared_pulse", || {
        calibrate_shared_pulse(&nominal, 4.0, 0.25)
    });
    let couplers: Vec<(usize, (usize, usize))> = grid
        .couplers()
        .into_iter()
        .enumerate()
        .step_by(COUPLER_STRIDE)
        .collect();
    let (cz, section, _) = trace::par_map(
        &couplers,
        config.threads,
        Split::Chunks,
        |&(idx, (a, b)), sp| {
            let (hi, lo) = if population[a].nominal_ghz >= population[b].nominal_ghz {
                (a, b)
            } else {
                (b, a)
            };
            let uqq = sp.time("calib.cz.uqq", || {
                uqq_for_drift(
                    &nominal,
                    &pulse,
                    population[hi].drift_ghz(),
                    population[lo].drift_ghz(),
                    population[hi].current_scale,
                )
            });
            let echo = sp.time("calib.cz.error", || {
                let e1 = cz_error_with_local_1q(&uqq, 1, 2, 0xF160_10B0 + idx as u64);
                let e2 = cz_error_with_local_1q(&uqq, 2, 2, 0xF160_10B1 + idx as u64);
                e1.min(e2)
            });
            let local =
                2.0 * (oneq.get(a).copied().unwrap_or(0.0) + oneq.get(b).copied().unwrap_or(0.0));
            qsim::fidelity::circuit_error([echo, local])
        },
    );
    spans.absorb(&section, 1.0);
    spans.count_qsim();
    let checked = check(&medians, &cz);
    let wall = t0.elapsed().as_nanos() as f64;
    (checked, spans.into_metrics(wall))
}

pub fn run(start: Instant, seed: u64, seconds: f64, trace: bool, workers: usize) -> Outcome {
    let config = config(seed, workers);
    let mut out = batch::run(
        start,
        seconds,
        trace,
        Batch {
            units: QUBITS as f64,
            round: || round(&config),
            traced: || traced_round(&config),
        },
    );
    out.info("drift_seed", format!("{:016x}", config.drift.seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_a_function_of_the_seed() {
        assert_eq!(config(5, 2).drift.seed, config(5, 2).drift.seed);
        assert_ne!(config(5, 2).drift.seed, config(6, 2).drift.seed);
        assert_eq!(config(5, 2).n_qubits, QUBITS);
    }
}
