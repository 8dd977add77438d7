//! Gate-error model across the machine (Fig 10).
//!
//! Combines the calibration layer with the Monte-Carlo drift population to
//! produce the paper's per-qubit and per-coupler error statistics:
//!
//! * **Fig 10a** — median single-qubit gate error per qubit, for
//!   DigiQ_opt (delay decomposition on the drifted basis) and DigiQ_min
//!   (sequence search over the drifted discrete basis). Medians are taken
//!   over a deterministic stratified sample of target gates
//!   (Cliffords + Haar-like rotations, standing in for the paper's
//!   unspecified target set; a fixed sample keeps medians reproducible).
//! * **Fig 10b** — CZ error per grid coupler: the shared flux pulse
//!   produces a drifted `Uqq` per pair; the echo calibration of
//!   `calib::cz` composes the best 1–2-pulse CZ, and the surrounding
//!   single-qubit gates contribute their own decomposition error.
//!
//! Every parallel stage goes through [`crate::engine::par_map_ordered`]:
//! the six shared-bitstream searches of [`calibrate_shared`] (three per
//! parking frequency), the qubits of [`fig10a`], and in [`fig10b`] the
//! shared CZ pulse's hold-time scan
//! ([`calib::cz::calibrate_shared_pulse_on`]) and then the couplers.
//! Results merge in input order, so every output is independent of the
//! thread count.

use crate::engine::par_map_ordered;
use calib::bitstream::{basis_op_for_qubit, find_bitstream, SearchConfig, ZFreedom};
use calib::cz::{calibrate_shared_pulse_on, cz_error_with_local_1q, uqq_for_drift, SharedCzPulse};
use calib::drift::{sample_population, DriftModel};
use calib::min_decomp::{decompose_min, MinBasis, SequenceDb};
use calib::opt_decomp::{decompose_opt_with, OptBasis, OptTables};
use qsim::matrix::CMat;
use qsim::optimize::GaConfig;
use qsim::pulse::SfqParams;
use qsim::rng::StdRng;
use qsim::transmon::Transmon;
use qsim::two_qubit::CoupledTransmons;
use sfq_hw::json::{Json, ToJson};
use std::f64::consts::PI;

/// Configuration of the error-model evaluation.
#[derive(Debug, Clone)]
pub struct ErrorModelConfig {
    /// Grid columns (qubit index → position).
    pub grid_cols: usize,
    /// Number of qubits to evaluate.
    pub n_qubits: usize,
    /// Parking frequencies (checkerboard assignment).
    pub parking_ghz: Vec<f64>,
    /// Drift/variability model.
    pub drift: DriftModel,
    /// Target gates sampled per qubit for the median.
    pub n_targets: usize,
    /// DigiQ_min meet-in-the-middle half depth.
    pub min_half_depth: usize,
    /// GA budget for the shared-bitstream searches.
    pub ga: GaConfig,
    /// Worker threads for each parallel stage: the shared-bitstream
    /// searches, the Fig 10a qubits, the Fig 10b CZ hold-time scan and
    /// the Fig 10b couplers. Results do not depend on it.
    pub threads: usize,
}

impl Default for ErrorModelConfig {
    fn default() -> Self {
        ErrorModelConfig {
            grid_cols: 32,
            n_qubits: 1024,
            parking_ghz: vec![6.21286, 4.14238],
            drift: DriftModel::default(),
            n_targets: 24,
            min_half_depth: 10,
            ga: GaConfig {
                population: 48,
                generations: 60,
                ..GaConfig::default()
            },
            threads: 8,
        }
    }
}

impl ErrorModelConfig {
    /// A small configuration for tests and examples.
    pub fn small(n_qubits: usize) -> Self {
        ErrorModelConfig {
            grid_cols: 4,
            n_qubits,
            n_targets: 8,
            min_half_depth: 8,
            ga: GaConfig {
                population: 24,
                generations: 25,
                ..GaConfig::default()
            },
            threads: 4,
            ..ErrorModelConfig::default()
        }
    }
}

/// Deterministic stratified target-gate sample.
pub fn target_sample(n: usize, seed: u64) -> Vec<CMat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets = vec![
        qsim::gates::h(),
        qsim::gates::x(),
        qsim::gates::s(),
        qsim::gates::t(),
    ];
    while targets.len() < n {
        targets.push(qsim::gates::u_zyz(
            rng.gen_range(0.0..PI),
            rng.gen_range(-PI..PI),
            rng.gen_range(-PI..PI),
        ));
    }
    targets.truncate(n);
    targets
}

/// Per-qubit Fig 10a record.
#[derive(Debug, Clone)]
pub struct QubitErrorRow {
    /// Physical qubit index.
    pub qubit: usize,
    /// Frequency drift in GHz.
    pub drift_ghz: f64,
    /// Median 1q gate error on DigiQ_opt.
    pub opt_median: f64,
    /// Median 1q gate error on DigiQ_min.
    pub min_median: f64,
}

impl ToJson for QubitErrorRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("qubit", self.qubit.to_json()),
            ("drift_ghz", self.drift_ghz.to_json()),
            ("opt_median", self.opt_median.to_json()),
            ("min_median", self.min_median.to_json()),
        ])
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    // total_cmp: a NaN error (pathological basis) must not panic the
    // whole sweep; NaNs sort to the ends and the median stays meaningful.
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return f64::NAN;
    }
    v[v.len() / 2]
}

/// The shared calibration artifacts (found once, broadcast to all qubits —
/// this is what makes the architecture SIMD).
#[derive(Debug, Clone)]
pub struct SharedCalibration {
    /// Ry(π/2) bitstream per parking frequency (DigiQ_opt).
    pub ry_bits: Vec<Vec<bool>>,
    /// {Ry(π/2), T} bitstreams per parking frequency (DigiQ_min).
    pub min_bits: Vec<[Vec<bool>; 2]>,
    /// Pulse parameters used for the opt search.
    pub opt_params: SfqParams,
    /// Pulse parameters used for the min search (larger tip angle,
    /// (π/2)/16 instead of the opt (π/2)/63, so the two-burst T composite
    /// fits the register).
    pub min_params: SfqParams,
}

/// Finds the shared bitstreams for every parking frequency (§V-A step 1).
///
/// The searches (opt Ry(π/2), min Ry(π/2) and min T per frequency) are
/// independent and run on `config.threads` workers; each is seeded by
/// `config.ga.seed` alone, so the bits do not depend on the thread count.
pub fn calibrate_shared(config: &ErrorModelConfig) -> SharedCalibration {
    let opt_params = SfqParams::default();
    let min_params = SfqParams {
        delta_theta: (PI / 2.0) / 16.0,
        ..SfqParams::default()
    };
    let ry = qsim::gates::ry(PI / 2.0);
    let t = qsim::gates::t();
    // Per parking frequency: the opt Ry(π/2), then the min {Ry(π/2), T}.
    let searches: Vec<(f64, SfqParams, &CMat, ZFreedom)> = config
        .parking_ghz
        .iter()
        .flat_map(|&f| {
            [
                (f, opt_params, &ry, ZFreedom::PrePost),
                (f, min_params, &ry, ZFreedom::None),
                (f, min_params, &t, ZFreedom::None),
            ]
        })
        .collect();
    let found = par_map_ordered(
        &searches,
        config.threads,
        |_, &(f, params, target, freedom)| {
            let sc = SearchConfig {
                length: if f > 5.0 { 253 } else { 225 },
                ga: config.ga,
            };
            find_bitstream(Transmon::new(f), params, target, freedom, &sc).bits
        },
    );
    let mut found = found.into_iter();
    let mut next = || found.next().expect("one result per search");
    let (ry_bits, min_bits) = config
        .parking_ghz
        .iter()
        .map(|_| (next(), [next(), next()]))
        .unzip();
    SharedCalibration {
        ry_bits,
        min_bits,
        opt_params,
        min_params,
    }
}

/// Evaluates Fig 10a: per-qubit median single-qubit gate error for both
/// DigiQ designs, over the sampled drift population.
pub fn fig10a(config: &ErrorModelConfig, shared: &SharedCalibration) -> Vec<QubitErrorRow> {
    let population = sample_population(
        config.grid_cols,
        config.n_qubits,
        &config.parking_ghz,
        &config.drift,
    );
    let targets = target_sample(config.n_targets, 0xF160_10A0);

    par_map_ordered(&population, config.threads, |_, q| {
        let class = config
            .parking_ghz
            .iter()
            .position(|&f| (f - q.nominal_ghz).abs() < 1e-9)
            .unwrap_or(0);
        let actual = Transmon::new(q.actual_ghz);

        // DigiQ_opt: recompute the basis op under drift, then decompose
        // every target against one set of prebuilt delay tables.
        let ubs = basis_op_for_qubit(&shared.ry_bits[class], actual, shared.opt_params);
        let basis = OptBasis::new(&ubs, q.actual_ghz, shared.opt_params.clock_period_ns, 255);
        let tables = OptTables::build(&basis);
        let opt_errors: Vec<f64> = targets
            .iter()
            .map(|t| decompose_opt_with(&tables, t, 0.0, 3, 1e-4).error)
            .collect();

        // DigiQ_min: drifted discrete basis, sequence search over one
        // database.
        let b0 = basis_op_for_qubit(&shared.min_bits[class][0], actual, shared.min_params)
            .top_left_block(2);
        let b1 = basis_op_for_qubit(&shared.min_bits[class][1], actual, shared.min_params)
            .top_left_block(2);
        let min_basis = MinBasis::new(vec![b0, b1]);
        let db = SequenceDb::build(&min_basis, config.min_half_depth);
        let min_errors: Vec<f64> = targets
            .iter()
            .map(|t| decompose_min(t, &min_basis, &db, 1e-4).error)
            .collect();

        QubitErrorRow {
            qubit: q.index,
            drift_ghz: q.drift_ghz(),
            opt_median: median(opt_errors),
            min_median: median(min_errors),
        }
    })
}

/// Per-coupler Fig 10b record.
#[derive(Debug, Clone)]
pub struct CouplerErrorRow {
    /// Coupler index (grid enumeration order).
    pub coupler: usize,
    /// The two physical qubits.
    pub qubits: (usize, usize),
    /// Composed CZ error (echo-optimized Uqq + 1q contributions).
    pub cz_error: f64,
}

impl ToJson for CouplerErrorRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("coupler", self.coupler.to_json()),
            ("qubits", self.qubits.to_json()),
            ("cz_error", self.cz_error.to_json()),
        ])
    }
}

/// Evaluates Fig 10b over (a sample of) the grid couplers, after
/// calibrating the shared CZ pulse's hold time on `config.threads`
/// workers.
///
/// `oneq_error` supplies the per-qubit single-qubit error (from
/// [`fig10a`]) folded in for the gates flanking each `Uqq`;
/// `coupler_stride` subsamples the 1984 couplers (1 = all).
pub fn fig10b(
    config: &ErrorModelConfig,
    oneq_error: &[f64],
    coupler_stride: usize,
) -> Vec<CouplerErrorRow> {
    let grid =
        qcircuit::topology::Grid::new(config.n_qubits.div_ceil(config.grid_cols), config.grid_cols);
    let population = sample_population(
        config.grid_cols,
        config.n_qubits,
        &config.parking_ghz,
        &config.drift,
    );
    let nominal =
        CoupledTransmons::paper_pair(config.parking_ghz[0], *config.parking_ghz.last().unwrap());
    let pulse: SharedCzPulse = calibrate_shared_pulse_on(&nominal, 4.0, 0.25, config.threads);

    let couplers: Vec<(usize, (usize, usize))> = grid
        .couplers()
        .into_iter()
        .enumerate()
        .step_by(coupler_stride.max(1))
        .collect();

    par_map_ordered(&couplers, config.threads, |_, &(idx, (a, b))| {
        // Identify the high-frequency (flux-tuned) qubit of the pair.
        let (hi, lo) = if population[a].nominal_ghz >= population[b].nominal_ghz {
            (a, b)
        } else {
            (b, a)
        };
        let uqq = uqq_for_drift(
            &nominal,
            &pulse,
            population[hi].drift_ghz(),
            population[lo].drift_ghz(),
            population[hi].current_scale,
        );
        let e1 = cz_error_with_local_1q(&uqq, 1, 2, 0xF160_10B0 + idx as u64);
        let e2 = cz_error_with_local_1q(&uqq, 2, 2, 0xF160_10B1 + idx as u64);
        let echo = e1.min(e2);
        // Surrounding single-qubit gates (2 layers × 2 qubits).
        let oneq = 2.0
            * (oneq_error.get(a).copied().unwrap_or(0.0)
                + oneq_error.get(b).copied().unwrap_or(0.0));
        CouplerErrorRow {
            coupler: idx,
            qubits: (a, b),
            cz_error: qsim::fidelity::circuit_error([echo, oneq]),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_sample_is_deterministic_and_sized() {
        let a = target_sample(10, 1);
        let b = target_sample(10, 1);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(y, 0.0));
        }
    }

    #[test]
    fn shared_calibration_counters_do_not_depend_on_threads() {
        // The searches run on pool threads; `par_map_ordered` rolls their
        // tallies into this thread, so the totals are the same for any
        // worker count (and not zero, as they would be if they were lost).
        let mut config = ErrorModelConfig::small(8);
        let mut run = |threads| {
            config.threads = threads;
            qsim::counters::counted(|| calibrate_shared(&config))
        };
        let (serial, serial_tally) = run(1);
        let (parallel, parallel_tally) = run(4);
        assert!(serial_tally.flops > 0 && serial_tally.allocs > 0);
        assert_eq!(serial_tally, parallel_tally);
        assert_eq!(serial.ry_bits, parallel.ry_bits);
        assert_eq!(serial.min_bits, parallel.min_bits);
    }

    #[test]
    fn small_fig10a_produces_sane_errors() {
        let config = ErrorModelConfig::small(8);
        let shared = calibrate_shared(&config);
        let rows = fig10a(&config, &shared);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.opt_median.is_finite() && r.opt_median < 0.1,
                "opt median {:.2e} at q{}",
                r.opt_median,
                r.qubit
            );
            assert!(
                r.min_median.is_finite() && r.min_median < 0.2,
                "min median {:.2e} at q{}",
                r.min_median,
                r.qubit
            );
            assert!(r.opt_median >= 0.0 && r.min_median >= 0.0);
        }
    }

    #[test]
    fn small_fig10b_produces_sane_errors() {
        let config = ErrorModelConfig::small(8);
        let oneq = vec![2e-4; 8];
        let rows = fig10b(&config, &oneq, 4);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.cz_error.is_finite() && r.cz_error < 0.2,
                "cz error {:.2e}",
                r.cz_error
            );
            // 1q contribution is folded in: error exceeds it.
            assert!(r.cz_error > 4.0 * 2e-4 * 0.5);
        }
    }
}
