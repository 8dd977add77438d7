//! The evaluation result and sequence-length inputs shared by every
//! evaluation mode.
//!
//! A circuit is evaluated one way, by
//! [`EvalSession::evaluate_circuit`](crate::engine::EvalSession::evaluate_circuit):
//! compile through the §VI-B pipeline (lower → route on the grid → lower
//! SWAPs → crosstalk-aware schedule), execute under a design point, and
//! normalize to the Impossible MIMD baseline (Fig 9). This module holds
//! that flow's result type, [`BenchmarkReport`], and the DigiQ_min
//! decomposition-length distribution the executor charges
//! ([`MinBasisKind`], [`measured_min_lengths_with_db`]).

use crate::design::ControllerDesign;
use crate::exec::ExecReport;
use calib::min_decomp::{decompose_min, MinBasis, SequenceDb};
use sfq_hw::json::{Json, ToJson};

/// Evaluation result for one benchmark (one Fig 9 bar).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Logical gates before routing.
    pub logical_gates: usize,
    /// SWAPs inserted by routing.
    pub swaps: usize,
    /// Schedule slots.
    pub slots: usize,
    /// Execution accounting under this design.
    pub exec: ExecReport,
    /// Execution time normalized to Impossible MIMD (Fig 9's y-axis).
    pub normalized_time: f64,
}

impl ToJson for BenchmarkReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", self.benchmark.to_json()),
            ("logical_gates", self.logical_gates.to_json()),
            ("swaps", self.swaps.to_json()),
            ("slots", self.slots.to_json()),
            ("exec", self.exec.to_json()),
            ("normalized_time", self.normalized_time.to_json()),
        ])
    }
}

impl BenchmarkReport {
    /// Reads a report back from its [`ToJson`] form — the inverse of
    /// [`BenchmarkReport::to_json`], used by the sweep-report reader.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "benchmark report";
        Ok(BenchmarkReport {
            benchmark: j.str_field("benchmark", CTX)?.to_string(),
            logical_gates: j.count_field("logical_gates", CTX)? as usize,
            swaps: j.count_field("swaps", CTX)? as usize,
            slots: j.count_field("slots", CTX)? as usize,
            exec: ExecReport::from_json(j.get("exec").ok_or("benchmark report missing `exec`")?)?,
            normalized_time: j.num_field("normalized_time", CTX)?,
        })
    }
}

/// The distinct broadcast bases used by the sequence searches; a small
/// closed set so batched evaluations can key sequence databases and
/// length distributions on it (`crate::engine` memoizes both per kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinBasisKind {
    /// The ideal minimal basis {Ry(π/2), T} of §IV-A2 (BS = 2, and the
    /// per-qubit universal set of `SFQ_MIMD_decomp`).
    IdealRyT,
    /// The richer 4-gate basis {Ry(π/2), T, X, S} used for `BS ≥ 4`.
    Rich4,
}

impl MinBasisKind {
    /// The basis kind a design's sequence search uses.
    pub fn for_design(design: ControllerDesign) -> MinBasisKind {
        match design {
            ControllerDesign::DigiqMin { bs } if bs >= 4 => MinBasisKind::Rich4,
            _ => MinBasisKind::IdealRyT,
        }
    }

    /// Materializes the basis operations.
    pub fn basis(self) -> MinBasis {
        match self {
            MinBasisKind::IdealRyT => MinBasis::ideal_ry_t(),
            MinBasisKind::Rich4 => MinBasis::new(vec![
                qsim::gates::ry(std::f64::consts::FRAC_PI_2),
                qsim::gates::t(),
                qsim::gates::x(),
                qsim::gates::s(),
            ]),
        }
    }

    /// Meet-in-the-middle half depth: a smaller alphabet needs a deeper
    /// half-database for the same coverage.
    pub fn half_depth(self) -> usize {
        match self {
            MinBasisKind::IdealRyT => 11,
            MinBasisKind::Rich4 => 7,
        }
    }
}

/// Derives an empirical DigiQ_min sequence-length distribution by running
/// the real meet-in-the-middle search over a stratified target sample,
/// against an already-built (possibly cached and shared) sequence
/// database for `basis`.
pub fn measured_min_lengths_with_db(basis: &MinBasis, db: &SequenceDb) -> Vec<usize> {
    let targets = crate::error_model::target_sample(24, 0x515E_0001);
    // Paper procedure (§VI-B): "we decompose single-qubit gates until the
    // approximation error falls below 1e-4, up to a maximum depth of 28".
    // Gates whose best sequence misses the target are charged the full
    // depth.
    let mut lengths: Vec<usize> = targets
        .iter()
        .map(|t| {
            let dec = decompose_min(t, basis, db, 1e-4);
            if dec.error > 1e-4 {
                28
            } else {
                dec.cycles().max(1)
            }
        })
        .collect();
    lengths.sort_unstable();
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured_min_lengths(design: ControllerDesign) -> Vec<usize> {
        let kind = MinBasisKind::for_design(design);
        let basis = kind.basis();
        measured_min_lengths_with_db(&basis, &SequenceDb::build(&basis, kind.half_depth()))
    }

    #[test]
    fn measured_min_lengths_are_plausible() {
        let l2 = measured_min_lengths(ControllerDesign::DigiqMin { bs: 2 });
        assert!(!l2.is_empty());
        let med2 = l2[l2.len() / 2];
        assert!(
            (6..=28).contains(&med2),
            "BS=2 median depth {med2} out of range"
        );
        // BS=4's richer basis shortens sequences (the paper: "increasing
        // BS from 2 to 4 reduces the depth … by roughly half").
        let l4 = measured_min_lengths(ControllerDesign::DigiqMin { bs: 4 });
        let med4 = l4[l4.len() / 2];
        // Richer basis never lengthens sequences; both can saturate at
        // the 28-depth cap for Haar-random targets.
        assert!(med4 <= med2, "BS=4 median {med4} > BS=2 median {med2}");
    }
}
