//! Room-temperature ↔ 4 K digital cable sizing (Fig 8c).
//!
//! DigiQ replaces per-qubit analog coax with shared digital links: control
//! bits for every controller cycle must arrive within that cycle over
//! 10 Gbps return-to-zero cables (§VI-A4), plus three dedicated control
//! lines (`Go`, `Valid`, `Load`). This module computes the cable count for
//! a given per-cycle payload.
//!
//! # Examples
//!
//! ```
//! use sfq_hw::cables::{CableSpec, cable_count};
//!
//! // DigiQ_min(G=2, BS=2): 3 sel bits × 1024 qubits over a 9 ns cycle.
//! let n = cable_count(3 * 1024, 9.0, &CableSpec::default());
//! assert!(n >= 30 && n <= 45);
//! ```

/// Physical link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CableSpec {
    /// Per-cable data rate in Gbit/s (paper: 10 Gbps RZ, ref \[12\]).
    pub gbps: f64,
    /// Dedicated control lines (paper: Go, Valid, Load).
    pub control_lines: u64,
}

impl Default for CableSpec {
    fn default() -> Self {
        CableSpec {
            gbps: 10.0,
            control_lines: 3,
        }
    }
}

/// Bits one cable delivers within one controller cycle.
pub fn bits_per_cable_per_cycle(cycle_ns: f64, spec: &CableSpec) -> f64 {
    spec.gbps * cycle_ns
}

/// Number of cables needed to deliver `bits_per_cycle` payload bits every
/// `cycle_ns`, including the dedicated control lines.
///
/// # Panics
///
/// Panics if `cycle_ns <= 0`.
pub fn cable_count(bits_per_cycle: u64, cycle_ns: f64, spec: &CableSpec) -> u64 {
    assert!(cycle_ns > 0.0, "cycle time must be positive");
    let per_cable = bits_per_cable_per_cycle(cycle_ns, spec);
    let data = (bits_per_cycle as f64 / per_cable).ceil() as u64;
    data + spec.control_lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_cable() {
        let spec = CableSpec::default();
        // 10 Gbps × 9 ns = 90 bits.
        assert!((bits_per_cable_per_cycle(9.0, &spec) - 90.0).abs() < 1e-12);
    }

    #[test]
    fn digiq_min_cable_count_matches_paper_scale() {
        // §VI-A4: DigiQ_min(G=2,BS=2) needs 39 cables per 1024 qubits with
        // a 9 ns controller cycle. Our model: 3 select bits per qubit.
        let spec = CableSpec::default();
        let n = cable_count(3 * 1024, 9.0, &spec);
        assert!(
            (35..=43).contains(&n),
            "cable count {n} far from paper's 39"
        );
    }

    #[test]
    fn digiq_opt_cable_count_matches_paper_scale() {
        // DigiQ_opt(G=2,BS=16): 19.32 ns minimum cycle; 5 sel bits/qubit +
        // 2 groups × 16 delays × 8 bits. Paper: 33 cables.
        let spec = CableSpec::default();
        let payload = 5 * 1024 + 2 * 16 * 8;
        let n = cable_count(payload, 19.32, &spec);
        assert!(
            (28..=38).contains(&n),
            "cable count {n} far from paper's 33"
        );
    }

    #[test]
    fn control_lines_always_included() {
        let spec = CableSpec::default();
        assert_eq!(cable_count(0, 9.0, &spec), 3);
        assert_eq!(cable_count(1, 9.0, &spec), 4);
    }

    #[test]
    fn microwave_baseline() {
        // A conventional microwave controller runs 2 coax lines per qubit
        // (1 drive + 1 flux, ref [3]). The paper's 52.5× claim for
        // DigiQ_min(G=2,BS=2): 2048 / 39 ≈ 52.5.
        let digiq = cable_count(3 * 1024, 9.0, &CableSpec::default());
        let ratio = (2 * 1024) as f64 / digiq as f64;
        assert!((45.0..60.0).contains(&ratio), "ratio {ratio:.1}");
    }

    #[test]
    fn shorter_cycles_need_more_cables() {
        let spec = CableSpec::default();
        let slow = cable_count(4096, 20.0, &spec);
        let fast = cable_count(4096, 5.0, &spec);
        assert!(fast > slow);
    }
}
