//! The SFQ controller design space (Table I, §IV-A1).
//!
//! Four single-qubit-gate controller organizations are compared throughout
//! the paper:
//!
//! | Design            | Storage                    | Scalability limit      |
//! |-------------------|----------------------------|------------------------|
//! | `SFQ_MIMD_naive`  | one ≤300-bit register/qubit| power, area, bandwidth |
//! | `SFQ_MIMD_decomp` | ≥2 registers/qubit         | power, area            |
//! | `DigiQ_min(BS)`   | BS registers/*group*       | — (high scalability)   |
//! | `DigiQ_opt(BS)`   | 1 register + delay line/group | — (high scalability)|
//!
//! plus the **Impossible MIMD** reference of Fig 9 (same gate times,
//! unlimited parallelism, physically unbuildable at scale).

use sfq_hw::json::{Json, ToJson};
use std::fmt;

/// A point in the controller design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerDesign {
    /// One tailored bitstream register per qubit, updated from room
    /// temperature on the fly.
    SfqMimdNaive,
    /// A per-qubit universal gate set (two registers) selected by one bit
    /// per qubit per cycle.
    SfqMimdDecomp,
    /// SIMD with a discrete broadcast basis of `bs` stored bitstreams per
    /// group.
    DigiqMin {
        /// Number of distinct broadcast basis gates.
        bs: usize,
    },
    /// SIMD with one stored Ry(π/2) bitstream per group, broadcast at
    /// `bs` distinct delays per cycle.
    DigiqOpt {
        /// Number of distinct delayed copies per cycle.
        bs: usize,
    },
    /// The unbuildable reference point: per-qubit tailored gates with
    /// unlimited parallelism (Fig 9's normalization baseline).
    ImpossibleMimd,
}

impl ControllerDesign {
    /// The `BS` parameter where meaningful.
    pub fn bs(&self) -> Option<usize> {
        match *self {
            ControllerDesign::DigiqMin { bs } | ControllerDesign::DigiqOpt { bs } => Some(bs),
            _ => None,
        }
    }
}

impl ToJson for ControllerDesign {
    // Externally tagged, matching the former serde derive: unit variants
    // render as their name, struct variants as {"Variant":{"bs":n}}.
    fn to_json(&self) -> Json {
        match *self {
            ControllerDesign::SfqMimdNaive => "SfqMimdNaive".to_json(),
            ControllerDesign::SfqMimdDecomp => "SfqMimdDecomp".to_json(),
            ControllerDesign::ImpossibleMimd => "ImpossibleMimd".to_json(),
            ControllerDesign::DigiqMin { bs } => {
                Json::obj([("DigiqMin", Json::obj([("bs", bs.to_json())]))])
            }
            ControllerDesign::DigiqOpt { bs } => {
                Json::obj([("DigiqOpt", Json::obj([("bs", bs.to_json())]))])
            }
        }
    }
}

impl ControllerDesign {
    /// Reads a design back from its [`ToJson`] form (unit variants as
    /// strings, struct variants externally tagged). The inverse of
    /// [`ControllerDesign::to_json`]; used by the sweep-report reader.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if let Some(name) = j.as_str() {
            return match name {
                "SfqMimdNaive" => Ok(ControllerDesign::SfqMimdNaive),
                "SfqMimdDecomp" => Ok(ControllerDesign::SfqMimdDecomp),
                "ImpossibleMimd" => Ok(ControllerDesign::ImpossibleMimd),
                other => Err(format!("unknown design variant `{other}`")),
            };
        }
        for (variant, make) in [
            (
                "DigiqMin",
                (|bs| ControllerDesign::DigiqMin { bs }) as fn(usize) -> _,
            ),
            ("DigiqOpt", |bs| ControllerDesign::DigiqOpt { bs }),
        ] {
            if let Some(body) = j.get(variant) {
                let bs = body.count_field("bs", variant)?;
                if bs == 0 {
                    return Err(format!("`{variant}.bs` must be a positive integer"));
                }
                return Ok(make(bs as usize));
            }
        }
        Err("expected a design name or tagged variant object".to_string())
    }
}

impl fmt::Display for ControllerDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ControllerDesign::SfqMimdNaive => write!(f, "SFQ_MIMD_naive"),
            ControllerDesign::SfqMimdDecomp => write!(f, "SFQ_MIMD_decomp"),
            ControllerDesign::DigiqMin { bs } => write!(f, "DigiQ_min(BS={bs})"),
            ControllerDesign::DigiqOpt { bs } => write!(f, "DigiQ_opt(BS={bs})"),
            ControllerDesign::ImpossibleMimd => write!(f, "Impossible_MIMD"),
        }
    }
}

/// Full system configuration for one evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Which controller architecture.
    pub design: ControllerDesign,
    /// Number of qubit groups `G` (grouping is static, by nominal
    /// frequency, §IV-A1).
    pub groups: usize,
    /// Total qubits driven.
    pub n_qubits: usize,
    /// Bitstream register capacity in bits (§IV-B: ≤300).
    pub register_bits: usize,
    /// SFQ chip clock period in ns (40 ps).
    pub clock_period_ns: f64,
    /// Delay steps `N` for DigiQ_opt (255).
    pub n_delays: usize,
    /// Longest basis-gate bitstream in clock ticks (10.12 ns → 253).
    pub bitstream_ticks: usize,
    /// CZ gate duration in ns (60, from §V-B).
    pub cz_ns: f64,
}

impl SystemConfig {
    /// The paper's evaluation defaults for a given design and group count.
    pub fn paper_default(design: ControllerDesign, groups: usize) -> Self {
        SystemConfig {
            design,
            groups,
            n_qubits: 1024,
            register_bits: 300,
            clock_period_ns: 0.040,
            n_delays: 255,
            bitstream_ticks: 253,
            cz_ns: 60.0,
        }
    }

    /// Qubits per group.
    pub fn qubits_per_group(&self) -> usize {
        self.n_qubits.div_ceil(self.groups.max(1))
    }

    /// Controller-cycle duration in ns (§VI-B: 20.32 ns for DigiQ_opt —
    /// 10.12 ns of bitstream plus 255 delay ticks; 10.12 ns for the
    /// others, whose cycle is one bitstream).
    pub fn cycle_ns(&self) -> f64 {
        let bs_ns = self.bitstream_ticks as f64 * self.clock_period_ns;
        match self.design {
            ControllerDesign::DigiqOpt { .. } => {
                bs_ns + self.n_delays as f64 * self.clock_period_ns
            }
            _ => bs_ns,
        }
    }

    /// Controller-cycle duration in integer SFQ clock ticks — the exact
    /// time base of the cycle-accurate co-simulator
    /// ([`crate::cosim`]): 253 ticks for the one-bitstream designs,
    /// 253 + 255 = 508 for DigiQ_opt's bitstream-plus-delay-window cycle.
    pub fn cycle_ticks(&self) -> u64 {
        match self.design {
            ControllerDesign::DigiqOpt { .. } => (self.bitstream_ticks + self.n_delays) as u64,
            _ => self.bitstream_ticks as u64,
        }
    }

    /// CZ duration in integer SFQ clock ticks (60 ns / 40 ps = 1500),
    /// rounded to the nearest tick for non-grid-aligned configurations.
    pub fn cz_ticks(&self) -> u64 {
        (self.cz_ns / self.clock_period_ns).round() as u64
    }

    /// Minimum controller cycle assumed for cable sizing (§VI-A4: 9 ns for
    /// DigiQ_min, plus the 10.2 ns delay window for DigiQ_opt).
    pub fn cable_cycle_ns(&self) -> f64 {
        match self.design {
            ControllerDesign::DigiqOpt { .. } => 9.0 + self.n_delays as f64 * self.clock_period_ns,
            _ => 9.0,
        }
    }

    /// Per-qubit select bits per cycle: choose one of `BS` gates, a 2q
    /// start/stop, or nothing (§VI-A4).
    pub fn sel_bits_per_qubit(&self) -> usize {
        let options = match self.design {
            ControllerDesign::SfqMimdNaive => return self.register_bits, // streams raw bits
            ControllerDesign::SfqMimdDecomp => 2 + 3,
            ControllerDesign::DigiqMin { bs } | ControllerDesign::DigiqOpt { bs } => bs + 3,
            ControllerDesign::ImpossibleMimd => return 0,
        };
        (usize::BITS - (options - 1).leading_zeros()) as usize
    }

    /// Extra per-group bits per cycle (DigiQ_opt's `BS_sel` delay values:
    /// `BS × log2(N+1)` bits, §VI-A4).
    pub fn group_bits_per_cycle(&self) -> usize {
        match self.design {
            ControllerDesign::DigiqOpt { bs } => {
                let delay_bits = (usize::BITS - self.n_delays.leading_zeros()) as usize;
                bs * delay_bits
            }
            _ => 0,
        }
    }

    /// Total control payload bits per controller cycle.
    pub fn payload_bits_per_cycle(&self) -> u64 {
        self.n_qubits as u64 * self.sel_bits_per_qubit() as u64
            + self.groups as u64 * self.group_bits_per_cycle() as u64
    }
}

impl ToJson for SystemConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("groups", self.groups.to_json()),
            ("n_qubits", self.n_qubits.to_json()),
            ("register_bits", self.register_bits.to_json()),
            ("clock_period_ns", self.clock_period_ns.to_json()),
            ("n_delays", self.n_delays.to_json()),
            ("bitstream_ticks", self.bitstream_ticks.to_json()),
            ("cz_ns", self.cz_ns.to_json()),
        ])
    }
}

/// A Table I row, rendered programmatically.
#[derive(Debug, Clone)]
pub struct DesignSpaceRow {
    /// Design name.
    pub design: String,
    /// Scalability limiter.
    pub scalability: &'static str,
    /// Execution behaviour.
    pub execution: &'static str,
    /// Where pulse calibration happens.
    pub calibration: &'static str,
}

impl ToJson for DesignSpaceRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("scalability", self.scalability.to_json()),
            ("execution", self.execution.to_json()),
            ("calibration", self.calibration.to_json()),
        ])
    }
}

/// Regenerates Table I.
pub fn design_space_table() -> Vec<DesignSpaceRow> {
    vec![
        DesignSpaceRow {
            design: ControllerDesign::SfqMimdNaive.to_string(),
            scalability: "limited by power, area, and bandwidth",
            execution: "no gate serialization",
            calibration: "hardware",
        },
        DesignSpaceRow {
            design: ControllerDesign::SfqMimdDecomp.to_string(),
            scalability: "limited by power and area",
            execution: "no gate serialization",
            calibration: "hardware",
        },
        DesignSpaceRow {
            design: ControllerDesign::DigiqMin { bs: 2 }.to_string(),
            scalability: "high scalability",
            execution: "long decompositions",
            calibration: "software",
        },
        DesignSpaceRow {
            design: ControllerDesign::DigiqOpt { bs: 8 }.to_string(),
            scalability: "high scalability",
            execution: "potential serialization",
            calibration: "software",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_times_match_paper() {
        let opt = SystemConfig::paper_default(ControllerDesign::DigiqOpt { bs: 8 }, 2);
        assert!((opt.cycle_ns() - 20.32).abs() < 1e-9, "{}", opt.cycle_ns());
        let min = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 2 }, 2);
        assert!((min.cycle_ns() - 10.12).abs() < 1e-9);
        assert!((opt.cable_cycle_ns() - 19.2).abs() < 1e-9);
        assert!((min.cable_cycle_ns() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn tick_counts_are_exact() {
        let opt = SystemConfig::paper_default(ControllerDesign::DigiqOpt { bs: 8 }, 2);
        assert_eq!(opt.cycle_ticks(), 508);
        assert_eq!(opt.cz_ticks(), 1500);
        let min = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 2 }, 2);
        assert_eq!(min.cycle_ticks(), 253);
        assert_eq!(min.cz_ticks(), 1500);
        // Tick counts agree with the ns-domain durations.
        assert!((opt.cycle_ticks() as f64 * opt.clock_period_ns - opt.cycle_ns()).abs() < 1e-9);
        assert!((min.cz_ticks() as f64 * min.clock_period_ns - min.cz_ns).abs() < 1e-9);
    }

    #[test]
    fn cz_spans_three_opt_cycles() {
        // The paper: the 60 ns CZ "expands over three controller cycles"
        // for DigiQ_opt.
        let cz_cycles = |c: &SystemConfig| (c.cz_ns / c.cycle_ns()).ceil() as usize;
        let opt = SystemConfig::paper_default(ControllerDesign::DigiqOpt { bs: 16 }, 2);
        assert_eq!(cz_cycles(&opt), 3);
        let min = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 2 }, 2);
        assert_eq!(cz_cycles(&min), 6);
    }

    #[test]
    fn select_bit_widths() {
        let min2 = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 2 }, 2);
        assert_eq!(min2.sel_bits_per_qubit(), 3); // 5 options → 3 bits
        let opt16 = SystemConfig::paper_default(ControllerDesign::DigiqOpt { bs: 16 }, 2);
        assert_eq!(opt16.sel_bits_per_qubit(), 5); // 19 options → 5 bits
        let naive = SystemConfig::paper_default(ControllerDesign::SfqMimdNaive, 1);
        assert_eq!(naive.sel_bits_per_qubit(), 300);
    }

    #[test]
    fn group_bits_only_for_opt() {
        let opt = SystemConfig::paper_default(ControllerDesign::DigiqOpt { bs: 16 }, 2);
        assert_eq!(opt.group_bits_per_cycle(), 16 * 8);
        let min = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 4 }, 2);
        assert_eq!(min.group_bits_per_cycle(), 0);
    }

    #[test]
    fn payload_matches_cable_test_vectors() {
        // The §VI-A4 points validated in `sfq_hw::cables`.
        let min2 = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 2 }, 2);
        assert_eq!(min2.payload_bits_per_cycle(), 3 * 1024);
        let opt16 = SystemConfig::paper_default(ControllerDesign::DigiqOpt { bs: 16 }, 2);
        assert_eq!(opt16.payload_bits_per_cycle(), 5 * 1024 + 2 * 128);
    }

    #[test]
    fn display_names() {
        assert_eq!(ControllerDesign::SfqMimdNaive.to_string(), "SFQ_MIMD_naive");
        assert_eq!(
            ControllerDesign::DigiqOpt { bs: 8 }.to_string(),
            "DigiQ_opt(BS=8)"
        );
        assert_eq!(ControllerDesign::DigiqOpt { bs: 4 }.bs(), Some(4));
    }

    #[test]
    fn design_json_round_trips() {
        for d in [
            ControllerDesign::SfqMimdNaive,
            ControllerDesign::SfqMimdDecomp,
            ControllerDesign::ImpossibleMimd,
            ControllerDesign::DigiqMin { bs: 2 },
            ControllerDesign::DigiqOpt { bs: 16 },
        ] {
            assert_eq!(ControllerDesign::from_json(&d.to_json()), Ok(d));
        }
        assert!(ControllerDesign::from_json(&"Bogus".to_json()).is_err());
        assert!(ControllerDesign::from_json(&Json::obj([(
            "DigiqMin",
            Json::obj([("bs", Json::Num(-1.0))])
        )]))
        .is_err());
        assert!(ControllerDesign::from_json(&Json::Num(3.0)).is_err());
    }

    #[test]
    fn table_one_rows() {
        let t = design_space_table();
        assert_eq!(t.len(), 4);
        assert!(t[0].design.contains("naive"));
        assert_eq!(t[2].calibration, "software");
    }

    #[test]
    fn groups_divide_qubits() {
        let c = SystemConfig::paper_default(ControllerDesign::DigiqMin { bs: 2 }, 4);
        assert_eq!(c.qubits_per_group(), 256);
    }
}
