//! The RSFQ standard-cell library (paper Table III).
//!
//! Rapid Single Flux Quantum logic represents bits as picosecond flux
//! pulses; *every* logic gate is clocked (pulse arrival + clock consumption
//! evaluate the gate), which is why path balancing (see
//! [`crate::passes`]) is mandatory. The seven cells of Table III are
//! reproduced verbatim; two auxiliary cells used by the paper but not
//! tabulated — the Josephson Transmission Line segment (§VI-A: "its delay
//! is ∼1.5–2 ps") and the SFQ/DC converter of the current generator
//! (Fig 4, ref \[40\]) — carry documented estimates.
//!
//! # Examples
//!
//! ```
//! use sfq_hw::cells::CellType;
//!
//! assert_eq!(CellType::NdroDff.jj_count(), 18);
//! assert_eq!(CellType::And2.delay_ps(), 8.4);
//! assert!(CellType::DroDff.is_storage());
//! ```

use std::fmt;

/// An RSFQ standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellType {
    /// Clocked 2-input AND.
    And2,
    /// Clocked 2-input OR (confluence + DFF).
    Or2,
    /// Clocked 2-input XOR.
    Xor2,
    /// Clocked inverter.
    Not,
    /// Destructive-readout D flip-flop: reading erases the stored pulse.
    DroDff,
    /// Non-destructive-readout DFF: can be read repeatedly (holds select
    /// bits and register taps).
    NdroDff,
    /// Asynchronous 1→2 pulse splitter (fanout element).
    Splitter,
    /// Josephson transmission line segment (short-haul active wiring).
    Jtl,
    /// SFQ-to-DC converter: emits DC current while toggled on (the
    /// current-generator element of Fig 4).
    SfqDc,
}

/// All cell types, in Table III order followed by the auxiliary cells.
pub const ALL_CELLS: [CellType; 9] = [
    CellType::And2,
    CellType::Or2,
    CellType::Xor2,
    CellType::Not,
    CellType::DroDff,
    CellType::NdroDff,
    CellType::Splitter,
    CellType::Jtl,
    CellType::SfqDc,
];

impl CellType {
    /// Cell area in µm² (Table III; auxiliary cells estimated).
    pub fn area_um2(self) -> f64 {
        match self {
            CellType::And2 => 3500.0,
            CellType::Or2 => 3500.0,
            CellType::Xor2 => 3500.0,
            CellType::Not => 3500.0,
            CellType::DroDff => 3000.0,
            CellType::NdroDff => 4500.0,
            CellType::Splitter => 2000.0,
            // JTL: two-junction repeater stage, compact.
            CellType::Jtl => 600.0,
            // SFQ/DC converter: toggle flip-flop + output stage (ref [40]).
            CellType::SfqDc => 5000.0,
        }
    }

    /// Josephson-junction count (Table III; auxiliary cells estimated).
    pub fn jj_count(self) -> u32 {
        match self {
            CellType::And2 => 16,
            CellType::Or2 => 14,
            CellType::Xor2 => 18,
            CellType::Not => 12,
            CellType::DroDff => 11,
            CellType::NdroDff => 18,
            CellType::Splitter => 6,
            CellType::Jtl => 2,
            CellType::SfqDc => 13,
        }
    }

    /// Cell delay in ps (Table III; auxiliary cells estimated; JTL at the
    /// upper end of the paper's 1.5–2 ps quote).
    pub fn delay_ps(self) -> f64 {
        match self {
            CellType::And2 => 8.4,
            CellType::Or2 => 6.1,
            CellType::Xor2 => 5.8,
            CellType::Not => 13.2,
            CellType::DroDff => 6.2,
            CellType::NdroDff => 9.3,
            CellType::Splitter => 7.1,
            CellType::Jtl => 2.0,
            CellType::SfqDc => 10.0,
        }
    }

    /// Whether the cell is a clocked element (consumes a clock pulse and
    /// therefore defines a pipeline stage). In RSFQ all logic gates are
    /// clocked; only the splitter and JTL are asynchronous.
    pub fn is_clocked(self) -> bool {
        !matches!(self, CellType::Splitter | CellType::Jtl)
    }

    /// Whether the cell is a storage element (holds state across cycles).
    pub fn is_storage(self) -> bool {
        matches!(self, CellType::DroDff | CellType::NdroDff | CellType::SfqDc)
    }

    /// Number of logic inputs (excluding clock).
    pub fn fanin(self) -> usize {
        match self {
            CellType::And2 | CellType::Or2 | CellType::Xor2 => 2,
            // NDRO has data + (set/reset handled as data in this model);
            // treated as single-data-input storage.
            CellType::Not
            | CellType::DroDff
            | CellType::NdroDff
            | CellType::Splitter
            | CellType::Jtl
            | CellType::SfqDc => 1,
        }
    }

    /// Maximum legal fanout before splitter insertion. RSFQ gates drive a
    /// single sink; only splitters branch (1→2).
    pub fn max_fanout(self) -> usize {
        match self {
            CellType::Splitter => 2,
            _ => 1,
        }
    }

    /// Short mnemonic used in netlist dumps.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellType::And2 => "AND2",
            CellType::Or2 => "OR2",
            CellType::Xor2 => "XOR2",
            CellType::Not => "NOT",
            CellType::DroDff => "DRO",
            CellType::NdroDff => "NDRO",
            CellType::Splitter => "SPL",
            CellType::Jtl => "JTL",
            CellType::SfqDc => "SFQDC",
        }
    }

    /// Whether this cell appears in the paper's Table III (vs. an
    /// auxiliary estimate of ours).
    pub fn in_table_iii(self) -> bool {
        !matches!(self, CellType::Jtl | CellType::SfqDc)
    }
}

impl fmt::Display for CellType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values_are_verbatim() {
        // (cell, area, jj, delay) — straight from the paper.
        let expected = [
            (CellType::And2, 3500.0, 16, 8.4),
            (CellType::Or2, 3500.0, 14, 6.1),
            (CellType::Xor2, 3500.0, 18, 5.8),
            (CellType::Not, 3500.0, 12, 13.2),
            (CellType::DroDff, 3000.0, 11, 6.2),
            (CellType::NdroDff, 4500.0, 18, 9.3),
            (CellType::Splitter, 2000.0, 6, 7.1),
        ];
        for (cell, area, jj, delay) in expected {
            assert_eq!(cell.area_um2(), area, "{cell} area");
            assert_eq!(cell.jj_count(), jj, "{cell} jj");
            assert_eq!(cell.delay_ps(), delay, "{cell} delay");
            assert!(cell.in_table_iii());
        }
    }

    #[test]
    fn auxiliary_cells_flagged() {
        assert!(!CellType::Jtl.in_table_iii());
        assert!(!CellType::SfqDc.in_table_iii());
    }

    #[test]
    fn clocked_and_storage_classification() {
        assert!(CellType::And2.is_clocked());
        assert!(CellType::Not.is_clocked());
        assert!(!CellType::Splitter.is_clocked());
        assert!(!CellType::Jtl.is_clocked());
        assert!(CellType::DroDff.is_storage());
        assert!(CellType::NdroDff.is_storage());
        assert!(!CellType::And2.is_storage());
    }

    #[test]
    fn fanin_and_fanout_limits() {
        assert_eq!(CellType::And2.fanin(), 2);
        assert_eq!(CellType::Not.fanin(), 1);
        assert_eq!(CellType::Splitter.max_fanout(), 2);
        assert_eq!(CellType::And2.max_fanout(), 1);
    }

    #[test]
    fn all_cells_have_positive_attributes() {
        for c in ALL_CELLS {
            assert!(c.area_um2() > 0.0);
            assert!(c.jj_count() > 0);
            assert!(c.delay_ps() > 0.0);
            assert!(!c.mnemonic().is_empty());
        }
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(CellType::NdroDff.to_string(), "NDRO");
        assert_eq!(format!("{}", CellType::Splitter), "SPL");
    }
}
