//! Post-synthesis power / area / delay estimation.
//!
//! The paper reports post-layout numbers from WRSpice/JSIM-simulated
//! extractions of a validated cell library (§VI-A1). We cannot run those
//! proprietary flows, so this module substitutes a *calibrated structural
//! model* (the extraction tools are not public, but the cell counts are
//! exact and the paper's totals anchor the constants): cost is rolled up from exact cell
//! counts of the synthesized netlists, with three documented constants
//! anchored to the numbers the paper publishes:
//!
//! * **Power** — RSFQ is dominated by static bias dissipation
//!   `P ≈ N_JJ · I_bias · V_bias · w` with `w` a wiring/bias-network
//!   overhead factor. The anchor is §IV-A1: a 300-bit register (600
//!   master–slave NDROs = 10,806 JJ) costs 5.01 mW/qubit ⇒
//!   `I_bias = 180 µA`, `V_bias = 2.6 mV`, `w = 1.0`. SFQ/DC converters
//!   are excluded from the digital bias sum (they emit DC while toggled;
//!   a fixed per-converter analog allowance is added instead). A
//!   (negligible) dynamic term `E_sw·f·α` is included for completeness.
//! * **Area** — `A = Σ cell areas / utilization`; SFQ layouts are
//!   PTL-routing dominated and sparse. The same anchor (13.9 mm²/qubit for
//!   the 300-bit register, 2.70 mm² of cells) gives `utilization = 0.195`.
//! * **Delay** — per-stage: worst over clocked sinks of (async fanin chain
//!   delay + JTL wiring + own cell delay); the paper's synthesized worst
//!   stage is 34.5 ps, giving the 40 ps SFQ clock.
//!
//! Because every *relative* comparison in Fig 8 (BS/G sweeps, MIMD
//! baselines) divides out these constants, the calibration only fixes the
//! absolute scale.

use crate::cells::CellType;
use crate::json::{Json, ToJson};
use crate::netlist::{Netlist, NetlistStats};

/// Magnetic flux quantum in mV·ps (≡ 2.07 × 10⁻¹⁵ Wb).
pub const PHI0_MV_PS: f64 = 2.07;

/// Calibrated technology constants (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Average bias current per JJ in µA (including bias network).
    pub bias_current_per_jj_ua: f64,
    /// Bias rail voltage in mV.
    pub bias_voltage_mv: f64,
    /// Multiplier for JTL/PTL wiring & bias JJs not present in the cell
    /// netlist.
    pub wiring_jj_overhead: f64,
    /// Fraction of die area occupied by cells (rest: PTL tracks, bias).
    pub area_utilization: f64,
    /// Average JTL hops per netlist edge (wiring delay model).
    pub jtl_hops_per_edge: f64,
    /// SFQ clock frequency in GHz (dynamic-power term only).
    pub clock_ghz: f64,
    /// Average switching activity per JJ per clock.
    pub switching_activity: f64,
    /// Analog power allowance per SFQ/DC converter, nW (replaces its
    /// digital bias contribution).
    pub sfqdc_analog_nw: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            bias_current_per_jj_ua: 180.0,
            bias_voltage_mv: 2.6,
            wiring_jj_overhead: 1.0,
            area_utilization: 0.195,
            jtl_hops_per_edge: 1.5,
            clock_ghz: 25.0,
            switching_activity: 0.3,
            sfqdc_analog_nw: 1000.0,
        }
    }
}

/// Power / area / delay report for a module or a composed design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostReport {
    /// Total power in watts.
    pub power_w: f64,
    /// Total area in mm².
    pub area_mm2: f64,
    /// Worst pipeline-stage delay in ps (0 when no clocked cells exist).
    pub worst_stage_ps: f64,
    /// Total Josephson junctions (before wiring overhead).
    pub total_jj: u64,
}

impl ToJson for CostReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("power_w", self.power_w.to_json()),
            ("area_mm2", self.area_mm2.to_json()),
            ("worst_stage_ps", self.worst_stage_ps.to_json()),
            ("total_jj", self.total_jj.to_json()),
        ])
    }
}

impl CostModel {
    /// Static + dynamic power of a stats block, in watts.
    pub fn power_w(&self, stats: &NetlistStats) -> f64 {
        let n_sfqdc = stats.count(CellType::SfqDc);
        let digital_jj = stats.total_jj - n_sfqdc * CellType::SfqDc.jj_count() as u64;
        let jj = digital_jj as f64 * self.wiring_jj_overhead;
        // Static: I·V per JJ. (µA · mV = nW)
        let static_nw = jj * self.bias_current_per_jj_ua * self.bias_voltage_mv;
        // Dynamic: E_sw = I_c·Φ₀ per switch (µA · mV·ps = 1e-21 J ⇒ zJ).
        let esw_zj = self.bias_current_per_jj_ua * PHI0_MV_PS;
        let dynamic_nw = jj * esw_zj * 1e-21 * self.clock_ghz * 1e9 * self.switching_activity * 1e9;
        let analog_nw = n_sfqdc as f64 * self.sfqdc_analog_nw;
        (static_nw + dynamic_nw + analog_nw) * 1e-9
    }

    /// Die area of a stats block, in mm².
    pub fn area_mm2(&self, stats: &NetlistStats) -> f64 {
        stats.cell_area_um2 / self.area_utilization / 1e6
    }

    /// Worst pipeline-stage delay of a netlist in ps.
    ///
    /// For each clocked sink, the stage delay is the longest asynchronous
    /// chain (splitters/JTLs) feeding it — measured from the previous
    /// clocked element or balancing DFF — plus per-edge JTL wiring and the
    /// sink's own delay.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn worst_stage_ps(&self, nl: &Netlist) -> f64 {
        let order = nl.topo_order().expect("acyclic netlist");
        let wire = self.jtl_hops_per_edge * CellType::Jtl.delay_ps();
        // out_time[n]: when n's pulse leaves, relative to stage start.
        let mut out_time = vec![0.0f64; nl.len()];
        let mut worst = 0.0f64;
        for id in order {
            let node = nl.node(id);
            let cell = node.cell();
            // Arrival per pin.
            let mut arrival = 0.0f64;
            for (pin, &src) in node.fanin.iter().enumerate() {
                let launched = if node.in_dffs[pin] > 0 {
                    // Last balancing DFF relaunches the pulse.
                    CellType::DroDff.delay_ps()
                } else {
                    out_time[src.index()]
                };
                // First balancing DFF on the edge is itself a stage sink.
                if node.in_dffs[pin] > 0 {
                    worst = worst.max(out_time[src.index()] + wire + CellType::DroDff.delay_ps());
                }
                arrival = arrival.max(launched + wire);
            }
            match cell {
                None => out_time[id.index()] = 0.0,
                Some(c) if c.is_clocked() => {
                    // Stage ends here; pulse relaunches at next clock.
                    worst = worst.max(arrival + c.delay_ps());
                    out_time[id.index()] = c.delay_ps();
                }
                Some(c) => {
                    // Asynchronous cell accumulates.
                    out_time[id.index()] = arrival + c.delay_ps();
                }
            }
            // Output-side balancing DFFs form their own stages.
            if node.out_dffs > 0 {
                worst = worst.max(out_time[id.index()] + wire + CellType::DroDff.delay_ps());
                out_time[id.index()] = CellType::DroDff.delay_ps();
            }
        }
        worst
    }

    /// Full report for one synthesized netlist.
    pub fn report(&self, nl: &Netlist) -> CostReport {
        let stats = nl.stats();
        CostReport {
            power_w: self.power_w(&stats),
            area_mm2: self.area_mm2(&stats),
            worst_stage_ps: self.worst_stage_ps(nl),
            total_jj: stats.total_jj,
        }
    }

    /// Report for a hierarchically composed stats block (no netlist-level
    /// delay available; `worst_stage_ps` supplied by the caller from the
    /// constituent modules).
    pub fn report_composed(&self, stats: &NetlistStats, worst_stage_ps: f64) -> CostReport {
        CostReport {
            power_w: self.power_w(stats),
            area_mm2: self.area_mm2(stats),
            worst_stage_ps,
            total_jj: stats.total_jj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::passes::synthesize;

    #[test]
    fn register_anchor_calibration() {
        // The calibration anchor from §IV-A1: one 300-bit register per
        // qubit costs 5.01 mW and 13.9 mm². Our circulating register must
        // land within 15% of both.
        let nl = generators::circulating_register(300);
        let m = CostModel::default();
        let stats = nl.stats();
        let p_mw = m.power_w(&stats) * 1e3;
        let a_mm2 = m.area_mm2(&stats);
        assert!(
            (p_mw - 5.01).abs() / 5.01 < 0.15,
            "register power {p_mw:.2} mW vs paper 5.01 mW"
        );
        assert!(
            (a_mm2 - 13.9).abs() / 13.9 < 0.15,
            "register area {a_mm2:.2} mm2 vs paper 13.9 mm2"
        );
    }

    #[test]
    fn static_power_dominates_dynamic() {
        let nl = generators::circulating_register(10);
        let m = CostModel::default();
        let stats = nl.stats();
        let p = m.power_w(&stats);
        let m_no_dyn = CostModel {
            switching_activity: 0.0,
            ..m
        };
        let p_static = m_no_dyn.power_w(&stats);
        assert!(p > p_static);
        assert!((p - p_static) / p < 0.02, "dynamic should be <2%");
    }

    #[test]
    fn worst_stage_of_mux_is_in_paper_range() {
        // The per-qubit mux is the deepest async structure (NDRO + AND +
        // OR chain); the paper's worst synthesized stage is 34.5 ps.
        let mut nl = generators::one_hot_mux(8);
        synthesize(&mut nl);
        let m = CostModel::default();
        let d = m.worst_stage_ps(&nl);
        assert!(
            (15.0..45.0).contains(&d),
            "mux worst stage {d:.1} ps out of expected range"
        );
    }

    #[test]
    fn deeper_muxes_are_slower_or_equal() {
        let m = CostModel::default();
        let mut d_prev = 0.0;
        for k in [2usize, 4, 8, 16] {
            let mut nl = generators::one_hot_mux(k);
            synthesize(&mut nl);
            let d = m.worst_stage_ps(&nl);
            assert!(d + 1e-9 >= d_prev, "stage delay should not shrink with k");
            d_prev = d;
        }
    }

    #[test]
    fn report_fields_consistent() {
        let mut nl = generators::equality_comparator(8);
        synthesize(&mut nl);
        let m = CostModel::default();
        let r = m.report(&nl);
        assert!(r.power_w > 0.0);
        assert!(r.area_mm2 > 0.0);
        assert!(r.worst_stage_ps > 0.0);
        assert_eq!(r.total_jj, nl.stats().total_jj);
    }

    #[test]
    fn power_scales_linearly_with_instances() {
        let nl = generators::ndro_bank(4);
        let m = CostModel::default();
        let one = nl.stats();
        let mut ten = crate::netlist::NetlistStats::default();
        ten.add_scaled(&one, 10);
        assert!((m.power_w(&ten) - 10.0 * m.power_w(&one)).abs() < 1e-12);
        assert!((m.area_mm2(&ten) - 10.0 * m.area_mm2(&one)).abs() < 1e-9);
    }

    #[test]
    fn balancing_dffs_add_power() {
        let mut nl = generators::one_hot_mux(8);
        let m = CostModel::default();
        let before = m.power_w(&nl.stats());
        synthesize(&mut nl);
        let after = m.power_w(&nl.stats());
        assert!(after > before, "balancing must add cost");
    }
}
