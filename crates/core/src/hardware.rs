//! Controller hardware composition and synthesis (Fig 5, Fig 8).
//!
//! Each design point is assembled hierarchically from synthesized
//! `sfq_hw` module netlists (splitter-legalized, path-balanced, retimed),
//! with module statistics multiplied by instance counts — the Fig 5
//! structure rendered in cells:
//!
//! * per **qubit controller**: a BS-way one-hot bitstream mux, the
//!   25-block SFQ/DC flux driver, and the double control buffer;
//! * per **group**: bitstream storage (circulating registers for the
//!   discrete designs; one register + a 255-stage tapped delay line with
//!   `BS` comparator-selected taps for DigiQ_opt) and broadcast splitter
//!   trees reaching every member qubit;
//! * per **chip**: the controller-cycle counter and an SFQ PLL for
//!   multi-chip clock sync (§VI-A3).
//!
//! Every call synthesizes its modules afresh and keeps no state between
//! calls: two builds of one design point do the same work and return the
//! same bits. The engine's artifact store caches whole design points for
//! the sweeps and the serve daemon.

use crate::design::{ControllerDesign, SystemConfig};
use sfq_hw::cables::{cable_count, CableSpec};
use sfq_hw::cost::{CostModel, CostReport};
use sfq_hw::generators as gen;
use sfq_hw::json::{Json, ToJson};
use sfq_hw::netlist::{Netlist, NetlistStats};
use sfq_hw::passes::synthesize;

/// SFQ/DC blocks per qubit current generator (Fig 4: 25).
pub const SFQDC_BLOCKS_PER_QUBIT: usize = 25;

/// JJ budget of the phase-locked loop (ref \[56\]): the paper gives no
/// size for it, so this is an estimate of a small fixed block, added once
/// per group with no netlist.
pub const PLL_JJ: u64 = 500;

/// One composed module with its multiplicity.
#[derive(Debug, Clone)]
pub struct ModuleInstance {
    /// Human-readable module role.
    pub name: String,
    /// Instances in the full design.
    pub count: u64,
    /// Synthesized statistics of one instance (skipped in reports).
    pub stats: NetlistStats,
    /// Worst pipeline stage of one instance, ps.
    pub worst_stage_ps: f64,
}

impl ToJson for ModuleInstance {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("count", self.count.to_json()),
            ("worst_stage_ps", self.worst_stage_ps.to_json()),
        ])
    }
}

/// The fully composed hardware of one design point.
#[derive(Debug, Clone)]
pub struct DesignHardware {
    /// The configuration this was built for.
    pub config: SystemConfig,
    /// Module breakdown.
    pub modules: Vec<ModuleInstance>,
    /// Aggregate statistics (skipped in reports).
    pub total: NetlistStats,
    /// Cost summary (power W, area mm², worst stage ps).
    pub report: CostReport,
    /// Room-temperature cables required (Fig 8c).
    pub cables: u64,
}

impl ToJson for DesignHardware {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            ("modules", self.modules.to_json()),
            ("report", self.report.to_json()),
            ("cables", self.cables.to_json()),
        ])
    }
}

/// Composes and synthesizes the hardware for a configuration.
///
/// # Panics
///
/// Panics if called for [`ControllerDesign::ImpossibleMimd`] (it has no
/// buildable hardware — that is its point).
pub fn build_hardware(config: &SystemConfig, model: &CostModel) -> DesignHardware {
    assert!(
        config.design != ControllerDesign::ImpossibleMimd,
        "the Impossible MIMD reference has no hardware"
    );
    let nq = config.n_qubits as u64;
    let groups = config.groups as u64;
    let per_group_qubits = config.qubits_per_group();
    let mut modules: Vec<ModuleInstance> = Vec::new();

    let mut push = |name: &str, count: u64, mut nl: Netlist| {
        synthesize(&mut nl);
        modules.push(ModuleInstance {
            name: name.to_string(),
            count,
            worst_stage_ps: model.worst_stage_ps(&nl),
            stats: nl.stats(),
        });
    };

    match config.design {
        ControllerDesign::SfqMimdNaive => {
            push(
                "per-qubit bitstream register",
                nq,
                gen::circulating_register(config.register_bits),
            );
            push("per-qubit gate mux", nq, gen::one_hot_mux(1));
        }
        ControllerDesign::SfqMimdDecomp => {
            push(
                "per-qubit basis registers",
                2 * nq,
                gen::circulating_register(config.register_bits),
            );
            push("per-qubit gate mux", nq, gen::one_hot_mux(2));
        }
        ControllerDesign::DigiqMin { bs } => {
            push(
                "per-group basis registers",
                groups * bs as u64,
                gen::circulating_register(config.register_bits),
            );
            push(
                "per-group broadcast trees",
                groups * bs as u64,
                gen::broadcast_tree(per_group_qubits),
            );
            push("per-qubit bitstream mux", nq, gen::one_hot_mux(bs));
        }
        ControllerDesign::DigiqOpt { bs } => {
            push(
                "per-group Ry register",
                groups,
                gen::circulating_register(config.register_bits),
            );
            // Tap positions are dynamic: the line exposes every BS-worth
            // of taps via comparators; the line itself is shared.
            let taps: Vec<usize> = (0..bs).map(|k| (k + 1) * config.n_delays / bs).collect();
            push(
                "per-group delay line",
                groups,
                gen::tapped_delay_line(config.n_delays, &taps),
            );
            push("per-group delay counter", groups, gen::binary_counter(8));
            push(
                "per-group tap selectors (comparator+latch)",
                groups * bs as u64,
                gen::equality_comparator(8),
            );
            push(
                "per-group tap delay registers",
                groups * bs as u64,
                gen::ndro_bank(8),
            );
            push(
                "per-group broadcast trees",
                groups * bs as u64,
                gen::broadcast_tree(per_group_qubits),
            );
            push("per-qubit bitstream mux", nq, gen::one_hot_mux(bs));
        }
        ControllerDesign::ImpossibleMimd => unreachable!(),
    }

    // Common per-qubit blocks.
    push(
        "per-qubit SFQ/DC flux driver",
        nq,
        gen::sfqdc_array(SFQDC_BLOCKS_PER_QUBIT),
    );
    // Control staging: the SIMD designs double-buffer their select bits;
    // the MIMD baselines stream bits straight into their registers and
    // only stage a narrow select/valid word.
    let buffer_bits = match config.design {
        ControllerDesign::SfqMimdNaive => 1,
        ControllerDesign::SfqMimdDecomp => 3,
        _ => config.sel_bits_per_qubit().max(1),
    };
    push(
        "per-qubit control double-buffer",
        nq,
        gen::double_buffer(buffer_bits),
    );
    // Per-chip controller-cycle counter (counts SFQ ticks in a cycle:
    // 508 ticks → 9 bits for DigiQ_opt).
    let cycle_ticks = (config.cycle_ns() / config.clock_period_ns).ceil() as usize;
    let counter_bits = (usize::BITS - cycle_ticks.leading_zeros()) as usize;
    push(
        "per-chip cycle counter",
        groups,
        gen::binary_counter(counter_bits),
    );

    // Roll up.
    let mut total = NetlistStats::default();
    let mut worst_stage: f64 = 0.0;
    for m in &modules {
        total.add_scaled(&m.stats, m.count);
        worst_stage = worst_stage.max(m.worst_stage_ps);
    }
    // PLL: flat JJ adder per chip (no netlist; documented estimate).
    total.total_jj += PLL_JJ * groups;
    total.cell_area_um2 += PLL_JJ as f64 * groups as f64 * 300.0;

    let report = model.report_composed(&total, worst_stage);
    let cables = cable_count(
        config.payload_bits_per_cycle(),
        config.cable_cycle_ns(),
        &CableSpec::default(),
    );

    DesignHardware {
        config: *config,
        modules,
        total,
        report,
        cables,
    }
}

/// One Fig 8 sweep row.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Design label.
    pub design: String,
    /// Group count.
    pub groups: usize,
    /// Total power per 1024 qubits, W.
    pub power_w: f64,
    /// Total area per 1024 qubits, mm².
    pub area_mm2: f64,
    /// Cable count per 1024 qubits.
    pub cables: u64,
    /// Worst stage delay, ps.
    pub worst_stage_ps: f64,
}

impl ToJson for Fig8Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("groups", self.groups.to_json()),
            ("power_w", self.power_w.to_json()),
            ("area_mm2", self.area_mm2.to_json()),
            ("cables", self.cables.to_json()),
            ("worst_stage_ps", self.worst_stage_ps.to_json()),
        ])
    }
}

/// The Fig 8 design points: both MIMD baselines plus
/// `DigiQ_min(BS∈{2,4})` and `DigiQ_opt(BS∈{2,4,8,16})` across
/// `G∈{2,4,8,16}`.
pub fn fig8_points() -> Vec<(ControllerDesign, usize)> {
    let mut points = vec![
        (ControllerDesign::SfqMimdNaive, 1),
        (ControllerDesign::SfqMimdDecomp, 1),
    ];
    for &g in &[2usize, 4, 8, 16] {
        for &bs in &[2usize, 4] {
            points.push((ControllerDesign::DigiqMin { bs }, g));
        }
        for &bs in &[2usize, 4, 8, 16] {
            points.push((ControllerDesign::DigiqOpt { bs }, g));
        }
    }
    points
}

/// Runs the full Fig 8 sweep sharded over `workers` threads via the
/// evaluation engine's ordered map — each point synthesizes
/// independently, and rows merge in [`fig8_points`] order regardless of
/// worker count.
pub fn fig8_sweep(model: &CostModel, workers: usize) -> Vec<Fig8Row> {
    let points = fig8_points();
    crate::engine::par_map_ordered(&points, workers, |_, &(design, groups)| {
        fig8_row(design, groups, model)
    })
}

/// Builds one Fig 8 row on the calling thread: the paper-default
/// configuration of `design` with `groups` groups, synthesized and priced.
pub fn fig8_row(design: ControllerDesign, groups: usize, model: &CostModel) -> Fig8Row {
    let hw = build_hardware(&SystemConfig::paper_default(design, groups), model);
    Fig8Row {
        design: design.to_string(),
        groups,
        power_w: hw.report.power_w,
        area_mm2: hw.report.area_mm2,
        cables: hw.cables,
        worst_stage_ps: hw.report.worst_stage_ps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::default()
    }

    fn hw(design: ControllerDesign, groups: usize) -> DesignHardware {
        build_hardware(&SystemConfig::paper_default(design, groups), &model())
    }

    #[test]
    fn naive_mimd_matches_paper_scale() {
        // Fig 8 headline: SFQ_MIMD_naive = 5.9 W and 16,197 mm² per 1024
        // qubits. Registers dominate; our composition must land within
        // ~25% on both.
        let h = hw(ControllerDesign::SfqMimdNaive, 1);
        assert!(
            (h.report.power_w - 5.9).abs() / 5.9 < 0.25,
            "naive power {:.2} W vs paper 5.9 W",
            h.report.power_w
        );
        assert!(
            (h.report.area_mm2 - 16_197.0).abs() / 16_197.0 < 0.25,
            "naive area {:.0} mm² vs paper 16,197 mm²",
            h.report.area_mm2
        );
    }

    #[test]
    fn decomp_mimd_roughly_doubles_naive() {
        // Fig 8: SFQ_MIMD_decomp = 10.7 W, 29,571 mm² — about 2× naive.
        let n = hw(ControllerDesign::SfqMimdNaive, 1);
        let d = hw(ControllerDesign::SfqMimdDecomp, 1);
        let ratio = d.report.power_w / n.report.power_w;
        assert!((1.6..2.2).contains(&ratio), "power ratio {ratio:.2}");
    }

    #[test]
    fn digiq_designs_are_orders_cheaper_than_mimd() {
        // Fig 8a: every DigiQ point sits below 1.5 W vs 5.9/10.7 W.
        let naive = hw(ControllerDesign::SfqMimdNaive, 1);
        for &bs in &[2usize, 4] {
            let h = hw(ControllerDesign::DigiqMin { bs }, 2);
            assert!(
                h.report.power_w < 1.5 && h.report.power_w < naive.report.power_w / 4.0,
                "min(BS={bs}) power {:.3} W",
                h.report.power_w
            );
        }
        for &bs in &[2usize, 4, 8, 16] {
            let h = hw(ControllerDesign::DigiqOpt { bs }, 2);
            assert!(
                h.report.power_w < 1.5,
                "opt(BS={bs}) power {:.3} W",
                h.report.power_w
            );
        }
    }

    #[test]
    fn cost_grows_with_bs() {
        let p2 = hw(ControllerDesign::DigiqOpt { bs: 2 }, 2).report.power_w;
        let p16 = hw(ControllerDesign::DigiqOpt { bs: 16 }, 2).report.power_w;
        assert!(p16 > p2, "BS=16 must cost more than BS=2");
        let m2 = hw(ControllerDesign::DigiqMin { bs: 2 }, 2).report.power_w;
        let m4 = hw(ControllerDesign::DigiqMin { bs: 4 }, 2).report.power_w;
        assert!(m4 > m2);
    }

    #[test]
    fn same_bs_times_g_has_similar_cost() {
        // §VI-A3's surprise: designs with equal BS·G cost about the same,
        // because group logic duplicates as G rises while qubit muxes
        // shrink with BS. Check BS·G = 16 within 2×.
        let a = hw(ControllerDesign::DigiqOpt { bs: 8 }, 2).report.power_w;
        let b = hw(ControllerDesign::DigiqOpt { bs: 4 }, 4).report.power_w;
        let c = hw(ControllerDesign::DigiqOpt { bs: 2 }, 8).report.power_w;
        for (x, y) in [(a, b), (b, c), (a, c)] {
            let ratio = x.max(y) / x.min(y);
            assert!(ratio < 2.0, "BS·G=16 spread too wide: {a:.3} {b:.3} {c:.3}");
        }
    }

    #[test]
    fn worst_stage_near_paper_34_5ps() {
        // §VI-A2: worst stage delay 34.5 ps → 40 ps clock. Ours must stay
        // under the 40 ps clock and within a plausible band.
        for &bs in &[2usize, 8, 16] {
            let h = hw(ControllerDesign::DigiqOpt { bs }, 2);
            assert!(
                (20.0..40.0).contains(&h.report.worst_stage_ps),
                "stage {:.1} ps at BS={bs}",
                h.report.worst_stage_ps
            );
        }
    }

    #[test]
    fn cable_counts_match_fig8c_scale() {
        // §VI-A4: DigiQ_min(G=2,BS=2) = 39 cables; DigiQ_opt(G=2,BS=16)
        // = 33 cables; MIMD baselines in the hundreds/thousands.
        let min2 = hw(ControllerDesign::DigiqMin { bs: 2 }, 2);
        assert!(
            (35..=43).contains(&min2.cables),
            "min cables {}",
            min2.cables
        );
        let opt16 = hw(ControllerDesign::DigiqOpt { bs: 16 }, 2);
        assert!(
            (28..=38).contains(&opt16.cables),
            "opt cables {}",
            opt16.cables
        );
        let naive = hw(ControllerDesign::SfqMimdNaive, 1);
        assert!(naive.cables > 1000, "naive cables {}", naive.cables);
    }

    #[test]
    fn module_breakdown_accounts_for_total() {
        let h = hw(ControllerDesign::DigiqOpt { bs: 8 }, 2);
        let mut sum = NetlistStats::default();
        for m in &h.modules {
            sum.add_scaled(&m.stats, m.count);
        }
        // Total = modules + PLL adder.
        assert_eq!(h.total.total_jj, sum.total_jj + PLL_JJ * 2);
    }

    #[test]
    fn fig8_sweep_has_all_points() {
        let rows = fig8_sweep(&model(), 1);
        // 2 baselines + 4 G × (2 min + 4 opt) = 26.
        assert_eq!(rows.len(), 26);
        assert_eq!(rows.len(), fig8_points().len());
        assert!(rows.iter().all(|r| r.power_w > 0.0 && r.area_mm2 > 0.0));
    }

    #[test]
    fn fig8_sweep_parallel_matches_serial() {
        let serial = fig8_sweep(&model(), 1);
        let parallel = fig8_sweep(&model(), 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.design, b.design);
            assert_eq!(a.groups, b.groups);
            assert_eq!(a.power_w, b.power_w);
            assert_eq!(a.area_mm2, b.area_mm2);
            assert_eq!(a.cables, b.cables);
            assert_eq!(a.worst_stage_ps, b.worst_stage_ps);
        }
    }

    #[test]
    #[should_panic]
    fn impossible_mimd_has_no_hardware() {
        let _ = hw(ControllerDesign::ImpossibleMimd, 1);
    }

    #[test]
    fn build_hardware_keeps_no_state_between_calls() {
        // Two back-to-back builds of one point must do identical work:
        // every module is synthesized afresh, nothing is served from a
        // memo that a previous call left behind.
        let run = || qsim::counters::counted(|| hw(ControllerDesign::DigiqOpt { bs: 8 }, 2));
        let (first, first_tally) = run();
        let (second, second_tally) = run();
        assert!(first_tally.cells > 0 && first_tally.synth_allocs > 0);
        assert_eq!(first_tally, second_tally, "second build must cost the same");
        assert_eq!(first.total, second.total);
        assert_eq!(first.report, second.report);
    }
}
