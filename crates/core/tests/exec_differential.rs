//! Bit-exact differential test of the analytic execution model against
//! the parent tree's implementation, kept verbatim below as the oracle:
//! per-gate `stable_hash` draws and a sorted, deduplicated demand list
//! per DigiQ_opt slot. The model under test resolves each draw key once
//! per call into a table of canonical class ids and counts distinct
//! classes with generation-stamped marks.
//!
//! Every `ExecReport` must be field-equal (`total_ns` to the bit), both
//! from `execute` and from one `ExecPlan` per compiled benchmark reused
//! across the whole parameter matrix (as the engine reuses a compile's
//! plan), and on DigiQ_opt every slot's `OptSlotCost` must be equal too,
//! over: the six
//! Table IV benchmarks at paper scale on 32×32, compiled by the default
//! pipeline and by the fusing one (`U` gates); every design, with BS in
//! {1, 2, 4, 8, 16}; several seeds; `angle_bins` in {0, 7, 48, 200} and
//! `variation_classes` in {0, 1, 3, 6}; and the checkerboard, a 3-group
//! and a short `group_of`. Debug builds run a reduced matrix;
//! `scripts/ci.sh` runs the full one in release.
//!
//! DigiQ_opt BS siblings charged in one contention pass
//! (`execute_opt_siblings`) must give, params for params, the report of
//! a separate `execute_plan` call, with every f64 equal to the bit.

use digiq_core::design::{ControllerDesign, SystemConfig};
use digiq_core::exec::{
    checkerboard_groups, execute, execute_opt_siblings, execute_plan, ExecParams, ExecPlan,
    OptSlots,
};
use qcircuit::bench::{Benchmark, ALL_BENCHMARKS};
use qcircuit::ir::{Circuit, Gate, OneQ};
use qcircuit::mapping::Layout;
use qcircuit::pipeline::{CompileArtifact, PipelineConfig};
use qcircuit::topology::Grid;
use std::sync::OnceLock;

const FULL: bool = !cfg!(debug_assertions);

/// The parent tree's analytic execution model, verbatim: the
/// per-gate `stable_hash` draws of the old `DelayModel` and the
/// sort-and-dedup `opt_slot_cost`.
mod oracle {
    use digiq_core::delay_model::{gate_bin, gate_theta};
    use digiq_core::design::ControllerDesign;
    use digiq_core::exec::{ExecParams, ExecReport, OptSlotCost};
    use qcircuit::ir::{Circuit, Gate, OneQ};
    use qcircuit::schedule::Slot;

    /// Stable digest used for every observable draw (lands in golden files).
    fn hash_u64(parts: &[u64]) -> u64 {
        qsim::rng::stable_hash(parts)
    }

    /// The per-gate cost/delay assignment view over one [`ExecParams`]. Both
    /// execution engines construct one of these and take every draw through
    /// it, so identical params guarantee identical draws.
    #[derive(Debug, Clone, Copy)]
    pub struct DelayModel<'a> {
        seed: u64,
        angle_bins: usize,
        variation_classes: usize,
        opt_l3_threshold: f64,
        min_lengths: &'a [usize],
    }

    impl<'a> DelayModel<'a> {
        /// Borrows the assignment-relevant fields of `params`.
        pub fn new(params: &'a ExecParams) -> Self {
            DelayModel {
                seed: params.seed,
                angle_bins: params.angle_bins,
                variation_classes: params.variation_classes,
                opt_l3_threshold: params.opt_l3_threshold,
                min_lengths: &params.min_lengths,
            }
        }

        /// Decomposition depth `K` (controller cycles) charged to a 1q gate on
        /// the discrete-basis designs (DigiQ_min, SFQ_MIMD_decomp): a
        /// deterministic draw from the empirical length distribution, keyed by
        /// the gate's angle class and a mild per-qubit variation.
        pub fn min_depth(&self, kind: OneQ, q: usize) -> usize {
            let idx = hash_u64(&[
                self.seed,
                gate_bin(kind, self.angle_bins),
                q as u64 % 7, // mild per-qubit variation
            ]) as usize
                % self.min_lengths.len().max(1);
            self.min_lengths.get(idx).copied().unwrap_or(1)
        }

        /// Number of delayed-Ubs firing positions `L ∈ {1, 2, 3}` a 1q gate
        /// needs on DigiQ_opt (§V-A: diagonal gates absorb into one firing,
        /// near-π rotations need three).
        pub fn firing_count(&self, kind: OneQ) -> usize {
            let theta = gate_theta(kind);
            if theta == 0.0 {
                1 // diagonal: single absorbed firing
            } else if theta > self.opt_l3_threshold {
                3
            } else {
                2
            }
        }

        /// The delay class a gate demands at firing position `pos` on
        /// DigiQ_opt: gates mapping to the same class share one of the `BS`
        /// broadcast delay slots that cycle (§V-A error margin), distinct
        /// classes serialize.
        pub fn delay_class(&self, kind: OneQ, pos: usize, group: usize, q: usize) -> u64 {
            hash_u64(&[
                self.seed,
                gate_bin(kind, self.angle_bins),
                pos as u64,
                (group % 2) as u64, // frequency class
                // drift-forced per-qubit variation
                (q % self.variation_classes.max(1)) as u64,
            ])
        }
    }

    /// Computes [`OptSlotCost`] for one schedule slot of a lowered circuit
    /// under DigiQ_opt with `bs` broadcast delay slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if a slot references an out-of-range gate, or the circuit
    /// contains non-lowered gates.
    pub fn opt_slot_cost(
        circuit: &Circuit,
        slot: &Slot,
        group_of: &[usize],
        model: &DelayModel<'_>,
        bs: usize,
    ) -> OptSlotCost {
        // Every (group, firing position, delay class) the slot demands.
        let mut demands: Vec<(usize, usize, u64)> = Vec::with_capacity(3 * slot.len());
        let mut cost = OptSlotCost::default();
        for &gi in slot {
            match circuit.gates()[gi] {
                Gate::Cz { .. } => cost.cz_count += 1,
                Gate::OneQ { q, kind } => {
                    let group = group_of.get(q).copied().unwrap_or(0);
                    for pos in 0..model.firing_count(kind) {
                        demands.push((group, pos, model.delay_class(kind, pos, group, q)));
                    }
                }
                _ => panic!("executor requires a lowered circuit"),
            }
        }
        demands.sort_unstable();
        demands.dedup();
        // Per group: sum over firing positions (one run of distinct classes
        // each) of the contention-expanded sub-cycles; the slot waits for
        // the slowest group.
        let (mut group, mut group_cycles) = (usize::MAX, 0u64);
        for run in demands.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let sub = (run.len() as u64).div_ceil(bs as u64);
            cost.serialization_cycles += sub - 1;
            if run[0].0 != group {
                (group, group_cycles) = (run[0].0, 0);
            }
            group_cycles += sub;
            cost.oneq_cycles = cost.oneq_cycles.max(group_cycles);
        }
        cost
    }

    /// Executes a scheduled circuit under the model, returning the report.
    ///
    /// `group_of[q]` gives the SIMD group of physical qubit `q` (qubits in a
    /// group share broadcast bitstreams; grouping is by nominal frequency,
    /// §IV-A1).
    ///
    /// # Panics
    ///
    /// Panics if a slot references an out-of-range gate, or the circuit
    /// contains non-lowered gates.
    pub fn execute(
        circuit: &Circuit,
        slots: &[Slot],
        group_of: &[usize],
        params: &ExecParams,
    ) -> ExecReport {
        qcircuit::lower::assert_lowered(circuit, "executor");
        let cfg = &params.config;
        let cycle = cfg.cycle_ns();
        let model = DelayModel::new(params);
        let mut report = ExecReport::default();

        // Designs without cross-qubit resource coupling: exact per-qubit
        // timelines (gates start when their qubits are free; the schedule's
        // crosstalk constraints are upheld because slots already serialize
        // interfering CZs — we keep their relative order via slot sequencing
        // of the CZ start times).
        if !matches!(cfg.design, ControllerDesign::DigiqOpt { .. }) {
            let mut free_at = vec![0.0f64; circuit.n_qubits()];
            let mut cz_floor = 0.0f64; // enforce slot order among CZs
            for slot in slots {
                let mut slot_cz_end = cz_floor;
                for &gi in slot {
                    match circuit.gates()[gi] {
                        Gate::Cz { a, b } => {
                            let start = free_at[a].max(free_at[b]).max(cz_floor);
                            let end = start + cfg.cz_ns;
                            free_at[a] = end;
                            free_at[b] = end;
                            slot_cz_end = slot_cz_end.max(start);
                            report.cz_ns += cfg.cz_ns;
                        }
                        Gate::OneQ { q, kind } => {
                            let dur = match cfg.design {
                                ControllerDesign::ImpossibleMimd
                                | ControllerDesign::SfqMimdNaive => {
                                    cfg.bitstream_ticks as f64 * cfg.clock_period_ns
                                }
                                _ => {
                                    let k = model.min_depth(kind, q);
                                    report.oneq_cycles += k as u64;
                                    k as f64 * cycle
                                }
                            };
                            free_at[q] += dur;
                            if matches!(
                                cfg.design,
                                ControllerDesign::ImpossibleMimd | ControllerDesign::SfqMimdNaive
                            ) {
                                report.oneq_cycles += 1;
                            }
                        }
                        _ => panic!("executor requires a lowered circuit"),
                    }
                }
                cz_floor = slot_cz_end;
                report.slots += 1;
            }
            report.total_ns = free_at.iter().cloned().fold(0.0, f64::max);
            return report;
        }

        // DigiQ_opt: slot-synchronous SIMD — every slot costs the slowest
        // group's contention-expanded sub-cycles, with CZs occupying their 60
        // ns concurrently.
        let bs = match cfg.design {
            ControllerDesign::DigiqOpt { bs } => bs,
            _ => unreachable!("non-opt designs returned above"),
        };
        for slot in slots {
            let cost = opt_slot_cost(circuit, slot, group_of, &model, bs);
            let mut slot_ns = cost.oneq_cycles as f64 * cycle;
            report.oneq_cycles += cost.oneq_cycles;
            report.serialization_cycles += cost.serialization_cycles;
            if cost.cz_count > 0 {
                slot_ns = slot_ns.max(cfg.cz_ns);
                report.cz_ns += cfg.cz_ns;
            }
            report.total_ns += slot_ns;
            report.slots += 1;
        }
        report
    }
}

const BS: [usize; 5] = [1, 2, 4, 8, 16];
const SEEDS: [u64; 3] = [0xD161_0E0C, 7, 0x5EED_0000_0000_0001];

/// Every design point: the three fixed designs, then DigiQ_min and
/// DigiQ_opt at each BS.
fn designs() -> Vec<ControllerDesign> {
    let mut designs = vec![
        ControllerDesign::ImpossibleMimd,
        ControllerDesign::SfqMimdNaive,
        ControllerDesign::SfqMimdDecomp,
    ];
    for bs in BS {
        designs.push(ControllerDesign::DigiqMin { bs });
        designs.push(ControllerDesign::DigiqOpt { bs });
    }
    designs
}

/// A compiled benchmark and the one plan every check of it executes.
type Compiled = (Benchmark, CompileArtifact, ExecPlan);

/// The paper-scale benchmarks on the 32×32 grid, compiled once per
/// pipeline (debug: Qgan, whose slots are the widest, and Ising).
fn compiled(fuse: bool) -> &'static [Compiled] {
    static PLAIN: OnceLock<Vec<Compiled>> = OnceLock::new();
    static FUSED: OnceLock<Vec<Compiled>> = OnceLock::new();
    (if fuse { &FUSED } else { &PLAIN }).get_or_init(|| {
        let grid = Grid::new(32, 32);
        let cfg = PipelineConfig {
            fuse,
            ..PipelineConfig::default()
        };
        let benches: &[Benchmark] = if FULL {
            &ALL_BENCHMARKS
        } else {
            &[Benchmark::Qgan, Benchmark::Ising]
        };
        benches
            .iter()
            .map(|&bench| {
                let circuit = bench.paper_scale();
                let layout = Layout::snake(circuit.n_qubits(), &grid);
                let (art, _) = cfg
                    .run(CompileArtifact::new(circuit, layout), &grid)
                    .expect("paper benchmark compiles");
                let fused = art.circuit.gates().iter().any(|g| {
                    matches!(
                        g,
                        Gate::OneQ {
                            kind: OneQ::U { .. },
                            ..
                        }
                    )
                });
                assert_eq!(fused, fuse, "{}: U gates iff fused", bench.name());
                let plan = ExecPlan::new(&art.circuit, art.scheduled());
                (bench, art, plan)
            })
            .collect()
    })
}

fn params(design: ControllerDesign, seed: u64) -> ExecParams {
    let mut params = ExecParams::new(SystemConfig::paper_default(design, 2));
    params.config.n_qubits = 1024;
    params.seed = seed;
    params
}

/// The group maps: the paper's checkerboard, three groups with a
/// non-contiguous value, and a map shorter than the circuit (the tail
/// falls back to group 0).
fn group_maps() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("checkerboard", checkerboard_groups(32, 1024, 2)),
        (
            "3-group",
            (0..1024).map(|q| [0, 1, 5][(q * 7 + q / 32) % 3]).collect(),
        ),
        ("short", checkerboard_groups(32, 1024, 2)[..600].to_vec()),
    ]
}

/// Runs both models on one compiled benchmark and demands equal reports
/// (from the shared plan and from a one-off `execute`) and, on
/// DigiQ_opt, equal per-slot costs.
fn check(label: &str, (_, art, plan): &Compiled, group_of: &[usize], params: &ExecParams) {
    let (circuit, slots) = (&art.circuit, art.scheduled());
    let want = oracle::execute(circuit, slots, group_of, params);
    for got in [
        execute_plan(plan, group_of, params),
        execute(circuit, slots, group_of, params),
    ] {
        assert_eq!(got, want, "{label}");
        assert_eq!(got.total_ns.to_bits(), want.total_ns.to_bits(), "{label}");
        assert_eq!(got.cz_ns.to_bits(), want.cz_ns.to_bits(), "{label}");
    }
    if let ControllerDesign::DigiqOpt { bs } = params.config.design {
        let mut costs = OptSlots::new(plan, group_of, params);
        let old = oracle::DelayModel::new(params);
        for (si, slot) in slots.iter().enumerate() {
            assert_eq!(
                costs.cost(si),
                oracle::opt_slot_cost(circuit, slot, group_of, &old, bs),
                "{label}: slot {si}"
            );
        }
    }
}

#[test]
fn every_design_and_seed_matches_the_parent_model() {
    let groups = checkerboard_groups(32, 1024, 2);
    let seeds = if FULL { &SEEDS[..] } else { &SEEDS[..1] };
    for fuse in [false, true] {
        for compiled in compiled(fuse) {
            for design in designs() {
                for &seed in seeds {
                    let label =
                        format!("{} fuse={fuse} {design} seed={seed:#x}", compiled.0.name());
                    check(&label, compiled, &groups, &params(design, seed));
                }
            }
        }
    }
}

#[test]
fn draw_parameters_and_group_maps_match_the_parent_model() {
    // Debug: the fused circuits only, at the two BS extremes.
    let (pipelines, designs): (&[bool], Vec<ControllerDesign>) = if FULL {
        (
            &[false, true],
            vec![
                ControllerDesign::DigiqOpt { bs: 1 },
                ControllerDesign::DigiqOpt { bs: 4 },
                ControllerDesign::DigiqMin { bs: 2 },
            ],
        )
    } else {
        (
            &[true],
            vec![
                ControllerDesign::DigiqOpt { bs: 1 },
                ControllerDesign::DigiqMin { bs: 2 },
            ],
        )
    };
    let maps = group_maps();
    for &fuse in pipelines {
        for compiled in compiled(fuse) {
            for angle_bins in [0, 7, 48, 200] {
                for variation_classes in [0, 1, 3, 6] {
                    for (map, group_of) in &maps {
                        for &design in &designs {
                            let mut p = params(design, SEEDS[1]);
                            p.angle_bins = angle_bins;
                            p.variation_classes = variation_classes;
                            let label = format!(
                                "{} fuse={fuse} {design} bins={angle_bins} \
                                 variation={variation_classes} groups={map}",
                                compiled.0.name()
                            );
                            check(&label, compiled, group_of, &p);
                        }
                    }
                }
            }
        }
    }
}

/// The BS lists the sibling test charges in one pass: one BS, the Fig 9
/// siblings, an unsorted list with a duplicate, and every BS.
const BS_LISTS: [&[usize]; 5] = [&[8], &[4, 8, 16], &[16, 2, 8, 2], &[2, 2], &BS];

#[test]
fn opt_siblings_match_one_execute_plan_per_bs() {
    let seeds = if FULL { &SEEDS[..] } else { &SEEDS[1..2] };
    let group_counts: &[usize] = if FULL { &[1, 2, 3] } else { &[1, 2] };
    for fuse in [false, true] {
        for compiled in compiled(fuse) {
            let (_, _, plan) = compiled;
            for &groups in group_counts {
                let group_of = checkerboard_groups(32, 1024, groups);
                for &seed in seeds {
                    for list in BS_LISTS {
                        let params: Vec<ExecParams> = list
                            .iter()
                            .map(|&bs| {
                                let design = ControllerDesign::DigiqOpt { bs };
                                let mut p = params(design, seed);
                                p.config.groups = groups;
                                p
                            })
                            .collect();
                        let got = execute_opt_siblings(plan, &group_of, &params);
                        assert_eq!(got.len(), params.len());
                        for (got, p) in got.iter().zip(&params) {
                            let label = format!(
                                "{} fuse={fuse} groups={groups} seed={seed:#x} \
                                 BS {list:?}: {}",
                                compiled.0.name(),
                                p.config.design
                            );
                            let want = execute_plan(plan, &group_of, p);
                            assert_eq!(*got, want, "{label}");
                            assert_eq!(got.total_ns.to_bits(), want.total_ns.to_bits(), "{label}");
                            assert_eq!(got.cz_ns.to_bits(), want.cz_ns.to_bits(), "{label}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "share every exec param but the configuration")]
fn opt_siblings_refuse_params_with_different_seeds() {
    let (_, _, plan) = &compiled(false)[0];
    let design = ControllerDesign::DigiqOpt { bs: 4 };
    let params = [params(design, SEEDS[0]), params(design, SEEDS[1])];
    execute_opt_siblings(plan, &checkerboard_groups(32, 1024, 2), &params);
}

#[test]
#[should_panic(expected = "executor requires a lowered circuit")]
fn plans_reject_unlowered_circuits() {
    let mut c = Circuit::new(4);
    c.h(0);
    c.cx(0, 1);
    let _ = ExecPlan::new(&c, &[vec![0, 1]]);
}
