//! The compile pipeline (§VI-B): one closed sequence of named,
//! fingerprinted, individually timed and validated stages.
//!
//! Every evaluation mode compiles benchmarks through the same sequence —
//! `lower → route → lower_swaps [→ fuse] → schedule` — and
//! [`PipelineConfig`] selects the only variations: routing via
//! [`RouteStrategy`] (seeded greedy, or the deterministic lookahead-window
//! router), scheduling via [`ScheduleStrategy`] (crosstalk-aware, or
//! plain crosstalk-oblivious ASAP), and optional single-qubit run fusion.
//! [`PipelineConfig::run`] records per-stage [`PassMetrics`] (wall time,
//! gate/SWAP/slot deltas) on every compile, and
//! [`PipelineConfig::fingerprint`] chains the stages' fingerprints into
//! the pipeline part of every compile cache key.
//!
//! The **default** configuration is behaviour-identical to the historical
//! inline sequence in `digiq_core::{engine, system}` — same circuits,
//! same slots, byte-for-byte identical golden reports. Every stage is
//! post-validated on every compile, not just under test: lowering and
//! fusion must leave only {1q, CZ} gates, routing only nearest-neighbour
//! ones, and scheduling runs [`crate::schedule::validate_schedule`]
//! (full, including CZ interference, for the crosstalk-aware strategy;
//! structural only for the deliberately crosstalk-oblivious ASAP
//! strategy).
//!
//! # Examples
//!
//! ```
//! use qcircuit::bench::ising_chain;
//! use qcircuit::mapping::Layout;
//! use qcircuit::pipeline::{CompileArtifact, PipelineConfig};
//! use qcircuit::topology::Grid;
//!
//! let grid = Grid::new(4, 4);
//! let circuit = ising_chain(16, 1, 0.3, 0.7);
//! let art = CompileArtifact::new(circuit, Layout::snake(16, &grid));
//! let (out, metrics) = PipelineConfig::default().run(art, &grid).unwrap();
//! assert_eq!(metrics.len(), 4); // lower, route, lower_swaps, schedule
//! assert!(!out.scheduled().is_empty());
//! ```

use crate::ir::{Circuit, Gate};
use crate::lower::{fuse_single_qubit_runs, is_lowered, lower_to_cz};
use crate::mapping::{
    check_fit, route, Layout, RouteWorkspace, GREEDY_LOOKAHEAD, GREEDY_LOOKAHEAD_WEIGHT,
    GREEDY_SEED, GREEDY_TRIALS,
};
use crate::schedule::{
    schedule_asap, schedule_crosstalk_aware, validate_schedule, validate_schedule_structural,
    ScheduleWorkspace, Slot, ValidateWorkspace,
};
use crate::topology::Grid;
use qsim::rng::StableHasher;

/// Reusable scratch shared by every stage of a compile: the router's
/// trial layout and candidate buffers, the scheduler's moment layering
/// and colour-group pool, and the validator's stamp tables. A warm
/// workspace makes a full compile allocate only its materialized outputs
/// (routed circuit, final layout, slot list). [`PipelineConfig::run`]
/// keeps one per thread — the only compile scratch that outlives a call.
#[derive(Debug, Default)]
struct CompileWorkspace {
    route: RouteWorkspace,
    schedule: ScheduleWorkspace,
    validate: ValidateWorkspace,
}

thread_local! {
    static COMPILE_WS: std::cell::RefCell<CompileWorkspace> =
        std::cell::RefCell::default();
}

/// The artifact the pipeline threads through its stages: the circuit in
/// its current form plus everything routing and scheduling accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileArtifact {
    /// The circuit in its current (possibly physical) form.
    pub circuit: Circuit,
    /// Gate count of the original logical input.
    pub logical_gates: usize,
    /// Cumulative SWAPs inserted by routing.
    pub swaps: usize,
    /// The layout routing starts from.
    pub initial_layout: Layout,
    /// The layout after the last routed gate (equals `initial_layout`
    /// until the routing stage runs).
    pub final_layout: Layout,
    /// Schedule slots, present once the scheduling stage has run.
    pub slots: Option<Vec<Slot>>,
}

impl CompileArtifact {
    /// Wraps a logical circuit and its initial layout as pipeline input.
    pub fn new(circuit: Circuit, initial_layout: Layout) -> Self {
        CompileArtifact {
            logical_gates: circuit.len(),
            swaps: 0,
            final_layout: initial_layout.clone(),
            initial_layout,
            circuit,
            slots: None,
        }
    }

    /// The schedule produced by the pipeline's scheduling stage.
    ///
    /// # Panics
    ///
    /// Panics if the scheduling stage has not run yet.
    pub fn scheduled(&self) -> &[Slot] {
        self.slots
            .as_deref()
            .expect("artifact has no schedule — run the scheduling stage first")
    }
}

/// Stable fingerprint helper: hashes a pass name plus its configuration
/// words through the repo's pinned [`StableHasher`].
fn pass_fingerprint(name: &str, params: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for b in name.bytes() {
        h.write_u8(b);
    }
    h.write_usize(params.len());
    for &p in params {
        h.write_u64(p);
    }
    h.finish()
}

/// SWAP-insertion strategy of the routing stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteStrategy {
    /// The seeded stochastic greedy router ([`route`]): strictly
    /// distance-reducing swaps, random tie-breaking, best of two seeded
    /// attempts. The paper-default strategy.
    Greedy,
    /// The deterministic lookahead-window router ([`route`]): one
    /// attempt, no randomness, candidates scored over the next `window`
    /// two-qubit gates.
    Lookahead {
        /// How many upcoming 2q gates contribute to the score.
        window: usize,
    },
}

/// Default window of the lookahead router.
pub const DEFAULT_LOOKAHEAD_WINDOW: usize = 16;

impl RouteStrategy {
    /// Display / CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            RouteStrategy::Greedy => "greedy",
            RouteStrategy::Lookahead { .. } => "lookahead",
        }
    }

    /// Parses a `--router` flag value.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted names on an unknown value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "greedy" => Ok(RouteStrategy::Greedy),
            "lookahead" => Ok(RouteStrategy::Lookahead {
                window: DEFAULT_LOOKAHEAD_WINDOW,
            }),
            other => Err(format!(
                "unknown router `{other}` (expected `greedy` or `lookahead`)"
            )),
        }
    }
}

/// Slot-grouping strategy of the scheduling stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleStrategy {
    /// Crosstalk-aware grouping ([`schedule_crosstalk_aware`]): CZs in a
    /// slot are pairwise non-interfering. The paper-default strategy.
    CrosstalkAware,
    /// Plain ASAP moments ([`schedule_asap`]): crosstalk-oblivious — its
    /// slots may contain interfering CZ pairs (rejected by the full
    /// [`validate_schedule`], see the strategy-discrimination tests).
    Asap,
}

impl ScheduleStrategy {
    /// Display / CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleStrategy::CrosstalkAware => "crosstalk",
            ScheduleStrategy::Asap => "asap",
        }
    }

    /// Parses a `--scheduler` flag value.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted names on an unknown value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "crosstalk" => Ok(ScheduleStrategy::CrosstalkAware),
            "asap" => Ok(ScheduleStrategy::Asap),
            other => Err(format!(
                "unknown scheduler `{other}` (expected `crosstalk` or `asap`)"
            )),
        }
    }
}

/// One stage of the pipeline. Labels disambiguate the repeated lowering
/// (`lower`, `lower_swaps`); both hash as the same `lower` pass.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Lowers the circuit to the {1q, CZ} hardware set.
    Lower,
    /// Routes the circuit onto the grid from its initial layout,
    /// recording inserted SWAPs and the final layout.
    Route(RouteStrategy),
    /// Lowers the SWAPs routing inserted.
    LowerSwaps,
    /// Fuses runs of adjacent single-qubit gates into one `U(θ,φ,λ)` per
    /// run (the per-cycle unit DigiQ executes).
    Fuse,
    /// Groups the circuit into slots.
    Schedule(ScheduleStrategy),
}

impl Stage {
    /// Display / metrics label (perfbench's `qcircuit.pass.*` spans).
    fn label(self) -> &'static str {
        match self {
            Stage::Lower => "lower",
            Stage::Route(_) => "route",
            Stage::LowerSwaps => "lower_swaps",
            Stage::Fuse => "fuse",
            Stage::Schedule(_) => "schedule",
        }
    }

    /// Stable fingerprint of the stage's rewrite *and* its configuration —
    /// identical across processes and toolchains, distinct for distinct
    /// strategies or parameters.
    fn fingerprint(self) -> u64 {
        match self {
            Stage::Lower | Stage::LowerSwaps => pass_fingerprint("lower", &[1]),
            Stage::Route(RouteStrategy::Greedy) => pass_fingerprint(
                "route/greedy",
                &[
                    GREEDY_SEED,
                    GREEDY_TRIALS as u64,
                    GREEDY_LOOKAHEAD as u64,
                    GREEDY_LOOKAHEAD_WEIGHT.to_bits(),
                ],
            ),
            Stage::Route(RouteStrategy::Lookahead { window }) => {
                pass_fingerprint("route/lookahead", &[window as u64])
            }
            Stage::Fuse => pass_fingerprint("fuse", &[1]),
            Stage::Schedule(ScheduleStrategy::CrosstalkAware) => {
                pass_fingerprint("schedule/crosstalk", &[1])
            }
            Stage::Schedule(ScheduleStrategy::Asap) => pass_fingerprint("schedule/asap", &[1]),
        }
    }

    /// Applies the rewrite.
    ///
    /// # Errors
    ///
    /// Returns why the stage cannot apply, prefixed with its label.
    fn run(
        self,
        artifact: &mut CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        match self {
            Stage::Lower | Stage::LowerSwaps => artifact.circuit = lower_to_cz(&artifact.circuit),
            Stage::Fuse => artifact.circuit = fuse_single_qubit_runs(&artifact.circuit),
            Stage::Route(strategy) => {
                let (circuit, layout) = (&artifact.circuit, &artifact.initial_layout);
                check_fit(circuit, grid, layout)
                    .map_err(|e| format!("pass `{}` failed: {e}", self.label()))?;
                let routed = route(&mut ws.route, circuit, grid, layout, strategy);
                artifact.swaps += routed.swap_count;
                artifact.final_layout = routed.final_layout;
                artifact.circuit = routed.circuit;
            }
            Stage::Schedule(strategy) => {
                artifact.slots = Some(match strategy {
                    ScheduleStrategy::CrosstalkAware => {
                        schedule_crosstalk_aware(&mut ws.schedule, &artifact.circuit, grid)
                    }
                    ScheduleStrategy::Asap => schedule_asap(&artifact.circuit),
                });
            }
        }
        Ok(())
    }

    /// Checks the stage's output contract. The crosstalk-aware scheduler
    /// promises interference-free slots and is held to the full schedule
    /// validator; the ASAP scheduler is crosstalk-oblivious by contract,
    /// so it is checked structurally (every gate once, disjoint qubits,
    /// program order) only.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, prefixed with the label.
    fn post_validate(
        self,
        artifact: &CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        let checked = match self {
            Stage::Lower | Stage::LowerSwaps | Stage::Fuse => {
                if is_lowered(&artifact.circuit) {
                    Ok(())
                } else {
                    Err("stage left non-{1q, CZ} gates behind".to_string())
                }
            }
            Stage::Route(_) => {
                let compliant = artifact.circuit.gates().iter().all(|g| match *g {
                    Gate::OneQ { .. } => true,
                    Gate::Cz { a, b } | Gate::Swap { a, b } => grid.are_adjacent(a, b),
                    _ => false,
                });
                if compliant {
                    Ok(())
                } else {
                    Err("routed circuit contains a non-nearest-neighbour gate".to_string())
                }
            }
            Stage::Schedule(strategy) => match (artifact.slots.as_deref(), strategy) {
                (None, _) => Err("scheduling stage produced no slots".to_string()),
                (Some(slots), ScheduleStrategy::CrosstalkAware) => {
                    validate_schedule(&mut ws.validate, &artifact.circuit, grid, slots)
                }
                (Some(slots), ScheduleStrategy::Asap) => {
                    validate_schedule_structural(&mut ws.validate, &artifact.circuit, slots)
                }
            },
        };
        checked.map_err(|e| format!("pass `{}` post-validation failed: {e}", self.label()))
    }
}

/// Per-stage accounting of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PassMetrics {
    /// Stage label.
    pub pass: String,
    /// Wall-clock spent applying the stage (excludes validation),
    /// nanoseconds.
    pub wall_ns: f64,
    /// Gate count entering the stage.
    pub gates_before: usize,
    /// Gate count leaving the stage.
    pub gates_after: usize,
    /// Cumulative SWAPs entering the stage.
    pub swaps_before: usize,
    /// Cumulative SWAPs leaving the stage.
    pub swaps_after: usize,
    /// Slot count entering the stage (`None` before the scheduler).
    pub slots_before: Option<usize>,
    /// Slot count leaving the stage.
    pub slots_after: Option<usize>,
}

impl PassMetrics {
    /// SWAPs this stage inserted.
    pub fn swap_delta(&self) -> usize {
        self.swaps_after - self.swaps_before
    }
}

/// Strategy selection for the pipeline, carried by sweep specs and CLI
/// flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Routing strategy.
    pub router: RouteStrategy,
    /// Scheduling strategy.
    pub scheduler: ScheduleStrategy,
    /// Insert a single-qubit fusion stage between SWAP lowering and
    /// scheduling.
    pub fuse: bool,
}

impl Default for PipelineConfig {
    /// The paper-default pipeline: greedy routing, crosstalk-aware
    /// scheduling, no fusion — behaviour-identical to the historical
    /// inline compile sequence.
    fn default() -> Self {
        PipelineConfig {
            router: RouteStrategy::Greedy,
            scheduler: ScheduleStrategy::CrosstalkAware,
            fuse: false,
        }
    }
}

impl PipelineConfig {
    /// Replaces the routing strategy.
    #[must_use]
    pub fn with_router(mut self, router: RouteStrategy) -> Self {
        self.router = router;
        self
    }

    /// Replaces the scheduling strategy.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: ScheduleStrategy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables the fusion stage.
    #[must_use]
    pub fn with_fuse(mut self) -> Self {
        self.fuse = true;
        self
    }

    /// The stages, in execution order:
    /// `lower → route → lower_swaps [→ fuse] → schedule`.
    fn stages(&self) -> impl Iterator<Item = Stage> {
        [
            Some(Stage::Lower),
            Some(Stage::Route(self.router)),
            Some(Stage::LowerSwaps),
            self.fuse.then_some(Stage::Fuse),
            Some(Stage::Schedule(self.scheduler)),
        ]
        .into_iter()
        .flatten()
    }

    /// Stable fingerprint of the whole configuration — the chain of its
    /// stages' fingerprints (used in compile cache keys).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        for stage in self.stages() {
            h.write_u64(stage.fingerprint());
        }
        h.finish()
    }

    /// Runs every stage in order, validating after each, and returns the
    /// final artifact with per-stage metrics. Repeated compiles on one
    /// thread reuse every stage's scratch buffers.
    ///
    /// # Errors
    ///
    /// Returns the first stage failure or post-validation violation.
    pub fn run(
        &self,
        mut artifact: CompileArtifact,
        grid: &Grid,
    ) -> Result<(CompileArtifact, Vec<PassMetrics>), String> {
        COMPILE_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let mut metrics = Vec::with_capacity(5);
            for stage in self.stages() {
                let gates_before = artifact.circuit.len();
                let swaps_before = artifact.swaps;
                let slots_before = artifact.slots.as_ref().map(Vec::len);
                let t0 = std::time::Instant::now();
                stage.run(&mut artifact, grid, ws)?;
                let wall_ns = t0.elapsed().as_nanos() as f64;
                stage.post_validate(&artifact, grid, ws)?;
                metrics.push(PassMetrics {
                    pass: stage.label().to_string(),
                    wall_ns,
                    gates_before,
                    gates_after: artifact.circuit.len(),
                    swaps_before,
                    swaps_after: artifact.swaps,
                    slots_before,
                    slots_after: artifact.slots.as_ref().map(Vec::len),
                });
            }
            Ok((artifact, metrics))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    fn demo_circuit() -> Circuit {
        let mut c = Circuit::new(9);
        c.h(0);
        c.cx(0, 4);
        c.ccx(1, 3, 5);
        c.swap(2, 6);
        c.cz(7, 8);
        c.t(8);
        c
    }

    #[test]
    fn default_pipeline_matches_inline_sequence() {
        let grid = Grid::new(3, 3);
        let c = demo_circuit();
        let layout = Layout::snake(9, &grid);

        // The historical inline sequence.
        let lowered = lower_to_cz(&c);
        let ws = &mut CompileWorkspace::default();
        let routed = route(
            &mut ws.route,
            &lowered,
            &grid,
            &layout,
            RouteStrategy::Greedy,
        );
        let physical = lower_to_cz(&routed.circuit);
        let slots = schedule_crosstalk_aware(&mut ws.schedule, &physical, &grid);

        let art = CompileArtifact::new(c.clone(), layout);
        let (out, metrics) = PipelineConfig::default().run(art, &grid).unwrap();

        assert_eq!(out.circuit, physical);
        assert_eq!(out.scheduled(), &slots[..]);
        assert_eq!(out.swaps, routed.swap_count);
        assert_eq!(out.logical_gates, c.len());
        assert_eq!(
            metrics.iter().map(|m| m.pass.as_str()).collect::<Vec<_>>(),
            ["lower", "route", "lower_swaps", "schedule"]
        );
    }

    #[test]
    fn metrics_track_deltas() {
        let grid = Grid::new(3, 3);
        let c = demo_circuit();
        let art = CompileArtifact::new(c, Layout::snake(9, &grid));
        let (out, metrics) = PipelineConfig::default().run(art, &grid).unwrap();

        let route_m = &metrics[1];
        assert_eq!(route_m.pass, "route");
        assert_eq!(route_m.swap_delta(), out.swaps);
        let sched_m = &metrics[3];
        assert_eq!(sched_m.slots_before, None);
        assert_eq!(sched_m.slots_after, Some(out.scheduled().len()));
        for m in &metrics {
            assert!(m.wall_ns >= 0.0);
        }
    }

    #[test]
    fn config_fingerprints_are_distinct_and_stable() {
        // The literal values name every `compile/` file in a cache dir:
        // a moved value silently orphans every persisted compile.
        let mut fps: Vec<u64> = Vec::new();
        for (cfg, pinned) in [
            (PipelineConfig::default(), 0xfee4_3270_0b31_2a43),
            (
                PipelineConfig::default().with_scheduler(ScheduleStrategy::Asap),
                0xc7c2_9320_ccb5_04c0,
            ),
            (
                PipelineConfig::default().with_router(RouteStrategy::Lookahead { window: 16 }),
                0x6042_4a8e_ed50_f225,
            ),
            (
                PipelineConfig::default().with_router(RouteStrategy::Lookahead { window: 4 }),
                0xd94e_b521_b085_c294,
            ),
            (PipelineConfig::default().with_fuse(), 0xb955_5daf_f280_29d2),
        ] {
            assert_eq!(cfg.fingerprint(), cfg.fingerprint());
            assert_eq!(cfg.fingerprint(), pinned, "{cfg:?}");
            fps.push(cfg.fingerprint());
        }
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 5, "all five configurations fingerprint apart");
    }

    #[test]
    fn fuse_pass_shrinks_single_qubit_runs() {
        let grid = Grid::new(4, 4);
        let c = bench::qgan(16, 2, 3);
        let layout = Layout::snake(16, &grid);
        let plain = PipelineConfig::default()
            .run(CompileArtifact::new(c.clone(), layout.clone()), &grid)
            .unwrap()
            .0;
        let fused = PipelineConfig::default()
            .with_fuse()
            .run(CompileArtifact::new(c, layout), &grid)
            .unwrap()
            .0;
        assert!(fused.circuit.len() < plain.circuit.len());
        validate_schedule(
            &mut ValidateWorkspace::new(),
            &fused.circuit,
            &grid,
            fused.scheduled(),
        )
        .unwrap();
    }

    #[test]
    fn asap_strategy_passes_structural_validation_in_pipeline() {
        let grid = Grid::new(4, 4);
        // One ASAP moment whose CZs interfere: crosstalk-oblivious slots
        // are structurally fine but fail the full validator.
        let mut c = Circuit::new(16);
        c.cz(0, 1);
        c.cz(2, 3);
        let art = CompileArtifact::new(c, Layout::identity(16, 16));
        let (out, _) = PipelineConfig::default()
            .with_scheduler(ScheduleStrategy::Asap)
            .run(art, &grid)
            .unwrap();
        assert_eq!(out.scheduled().len(), 1, "ASAP packs one moment");
        assert!(validate_schedule(
            &mut ValidateWorkspace::new(),
            &out.circuit,
            &grid,
            out.scheduled()
        )
        .is_err());
    }

    #[test]
    fn lookahead_router_is_deterministic_and_compliant() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(16);
        for i in 0..8 {
            c.cz(i, 15 - i);
        }
        let cfg = PipelineConfig::default().with_router(RouteStrategy::Lookahead { window: 8 });
        let run = |cfg: &PipelineConfig| {
            cfg.run(
                CompileArtifact::new(c.clone(), Layout::identity(16, 16)),
                &grid,
            )
            .unwrap()
            .0
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.swaps, b.swaps);
        assert!(a.swaps > 0);
        validate_schedule(
            &mut ValidateWorkspace::new(),
            &a.circuit,
            &grid,
            a.scheduled(),
        )
        .unwrap();
    }

    #[test]
    fn pipeline_surfaces_post_validation_failures() {
        let grid = Grid::new(2, 2);
        let ws = &mut CompileWorkspace::default();
        let validate = |stage: Stage, art: &CompileArtifact, ws: &mut CompileWorkspace| {
            let err = stage.post_validate(art, &grid, ws).unwrap_err();
            let prefix = format!("pass `{}` post-validation failed: ", stage.label());
            assert!(err.starts_with(&prefix), "{err}");
        };

        // Every gate in one slot: the H and the CZ share qubit 0.
        let mut c = Circuit::new(4);
        c.h(0);
        c.cz(0, 1);
        let mut art = CompileArtifact::new(c, Layout::identity(4, 4));
        art.slots = Some(vec![(0..art.circuit.len()).collect()]);
        for scheduler in [ScheduleStrategy::CrosstalkAware, ScheduleStrategy::Asap] {
            validate(Stage::Schedule(scheduler), &art, ws);
        }

        // A CZ across the diagonal of the 2×2 grid.
        let mut c = Circuit::new(4);
        c.cz(0, 3);
        let art = CompileArtifact::new(c, Layout::identity(4, 4));
        validate(Stage::Route(RouteStrategy::Greedy), &art, ws);

        // A Toffoli survives no lowering stage.
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2);
        let art = CompileArtifact::new(c, Layout::identity(4, 4));
        for stage in [Stage::Lower, Stage::LowerSwaps, Stage::Fuse] {
            validate(stage, &art, ws);
        }
    }

    #[test]
    fn route_stage_rejects_a_layout_that_does_not_fit() {
        let grid = Grid::new(3, 3);
        // A layout over 8 physical qubits on the 9-qubit grid.
        let mut c = Circuit::new(2);
        c.cz(0, 1);
        let short_register = CompileArtifact::new(c, Layout::from_assignment(vec![5, 7], 8));
        // A 2-qubit layout under a 3-qubit circuit.
        let mut c = Circuit::new(3);
        c.cz(0, 2);
        let short_layout = CompileArtifact::new(c, Layout::identity(2, 9));
        for router in [
            RouteStrategy::Greedy,
            RouteStrategy::Lookahead { window: 4 },
        ] {
            for art in [&short_register, &short_layout] {
                let err = PipelineConfig::default()
                    .with_router(router)
                    .run(art.clone(), &grid)
                    .unwrap_err();
                assert!(err.starts_with("pass `route` failed: layout maps"), "{err}");
                // The kernel itself names the mismatch too.
                let panic = std::panic::catch_unwind(|| {
                    let ws = &mut RouteWorkspace::new();
                    route(ws, &art.circuit, &grid, &art.initial_layout, router)
                })
                .unwrap_err();
                let msg = panic.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.starts_with("route: layout maps"), "{msg}");
            }
        }
    }

    #[test]
    fn strategy_parsing_roundtrips() {
        assert_eq!(RouteStrategy::parse("greedy"), Ok(RouteStrategy::Greedy));
        assert_eq!(
            RouteStrategy::parse("lookahead"),
            Ok(RouteStrategy::Lookahead {
                window: DEFAULT_LOOKAHEAD_WINDOW
            })
        );
        assert!(RouteStrategy::parse("magic").is_err());
        assert_eq!(
            ScheduleStrategy::parse("crosstalk"),
            Ok(ScheduleStrategy::CrosstalkAware)
        );
        assert_eq!(ScheduleStrategy::parse("asap"), Ok(ScheduleStrategy::Asap));
        assert!(ScheduleStrategy::parse("magic").is_err());
        for s in [
            RouteStrategy::Greedy,
            RouteStrategy::Lookahead { window: 3 },
        ] {
            assert_eq!(
                RouteStrategy::parse(s.name()).map(|p| p.name()),
                Ok(s.name())
            );
        }
    }
}
