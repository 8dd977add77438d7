//! The unified compiler pass pipeline (§VI-B as composable passes).
//!
//! Every evaluation mode compiles benchmarks through the same sequence —
//! lower → route → lower SWAPs → schedule — and this module turns that
//! sequence into named, fingerprinted, individually timed passes:
//!
//! * [`Pass`] — one rewrite over a [`CompileArtifact`], with a stable
//!   fingerprint (chained into [`PipelineConfig::fingerprint`], part of
//!   every compile cache key) and a post-run validation hook;
//! * [`Pipeline`] — an ordered list of labelled passes, with per-pass
//!   [`PassMetrics`] (wall time, gate/SWAP/slot deltas) recorded on
//!   every run;
//! * [`PipelineConfig`] — the pluggable strategy selection: routing via
//!   [`RouteStrategy`] (seeded greedy, or the deterministic
//!   lookahead-window router) and scheduling via [`ScheduleStrategy`]
//!   (crosstalk-aware, or plain crosstalk-oblivious ASAP), plus optional
//!   single-qubit run fusion.
//!
//! The **default** pipeline is behaviour-identical to the historical
//! inline sequence in `digiq_core::{engine, system}` — same circuits,
//! same slots, byte-for-byte identical golden reports. The scheduler's
//! post-validate hook runs [`crate::schedule::validate_schedule`] (full,
//! including CZ interference, for the crosstalk-aware strategy;
//! structural only for the deliberately crosstalk-oblivious ASAP
//! strategy), so every configuration is checked on every compile, not
//! just under test.
//!
//! # Examples
//!
//! ```
//! use qcircuit::bench::ising_chain;
//! use qcircuit::mapping::Layout;
//! use qcircuit::pipeline::{CompileArtifact, Pipeline, PipelineConfig};
//! use qcircuit::topology::Grid;
//!
//! let grid = Grid::new(4, 4);
//! let circuit = ising_chain(16, 1, 0.3, 0.7);
//! let art = CompileArtifact::new(circuit, Layout::snake(16, &grid));
//! let pipeline = Pipeline::standard(&PipelineConfig::default());
//! let (out, metrics) = pipeline.run(art, &grid).unwrap();
//! assert_eq!(metrics.len(), 4); // lower, route, lower_swaps, schedule
//! assert!(!out.scheduled().is_empty());
//! ```

use crate::ir::Circuit;
use crate::lower::{fuse_single_qubit_runs, lower_to_cz};
use crate::mapping::{route_lookahead_with, route_with, Layout, RouteWorkspace, RouterConfig};
use crate::schedule::{
    schedule_asap, schedule_crosstalk_aware_with, validate_schedule_structural_with,
    validate_schedule_with, ScheduleWorkspace, Slot, ValidateWorkspace,
};
use crate::topology::Grid;
use qsim::rng::StableHasher;

/// Reusable scratch shared by every pass of a pipeline run: the router's
/// trial layout and candidate buffers, the scheduler's moment layering
/// and colour-group pool, and the validator's stamp tables. A warm
/// workspace makes a full [`Pipeline::standard`] compile allocate only
/// its materialized outputs (routed circuit, final layout, slot list).
///
/// [`Pipeline::run`] keeps one per thread; [`Pipeline::run_with`] takes
/// an explicit one for callers that manage their own reuse.
#[derive(Debug, Default)]
pub struct CompileWorkspace {
    /// Router scratch ([`route_with`] / [`route_lookahead_with`]).
    pub route: RouteWorkspace,
    /// Scheduler scratch ([`schedule_crosstalk_aware_with`]).
    pub schedule: ScheduleWorkspace,
    /// Validator scratch ([`validate_schedule_with`]).
    pub validate: ValidateWorkspace,
}

impl CompileWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static COMPILE_WS: std::cell::RefCell<CompileWorkspace> =
        std::cell::RefCell::new(CompileWorkspace::new());
}

/// The artifact a pipeline threads through its passes: the circuit in its
/// current form plus everything routing and scheduling accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileArtifact {
    /// The circuit in its current (possibly physical) form.
    pub circuit: Circuit,
    /// Gate count of the original logical input.
    pub logical_gates: usize,
    /// Cumulative SWAPs inserted by routing passes.
    pub swaps: usize,
    /// The layout routing starts from.
    pub initial_layout: Layout,
    /// The layout after the last routed gate (equals `initial_layout`
    /// until a routing pass runs).
    pub final_layout: Layout,
    /// Schedule slots, present once a scheduling pass has run.
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

    /// The schedule produced by the pipeline's scheduling pass.
    ///
    /// # Panics
    ///
    /// Panics if no scheduling pass has run yet.
    pub fn scheduled(&self) -> &[Slot] {
        self.slots
            .as_deref()
            .expect("artifact has no schedule — run a scheduling pass first")
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

/// One compiler pass: a named, fingerprinted rewrite of a
/// [`CompileArtifact`] with an optional post-run validation hook.
pub trait Pass: Send + Sync {
    /// Short machine-readable pass name (`lower`, `route`, …).
    fn name(&self) -> &'static str;

    /// Stable fingerprint of the pass identity *and* its configuration —
    /// identical across processes and toolchains, distinct for distinct
    /// strategies or parameters. [`PipelineConfig::fingerprint`] chains these.
    fn fingerprint(&self) -> u64;

    /// Applies the rewrite. `ws` is the run's shared scratch; passes may
    /// freely clobber the sub-workspaces they use.
    ///
    /// # Errors
    ///
    /// Returns a description of why the pass cannot apply.
    fn run(
        &self,
        artifact: &mut CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(), String>;

    /// Checks the pass's own output contract (the pipeline calls this
    /// after every [`Pass::run`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn post_validate(
        &self,
        _artifact: &CompileArtifact,
        _grid: &Grid,
        _ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// Lowers the artifact's circuit to the {1q, CZ} hardware set.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn fingerprint(&self) -> u64 {
        pass_fingerprint("lower", &[1])
    }

    fn run(
        &self,
        artifact: &mut CompileArtifact,
        _grid: &Grid,
        _ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        artifact.circuit = lower_to_cz(&artifact.circuit);
        Ok(())
    }

    fn post_validate(
        &self,
        artifact: &CompileArtifact,
        _grid: &Grid,
        _ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        if crate::lower::is_lowered(&artifact.circuit) {
            Ok(())
        } else {
            Err("lower pass left non-{1q, CZ} gates behind".to_string())
        }
    }
}

/// Fuses runs of adjacent single-qubit gates into one `U(θ,φ,λ)` per run
/// (the per-cycle unit DigiQ executes). Off in the default pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusePass;

impl Pass for FusePass {
    fn name(&self) -> &'static str {
        "fuse"
    }

    fn fingerprint(&self) -> u64 {
        pass_fingerprint("fuse", &[1])
    }

    fn run(
        &self,
        artifact: &mut CompileArtifact,
        _grid: &Grid,
        _ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        artifact.circuit = fuse_single_qubit_runs(&artifact.circuit);
        Ok(())
    }

    fn post_validate(
        &self,
        artifact: &CompileArtifact,
        _grid: &Grid,
        _ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        if crate::lower::is_lowered(&artifact.circuit) {
            Ok(())
        } else {
            Err("fuse pass left non-{1q, CZ} gates behind".to_string())
        }
    }
}

/// SWAP-insertion strategy of the routing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteStrategy {
    /// The seeded stochastic greedy router ([`route`]): strictly
    /// distance-reducing swaps, random tie-breaking, best of
    /// [`RouterConfig::trials`] attempts. The paper-default strategy.
    Greedy,
    /// The deterministic lookahead-window router
    /// ([`route_lookahead`]): one attempt, no randomness, candidates
    /// scored over the next `window` two-qubit gates.
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

/// Routes the artifact onto the grid from its initial layout, recording
/// inserted SWAPs and the final layout.
#[derive(Debug, Clone, Copy)]
pub struct RoutePass {
    /// Which SWAP-selection strategy to run.
    pub strategy: RouteStrategy,
}

impl Pass for RoutePass {
    fn name(&self) -> &'static str {
        "route"
    }

    fn fingerprint(&self) -> u64 {
        let cfg = RouterConfig::default();
        match self.strategy {
            RouteStrategy::Greedy => pass_fingerprint(
                "route/greedy",
                &[
                    cfg.seed,
                    cfg.trials as u64,
                    cfg.lookahead as u64,
                    cfg.lookahead_weight.to_bits(),
                ],
            ),
            RouteStrategy::Lookahead { window } => {
                pass_fingerprint("route/lookahead", &[window as u64])
            }
        }
    }

    fn run(
        &self,
        artifact: &mut CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        if artifact.circuit.n_qubits() > grid.n_qubits() {
            return Err(format!(
                "circuit needs {} qubits but the grid has {}",
                artifact.circuit.n_qubits(),
                grid.n_qubits()
            ));
        }
        let routed = match self.strategy {
            RouteStrategy::Greedy => route_with(
                &mut ws.route,
                &artifact.circuit,
                grid,
                &artifact.initial_layout,
                &RouterConfig::default(),
            ),
            RouteStrategy::Lookahead { window } => route_lookahead_with(
                &mut ws.route,
                &artifact.circuit,
                grid,
                &artifact.initial_layout,
                window,
            ),
        };
        artifact.swaps += routed.swap_count;
        artifact.final_layout = routed.final_layout;
        artifact.circuit = routed.circuit;
        Ok(())
    }

    fn post_validate(
        &self,
        artifact: &CompileArtifact,
        grid: &Grid,
        _ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        let compliant = artifact.circuit.gates().iter().all(|g| match *g {
            crate::ir::Gate::OneQ { .. } => true,
            crate::ir::Gate::Cz { a, b } | crate::ir::Gate::Swap { a, b } => {
                grid.are_adjacent(a, b)
            }
            _ => false,
        });
        if compliant {
            Ok(())
        } else {
            Err("routed circuit contains a non-nearest-neighbour gate".to_string())
        }
    }
}

/// Slot-grouping strategy of the scheduling pass.
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

/// Schedules the artifact into slots; post-validation runs the schedule
/// validator appropriate to the strategy's contract.
#[derive(Debug, Clone, Copy)]
pub struct SchedulePass {
    /// Which grouping strategy to run.
    pub strategy: ScheduleStrategy,
}

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn fingerprint(&self) -> u64 {
        match self.strategy {
            ScheduleStrategy::CrosstalkAware => pass_fingerprint("schedule/crosstalk", &[1]),
            ScheduleStrategy::Asap => pass_fingerprint("schedule/asap", &[1]),
        }
    }

    fn run(
        &self,
        artifact: &mut CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        artifact.slots = Some(match self.strategy {
            ScheduleStrategy::CrosstalkAware => {
                schedule_crosstalk_aware_with(&mut ws.schedule, &artifact.circuit, grid)
            }
            ScheduleStrategy::Asap => schedule_asap(&artifact.circuit),
        });
        Ok(())
    }

    /// The crosstalk-aware strategy promises interference-free slots and
    /// is held to the full [`crate::schedule::validate_schedule`]; the
    /// ASAP strategy is crosstalk-oblivious by contract, so it is checked
    /// structurally (every gate once, disjoint qubits, program order)
    /// only.
    fn post_validate(
        &self,
        artifact: &CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(), String> {
        let slots = artifact
            .slots
            .as_deref()
            .ok_or("scheduling pass produced no slots")?;
        match self.strategy {
            ScheduleStrategy::CrosstalkAware => {
                validate_schedule_with(&mut ws.validate, &artifact.circuit, grid, slots)
            }
            ScheduleStrategy::Asap => {
                validate_schedule_structural_with(&mut ws.validate, &artifact.circuit, slots)
            }
        }
    }
}

/// Strategy selection for the standard pipeline, carried by sweep specs
/// and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Routing strategy.
    pub router: RouteStrategy,
    /// Scheduling strategy.
    pub scheduler: ScheduleStrategy,
    /// Insert a single-qubit fusion pass between SWAP lowering and
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

    /// Enables the fusion pass.
    #[must_use]
    pub fn with_fuse(mut self) -> Self {
        self.fuse = true;
        self
    }

    /// Stable fingerprint of the whole configuration — the chain of its
    /// passes' fingerprints (used in compile cache keys).
    pub fn fingerprint(&self) -> u64 {
        let pipeline = Pipeline::standard(self);
        let mut h = StableHasher::new();
        for stage in pipeline.stages() {
            h.write_u64(stage.pass().fingerprint());
        }
        h.finish()
    }
}

/// One labelled position in a pipeline. Labels disambiguate repeated
/// passes (the standard pipeline lowers twice: `lower`, `lower_swaps`).
pub struct Stage {
    label: String,
    pass: Box<dyn Pass>,
}

impl Stage {
    /// Creates a labelled stage.
    pub fn new(label: impl Into<String>, pass: Box<dyn Pass>) -> Self {
        Stage {
            label: label.into(),
            pass,
        }
    }

    /// The stage's display / metrics label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The wrapped pass.
    pub fn pass(&self) -> &dyn Pass {
        &*self.pass
    }

    /// Runs the pass and its post-validation, timing the run and
    /// recording gate/SWAP/slot deltas.
    ///
    /// # Errors
    ///
    /// Returns the pass's own error or the first post-validation
    /// violation, prefixed with the stage label.
    pub fn run_timed(
        &self,
        artifact: &mut CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<PassMetrics, String> {
        let gates_before = artifact.circuit.len();
        let swaps_before = artifact.swaps;
        let slots_before = artifact.slots.as_ref().map(Vec::len);
        let t0 = std::time::Instant::now();
        self.pass
            .run(artifact, grid, ws)
            .map_err(|e| format!("pass `{}` failed: {e}", self.label))?;
        let wall_ns = t0.elapsed().as_nanos() as f64;
        self.pass
            .post_validate(artifact, grid, ws)
            .map_err(|e| format!("pass `{}` post-validation failed: {e}", self.label))?;
        Ok(PassMetrics {
            pass: self.label.clone(),
            wall_ns,
            gates_before,
            gates_after: artifact.circuit.len(),
            swaps_before,
            swaps_after: artifact.swaps,
            slots_before,
            slots_after: artifact.slots.as_ref().map(Vec::len),
        })
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stage({})", self.label)
    }
}

/// Per-pass accounting of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PassMetrics {
    /// Stage label.
    pub pass: String,
    /// Wall-clock spent in [`Pass::run`] (excludes validation),
    /// nanoseconds.
    pub wall_ns: f64,
    /// Gate count entering the pass.
    pub gates_before: usize,
    /// Gate count leaving the pass.
    pub gates_after: usize,
    /// Cumulative SWAPs entering the pass.
    pub swaps_before: usize,
    /// Cumulative SWAPs leaving the pass.
    pub swaps_after: usize,
    /// Slot count entering the pass (`None` before any scheduler).
    pub slots_before: Option<usize>,
    /// Slot count leaving the pass.
    pub slots_after: Option<usize>,
}

impl PassMetrics {
    /// Signed gate-count delta of the pass.
    pub fn gate_delta(&self) -> i64 {
        self.gates_after as i64 - self.gates_before as i64
    }

    /// SWAPs this pass inserted.
    pub fn swap_delta(&self) -> usize {
        self.swaps_after - self.swaps_before
    }
}

/// An ordered, labelled pass sequence over one [`CompileArtifact`].
#[derive(Debug)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Composes a pipeline from labelled stages.
    ///
    /// # Panics
    ///
    /// Panics on an empty stage list or duplicate labels (labels key
    /// per-pass metrics).
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "a pipeline needs at least one stage");
        for i in 1..stages.len() {
            assert!(
                stages[..i].iter().all(|s| s.label != stages[i].label),
                "duplicate stage label `{}`",
                stages[i].label
            );
        }
        Pipeline { stages }
    }

    /// The standard §VI-B pipeline for a strategy selection:
    /// `lower → route → lower_swaps [→ fuse] → schedule`.
    pub fn standard(cfg: &PipelineConfig) -> Self {
        let mut stages = vec![
            Stage::new("lower", Box::new(LowerPass) as Box<dyn Pass>),
            Stage::new(
                "route",
                Box::new(RoutePass {
                    strategy: cfg.router,
                }),
            ),
            Stage::new("lower_swaps", Box::new(LowerPass)),
        ];
        if cfg.fuse {
            stages.push(Stage::new("fuse", Box::new(FusePass)));
        }
        stages.push(Stage::new(
            "schedule",
            Box::new(SchedulePass {
                strategy: cfg.scheduler,
            }),
        ));
        Pipeline::new(stages)
    }

    /// The stages, in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Stage labels, in execution order.
    pub fn stage_labels(&self) -> Vec<&str> {
        self.stages.iter().map(Stage::label).collect()
    }

    /// Runs every stage in order, validating after each, and returns the
    /// final artifact with per-pass metrics. Uses a per-thread
    /// [`CompileWorkspace`], so repeated compiles on one thread reuse
    /// every pass's scratch buffers.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure or post-validation violation.
    pub fn run(
        &self,
        artifact: CompileArtifact,
        grid: &Grid,
    ) -> Result<(CompileArtifact, Vec<PassMetrics>), String> {
        COMPILE_WS.with(|ws| match ws.try_borrow_mut() {
            Ok(mut ws) => self.run_with(artifact, grid, &mut ws),
            // Re-entrant compile (a pass itself compiling): fall back to
            // a fresh workspace rather than aliasing the caller's.
            Err(_) => self.run_with(artifact, grid, &mut CompileWorkspace::new()),
        })
    }

    /// [`Pipeline::run`] with an explicit workspace.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure or post-validation violation.
    pub fn run_with(
        &self,
        mut artifact: CompileArtifact,
        grid: &Grid,
        ws: &mut CompileWorkspace,
    ) -> Result<(CompileArtifact, Vec<PassMetrics>), String> {
        let mut metrics = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            metrics.push(stage.run_timed(&mut artifact, grid, ws)?);
        }
        Ok((artifact, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::schedule::{schedule_crosstalk_aware, validate_schedule};

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
        let routed = crate::mapping::route(&lowered, &grid, &layout, &RouterConfig::default());
        let physical = lower_to_cz(&routed.circuit);
        let slots = schedule_crosstalk_aware(&physical, &grid);

        let art = CompileArtifact::new(c.clone(), layout);
        let pipeline = Pipeline::standard(&PipelineConfig::default());
        let (out, metrics) = pipeline.run(art, &grid).unwrap();

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
        let pipeline = Pipeline::standard(&PipelineConfig::default());
        let (out, metrics) = pipeline.run(art, &grid).unwrap();

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
        let mut fps: Vec<u64> = Vec::new();
        for cfg in [
            PipelineConfig::default(),
            PipelineConfig::default().with_scheduler(ScheduleStrategy::Asap),
            PipelineConfig::default().with_router(RouteStrategy::Lookahead { window: 16 }),
            PipelineConfig::default().with_router(RouteStrategy::Lookahead { window: 4 }),
            PipelineConfig::default().with_fuse(),
        ] {
            assert_eq!(cfg.fingerprint(), cfg.fingerprint());
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
        let plain = Pipeline::standard(&PipelineConfig::default())
            .run(CompileArtifact::new(c.clone(), layout.clone()), &grid)
            .unwrap()
            .0;
        let fused = Pipeline::standard(&PipelineConfig::default().with_fuse())
            .run(CompileArtifact::new(c, layout), &grid)
            .unwrap()
            .0;
        assert!(fused.circuit.len() < plain.circuit.len());
        validate_schedule(&fused.circuit, &grid, fused.scheduled()).unwrap();
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
        let pipeline =
            Pipeline::standard(&PipelineConfig::default().with_scheduler(ScheduleStrategy::Asap));
        let (out, _) = pipeline.run(art, &grid).unwrap();
        assert_eq!(out.scheduled().len(), 1, "ASAP packs one moment");
        assert!(validate_schedule(&out.circuit, &grid, out.scheduled()).is_err());
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
            Pipeline::standard(cfg)
                .run(
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
        validate_schedule(&a.circuit, &grid, a.scheduled()).unwrap();
    }

    #[test]
    fn pipeline_surfaces_post_validation_failures() {
        /// A deliberately broken scheduler: every gate lands in one slot.
        struct BrokenSchedule;
        impl Pass for BrokenSchedule {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn fingerprint(&self) -> u64 {
                pass_fingerprint("broken", &[])
            }
            fn run(
                &self,
                artifact: &mut CompileArtifact,
                _grid: &Grid,
                _ws: &mut CompileWorkspace,
            ) -> Result<(), String> {
                artifact.slots = Some(vec![(0..artifact.circuit.len()).collect()]);
                Ok(())
            }
            fn post_validate(
                &self,
                artifact: &CompileArtifact,
                _grid: &Grid,
                ws: &mut CompileWorkspace,
            ) -> Result<(), String> {
                validate_schedule_structural_with(
                    &mut ws.validate,
                    &artifact.circuit,
                    artifact.scheduled(),
                )
            }
        }

        let grid = Grid::new(2, 2);
        let mut c = Circuit::new(4);
        c.h(0);
        c.cz(0, 1); // shares qubit 0 with the H in the same slot
        let art = CompileArtifact::new(c, Layout::identity(4, 4));
        let pipeline = Pipeline::new(vec![Stage::new("broken", Box::new(BrokenSchedule))]);
        let err = pipeline.run(art, &grid).unwrap_err();
        assert!(err.contains("post-validation failed"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate stage label")]
    fn duplicate_labels_are_rejected() {
        let _ = Pipeline::new(vec![
            Stage::new("lower", Box::new(LowerPass) as Box<dyn Pass>),
            Stage::new("lower", Box::new(LowerPass)),
        ]);
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
