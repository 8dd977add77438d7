//! Batched, multi-threaded evaluation engine over the unified artifact
//! store.
//!
//! The paper's evaluation (Fig 8–10, Tables I–II) is one large sweep over
//! design points × benchmarks × drift seeds. Run naïvely, every point
//! re-synthesizes hardware, re-compiles circuits and re-builds sequence
//! databases from scratch; this module turns the sweep into a batched
//! pipeline instead:
//!
//! * a declarative [`SweepSpec`] enumerates the jobs (design-major, then
//!   benchmark, then seed — the job index is the merge order);
//! * **one evaluation core**, [`EvalEngine::evaluate_circuit`], takes a
//!   circuit from compile to a normalized [`BenchmarkReport`]; every
//!   sweep job is that call on its benchmark circuit and derived seed;
//! * **one run loop** executes them: scoped workers each take the next
//!   job from a *source*, evaluate it, append the record to a *sink* and
//!   mark the job done, until the source is exhausted or the
//!   [`RunControl`] stops the run (a fresh-job budget or a stop flag).
//!   There are two sources — the in-process job queue over the jobs not
//!   yet journaled, or the claim-file scan of a distributed worker
//!   ([`crate::store::JobClaims`], one thread per process) — and three
//!   sinks: none, the base [`SweepJournal`], or a
//!   worker's shard journal. Every run mode of [`EvalEngine`] is one
//!   pick of source × sink, and all of them hand their records to one
//!   report assembly that stamps either the live cache delta or the
//!   deterministic cold-run accounting. Its workers come from
//!   [`qsim::par::run_pool`], the pool that the re-exported
//!   [`par_map_ordered`] runs on too. The queue hands out jobs in index
//!   order but passes over a job whose benchmark another worker is
//!   compiling right now, while other work is pending, so no worker sits
//!   idle on a compile it would only wait for;
//! * expensive shared artifacts are memoized build-once in the engine's
//!   [`ArtifactStore`] (see [`crate::store`]) so no artifact is built
//!   twice across the sweep: synthesized [`DesignHardware`] per
//!   (design, groups), generated benchmark circuits per
//!   (benchmark, scale), compiled [`CompileArtifact`]s as **one entry
//!   per compile**, keyed by the circuit and layout fingerprints
//!   ([`Circuit::cache_key`] / `Layout::cache_key`), the grid and the
//!   pipeline fingerprint, so [`PipelineConfig::run`] compiles once per
//!   benchmark and every design and seed reuses it, together with the
//!   compile's [`ExecPlan`] (built in the same entry) — sequence databases
//!   / length distributions per [`MinBasisKind`], Impossible-MIMD
//!   baselines, and co-simulation reports. With a disk-backed store
//!   ([`StoreConfig::cache_dir`], `--cache-dir`), compiles, baselines
//!   and co-simulations additionally persist across processes, so a
//!   second run warm-starts with **zero pass builds**; with
//!   [`EvalEngine::run_journaled`] a sweep journals every completed job
//!   and an interrupted run resumes (`sweep --resume`) byte-identically
//!   to an uninterrupted one.
//!
//! The engine keeps one accounting: [`CacheStats`]
//! ([`EvalEngine::cache_stats`]) is read from the store's per-namespace
//! counters, whole-compile lookups included
//! ([`CacheStats::compile_hits`] / `compile_misses`). Per-pass build
//! metrics live in [`PassCacheStats`] ([`EvalEngine::pass_cache_stats`])
//! and store-wide counters in [`EvalEngine::store_stats`]; like the
//! co-simulation counters they are kept out of [`CacheStats`] so the
//! serialized sweep report — and the `tests/golden/engine_smoke.json`
//! golden — carries no wall-clock figures.
//!
//! Results are **deterministic regardless of worker count**: jobs are
//! pure functions of the spec (per-job exec seeds are derived by hashing
//! the spec's base seed with the job's drift seed), artifact construction
//! is deterministic, and records merge in job-index order. A sweep run
//! with 1 worker is byte-identical — serialized through
//! [`sfq_hw::json`] — to the same sweep with N workers, and cache hits
//! never change results versus a cold run (see
//! `crates/core/tests/engine_determinism.rs`). Under the default
//! in-memory unbounded store, cache accounting is deterministic too;
//! [`EvalEngine::cold_cache_stats`] computes it as a pure function of
//! the spec (pinned equal to a live cold run by tests), which is what a
//! resumed sweep reports so resumption never changes the bytes.
//!
//! ```
//! use digiq_core::design::ControllerDesign;
//! use digiq_core::engine::{EvalEngine, SweepSpec};
//! use qcircuit::bench::Benchmark;
//! use sfq_hw::json::ToJson;
//!
//! let spec = SweepSpec::small_grid(
//!     vec![ControllerDesign::DigiqOpt { bs: 8 }.into()],
//!     &[Benchmark::Bv],
//!     4,
//!     4,
//! );
//! let engine = EvalEngine::new(Default::default());
//! let report = engine.run(&spec, 2);
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].report.normalized_time >= 1.0);
//! let json = report.to_json_string();
//! assert_eq!(digiq_core::engine::SweepReport::parse(&json), Ok(report));
//! ```

use crate::cosim::{self, CosimParams, CosimReport};
use crate::design::{ControllerDesign, SystemConfig};
use crate::exec::{checkerboard_groups, execute_plan, ExecParams, ExecPlan, ExecReport};
use crate::hardware::{build_hardware, DesignHardware};
use crate::store::{
    self, lock_unpoisoned, ns, Artifact, ArtifactStore, ClaimHeartbeat, JobClaims, StoreConfig,
    StoreStats, SweepJournal,
};
use crate::system::{measured_min_lengths_with_db, BenchmarkReport, MinBasisKind};
use calib::min_decomp::{SequenceDb, SharedSequenceDb};
use qcircuit::bench::{Benchmark, ALL_BENCHMARKS};
use qcircuit::ir::Circuit;
use qcircuit::mapping::Layout;
use qcircuit::pipeline::{CompileArtifact, PipelineConfig, RouteStrategy, ScheduleStrategy};
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::{Json, ToJson};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qsim::par::run_pool;
pub use qsim::par::{default_workers, par_map_ordered};

/// Scale at which a benchmark instance is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchScale {
    /// The paper-scale instance ([`Benchmark::paper_scale`], 32×32 grid).
    Paper,
    /// A reduced instance fitting `max_qubits` ([`Benchmark::scaled`]).
    Small {
        /// Qubit budget of the instance.
        max_qubits: usize,
    },
}

/// One benchmark axis entry of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BenchmarkSpec {
    /// Which Table IV benchmark.
    pub bench: Benchmark,
    /// At which scale.
    pub scale: BenchScale,
}

impl BenchmarkSpec {
    /// Qubits the generated instance needs, computed without generating
    /// it.
    pub fn qubits(&self) -> usize {
        match self.scale {
            BenchScale::Paper => self.bench.paper_qubits(),
            BenchScale::Small { max_qubits } => self.bench.scaled_qubits(max_qubits),
        }
    }
}

/// One design axis entry of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// The controller architecture.
    pub design: ControllerDesign,
    /// Frequency-group count `G`.
    pub groups: usize,
}

impl From<ControllerDesign> for DesignPoint {
    /// A design at the paper's default `G = 2`.
    fn from(design: ControllerDesign) -> Self {
        DesignPoint { design, groups: 2 }
    }
}

/// A declarative sweep: designs × benchmarks × seeds on one device grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Design axis.
    pub designs: Vec<DesignPoint>,
    /// Benchmark axis.
    pub benchmarks: Vec<BenchmarkSpec>,
    /// Drift-seed axis (each value yields one job per design × benchmark;
    /// per-job exec seeds are `hash(base_seed, seed)`).
    pub seeds: Vec<u64>,
    /// Device grid rows.
    pub grid_rows: usize,
    /// Device grid columns.
    pub grid_cols: usize,
    /// Also synthesize (and cache) each design's hardware, recording its
    /// power in the job records.
    pub synthesize_hardware: bool,
    /// Salt mixed into every derived per-job seed.
    pub base_seed: u64,
    /// Compile-pipeline strategy selection (routing / scheduling); the
    /// default is the paper pipeline every golden file pins.
    pub pipeline: PipelineConfig,
}

/// One enumerated job of a sweep (a single design × benchmark × seed
/// point, with its fixed merge index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Merge position in the report.
    pub index: usize,
    /// Design point.
    pub point: DesignPoint,
    /// Benchmark instance.
    pub bench: BenchmarkSpec,
    /// Drift seed from the spec.
    pub seed: u64,
}

impl SweepSpec {
    /// A small-grid sweep over `designs` × `benchmarks` with one seed:
    /// every benchmark is generated at the grid's qubit budget.
    pub fn small_grid(
        designs: Vec<DesignPoint>,
        benchmarks: &[Benchmark],
        grid_rows: usize,
        grid_cols: usize,
    ) -> Self {
        let max_qubits = grid_rows * grid_cols;
        SweepSpec {
            designs,
            benchmarks: benchmarks
                .iter()
                .map(|&bench| BenchmarkSpec {
                    bench,
                    scale: BenchScale::Small { max_qubits },
                })
                .collect(),
            seeds: vec![0],
            grid_rows,
            grid_cols,
            synthesize_hardware: false,
            base_seed: 0xD161_5EED,
            pipeline: PipelineConfig::default(),
        }
    }

    /// The four Table I designs at the paper's default group count.
    pub fn table_one_designs() -> Vec<DesignPoint> {
        vec![
            DesignPoint {
                design: ControllerDesign::SfqMimdNaive,
                groups: 1,
            },
            DesignPoint {
                design: ControllerDesign::SfqMimdDecomp,
                groups: 1,
            },
            ControllerDesign::DigiqMin { bs: 2 }.into(),
            ControllerDesign::DigiqOpt { bs: 8 }.into(),
        ]
    }

    /// The five configurations plotted in Fig 9.
    pub fn fig9_designs() -> Vec<DesignPoint> {
        vec![
            ControllerDesign::DigiqMin { bs: 2 }.into(),
            ControllerDesign::DigiqMin { bs: 4 }.into(),
            ControllerDesign::DigiqOpt { bs: 4 }.into(),
            ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ControllerDesign::DigiqOpt { bs: 16 }.into(),
        ]
    }

    /// Replaces the drift-seed axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty axis, or on seeds at or above 2⁵³ — report
    /// seeds serialize as JSON numbers, and larger values would silently
    /// lose precision and break the `parse(serialize(x)) == x` guarantee.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a sweep needs at least one seed");
        assert!(
            seeds.iter().all(|&s| s < (1u64 << 53)),
            "seeds must stay below 2^53 to round-trip exactly through JSON"
        );
        self.seeds = seeds;
        self
    }

    /// Enables hardware synthesis for every buildable design point.
    #[must_use]
    pub fn with_hardware(mut self) -> Self {
        self.synthesize_hardware = true;
        self
    }

    /// Replaces the compile-pipeline strategy selection.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Total job count (the full cross product).
    pub fn job_count(&self) -> usize {
        self.designs.len() * self.benchmarks.len() * self.seeds.len()
    }

    /// Stable fingerprint of the whole sweep definition — identical
    /// across processes and toolchains, distinct for any change to an
    /// axis, the grid, the base seed, or the pipeline strategy. Keys the
    /// on-disk [`SweepJournal`], so a resumed sweep can never replay
    /// another spec's completed jobs.
    pub fn stable_key(&self) -> u64 {
        let mut h = qsim::rng::StableHasher::new();
        h.write_usize(self.grid_rows);
        h.write_usize(self.grid_cols);
        h.write_u64(self.base_seed);
        h.write_u8(self.synthesize_hardware as u8);
        h.write_u64(self.pipeline.fingerprint());
        h.write_usize(self.designs.len());
        for point in &self.designs {
            let [d, bs] = store::design_words(point.design);
            h.write_u64(d);
            h.write_u64(bs);
            h.write_usize(point.groups);
        }
        h.write_usize(self.benchmarks.len());
        for b in &self.benchmarks {
            h.write_bytes(b.bench.name().as_bytes());
            match b.scale {
                BenchScale::Paper => h.write_u8(0),
                BenchScale::Small { max_qubits } => {
                    h.write_u8(1);
                    h.write_usize(max_qubits);
                }
            }
        }
        h.write_usize(self.seeds.len());
        for &s in &self.seeds {
            h.write_u64(s);
        }
        h.finish()
    }

    /// The 2-design × 2-benchmark smoke sweep on a 4×4 grid that
    /// `tests/golden/engine_smoke.json` pins byte-for-byte — `sweep
    /// --smoke`, `scripts/ci.sh --engine-smoke` and the digiq-serve
    /// byte-identity tests all build exactly this spec.
    pub fn smoke() -> Self {
        SweepSpec::small_grid(
            vec![
                ControllerDesign::SfqMimdNaive.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Qgan],
            4,
            4,
        )
    }

    /// The co-simulation smoke sweep that `tests/golden/cosim_smoke.json`
    /// pins byte-for-byte (`cosim --smoke`, `scripts/ci.sh
    /// --cosim-smoke`, and the serve cosim identity test).
    pub fn cosim_smoke() -> Self {
        SweepSpec::small_grid(
            vec![
                ControllerDesign::DigiqMin { bs: 2 }.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Qgan],
            4,
            4,
        )
    }

    /// The paper-scale Fig 9 sweep: the five [`SweepSpec::fig9_designs`]
    /// × all six Table IV benchmarks at [`BenchScale::Paper`] on the
    /// 32×32 grid, seed 0 — what `sweep --full`, `cosim --full`,
    /// `fig9_exec_time` and the e2e `sweep_cold_full` row run.
    pub fn fig9_paper() -> Self {
        let mut spec = SweepSpec::small_grid(SweepSpec::fig9_designs(), &ALL_BENCHMARKS, 32, 32);
        for b in &mut spec.benchmarks {
            b.scale = BenchScale::Paper;
        }
        spec
    }

    /// Reads a spec back from its [`ToJson`] form, enforcing the
    /// plausibility bounds a network-facing server needs: non-empty
    /// axes, at most 4096 entries per design/benchmark axis, at most
    /// 65536 seeds (each below 2⁵³, the JSON round-trip bound), at most
    /// 2²⁰ jobs in all (designs × benchmarks × seeds, so
    /// [`SweepSpec::jobs`] never allocates for more), at most 2¹⁶ grid
    /// sites, group counts in `1..=4096`, small-scale benchmark budgets
    /// in `8..=2^16` qubits, and every benchmark instance fitting the
    /// grid ([`BenchmarkSpec::qubits`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field, or
    /// the violated bound.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "sweep spec";
        const MAX_AXIS: usize = 4096;
        const MAX_SEEDS: usize = 65_536;
        const MAX_JOBS: usize = 1 << 20;
        const MAX_SITES: u64 = 1 << 16;

        let mut designs = Vec::new();
        for d in j.arr_field("designs", CTX)? {
            let design = ControllerDesign::from_json(
                d.get("design").ok_or("design point missing `design`")?,
            )?;
            let groups = d.count_field("groups", "design point")? as usize;
            if !(1..=MAX_AXIS).contains(&groups) {
                return Err(format!(
                    "design point `groups` out of range 1..=4096: {groups}"
                ));
            }
            designs.push(DesignPoint { design, groups });
        }
        let mut benchmarks = Vec::new();
        for b in j.arr_field("benchmarks", CTX)? {
            let name = b.str_field("bench", "benchmark spec")?;
            let bench =
                Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            let scale = match b.get("scale") {
                Some(Json::Str(s)) if s == "paper" => BenchScale::Paper,
                Some(s @ Json::Obj(_)) => {
                    let max_qubits = s.count_field("max_qubits", "benchmark scale")?;
                    if !(8..=MAX_SITES).contains(&max_qubits) {
                        return Err(format!(
                            "benchmark scale `max_qubits` out of range 8..=2^16: {max_qubits}"
                        ));
                    }
                    BenchScale::Small {
                        max_qubits: max_qubits as usize,
                    }
                }
                _ => {
                    return Err(
                        "benchmark spec missing `scale` (\"paper\" or {max_qubits})".to_string()
                    )
                }
            };
            benchmarks.push(BenchmarkSpec { bench, scale });
        }
        let mut seeds = Vec::new();
        for s in j.arr_field("seeds", CTX)? {
            match s.as_f64() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 && x < 9_007_199_254_740_992.0 => {
                    seeds.push(x as u64);
                }
                _ => {
                    return Err(
                        "sweep spec seeds must be non-negative integers below 2^53".to_string()
                    )
                }
            }
        }
        if designs.is_empty() || benchmarks.is_empty() || seeds.is_empty() {
            return Err("sweep spec axes must be non-empty".to_string());
        }
        if designs.len() > MAX_AXIS || benchmarks.len() > MAX_AXIS || seeds.len() > MAX_SEEDS {
            return Err(
                "sweep spec axis too large (designs/benchmarks <= 4096, seeds <= 65536)"
                    .to_string(),
            );
        }
        let jobs = designs.len() * benchmarks.len() * seeds.len();
        if jobs > MAX_JOBS {
            return Err(format!("sweep spec too large: {jobs} jobs (at most 2^20)"));
        }
        let grid_rows = j.count_field("grid_rows", CTX)?;
        let grid_cols = j.count_field("grid_cols", CTX)?;
        let sites = grid_rows.checked_mul(grid_cols);
        if !sites.is_some_and(|n| (1..=MAX_SITES).contains(&n)) {
            return Err(format!(
                "sweep spec grid out of range (1..=2^16 sites): {grid_rows}x{grid_cols}"
            ));
        }
        // Every instance must fit the grid (the snake layout needs a site
        // per logical qubit); the bound is computed, not generated.
        if let Some(b) = benchmarks
            .iter()
            .find(|b| b.qubits() as u64 > grid_rows * grid_cols)
        {
            return Err(format!(
                "benchmark `{}` needs {} qubits, more than the {grid_rows}x{grid_cols} grid has",
                b.bench.name(),
                b.qubits()
            ));
        }
        let p = j.get("pipeline").ok_or("sweep spec missing `pipeline`")?;
        let mut router = RouteStrategy::parse(p.str_field("router", "pipeline config")?)?;
        if let RouteStrategy::Lookahead { window } = &mut router {
            if let Some(w) = p.get("window") {
                *window = w
                    .as_f64()
                    .filter(|x| *x >= 1.0 && x.fract() == 0.0 && *x <= MAX_SITES as f64)
                    .ok_or("pipeline config `window` must be an integer in 1..=2^16")?
                    as usize;
            }
        }
        let mut pipeline = PipelineConfig::default()
            .with_router(router)
            .with_scheduler(ScheduleStrategy::parse(
                p.str_field("scheduler", "pipeline config")?,
            )?);
        pipeline.fuse = p.bool_field("fuse", "pipeline config")?;
        Ok(SweepSpec {
            designs,
            benchmarks,
            seeds,
            grid_rows: grid_rows as usize,
            grid_cols: grid_cols as usize,
            synthesize_hardware: j.bool_field("synthesize_hardware", CTX)?,
            base_seed: j.count_field("base_seed", CTX)?,
            pipeline,
        })
    }

    /// Parses a serialized spec (the inverse of
    /// [`ToJson::to_json_string`]) under the [`SweepSpec::from_json`]
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        SweepSpec::from_json(&j)
    }

    /// Enumerates the jobs in merge order (design-major, then benchmark,
    /// then seed).
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for &point in &self.designs {
            for &bench in &self.benchmarks {
                for &seed in &self.seeds {
                    jobs.push(JobSpec {
                        index: jobs.len(),
                        point,
                        bench,
                        seed,
                    });
                }
            }
        }
        jobs
    }
}

impl ToJson for SweepSpec {
    /// The wire form digiq-serve carries: axes spelled out field by
    /// field, the pipeline by strategy name (plus the lookahead window
    /// when it applies) — `parse(to_json_string(spec)) == spec` for any
    /// spec within the [`SweepSpec::from_json`] bounds.
    fn to_json(&self) -> Json {
        let designs: Vec<Json> = self
            .designs
            .iter()
            .map(|d| {
                Json::obj([
                    ("design", d.design.to_json()),
                    ("groups", d.groups.to_json()),
                ])
            })
            .collect();
        let benchmarks: Vec<Json> = self
            .benchmarks
            .iter()
            .map(|b| {
                let scale = match b.scale {
                    BenchScale::Paper => Json::Str("paper".to_string()),
                    BenchScale::Small { max_qubits } => {
                        Json::obj([("max_qubits", max_qubits.to_json())])
                    }
                };
                Json::obj([("bench", b.bench.name().to_json()), ("scale", scale)])
            })
            .collect();
        let mut pipeline = vec![("router", self.pipeline.router.name().to_json())];
        if let RouteStrategy::Lookahead { window } = self.pipeline.router {
            pipeline.push(("window", window.to_json()));
        }
        pipeline.push(("scheduler", self.pipeline.scheduler.name().to_json()));
        pipeline.push(("fuse", self.pipeline.fuse.to_json()));
        Json::obj([
            ("designs", Json::Arr(designs)),
            ("benchmarks", Json::Arr(benchmarks)),
            ("seeds", self.seeds.to_json()),
            ("grid_rows", self.grid_rows.to_json()),
            ("grid_cols", self.grid_cols.to_json()),
            ("synthesize_hardware", self.synthesize_hardware.to_json()),
            ("base_seed", self.base_seed.to_json()),
            ("pipeline", Json::obj(pipeline)),
        ])
    }
}

/// Deterministic seed derivation — the repo's pinned stable hash of
/// `(base, salt)`, identical across processes and toolchains (derived
/// seeds reach golden files through the executor).
pub fn derive_seed(base: u64, salt: u64) -> u64 {
    qsim::rng::stable_hash(&[base, salt])
}

/// Cache accounting of one sweep run (deterministic for a fixed spec
/// under the default unbounded in-memory store — misses count distinct
/// content keys, hits count the remaining lookups; see
/// [`EvalEngine::cold_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Benchmark-circuit cache hits.
    pub circuit_hits: u64,
    /// Benchmark-circuit generations.
    pub circuit_misses: u64,
    /// Compiled-circuit cache hits.
    pub compile_hits: u64,
    /// Lower/route/schedule pipeline executions.
    pub compile_misses: u64,
    /// Hardware cache hits.
    pub hardware_hits: u64,
    /// Hardware syntheses.
    pub hardware_misses: u64,
    /// Sequence-database cache hits.
    pub seq_db_hits: u64,
    /// Sequence-database builds.
    pub seq_db_misses: u64,
    /// Length-distribution cache hits.
    pub min_lengths_hits: u64,
    /// Length-distribution measurements.
    pub min_lengths_misses: u64,
    /// Baseline-execution cache hits.
    pub baseline_hits: u64,
    /// Baseline (Impossible MIMD) executions.
    pub baseline_misses: u64,
}

impl CacheStats {
    /// Component-wise difference (`self − earlier`), for snapshotting one
    /// run out of a long-lived engine.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        let mut out = *self;
        for name in CACHE_FIELDS {
            *out.field_mut(name) -= earlier.field(name);
        }
        out
    }

    /// Total lookups that reused an artifact.
    pub fn total_hits(&self) -> u64 {
        self.sum_of("_hits")
    }

    /// Total artifacts built.
    pub fn total_misses(&self) -> u64 {
        self.sum_of("_misses")
    }

    fn sum_of(&self, suffix: &str) -> u64 {
        CACHE_FIELDS
            .iter()
            .filter(|name| name.ends_with(suffix))
            .map(|name| self.field(name))
            .sum()
    }
}

const CACHE_FIELDS: [&str; 12] = [
    "circuit_hits",
    "circuit_misses",
    "compile_hits",
    "compile_misses",
    "hardware_hits",
    "hardware_misses",
    "seq_db_hits",
    "seq_db_misses",
    "min_lengths_hits",
    "min_lengths_misses",
    "baseline_hits",
    "baseline_misses",
];

impl CacheStats {
    fn field(&self, name: &str) -> u64 {
        let mut copy = *self;
        *copy.field_mut(name)
    }

    fn field_mut(&mut self, name: &str) -> &mut u64 {
        match name {
            "circuit_hits" => &mut self.circuit_hits,
            "circuit_misses" => &mut self.circuit_misses,
            "compile_hits" => &mut self.compile_hits,
            "compile_misses" => &mut self.compile_misses,
            "hardware_hits" => &mut self.hardware_hits,
            "hardware_misses" => &mut self.hardware_misses,
            "seq_db_hits" => &mut self.seq_db_hits,
            "seq_db_misses" => &mut self.seq_db_misses,
            "min_lengths_hits" => &mut self.min_lengths_hits,
            "min_lengths_misses" => &mut self.min_lengths_misses,
            "baseline_hits" => &mut self.baseline_hits,
            "baseline_misses" => &mut self.baseline_misses,
            _ => unreachable!("unknown cache field"),
        }
    }

    /// Reads the stats back from their [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let mut out = CacheStats::default();
        for name in CACHE_FIELDS {
            *out.field_mut(name) = j.count_field(name, "cache stats")?;
        }
        Ok(out)
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj(CACHE_FIELDS.map(|name| (name, self.field(name).to_json())))
    }
}

/// One merged sweep result row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Controller design.
    pub design: ControllerDesign,
    /// Group count `G`.
    pub groups: usize,
    /// Benchmark display name.
    pub benchmark: String,
    /// Width of the generated benchmark instance.
    pub n_qubits: usize,
    /// Drift seed of this job.
    pub seed: u64,
    /// Synthesized power, W (present when the spec requested hardware and
    /// the design is buildable).
    pub power_w: Option<f64>,
    /// The full evaluation report.
    pub report: BenchmarkReport,
}

impl ToJson for JobRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("groups", self.groups.to_json()),
            ("benchmark", self.benchmark.to_json()),
            ("n_qubits", self.n_qubits.to_json()),
            ("seed", self.seed.to_json()),
            ("power_w", self.power_w.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl JobRecord {
    /// Reads a record back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "job record";
        let power_w = match j.get("power_w") {
            None => return Err("job record missing `power_w`".to_string()),
            Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or("job record `power_w` must be null or a number")?,
            ),
        };
        Ok(JobRecord {
            design: ControllerDesign::from_json(
                j.get("design").ok_or("job record missing `design`")?,
            )?,
            groups: j.count_field("groups", CTX)? as usize,
            benchmark: j.str_field("benchmark", CTX)?.to_string(),
            n_qubits: j.count_field("n_qubits", CTX)? as usize,
            seed: j.count_field("seed", CTX)?,
            power_w,
            report: BenchmarkReport::from_json(
                j.get("report").ok_or("job record missing `report`")?,
            )?,
        })
    }
}

/// The aggregated result of one sweep, serializable through
/// [`sfq_hw::json`] and readable back via [`SweepReport::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Device grid rows.
    pub grid_rows: usize,
    /// Device grid columns.
    pub grid_cols: usize,
    /// One record per job, in merge (job-index) order.
    pub jobs: Vec<JobRecord>,
    /// Cache accounting for this run.
    pub cache: CacheStats,
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("grid_rows", self.grid_rows.to_json()),
            ("grid_cols", self.grid_cols.to_json()),
            ("jobs", self.jobs.to_json()),
            ("cache", self.cache.to_json()),
        ])
    }
}

impl SweepReport {
    /// Reads a report back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "sweep report";
        let jobs = match j.get("jobs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(JobRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("sweep report missing array `jobs`".to_string()),
        };
        Ok(SweepReport {
            grid_rows: j.count_field("grid_rows", CTX)? as usize,
            grid_cols: j.count_field("grid_cols", CTX)? as usize,
            jobs,
            cache: CacheStats::from_json(j.get("cache").ok_or("sweep report missing `cache`")?)?,
        })
    }

    /// Parses a serialized report (the inverse of
    /// [`ToJson::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        SweepReport::from_json(&j)
    }
}

/// Build metrics of one pipeline stage, summed over the compiles that
/// missed the store: the per-pass rows behind
/// [`EvalEngine::pass_cache_stats`]. Whole-compile reuse is
/// [`CacheStats::compile_hits`] / `compile_misses`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassCacheStat {
    /// Stage label (`lower`, `route`, `lower_swaps`, `schedule`, …).
    pub pass: String,
    /// Total wall-clock spent running the pass, ns.
    pub wall_ns: f64,
    /// Total gates entering the pass across builds.
    pub gates_in: u64,
    /// Total gates leaving the pass across builds.
    pub gates_out: u64,
    /// Total SWAPs the pass inserted across builds.
    pub swaps_added: u64,
    /// Total slots the pass emitted across builds.
    pub slots_out: u64,
}

impl ToJson for PassCacheStat {
    fn to_json(&self) -> Json {
        Json::obj([
            ("pass", self.pass.to_json()),
            ("wall_ns", self.wall_ns.to_json()),
            ("gates_in", self.gates_in.to_json()),
            ("gates_out", self.gates_out.to_json()),
            ("swaps_added", self.swaps_added.to_json()),
            ("slots_out", self.slots_out.to_json()),
        ])
    }
}

/// Per-pass build metrics of an engine, label-sorted. Like
/// [`EvalEngine::cosim_cache_stats`], this lives **outside**
/// [`CacheStats`] so the serialized sweep report and its golden file
/// carry no wall-clock figures; the gate, SWAP and slot totals are
/// deterministic for a fixed job set regardless of worker count
/// (wall-clock totals are not).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassCacheStats {
    /// One entry per stage label that ran at least once.
    pub passes: Vec<PassCacheStat>,
}

impl PassCacheStats {
    /// The entry for a stage label, if that stage ever ran.
    pub fn get(&self, pass: &str) -> Option<&PassCacheStat> {
        self.passes.iter().find(|p| p.pass == pass)
    }
}

impl ToJson for PassCacheStats {
    fn to_json(&self) -> Json {
        Json::obj([("passes", self.passes.to_json())])
    }
}

/// The batched evaluation engine: holds the cost model, the unified
/// [`ArtifactStore`] every artifact memoizes into, and the per-pass build
/// totals of its compiles. Cheap to share behind `&self` — all methods
/// are thread-safe — and long-lived engines keep their store warm across
/// [`EvalEngine::run`] calls. Engines built over a disk-backed store
/// ([`EvalEngine::with_store`]) additionally warm-start compiles,
/// baselines and co-simulations from a previous process. Every run mode
/// is a method here, each one a pick of job source × record sink for the
/// module's single run loop (see the module docs); the `digiq-serve`
/// daemon shares one engine across its worker threads.
#[derive(Debug)]
pub struct EvalEngine {
    model: CostModel,
    /// The unified artifact store (shareable with other engines via
    /// [`EvalEngine::store`] and [`EvalEngine::with_store`]; note that
    /// sharing also shares counters).
    store: Arc<ArtifactStore>,
    /// Build metrics per stage label, accumulated on compile misses
    /// (the only time a pass actually runs inside the engine).
    pass_builds: Mutex<BTreeMap<String, PassCacheStat>>,
}

impl Default for EvalEngine {
    fn default() -> Self {
        EvalEngine::new(CostModel::default())
    }
}

/// The compile store entry: the pipeline's artifact and its
/// [`ExecPlan`], built together once per compile and shared by every
/// design and seed that executes it. Derefs to the artifact. On disk it
/// is the artifact alone; a disk hit rebuilds the plan as it decodes.
#[derive(Debug)]
pub struct Compiled {
    /// The compiled circuit, schedule and layouts.
    pub artifact: CompileArtifact,
    /// The scheduled circuit flattened for [`execute_plan`].
    pub plan: ExecPlan,
}

impl Compiled {
    /// Pairs `artifact` with its plan.
    ///
    /// # Panics
    ///
    /// Panics if the artifact is unscheduled or its circuit unlowered.
    pub fn new(artifact: CompileArtifact) -> Self {
        let plan = ExecPlan::new(&artifact.circuit, artifact.scheduled());
        Compiled { artifact, plan }
    }
}

impl std::ops::Deref for Compiled {
    type Target = CompileArtifact;

    fn deref(&self) -> &CompileArtifact {
        &self.artifact
    }
}

impl Artifact for Compiled {
    fn encode(&self) -> Json {
        self.artifact.encode()
    }

    fn decode(j: &Json) -> Result<Self, String> {
        let artifact = CompileArtifact::decode(j)?;
        if artifact.slots.is_none() || !qcircuit::lower::is_lowered(&artifact.circuit) {
            return Err("compile artifact is not a lowered, scheduled circuit".to_string());
        }
        Ok(Compiled::new(artifact))
    }
}

/// The compile, execution parameters and group map of one circuit under
/// one design point, assembled by `EvalEngine::context` for both
/// evaluation modes.
struct EvalContext {
    key: CompileKey,
    compiled: Arc<Compiled>,
    params: ExecParams,
    groups: Vec<usize>,
}

/// Cache key of a compiled artifact: (circuit fingerprint, layout
/// fingerprint, grid rows, grid cols, pipeline fingerprint).
type CompileKey = (u64, u64, usize, usize, u64);

fn compile_key(circuit: &Circuit, grid: &Grid, pipeline: &PipelineConfig) -> CompileKey {
    let layout = Layout::snake(circuit.n_qubits(), grid);
    (
        circuit.cache_key(),
        layout.cache_key(),
        grid.rows(),
        grid.cols(),
        pipeline.fingerprint(),
    )
}

/// Store key of a benchmark circuit: name × scale × generation seed.
fn circuit_store_key(spec: BenchmarkSpec, base_seed: u64) -> u64 {
    let (tag, budget) = match spec.scale {
        BenchScale::Paper => (0u64, 0u64),
        BenchScale::Small { max_qubits } => (1, max_qubits as u64),
    };
    qsim::rng::stable_hash_str(spec.bench.name(), &[tag, budget, base_seed])
}

/// Store key of a compiled artifact: the whole compile, one entry.
fn compile_store_key(key: CompileKey) -> u64 {
    qsim::rng::stable_hash_str(
        "compile",
        &[key.0, key.1, key.2 as u64, key.3 as u64, key.4],
    )
}

/// Store key of the Impossible-MIMD baseline of a compiled artifact.
fn baseline_store_key(key: CompileKey) -> u64 {
    qsim::rng::stable_hash_str(
        "baseline",
        &[key.0, key.1, key.2 as u64, key.3 as u64, key.4],
    )
}

/// Store key of a co-simulation: the compiled artifact plus everything
/// the engine-derived [`ExecParams`] depends on (design point and derived
/// seed). Engine co-simulations always run untraced, so the trace flag is
/// not part of the key.
fn cosim_store_key(key: CompileKey, design: ControllerDesign, groups: usize, seed: u64) -> u64 {
    let [d, bs] = store::design_words(design);
    qsim::rng::stable_hash_str(
        "cosim",
        &[
            key.0,
            key.1,
            key.2 as u64,
            key.3 as u64,
            key.4,
            d,
            bs,
            groups as u64,
            seed,
        ],
    )
}

/// Generates a benchmark circuit at a spec entry's scale (the pure
/// builder behind [`EvalEngine::benchmark_circuit`] and
/// [`EvalEngine::cold_cache_stats`]).
fn generate_circuit(spec: BenchmarkSpec, base_seed: u64) -> Circuit {
    match spec.scale {
        BenchScale::Paper => spec.bench.paper_scale(),
        BenchScale::Small { max_qubits } => spec.bench.scaled(max_qubits, base_seed),
    }
}

impl EvalEngine {
    /// Creates an engine over a fresh unbounded in-memory store — the
    /// default configuration every golden file pins.
    pub fn new(model: CostModel) -> Self {
        EvalEngine::with_store(model, Arc::new(ArtifactStore::in_memory()))
    }

    /// Creates an engine over an explicit store — bounded, disk-backed
    /// ([`StoreConfig`]), or shared with other engines.
    pub fn with_store(model: CostModel, store: Arc<ArtifactStore>) -> Self {
        EvalEngine {
            model,
            store,
            pass_builds: Mutex::default(),
        }
    }

    /// Convenience constructor: an engine over a new store with the given
    /// configuration.
    pub fn with_store_config(model: CostModel, config: StoreConfig) -> Self {
        EvalEngine::with_store(model, Arc::new(ArtifactStore::with_config(config)))
    }

    /// The engine's artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Store-wide per-namespace counters (hits, misses, disk hits,
    /// builds, evictions), surfaced beside [`EvalEngine::pass_cache_stats`].
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The benchmark circuit for a spec entry, generated at most once per
    /// (benchmark, scale, seed).
    pub fn benchmark_circuit(&self, spec: BenchmarkSpec, base_seed: u64) -> Arc<Circuit> {
        self.store
            .get_or_build(ns::CIRCUIT, circuit_store_key(spec, base_seed), || {
                generate_circuit(spec, base_seed)
            })
    }

    /// Compiles `circuit` on `grid` (snake initial layout) through the
    /// pipeline `cfg` selects ([`PipelineConfig::run`]), memoized as
    /// **one store entry** per (circuit, layout, grid, pipeline config):
    /// the pipeline runs once per benchmark and every design and seed of
    /// a sweep reuses the result and its [`ExecPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the grid has, or if a
    /// pass or its post-validation fails (a configuration bug — every
    /// schedule is checked by its strategy's validator on build).
    pub fn compiled_with(
        &self,
        circuit: &Circuit,
        grid: &Grid,
        cfg: &PipelineConfig,
    ) -> Arc<Compiled> {
        self.compiled(circuit, grid, cfg, compile_key(circuit, grid, cfg))
    }

    /// One whole-compile store lookup under `key`: a miss runs the full
    /// pipeline once, builds the plan and folds every stage's metrics into
    /// the engine's pass-build totals; a hit (coalesced waiters included)
    /// runs nothing.
    fn compiled(
        &self,
        circuit: &Circuit,
        grid: &Grid,
        cfg: &PipelineConfig,
        key: CompileKey,
    ) -> Arc<Compiled> {
        let mut built = Vec::new();
        let artifact =
            self.store
                .get_or_build_artifact(ns::COMPILE, compile_store_key(key), || {
                    let layout = Layout::snake(circuit.n_qubits(), grid);
                    let (out, metrics) = cfg
                        .run(CompileArtifact::new(circuit.clone(), layout), grid)
                        .unwrap_or_else(|e| panic!("compile pipeline: {e}"));
                    built = metrics;
                    Compiled::new(out)
                });
        for m in &built {
            let mut passes = lock_unpoisoned(&self.pass_builds);
            let agg = passes
                .entry(m.pass.clone())
                .or_insert_with(|| PassCacheStat {
                    pass: m.pass.clone(),
                    ..PassCacheStat::default()
                });
            agg.wall_ns += m.wall_ns;
            agg.gates_in += m.gates_before as u64;
            agg.gates_out += m.gates_after as u64;
            agg.swaps_added += m.swap_delta() as u64;
            agg.slots_out += m.slots_after.unwrap_or(0) as u64;
        }
        artifact
    }

    /// The synthesized hardware of a design point (paper-default system
    /// configuration), built at most once per (design, groups). Returns
    /// `None` for the unbuildable Impossible MIMD reference.
    pub fn hardware(&self, design: ControllerDesign, groups: usize) -> Option<Arc<DesignHardware>> {
        if design == ControllerDesign::ImpossibleMimd {
            return None;
        }
        Some(
            self.store
                .get_or_build(ns::HARDWARE, store::hardware_key(design, groups), || {
                    build_hardware(&SystemConfig::paper_default(design, groups), &self.model)
                }),
        )
    }

    /// The shared sequence database for a basis kind, built at most once
    /// and handed out as a [`SharedSequenceDb`] handle.
    pub fn sequence_db(&self, kind: MinBasisKind) -> SharedSequenceDb {
        self.store
            .get_or_build(ns::SEQ_DB, store::basis_kind_key(kind), || {
                SequenceDb::build(&kind.basis(), kind.half_depth())
            })
    }

    /// The measured sequence-length distribution a design's executor
    /// charges, derived from the cached database; `None` for designs that
    /// do not decompose over a discrete basis.
    pub fn min_lengths(&self, design: ControllerDesign) -> Option<Arc<Vec<usize>>> {
        if !matches!(
            design,
            ControllerDesign::DigiqMin { .. } | ControllerDesign::SfqMimdDecomp
        ) {
            return None;
        }
        let kind = MinBasisKind::for_design(design);
        let db = self.sequence_db(kind);
        Some(
            self.store
                .get_or_build(ns::MIN_LENGTHS, store::basis_kind_key(kind), || {
                    measured_min_lengths_with_db(&kind.basis(), &db)
                }),
        )
    }

    /// Current cumulative cache accounting, read from the store's
    /// per-namespace counters (compile hits/misses are the whole-compile
    /// lookups).
    pub fn cache_stats(&self) -> CacheStats {
        let store = self.store.stats();
        let mut stats = CacheStats::default();
        for (namespace, [hits, misses]) in [
            (ns::CIRCUIT, ["circuit_hits", "circuit_misses"]),
            (ns::COMPILE, ["compile_hits", "compile_misses"]),
            (ns::HARDWARE, ["hardware_hits", "hardware_misses"]),
            (ns::SEQ_DB, ["seq_db_hits", "seq_db_misses"]),
            (ns::MIN_LENGTHS, ["min_lengths_hits", "min_lengths_misses"]),
            (ns::BASELINE, ["baseline_hits", "baseline_misses"]),
        ] {
            if let Some(s) = store.get(namespace) {
                *stats.field_mut(hits) = s.hits;
                *stats.field_mut(misses) = s.misses;
            }
        }
        stats
    }

    /// Per-pass build metrics of the engine's compiles, label-sorted.
    /// Gate, SWAP and slot totals are deterministic for a fixed job set
    /// regardless of worker count (under the default unbounded in-memory
    /// store).
    pub fn pass_cache_stats(&self) -> PassCacheStats {
        let passes = lock_unpoisoned(&self.pass_builds)
            .values()
            .cloned()
            .collect();
        PassCacheStats { passes }
    }

    /// [`CacheStats`] of a **cold, uninterrupted** run of `spec` on a
    /// fresh engine, computed as a pure function of the spec without
    /// executing any job: lookups are fixed per job and misses count
    /// distinct content keys (circuits are generated once per distinct
    /// benchmark instance to fingerprint the compile inputs). Pinned
    /// equal to live accounting by `crates/core/tests/store_persist.rs`;
    /// journaled, distributed and served runs report this, so a resumed
    /// sweep serializes byte-identically to an uninterrupted one.
    pub fn cold_cache_stats(spec: &SweepSpec) -> CacheStats {
        Self::cold_cache_stats_with(spec, |b| generate_circuit(b, spec.base_seed).into())
    }

    /// [`EvalEngine::cold_cache_stats`] reusing this engine's already
    /// resident benchmark circuits (a counter-neutral
    /// [`ArtifactStore::peek`]) instead of regenerating them, so a
    /// journaled sweep does not re-run the paper-scale circuit
    /// generators just to fingerprint the compile inputs. Circuits a
    /// resumed run skipped entirely are still generated on demand.
    fn cold_cache_stats_warm(&self, spec: &SweepSpec) -> CacheStats {
        Self::cold_cache_stats_with(spec, |b| {
            self.store
                .peek::<Circuit>(ns::CIRCUIT, circuit_store_key(b, spec.base_seed))
                .unwrap_or_else(|| generate_circuit(b, spec.base_seed).into())
        })
    }

    fn cold_cache_stats_with(
        spec: &SweepSpec,
        mut circuit_of: impl FnMut(BenchmarkSpec) -> Arc<Circuit>,
    ) -> CacheStats {
        let grid = Grid::new(spec.grid_rows, spec.grid_cols);
        let jobs = spec.job_count() as u64;

        let mut distinct_specs: Vec<BenchmarkSpec> = Vec::new();
        for &b in &spec.benchmarks {
            if !distinct_specs.contains(&b) {
                distinct_specs.push(b);
            }
        }
        let mut compile_inputs: BTreeSet<(u64, u64)> = BTreeSet::new();
        for &b in &distinct_specs {
            let circuit = circuit_of(b);
            let layout = Layout::snake(circuit.n_qubits(), &grid);
            compile_inputs.insert((circuit.cache_key(), layout.cache_key()));
        }
        let circuit_misses = distinct_specs.len() as u64;
        let compile_misses = compile_inputs.len() as u64;

        let per_point = (spec.benchmarks.len() * spec.seeds.len()) as u64;
        let mut hardware_lookups = 0u64;
        let mut hardware_keys: BTreeSet<([u64; 2], usize)> = BTreeSet::new();
        let mut decomp_lookups = 0u64;
        let mut decomp_kinds: BTreeSet<u64> = BTreeSet::new();
        for point in &spec.designs {
            if spec.synthesize_hardware && point.design != ControllerDesign::ImpossibleMimd {
                hardware_lookups += per_point;
                hardware_keys.insert((store::design_words(point.design), point.groups));
            }
            if matches!(
                point.design,
                ControllerDesign::DigiqMin { .. } | ControllerDesign::SfqMimdDecomp
            ) {
                decomp_lookups += per_point;
                decomp_kinds.insert(store::basis_kind_key(MinBasisKind::for_design(
                    point.design,
                )));
            }
        }
        let hardware_misses = hardware_keys.len() as u64;
        let decomp_misses = decomp_kinds.len() as u64;

        CacheStats {
            circuit_hits: jobs - circuit_misses,
            circuit_misses,
            compile_hits: jobs - compile_misses,
            compile_misses,
            hardware_hits: hardware_lookups - hardware_misses,
            hardware_misses,
            seq_db_hits: decomp_lookups - decomp_misses,
            seq_db_misses: decomp_misses,
            min_lengths_hits: decomp_lookups - decomp_misses,
            min_lengths_misses: decomp_misses,
            baseline_hits: jobs - compile_misses,
            baseline_misses: compile_misses,
        }
    }

    /// Co-simulation cache accounting: `(hits, misses)`. Kept out of
    /// [`CacheStats`] so the analytic sweep's serialized report (and its
    /// golden file) is unchanged by the co-simulation mode.
    pub fn cosim_cache_stats(&self) -> (u64, u64) {
        let s = self.store.namespace_stats(ns::COSIM);
        (s.hits, s.misses)
    }
}

/// Configuration of one distributed sweep worker
/// ([`EvalEngine::run_distributed`]).
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Worker label: names the shard journal file and is written into
    /// claim bodies for diagnostics (`w0`, `serve-4217`, …).
    pub worker: String,
    /// Job index this worker's scan starts from (workers spread over
    /// disjoint regions first; `worker_id * jobs / n_workers` for evenly
    /// offset CLI workers).
    pub scan_offset: usize,
    /// How long an un-refreshed claim stays valid before another worker
    /// may steal it. Must comfortably exceed the heartbeat period
    /// (quarter-TTL) plus scheduling jitter.
    pub claim_ttl: Duration,
    /// Testing hook: sleep this long while holding each claim before
    /// evaluating, widening the window in which a kill leaves a claimed
    /// but unjournaled job behind (`sweep --dist-hold-ms`).
    pub hold: Option<Duration>,
    /// Rescan interval while every remaining job is claimed elsewhere.
    pub poll: Duration,
}

impl DistributedConfig {
    /// A worker configuration with the default 30 s TTL and 25 ms poll.
    pub fn new(worker: impl Into<String>) -> Self {
        DistributedConfig {
            worker: worker.into(),
            scan_offset: 0,
            claim_ttl: Duration::from_secs(30),
            hold: None,
            poll: Duration::from_millis(25),
        }
    }
}

/// Cooperative run controls, the only way to stop a run early: an
/// optional fresh-job budget (the deterministic `--interrupt-after`
/// testing hook) and an optional external stop flag (how a draining
/// digiq-serve stops an in-flight sweep between jobs).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunControl<'a> {
    /// Stop after at most this many fresh (non-resumed) jobs.
    pub interrupt_after: Option<usize>,
    /// When set and flipped to `true`, workers stop claiming new jobs;
    /// jobs already claimed still finish and journal, and the run
    /// returns `None` if anything was left undone.
    pub stop: Option<&'a AtomicBool>,
}

impl EvalEngine {
    /// Assembles the per-circuit artifacts — identical for the analytic
    /// and co-simulation modes: the memoized compile, then the design's
    /// execution parameters (paper-default system on `grid`, seeded with
    /// `exec_seed`, with the memoized decomposition-length distribution)
    /// and the checkerboard group map.
    fn context(
        &self,
        circuit: &Circuit,
        grid: &Grid,
        pipeline: &PipelineConfig,
        point: DesignPoint,
        exec_seed: u64,
    ) -> EvalContext {
        let key = compile_key(circuit, grid, pipeline);
        let compiled = self.compiled(circuit, grid, pipeline, key);

        let mut config = SystemConfig::paper_default(point.design, point.groups);
        config.n_qubits = grid.n_qubits();
        let mut params = ExecParams::new(config);
        params.seed = exec_seed;
        if let Some(lengths) = self.min_lengths(point.design) {
            params.min_lengths = (*lengths).clone();
        }

        let groups = checkerboard_groups(grid.cols(), grid.n_qubits(), point.groups.clamp(1, 2));
        EvalContext {
            key,
            compiled,
            params,
            groups,
        }
    }

    /// Evaluates one circuit at one design point — the §VI-B flow behind
    /// every Fig 9 bar and every sweep job: compile on `grid` (snake
    /// initial layout) through `pipeline`, execute under `point` with
    /// `exec_seed`, and normalize to the Impossible MIMD baseline. The
    /// compile and the baseline are memoized in the engine's store, so a
    /// circuit evaluated at many design points compiles once.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the grid has, or if a
    /// pass or its post-validation fails (see
    /// [`EvalEngine::compiled_with`]).
    pub fn evaluate_circuit(
        &self,
        name: &str,
        circuit: &Circuit,
        grid: &Grid,
        pipeline: &PipelineConfig,
        point: DesignPoint,
        exec_seed: u64,
    ) -> BenchmarkReport {
        let EvalContext {
            key,
            compiled,
            params,
            groups,
        } = self.context(circuit, grid, pipeline, point, exec_seed);
        let exec = execute_plan(&compiled.plan, &groups, &params);
        // The Impossible MIMD normalization baseline ignores the seed,
        // the group map and the decomposition distribution, so it is a
        // pure function of the compiled artifact — memoize it per
        // compile key instead of re-running it for every design and seed
        // (and persist it: with a disk-backed store a warm-started sweep
        // skips the baseline executions too).
        let base_exec =
            self.store
                .get_or_build_artifact(ns::BASELINE, baseline_store_key(key), || {
                    let mut base = params.clone();
                    base.config.design = ControllerDesign::ImpossibleMimd;
                    execute_plan(&compiled.plan, &groups, &base)
                });
        BenchmarkReport {
            benchmark: name.to_string(),
            logical_gates: compiled.logical_gates,
            swaps: compiled.swaps,
            slots: compiled.scheduled().len(),
            normalized_time: exec.total_ns / base_exec.total_ns.max(f64::MIN_POSITIVE),
            exec,
        }
    }

    /// Evaluates one job (pure given the spec): its benchmark circuit
    /// through [`EvalEngine::evaluate_circuit`] with the job's derived
    /// exec seed, plus the design's power when the spec asks for it.
    /// [`EvalEngine::run`] is this call on every job.
    pub fn run_job(&self, spec: &SweepSpec, job: &JobSpec) -> JobRecord {
        let grid = Grid::new(spec.grid_rows, spec.grid_cols);
        let circuit = self.benchmark_circuit(job.bench, spec.base_seed);
        let name = job.bench.bench.name();
        let report = self.evaluate_circuit(
            name,
            &circuit,
            &grid,
            &spec.pipeline,
            job.point,
            derive_seed(spec.base_seed, job.seed),
        );
        let power_w = if spec.synthesize_hardware {
            self.hardware(job.point.design, job.point.groups)
                .map(|hw| hw.report.power_w)
        } else {
            None
        };
        JobRecord {
            design: job.point.design,
            groups: job.point.groups,
            benchmark: name.to_string(),
            n_qubits: circuit.n_qubits(),
            seed: job.seed,
            power_w,
            report,
        }
    }

    /// Co-simulates one job: the cycle-accurate machine and the analytic
    /// model run on the *same* compiled artifact, parameters, and group
    /// map, so the record carries both sides of the differential check.
    /// Co-simulations are memoized per (compiled artifact, design point,
    /// derived seed).
    fn run_cosim_job(&self, spec: &SweepSpec, job: &JobSpec) -> CosimRecord {
        let grid = Grid::new(spec.grid_rows, spec.grid_cols);
        let circuit = self.benchmark_circuit(job.bench, spec.base_seed);
        let EvalContext {
            key,
            compiled,
            params,
            groups,
        } = self.context(
            &circuit,
            &grid,
            &spec.pipeline,
            job.point,
            derive_seed(spec.base_seed, job.seed),
        );
        let cosim = self.store.get_or_build_artifact(
            ns::COSIM,
            cosim_store_key(key, job.point.design, job.point.groups, params.seed),
            || {
                cosim::simulate(
                    &compiled.circuit,
                    compiled.scheduled(),
                    &groups,
                    &CosimParams::new(params.clone()),
                )
            },
        );
        let analytic = execute_plan(&compiled.plan, &groups, &params);
        CosimRecord {
            design: job.point.design,
            groups: job.point.groups,
            benchmark: job.bench.bench.name().to_string(),
            n_qubits: circuit.n_qubits(),
            seed: job.seed,
            cosim: (*cosim).clone(),
            analytic,
        }
    }

    /// The one place a [`SweepReport`] is assembled: `None` unless
    /// `records` covers every job of `spec`. The cache accounting is the
    /// live delta since `live_since` or, without it, the deterministic
    /// cold-run accounting ([`EvalEngine::cold_cache_stats`]) — which is
    /// what makes journaled, resumed, distributed and served runs
    /// serialize byte-identically to a cold uninterrupted one.
    fn finish(
        &self,
        spec: &SweepSpec,
        records: BTreeMap<usize, JobRecord>,
        live_since: Option<CacheStats>,
    ) -> Option<SweepReport> {
        if records.len() < spec.job_count() {
            return None;
        }
        let cache = match live_since {
            Some(before) => self.cache_stats().since(&before),
            None => self.cold_cache_stats_warm(spec),
        };
        Some(SweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: records.into_values().collect(),
            cache,
        })
    }

    /// Every job of `spec` on `workers` threads, no journal.
    fn run_all(
        &self,
        spec: &SweepSpec,
        workers: usize,
        live_since: Option<CacheStats>,
    ) -> SweepReport {
        let source = Source::queue(spec.jobs());
        let records = execute_jobs(source, workers, None, RunControl::default(), |job| {
            self.run_job(spec, job)
        });
        self.finish(spec, records, live_since)
            .expect("an unstoppable run completes every job")
    }

    /// Runs the whole sweep on `workers` scoped threads and merges the
    /// records in job-index order, reporting the live cache delta of
    /// this run. The report (including its cache accounting) is
    /// identical for any worker count.
    pub fn run(&self, spec: &SweepSpec, workers: usize) -> SweepReport {
        self.run_all(spec, workers, Some(self.cache_stats()))
    }

    /// [`EvalEngine::run`] with the report's cache accounting replaced
    /// by the deterministic cold-run accounting
    /// ([`EvalEngine::cold_cache_stats`]) — what the server serializes,
    /// so a response is byte-identical to a fresh `sweep` CLI run of the
    /// same spec no matter how warm the shared store already is or what
    /// other requests run concurrently.
    pub fn run_deterministic(&self, spec: &SweepSpec, workers: usize) -> SweepReport {
        self.run_all(spec, workers, None)
    }

    /// The co-simulation evaluation mode: the same sweep sharding and
    /// job-index merge as [`EvalEngine::run`], but every job runs the
    /// cycle-accurate machine alongside the analytic model. The cosim
    /// report carries no cache accounting, so its bytes are independent
    /// of worker count and store warmth.
    pub fn run_cosim(&self, spec: &SweepSpec, workers: usize) -> CosimSweepReport {
        let source = Source::queue(spec.jobs());
        let records = execute_jobs(source, workers, None, RunControl::default(), |job| {
            self.run_cosim_job(spec, job)
        });
        CosimSweepReport {
            grid_rows: spec.grid_rows,
            grid_cols: spec.grid_cols,
            jobs: records.into_values().collect(),
        }
    }

    /// [`EvalEngine::run`] with a job-completion journal: every
    /// finished job is appended (and flushed) to `journal`, and with
    /// `resume` the jobs already journaled are loaded instead of re-run
    /// — an interrupted sweep picks up exactly where it stopped. The
    /// report carries the cold-run cache accounting, so a resumed sweep
    /// serializes **byte-identically** to an uninterrupted one.
    ///
    /// `ctl` stops the run early (see [`RunControl`]); jobs already
    /// started still finish and journal, and an interrupted run returns
    /// `None`.
    pub fn run_journaled(
        &self,
        spec: &SweepSpec,
        workers: usize,
        journal: &SweepJournal,
        resume: bool,
        ctl: RunControl<'_>,
    ) -> Option<SweepReport> {
        let mut records = if resume {
            journaled_records(journal.load(), spec)
        } else {
            BTreeMap::new()
        };
        let mut pending: Vec<JobSpec> = spec.jobs();
        pending.retain(|j| !records.contains_key(&j.index));
        let source = Source::queue(pending);
        records.extend(execute_jobs(source, workers, Some(journal), ctl, |job| {
            self.run_job(spec, job)
        }));
        self.finish(spec, records, None)
    }

    /// Runs `spec` as one worker of a **distributed** sweep: any number
    /// of processes sharing one cache dir cooperate with no coordinator,
    /// each claiming jobs through the store's claim files
    /// ([`crate::store::JobClaims`]), evaluating them single-file, and
    /// streaming completions into its own shard journal
    /// (`<spec key>.<worker>.jsonl`) so no two processes ever append to
    /// the same file. A worker whose scan finds every remaining job
    /// claimed by someone else waits and rescans — a killed worker's
    /// claims stop being heartbeated, go stale after the TTL, and are
    /// reclaimed by the survivors — and every worker returns only once
    /// all jobs are journaled, handing back the merged report (identical
    /// bytes to [`EvalEngine::merge_distributed`], the serial run, and
    /// the journaled run).
    ///
    /// `ctl` stops the worker between jobs (returning `Ok(None)`), the
    /// same way it stops a journaled sweep.
    ///
    /// # Errors
    ///
    /// Returns the IO error if the claim directory or shard journal
    /// cannot be created.
    pub fn run_distributed(
        &self,
        spec: &SweepSpec,
        cache_dir: &Path,
        cfg: &DistributedConfig,
        ctl: RunControl<'_>,
    ) -> std::io::Result<Option<SweepReport>> {
        let spec_key = spec.stable_key();
        let journal_dir = ArtifactStore::journal_dir(cache_dir);
        let shard = SweepJournal::open_shard(&journal_dir, spec_key, &cfg.worker)?;
        let mut scan = ClaimScan {
            claims: JobClaims::open(cache_dir, spec_key, &cfg.worker, cfg.claim_ttl)?,
            cfg,
            journal_dir: &journal_dir,
            spec,
            jobs: spec.jobs(),
            done: BTreeSet::new(),
        };
        scan.rescan();
        let source = Source::Claims(Mutex::new(scan));
        let executed = execute_jobs(source, 1, Some(&shard), ctl, |job| self.run_job(spec, job));
        let mut records = journaled_records(SweepJournal::load_all(&journal_dir, spec_key), spec);
        records.extend(executed);
        Ok(self.finish(spec, records, None))
    }

    /// Assembles the final report of a distributed sweep from whatever
    /// shard layout the workers left behind: the base journal plus every
    /// worker shard, merged in job-index order with the cold-run cache
    /// accounting — byte-identical to a serial [`EvalEngine::run`] of
    /// the same spec no matter how many workers ran, which worker
    /// evaluated which job, or how often a job was re-run after a claim
    /// expired.
    ///
    /// # Errors
    ///
    /// Returns a description when any job is missing from the journals
    /// (the sweep is still running, or a worker died un-reclaimed).
    pub fn merge_distributed(
        &self,
        spec: &SweepSpec,
        cache_dir: &Path,
    ) -> Result<SweepReport, String> {
        let journal_dir = ArtifactStore::journal_dir(cache_dir);
        let records = journaled_records(
            SweepJournal::load_all(&journal_dir, spec.stable_key()),
            spec,
        );
        let found = records.len();
        self.finish(spec, records, None).ok_or_else(|| {
            format!(
                "distributed sweep incomplete: {found}/{} jobs journaled under {}",
                spec.job_count(),
                journal_dir.display()
            )
        })
    }
}

/// The one decoder of journal lines: the valid records of `spec`'s jobs
/// by index. Out-of-range indices and undecodable records are skipped
/// (the job simply re-runs); a later line for an index wins.
fn journaled_records(lines: Vec<(u64, Json)>, spec: &SweepSpec) -> BTreeMap<usize, JobRecord> {
    let jobs = spec.job_count() as u64;
    lines
        .into_iter()
        .filter(|(index, _)| *index < jobs)
        .filter_map(|(index, j)| Some((index as usize, JobRecord::from_json(&j).ok()?)))
        .collect()
}

/// Where the run loop's workers take their next job from.
enum Source<'a> {
    /// The in-process queue over the jobs not yet journaled.
    Queue(Mutex<JobQueue>),
    /// A distributed worker's claim-file scan (run it on one thread).
    Claims(Mutex<ClaimScan<'a>>),
}

impl Source<'_> {
    /// The in-process source over `jobs`.
    fn queue(jobs: Vec<JobSpec>) -> Self {
        Source::Queue(Mutex::new(JobQueue::new(jobs)))
    }

    /// The next job (with its claim's heartbeat, for a claimed job), or
    /// `None` once the source is exhausted or `stopped`.
    fn take(&self, stopped: &dyn Fn() -> bool) -> Option<(JobSpec, Option<ClaimHeartbeat>)> {
        match self {
            Source::Queue(..) if stopped() => None,
            Source::Queue(queue) => Some((lock_unpoisoned(queue).take()?, None)),
            Source::Claims(scan) => lock_unpoisoned(scan).take(stopped),
        }
    }

    /// Marks a taken job done once its record is in the sink. The claim
    /// heartbeat stops **before** the claim is released, so no refresher
    /// tick can outlive the claim.
    fn done(&self, job: &JobSpec, heartbeat: Option<ClaimHeartbeat>) {
        drop(heartbeat);
        match self {
            Source::Queue(queue) => lock_unpoisoned(queue).done(job),
            Source::Claims(scan) => lock_unpoisoned(scan).release(job.index),
        }
    }
}

/// Where a benchmark's compile stands, as far as the job queue knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compile {
    /// No job of the benchmark taken yet.
    Cold,
    /// A job of the benchmark is running and none has finished: its
    /// worker is (or may be) compiling it.
    InFlight,
    /// A job of the benchmark finished, so its compile is in the store.
    Warm,
}

/// The in-process job queue. It hands out jobs in index order, except
/// that it passes over a job whose benchmark another worker is compiling
/// right now while other work is pending: taking it would only park the
/// worker on that compile's store slot. When every pending job waits on
/// such a compile, the first pending job goes anyway and coalesces onto
/// the build in the store. Benchmarks are keyed by value, so duplicate
/// spec entries share one state. Records merge by job index, so the
/// order changes no byte of a report.
struct JobQueue {
    jobs: Vec<JobSpec>,
    taken: Vec<bool>,
    /// Every job before this position is taken.
    first_pending: usize,
    compiles: HashMap<BenchmarkSpec, Compile>,
}

impl JobQueue {
    fn new(jobs: Vec<JobSpec>) -> Self {
        let compiles = jobs.iter().map(|j| (j.bench, Compile::Cold)).collect();
        JobQueue {
            taken: vec![false; jobs.len()],
            jobs,
            first_pending: 0,
            compiles,
        }
    }

    fn take(&mut self) -> Option<JobSpec> {
        let mut pending = (self.first_pending..self.jobs.len()).filter(|&i| !self.taken[i]);
        let first = pending.next()?;
        let ready = |i: &usize| self.compiles[&self.jobs[*i].bench] != Compile::InFlight;
        let pick = std::iter::once(first)
            .chain(pending)
            .find(ready)
            .unwrap_or(first);
        self.taken[pick] = true;
        while self.taken.get(self.first_pending) == Some(&true) {
            self.first_pending += 1;
        }
        let job = self.jobs[pick];
        let compile = self.compiles.get_mut(&job.bench).expect("queued benchmark");
        if *compile == Compile::Cold {
            *compile = Compile::InFlight;
        }
        Some(job)
    }

    fn done(&mut self, job: &JobSpec) {
        self.compiles.insert(job.bench, Compile::Warm);
    }
}

/// The claim-file scan of one distributed worker. Each take walks the
/// jobs from the worker's scan offset (so workers spread over disjoint
/// regions first and only contend at the end) and claims the first job
/// that is neither journaled nor held. When every remaining job is held
/// elsewhere it waits a poll interval and rescans the journals, until
/// those workers journal or their claims go stale.
struct ClaimScan<'a> {
    claims: JobClaims,
    cfg: &'a DistributedConfig,
    journal_dir: &'a Path,
    spec: &'a SweepSpec,
    jobs: Vec<JobSpec>,
    /// Jobs journaled by any worker as of the last rescan, plus this
    /// worker's own completions since.
    done: BTreeSet<usize>,
}

impl ClaimScan<'_> {
    fn rescan(&mut self) {
        let lines = SweepJournal::load_all(self.journal_dir, self.spec.stable_key());
        self.done = journaled_records(lines, self.spec).into_keys().collect();
    }

    fn take(&mut self, stopped: &dyn Fn() -> bool) -> Option<(JobSpec, Option<ClaimHeartbeat>)> {
        let n = self.jobs.len();
        while self.done.len() < n {
            for k in 0..n {
                if stopped() {
                    return None;
                }
                let job = self.jobs[(k + self.cfg.scan_offset) % n];
                let index = job.index as u64;
                if self.done.contains(&job.index) || !self.claims.try_claim(index) {
                    continue;
                }
                // Between the last rescan and winning the claim, another
                // worker may have journaled this job and released it —
                // re-check so a job is never journaled twice.
                self.rescan();
                if self.done.contains(&job.index) {
                    self.claims.release(index);
                    continue;
                }
                let heartbeat = self.claims.heartbeat(index);
                if let Some(hold) = self.cfg.hold {
                    std::thread::sleep(hold);
                }
                return Some((job, Some(heartbeat)));
            }
            std::thread::sleep(self.cfg.poll);
            self.rescan();
        }
        None
    }

    fn release(&mut self, index: usize) {
        self.claims.release(index as u64);
        self.done.insert(index);
    }
}

/// The one run loop behind every run mode: `workers` scoped threads each
/// take the next job from `source`, evaluate it, append the record to
/// `sink` (if any) and mark the job done, until the source is exhausted
/// or `ctl` stops the run. Returns the records this call evaluated, by
/// job index.
fn execute_jobs<R: ToJson + Send>(
    source: Source<'_>,
    workers: usize,
    sink: Option<&SweepJournal>,
    ctl: RunControl<'_>,
    eval: impl Fn(&JobSpec) -> R + Sync,
) -> BTreeMap<usize, R> {
    let stopped = || ctl.stop.is_some_and(|f| f.load(Ordering::Relaxed));
    let started = AtomicUsize::new(0);
    let records = Mutex::new(BTreeMap::new());
    run_pool(workers, || {
        // Reserve a slot in the fresh-job budget before taking a job, so
        // a worker never claims a job it will not run.
        if ctl
            .interrupt_after
            .is_some_and(|n| started.fetch_add(1, Ordering::Relaxed) >= n)
        {
            return false;
        }
        let Some((job, heartbeat)) = source.take(&stopped) else {
            return false;
        };
        let record = eval(&job);
        if let Some(sink) = sink {
            sink.append(job.index as u64, &record.to_json());
        }
        lock_unpoisoned(&records).insert(job.index, record);
        source.done(&job, heartbeat);
        true
    });
    records
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One merged co-simulation sweep row: the cycle-accurate report and the
/// analytic report it must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimRecord {
    /// Controller design.
    pub design: ControllerDesign,
    /// Group count `G`.
    pub groups: usize,
    /// Benchmark display name.
    pub benchmark: String,
    /// Width of the generated benchmark instance.
    pub n_qubits: usize,
    /// Drift seed of this job.
    pub seed: u64,
    /// The cycle-accurate co-simulation.
    pub cosim: CosimReport,
    /// The analytic model on the identical artifact and draws.
    pub analytic: ExecReport,
}

impl CosimRecord {
    /// The divergence between the two engines for this job.
    pub fn diff(&self) -> cosim::CosimDiff {
        cosim::diff_analytic(&self.cosim, &self.analytic)
    }

    /// Reads a record back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "cosim record";
        Ok(CosimRecord {
            design: ControllerDesign::from_json(
                j.get("design").ok_or("cosim record missing `design`")?,
            )?,
            groups: j.count_field("groups", CTX)? as usize,
            benchmark: j.str_field("benchmark", CTX)?.to_string(),
            n_qubits: j.count_field("n_qubits", CTX)? as usize,
            seed: j.count_field("seed", CTX)?,
            cosim: CosimReport::from_json(j.get("cosim").ok_or("cosim record missing `cosim`")?)?,
            analytic: ExecReport::from_json(
                j.get("analytic").ok_or("cosim record missing `analytic`")?,
            )?,
        })
    }
}

impl ToJson for CosimRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("groups", self.groups.to_json()),
            ("benchmark", self.benchmark.to_json()),
            ("n_qubits", self.n_qubits.to_json()),
            ("seed", self.seed.to_json()),
            ("cosim", self.cosim.to_json()),
            ("analytic", self.analytic.to_json()),
        ])
    }
}

/// The aggregated result of one co-simulation sweep, serializable through
/// [`sfq_hw::json`] and readable back via [`CosimSweepReport::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct CosimSweepReport {
    /// Device grid rows.
    pub grid_rows: usize,
    /// Device grid columns.
    pub grid_cols: usize,
    /// One record per job, in merge (job-index) order.
    pub jobs: Vec<CosimRecord>,
}

impl ToJson for CosimSweepReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("grid_rows", self.grid_rows.to_json()),
            ("grid_cols", self.grid_cols.to_json()),
            ("jobs", self.jobs.to_json()),
        ])
    }
}

impl CosimSweepReport {
    /// Worst divergence across the sweep (`None` when empty).
    pub fn worst_diff(&self) -> Option<cosim::CosimDiff> {
        self.jobs
            .iter()
            .map(|r| r.diff())
            .max_by(|a, b| a.total_rel_err.total_cmp(&b.total_rel_err))
    }

    /// True when every job's integer counters match to the cycle and ns
    /// totals agree within `tol`.
    pub fn all_exact(&self, tol: f64) -> bool {
        self.jobs.iter().all(|r| r.diff().is_exact(tol))
    }

    /// Reads a report back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const CTX: &str = "cosim sweep report";
        let jobs = match j.get("jobs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(CosimRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("cosim sweep report missing array `jobs`".to_string()),
        };
        Ok(CosimSweepReport {
            grid_rows: j.count_field("grid_rows", CTX)? as usize,
            grid_cols: j.count_field("grid_cols", CTX)? as usize,
            jobs,
        })
    }

    /// Parses a serialized report (the inverse of
    /// [`ToJson::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first structural mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        CosimSweepReport::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_stats_handle_duplicate_axis_entries() {
        // Duplicate design points and benchmark entries inflate lookups
        // but not distinct-key misses — exactly like the live store.
        let mut spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::DigiqMin { bs: 2 }.into(),
                ControllerDesign::DigiqMin { bs: 2 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Bv],
            4,
            4,
        )
        .with_hardware();
        spec.benchmarks.push(spec.benchmarks[0]);
        let engine = EvalEngine::new(CostModel::default());
        let live = engine.run(&spec, 2);
        assert_eq!(EvalEngine::cold_cache_stats(&spec), live.cache);
        assert_eq!(live.cache.circuit_misses, 1);
        assert_eq!(live.cache.hardware_misses, 1);
        assert_eq!(live.cache.seq_db_misses, 1);
    }

    #[test]
    fn small_circuit_pipeline_runs() {
        let engine = EvalEngine::new(CostModel::default());
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.h(q);
        }
        for q in (0..15).step_by(2) {
            c.cz(q, q + 1);
        }
        let report = engine.evaluate_circuit(
            "smoke",
            &c,
            &Grid::paper_grid(),
            &PipelineConfig::default(),
            ControllerDesign::DigiqOpt { bs: 8 }.into(),
            0xD161_0E0C,
        );
        assert_eq!(report.benchmark, "smoke");
        assert!(report.normalized_time >= 1.0);
        assert!(report.exec.total_ns > 0.0);
        assert_eq!(report.logical_gates, 16 + 8);
    }

    #[test]
    fn job_enumeration_is_design_major() {
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::DigiqOpt { bs: 4 }.into(),
                ControllerDesign::ImpossibleMimd.into(),
            ],
            &[Benchmark::Bv, Benchmark::Qgan],
            4,
            4,
        )
        .with_seeds(vec![7, 8]);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].point.design, ControllerDesign::DigiqOpt { bs: 4 });
        assert_eq!(jobs[0].bench.bench, Benchmark::Bv);
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[1].seed, 8);
        assert_eq!(jobs[2].bench.bench, Benchmark::Qgan);
        assert_eq!(jobs[4].point.design, ControllerDesign::ImpossibleMimd);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
    }

    #[test]
    fn compiled_artifacts_are_shared_across_designs() {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::ImpossibleMimd.into(),
                ControllerDesign::SfqMimdNaive.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv],
            4,
            4,
        );
        let report = engine.run(&spec, 2);
        assert_eq!(report.jobs.len(), 3);
        // One circuit generation and one compile serve all three designs.
        assert_eq!(report.cache.circuit_misses, 1);
        assert_eq!(report.cache.circuit_hits, 2);
        assert_eq!(report.cache.compile_misses, 1);
        assert_eq!(report.cache.compile_hits, 2);
        // All three evaluated the same compiled workload.
        let slots: Vec<usize> = report.jobs.iter().map(|r| r.report.slots).collect();
        assert_eq!(slots[0], slots[1]);
        assert_eq!(slots[1], slots[2]);
    }

    #[test]
    fn hardware_power_recorded_when_requested() {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::ImpossibleMimd.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv],
            4,
            4,
        )
        .with_hardware();
        let report = engine.run(&spec, 2);
        assert_eq!(report.jobs[0].power_w, None, "Impossible MIMD: no hardware");
        let p = report.jobs[1].power_w.expect("opt hardware synthesized");
        assert!(p > 0.0 && p < 10.0);
        assert_eq!(report.cache.hardware_misses, 1);
    }

    #[test]
    fn derive_seed_is_stable_and_salted() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn sweep_spec_round_trips_through_json() {
        let mut spec = SweepSpec::smoke()
            .with_seeds(vec![0, 3, 9_007_199_254_740_991])
            .with_hardware()
            .with_pipeline(
                PipelineConfig::default()
                    .with_router(RouteStrategy::Lookahead { window: 5 })
                    .with_scheduler(ScheduleStrategy::Asap),
            );
        spec.benchmarks.push(BenchmarkSpec {
            bench: Benchmark::Ising,
            scale: BenchScale::Paper,
        });
        // The paper-scale entry needs the paper's grid.
        (spec.grid_rows, spec.grid_cols) = (32, 32);
        let text = spec.to_json_string();
        assert_eq!(SweepSpec::parse(&text), Ok(spec));
        // The default smoke spec too — this is the wire form the serve
        // smoke tests replay against the engine golden.
        let smoke = SweepSpec::smoke();
        assert_eq!(SweepSpec::parse(&smoke.to_json_string()), Ok(smoke));
    }

    #[test]
    fn sweep_spec_from_json_enforces_bounds() {
        let ok = SweepSpec::smoke().to_json_string();
        for (mutation, needle) in [
            (ok.replace("\"seeds\":[0]", "\"seeds\":[]"), "non-empty"),
            (
                ok.replace("\"grid_rows\":4", "\"grid_rows\":70000"),
                "grid out of range",
            ),
            (
                ok.replace("\"groups\":2", "\"groups\":0"),
                "out of range 1..=4096",
            ),
            (ok.replace("\"BV\"", "\"nope\""), "unknown benchmark"),
            (ok.replace("\"greedy\"", "\"magic\""), "unknown router"),
            (ok.replace("\"seeds\":[0]", "\"seeds\":[-1]"), "seeds"),
            // 2^32 × 2^32 sites overflows u64: rejected, never wrapped.
            (
                ok.replace("\"grid_rows\":4", "\"grid_rows\":4294967296")
                    .replace("\"grid_cols\":4", "\"grid_cols\":4294967296"),
                "grid out of range",
            ),
            (
                ok.replace("\"max_qubits\":16", "\"max_qubits\":1099511627776"),
                "`max_qubits` out of range",
            ),
            (
                ok.replace("\"max_qubits\":16", "\"max_qubits\":7"),
                "`max_qubits` out of range",
            ),
        ] {
            let err = SweepSpec::parse(&mutation).expect_err(&mutation);
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        assert!(SweepSpec::parse("{nope").is_err());
    }

    #[test]
    fn sweep_spec_from_json_refuses_benchmarks_larger_than_the_grid() {
        let ok = SweepSpec::smoke().to_json_string();
        assert!(ok.contains("{\"max_qubits\":16}"), "{ok}");
        for (mutation, needle) in [
            (
                ok.replacen("{\"max_qubits\":16}", "\"paper\"", 1),
                "needs 1024 qubits, more than the 4x4 grid has",
            ),
            (
                ok.replace("\"max_qubits\":16", "\"max_qubits\":60000"),
                "needs 60000 qubits",
            ),
            // Add2's smallest instance has 15 qubits, more than 3×3 sites.
            (
                SweepSpec::small_grid(
                    vec![ControllerDesign::ImpossibleMimd.into()],
                    &[Benchmark::Add2],
                    3,
                    3,
                )
                .to_json_string(),
                "benchmark `Add2` needs 15 qubits",
            ),
        ] {
            let err = SweepSpec::parse(&mutation).expect_err(&mutation);
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        // The same budgets parse on a grid that holds them.
        let wide = ok
            .replace("\"max_qubits\":16", "\"max_qubits\":60000")
            .replace("\"grid_rows\":4", "\"grid_rows\":256")
            .replace("\"grid_cols\":4", "\"grid_cols\":256");
        assert!(SweepSpec::parse(&wide).is_ok(), "{wide}");
        assert_eq!(SweepSpec::parse(&ok), Ok(SweepSpec::smoke()));
    }

    #[test]
    fn sweep_spec_from_json_bounds_the_job_count() {
        // Every axis within its own bound, 2^20 jobs in all: accepted.
        let mut spec = SweepSpec::smoke().with_seeds((0..65_536).collect());
        spec.designs = vec![spec.designs[0]; 4];
        spec.benchmarks = vec![spec.benchmarks[0]; 4];
        assert_eq!(SweepSpec::parse(&spec.to_json_string()), Ok(spec.clone()));
        // One more benchmark: 1.25 * 2^20 jobs, refused before any
        // enumeration could allocate for them.
        spec.benchmarks.push(spec.benchmarks[0]);
        let err = SweepSpec::parse(&spec.to_json_string()).unwrap_err();
        assert!(err.contains("1310720 jobs"), "{err}");
    }

    #[test]
    fn smoke_specs_match_the_cli_smoke_modes() {
        // The serve tests rely on these constructors enumerating exactly
        // the jobs the golden files pin.
        let smoke = SweepSpec::smoke();
        assert_eq!(smoke.job_count(), 4);
        assert_eq!((smoke.grid_rows, smoke.grid_cols), (4, 4));
        assert_eq!(smoke.designs[0].design, ControllerDesign::SfqMimdNaive);
        assert_eq!(
            smoke.designs[1].design,
            ControllerDesign::DigiqOpt { bs: 8 }
        );
        let cosim = SweepSpec::cosim_smoke();
        assert_eq!(cosim.job_count(), 4);
        assert_eq!(
            cosim.designs[0].design,
            ControllerDesign::DigiqMin { bs: 2 }
        );
        assert_ne!(smoke.stable_key(), cosim.stable_key());
    }

    #[test]
    fn run_deterministic_matches_cold_cli_bytes_on_a_warm_engine() {
        let spec = SweepSpec::smoke();
        // What the batch CLI prints: a cold engine, golden-pinned bytes.
        let cli = EvalEngine::new(CostModel::default())
            .run(&spec, 2)
            .to_json_string();
        // A long-lived server engine, already warm from earlier requests.
        let engine = EvalEngine::new(CostModel::default());
        engine.run(&spec, 2);
        let served = engine.run_deterministic(&spec, 2);
        assert_eq!(served.to_json_string(), cli);
    }

    #[test]
    fn run_journaled_stops_on_the_stop_flag_and_resumes() {
        let dir = std::env::temp_dir().join(format!(
            "digiq-engine-stop-{}-{:x}",
            std::process::id(),
            SweepSpec::smoke().stable_key()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = SweepSpec::smoke();
        let journal = SweepJournal::open(&dir, spec.stable_key()).unwrap();

        // A pre-flipped stop flag: no job is ever claimed, the run
        // reports interruption, nothing is journaled as complete.
        let engine = EvalEngine::new(CostModel::default());
        let stop = AtomicBool::new(true);
        let ctl = RunControl {
            interrupt_after: None,
            stop: Some(&stop),
        };
        assert_eq!(engine.run_journaled(&spec, 2, &journal, false, ctl), None);

        // Resume with the flag clear: the journal fills in and the
        // merged report is byte-identical to an uninterrupted run.
        let resumed = engine
            .run_journaled(&spec, 2, &journal, true, RunControl::default())
            .expect("uninterrupted resume completes");
        let uninterrupted = EvalEngine::new(CostModel::default()).run(&spec, 2);
        assert_eq!(resumed.to_json_string(), uninterrupted.to_json_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The queue over `benches` × `seeds` at one design point.
    fn queue(benches: &[Benchmark], seeds: usize) -> JobQueue {
        let spec = SweepSpec::small_grid(
            vec![ControllerDesign::DigiqOpt { bs: 4 }.into()],
            benches,
            4,
            4,
        )
        .with_seeds((0..seeds as u64).collect());
        JobQueue::new(spec.jobs())
    }

    fn take(queue: &mut JobQueue) -> Option<usize> {
        queue.take().map(|job| job.index)
    }

    #[test]
    fn queue_passes_over_followers_of_an_in_flight_compile() {
        // Jobs: 0 BV s0, 1 BV s1, 2 QGAN s0, 3 QGAN s1.
        let mut q = queue(&[Benchmark::Bv, Benchmark::Qgan], 2);
        assert_eq!(take(&mut q), Some(0));
        // BV is compiling: its follower waits while QGAN can start.
        assert_eq!(take(&mut q), Some(2));
        // Both compiles in flight and only their followers left: the
        // first pending job goes anyway (it coalesces in the store).
        assert_eq!(take(&mut q), Some(1));
        assert_eq!(take(&mut q), Some(3));
        assert_eq!(take(&mut q), None);
    }

    #[test]
    fn queue_releases_followers_once_a_job_of_the_benchmark_finishes() {
        let mut q = queue(&[Benchmark::Bv, Benchmark::Qgan, Benchmark::Ising], 2);
        assert_eq!(take(&mut q), Some(0));
        assert_eq!(take(&mut q), Some(2));
        let first = q.jobs[0];
        q.done(&first);
        // BV is warm now, so its follower comes before the next compile.
        assert_eq!(take(&mut q), Some(1));
        assert_eq!(take(&mut q), Some(4));
        assert_eq!(take(&mut q), Some(3));
    }

    #[test]
    fn queue_with_one_worker_runs_in_index_order() {
        let mut q = queue(&[Benchmark::Bv, Benchmark::Qgan, Benchmark::Bv], 3);
        let mut order = Vec::new();
        while let Some(job) = q.take() {
            order.push(job.index);
            q.done(&job);
        }
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn queue_shares_one_state_between_duplicate_benchmark_entries() {
        // Jobs: 0 BV, 1 BV (a second entry of the same benchmark), 2 QGAN.
        let mut q = queue(&[Benchmark::Bv, Benchmark::Bv, Benchmark::Qgan], 1);
        assert_eq!(take(&mut q), Some(0));
        assert_eq!(take(&mut q), Some(2), "the duplicate entry waits on BV");
        assert_eq!(take(&mut q), Some(1));
    }
}
