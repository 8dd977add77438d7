//! Whole-compile caching and strategy plumbing through the evaluation
//! engine: compile hit/miss accounting (the Fig 9 matrix compiles each
//! benchmark once), per-pass build metrics and their worker-count
//! determinism, serialization round-trips, and end-to-end validity of
//! the alternative routing/scheduling strategies in both evaluation
//! modes.

use digiq_core::design::ControllerDesign;
use digiq_core::engine::{EvalEngine, PassCacheStats, SweepSpec};
use digiq_core::store::ns;
use qcircuit::bench::Benchmark;
use qcircuit::pipeline::{PipelineConfig, RouteStrategy, ScheduleStrategy};
use sfq_hw::cost::CostModel;
use sfq_hw::json::{Json, ToJson};

fn fig9_style_spec() -> SweepSpec {
    SweepSpec::small_grid(
        SweepSpec::fig9_designs(),
        &[Benchmark::Bv, Benchmark::Qgan, Benchmark::Ising],
        6,
        6,
    )
}

/// Across a Fig 9-style design matrix the compile flow is
/// design-independent: each benchmark compiles once (one store entry)
/// and every other design reuses the whole compile.
#[test]
fn fig9_matrix_reuses_design_independent_stages() {
    let engine = EvalEngine::new(CostModel::default());
    let spec = fig9_style_spec();
    let report = engine.run(&spec, 2);
    assert_eq!(report.jobs.len(), 5 * 3);

    // Whole-compile accounting is what the report serializes.
    assert_eq!(report.cache.compile_misses, 3);
    assert_eq!(report.cache.compile_hits, 12);
    let compile = engine.store_stats();
    let compile = compile.get(ns::COMPILE).unwrap();
    assert_eq!((compile.builds, compile.hits), (3, 12));
    assert_eq!(engine.store_stats().pass_builds(), 3);

    let stats = engine.pass_cache_stats();
    assert_eq!(
        stats
            .passes
            .iter()
            .map(|p| p.pass.as_str())
            .collect::<Vec<_>>(),
        ["lower", "lower_swaps", "route", "schedule"],
        "label-sorted per-pass build metrics"
    );
    // The first lowering saw each benchmark's logical circuit exactly
    // once: one pipeline run per benchmark, none per design.
    let logical: u64 = report.jobs[..3]
        .iter()
        .map(|j| j.report.logical_gates as u64)
        .sum();
    assert_eq!(stats.get("lower").unwrap().gates_in, logical);
    // Routing produced SWAPs and scheduling produced slots, visible in
    // the aggregated build metrics.
    assert!(stats.get("route").unwrap().swaps_added > 0);
    let slots: u64 = report.jobs[..3].iter().map(|j| j.report.slots as u64).sum();
    assert_eq!(stats.get("schedule").unwrap().slots_out, slots);
    assert!(stats.get("lower").unwrap().gates_out >= stats.get("lower").unwrap().gates_in);
}

/// Per-pass build metrics (all but wall time) are part of the
/// determinism contract: any worker count produces the same totals on a
/// fresh engine.
#[test]
fn pass_counters_are_worker_count_invariant() {
    let spec = fig9_style_spec();
    let counts = |workers: usize| {
        let engine = EvalEngine::new(CostModel::default());
        let report = engine.run(&spec, workers);
        let stats = engine.pass_cache_stats();
        (
            report.to_json_string(),
            stats
                .passes
                .iter()
                .map(|p| {
                    (
                        p.pass.clone(),
                        p.gates_in,
                        p.gates_out,
                        p.swaps_added,
                        p.slots_out,
                    )
                })
                .collect::<Vec<_>>(),
        )
    };
    let (report1, stats1) = counts(1);
    for workers in [2, 5] {
        let (report_n, stats_n) = counts(workers);
        assert_eq!(report1, report_n, "report must not depend on workers");
        assert_eq!(stats1, stats_n, "pass counters must not depend on workers");
    }
}

#[test]
fn pass_cache_stats_roundtrip_through_json() {
    let engine = EvalEngine::new(CostModel::default());
    engine.run(&fig9_style_spec(), 2);
    let stats = engine.pass_cache_stats();
    assert!(!stats.passes.is_empty());
    let parsed = PassCacheStats::parse(&stats.to_json_string()).unwrap();
    assert_eq!(parsed, stats);
    assert!(PassCacheStats::parse("{}").is_err());
    assert!(PassCacheStats::parse("{\"passes\":[{}]}").is_err());
}

/// `sweep --json` appends the per-pass accounting as an extra top-level
/// field; the plain report reader must keep parsing such documents.
#[test]
fn sweep_report_parse_ignores_appended_pass_stats() {
    use digiq_core::engine::SweepReport;
    let engine = EvalEngine::new(CostModel::default());
    let spec = SweepSpec::small_grid(
        vec![ControllerDesign::DigiqOpt { bs: 8 }.into()],
        &[Benchmark::Bv],
        4,
        4,
    );
    let report = engine.run(&spec, 1);
    let mut j = report.to_json();
    if let Json::Obj(fields) = &mut j {
        fields.push((
            "pass_cache".to_string(),
            engine.pass_cache_stats().to_json(),
        ));
    } else {
        panic!("sweep reports serialize as objects");
    }
    assert_eq!(SweepReport::parse(&j.render()), Ok(report));
}

/// Both alternative strategies produce valid, executable schedules end to
/// end, and the analytic ↔ cycle-accurate lockstep holds for every
/// pipeline configuration (the two engines consume the identical compiled
/// artifact).
#[test]
fn alternative_strategies_evaluate_and_cosimulate_exactly() {
    for cfg in [
        PipelineConfig::default().with_scheduler(ScheduleStrategy::Asap),
        PipelineConfig::default().with_router(RouteStrategy::Lookahead { window: 16 }),
        PipelineConfig::default()
            .with_router(RouteStrategy::Lookahead { window: 4 })
            .with_scheduler(ScheduleStrategy::Asap),
    ] {
        let engine = EvalEngine::new(CostModel::default());
        let spec = SweepSpec::small_grid(
            vec![
                ControllerDesign::ImpossibleMimd.into(),
                ControllerDesign::DigiqOpt { bs: 8 }.into(),
            ],
            &[Benchmark::Bv, Benchmark::Ising],
            4,
            4,
        )
        .with_pipeline(cfg);

        let report = engine.run(&spec, 2);
        for job in &report.jobs {
            assert!(job.report.normalized_time >= 1.0, "{cfg:?}");
            assert!(job.report.exec.total_ns > 0.0);
        }

        let cosim = engine.run_cosim(&spec, 2);
        assert!(cosim.all_exact(1e-9), "{cfg:?}: {:?}", cosim.worst_diff());
    }
}

/// The ASAP scheduler genuinely changes the workload shape: fewer slots
/// than the crosstalk-aware schedule on an interference-heavy benchmark.
#[test]
fn asap_schedules_fewer_slots_than_crosstalk_aware() {
    let spec = SweepSpec::small_grid(
        vec![ControllerDesign::DigiqOpt { bs: 8 }.into()],
        &[Benchmark::Ising],
        4,
        4,
    );
    let aware = EvalEngine::new(CostModel::default()).run(&spec, 1);
    let asap = EvalEngine::new(CostModel::default()).run(
        &spec.with_pipeline(PipelineConfig::default().with_scheduler(ScheduleStrategy::Asap)),
        1,
    );
    assert!(
        asap.jobs[0].report.slots < aware.jobs[0].report.slots,
        "asap {} vs aware {}",
        asap.jobs[0].report.slots,
        aware.jobs[0].report.slots
    );
}

/// A warm engine re-running the same spec rebuilds nothing: every
/// circuit and compile hits, the results are those of the cold run on
/// any worker count, and the per-pass build metrics stay exactly as they
/// were.
#[test]
fn warm_engine_has_zero_stage_misses_on_rerun() {
    let engine = EvalEngine::new(CostModel::default());
    let spec = fig9_style_spec();
    let cold = engine.run(&spec, 2);
    assert!(cold.cache.compile_misses > 0);
    let (before, cache_before) = (engine.pass_cache_stats(), engine.cache_stats());
    let warm = engine.run(&spec, 3);
    let (after, cache_after) = (engine.pass_cache_stats(), engine.cache_stats());
    assert_eq!(cold.jobs, warm.jobs, "cache hits must not change results");
    assert_eq!(warm.cache.circuit_misses, 0);
    assert_eq!(warm.cache.compile_misses, 0);
    assert_eq!(warm.cache.total_misses(), 0);
    assert!(warm.cache.compile_hits > 0 && warm.cache.total_hits() > 0);
    assert_eq!(cache_after.compile_misses, cache_before.compile_misses);
    assert_eq!(cache_after.compile_misses, cold.cache.compile_misses);
    assert_eq!(cache_after.compile_hits, cache_before.compile_hits + 15);
    assert_eq!(after, before, "a warm rerun must not run any pass");
    assert_eq!(after.passes.len(), 4);
}
