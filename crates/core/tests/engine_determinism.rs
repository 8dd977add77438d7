//! Determinism guarantees of the batched evaluation engine: worker count
//! never changes the serialized report, and cache hits never change
//! results versus a cold run.

use digiq_core::design::ControllerDesign;
use digiq_core::engine::{
    derive_seed, BenchScale, BenchmarkSpec, DesignPoint, EvalEngine, RunControl, SweepReport,
    SweepSpec,
};
use digiq_core::store::{ns, StoreConfig, SweepJournal};
use qcircuit::bench::Benchmark;
use qcircuit::topology::Grid;
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;

/// A sweep exercising every executor path (per-qubit-timeline designs,
/// the decomposing designs with their shared sequence database, the
/// SIMD delay-contention design, and the unbuildable baseline).
fn spec(seeds: Vec<u64>) -> SweepSpec {
    let mut designs = SweepSpec::table_one_designs();
    designs.push(ControllerDesign::ImpossibleMimd.into());
    SweepSpec::small_grid(designs, &[Benchmark::Bv, Benchmark::Qgan], 6, 6).with_seeds(seeds)
}

#[test]
fn one_worker_and_n_workers_serialize_byte_identically() {
    // Property-style: several spec seeds × several worker counts, each on
    // a fresh (cold) engine, all byte-identical to the 1-worker run.
    for base_seed in [0xD161_5EED_u64, 1, 0xFFFF_FFFF_0000_0001] {
        let mut s = spec(vec![3, 4]);
        s.base_seed = base_seed;
        let reference = EvalEngine::new(CostModel::default())
            .run(&s, 1)
            .to_json_string();
        for workers in [2, 4, 7] {
            let parallel = EvalEngine::new(CostModel::default())
                .run(&s, workers)
                .to_json_string();
            assert_eq!(
                reference, parallel,
                "seed {base_seed:#x}: {workers} workers diverged from 1 worker"
            );
        }
        // The serialized report survives a parse round-trip unchanged.
        let parsed = SweepReport::parse(&reference).expect("engine output parses");
        assert_eq!(parsed.to_json_string(), reference);
    }
}

#[test]
fn cache_hits_never_change_results_versus_a_cold_run() {
    let s = spec(vec![9]);
    let engine = EvalEngine::new(CostModel::default());
    let cold = engine.run(&s, 2);
    assert!(
        cold.cache.total_misses() > 0,
        "cold run must build artifacts"
    );
    // Same engine, everything cached — results identical, zero builds.
    for workers in [1, 3] {
        let warm = engine.run(&s, workers);
        assert_eq!(cold.jobs, warm.jobs, "warm {workers}-worker run diverged");
        assert_eq!(warm.cache.total_misses(), 0, "warm run rebuilt an artifact");
        assert!(warm.cache.total_hits() > 0);
    }
    // And a fresh engine (cold again) still agrees on the results.
    let cold2 = EvalEngine::new(CostModel::default()).run(&s, 4);
    assert_eq!(cold.jobs, cold2.jobs);
    assert_eq!(
        cold.cache, cold2.cache,
        "cache accounting must be deterministic"
    );
}

#[test]
fn seed_axis_changes_results_but_structure_is_stable() {
    // The derived per-job seeds really flow into the executor: drift
    // seeds re-draw DigiQ_min's per-gate decomposition depths, but the
    // shared compiled artifact (slots, swaps) is identical across seeds.
    let s = SweepSpec::small_grid(
        vec![ControllerDesign::DigiqMin { bs: 2 }.into()],
        &[Benchmark::Qgan],
        6,
        6,
    )
    .with_seeds(vec![0, 1, 2, 3]);
    let report = EvalEngine::new(CostModel::default()).run(&s, 2);
    assert_eq!(report.jobs.len(), 4);
    let slots0 = report.jobs[0].report.slots;
    assert!(report.jobs.iter().all(|j| j.report.slots == slots0));
    // total_ns is a max over per-qubit timelines and may saturate at the
    // deepest-possible qubit; the summed cycle count is the observable
    // that must move when seeds re-draw per-gate depths.
    let distinct: std::collections::HashSet<u64> = report
        .jobs
        .iter()
        .map(|j| j.report.exec.oneq_cycles)
        .collect();
    assert!(
        distinct.len() > 1,
        "drift seeds should re-draw DigiQ_min decomposition depths"
    );
}

#[test]
fn paper_and_small_scales_cache_independently() {
    let engine = EvalEngine::new(CostModel::default());
    let small = engine.benchmark_circuit(
        BenchmarkSpec {
            bench: Benchmark::Sqrt10,
            scale: BenchScale::Small { max_qubits: 36 },
        },
        7,
    );
    let paper = engine.benchmark_circuit(
        BenchmarkSpec {
            bench: Benchmark::Sqrt10,
            scale: BenchScale::Paper,
        },
        7,
    );
    assert_ne!(small.cache_key(), paper.cache_key());
    assert_eq!(engine.cache_stats().circuit_misses, 2);
    // Same key → same Arc, no rebuild.
    let again = engine.benchmark_circuit(
        BenchmarkSpec {
            bench: Benchmark::Sqrt10,
            scale: BenchScale::Small { max_qubits: 36 },
        },
        7,
    );
    assert!(std::sync::Arc::ptr_eq(&small, &again));
    assert_eq!(engine.cache_stats().circuit_misses, 2);
}

#[test]
fn compile_aware_dispatch_keeps_bytes_and_cache_stats_at_any_worker_count() {
    // Several benchmarks (one listed twice) and seeds, so with more than
    // one worker the queue hands out jobs out of index order.
    let mut s = SweepSpec::small_grid(
        vec![
            ControllerDesign::DigiqOpt { bs: 2 }.into(),
            ControllerDesign::DigiqMin { bs: 2 }.into(),
        ],
        &[
            Benchmark::Bv,
            Benchmark::Qgan,
            Benchmark::Bv,
            Benchmark::Ising,
        ],
        5,
        5,
    )
    .with_seeds(vec![1, 2, 3]);
    s.base_seed = 0xD15C;
    let reference = EvalEngine::new(CostModel::default()).run(&s, 1);
    for workers in [2, 3, 8] {
        let report = EvalEngine::new(CostModel::default()).run(&s, workers);
        assert_eq!(
            report.to_json_string(),
            reference.to_json_string(),
            "{workers} workers"
        );
        assert_eq!(report.cache, reference.cache, "{workers} workers");
    }

    // The journaled path: stop after a few fresh jobs, then resume.
    for (workers, stop_after) in [(1, 5), (2, 7), (3, 1), (8, 10)] {
        let dir = std::env::temp_dir().join(format!(
            "digiq-dispatch-{}-{workers}-{stop_after}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = SweepJournal::open(&dir, s.stable_key()).unwrap();
        let engine = EvalEngine::new(CostModel::default());
        let stop = RunControl {
            interrupt_after: Some(stop_after),
            stop: None,
        };
        assert_eq!(
            engine.run_journaled(&s, workers, &journal, false, stop),
            None
        );
        assert_eq!(journal.load().len(), stop_after, "{workers} workers");
        let resumed = EvalEngine::new(CostModel::default())
            .run_journaled(&s, workers, &journal, true, RunControl::default())
            .expect("the resumed sweep completes");
        assert_eq!(
            resumed.to_json_string(),
            reference.to_json_string(),
            "{workers} workers, stopped after {stop_after}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn opt_bs_siblings_share_one_entry_and_keep_the_bytes() {
    // DigiQ_opt at BS 16, 1, 2 and 1 again at G = 2 are siblings; BS 4 at
    // G = 1 is alone at its group count, and DigiQ_min is no sibling.
    // BS 1 and 2 serialize, so each sibling's report is its own.
    let opt = |bs, groups| DesignPoint {
        design: ControllerDesign::DigiqOpt { bs },
        groups,
    };
    let mut s = SweepSpec::small_grid(
        vec![
            opt(16, 2),
            ControllerDesign::DigiqMin { bs: 2 }.into(),
            opt(1, 2),
            opt(2, 2),
            opt(1, 2),
            opt(4, 1),
        ],
        &[Benchmark::Bv, Benchmark::Qgan, Benchmark::Ising],
        5,
        5,
    )
    .with_seeds(vec![1, 2]);
    s.base_seed = 0x5EB5;

    // Every record equals the one `evaluate_circuit` gives the job alone.
    let grid = Grid::new(s.grid_rows, s.grid_cols);
    let alone = EvalEngine::new(CostModel::default());
    let reference = EvalEngine::new(CostModel::default()).run(&s, 1);
    for (job, record) in s.jobs().iter().zip(&reference.jobs) {
        let circuit = alone.benchmark_circuit(job.bench, s.base_seed);
        let want = alone.evaluate_circuit(
            job.bench.bench.name(),
            &circuit,
            &grid,
            &s.pipeline,
            job.point,
            derive_seed(s.base_seed, job.seed),
        );
        assert_eq!(
            record.report.to_json_string(),
            want.to_json_string(),
            "job {}",
            job.index
        );
    }
    assert_eq!(reference.cache, EvalEngine::cold_cache_stats(&s));

    for workers in [1, 2, 3, 8] {
        let engine = EvalEngine::new(CostModel::default());
        let report = engine.run(&s, workers);
        assert_eq!(
            report.to_json_string(),
            reference.to_json_string(),
            "{workers} workers"
        );
        assert_eq!(report.cache, reference.cache, "{workers} workers");
        // One entry per (benchmark, seed): 4 sibling jobs each, 1 build.
        let siblings = engine.store().namespace_stats(ns::OPT_SIBLINGS);
        assert_eq!(
            (siblings.builds, siblings.misses, siblings.hits),
            (6, 6, 18),
            "{workers} workers"
        );
    }

    // A store bounded below the run's working set evicts mid-run; the
    // rebuilt entries give the same bytes.
    for workers in [1, 3] {
        let engine = EvalEngine::with_store_config(
            CostModel::default(),
            StoreConfig {
                capacity: Some(3),
                cache_dir: None,
            },
        );
        let report = engine.run_deterministic(&s, workers);
        assert_eq!(
            report.to_json_string(),
            reference.to_json_string(),
            "bounded store, {workers} workers"
        );
        let evicted = engine.store().namespace_stats(ns::OPT_SIBLINGS).evictions;
        assert!(evicted > 0, "the bounded store evicts sibling entries");
    }
}
