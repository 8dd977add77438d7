//! The artifact store's cross-process guarantees: disk persistence with
//! corruption tolerance, warm-started sweeps that rebuild nothing and
//! serialize byte-identically, capacity-bounded stores whose evictions
//! never change results, honest cold-run cache accounting, and resumable
//! journaled sweeps that merge byte-identically with uninterrupted runs.

use digiq_core::design::ControllerDesign;
use digiq_core::engine::{EvalEngine, RunControl, SweepSpec};
use digiq_core::store::{
    ns, Artifact, ArtifactStore, StoreConfig, SweepJournal, DISK_FORMAT_VERSION,
};
use qcircuit::bench::Benchmark;
use qcircuit::pipeline::{PipelineConfig, ScheduleStrategy};
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique temp directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "digiq-store-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn disk_store(dir: &TempDir) -> ArtifactStore {
    ArtifactStore::with_config(StoreConfig {
        capacity: None,
        cache_dir: Some(dir.path().to_path_buf()),
    })
}

fn smoke_spec() -> SweepSpec {
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

/// A sweep exercising every cache namespace: hardware synthesis, the
/// decomposing designs (sequence databases + length distributions), two
/// seeds, and a duplicate design point.
fn full_coverage_spec() -> SweepSpec {
    let mut designs = SweepSpec::table_one_designs();
    designs.push(ControllerDesign::ImpossibleMimd.into());
    designs.push(ControllerDesign::DigiqOpt { bs: 8 }.into()); // duplicate
    SweepSpec::small_grid(designs, &[Benchmark::Bv, Benchmark::Ising], 4, 4)
        .with_seeds(vec![3, 9])
        .with_hardware()
}

#[test]
fn artifacts_persist_across_store_instances() {
    let dir = TempDir::new("persist");
    let spec = smoke_spec();

    let cold = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
    let cold_report = cold.run(&spec, 2);
    let cold_stats = cold.store_stats();
    assert!(cold_stats.pass_builds() > 0, "cold run compiles");
    assert_eq!(cold_stats.totals().2, 0, "nothing on disk yet");

    // A fresh engine over a fresh store on the same directory: every
    // persistent artifact loads from disk, zero pass builds, and the
    // serialized report — cache accounting included — is byte-identical.
    let warm = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
    let warm_report = warm.run(&spec, 2);
    assert_eq!(warm_report.to_json_string(), cold_report.to_json_string());
    let warm_stats = warm.store_stats();
    assert_eq!(warm_stats.pass_builds(), 0, "compiles all hit the disk");
    assert_eq!(
        warm_stats.get(ns::BASELINE).unwrap().builds,
        0,
        "baselines hit the disk too"
    );
    assert!(warm_stats.totals().2 > 0, "disk hits recorded");

    // The co-simulation mode persists as well.
    let cold_cosim = cold.run_cosim(&spec, 2);
    let warm2 = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
    let warm_cosim = warm2.run_cosim(&spec, 1);
    assert_eq!(warm_cosim.to_json_string(), cold_cosim.to_json_string());
    assert_eq!(
        warm2.store_stats().get(ns::COSIM).unwrap().builds,
        0,
        "co-simulations loaded from disk"
    );
}

#[test]
fn corrupt_and_truncated_disk_files_are_rebuilt() {
    let dir = TempDir::new("corrupt");
    // Three benchmarks: one compile file per damage mode below.
    let spec = SweepSpec::small_grid(
        vec![ControllerDesign::DigiqOpt { bs: 8 }.into()],
        &[Benchmark::Bv, Benchmark::Qgan, Benchmark::Ising],
        4,
        4,
    );
    EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir))).run(&spec, 1);

    // Vandalize every persisted compile file a different way.
    let compile_root = dir.path().join(DISK_FORMAT_VERSION).join(ns::COMPILE);
    let mut damaged = 0;
    for entry in walk(&compile_root) {
        match damaged % 3 {
            0 => std::fs::write(&entry, "{ not json").unwrap(),
            1 => std::fs::write(&entry, "{\"circuit\":null}").unwrap(),
            _ => std::fs::write(&entry, "").unwrap(),
        }
        damaged += 1;
    }
    assert_eq!(damaged, 3, "expected one persisted compile per benchmark");

    let engine = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
    let report = engine.run(&spec, 2);
    let fresh = EvalEngine::new(CostModel::default()).run(&spec, 2);
    assert_eq!(
        report.to_json_string(),
        fresh.to_json_string(),
        "corrupt files must be rebuilt, not trusted"
    );
    let stats = engine.store_stats();
    assert_eq!(stats.pass_builds() as usize, damaged, "every file rebuilt");

    // The rebuilt files are valid again: one more engine warm-starts.
    let warm = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
    warm.run(&spec, 1);
    assert_eq!(warm.store_stats().pass_builds(), 0);
}

/// The one compile entry per (circuit, layout, grid, pipeline config)
/// never aliases two configurations: two pipelines sharing one cache
/// dir each reproduce their in-memory bytes, and each leaves its own
/// compile file per benchmark.
#[test]
fn pipeline_configs_sharing_a_cache_dir_never_alias() {
    let dir = TempDir::new("configs");
    let default = smoke_spec();
    let asap = smoke_spec()
        .with_pipeline(PipelineConfig::default().with_scheduler(ScheduleStrategy::Asap));
    for _ in 0..2 {
        for spec in [&default, &asap] {
            let disk = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
            let memory = EvalEngine::new(CostModel::default());
            assert_eq!(
                disk.run(spec, 2).to_json_string(),
                memory.run(spec, 2).to_json_string(),
                "{:?}",
                spec.pipeline
            );
        }
    }
    let root = dir.path().join(DISK_FORMAT_VERSION);
    assert_eq!(
        walk(&root.join(ns::COMPILE)).len(),
        2 * 2,
        "one compile file per (benchmark, config)"
    );
    assert!(!root.join("stage").exists(), "no per-stage entries");
}

fn walk(root: &std::path::Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return files;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(walk(&path));
        } else {
            files.push(path);
        }
    }
    files
}

#[test]
fn cold_cache_stats_match_live_accounting() {
    for spec in [smoke_spec(), full_coverage_spec()] {
        let engine = EvalEngine::new(CostModel::default());
        let live = engine.run(&spec, 2);
        assert_eq!(
            EvalEngine::cold_cache_stats(&spec),
            live.cache,
            "reconstructed accounting must match a live cold run"
        );
    }
}

#[test]
fn capped_store_keeps_reports_byte_identical_and_counts_evictions() {
    let spec = smoke_spec();
    let unbounded = EvalEngine::new(CostModel::default()).run(&spec, 2);

    // A store capped far below the working set (6 artifacts in the
    // smoke sweep) still produces the identical rows — evictions only
    // cost rebuilds — and the eviction counters are visible.
    for capacity in [1, 3] {
        let engine = EvalEngine::with_store_config(
            CostModel::default(),
            StoreConfig {
                capacity: Some(capacity),
                cache_dir: None,
            },
        );
        let capped = engine.run(&spec, 2);
        assert_eq!(capped.jobs, unbounded.jobs, "capacity {capacity}");
        let stats = engine.store_stats();
        assert!(engine.store().resident() <= capacity);
        let evictions = stats.totals().4;
        assert!(evictions > 0, "capacity {capacity} must evict");
        let rebuilds = stats.totals().3;
        assert!(
            rebuilds > unbounded.cache.total_misses(),
            "evictions cost rebuilds ({rebuilds})"
        );
    }
}

/// Run controls that stop a journaled sweep after `n` fresh jobs.
fn interrupt_after(n: usize) -> RunControl<'static> {
    RunControl {
        interrupt_after: Some(n),
        stop: None,
    }
}

#[test]
fn journaled_sweep_resumes_byte_identically() {
    let spec = full_coverage_spec();
    let workers = 2;

    // Reference: an uninterrupted journaled run on a fresh dir.
    let dir_a = TempDir::new("journal-a");
    let engine_a = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir_a)));
    let journal_a =
        SweepJournal::open(&ArtifactStore::journal_dir(dir_a.path()), spec.stable_key()).unwrap();
    let uninterrupted = engine_a
        .run_journaled(&spec, workers, &journal_a, true, RunControl::default())
        .expect("uninterrupted run completes");

    // It also matches a plain (non-journaled) run: same rows, and the
    // journaled cache accounting is the deterministic cold accounting.
    let plain = EvalEngine::new(CostModel::default()).run(&spec, workers);
    assert_eq!(uninterrupted.to_json_string(), plain.to_json_string());

    // Interrupt after 3 jobs, then resume with fresh processes.
    let dir_b = TempDir::new("journal-b");
    let journal_dir = ArtifactStore::journal_dir(dir_b.path());
    {
        let engine = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir_b)));
        let journal = SweepJournal::open(&journal_dir, spec.stable_key()).unwrap();
        assert!(
            engine
                .run_journaled(&spec, workers, &journal, true, interrupt_after(3))
                .is_none(),
            "interrupted run returns no report"
        );
        assert_eq!(journal.load().len(), 3, "three jobs journaled");
    }
    let engine = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir_b)));
    let journal = SweepJournal::open(&journal_dir, spec.stable_key()).unwrap();
    let resumed = engine
        .run_journaled(&spec, workers, &journal, true, RunControl::default())
        .expect("resumed run completes");
    assert_eq!(
        resumed.to_json_string(),
        uninterrupted.to_json_string(),
        "resumed sweep must be byte-identical to an uninterrupted one"
    );
    // The resumed run really skipped the journaled jobs.
    assert_eq!(
        engine
            .store_stats()
            .get(ns::CIRCUIT)
            .map_or(0, |n| n.hits + n.misses),
        (spec.job_count() - 3) as u64,
        "only the pending jobs re-ran"
    );
}

#[test]
fn journal_tolerates_corrupt_lines_and_foreign_specs() {
    let dir = TempDir::new("journal-corrupt");
    let spec = smoke_spec();
    let journal_dir = ArtifactStore::journal_dir(dir.path());
    let journal = SweepJournal::open(&journal_dir, spec.stable_key()).unwrap();

    // Simulate a crash-torn line plus assorted garbage.
    std::fs::write(
        journal.path(),
        "{\"index\":0,\"record\":{\"trunca\n{\"index\":9999,\"record\":{}}\n",
    )
    .unwrap();
    journal.append(1, &sfq_hw::json::Json::obj([("bogus", true.to_json())]));
    // The torn line is skipped, the out-of-range index is dropped by the
    // engine, and only the syntactically valid lines load.
    assert_eq!(journal.load().len(), 2, "torn line skipped");

    // A bogus record parses as JSON but not as a job record: the resumed
    // run re-runs that job instead of trusting it.
    let engine = EvalEngine::with_store(CostModel::default(), Arc::new(disk_store(&dir)));
    let report = engine
        .run_journaled(&spec, 1, &journal, true, RunControl::default())
        .unwrap();
    let reference = EvalEngine::new(CostModel::default()).run(&spec, 1);
    assert_eq!(report.to_json_string(), reference.to_json_string());

    // A different spec gets a different journal file entirely.
    let other = full_coverage_spec();
    assert_ne!(other.stable_key(), spec.stable_key());
    let other_journal = SweepJournal::open(&journal_dir, other.stable_key()).unwrap();
    assert_ne!(other_journal.path(), journal.path());
    assert!(other_journal.load().is_empty());
}

#[test]
fn exec_and_cosim_artifacts_roundtrip_bit_exactly() {
    // The persistence contract of the report artifacts: decode(encode(x))
    // is exactly x, so warm-started reports serialize byte-identically.
    let spec = smoke_spec();
    let engine = EvalEngine::new(CostModel::default());
    let report = engine.run(&spec, 1);
    for job in &report.jobs {
        let exec = &job.report.exec;
        let decoded = digiq_core::exec::ExecReport::decode(&exec.encode()).unwrap();
        assert_eq!(&decoded, exec);
        assert_eq!(decoded.to_json_string(), exec.to_json_string());
    }
    let cosim = engine.run_cosim(&spec, 1);
    for job in &cosim.jobs {
        let decoded = digiq_core::cosim::CosimReport::decode(&job.cosim.encode()).unwrap();
        assert_eq!(&decoded, &job.cosim);
        assert_eq!(decoded.to_json_string(), job.cosim.to_json_string());
    }
}
