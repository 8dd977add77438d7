//! In-process guarantees of the distributed sweep machinery: the claim
//! protocol admits exactly one winner per job, abandoned claims expire
//! and get reclaimed, concurrent workers never double-journal a job,
//! and a merge over any shard layout is byte-identical to the serial
//! run. (The cross-*process* versions of these checks — real killed
//! workers included — live in `crates/bench/tests/distributed.rs`,
//! where the `sweep` binary is available.)

use digiq_core::engine::{DistributedConfig, EvalEngine, RunControl, SweepSpec};
use digiq_core::store::{ArtifactStore, JobClaims, SweepJournal};
use sfq_hw::cost::CostModel;
use sfq_hw::json::ToJson;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique temp directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "digiq-dist-{label}-{}-{}",
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

fn worker_cfg(label: &str, offset: usize) -> DistributedConfig {
    let mut cfg = DistributedConfig::new(label);
    cfg.scan_offset = offset;
    cfg.poll = Duration::from_millis(5);
    cfg
}

#[test]
fn claim_race_admits_exactly_one_winner() {
    let dir = TempDir::new("claim-race");
    let ttl = Duration::from_secs(30);
    let n = 8;
    let wins: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let dir = dir.path();
                s.spawn(move || {
                    let claims =
                        JobClaims::open(dir, 1, &format!("w{w}"), ttl).expect("open claims");
                    claims.try_claim(0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        wins.iter().filter(|&&w| w).count(),
        1,
        "exactly one of {n} racing workers may win a claim: {wins:?}"
    );
}

#[test]
fn concurrent_workers_merge_byte_identical_to_serial_without_double_journaling() {
    let dir = TempDir::new("n4");
    let spec = SweepSpec::smoke();
    let serial = EvalEngine::new(CostModel::default())
        .run(&spec, 1)
        .to_json_string();

    let n = 4;
    let jobs = spec.job_count();
    std::thread::scope(|s| {
        for w in 0..n {
            let (dir, spec, serial) = (dir.path(), &spec, serial.as_str());
            s.spawn(move || {
                let engine = EvalEngine::new(CostModel::default());
                let cfg = worker_cfg(&format!("w{w}"), w * jobs / n);
                let report = engine
                    .root_session()
                    .run_distributed(spec, dir, &cfg, RunControl::default())
                    .expect("worker IO")
                    .expect("no stop flag, so the worker runs to completion");
                // Every worker hands back the full merged report.
                assert_eq!(report.to_json_string(), serial);
            });
        }
    });

    let merged = EvalEngine::new(CostModel::default())
        .root_session()
        .merge_distributed(&spec, dir.path())
        .expect("all jobs journaled");
    assert_eq!(merged.to_json_string(), serial);

    // The claim recheck after every win means racing workers never
    // journal the same job twice: across all shards, one record per job.
    let journal_dir = ArtifactStore::journal_dir(dir.path());
    let records = SweepJournal::load_all(&journal_dir, spec.stable_key());
    assert_eq!(
        records.len(),
        jobs,
        "each job must be journaled exactly once across all shards"
    );

    // And every claim was released on the way out.
    let claims_dir = JobClaims::claims_dir(dir.path(), spec.stable_key());
    let leftovers = std::fs::read_dir(&claims_dir)
        .map(|it| it.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "completed workers release their claims");
}

#[test]
fn abandoned_claim_expires_and_survivor_finishes_with_identical_bytes() {
    let dir = TempDir::new("expiry");
    let spec = SweepSpec::smoke();
    let serial = EvalEngine::new(CostModel::default())
        .run(&spec, 1)
        .to_json_string();

    // A "killed" worker: claims job 0 and never heartbeats or journals
    // (its heartbeat thread died with the process).
    let ttl = Duration::from_millis(120);
    let dead = JobClaims::open(dir.path(), spec.stable_key(), "dead", ttl).expect("open claims");
    assert!(dead.try_claim(0), "vacant claim goes to the first worker");

    // A survivor with the same TTL must wait out the expiry, steal the
    // abandoned job, and still produce the serial bytes.
    let engine = EvalEngine::new(CostModel::default());
    let mut cfg = worker_cfg("survivor", 0);
    cfg.claim_ttl = ttl;
    let report = engine
        .root_session()
        .run_distributed(&spec, dir.path(), &cfg, RunControl::default())
        .expect("worker IO")
        .expect("runs to completion");
    assert_eq!(report.to_json_string(), serial);
}

#[test]
fn merge_of_incomplete_sweep_reports_progress() {
    let dir = TempDir::new("incomplete");
    let spec = SweepSpec::smoke();
    let engine = EvalEngine::new(CostModel::default());
    let err = engine
        .root_session()
        .merge_distributed(&spec, dir.path())
        .expect_err("nothing journaled yet");
    assert!(
        err.contains(&format!("0/{} jobs", spec.job_count())),
        "the error names progress: {err}"
    );
}
