//! Cross-process distributed-sweep checks against the real `sweep`
//! binary: N=4 single-thread worker processes sharing one cache dir
//! merge byte-identical to the serial run and to the committed engine
//! golden; a worker killed while holding a claim leaves a sweep the
//! survivors finish (stale-claim expiry) with the same bytes; and two
//! workers racing the same claims never double-journal a job. A cache
//! dir vandalized with deeply nested JSON reads as misses, never as a
//! crash. The in-process claim-protocol tests live in
//! `crates/core/tests/distributed.rs`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique temp directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "digiq-dist-cli-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn path_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sweep_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(args).stderr(Stdio::null());
    cmd
}

fn sweep_stdout(args: &[&str]) -> String {
    let out = sweep_cmd(args).output().expect("run sweep");
    assert!(out.status.success(), "sweep {args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn serial_smoke() -> String {
    sweep_stdout(&["--smoke"])
}

fn golden_smoke() -> String {
    // CARGO_MANIFEST_DIR = crates/bench; the golden lives at the repo root.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/engine_smoke.json");
    std::fs::read_to_string(&path).expect("read engine golden")
}

/// One record per job across every journal shard of the smoke spec.
fn journal_lines(cache_dir: &Path) -> usize {
    let journal_dir = cache_dir.join("v1/journal");
    let mut lines = 0;
    for entry in std::fs::read_dir(&journal_dir).expect("journal dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            lines += std::fs::read_to_string(&path)
                .expect("read shard")
                .lines()
                .count();
        }
    }
    lines
}

#[test]
fn four_worker_processes_merge_byte_identical_to_serial_and_golden() {
    let dir = TempDir::new("n4");
    let merged = sweep_stdout(&[
        "--smoke",
        "--distributed",
        "--n-workers",
        "4",
        "--cache-dir",
        dir.path_str(),
    ]);
    let serial = serial_smoke();
    assert_eq!(merged, serial, "merged report differs from the serial run");
    assert_eq!(
        merged.trim_end(),
        golden_smoke().trim_end(),
        "merged report differs from tests/golden/engine_smoke.json"
    );

    // A standalone merge over the same shards reproduces the bytes.
    let remerged = sweep_stdout(&["--smoke", "--merge", "--cache-dir", dir.path_str()]);
    assert_eq!(remerged, serial);
}

#[test]
fn killed_worker_claims_expire_and_survivors_finish_with_identical_bytes() {
    let dir = TempDir::new("kill");
    // A doomed worker that grabs a claim and sits on it (30 s hold),
    // heartbeating all the while. SIGKILL takes the heartbeat thread
    // with it, so the claim goes stale after the short TTL.
    let mut doomed = sweep_cmd(&[
        "--smoke",
        "--worker-id",
        "0",
        "--n-workers",
        "1",
        "--claim-ttl-ms",
        "400",
        "--dist-hold-ms",
        "30000",
        "--cache-dir",
        dir.path_str(),
    ])
    .spawn()
    .expect("spawn doomed worker");
    // Give it time to claim its first job, then kill it mid-hold.
    std::thread::sleep(std::time::Duration::from_millis(600));
    doomed.kill().expect("kill worker");
    let _ = doomed.wait();

    // Survivors with the same TTL wait out the expiry, reclaim the
    // abandoned job, and the merged report still matches the serial run.
    let merged = sweep_stdout(&[
        "--smoke",
        "--distributed",
        "--n-workers",
        "2",
        "--claim-ttl-ms",
        "400",
        "--cache-dir",
        dir.path_str(),
    ]);
    assert_eq!(
        merged,
        serial_smoke(),
        "post-kill merge differs from the serial run"
    );
}

#[test]
fn racing_workers_never_double_journal_a_job() {
    let dir = TempDir::new("race");
    // Two workers with the same scan offset race every claim.
    let workers: Vec<_> = (0..2)
        .map(|id| {
            sweep_cmd(&[
                "--smoke",
                "--worker-id",
                &id.to_string(),
                "--n-workers",
                "1",
                "--cache-dir",
                dir.path_str(),
            ])
            .spawn()
            .expect("spawn racing worker")
        })
        .collect();
    for mut w in workers {
        assert!(w.wait().expect("wait worker").success());
    }
    // The smoke spec has 4 jobs; the claim protocol must have admitted
    // exactly one journal record for each across all shards.
    assert_eq!(journal_lines(dir.path()), 4, "a job was double-journaled");
    assert_eq!(
        sweep_stdout(&["--smoke", "--merge", "--cache-dir", dir.path_str()]),
        serial_smoke()
    );
}

/// Every file under `root`, recursively.
fn files_under(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

#[test]
fn deeply_nested_artifacts_and_journal_lines_read_as_misses() {
    let dir = TempDir::new("deep");
    let args = ["--smoke", "--resume", "--cache-dir", dir.path_str()];
    assert_eq!(sweep_stdout(&args).trim_end(), golden_smoke().trim_end());

    // Replace every persisted artifact with, and every journal line by a
    // record holding, 100,000 nested arrays: unbounded recursive descent
    // overflows the stack on these and aborts the sweep.
    let deep = "[".repeat(100_000);
    let (mut artifacts, mut lines) = (0, 0);
    for path in files_under(&dir.path().join("v1")) {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => {
                std::fs::write(&path, &deep).unwrap();
                artifacts += 1;
            }
            Some("jsonl") => {
                let text = std::fs::read_to_string(&path).unwrap();
                let vandalized: String = (0..text.lines().count())
                    .map(|index| format!("{{\"index\":{index},\"record\":{deep}\n"))
                    .collect();
                lines += text.lines().count();
                std::fs::write(&path, vandalized).unwrap();
            }
            _ => {}
        }
    }
    assert!(artifacts > 0, "expected persisted artifacts");
    assert_eq!(lines, 4, "expected one journal line per smoke job");

    // Every vandalized file is a miss: the jobs re-run, the artifacts are
    // rebuilt, and the bytes still match the golden.
    assert_eq!(sweep_stdout(&args).trim_end(), golden_smoke().trim_end());
}
