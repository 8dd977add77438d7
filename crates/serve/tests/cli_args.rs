//! The serve binaries read their flags through `digiq_bench::cli`: a
//! malformed or value-less flag exits 2 with an `error:` line naming it,
//! before the daemon binds or the load generator connects.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin args` to completion, or kills it after 60 s: a binary that
/// refuses its flags is done in milliseconds, and one that goes on to
/// real work (or serves forever) must fail the test, not hang it.
fn run_bounded(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll binary").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("collect binary output")
}

#[test]
fn malformed_flags_exit_2_before_any_network_work() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let serve = env!("CARGO_BIN_EXE_serve");
    // Nothing listens on port 1: a run that got as far as connecting
    // would fail there instead, with another status and message.
    for (bin, args, flag) in [
        (
            loadgen,
            &["--addr", "127.0.0.1:1", "--clients", "abc"][..],
            "--clients",
        ),
        (
            loadgen,
            &["--addr", "127.0.0.1:1", "--requests", "-1"],
            "--requests",
        ),
        (loadgen, &["--addr"], "--addr"),
        (serve, &["--addr"], "--addr"),
        (serve, &["--queue-capacity", "many"], "--queue-capacity"),
    ] {
        let out = run_bounded(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error:"), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    }
}
