//! `digiq_bench::cli::CommonArgs` contract tests: the accepted flag
//! family, bad-value rejection (exit code 2 from the real binary), and
//! round-tripping of the router/scheduler strategy selections.

use digiq_bench::cli::CommonArgs;
use qcircuit::pipeline::{PipelineConfig, RouteStrategy, ScheduleStrategy};
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

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn the_full_flag_family_parses() {
    let a = CommonArgs::from_args(
        &argv(&[
            "--small",
            "--full",
            "--json",
            "--seeds",
            "5",
            "--workers",
            "7",
            "--router",
            "lookahead",
            "--scheduler",
            "asap",
            "--cache-dir",
            "/tmp/x",
            "--resume",
            "--store-capacity",
            "9",
        ]),
        &[],
        1,
    )
    .unwrap();
    assert!(a.small && a.full && a.json && a.resume && !a.smoke);
    assert_eq!((a.seeds, a.workers), (5, 7));
    assert_eq!(a.pipeline.router, RouteStrategy::Lookahead { window: 16 });
    assert_eq!(a.pipeline.scheduler, ScheduleStrategy::Asap);
    assert_eq!(a.cache_dir.as_deref(), Some("/tmp/x"));
    assert_eq!(a.store_capacity, Some(9));
    // Unknown flags are ignored (bespoke per-binary extras pass through).
    assert!(CommonArgs::from_args(&argv(&["--max-rows", "4"]), &[], 1).is_ok());
}

#[test]
fn bad_values_are_rejected_with_the_offending_flag_named() {
    for (args, needle) in [
        (vec!["--workers", "0"], "--workers"),
        (vec!["--workers", "lots"], "--workers"),
        (vec!["--seeds", "-1"], "--seeds"),
        (vec!["--router", "magic"], "magic"),
        (vec!["--scheduler", "magic"], "magic"),
        (vec!["--store-capacity", "big"], "--store-capacity"),
        (vec!["--cache-dir"], "--cache-dir"),
        (vec!["--resume"], "--cache-dir"),
    ] {
        let err = CommonArgs::from_args(&argv(&args), &[], 1).unwrap_err();
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

/// The process-level contract: a malformed flag — shared or one of the
/// binary's declared extras — exits the real binary with status 2 and a
/// message naming the flag on stderr, before any work happens.
#[test]
fn malformed_flags_exit_the_binary_with_status_2() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    for (bin, args, flag) in [
        (sweep, &["--workers", "0"][..], "--workers"),
        (sweep, &["--router", "magic"], "magic"),
        (sweep, &["--resume"], "--resume"),
        (sweep, &["--smoke", "--worker-id"], "--worker-id"),
        (
            env!("CARGO_BIN_EXE_table2_parking"),
            &["--max-rows", "abc"],
            "--max-rows",
        ),
        (env!("CARGO_BIN_EXE_e2e"), &["--workers", "0"], "--workers"),
        (env!("CARGO_BIN_EXE_e2e"), &["--compare"], "--compare"),
    ] {
        let out = run_bounded(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error:"), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    }
}

/// `--help` / `-h` print the shared flag family plus the binary's own
/// extras and exit 0 before any work happens, whatever other flags are
/// given.
#[test]
fn help_exits_zero_and_documents_the_flag_family() {
    for (bin, args, extra) in [
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--help"][..],
            "--compare-serial",
        ),
        (env!("CARGO_BIN_EXE_sweep"), &["-h"], "--interrupt-after"),
        (env!("CARGO_BIN_EXE_cosim"), &["--help"], "--diff-analytic"),
        (
            env!("CARGO_BIN_EXE_cosim"),
            &["--trace", "--help"],
            "--trace",
        ),
        (env!("CARGO_BIN_EXE_table2_parking"), &["-h"], "--max-rows"),
        (env!("CARGO_BIN_EXE_e2e"), &["--help"], "--skip-serve"),
    ] {
        let out = run_bounded(bin, args);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "{bin} {args:?}: {stdout}");
        // The shared family…
        for shared in ["--workers", "--seeds", "--cache-dir", "--router", "--help"] {
            assert!(
                stdout.contains(shared),
                "{bin} {args:?} is missing {shared}"
            );
        }
        // …plus the binary's bespoke extras.
        assert!(stdout.contains(extra), "{bin} {args:?} is missing {extra}");
        assert!(out.stderr.is_empty(), "{bin} {args:?} wrote to stderr");
    }
}

#[test]
fn router_and_scheduler_selections_roundtrip() {
    for (router, scheduler) in [
        ("greedy", "crosstalk"),
        ("greedy", "asap"),
        ("lookahead", "crosstalk"),
        ("lookahead", "asap"),
    ] {
        let a = CommonArgs::from_args(
            &argv(&["--router", router, "--scheduler", scheduler]),
            &[],
            1,
        )
        .unwrap();
        // The parsed names round-trip back to the flag values…
        assert_eq!(a.pipeline.router.name(), router);
        assert_eq!(a.pipeline.scheduler.name(), scheduler);
        // …and re-parsing the printed names reproduces the selection.
        let b = CommonArgs::from_args(
            &argv(&[
                "--router",
                a.pipeline.router.name(),
                "--scheduler",
                a.pipeline.scheduler.name(),
            ]),
            &[],
            1,
        )
        .unwrap();
        assert_eq!(a.pipeline, b.pipeline);
    }
    // Defaults reproduce the paper pipeline exactly.
    assert_eq!(
        CommonArgs::from_args(&[], &[], 1).unwrap().pipeline,
        PipelineConfig::default()
    );
}
