//! The one argv parser of every binary in the workspace. Every binary
//! accepts the shared flag family (mode, workers, seeds, JSON output,
//! pipeline strategies and the artifact-store flags; see `SHARED_HELP`)
//! plus its own extras, declared once as the `("--flag PLACEHOLDER",
//! "what it does")` table its `--help` prints: `N` takes a non-negative
//! integer, any other placeholder a value, none nothing. A malformed or
//! value-less flag is an error, and [`CommonArgs::flag`] / `value` /
//! `count` read only what the table declares. Unknown flags are ignored
//! (so `cargo bench`'s `--bench` passes through).
//!
//! ```
//! use digiq_bench::cli::CommonArgs;
//!
//! let argv = ["--small", "--seeds", "3", "--max-rows", "5"].map(String::from);
//! let args = CommonArgs::from_args(&argv, &[("--max-rows N", "cap the rows")], 4).unwrap();
//! assert!(args.small && !args.smoke);
//! assert_eq!(args.seeds, 3);
//! assert_eq!(args.workers, 4); // fallback when --workers is absent
//! assert_eq!(args.cache_dir, None); // in-memory store by default
//! assert_eq!(args.count("--max-rows"), Some(5));
//! ```

use digiq_core::engine::EvalEngine;
use digiq_core::store::StoreConfig;
use qcircuit::pipeline::{PipelineConfig, RouteStrategy, ScheduleStrategy};
use sfq_hw::cost::CostModel;
use std::path::PathBuf;

/// The flag family shared by the bench binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--small`: reduced-scale run.
    pub small: bool,
    /// `--full`: paper-scale run.
    pub full: bool,
    /// `--smoke`: tiny golden-checked run (forces 2 workers).
    pub smoke: bool,
    /// `--json`: machine-readable report on stdout.
    pub json: bool,
    /// `--seeds N`: drift seeds `0..N` (default 1).
    pub seeds: usize,
    /// `--workers N`: worker threads (default: every core; `--smoke`
    /// pins 2 so the golden is reproducible).
    pub workers: usize,
    /// `--router` / `--scheduler`: compile-pipeline strategy selection.
    pub pipeline: PipelineConfig,
    /// `--cache-dir DIR`: persist artifacts (and the sweep journal)
    /// under `DIR` so later runs warm-start across processes.
    pub cache_dir: Option<String>,
    /// `--resume`: skip sweep jobs already completed in the cache dir's
    /// journal (requires `--cache-dir`).
    pub resume: bool,
    /// `--store-capacity N`: bound the in-memory artifact store to `N`
    /// resident entries (LRU eviction beyond; default unbounded).
    pub store_capacity: Option<usize>,
    /// The argv these flags were parsed from, without the binary name.
    argv: Vec<String>,
    /// The binary's declared extras, by flag name, as argv gave them.
    extras: Vec<(String, Extra)>,
}

/// A declared `"--flag"`, `"--flag N"` or `"--flag VALUE"`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Extra {
    Flag(bool),
    Count(Option<usize>),
    Value(Option<String>),
}

/// The help lines of the shared family.
const SHARED_HELP: &str = "  --small                      reduced-scale run
  --full                       paper-scale run
  --smoke                      tiny golden-checked run (pins 2 workers, plain report JSON on stdout)
  --json                       machine-readable report on stdout
  --seeds N                    drift seeds 0..N (default 1)
  --workers N                  worker threads (default: every core)
  --router greedy|lookahead    compile-pipeline routing strategy
  --scheduler crosstalk|asap   compile-pipeline scheduling strategy
  --cache-dir DIR              persist artifacts and the sweep journal under DIR (cross-process warm start)
  --resume                     skip sweep jobs already journaled under the cache dir
  --store-capacity N           bound the in-memory artifact store to N entries (LRU eviction)
  --help, -h                   print this help and exit
";

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The argument after the first `name`, if `name` is given.
fn value(args: &[String], name: &str) -> Result<Option<String>, String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        })
        .transpose()
}

fn count(args: &[String], name: &str) -> Result<Option<usize>, String> {
    match value(args, name)? {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("`{name}` needs a non-negative integer, got `{v}`")),
    }
}

impl CommonArgs {
    /// Parses the shared flags and the binary's declared `extras` (its
    /// `--help` table) from an argument slice (`argv` without the binary
    /// name). `default_workers` is used when `--workers` is absent and
    /// the run is not a smoke run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag and the accepted
    /// values.
    pub fn from_args(
        args: &[String],
        extras: &[(&str, &str)],
        default_workers: usize,
    ) -> Result<CommonArgs, String> {
        let smoke = has(args, "--smoke");
        let workers = match count(args, "--workers")? {
            _ if smoke => 2,
            Some(n) if n > 0 => n,
            Some(n) => return Err(format!("`--workers` must be at least 1, got {n}")),
            None => default_workers,
        };
        let mut pipeline = PipelineConfig::default();
        if let Some(router) = value(args, "--router")? {
            pipeline.router = RouteStrategy::parse(&router)?;
        }
        if let Some(scheduler) = value(args, "--scheduler")? {
            pipeline.scheduler = ScheduleStrategy::parse(&scheduler)?;
        }
        let cache_dir = value(args, "--cache-dir")?;
        let resume = has(args, "--resume");
        if resume && cache_dir.is_none() {
            return Err("`--resume` needs `--cache-dir` (the journal lives there)".to_string());
        }
        let extras = extras
            .iter()
            .map(|(decl, _)| {
                let (name, extra) = match decl.split_once(' ') {
                    None => (*decl, Extra::Flag(has(args, decl))),
                    Some((name, "N")) => (name, Extra::Count(count(args, name)?)),
                    Some((name, _)) => (name, Extra::Value(value(args, name)?)),
                };
                Ok((name.to_string(), extra))
            })
            .collect::<Result<_, String>>()?;
        Ok(CommonArgs {
            small: has(args, "--small"),
            full: has(args, "--full"),
            smoke,
            json: has(args, "--json"),
            seeds: count(args, "--seeds")?.unwrap_or(1).max(1),
            workers,
            pipeline,
            cache_dir,
            resume,
            store_capacity: count(args, "--store-capacity")?,
            argv: args.to_vec(),
            extras,
        })
    }

    /// The argv these flags were parsed from, without the binary name.
    pub fn argv(&self) -> &[String] {
        &self.argv
    }

    fn extra(&self, name: &str) -> &Extra {
        match self.extras.iter().find(|(n, _)| n == name) {
            Some((_, extra)) => extra,
            None => panic!("`{name}` is not a declared extra of this binary"),
        }
    }

    /// Whether the declared extra `"name"` was given.
    pub fn flag(&self, name: &str) -> bool {
        match self.extra(name) {
            Extra::Flag(given) => *given,
            _ => panic!("`{name}` is not declared as a bare flag"),
        }
    }

    /// The value of the declared extra `"name VALUE"`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        match self.extra(name) {
            Extra::Value(v) => v.as_deref(),
            _ => panic!("`{name}` is not declared as `{name} VALUE`"),
        }
    }

    /// The integer of the declared extra `"name N"`, if given.
    pub fn count(&self, name: &str) -> Option<usize> {
        match self.extra(name) {
            Extra::Count(n) => *n,
            _ => panic!("`{name}` is not declared as `{name} N`"),
        }
    }

    /// The help text: the shared family, then `extras` — the binary's
    /// declarations — under their own heading.
    pub fn help_text(bin: &str, extras: &[(&str, &str)]) -> String {
        let mut out = format!("usage: {bin} [flags]\n\nshared flags:\n{SHARED_HELP}");
        if !extras.is_empty() {
            out.push_str(&format!("\n{bin} flags:\n"));
            for (flag, what) in extras {
                out.push_str(&format!("  {flag:28} {what}\n"));
            }
        }
        out
    }

    /// Parses the process arguments for binary `bin` with its declared
    /// `extras`: prints help and exits 0 on `--help`/`-h`, and exits 2
    /// with a message on stderr when a flag is malformed.
    pub fn parse_for(bin: &str, extras: &[(&str, &str)], default_workers: usize) -> CommonArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", CommonArgs::help_text(bin, extras));
            std::process::exit(0);
        }
        CommonArgs::from_args(&args, extras, default_workers).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The artifact-store configuration these flags select.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            capacity: self.store_capacity,
            cache_dir: self.cache_dir.as_ref().map(PathBuf::from),
        }
    }

    /// An evaluation engine over a store configured from these flags
    /// (in-memory and unbounded by default; persistent under
    /// `--cache-dir`; LRU-bounded under `--store-capacity`).
    pub fn engine(&self) -> EvalEngine {
        EvalEngine::with_store_config(CostModel::default(), self.store_config())
    }

    /// Prints the store's counter snapshot as one machine-greppable
    /// stderr line when `--cache-dir` is active (no-op otherwise). The
    /// CI warm-start check matches a nonzero `pass_builds` on the cold
    /// run and `pass_builds=0` on the warm one; stderr keeps the
    /// golden-diffed stdout pure. Shared by every engine-driven binary
    /// so the line format cannot drift between them.
    pub fn report_store_stats(&self, engine: &EvalEngine) {
        if self.cache_dir.is_none() {
            return;
        }
        let stats = engine.store_stats();
        let (hits, misses, disk_hits, builds, evictions) = stats.totals();
        eprintln!(
            "store: pass_builds={} hits={hits} misses={misses} disk_hits={disk_hits} \
             builds={builds} evictions={evictions} resident={}",
            stats.pass_builds(),
            stats.resident,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_the_paper_pipeline() {
        let a = CommonArgs::from_args(&[], &[], 8).unwrap();
        assert!(!a.small && !a.full && !a.smoke && !a.json && !a.resume);
        assert_eq!(a.seeds, 1);
        assert_eq!(a.workers, 8);
        assert_eq!(a.pipeline, PipelineConfig::default());
        assert_eq!(a.cache_dir, None);
        assert_eq!(a.store_capacity, None);
        let cfg = a.store_config();
        assert!(cfg.capacity.is_none() && cfg.cache_dir.is_none());
    }

    #[test]
    fn smoke_pins_two_workers() {
        let a = CommonArgs::from_args(&argv(&["--smoke", "--workers", "9"]), &[], 8).unwrap();
        assert!(a.smoke);
        assert_eq!(a.workers, 2);
    }

    #[test]
    fn strategies_parse_and_reject() {
        let a = CommonArgs::from_args(
            &argv(&["--router", "lookahead", "--scheduler", "asap"]),
            &[],
            1,
        )
        .unwrap();
        assert_eq!(a.pipeline.router.name(), "lookahead");
        assert_eq!(a.pipeline.scheduler.name(), "asap");
        assert!(CommonArgs::from_args(&argv(&["--router", "magic"]), &[], 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--scheduler", "magic"]), &[], 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--router"]), &[], 1).is_err());
    }

    #[test]
    fn counts_parse_and_reject() {
        let a = CommonArgs::from_args(&argv(&["--seeds", "4", "--workers", "3"]), &[], 1).unwrap();
        assert_eq!((a.seeds, a.workers), (4, 3));
        assert!(CommonArgs::from_args(&argv(&["--seeds", "x"]), &[], 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--workers", "0"]), &[], 1).is_err());
        // `--seeds 0` degrades to 1 like the historical parsers did.
        assert_eq!(
            CommonArgs::from_args(&argv(&["--seeds", "0"]), &[], 1)
                .unwrap()
                .seeds,
            1
        );
    }

    #[test]
    fn help_text_covers_the_shared_family_and_extras() {
        let text = CommonArgs::help_text("sweep", &[("--interrupt-after N", "stop after N jobs")]);
        assert!(text.starts_with("usage: sweep [flags]"));
        for flag in [
            "--small",
            "--full",
            "--smoke",
            "--json",
            "--seeds N",
            "--workers N",
            "--router greedy|lookahead",
            "--scheduler crosstalk|asap",
            "--cache-dir DIR",
            "--resume",
            "--store-capacity N",
            "--help, -h",
            "--interrupt-after N",
        ] {
            assert!(text.contains(flag), "help text missing `{flag}`:\n{text}");
        }
        assert!(text.contains("sweep flags:"));
        // Every flag line is indented and its help aligned in one column.
        for line in text.lines().filter(|l| l.contains("--")) {
            let (flag, what) = line.split_at(31);
            assert!(flag.starts_with("  --") && flag.ends_with(' '), "`{line}`");
            assert!(!what.starts_with(' '), "`{line}`");
        }
        // No extras, no dangling heading.
        let bare = CommonArgs::help_text("fig3_cycle", &[]);
        assert!(!bare.contains("fig3_cycle flags:"));
    }

    #[test]
    fn store_flags_parse_and_validate() {
        let a = CommonArgs::from_args(
            &argv(&[
                "--cache-dir",
                "/tmp/digiq",
                "--resume",
                "--store-capacity",
                "5",
            ]),
            &[],
            1,
        )
        .unwrap();
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/digiq"));
        assert!(a.resume);
        assert_eq!(a.store_capacity, Some(5));
        let cfg = a.store_config();
        assert_eq!(cfg.capacity, Some(5));
        assert_eq!(cfg.cache_dir, Some(PathBuf::from("/tmp/digiq")));
        // A zero capacity is allowed (evict-everything stress mode)…
        assert_eq!(
            CommonArgs::from_args(&argv(&["--store-capacity", "0"]), &[], 1)
                .unwrap()
                .store_capacity,
            Some(0)
        );
        // …but malformed values and orphan --resume are not.
        assert!(CommonArgs::from_args(&argv(&["--store-capacity", "x"]), &[], 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--cache-dir"]), &[], 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--resume"]), &[], 1).is_err());
    }

    const EXTRAS: &[(&str, &str)] = &[
        ("--quick", "fewer samples"),
        ("--max-rows N", "cap the rows"),
        ("--compare FILE", "diff against FILE"),
    ];

    #[test]
    fn declared_extras_parse_by_placeholder() {
        let a = CommonArgs::from_args(
            &argv(&[
                "--bench",
                "--quick",
                "--max-rows",
                "0",
                "--compare",
                "r.json",
            ]),
            EXTRAS,
            1,
        )
        .unwrap();
        assert!(a.flag("--quick"));
        assert_eq!(a.count("--max-rows"), Some(0));
        assert_eq!(a.value("--compare"), Some("r.json"));
        // The argv is kept whole, undeclared `--bench` included.
        assert_eq!(a.argv()[0], "--bench");
        let none = CommonArgs::from_args(&[], EXTRAS, 1).unwrap();
        assert!(!none.flag("--quick"));
        assert_eq!(none.count("--max-rows"), None);
        assert_eq!(none.value("--compare"), None);
    }

    #[test]
    fn malformed_extras_fail_naming_the_flag() {
        for (args, needle) in [
            (&["--compare"][..], "`--compare` needs a value"),
            (&["--quick", "--max-rows"], "`--max-rows` needs a value"),
            (
                &["--max-rows", "abc"],
                "`--max-rows` needs a non-negative integer",
            ),
            (
                &["--max-rows", "-1"],
                "`--max-rows` needs a non-negative integer",
            ),
        ] {
            let err = CommonArgs::from_args(&argv(args), EXTRAS, 1).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "not a declared extra")]
    fn undeclared_lookups_panic() {
        CommonArgs::from_args(&[], EXTRAS, 1)
            .unwrap()
            .flag("--filter");
    }

    #[test]
    #[should_panic(expected = "not declared as `--compare N`")]
    fn lookups_check_the_declared_placeholder() {
        CommonArgs::from_args(&[], EXTRAS, 1)
            .unwrap()
            .count("--compare");
    }
}
