//! Shared CLI parsing for the bench binaries.
//!
//! Every binary accepts the same flag family — `--small`/`--full`/
//! `--smoke` mode selection, `--workers N`, `--seeds N`, `--json`, the
//! pass-pipeline strategy flags `--router greedy|lookahead` /
//! `--scheduler crosstalk|asap`, and the artifact-store flags
//! `--cache-dir DIR` (persistent cross-process artifact cache),
//! `--resume` (skip sweep jobs already journaled under the cache dir)
//! and `--store-capacity N` (bound the in-memory store, LRU-evicting
//! beyond it) — and this module parses them once instead of thirteen
//! copy-pasted variants. Binaries with a bespoke extra flag (e.g.
//! `table2_parking --max-rows`) read just that one via
//! [`crate::arg_value`]; unknown flags are ignored, so the family is
//! uniform across all binaries even where a flag has no effect.
//!
//! ```
//! use digiq_bench::cli::CommonArgs;
//!
//! let args = CommonArgs::from_args(&["--small".into(), "--seeds".into(), "3".into()], 4)
//!     .unwrap();
//! assert!(args.small && !args.smoke);
//! assert_eq!(args.seeds, 3);
//! assert_eq!(args.workers, 4); // fallback when --workers is absent
//! assert_eq!(args.cache_dir, None); // in-memory store by default
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
}

impl CommonArgs {
    /// Parses the shared flags from an argument slice (`argv` without the
    /// binary name). `default_workers` is used when `--workers` is absent
    /// and the run is not a smoke run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag and the accepted
    /// values.
    pub fn from_args(args: &[String], default_workers: usize) -> Result<CommonArgs, String> {
        let has = |name: &str| args.iter().any(|a| a == name);
        let value = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .map(|i| {
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| format!("`{name}` needs a value"))
                })
                .transpose()
        };
        let count = |name: &str| -> Result<Option<usize>, String> {
            match value(name)? {
                None => Ok(None),
                Some(v) => v
                    .parse::<usize>()
                    .map(Some)
                    .map_err(|_| format!("`{name}` needs a non-negative integer, got `{v}`")),
            }
        };

        let smoke = has("--smoke");
        let workers = match count("--workers")? {
            _ if smoke => 2,
            Some(n) if n > 0 => n,
            Some(n) => return Err(format!("`--workers` must be at least 1, got {n}")),
            None => default_workers,
        };
        let mut pipeline = PipelineConfig::default();
        if let Some(router) = value("--router")? {
            pipeline.router = RouteStrategy::parse(&router)?;
        }
        if let Some(scheduler) = value("--scheduler")? {
            pipeline.scheduler = ScheduleStrategy::parse(&scheduler)?;
        }
        let cache_dir = value("--cache-dir")?;
        let resume = has("--resume");
        if resume && cache_dir.is_none() {
            return Err("`--resume` needs `--cache-dir` (the journal lives there)".to_string());
        }
        Ok(CommonArgs {
            small: has("--small"),
            full: has("--full"),
            smoke,
            json: has("--json"),
            seeds: count("--seeds")?.unwrap_or(1).max(1),
            workers,
            pipeline,
            cache_dir,
            resume,
            store_capacity: count("--store-capacity")?,
        })
    }

    /// The shared-flag help text, with `extras` — each binary's bespoke
    /// `("--flag VALUE", "what it does")` pairs — appended under their
    /// own heading.
    pub fn help_text(bin: &str, extras: &[(&str, &str)]) -> String {
        let mut out = format!("usage: {bin} [flags]\n\nshared flags:\n");
        for (flag, what) in [
            ("--small", "reduced-scale run"),
            ("--full", "paper-scale run"),
            (
                "--smoke",
                "tiny golden-checked run (pins 2 workers, plain report JSON on stdout)",
            ),
            ("--json", "machine-readable report on stdout"),
            ("--seeds N", "drift seeds 0..N (default 1)"),
            ("--workers N", "worker threads (default: every core)"),
            (
                "--router greedy|lookahead",
                "compile-pipeline routing strategy",
            ),
            (
                "--scheduler crosstalk|asap",
                "compile-pipeline scheduling strategy",
            ),
            (
                "--cache-dir DIR",
                "persist artifacts and the sweep journal under DIR (cross-process warm start)",
            ),
            (
                "--resume",
                "skip sweep jobs already journaled under the cache dir",
            ),
            (
                "--store-capacity N",
                "bound the in-memory artifact store to N entries (LRU eviction)",
            ),
            ("--help, -h", "print this help and exit"),
        ] {
            out.push_str(&format!("  {flag:28} {what}\n"));
        }
        if !extras.is_empty() {
            out.push_str(&format!("\n{bin} flags:\n"));
            for (flag, what) in extras {
                out.push_str(&format!("  {flag:28} {what}\n"));
            }
        }
        out
    }

    /// Parses the process arguments, exiting with status 2 and a message
    /// on stderr when a flag is malformed, and printing help (exit 0) on
    /// `--help`/`-h`.
    pub fn parse(default_workers: usize) -> CommonArgs {
        CommonArgs::parse_for("", &[], default_workers)
    }

    /// [`CommonArgs::parse`] with the binary's name and bespoke extra
    /// flags named in its `--help` output.
    pub fn parse_for(bin: &str, extras: &[(&str, &str)], default_workers: usize) -> CommonArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            let bin = if bin.is_empty() {
                std::env::args()
                    .next()
                    .as_deref()
                    .and_then(|p| p.rsplit('/').next().map(str::to_string))
                    .unwrap_or_else(|| "bench".to_string())
            } else {
                bin.to_string()
            };
            print!("{}", CommonArgs::help_text(&bin, extras));
            std::process::exit(0);
        }
        CommonArgs::from_args(&args, default_workers).unwrap_or_else(|e| {
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
        let a = CommonArgs::from_args(&[], 8).unwrap();
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
        let a = CommonArgs::from_args(&argv(&["--smoke", "--workers", "9"]), 8).unwrap();
        assert!(a.smoke);
        assert_eq!(a.workers, 2);
    }

    #[test]
    fn strategies_parse_and_reject() {
        let a = CommonArgs::from_args(&argv(&["--router", "lookahead", "--scheduler", "asap"]), 1)
            .unwrap();
        assert_eq!(a.pipeline.router.name(), "lookahead");
        assert_eq!(a.pipeline.scheduler.name(), "asap");
        assert!(CommonArgs::from_args(&argv(&["--router", "magic"]), 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--scheduler", "magic"]), 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--router"]), 1).is_err());
    }

    #[test]
    fn counts_parse_and_reject() {
        let a = CommonArgs::from_args(&argv(&["--seeds", "4", "--workers", "3"]), 1).unwrap();
        assert_eq!((a.seeds, a.workers), (4, 3));
        assert!(CommonArgs::from_args(&argv(&["--seeds", "x"]), 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--workers", "0"]), 1).is_err());
        // `--seeds 0` degrades to 1 like the historical parsers did.
        assert_eq!(
            CommonArgs::from_args(&argv(&["--seeds", "0"]), 1)
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
            CommonArgs::from_args(&argv(&["--store-capacity", "0"]), 1)
                .unwrap()
                .store_capacity,
            Some(0)
        );
        // …but malformed values and orphan --resume are not.
        assert!(CommonArgs::from_args(&argv(&["--store-capacity", "x"]), 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--cache-dir"]), 1).is_err());
        assert!(CommonArgs::from_args(&argv(&["--resume"]), 1).is_err());
    }
}
