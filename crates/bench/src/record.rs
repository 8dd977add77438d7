//! The committed `BENCH_<date>.json` records, as the bench binaries
//! write and compare them: `--json-out FILE` writes a binary's fresh row
//! array, and `--compare FILE` diffs the fresh rows against one section
//! of a committed record — [`KERNELS`] for the micro-benchmarks
//! (`benches/kernels.rs`), [`E2E`] for the end-to-end rows (`e2e`).
//!
//! A compare matches rows by name (a fresh row without a baseline is
//! noted, never failed), prints each row's wall ratio, and warns when a
//! row's wall time grew past 1.5x: warn-only, because CI timing is too
//! noisy to gate on. The verdict comes from the caller's gate rule alone
//! ([`counter_gate`] for kernel rows, [`checks_gate`] for e2e rows); any
//! failed row, and any unreadable record, exits 1.

use crate::timing::fmt_ns;
use qsim::counters::KernelCounters;
use sfq_hw::json::Json;

/// A fresh result row, as a record holds it.
pub trait RecordRow {
    /// The row's name, which matches it to its baseline row.
    fn name(&self) -> &str;
    /// The row's wall time in ns (warn-only in compares).
    fn wall_ns(&self) -> f64;
    /// The row as `--json-out` writes it.
    fn to_json(&self) -> Json;
}

/// The record section a binary owns.
#[derive(Clone, Copy)]
pub struct Section {
    key: &'static str,
    /// What a row is called in notes.
    row: &'static str,
    /// The baseline row field holding the row's wall time.
    wall_field: &'static str,
    /// Whether a record without the section passes, with a note.
    optional: bool,
}

/// The kernel micro-benchmarks. Every record has them, so a record
/// without the section fails the compare.
pub const KERNELS: Section = Section {
    key: "kernels",
    row: "kernel",
    wall_field: "median_ns",
    optional: false,
};

/// The end-to-end rows. Records older than the section pass the compare
/// with a note; a fresh record picks up the gate from there.
pub const E2E: Section = Section {
    key: "e2e",
    row: "e2e row",
    wall_field: "wall_ns",
    optional: true,
};

/// A row's deterministic verdict: `Ok(note)` passes, `Err(note)` fails.
pub type Verdict = Result<String, String>;

fn die(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Writes `--json-out FILE` and runs `--compare FILE`, whichever argv
/// names. `gate` judges each fresh row against its baseline row. Exits 1
/// when the output cannot be written, the record cannot be read or
/// parsed, or `gate` fails a row.
pub fn finish<R: RecordRow>(rows: &[R], section: &Section, gate: impl FnMut(&R, &Json) -> Verdict) {
    let key = section.key;
    if let Some(path) = crate::arg_value("--json-out") {
        let out = Json::Arr(rows.iter().map(R::to_json).collect());
        std::fs::write(&path, out.render())
            .unwrap_or_else(|e| die(format!("cannot write `{path}`: {e}")));
        eprintln!("{key} rows written to {path}");
    }
    if let Some(path) = crate::arg_value("--compare") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(format!("cannot read `{path}`: {e}")));
        let record =
            Json::parse(&text).unwrap_or_else(|e| die(format!("cannot parse `{path}`: {e:?}")));
        let outcome = compare(rows, section, &path, &record, gate);
        outcome.out.iter().for_each(|line| println!("{line}"));
        outcome.err.iter().for_each(|line| eprintln!("{line}"));
        if !outcome.ok {
            die(format!("deterministic {key} regression vs {path}"));
        }
        println!("{key} compare OK vs {path}");
    }
}

/// What one compare found: its report (stdout), its warnings and errors
/// (stderr) and the verdict.
#[derive(Debug, Default)]
struct Outcome {
    ok: bool,
    out: Vec<String>,
    err: Vec<String>,
}

/// Compares against `section` of `record`: a full record object, or a
/// bare row array as `--json-out` writes it.
fn compare<R: RecordRow>(
    rows: &[R],
    section: &Section,
    path: &str,
    record: &Json,
    mut gate: impl FnMut(&R, &Json) -> Verdict,
) -> Outcome {
    let Section {
        key,
        row: noun,
        wall_field,
        optional,
    } = *section;
    let mut o = Outcome {
        ok: true,
        ..Outcome::default()
    };
    let base = match (record, record.get(key)) {
        (Json::Arr(items), _) | (Json::Obj(_), Some(Json::Arr(items))) => items,
        (Json::Obj(_), None) if optional => {
            let note = format!("baseline {path} predates the {key} section; nothing to compare");
            o.out.push(note);
            return o;
        }
        _ => {
            o.ok = false;
            let error = format!("error: cannot read baseline `{path}`: no `{key}` row array");
            o.err.push(error);
            return o;
        }
    };
    o.out.push(format!("\n{key} comparison vs {path}:"));
    for row in rows {
        let (name, wall) = (row.name(), row.wall_ns());
        let Some(b) = base.iter().find(|b| b.str_field("name", "row") == Ok(name)) else {
            o.out.push(format!("{name:<32} (new {noun}, no baseline)"));
            continue;
        };
        let base_wall = b.num_field(wall_field, "row").unwrap_or(f64::NAN);
        let note = gate(row, b).unwrap_or_else(|note| {
            o.ok = false;
            note
        });
        let (bw, w) = (fmt_ns(base_wall), fmt_ns(wall));
        let ratio = base_wall / wall;
        o.out.push(format!(
            "{name:<32} {bw:>12} -> {w:>12} ({ratio:>5.2}x)  {note}"
        ));
        if wall > base_wall * 1.5 {
            o.err.push(format!(
                "warning: {name} wall time regressed {:.2}x (warn-only: timing is noisy in CI)",
                wall / base_wall
            ));
        }
    }
    o
}

/// The kernel rows' gate. Counters are exact and deterministic, so any
/// counter above its baseline is a real regression, not noise. Columns
/// the baseline lacks (older records predate the synthesis counters) are
/// skipped, and an all-zero baseline against a counting kernel means the
/// record predates counter coverage of that path, not a regression from
/// zero work; a fresh record picks up the gate from there.
pub fn counter_gate(fresh: &KernelCounters, base: &Json) -> Verdict {
    let fields = fresh.fields();
    let covered: Vec<(&str, u64, u64)> = fields
        .iter()
        .filter_map(|&(f, now)| Some((f, base.count_field(f, "row").ok()?, now)))
        .collect();
    let diffs = || {
        list(
            covered
                .iter()
                .map(|(f, bv, now)| format!("{f} {bv} -> {now}")),
        )
    };
    if covered.is_empty() {
        Ok("baseline has none".to_string())
    } else if covered.iter().all(|c| c.1 == 0) && fields.iter().any(|f| f.1 > 0) {
        let now = list(fields.iter().map(|(f, v)| format!("{f} {v}")));
        Ok(format!("baseline predates counter coverage (now {now})"))
    } else if covered.iter().any(|&(_, bv, now)| now > bv) {
        Err(format!("REGRESSED {}", diffs()))
    } else {
        Ok(format!("ok ({})", diffs()))
    }
}

fn list(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// The e2e rows' gate. `checks` fields are seeded and sharding-order
/// independent, so any baseline check the fresh row does not reproduce
/// exactly, including one it lacks, is a real behaviour change.
pub fn checks_gate(fresh: &[(String, Json)], base: &Json) -> Verdict {
    let mut drift: Vec<String> = Vec::new();
    if let Some(Json::Obj(base_checks)) = base.get("checks") {
        for (key, base_val) in base_checks {
            let now = fresh.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if now != Some(base_val) {
                let now = now.map_or("<missing>".to_string(), Json::render);
                drift.push(format!("{key} {} -> {now}", base_val.render()));
            }
        }
    }
    if drift.is_empty() {
        Ok("checks ok".to_string())
    } else {
        Err(format!("DRIFTED {}", drift.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shaped like `BENCH_2026-08-07_r5.json`: every counter column, a
    /// zero row predating synthesis coverage, and an `e2e` section.
    const R5: &str = r#"{"date":"2026-08-07","kernels":[
        {"name":"eigh_9x9_cold","median_ns":1448.0,"samples":10,"flops":3456,"allocs":1,"cells":0,"dffs_moved":0,"synth_allocs":0},
        {"name":"synthesize_mux16","median_ns":11142.0,"samples":10,"flops":0,"allocs":0,"cells":237,"dffs_moved":16,"synth_allocs":1},
        {"name":"fig8_sweep_serial","median_ns":122398.0,"samples":10,"flops":0,"allocs":0,"cells":0,"dffs_moved":0,"synth_allocs":0}],
      "loadgen":{"clients":4},
      "e2e":[
        {"name":"sweep_cold_full","wall_ns":460231047,"checks":{"jobs":30,"report_digest":"9189ee59c23e99d4"},"info":{"workers":1}},
        {"name":"fig10_64q","wall_ns":6087399774,"checks":{"qubits":64,"couplers":28,"error_digest":"7e0e8ac5c9255346"},"info":{"workers":1}}]}"#;

    /// Shaped like `BENCH_2026-08-07.json` and its early re-runs: no
    /// `e2e` section, no synthesis columns, and a row with no counters.
    const OLD: &str = r#"{"date":"2026-08-07","kernels":[
        {"name":"eigh_9x9_cold","median_ns":1500.0,"samples":10,"flops":3456,"allocs":1},
        {"name":"synthesize_mux16","median_ns":15558.8,"samples":10,"flops":0,"allocs":0},
        {"name":"uqq_full_pulse","median_ns":114743.7,"samples":10}],
      "loadgen":{"clients":4}}"#;

    struct Fresh {
        name: &'static str,
        wall_ns: f64,
        counters: KernelCounters,
        checks: Vec<(String, Json)>,
    }

    impl RecordRow for Fresh {
        fn name(&self) -> &str {
            self.name
        }
        fn wall_ns(&self) -> f64 {
            self.wall_ns
        }
        fn to_json(&self) -> Json {
            Json::obj([("name", Json::Str(self.name.to_string()))])
        }
    }

    fn kernel(name: &'static str, wall_ns: f64, c: [u64; 5]) -> Fresh {
        let [flops, allocs, cells, dffs_moved, synth_allocs] = c;
        Fresh {
            name,
            wall_ns,
            counters: KernelCounters {
                flops,
                allocs,
                cells,
                dffs_moved,
                synth_allocs,
            },
            checks: Vec::new(),
        }
    }

    fn e2e(name: &'static str, wall_ns: f64, checks: &[(&str, Json)]) -> Fresh {
        Fresh {
            name,
            wall_ns,
            counters: KernelCounters::default(),
            checks: checks
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    fn kernels(rows: &[Fresh], record: &str) -> Outcome {
        let record = Json::parse(record).unwrap();
        compare(rows, &KERNELS, "rec.json", &record, |r, b| {
            counter_gate(&r.counters, b)
        })
    }

    fn e2es(rows: &[Fresh], record: &str) -> Outcome {
        let record = Json::parse(record).unwrap();
        compare(rows, &E2E, "rec.json", &record, |r, b| {
            checks_gate(&r.checks, b)
        })
    }

    /// The report line of row `name`.
    fn line<'a>(o: &'a Outcome, name: &str) -> &'a str {
        o.out
            .iter()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no line for {name} in {:?}", o.out))
    }

    fn sweep_checks(digest: &str) -> Vec<(&'static str, Json)> {
        vec![
            ("jobs", Json::Num(30.0)),
            ("report_digest", Json::Str(digest.to_string())),
        ]
    }

    #[test]
    fn kernel_counter_up_fails() {
        let o = kernels(&[kernel("eigh_9x9_cold", 1448.0, [3457, 1, 0, 0, 0])], R5);
        assert!(!o.ok);
        assert!(line(&o, "eigh_9x9_cold").contains("REGRESSED flops 3456 -> 3457"));
        let o = kernels(&[kernel("synthesize_mux16", 1.0, [0, 0, 237, 16, 2])], R5);
        assert!(!o.ok, "a synthesis counter gates like the numeric ones");
    }

    #[test]
    fn kernel_counter_down_passes() {
        let o = kernels(&[kernel("synthesize_mux16", 1.0, [0, 0, 200, 16, 1])], R5);
        assert!(o.ok, "{o:?}");
        assert!(line(&o, "synthesize_mux16").contains(
            "ok (flops 0 -> 0, allocs 0 -> 0, cells 237 -> 200, dffs_moved 16 -> 16, synth_allocs 1 -> 1)"
        ));
    }

    #[test]
    fn kernel_missing_columns_are_skipped() {
        let rows = [
            kernel("eigh_9x9_cold", 1448.0, [3456, 1, 0, 0, 0]),
            kernel("synthesize_mux16", 1.0, [0, 0, 237, 16, 1]),
            kernel("uqq_full_pulse", 1.0, [588_222, 30, 0, 0, 0]),
        ];
        let o = kernels(&rows, OLD);
        assert!(o.ok, "{o:?}");
        assert!(line(&o, "eigh_9x9_cold").ends_with("ok (flops 3456 -> 3456, allocs 1 -> 1)"));
        // The old all-zero flops/allocs columns of a synthesis kernel read
        // as missing coverage, not as a regression of cells.
        assert!(line(&o, "synthesize_mux16").contains("baseline predates counter coverage"));
        assert!(line(&o, "uqq_full_pulse").ends_with("baseline has none"));
    }

    #[test]
    fn kernel_all_zero_baseline_passes_with_its_note() {
        let o = kernels(
            &[kernel("fig8_sweep_serial", 1.0, [0, 0, 114_225, 499, 218])],
            R5,
        );
        assert!(o.ok, "{o:?}");
        assert!(line(&o, "fig8_sweep_serial").ends_with(
            "baseline predates counter coverage (now flops 0, allocs 0, cells 114225, dffs_moved 499, synth_allocs 218)"
        ));
        // A zero baseline against zero work is an ordinary pass.
        let o = kernels(&[kernel("fig8_sweep_serial", 1.0, [0; 5])], R5);
        assert!(o.ok);
        assert!(line(&o, "fig8_sweep_serial").contains("ok (flops 0 -> 0"));
    }

    #[test]
    fn kernel_record_without_kernels_fails() {
        let o = kernels(
            &[kernel("eigh_9x9_cold", 1.0, [3456, 1, 0, 0, 0])],
            r#"{"date":"2026-08-07","loadgen":{}}"#,
        );
        assert!(!o.ok);
        assert!(o.err[0].contains("no `kernels` row array"), "{o:?}");
        let o = kernels(&[], "3");
        assert!(!o.ok, "a record that is neither object nor array fails");
    }

    #[test]
    fn new_rows_are_noted_not_failed() {
        let o = kernels(&[kernel("opt_decompose_L3", 1.0, [9, 9, 9, 9, 9])], R5);
        assert!(o.ok);
        assert!(line(&o, "opt_decompose_L3").ends_with("(new kernel, no baseline)"));
        let o = e2es(&[e2e("fig7_paper", 1.0, &[])], R5);
        assert!(o.ok);
        assert!(line(&o, "fig7_paper").ends_with("(new e2e row, no baseline)"));
    }

    #[test]
    fn bare_row_arrays_compare_like_their_section() {
        let record = Json::parse(R5).unwrap();
        let bare = record.get("kernels").unwrap().render();
        let o = kernels(
            &[kernel("eigh_9x9_cold", 1448.0, [3456, 2, 0, 0, 0])],
            &bare,
        );
        assert!(!o.ok);
        let bare = record.get("e2e").unwrap().render();
        let rows = [e2e(
            "sweep_cold_full",
            1.0,
            &sweep_checks("9189ee59c23e99d4"),
        )];
        assert!(e2es(&rows, &bare).ok);
    }

    #[test]
    fn e2e_digest_mismatch_fails() {
        let rows = [e2e(
            "sweep_cold_full",
            1.0,
            &sweep_checks("9189ee59c23e99d4"),
        )];
        let o = e2es(&rows, R5);
        assert!(o.ok, "{o:?}");
        assert!(line(&o, "sweep_cold_full").ends_with("checks ok"));
        let rows = [e2e(
            "sweep_cold_full",
            1.0,
            &sweep_checks("0000000000000000"),
        )];
        let o = e2es(&rows, R5);
        assert!(!o.ok);
        assert!(line(&o, "sweep_cold_full")
            .ends_with(r#"DRIFTED report_digest "9189ee59c23e99d4" -> "0000000000000000""#));
    }

    #[test]
    fn e2e_check_missing_from_the_fresh_row_fails() {
        let rows = [e2e(
            "fig10_64q",
            1.0,
            &[
                ("qubits", Json::Num(64.0)),
                ("error_digest", Json::Str("7e0e8ac5c9255346".to_string())),
            ],
        )];
        let o = e2es(&rows, R5);
        assert!(!o.ok);
        assert!(line(&o, "fig10_64q").ends_with("DRIFTED couplers 28 -> <missing>"));
    }

    #[test]
    fn e2e_record_without_e2e_passes_with_its_note() {
        let rows = [e2e(
            "sweep_cold_full",
            1.0,
            &sweep_checks("9189ee59c23e99d4"),
        )];
        let o = e2es(&rows, OLD);
        assert!(o.ok);
        assert!(o.err.is_empty());
        assert_eq!(
            o.out,
            ["baseline rec.json predates the e2e section; nothing to compare"]
        );
    }

    #[test]
    fn wall_warning_never_changes_the_verdict() {
        // 2x slower and gate passing: warned, still OK.
        let o = kernels(&[kernel("eigh_9x9_cold", 2896.0, [3456, 1, 0, 0, 0])], R5);
        assert!(o.ok);
        assert!(o.err[0].starts_with("warning: eigh_9x9_cold wall time regressed 2.00x"));
        let slow = [e2e(
            "sweep_cold_full",
            1e10,
            &sweep_checks("9189ee59c23e99d4"),
        )];
        let o = e2es(&slow, R5);
        assert!(o.ok);
        assert_eq!(o.err.len(), 1);
        // 100x faster and gate failing: no warning, still failed.
        let o = kernels(&[kernel("eigh_9x9_cold", 14.0, [3456, 5, 0, 0, 0])], R5);
        assert!(!o.ok);
        assert!(o.err.is_empty());
        let fast = [e2e("sweep_cold_full", 1.0, &sweep_checks("1"))];
        let o = e2es(&fast, R5);
        assert!(!o.ok);
        assert!(o.err.is_empty());
    }
}
