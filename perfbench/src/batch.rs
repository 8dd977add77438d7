//! The closed batch loop shared by `fig9_sweep` and `fig10_error`.
//!
//! Set-up evaluates the workload [`SETUP_REPS`] times untimed: those
//! rounds fill the process-wide memos (so timed rounds measure steady
//! state), and their output digest becomes the reference every later
//! round must reproduce. Timed rounds then repeat the same evaluation
//! until the run's seconds are spent.

use crate::stats::{median, tail};
use crate::trace;
use crate::Outcome;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A round's output digest, or the invariant it violated.
pub type Checked = Result<String, String>;

/// A batch workload: the work one round completes and its two round
/// flavours.
pub struct Batch<R, T>
where
    R: Fn() -> Checked,
    T: Fn() -> (Checked, BTreeMap<String, f64>),
{
    /// Units of work per round (jobs, qubits) — the `ops_per_s` numerator.
    pub units: f64,
    /// One untraced round.
    pub round: R,
    /// The traced rebuild of a round: its checked digest and its span
    /// metrics (`trace::Spans::into_metrics`).
    pub traced: T,
}

fn timed<X>(f: impl FnOnce() -> X) -> (X, f64) {
    let t = Instant::now();
    let x = f();
    (x, t.elapsed().as_secs_f64())
}

/// Runs the set-up rounds; returns the reference digest (or the first
/// failure) and the set-up time.
fn setup(start: Instant, reps: usize, round: &impl Fn() -> Checked) -> (Checked, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut reference: Option<Checked> = None;
    for i in 0..reps {
        let (out, secs) = timed(round);
        // The first repetition also pays process start and input
        // generation: measure it from `start`.
        times.push(if i == 0 {
            start.elapsed().as_secs_f64()
        } else {
            secs
        });
        reference = Some(match (reference, out) {
            (None, out) => out,
            (Some(Ok(a)), Ok(b)) if a == b => Ok(a),
            (Some(Ok(a)), Ok(b)) => Err(format!("set-up rounds disagree: {a} vs {b}")),
            (Some(Err(e)), _) | (Some(Ok(_)), Err(e)) => Err(e),
        });
    }
    (
        reference.expect("at least one set-up round"),
        median(&times),
    )
}

/// Runs a batch workload for `seconds` and returns its end-to-end
/// metrics (`trace = false`) or its per-layer metrics (`trace = true`).
pub fn run<R, T>(start: Instant, seconds: f64, trace: bool, b: Batch<R, T>) -> Outcome
where
    R: Fn() -> Checked,
    T: Fn() -> (Checked, BTreeMap<String, f64>),
{
    let budget = Duration::from_secs_f64(seconds);
    let reps = if trace { 1 } else { SETUP_REPS };
    let (reference, setup_s) = setup(start, reps, &b.round);
    let mut out = Outcome::default();
    let reference = match reference {
        Ok(d) => d,
        Err(e) => {
            out.attempted += b.units as u64;
            out.failed += b.units as u64;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    out.info("digest", reference.clone());
    let check = |out: &mut Outcome, got: Checked| {
        out.attempted += b.units as u64;
        match got {
            Ok(d) if d == reference => {}
            Ok(d) => {
                out.failed += b.units as u64;
                out.fail(format!("digest {d} differs from the reference {reference}"));
            }
            Err(e) => {
                out.failed += b.units as u64;
                out.fail(e);
            }
        }
    };

    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rounds = Vec::new();
    while walls.is_empty() || t0.elapsed() < budget {
        let (got, secs) = timed(&b.round);
        check(&mut out, got);
        walls.push(secs);
        if trace {
            let ((got, metrics), secs) = timed(&b.traced);
            check(&mut out, got);
            traced_walls.push(secs);
            rounds.push(metrics);
        }
    }
    out.info("rounds", walls.len());

    if trace {
        let mut m = trace::mean_rounds(&rounds);
        let (wall_u, wall_t) = (
            crate::stats::mean(&walls),
            crate::stats::mean(&traced_walls),
        );
        m.insert("trace.wall.ms".to_string(), wall_t * 1e3);
        m.insert("trace.overhead.ms".to_string(), (wall_t - wall_u) * 1e3);
        let covered = 1.0 - m["unattributed.ms"] / (wall_t * 1e3);
        m.insert("span_coverage".to_string(), covered);
        out.info("untraced_wall_ms", wall_u * 1e3);
        out.layers = m;
        return out;
    }

    let rates: Vec<f64> = walls.iter().map(|s| b.units / s).collect();
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let (p, tail_ms) = tail(&ms);
    out.info("latency_samples", ms.len());
    out.info("latency_tail_percentile", p);
    out.e2e("ops_per_s", median(&rates));
    out.e2e("latency_p50_ms", median(&ms));
    out.e2e("latency_p99_ms", tail_ms);
    out.e2e("setup_s", setup_s);
    out
}
