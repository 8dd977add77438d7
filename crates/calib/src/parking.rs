//! Parking-frequency analysis for delay-implemented Rz gates (Table II).
//!
//! DigiQ_opt performs `Rz(φ)` by letting the qubit evolve freely for
//! `d ∈ [0, N]` SFQ clock cycles, reaching phases `θ_d = d·2π·f·T mod 2π`
//! (§IV-A2). How well those `N+1` phases cover the unit circle — and how
//! robustly under frequency drift — depends on the qubit frequency. The
//! paper "chooses target frequencies with the highest tolerance for
//! variation, as measured by the width of the interval in which any φ can
//! be approximated with < 10⁻⁴ error" (§V-A); this module reproduces that
//! search and hence Table II.
//!
//! The error of approximating `Rz(φ)` by the nearest available phase with
//! offset `Δ` is `ε = (2/3)·sin²(Δ/2)`; the worst-case target sits mid-gap,
//! so a phase set with maximum circular gap `g` yields
//! `ε_worst = (2/3)·sin²(g/4)`.
//!
//! # Examples
//!
//! ```
//! use calib::parking::worst_rz_error;
//!
//! // At an ideal parking frequency the 256 phases are nearly uniform:
//! // ε ≈ (2/3)·sin²(2π/256/4) ≈ 0.25e-4 — the paper's §V-A number.
//! let eps = worst_rz_error(6.21286, 0.040, 255);
//! assert!(eps < 1.0e-4);
//! ```

use std::f64::consts::PI;

/// Default delay-count: `N = 255` (256 phases including `d = 0`), §V-A.
pub const DEFAULT_N_DELAYS: usize = 255;

/// Error of an `Rz` approximation with phase offset `delta`:
/// `ε = (2/3)·sin²(Δ/2)` (average gate infidelity of `Rz(Δ)` vs identity).
pub fn rz_error_for_offset(delta: f64) -> f64 {
    let s = (delta / 2.0).sin();
    (2.0 / 3.0) * s * s
}

/// The set of reachable Rz phases `{d·2π·f·T mod 2π : d = 0..=n}`,
/// sorted ascending.
pub fn delay_phases(freq_ghz: f64, clock_ns: f64, n_delays: usize) -> Vec<f64> {
    let per_tick = 2.0 * PI * freq_ghz * clock_ns;
    let mut phases: Vec<f64> = (0..=n_delays)
        .map(|d| (d as f64 * per_tick).rem_euclid(2.0 * PI))
        .collect();
    phases.sort_by(|a, b| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
    phases
}

/// Maximum circular gap of the reachable phase set.
pub fn max_phase_gap(freq_ghz: f64, clock_ns: f64, n_delays: usize) -> f64 {
    let phases = delay_phases(freq_ghz, clock_ns, n_delays);
    let mut gap: f64 = 0.0;
    for w in phases.windows(2) {
        gap = gap.max(w[1] - w[0]);
    }
    // Wrap-around gap.
    gap.max(2.0 * PI - phases.last().unwrap() + phases.first().unwrap())
}

/// Worst-case Rz error over all target angles at the given frequency.
pub fn worst_rz_error(freq_ghz: f64, clock_ns: f64, n_delays: usize) -> f64 {
    rz_error_for_offset(max_phase_gap(freq_ghz, clock_ns, n_delays) / 2.0)
}

/// Error of the *best* delay approximating a specific angle `phi`, and the
/// chosen delay.
pub fn best_delay_for_angle(
    phi: f64,
    freq_ghz: f64,
    clock_ns: f64,
    n_delays: usize,
) -> (usize, f64) {
    let per_tick = 2.0 * PI * freq_ghz * clock_ns;
    let target = phi.rem_euclid(2.0 * PI);
    let mut best = (0usize, f64::INFINITY);
    for d in 0..=n_delays {
        let theta = (d as f64 * per_tick).rem_euclid(2.0 * PI);
        let mut diff = (theta - target).abs();
        if diff > PI {
            diff = 2.0 * PI - diff;
        }
        let err = rz_error_for_offset(diff);
        if err < best.1 {
            best = (d, err);
        }
    }
    best
}

/// One row of Table II: an optimal parking frequency and its drift
/// tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkingFrequency {
    /// Center frequency in GHz.
    pub freq_ghz: f64,
    /// Half-width (±) of the interval where the worst-case Rz error stays
    /// below the search threshold, in GHz.
    pub drift_tolerance_ghz: f64,
    /// Worst-case Rz error at the center frequency.
    pub center_error: f64,
}

/// Searches a frequency band for parking frequencies: maximal sub-intervals
/// where `worst_rz_error ≤ err_threshold`, ranked by width (the paper's
/// "highest tolerance for variation"). Returns up to `max_results` rows,
/// widest first, each reported at the interval midpoint.
///
/// # Panics
///
/// Panics if the band is inverted or `step_ghz <= 0`.
pub fn parking_search(
    band_ghz: (f64, f64),
    clock_ns: f64,
    n_delays: usize,
    err_threshold: f64,
    step_ghz: f64,
    max_results: usize,
) -> Vec<ParkingFrequency> {
    assert!(band_ghz.0 < band_ghz.1 && step_ghz > 0.0);
    let n_steps = ((band_ghz.1 - band_ghz.0) / step_ghz).ceil() as usize;
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    let mut start: Option<f64> = None;
    for k in 0..=n_steps {
        let f = band_ghz.0 + k as f64 * step_ghz;
        let ok = f <= band_ghz.1 && worst_rz_error(f, clock_ns, n_delays) <= err_threshold;
        match (ok, start) {
            (true, None) => start = Some(f),
            (false, Some(s)) => {
                intervals.push((s, f - step_ghz));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        intervals.push((s, band_ghz.1));
    }

    let mut rows: Vec<ParkingFrequency> = intervals
        .into_iter()
        .filter(|(a, b)| b > a)
        .map(|(a, b)| {
            let center = 0.5 * (a + b);
            ParkingFrequency {
                freq_ghz: center,
                drift_tolerance_ghz: 0.5 * (b - a),
                center_error: worst_rz_error(center, clock_ns, n_delays),
            }
        })
        .collect();
    // Widest tolerance first; a NaN tolerance sorts last.
    rows.sort_by(|x, y| {
        let (a, b) = (x.drift_tolerance_ghz, y.drift_tolerance_ghz);
        a.is_nan().cmp(&b.is_nan()).then(b.total_cmp(&a))
    });
    rows.truncate(max_results);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_formula_matches_fidelity_identity() {
        // ε(Δ) must agree with qsim's average gate error of Rz(Δ) vs I.
        for delta in [0.01f64, 0.1, 0.5, 1.0] {
            let direct =
                qsim::fidelity::average_gate_error(&qsim::gates::rz(delta), &qsim::gates::id2());
            assert!((rz_error_for_offset(delta) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_coverage_error_bound() {
        // Perfectly uniform 256 phases: gap 2π/256, worst error
        // (2/3)sin²(2π/1024) ≈ 2.5e-5 — the paper's "N = 255 is sufficient
        // for error ≤ 0.25e-4".
        let ideal = rz_error_for_offset(2.0 * PI / 256.0 / 2.0);
        assert!((ideal - 0.25e-4).abs() < 0.05e-4, "ideal = {ideal:e}");
    }

    #[test]
    fn phases_count_and_range() {
        let p = delay_phases(6.21286, 0.040, 255);
        assert_eq!(p.len(), 256);
        assert!(p.iter().all(|&x| (0.0..2.0 * PI + 1e-12).contains(&x)));
        // Sorted.
        for w in p.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn nan_frequency_sorts_without_panicking() {
        // A NaN (or infinite) frequency makes every phase NaN; the sort
        // puts them last instead of panicking, and the gap stays defined.
        for freq in [f64::NAN, f64::INFINITY] {
            let p = delay_phases(freq, 0.040, 7);
            assert_eq!(p.len(), 8);
            assert!(p.iter().all(|x| x.is_nan()));
            let _ = max_phase_gap(freq, 0.040, 7);
        }
    }

    #[test]
    fn rational_frequency_gives_uniform_phases() {
        // f·T = 63/256 exactly ⇒ 256 equally spaced phases.
        let f = 63.0 / 256.0 / 0.040;
        let gap = max_phase_gap(f, 0.040, 255);
        assert!((gap - 2.0 * PI / 256.0).abs() < 1e-9, "gap = {gap}");
        assert!(worst_rz_error(f, 0.040, 255) <= 0.26e-4);
    }

    #[test]
    fn bad_frequency_has_poor_coverage() {
        // f·T = 1/4 exactly ⇒ only 4 distinct phases.
        let f = 0.25 / 0.040;
        let gap = max_phase_gap(f, 0.040, 255);
        assert!((gap - PI / 2.0).abs() < 1e-9);
        assert!(worst_rz_error(f, 0.040, 255) > 0.09);
    }

    #[test]
    fn paper_parking_frequency_is_good() {
        // Table II: 6.21286 GHz with ≤1e-4 Rz error at N = 255.
        let eps = worst_rz_error(6.21286, 0.040, 255);
        assert!(eps <= 1.0e-4, "eps = {eps:e}");
    }

    #[test]
    fn best_delay_finds_close_phase() {
        let (d, err) = best_delay_for_angle(1.234, 6.21286, 0.040, 255);
        assert!(d <= 255);
        assert!(err <= worst_rz_error(6.21286, 0.040, 255) + 1e-15);
    }

    #[test]
    fn search_finds_multiple_parking_bands() {
        // Scan the 4–6.5 GHz band like Table II (coarsened for test
        // speed).
        let rows = parking_search((4.0, 6.5), 0.040, 255, 1.0e-4, 2.0e-4, 8);
        assert!(!rows.is_empty(), "no parking frequencies found");
        for r in &rows {
            assert!(r.center_error <= 1.0e-4);
            assert!(r.drift_tolerance_ghz > 0.0);
            // The paper's tolerances are of order ±0.008 to ±0.013 GHz.
            assert!(r.drift_tolerance_ghz < 0.1);
        }
        // Sorted by tolerance descending.
        for w in rows.windows(2) {
            assert!(w[0].drift_tolerance_ghz >= w[1].drift_tolerance_ghz);
        }
    }

    #[test]
    fn tolerance_edges_really_fail() {
        let rows = parking_search((6.0, 6.4), 0.040, 255, 1.0e-4, 1.0e-4, 1);
        let r = rows[0];
        let outside = r.freq_ghz + r.drift_tolerance_ghz * 1.5;
        assert!(worst_rz_error(outside, 0.040, 255) > 1.0e-4);
    }
}
