//! Per-qubit gate decomposition for DigiQ_opt (§V-A).
//!
//! A DigiQ_opt controller cycle broadcasts the stored Ry(π/2) bitstream
//! delayed by a per-cycle value `d`, realizing (in the qubit frame)
//! `Rz(−θ_d)·Ubs·Rz(θ_d)` with `θ_d = d·2π·f·T_clk`. Chaining `L` cycles
//! and absorbing the trailing rotation into the next gate, an arbitrary
//! target is approximated as
//!
//! ```text
//! U ≈ Rz(φ_out)·Ubs·Rz(θ_{d_{L-1}})·…·Ubs·Rz(θ_{d_0} + φ_in)
//! ```
//!
//! where `φ_in` is the residual absorbed from the previous gate (free,
//! tracked by the compiler), `φ_out` is this gate's own residual, and each
//! middle angle is quantized to the qubit's 256 reachable delay phases.
//! The search "chooses sets of delays holistically … numerically searching
//! for the best combination" — here an exact enumeration over delay
//! tuples with the two boundary rotations maximized in closed form, using
//! `L ≤ 2` and escalating to `L = 3` for near-π rotations exactly as the
//! paper reports.

use qsim::complex::C64;
use qsim::matrix::CMat;
use std::f64::consts::PI;

/// The calibrated per-qubit basis for DigiQ_opt decomposition.
#[derive(Debug, Clone)]
pub struct OptBasis {
    /// Qubit-subspace block (2×2, sub-unitary with leakage) of the basis
    /// operation this qubit's shared bitstream actually implements.
    pub ubs: CMat,
    /// Reachable delay phase per clock tick: `2π·f_actual·T_clk mod 2π`.
    pub phase_per_tick: f64,
    /// Number of delay steps `N` (256 phases including zero).
    pub n_delays: usize,
}

impl OptBasis {
    /// Builds the basis from a 6-level basis operation (projecting the
    /// qubit block) and the qubit's actual frequency.
    ///
    /// # Panics
    ///
    /// Panics if the basis op is smaller than 2×2.
    pub fn new(ubs_full: &CMat, actual_freq_ghz: f64, clock_ns: f64, n_delays: usize) -> Self {
        assert!(ubs_full.rows() >= 2);
        OptBasis {
            ubs: ubs_full.top_left_block(2),
            phase_per_tick: (2.0 * PI * actual_freq_ghz * clock_ns).rem_euclid(2.0 * PI),
            n_delays,
        }
    }

    /// The idealized basis (exact Ry(π/2), no drift) — the reference point
    /// of §V-A's "in the ideal case, L ≤ 2 is enough".
    pub fn ideal(n_delays: usize) -> Self {
        OptBasis {
            ubs: qsim::gates::ry(PI / 2.0),
            // Uniform coverage: exactly the 256-point lattice.
            phase_per_tick: 2.0 * PI * 63.0 / 256.0,
            n_delays,
        }
    }

    /// Reachable Rz angle for delay `d`.
    pub fn theta(&self, d: usize) -> f64 {
        (d as f64 * self.phase_per_tick).rem_euclid(2.0 * PI)
    }
}

/// An opt-mode decomposition: delays for each Ubs firing plus boundary
/// rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct OptDecomposition {
    /// Delay value before each Ubs firing (`L = delays.len()` cycles).
    pub delays: Vec<u16>,
    /// Continuous rotation folded into the *incoming* residual (already
    /// includes the provided `phi_in`).
    pub phi_in_used: f64,
    /// Residual rotation handed to the next gate.
    pub phi_out: f64,
    /// Average gate error of the realized operation vs. the target.
    pub error: f64,
}

impl OptDecomposition {
    /// Number of controller cycles consumed.
    pub fn cycles(&self) -> usize {
        self.delays.len()
    }
}

/// `Rz(θ)` as a 2×2 matrix (local helper).
fn rzm(theta: f64) -> CMat {
    qsim::gates::rz(theta)
}

/// Row-major scalar 2×2 product `a·b` — the decomposition scans run
/// millions of these, so they stay on the stack instead of going through
/// heap-backed `CMat`s.
#[inline]
fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Scales the columns of a row-major 2×2 by a diagonal `(z0, z1)` — i.e.
/// `a · diag(z0, z1)`.
#[inline]
fn col_scale2(a: &[C64; 4], z0: C64, z1: C64) -> [C64; 4] {
    [a[0] * z0, a[1] * z1, a[2] * z0, a[3] * z1]
}

/// Fidelity of `Rz(φ_out)·M` vs the target maximized over `φ_out` in
/// closed form: `max_φ |tr(T†·Rz(φ)·M)| = |(M·T†)₀₀| + |(M·T†)₁₁|`.
///
/// `td` is the target's dagger (row-major), hoisted out by the caller.
/// Returns the fidelity plus the two diagonal entries `a`, `b` of `M·T†`;
/// the optimal phase `φ = arg(a) − arg(b)` is derived lazily for the
/// winning candidate only (two `atan2`s per decomposition instead of two
/// per scan entry).
#[inline]
fn fid_free_out2(m: &[C64; 4], td: &[C64; 4]) -> (f64, C64, C64) {
    let a = m[0] * td[0] + m[1] * td[2];
    let b = m[2] * td[1] + m[3] * td[3];
    let overlap = a.abs2().sqrt() + b.abs2().sqrt();
    let mm = m[0].abs2() + m[1].abs2() + m[2].abs2() + m[3].abs2();
    let fid = ((mm + overlap * overlap) / 6.0).clamp(0.0, 1.0);
    (fid, a, b)
}

/// Row-major 2×2 blocks (or diagonals, `K = 2`) stored as a struct of
/// arrays: `re[k][i]`/`im[k][i]` hold entry `k` of element `i`, so a map
/// over `i` loads whole vectors instead of gathering from an array of
/// structs.
#[derive(Debug, Clone)]
struct Soa<const K: usize> {
    re: [Vec<f64>; K],
    im: [Vec<f64>; K],
}

impl<const K: usize> Soa<K> {
    fn build(items: impl IntoIterator<Item = [C64; K]>) -> Self {
        let mut soa = Soa {
            re: std::array::from_fn(|_| Vec::new()),
            im: std::array::from_fn(|_| Vec::new()),
        };
        for item in items {
            for (k, z) in item.into_iter().enumerate() {
                soa.re[k].push(z.re);
                soa.im[k].push(z.im);
            }
        }
        soa
    }

    #[inline]
    fn get(&self, i: usize) -> [C64; K] {
        std::array::from_fn(|k| C64::new(self.re[k][i], self.im[k][i]))
    }

    /// The columns cut to `n` entries, so a loop over `0..n` indexes them
    /// without bounds checks.
    #[inline]
    fn cut(&self, n: usize) -> ([&[f64]; K], [&[f64]; K]) {
        (
            self.re.each_ref().map(|c| &c[..n]),
            self.im.each_ref().map(|c| &c[..n]),
        )
    }
}

/// Precomputed per-basis tables for [`decompose_opt`]: the reachable
/// angles plus the basis products every scan re-derives — `G·Rz(θ_d)` and
/// `W(d) = G·Rz(θ_d)·G` for all `n_delays + 1` delay values.
///
/// Building the tables is one pass over the delay lattice. Batched
/// callers (the error model decomposes 24 targets per qubit against one
/// basis) build the tables once and reuse them. Each decomposition
/// against them allocates its own scratch, with `N = n_delays`: the
/// incoming-boundary diagonals (4·(N+1) f64) and one row of N+1 errors;
/// from L = 2 on, the N+1 row floors with their delays and the 96 kept
/// L=2 candidates. That is about 16 KiB at N = 255, whatever `L`.
#[derive(Debug, Clone)]
pub struct OptTables {
    /// θ_d for `d ∈ [0, n_delays]`.
    thetas: Vec<f64>,
    /// The 2×2 basis block `G`, row-major.
    g: [C64; 4],
    /// `G·Rz(θ_d)` per delay, as a struct of arrays for the L=3 scan.
    gz: Soa<4>,
    /// `W(d) = G·Rz(θ_d)·G` per delay.
    w: Vec<[C64; 4]>,
}

impl OptTables {
    /// Builds the delay tables for a basis.
    pub fn build(basis: &OptBasis) -> Self {
        let g = [
            basis.ubs[(0, 0)],
            basis.ubs[(0, 1)],
            basis.ubs[(1, 0)],
            basis.ubs[(1, 1)],
        ];
        let thetas: Vec<f64> = (0..=basis.n_delays).map(|d| basis.theta(d)).collect();
        let gz: Vec<[C64; 4]> = thetas
            .iter()
            .map(|&th| col_scale2(&g, C64::cis(-th / 2.0), C64::cis(th / 2.0)))
            .collect();
        let w: Vec<[C64; 4]> = gz.iter().map(|gzd| mul2(gzd, &g)).collect();
        OptTables {
            thetas,
            g,
            gz: Soa::build(gz),
            w,
        }
    }

    /// Number of delay steps `N` (the tables cover `d ∈ [0, N]`).
    pub fn n_delays(&self) -> usize {
        self.thetas.len() - 1
    }
}

/// L = 2 stems kept from the best of the L=2 scan.
const L3_STEMS: usize = 96;

/// Slack on every [`error_floor`] skip, far above the f64 rounding of the
/// O(1) sums on either side: a candidate is skipped only when it cannot
/// win or be kept.
const MARGIN: f64 = 1e-9;

/// The `S` of an L=2 row's floor: `M = W(d1)·Rz(θ)·I`.
const IDENTITY: [C64; 4] = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];

/// A lower bound on the error [`fid_free_out2`] gives `M = A·Rz(θ)·S`
/// against `td = T†`, over every angle `θ`.
///
/// With `P = S·T†` and `Rz(θ) = diag(z0, z1)`, the two overlap terms are
/// `a = A00·z0·P00 + A01·z1·P10` and `b = A10·z0·P01 + A11·z1·P11`, so
/// `|a|² + |b|² = c + 2·Re(e^{−iθ}·κ) ≤ c + 2|κ|`, and likewise
/// `‖M‖²_F ≤ c' + 2|κ'|`. With `(|a| + |b|)² ≤ 2(|a|² + |b|²)` the
/// fidelity is at most `(c' + 2|κ'| + 2(c + 2|κ|))/6`. This is exact
/// algebra, for any 2×2 `A` and `S` (unitary or leaky), at O(1) cost. A
/// NaN anywhere in `A`, `S` or `T` makes the floor NaN, which never skips.
fn error_floor(a: &[C64; 4], s: &[C64; 4], td: &[C64; 4]) -> f64 {
    let p = mul2(s, td);
    let (x0, x1) = (a[0] * p[0], a[1] * p[2]);
    let (y0, y1) = (a[2] * p[1], a[3] * p[3]);
    let c = x0.abs2() + x1.abs2() + y0.abs2() + y1.abs2();
    let kappa = x0 * x1.conj() + y0 * y1.conj();
    let c_norm = (a[0].abs2() + a[2].abs2()) * (s[0].abs2() + s[1].abs2())
        + (a[1].abs2() + a[3].abs2()) * (s[2].abs2() + s[3].abs2());
    let kappa_norm =
        (a[0] * a[1].conj() + a[2] * a[3].conj()) * (s[0] * s[2].conj() + s[1] * s[3].conj());
    1.0 - (c_norm + 2.0 * kappa_norm.abs() + 2.0 * (c + 2.0 * kappa.abs())) / 6.0
}

/// Errors of `M = left·Rz(θ_{d0} + φ_in)` for every `d0`: `out[d0]`, the
/// L=1 row (`left = G`) or one L=2 row (`left = W(d1)`). `zin` holds the
/// incoming diagonals. A loop of its own, so that it vectorizes.
#[inline(never)]
fn row_errors(left: &[C64; 4], zin: &Soa<2>, td: &[C64; 4], out: &mut [f64]) {
    let (re, im) = zin.cut(out.len());
    for (i, e) in out.iter_mut().enumerate() {
        let z0 = C64::new(re[0][i], im[0][i]);
        let z1 = C64::new(re[1][i], im[1][i]);
        *e = 1.0 - fid_free_out2(&col_scale2(left, z0, z1), td).0;
    }
}

/// Errors of `M = G·Rz(θ_{d2})·stem` for every `d2`: `out[d2]`, one L=3
/// stem. A loop of its own, so that it vectorizes.
#[inline(never)]
fn stem_errors(gz: &Soa<4>, stem: &[C64; 4], td: &[C64; 4], out: &mut [f64]) {
    let (re, im) = gz.cut(out.len());
    for (i, e) in out.iter_mut().enumerate() {
        let gzd = std::array::from_fn(|k| C64::new(re[k][i], im[k][i]));
        *e = 1.0 - fid_free_out2(&mul2(&gzd, stem), td).0;
    }
}

/// `(error, scan index)` key order: `f64::total_cmp`, then index — the
/// order of a stable sort by error.
fn key_lt(x: (f64, usize), y: (f64, usize)) -> bool {
    x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).is_lt()
}

/// The `L3_STEMS` smallest keys offered so far, in [`key_lt`] order. For
/// any offer order this is the first `L3_STEMS` of a stable sort by error.
struct Kept(Vec<(f64, usize)>);

impl Kept {
    fn new() -> Self {
        Kept(Vec::with_capacity(L3_STEMS))
    }

    fn offer(&mut self, key: (f64, usize)) {
        let full = self.0.len() == L3_STEMS;
        if full && !key_lt(key, self.0[L3_STEMS - 1]) {
            return;
        }
        let at = self.0.partition_point(|&k| key_lt(k, key));
        if full {
            self.0.pop();
        }
        self.0.insert(at, key);
    }

    /// Once full, the largest kept error: every error above it is out.
    fn cutoff(&self) -> Option<f64> {
        (self.0.len() == L3_STEMS).then(|| self.0[L3_STEMS - 1].0)
    }
}

/// The sequential argmin: scans `errs` in order, lowering `best` at every
/// strict improvement, and returns the index of the last improvement (the
/// first minimum), if any.
fn first_min(errs: &[f64], best: &mut f64) -> Option<usize> {
    let mut win = None;
    for (i, &err) in errs.iter().enumerate() {
        if err < *best {
            *best = err;
            win = Some(i);
        }
    }
    win
}

/// Decomposes `target` (2×2 unitary) on the given basis, consuming an
/// incoming residual `phi_in`, with at most `max_cycles` Ubs firings.
/// Stops early once `err_target` is met; always returns the best found.
///
/// Builds the delay tables on the fly; callers decomposing many targets
/// against one basis should build [`OptTables`] once and call
/// [`decompose_opt_with`].
///
/// # Panics
///
/// Panics if `max_cycles == 0` or `target` is not 2×2.
pub fn decompose_opt(
    target: &CMat,
    basis: &OptBasis,
    phi_in: f64,
    max_cycles: usize,
    err_target: f64,
) -> OptDecomposition {
    decompose_opt_with(
        &OptTables::build(basis),
        target,
        phi_in,
        max_cycles,
        err_target,
    )
}

/// [`decompose_opt`] against prebuilt delay tables.
///
/// Ties: the first minimum in scan order wins — L = 1 before L = 2
/// before L = 3, and within a level `d0` fastest, then `d1`, then the
/// stem order (kept L=2 stems by error, ties by scan order, then the
/// coarse grid), then `d2`. A later candidate replaces the best only
/// when its error is strictly lower.
///
/// Both wide scans are pruned by a closed-form floor on the error over a
/// whole delay row (see `error_floor`), without changing any result bit:
///
/// - L = 2 visits the rows `d1` by ascending floor, keeps the best 96
///   `(error, scan index)` keys seen so far, and skips a row whose floor
///   exceeds the 96th key by more than a 1e-9 margin. Such a row holds no
///   kept stem and no winner, so the scanned entries give the same
///   winner (the lowest scan index among the minima) and the same stems.
/// - L = 3 skips a stem whose floor exceeds the best error so far by the
///   same margin: none of its `d2` could be strictly better.
///
/// # Panics
///
/// Panics if `max_cycles == 0` or `target` is not 2×2.
pub fn decompose_opt_with(
    tables: &OptTables,
    target: &CMat,
    phi_in: f64,
    max_cycles: usize,
    err_target: f64,
) -> OptDecomposition {
    assert!(max_cycles >= 1);
    assert_eq!((target.rows(), target.cols()), (2, 2));
    let n = tables.n_delays();
    let td = [
        target[(0, 0)].conj(),
        target[(1, 0)].conj(),
        target[(0, 1)].conj(),
        target[(1, 1)].conj(),
    ];
    // Incoming boundary diagonal per d0: Rz(θ_{d0} + φ_in).
    let zin = Soa::build(tables.thetas.iter().map(|&th| {
        let z = th + phi_in;
        [C64::cis(-z / 2.0), C64::cis(z / 2.0)]
    }));
    // `M = left·Rz(θ_{d0} + φ_in)` with the ops of `row_errors`, for the
    // winner of a row scan.
    let row_entry = |left: &[C64; 4], d0: usize| {
        let [z0, z1] = zin.get(d0);
        col_scale2(left, z0, z1)
    };

    // Best candidate so far: delay tuple + the M·T† diagonal that yields
    // its φ_out (converted to an angle once, at the end). Each scan fills
    // an error buffer, and only its winner's diagonal is recomputed.
    let mut best_delays = ([0u16; 3], 1u8);
    let mut best_ab = (C64::ONE, C64::ONE);
    let mut best_err = f64::INFINITY;
    let mut row = vec![0.0; n + 1];

    // L = 1: M = G·Rz(θ_{d0} + φ_in).
    row_errors(&tables.g, &zin, &td, &mut row);
    if let Some(d0) = first_min(&row, &mut best_err) {
        let (_, a, b) = fid_free_out2(&row_entry(&tables.g, d0), &td);
        best_delays = ([d0 as u16, 0, 0], 1);
        best_ab = (a, b);
    }
    let finish = |delays: ([u16; 3], u8), (a, b): (C64, C64), error: f64| OptDecomposition {
        delays: delays.0[..delays.1 as usize].to_vec(),
        phi_in_used: phi_in,
        phi_out: a.arg() - b.arg(),
        error,
    };
    if best_err <= err_target || max_cycles == 1 {
        return finish(best_delays, best_ab, best_err);
    }

    // L = 2: M = W(d1)·Rz(θ_{d0}+φ_in) with W = G·Rz·G prebuilt, at scan
    // index `d1·(n+1) + d0`. Rows go in ascending floor order, so the
    // kept keys, and with them the cutoff, tighten early.
    let mut rows: Vec<(f64, usize)> = tables
        .w
        .iter()
        .map(|wm| error_floor(wm, &IDENTITY, &td))
        .zip(0..)
        .collect();
    rows.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut kept = Kept::new();
    let mut win2 = None;
    for (floor, d1) in rows {
        if kept.cutoff().is_some_and(|cut| floor > cut + MARGIN) {
            continue;
        }
        row_errors(&tables.w[d1], &zin, &td, &mut row);
        for (d0, &err) in row.iter().enumerate() {
            let i = d1 * (n + 1) + d0;
            // `first_min` over the scan order: strictly below the L=1
            // best, the lowest index among equal errors.
            if err < best_err || (err == best_err && win2.is_some_and(|w| i < w)) {
                best_err = err;
                win2 = Some(i);
            }
            kept.offer((err, i));
        }
    }
    if let Some(i) = win2 {
        let (d0, d1) = (i % (n + 1), i / (n + 1));
        let (_, a, b) = fid_free_out2(&row_entry(&tables.w[d1], d0), &td);
        best_delays = ([d0 as u16, d1 as u16, 0], 2);
        best_ab = (a, b);
    }
    if best_err <= err_target || max_cycles == 2 {
        return finish(best_delays, best_ab, best_err);
    }

    // L = 3 (the paper: "a subset of gates nearing π rotations … need
    // L = 3"): extend the best L=2 stems, plus a coarse uniform stem grid
    // (the optimal L=3 region need not contain any good L=2 prefix).
    let stems = kept.0.iter().map(|&(_, i)| (i % (n + 1), i / (n + 1)));
    let grid = (0..=n)
        .step_by(8)
        .flat_map(|d0| (0..=n).step_by(8).map(move |d1| (d0, d1)));
    for (d0, d1) in stems.chain(grid) {
        let stem = row_entry(&tables.w[d1], d0);
        if error_floor(&tables.g, &stem, &td) > best_err + MARGIN {
            continue;
        }
        stem_errors(&tables.gz, &stem, &td, &mut row);
        if let Some(d2) = first_min(&row, &mut best_err) {
            let (_, a, b) = fid_free_out2(&mul2(&tables.gz.get(d2), &stem), &td);
            best_delays = ([d0 as u16, d1 as u16, d2 as u16], 3);
            best_ab = (a, b);
        }
        if best_err <= err_target {
            break;
        }
    }
    // Local refinement of the winning tuple: coordinate descent over ±4
    // neighbourhoods (closes the gap the coarse stem grid leaves).
    if best_delays.1 == 3 {
        let mut improved = true;
        while improved {
            improved = false;
            for pos in 0..3 {
                let center = best_delays.0[pos] as i64;
                for delta in -4i64..=4 {
                    let cand = center + delta;
                    if cand < 0 || cand as usize > n || cand == center {
                        continue;
                    }
                    let mut delays = best_delays.0;
                    delays[pos] = cand as u16;
                    let mut m = row_entry(&tables.g, delays[0] as usize);
                    for &d in &delays[1..] {
                        m = mul2(&tables.gz.get(d as usize), &m);
                    }
                    let (fid, a, b) = fid_free_out2(&m, &td);
                    let err = 1.0 - fid;
                    if err < best_err {
                        best_delays = (delays, 3);
                        best_ab = (a, b);
                        best_err = err;
                        improved = true;
                    }
                }
            }
        }
    }
    finish(best_delays, best_ab, best_err)
}

/// Reconstructs the 2×2 operation a decomposition realizes (including the
/// boundary rotations) — used by tests and the error model.
pub fn realize_opt(basis: &OptBasis, dec: &OptDecomposition) -> CMat {
    let mut m = rzm(dec.phi_in_used + basis.theta(dec.delays[0] as usize));
    m = basis.ubs.matmul(&m);
    for &d in &dec.delays[1..] {
        m = basis.ubs.matmul(&rzm(basis.theta(d as usize))).matmul(&m);
    }
    rzm(dec.phi_out).matmul(&m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::fidelity::average_gate_error;
    use qsim::gates;

    fn ideal() -> OptBasis {
        OptBasis::ideal(255)
    }

    #[test]
    fn ideal_basis_decomposes_standard_gates_in_two_cycles() {
        // §V-A: "in the ideal case (Ubs = Ry(π/2)), L ≤ 2 is enough for
        // all single-qubit gates" at ~1e-4 error.
        for (name, g) in [
            ("H", gates::h()),
            ("T", gates::t()),
            ("S", gates::s()),
            ("Rx(0.7)", gates::rx(0.7)),
            ("U", gates::u_zyz(1.1, 0.4, -0.9)),
        ] {
            let dec = decompose_opt(&g, &ideal(), 0.0, 2, 1e-4);
            assert!(
                dec.error < 2e-4,
                "{name}: error {:.2e} with {} cycles",
                dec.error,
                dec.cycles()
            );
            // Realized operation matches within the reported error.
            let m = realize_opt(&ideal(), &dec);
            let direct = average_gate_error(&m, &g);
            assert!((direct - dec.error).abs() < 1e-9, "{name} bookkeeping");
        }
    }

    #[test]
    fn diagonal_gates_need_one_cycle_wait_no_they_need_zero_ubs() {
        // Rz targets: with free boundary rotations even L=1 works — the
        // firing is absorbed by the boundaries.
        let dec = decompose_opt(&gates::rz(0.37), &ideal(), 0.0, 2, 1e-4);
        assert!(dec.error < 1e-4);
    }

    #[test]
    fn near_pi_rotations_benefit_from_l3() {
        // On a *drifted* basis, X/Y-like gates are the hard cases (§V-A);
        // L = 3 must do at least as well as L = 2.
        let drifted = OptBasis {
            ubs: gates::rz(0.21)
                .matmul(&gates::ry(PI / 2.0 + 0.07))
                .matmul(&gates::rz(-0.13)),
            phase_per_tick: 2.0 * PI * 0.2487,
            n_delays: 255,
        };
        let x = gates::x();
        let l2 = decompose_opt(&x, &drifted, 0.0, 2, 0.0);
        let l3 = decompose_opt(&x, &drifted, 0.0, 3, 0.0);
        assert!(l3.error <= l2.error + 1e-12);
        assert!(l3.error < 1e-3, "L3 error {:.2e}", l3.error);
    }

    #[test]
    fn phi_in_is_honoured() {
        // A nonzero incoming residual must be folded in exactly.
        let g = gates::h();
        let dec = decompose_opt(&g, &ideal(), 0.83, 2, 1e-5);
        let m = realize_opt(&ideal(), &dec);
        assert!((average_gate_error(&m, &g) - dec.error).abs() < 1e-9);
        assert!(dec.error < 2e-4);
        assert_eq!(dec.phi_in_used, 0.83);
    }

    #[test]
    fn delays_in_range() {
        let dec = decompose_opt(&gates::t(), &ideal(), 0.0, 3, 1e-6);
        for &d in &dec.delays {
            assert!((d as usize) <= 255);
        }
    }

    #[test]
    fn best_indices_are_a_stable_sort_prefix() {
        // Few distinct values (signed zeros and NaNs among them) give many
        // ties across the cut; lengths straddle the kept count. The keys
        // are offered in scan order and in a seeded row-shuffled order, as
        // the pruned L=2 scan offers them.
        let mut rng = qsim::rng::StdRng::seed_from_u64(0x57E4);
        let values = [
            0.5,
            0.25,
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            1e-3,
            0.5,
            f64::INFINITY,
        ];
        for len in [0, 1, 7, 95, 96, 97, 200, 4096] {
            for levels in [1, 3, values.len()] {
                let errs: Vec<f64> = (0..len)
                    .map(|_| values[rng.gen_range(0..levels as u64) as usize])
                    .collect();
                let mut want: Vec<usize> = (0..len).collect();
                want.sort_by(|&i, &j| errs[i].total_cmp(&errs[j]));
                want.truncate(L3_STEMS);
                let keys: Vec<(f64, usize)> = errs.iter().copied().zip(0..).collect();
                let mut rows: Vec<&[(f64, usize)]> = keys.chunks(16).collect();
                let scan = rows.clone();
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.gen_range(0..=i as u64) as usize);
                }
                for (order, label) in [(scan, "scan"), (rows, "shuffled")] {
                    let mut kept = Kept::new();
                    order.into_iter().flatten().for_each(|&k| kept.offer(k));
                    let got: Vec<usize> = kept.0.iter().map(|k| k.1).collect();
                    assert_eq!(got, want, "len {len}, {levels} levels, {label} order");
                }
            }
        }
    }

    /// `Rz(a)·Ry(π/2 + b)·diag(s0, s1)·Rz(c)`: a drifted basis with
    /// uneven leakage, each `s` in `[0.9, 1]`.
    fn leaky(rng: &mut qsim::rng::StdRng, n_delays: usize) -> OptBasis {
        let mut angle = |span: f64| rng.gen_range(-span..span);
        let (a, b, c) = (angle(0.3), angle(0.1), angle(0.3));
        let (s0, s1) = (1.0 - angle(0.1).abs(), 1.0 - angle(0.1).abs());
        OptBasis {
            ubs: gates::rz(a)
                .matmul(&gates::ry(PI / 2.0 + b))
                .matmul(&CMat::diag(&[C64::real(s0), C64::real(s1)]))
                .matmul(&gates::rz(c)),
            phase_per_tick: rng.gen_range(0.0..2.0 * PI),
            n_delays,
        }
    }

    #[test]
    fn error_floor_bounds_every_row_and_stem() {
        // Every L=2 row error and L=3 stem error must sit on or above its
        // floor (up to rounding), and the floor must bite somewhere, or the
        // pruning would skip nothing.
        let mut rng = qsim::rng::StdRng::seed_from_u64(0xF100_0001);
        let mut biting = 0;
        for _ in 0..4 {
            let basis = leaky(&mut rng, 63);
            let tables = OptTables::build(&basis);
            let n = tables.n_delays();
            for target in [
                gates::x(),
                gates::h(),
                gates::t(),
                gates::u_zyz(0.9, -0.4, 2.1),
            ] {
                let phi_in = rng.gen_range(-PI..PI);
                let td = [
                    target[(0, 0)].conj(),
                    target[(1, 0)].conj(),
                    target[(0, 1)].conj(),
                    target[(1, 1)].conj(),
                ];
                let zin = Soa::build(tables.thetas.iter().map(|&th| {
                    let z = th + phi_in;
                    [C64::cis(-z / 2.0), C64::cis(z / 2.0)]
                }));
                let mut row = vec![0.0; n + 1];
                for wm in &tables.w {
                    let floor = error_floor(wm, &IDENTITY, &td);
                    row_errors(wm, &zin, &td, &mut row);
                    assert!(row.iter().all(|&e| e >= floor - 1e-12), "row floor {floor}");
                    biting += usize::from(floor > 0.0);
                }
                for _ in 0..32 {
                    let (d0, d1) = (
                        rng.gen_range(0..=n as u64) as usize,
                        rng.gen_range(0..=n as u64) as usize,
                    );
                    let [z0, z1] = zin.get(d0);
                    let stem = col_scale2(&tables.w[d1], z0, z1);
                    let floor = error_floor(&tables.g, &stem, &td);
                    stem_errors(&tables.gz, &stem, &td, &mut row);
                    assert!(
                        row.iter().all(|&e| e >= floor - 1e-12),
                        "stem floor {floor}"
                    );
                    biting += usize::from(floor > 0.0);
                }
            }
        }
        assert!(biting > 100, "only {biting} floors above zero");
    }

    #[test]
    fn drift_degrades_then_recalibration_recovers() {
        // Same bitstream on a drifted qubit: using the *nominal* basis
        // matrices to compile gives larger realized error than compiling
        // against the measured (actual) basis — the essence of §V-A.
        let nominal = ideal();
        let actual = OptBasis {
            ubs: gates::rz(0.15)
                .matmul(&gates::ry(PI / 2.0 + 0.05))
                .matmul(&gates::rz(0.08)),
            phase_per_tick: nominal.phase_per_tick + 0.006,
            n_delays: 255,
        };
        let target = gates::h();
        // Compile against nominal, run on actual.
        let dec_stale = decompose_opt(&target, &nominal, 0.0, 2, 1e-6);
        let realized_stale = realize_opt(
            &OptBasis {
                ubs: actual.ubs.clone(),
                ..nominal.clone()
            },
            &dec_stale,
        );
        let stale_err = average_gate_error(&realized_stale, &target);
        // Compile against actual.
        let dec_fresh = decompose_opt(&target, &actual, 0.0, 3, 1e-6);
        assert!(
            dec_fresh.error < stale_err,
            "recalibration should win: fresh {:.2e} vs stale {:.2e}",
            dec_fresh.error,
            stale_err
        );
        assert!(dec_fresh.error < 1e-3);
    }
}
