//! Hermitian eigendecomposition via the cyclic Jacobi method.
//!
//! Hamiltonians in this crate are small (≤ 36×36) complex Hermitian
//! matrices. The classical Jacobi algorithm — repeatedly zeroing the largest
//! off-diagonal entries with complex plane rotations — converges
//! quadratically, is numerically backward-stable, and needs no external
//! LAPACK, which keeps the workspace dependency-free.
//!
//! Each complex rotation in the `(p, q)` plane first removes the phase of
//! `A[p][q]` (reducing the 2×2 block to a real symmetric one), then applies
//! the standard real Jacobi angle `tan 2θ = 2|A_pq| / (A_pp − A_qq)`.
//!
//! [`eigh`] runs the whole iteration inside one workspace it owns for
//! the call, so the only tallied allocation is the output, and the 9×9
//! shape that dominates `expm` goes through a monomorphized
//! (literal-dimension) core. Scanning costs are cut without touching the
//! trajectory: a conservative `|β|²` screen skips the libm `hypot` on
//! already-converged pairs, a branch-free row pre-check skips whole
//! screened rows, per-row off-diagonal tallies let sweeps skip the
//! O(n²) convergence rescan while provably far from converged, and
//! still-identity rows of the eigenvector accumulator skip their
//! (provably bit-identity) update. The rotation itself keeps the
//! reference two-pass shape — uniform full-length column then row
//! passes, measured faster than a "fused" single visit built from
//! runtime-bounded segment loops — with the eigenvector column update
//! interleaved into the first pass. Every output f64 is produced by the
//! same expression over the same inputs as the naive formulation, so
//! results are bit-for-bit identical (pinned by
//! `tests/eigh_differential.rs`).
//!
//! # Examples
//!
//! ```
//! use qsim::matrix::CMat;
//! use qsim::eigen::eigh;
//!
//! let h = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]); // Pauli X
//! let eig = eigh(&h);
//! assert!((eig.values[0] + 1.0).abs() < 1e-12);
//! assert!((eig.values[1] - 1.0).abs() < 1e-12);
//! ```

use crate::complex::C64;
use crate::matrix::CMat;

/// Result of a Hermitian eigendecomposition `A = V · diag(values) · V†`.
#[derive(Debug, Clone)]
pub struct EigH {
    /// Real eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose `k`-th *column* is the eigenvector of
    /// `values[k]`.
    pub vectors: CMat,
}

impl EigH {
    /// Reconstructs the original matrix `V · diag(values) · V†`.
    ///
    /// Mostly useful in tests to verify decomposition accuracy.
    pub fn reconstruct(&self) -> CMat {
        self.map_spectrum(C64::real)
    }

    /// Applies `f` to each eigenvalue and reassembles `V · diag(f(λ)) · V†`.
    ///
    /// This is the spectral calculus used for the matrix exponential. The
    /// triple product is fused into one pass — `out[i][j] = Σ_k (V[i][k] ·
    /// f(λ_k)) · conj(V[j][k])` over contiguous rows of `V` — so a single
    /// output matrix is allocated instead of the diag/dagger/two-matmul
    /// chain of the naive formulation.
    pub fn map_spectrum(&self, mut f: impl FnMut(f64) -> C64) -> CMat {
        let n = self.values.len();
        let fv: Vec<C64> = self.values.iter().map(|&v| f(v)).collect();
        let v = self.vectors.as_slice();
        let mut out = CMat::zeros(n, n);
        crate::counters::tally_flops((8 * n * n * n + 6 * n * n) as u64);
        let od = out.as_mut_slice();
        // Hot dimensions go through monomorphized cores (same trick as
        // `CMat::matmul_into`): with `N` a compile-time constant the scaled
        // row lives on the stack and the k loop fully unrolls. Identical
        // operation order, bit-for-bit equal output.
        match n {
            3 => {
                map_spectrum_fixed::<3>(&fv, v, od);
                return out;
            }
            4 => {
                map_spectrum_fixed::<4>(&fv, v, od);
                return out;
            }
            9 => {
                map_spectrum_fixed::<9>(&fv, v, od);
                return out;
            }
            _ => {}
        }
        let mut wrow = vec![C64::ZERO; n];
        for i in 0..n {
            let vrow = &v[i * n..(i + 1) * n];
            for ((w, &vik), &fk) in wrow.iter_mut().zip(vrow.iter()).zip(fv.iter()) {
                w.re = vik.re * fk.re - vik.im * fk.im;
                w.im = vik.re * fk.im + vik.im * fk.re;
            }
            for (j, o) in od[i * n..(i + 1) * n].iter_mut().enumerate() {
                let vjrow = &v[j * n..(j + 1) * n];
                let (mut acc_re, mut acc_im) = (0.0, 0.0);
                for (&w, &vjk) in wrow.iter().zip(vjrow.iter()) {
                    acc_re += w.re * vjk.re + w.im * vjk.im;
                    acc_im += w.im * vjk.re - w.re * vjk.im;
                }
                *o = C64::new(acc_re, acc_im);
            }
        }
        out
    }
}

/// Fixed-size core of [`EigH::map_spectrum`]: `out[i][j] = Σ_k (V[i][k] ·
/// fv[k]) · conj(V[j][k])` with the dimension known at compile time. The
/// loop structure and operation order match the generic path exactly.
#[inline]
fn map_spectrum_fixed<const N: usize>(fv: &[C64], v: &[C64], od: &mut [C64]) {
    let mut wrow = [C64::ZERO; N];
    for i in 0..N {
        let vrow = &v[i * N..(i + 1) * N];
        for ((w, &vik), &fk) in wrow.iter_mut().zip(vrow.iter()).zip(fv.iter()) {
            w.re = vik.re * fk.re - vik.im * fk.im;
            w.im = vik.re * fk.im + vik.im * fk.re;
        }
        for (j, o) in od[i * N..(i + 1) * N].iter_mut().enumerate() {
            let vjrow = &v[j * N..(j + 1) * N];
            let (mut acc_re, mut acc_im) = (0.0, 0.0);
            for (&w, &vjk) in wrow.iter().zip(vjrow.iter()) {
                acc_re += w.re * vjk.re + w.im * vjk.im;
                acc_im += w.im * vjk.re - w.re * vjk.im;
            }
            *o = C64::new(acc_re, acc_im);
        }
    }
}

/// The scratch of one [`eigh`] call: the working copy of the matrix, the
/// accumulated eigenvector rotations, the per-row off-diagonal tallies used
/// for the cheap convergence pre-check, and the sort scratch. All buffers
/// are plain `Vec`s, never tallied by `qsim::counters` (the allocation
/// contract counts materialized *outputs* only).
#[derive(Debug, Default)]
struct EighWorkspace {
    m: Vec<C64>,
    v: Vec<C64>,
    row_off: Vec<f64>,
    order: Vec<usize>,
    vals: Vec<f64>,
}

/// Off-diagonal Frobenius norm squared of a row-major `n × n` buffer (the
/// Jacobi convergence quantity).
#[cfg(debug_assertions)]
fn off_diag_sq(d: &[C64], n: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += d[i * n + j].abs2();
            }
        }
    }
    s
}

/// Applies the plane rotation to columns `p`, `q`:
/// `(a_kp, a_kq) ← (a_kp·c + a_kq·j_qp, −a_kp·s + a_kq·j_qq)` — the
/// column halves over the working matrix (`A·J`) and the eigenvector
/// accumulator (`V·J`) in one zipped loop: the two updates touch
/// disjoint buffers, so interleaving them is a pure
/// instruction-scheduling win (two independent dependency chains per
/// iteration) with element-wise identical arithmetic.
///
/// `vskip`: `V` starts as the identity, so rows outside every rotation
/// plane seen so far hold exact `+0.0` bits in columns `p` and `q`. For
/// such a row each output component combines signed zeros: with `c > 0`
/// the `a_kp` components' first addend `(+0)·c` is `+0`, and
/// `+0 + (±0) = +0` in round-to-nearest, so they reproduce `+0`
/// bit-exactly. The `a_kq` components start from `(−0)·s`, whose result
/// can be `−0` — [`jacobi_sweep`] sets `vskip` only after checking the
/// coefficients are finite, `c > 0`, and the one sign pattern that
/// yields a `−0` output (`s` non-negative with `j_qq.re`
/// negative-signed) is absent. Under `vskip` the update is therefore
/// the bit-level identity on all-`+0` rows (`to_bits` check: a `−0` or
/// NaN entry fails it and takes the computed path), and the skip is
/// exact — pinned, like everything here, by
/// `tests/eigh_differential.rs`.
#[inline(always)]
fn rotate_columns2(
    md: &mut [C64],
    vd: &mut [C64],
    n: usize,
    p: usize,
    q: usize,
    r: RotCoeffs,
    vskip: bool,
) {
    for (row, vrow) in md.chunks_exact_mut(n).zip(vd.chunks_exact_mut(n)) {
        let (nkp, nkq) = col_pair(row[p], row[q], r);
        row[p] = nkp;
        row[q] = nkq;
        let (a, b) = (vrow[p], vrow[q]);
        if vskip && (a.re.to_bits() | a.im.to_bits() | b.re.to_bits() | b.im.to_bits()) == 0 {
            continue;
        }
        let (vkp, vkq) = col_pair(a, b, r);
        vrow[p] = vkp;
        vrow[q] = vkq;
    }
}

/// Row half of the similarity update: `(a_pk, a_qk) ← J†-side` rotation
/// over *all* columns `k` of rows `p` and `q` (conjugated coefficients),
/// reading the column-updated values — the exact second pass of the
/// reference two-pass formulation, as two contiguous zipped row slices.
///
/// The same loop rebuilds `row_off[p]` / `row_off[q]` (the per-row
/// off-diagonal tallies) from the freshly written values: the full-row
/// sums minus the diagonal entry. Spectator tallies are carried unchanged
/// across rotations, because the column half is a unitary rotation of
/// each `(A_kp, A_kq)` pair — `|A_kp|² + |A_kq|²` is conserved in exact
/// arithmetic, so a stored tally only drifts by rounding (absorbed by the
/// `guard` margin in [`eigh`]). The tallies are estimates only: not
/// flop-tallied, summed in whatever order is fastest, and never feeding a
/// pinned output.
#[inline(always)]
fn rotate_rows(data: &mut [C64], n: usize, p: usize, q: usize, rc: RotCoeffs, row_off: &mut [f64]) {
    let (head, tail) = data.split_at_mut(q * n);
    let prow = &mut head[p * n..p * n + n];
    let qrow = &mut tail[..n];
    let (mut sp, mut sq) = (0.0, 0.0);
    for (ap, aq) in prow.iter_mut().zip(qrow.iter_mut()) {
        let (npk, nqk) = col_pair(*ap, *aq, rc);
        *ap = npk;
        *aq = nqk;
        sp += npk.abs2();
        sq += nqk.abs2();
    }
    row_off[p] = sp - prow[p].abs2();
    row_off[q] = sq - qrow[q].abs2();
}

/// Coefficients of one `(p,q)` plane rotation (the row half passes the
/// conjugated `j_qp`/`j_qq`).
#[derive(Clone, Copy)]
struct RotCoeffs {
    c: f64,
    s: f64,
    jqp: C64,
    jqq: C64,
}

impl RotCoeffs {
    #[inline(always)]
    fn new(c: f64, s: f64, jqp: C64, jqq: C64) -> Self {
        Self { c, s, jqp, jqq }
    }
}

/// Applies the `(p,q)`-plane rotation to one `(a_kp, a_kq)` element pair:
/// the shared kernel of [`rotate_columns2`] and [`rotate_rows`].
///
/// The component expressions are kept *verbatim* in the reference shape —
/// no `x − y` → `x + (−y)` style rewrites. Such rewrites are
/// value-preserving for every number, but a negation flips the sign bit
/// of a NaN operand, so they change which NaN payload bits propagate;
/// keeping the literal shape makes even the NaN spectrum of pathological
/// inputs match the naive formulation bit-for-bit in every build mode.
#[inline(always)]
fn col_pair(akp: C64, akq: C64, r: RotCoeffs) -> (C64, C64) {
    (
        C64::new(
            akp.re * r.c + (akq.re * r.jqp.re - akq.im * r.jqp.im),
            akp.im * r.c + (akq.re * r.jqp.im + akq.im * r.jqp.re),
        ),
        C64::new(
            -akp.re * r.s + (akq.re * r.jqq.re - akq.im * r.jqq.im),
            -akp.im * r.s + (akq.re * r.jqq.im + akq.im * r.jqq.re),
        ),
    )
}

/// One cyclic sweep over all `(p, q)` pairs; returns the number of
/// rotations applied. `#[inline(always)]` so [`eigh`]'s literal-`n`
/// call sites const-propagate the dimension into the rotation kernels
/// (fully unrolled inner loops for the hot 9×9 shape) while keeping a
/// single source of truth for the operation order.
#[inline(always)]
fn jacobi_sweep(md: &mut [C64], vd: &mut [C64], row_off: &mut [f64], n: usize, thresh: f64) -> u32 {
    // Conservative hypot screen: `|β|²` computed in f64 has relative
    // error ≤ ~3ε, and `hypot` another ulp, so `β.abs2() ≤ thresh²·(1 −
    // 1e-10)` *proves* `β.abs() ≤ thresh` — the pair skips without paying
    // the libm `hypot` call, the dominant cost of scanning a nearly
    // converged matrix. Pairs above the screen (and NaN entries: the
    // comparison fails) fall through to the exact test, so the
    // rotate/skip decision — and every `b` actually used — is bitwise
    // identical to the naive reference.
    let screen = thresh * thresh * (1.0 - 1e-10);
    let mut rotations = 0u32;
    for p in 0..n {
        // Row pre-check: the pairs of row `p` read the contiguous tail
        // `md[p·n+p+1 .. p·n+n]`, and if *every* entry passes the screen,
        // every pair takes the screen `continue` without touching the
        // matrix — so the whole row can be skipped after one branch-free
        // (non-short-circuiting `&`, hence vectorizable) scan. Any entry
        // above the screen — or NaN, which fails `<=` — routes the row
        // through the scalar pair loop below, whose per-pair decisions are
        // the reference ones. Either way the trajectory is bit-identical.
        let tail = &md[p * n + p + 1..p * n + n];
        if tail
            .iter()
            .map(|z| z.abs2() <= screen)
            .fold(true, |a, b| a & b)
        {
            continue;
        }
        for q in (p + 1)..n {
            let beta = md[p * n + q];
            if beta.abs2() <= screen {
                continue;
            }
            let b = beta.abs();
            if b <= thresh {
                continue;
            }
            let phi = beta.arg();
            let alpha = md[p * n + p].re;
            let gamma = md[q * n + q].re;
            // Real Jacobi angle on the de-phased block: solves
            // b·(c²−s²) + (γ−α)·c·s = 0, i.e. tan 2θ = 2b/(α−γ).
            let zeta = (alpha - gamma) / (2.0 * b);
            let t = if zeta >= 0.0 {
                1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
            } else {
                -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
            };
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = t * c;
            // J acts on the (p,q) plane:
            //   J_pp = c            J_pq = −s
            //   J_qp = s·e^{−iφ}    J_qq = c·e^{−iφ}
            let e_m = C64::cis(-phi);
            let jqp = e_m * s;
            let jqq = e_m * c;
            let r = RotCoeffs::new(c, s, jqp, jqq);
            let rc = RotCoeffs::new(c, s, jqp.conj(), jqq.conj());
            // All-`+0` rows of V may skip the update only when the
            // rotation provably maps them to `+0` at the bit level: every
            // coefficient finite (a NaN/∞ would propagate through `0·x`),
            // `c` finite and positive (pins the `a_kp` lanes' first addend
            // to `+0`), and the one sign pattern whose signed zeros sum to
            // `−0` absent. On all-`+0` inputs `a_kq.re` is
            // `(−0)·s + ((+0)·j_qq.re − (+0)·j_qq.im)` and `a_kq.im` is
            // `(−0)·s + ((+0)·j_qq.im + (+0)·j_qq.re)`: a `−0` result
            // needs every addend negative-signed, which requires `s`
            // non-negative-signed *and* `j_qq.re` negative-signed. See
            // [`rotate_columns2`] for the skip itself.
            let vskip = c.is_finite()
                && c > 0.0
                && s.is_finite()
                && jqp.re.is_finite()
                && jqp.im.is_finite()
                && jqq.re.is_finite()
                && jqq.im.is_finite()
                && (s.is_sign_negative() || !jqq.re.is_sign_negative());

            // A ← J†·(A·J) — reference two-pass order, every pass a
            // uniform full-length loop (runtime-bounded segment loops
            // measured strictly slower than the extra 4-element touch) —
            // with V ← V·J interleaved into the column pass.
            rotate_columns2(md, vd, n, p, q, r, vskip);
            rotate_rows(md, n, p, q, rc, row_off);
            rotations += 1;
        }
    }
    // One tally for the whole sweep (48n flops per rotation): the same
    // total the per-rotation form reports, without a thread-local access
    // inside the hot loop.
    crate::counters::tally_flops(48 * n as u64 * rotations as u64);
    rotations
}

/// Computes the eigendecomposition of a complex Hermitian matrix.
///
/// The input is symmetrized as `(A + A†)/2` first, so tiny Hermiticity
/// violations from accumulated arithmetic are tolerated.
///
/// The only tallied allocation is the output (one `vectors` matrix).
///
/// # Panics
///
/// Panics if `a` is not square, or if the iteration fails to converge
/// (which for Hermitian input does not happen in practice; the limit is a
/// defensive bound of 100 sweeps).
pub fn eigh(a: &CMat) -> EigH {
    eigh_in(a, &mut EighWorkspace::default())
}

/// [`eigh`] over its workspace. Kept a function of its own: in
/// unoptimized builds the sign of a NaN output depends on the code the
/// body is compiled into, and `tests/eigh_differential.rs` pins NaN
/// outputs bit for bit against the naive reference.
fn eigh_in(a: &CMat, ws: &mut EighWorkspace) -> EigH {
    assert!(a.is_square(), "eigh requires a square matrix");
    // Literal-`n` call sites: `eigh_body` is `#[inline(always)]`, so each
    // arm clones the whole body with the dimension const-propagated —
    // every loop below gets compile-time trip counts (unrolled,
    // bounds-check-free, vectorizable) for the hot shapes. Same single
    // source of truth, identical operation order, bit-identical results.
    match a.rows() {
        9 => eigh_body(a, ws, 9),
        3 => eigh_body(a, ws, 3),
        4 => eigh_body(a, ws, 4),
        n => eigh_body(a, ws, n),
    }
}

/// The monomorphizable body of [`eigh`]; `n == a.rows()`.
#[inline(always)]
fn eigh_body(a: &CMat, ws: &mut EighWorkspace, n: usize) -> EigH {
    let ad = a.as_slice();
    // Symmetrize defensively: m = (A† + A) / 2, element order identical to
    // the naive dagger-then-average formulation. The same pass accumulates
    // the Frobenius norm (all elements, row-major — the summation order of
    // the naive `iter().map(abs2).sum()`), the initial off-diagonal norm,
    // and the per-row tallies (off-diagonal elements in the same row-major
    // order the rescan below uses), so no separate O(n²) passes are needed
    // before the first sweep. Every accumulated f64 is the same value in
    // the same order as the multi-pass formulation: bitwise identical.
    ws.m.clear();
    ws.m.resize(n * n, C64::ZERO);
    ws.row_off.clear();
    ws.row_off.resize(n, 0.0);
    let mut fro2 = 0.0;
    let mut off0 = 0.0;
    for i in 0..n {
        let mut rsum = 0.0;
        for j in 0..n {
            let z = (ad[j * n + i].conj() + ad[i * n + j]) * 0.5;
            ws.m[i * n + j] = z;
            let t = z.abs2();
            fro2 += t;
            if i != j {
                off0 += t;
                rsum += t;
            }
        }
        ws.row_off[i] = rsum;
    }
    ws.v.clear();
    ws.v.resize(n * n, C64::ZERO);
    for i in 0..n {
        ws.v[i * n + i] = C64::ONE;
    }

    let scale = fro2.sqrt().max(1.0);
    let tol = (scale * 1e-15).powi(2) * (n * n) as f64;
    let thresh = scale * 1e-16;
    // Spectator rows carry their tally across rotations (the column half
    // conserves |A_kp|² + |A_kq|² exactly in exact arithmetic), so the
    // estimate drifts from the true off-norm only by rounding — at most
    // ~n³·ε·scale² per sweep, ≤ 1e-11·scale² for n ≤ 36, three orders
    // below this guard. `est > guard` therefore *proves* `off > tol`
    // (tol ~ 1e-28·scale²), so skipping the exact rescan can never skip a
    // convergence exit the reference algorithm would take.
    let guard = scale * scale * 1e-8;

    let md = ws.m.as_mut_slice();
    let vd = ws.v.as_mut_slice();
    let row_off = ws.row_off.as_mut_slice();
    // `off_exact` holds the initial off-norm computed during setup; later
    // iterations rescan only when the cheap estimate cannot prove
    // non-convergence. A sweep that applied zero rotations leaves the
    // matrix untouched while proving every |A_pq| ≤ thresh — which implies
    // off ≤ n(n−1)·thresh² < tol — so it forces the exact rescan that
    // takes the convergence exit, exactly where the always-rescan
    // reference takes it. (A NaN estimate fails `est > guard` and falls
    // through to the rescan.)
    let mut off_exact = Some(off0);
    let mut force_rescan = false;
    for _sweep in 0..100 {
        let off = match off_exact.take() {
            Some(o) => o,
            None => {
                let est: f64 = row_off.iter().sum();
                if !force_rescan && est > guard {
                    // Provably far from convergence: skip the O(n²)
                    // rescan. The reference would have computed some
                    // off > tol and swept anyway.
                    f64::INFINITY
                } else {
                    let mut off = 0.0;
                    for i in 0..n {
                        let mut rsum = 0.0;
                        for j in 0..n {
                            if i != j {
                                let t = md[i * n + j].abs2();
                                off += t;
                                rsum += t;
                            }
                        }
                        row_off[i] = rsum;
                    }
                    off
                }
            }
        };
        if off <= tol {
            break;
        }
        let rotations = jacobi_sweep(md, vd, row_off, n, thresh);
        force_rescan = rotations == 0;
    }

    // NaN input never converges (every |A_pq| comparison is false); the
    // non-finite guard keeps debug builds panic-free so callers can sort
    // the NaN spectrum out themselves.
    #[cfg(debug_assertions)]
    {
        let off = off_diag_sq(md, n);
        debug_assert!(
            !off.is_finite() || off <= tol * 100.0,
            "jacobi did not converge: off = {off}"
        );
    }

    // Extract and sort ascending, permuting columns of V accordingly.
    // `total_cmp` keeps a NaN eigenvalue (pathological input) from
    // panicking the sort: NaNs order after every finite value. The sort
    // must stay *stable* so degenerate spectra keep the reference column
    // permutation.
    ws.vals.clear();
    ws.vals.extend((0..n).map(|i| md[i * n + i].re));
    ws.order.clear();
    ws.order.extend(0..n);
    let vals = &ws.vals;
    // Stable insertion sort by `total_cmp` (shift only on strictly
    // greater). A stable sort's output permutation is unique, so this
    // yields exactly the permutation `sort_by` would — without the
    // general-purpose driver around a ≤ 36-element sort.
    let order = &mut ws.order;
    for i in 1..n {
        let oi = order[i];
        let vi = vals[oi];
        let mut j = i;
        while j > 0 && vals[order[j - 1]].total_cmp(&vi) == std::cmp::Ordering::Greater {
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = oi;
    }

    let sorted_vals: Vec<f64> = ws.order.iter().map(|&i| vals[i]).collect();
    // Permute V's columns into the output with one contiguous gather per
    // row (plain copies — trivially the same values `from_fn` would
    // produce element by element), filling the buffer directly so no
    // zero-initialization pass runs first.
    let mut out = Vec::with_capacity(n * n);
    for vrow in ws.v.chunks_exact(n) {
        out.extend(ws.order.iter().map(|&j| vrow[j]));
    }
    let sorted_vecs = CMat::from_vec(n, n, out);

    EigH {
        values: sorted_vals,
        vectors: sorted_vecs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_hermitian(n: usize, seed: u64) -> CMat {
        // Tiny xorshift so the test has no external deps.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let g = CMat::from_fn(n, n, |_, _| C64::new(next(), next()));
        let mut h = g.dagger();
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = (h[(i, j)] + g[(i, j)]) * 0.5;
            }
        }
        h
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let d = CMat::diag(&[C64::real(3.0), C64::real(-1.0), C64::real(2.0)]);
        let e = eigh(&d);
        assert!((e.values[0] + 1.0).abs() < 1e-14);
        assert!((e.values[1] - 2.0).abs() < 1e-14);
        assert!((e.values[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn pauli_y_eigenvalues() {
        let y = CMat::from_slice(2, 2, &[C64::ZERO, -C64::I, C64::I, C64::ZERO]);
        let e = eigh(&y);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        assert!(e.vectors.is_unitary(1e-12));
    }

    #[test]
    fn reconstruction_of_random_hermitians() {
        for (n, seed) in [(2usize, 7u64), (4, 42), (6, 3), (9, 99), (12, 1234)] {
            let h = random_hermitian(n, seed);
            let e = eigh(&h);
            let r = e.reconstruct();
            assert!(
                r.approx_eq(&h, 1e-10),
                "reconstruction failed for n={n}: err={}",
                r.max_abs_diff(&h)
            );
            assert!(e.vectors.is_unitary(1e-10));
            // Eigenvalues ascending.
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn eigenvector_equation_holds() {
        let h = random_hermitian(5, 17);
        let e = eigh(&h);
        for k in 0..5 {
            let vk: Vec<C64> = (0..5).map(|i| e.vectors[(i, k)]).collect();
            let hv = h.apply(&vk);
            for i in 0..5 {
                let expect = vk[i] * e.values[k];
                assert!((hv[i] - expect).abs() < 1e-9, "H v != λ v at ({i},{k})");
            }
        }
    }

    #[test]
    fn trace_is_eigenvalue_sum() {
        let h = random_hermitian(7, 5);
        let e = eigh(&h);
        let sum: f64 = e.values.iter().sum();
        assert!((h.trace().re - sum).abs() < 1e-10);
    }

    #[test]
    fn map_spectrum_identity_function() {
        let h = random_hermitian(4, 8);
        let e = eigh(&h);
        let again = e.map_spectrum(C64::real);
        assert!(again.approx_eq(&h, 1e-10));
    }

    #[test]
    fn nan_input_does_not_panic() {
        // A pathological (non-finite) matrix must come back with a NaN
        // spectrum, not panic in the eigenvalue sort or the convergence
        // check — `total_cmp` orders NaN after every finite value.
        let mut h = CMat::identity(3);
        h[(0, 1)] = C64::new(f64::NAN, 0.0);
        h[(1, 0)] = C64::new(f64::NAN, 0.0);
        let e = eigh(&h);
        assert_eq!(e.values.len(), 3);
        assert!(e.values.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn degenerate_spectrum_handled() {
        // 2·I has a fully degenerate spectrum.
        let h = CMat::identity(4).scale(C64::real(2.0));
        let e = eigh(&h);
        for v in &e.values {
            assert!((v - 2.0).abs() < 1e-14);
        }
        assert!(e.vectors.is_unitary(1e-12));
    }
}
