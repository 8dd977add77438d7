//! Dense complex matrices and state vectors.
//!
//! All quantum objects in this crate — unitaries, Hamiltonians, projected
//! evolutions — are small dense matrices (dimension ≤ 36 for two 6-level
//! transmons), so a straightforward row-major `Vec<C64>` representation with
//! cache-friendly triple-loop multiplication is both simple and fast enough
//! for every experiment in the paper.
//!
//! # Examples
//!
//! ```
//! use qsim::matrix::CMat;
//! use qsim::complex::C64;
//!
//! let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
//! let id = &x * &x;
//! assert!(id.approx_eq(&CMat::identity(2), 1e-12));
//! assert!(x.is_unitary(1e-12));
//! ```

use crate::complex::C64;
use crate::counters;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// Supports the linear-algebra vocabulary required by Hamiltonian
/// simulation: products, adjoints, Kronecker products, traces, norms, and
/// sub-block extraction/embedding for leakage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

/// Fixed-size core of [`CMat::matmul_into`] for `N × N` operands.
///
/// Same i-k-j order and f64-pair multiply-adds as the generic loop — the
/// results are bit-for-bit identical — but with `N` a compile-time constant
/// the k/j loops fully unroll and the output row lives in registers.
#[inline]
fn matmul_fixed<const N: usize>(a: &[C64], b: &[C64], out: &mut [C64]) {
    for i in 0..N {
        let arow = &a[i * N..i * N + N];
        let orow = &mut out[i * N..i * N + N];
        orow.fill(C64::ZERO);
        for k in 0..N {
            let (ar, ai) = (arow[k].re, arow[k].im);
            let brow = &b[k * N..k * N + N];
            for (o, r) in orow.iter_mut().zip(brow.iter()) {
                let (rr, ri) = (r.re, r.im);
                o.re += ar * rr - ai * ri;
                o.im += ar * ri + ai * rr;
            }
        }
    }
}

impl CMat {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        counters::tally_alloc();
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major slice of complex entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        counters::tally_alloc();
        CMat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix from a row-major slice of real entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols);
        counters::tally_alloc();
        CMat {
            rows,
            cols,
            data: data.iter().map(|&r| C64::real(r)).collect(),
        }
    }

    /// Wraps an already-filled row-major buffer without copying it. The
    /// buffer's allocation is tallied like any other materialized matrix
    /// (the caller must not have tallied it separately).
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        counters::tally_alloc();
        CMat { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = CMat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable row-major view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// Every entry participates unconditionally — there is no zero-skip
    /// fast path — so IEEE non-finite semantics hold (`0 · ∞` and `0 · NaN`
    /// produce NaN) and the running time depends only on the shapes.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Writes `self · rhs` into `out` without allocating.
    ///
    /// `out` is overwritten (it may hold anything, but must not alias the
    /// operands — the borrow checker enforces that). The i-k-j loop order
    /// streams `rhs` rows for row-major locality, and the inner loop is
    /// expressed as explicit f64-pair multiply-adds the autovectorizer can
    /// split into re/im lanes.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &CMat, out: &mut CMat) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul_into: output is {}x{}, expected {}x{}",
            out.rows,
            out.cols,
            self.rows,
            rhs.cols
        );
        counters::tally_flops(8 * (self.rows * self.cols * rhs.cols) as u64);
        let inner = self.cols;
        let n = rhs.cols;
        if n == 0 {
            return;
        }
        // The hot shapes (3×3 transmon frames, 4×4 computational blocks,
        // 9×9 two-qubit propagators) go through monomorphized cores where
        // the loop bounds are compile-time constants: the optimizer keeps
        // the whole output row in registers across the k loop instead of
        // round-tripping through memory. Identical accumulation order to
        // the generic loop below, so results are bit-for-bit equal.
        if self.rows == n && inner == n {
            match n {
                2 => return matmul_fixed::<2>(&self.data, &rhs.data, &mut out.data),
                3 => return matmul_fixed::<3>(&self.data, &rhs.data, &mut out.data),
                4 => return matmul_fixed::<4>(&self.data, &rhs.data, &mut out.data),
                9 => return matmul_fixed::<9>(&self.data, &rhs.data, &mut out.data),
                _ => {}
            }
        }
        for i in 0..self.rows {
            let arow = &self.data[i * inner..(i + 1) * inner];
            let orow = &mut out.data[i * n..(i + 1) * n];
            orow.fill(C64::ZERO);
            for (k, &a) in arow.iter().enumerate() {
                let (ar, ai) = (a.re, a.im);
                let rrow = &rhs.data[k * n..(k + 1) * n];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    let (rr, ri) = (r.re, r.im);
                    o.re += ar * rr - ai * ri;
                    o.im += ar * ri + ai * rr;
                }
            }
        }
    }

    /// Writes `A†` into `out` (shape `cols × rows`) without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong shape.
    pub fn dagger_into(&self, out: &mut CMat) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "dagger_into: output is {}x{}, expected {}x{}",
            out.rows,
            out.cols,
            self.cols,
            self.rows
        );
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * out.cols + i] = self.data[i * self.cols + j].conj();
            }
        }
    }

    /// Copies `src`'s entries into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, src: &CMat) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from: shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Scales every entry by `s` in place.
    pub fn scale_in_place(&mut self, s: C64) {
        let (sr, si) = (s.re, s.im);
        for z in &mut self.data {
            let (zr, zi) = (z.re, z.im);
            z.re = zr * sr - zi * si;
            z.im = zr * si + zi * sr;
        }
    }

    /// Entry-wise sum `self += other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &CMat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            a.re += b.re;
            a.im += b.im;
        }
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> CMat {
        counters::tally_alloc();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: C64) -> CMat {
        counters::tally_alloc();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `√Σ|a_ij|²`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs2()).sum::<f64>().sqrt()
    }

    /// Largest entry-wise absolute difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &CMat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &CMat, tol: f64) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_abs_diff(other) <= tol
    }

    /// Tests `A†A ≈ I` within `tol` (max-abs entry deviation).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.dagger()
            .matmul(self)
            .approx_eq(&CMat::identity(self.rows), tol)
    }

    /// Tests `A ≈ A†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.approx_eq(&self.dagger(), tol)
    }

    /// Applies the matrix to a state vector, returning `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn apply(&self, v: &[C64]) -> Vec<C64> {
        counters::tally_alloc();
        let mut out = vec![C64::ZERO; self.rows];
        self.apply_into(v, &mut out);
        out
    }

    /// Writes `A·v` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn apply_into(&self, v: &[C64], out: &mut [C64]) {
        assert_eq!(v.len(), self.cols, "apply: vector length mismatch");
        assert_eq!(out.len(), self.rows, "apply_into: output length mismatch");
        counters::tally_flops(8 * (self.rows * self.cols) as u64);
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let (mut acc_re, mut acc_im) = (0.0, 0.0);
            for (&a, &x) in row.iter().zip(v.iter()) {
                acc_re += a.re * x.re - a.im * x.im;
                acc_im += a.re * x.im + a.im * x.re;
            }
            *o = C64::new(acc_re, acc_im);
        }
    }

    /// Extracts the leading `dim × dim` block (projection onto the lowest
    /// `dim` levels — the computational subspace in leakage analysis).
    ///
    /// # Panics
    ///
    /// Panics if `dim` exceeds either dimension.
    pub fn top_left_block(&self, dim: usize) -> CMat {
        assert!(dim <= self.rows && dim <= self.cols);
        CMat::from_fn(dim, dim, |i, j| self[(i, j)])
    }

    /// Extracts an arbitrary sub-block given row and column index lists.
    ///
    /// Used to project multi-level two-qubit evolutions onto the
    /// computational basis {|00⟩,|01⟩,|10⟩,|11⟩} which is *not* contiguous
    /// in the tensor-product level ordering.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> CMat {
        CMat::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    /// Embeds a small square matrix into an `n × n` identity, acting on the
    /// listed basis indices. The complement is untouched (identity).
    ///
    /// # Panics
    ///
    /// Panics if `small` is not square of dimension `idx.len()`, or if any
    /// index is out of bounds / repeated.
    pub fn embed(small: &CMat, n: usize, idx: &[usize]) -> CMat {
        assert!(small.is_square() && small.rows() == idx.len());
        let mut seen = vec![false; n];
        for &i in idx {
            assert!(i < n, "embed index {i} out of bounds {n}");
            assert!(!seen[i], "embed index {i} repeated");
            seen[i] = true;
        }
        let mut out = CMat::identity(n);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                out[(i, j)] = small[(a, b)];
            }
        }
        out
    }

    /// Matrix power by repeated squaring (square matrices only).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn powi(&self, mut n: u32) -> CMat {
        assert!(self.is_square());
        let mut acc = CMat::identity(self.rows);
        let mut base = self.clone();
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.matmul(&base);
            }
            base = base.matmul(&base);
            n >>= 1;
        }
        acc
    }

    /// Removes the global phase: multiplies by `e^{-i·arg(a)}` where `a` is
    /// the largest-magnitude entry, making that entry real-positive.
    ///
    /// Quantum gates are equivalence classes under global phase; this
    /// canonicalizes a representative for comparisons and hashing.
    pub fn strip_global_phase(&self) -> CMat {
        let mut best = C64::ZERO;
        for &z in &self.data {
            if z.abs2() > best.abs2() {
                best = z;
            }
        }
        if best.abs2() == 0.0 {
            return self.clone();
        }
        self.scale(C64::cis(-best.arg()))
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        counters::tally_alloc();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        counters::tally_alloc();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.matmul(rhs)
    }
}

impl Neg for &CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        self.scale(C64::real(-1.0))
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                let z = self[(i, j)];
                write!(f, "{:.4}{:+.4}i", z.re, z.im)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMat {
        CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMat {
        CMat::from_slice(2, 2, &[C64::ZERO, -C64::I, C64::I, C64::ZERO])
    }

    fn pauli_z() -> CMat {
        CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let id = CMat::identity(2);
        assert!(x.matmul(&id).approx_eq(&x, 0.0));
        assert!(id.matmul(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        assert!(x.matmul(&y).approx_eq(&z.scale(C64::I), 1e-15));
        // X² = I
        assert!(x.matmul(&x).approx_eq(&CMat::identity(2), 1e-15));
        // Anticommutation {X, Z} = 0
        let anti = &x.matmul(&z) + &z.matmul(&x);
        assert!(anti.approx_eq(&CMat::zeros(2, 2), 1e-15));
    }

    #[test]
    fn matmul_propagates_nan_and_inf() {
        // 0·∞ must yield NaN. The retired zero-skip fast path silently
        // dropped non-finite entries multiplied by exact zeros, hiding
        // divergent Hamiltonians; the semantics are pinned here.
        let a = pauli_x();
        let b = CMat::from_real(2, 2, &[f64::INFINITY, 0.0, 0.0, 1.0]);
        let p = a.matmul(&b);
        assert!(p[(1, 0)].re.is_infinite(), "1·∞ must stay ∞");
        assert!(p[(0, 0)].re.is_nan(), "0·∞ must yield NaN, not be skipped");
        let nan = CMat::from_real(2, 2, &[f64::NAN, 0.0, 0.0, 0.0]);
        let q = CMat::zeros(2, 2).matmul(&nan);
        assert!(q[(0, 0)].re.is_nan(), "0·NaN must yield NaN");
    }

    #[test]
    fn in_place_kernels_match_allocating_ops() {
        let x = pauli_x();
        let y = pauli_y();
        let mut out = CMat::zeros(2, 2);
        x.matmul_into(&y, &mut out);
        assert_eq!(out, x.matmul(&y));
        y.dagger_into(&mut out);
        assert_eq!(out, y.dagger());
        let mut s = x.clone();
        s.add_assign(&y);
        assert_eq!(s, &x + &y);
        s.copy_from(&x);
        assert_eq!(s, x);
        s.scale_in_place(C64::new(0.5, -1.5));
        assert_eq!(s, x.scale(C64::new(0.5, -1.5)));
        let v = [C64::ONE, C64::I];
        let mut w = [C64::ZERO; 2];
        x.apply_into(&v, &mut w);
        assert_eq!(w.to_vec(), x.apply(&v));
    }

    #[test]
    fn dagger_and_transpose() {
        let m = CMat::from_slice(
            2,
            2,
            &[
                C64::new(1.0, 1.0),
                C64::new(2.0, 0.0),
                C64::new(0.0, 3.0),
                C64::new(4.0, -1.0),
            ],
        );
        let d = m.dagger();
        assert_eq!(d[(0, 1)], C64::new(0.0, -3.0));
        assert_eq!(d[(1, 0)], C64::new(2.0, 0.0));
        assert!(m.transpose().conj().approx_eq(&d, 0.0));
    }

    #[test]
    fn kron_dims_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz[(0, 2)], C64::ONE);
        assert_eq!(xz[(1, 3)], C64::real(-1.0));
        assert_eq!(xz[(0, 0)], C64::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = CMat::identity(2);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn trace_and_norm() {
        let z = pauli_z();
        assert_eq!(z.trace(), C64::ZERO);
        assert_eq!(CMat::identity(3).trace(), C64::real(3.0));
        assert!((pauli_x().frobenius_norm() - 2f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn unitary_and_hermitian_checks() {
        assert!(pauli_y().is_unitary(1e-14));
        assert!(pauli_y().is_hermitian(1e-14));
        let not_u = CMat::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(!not_u.is_unitary(1e-10));
        assert!(!not_u.is_hermitian(1e-10));
    }

    #[test]
    fn apply_to_state() {
        let x = pauli_x();
        let v = vec![C64::ONE, C64::ZERO];
        let w = x.apply(&v);
        assert_eq!(w, vec![C64::ZERO, C64::ONE]);
    }

    #[test]
    fn submatrix_and_embed_roundtrip() {
        let m = CMat::from_fn(4, 4, |i, j| C64::new((i * 4 + j) as f64, 0.0));
        let sub = m.submatrix(&[1, 3], &[1, 3]);
        assert_eq!(sub[(0, 0)], C64::real(5.0));
        assert_eq!(sub[(1, 1)], C64::real(15.0));

        let emb = CMat::embed(&sub, 4, &[1, 3]);
        assert_eq!(emb[(1, 1)], C64::real(5.0));
        assert_eq!(emb[(3, 3)], C64::real(15.0));
        assert_eq!(emb[(0, 0)], C64::ONE);
        assert_eq!(emb[(2, 2)], C64::ONE);
        assert_eq!(emb[(0, 2)], C64::ZERO);
    }

    #[test]
    #[should_panic]
    fn embed_rejects_duplicate_indices() {
        let s = CMat::identity(2);
        let _ = CMat::embed(&s, 4, &[1, 1]);
    }

    #[test]
    fn powi_matches_repeated_mul() {
        let h = CMat::from_real(2, 2, &[1.0, 1.0, 1.0, -1.0]).scale(C64::real(1.0 / 2f64.sqrt()));
        let h4 = h.powi(4);
        assert!(h4.approx_eq(&CMat::identity(2), 1e-12));
        assert!(h.powi(0).approx_eq(&CMat::identity(2), 0.0));
        assert!(h.powi(1).approx_eq(&h, 0.0));
    }

    #[test]
    fn strip_global_phase_canonicalizes() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(1.234));
        let stripped = phased.strip_global_phase();
        assert!(stripped.approx_eq(&x, 1e-12));
    }

    #[test]
    fn top_left_block_projects() {
        let m = CMat::from_fn(3, 3, |i, j| C64::new((i + j) as f64, 0.0));
        let b = m.top_left_block(2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b[(1, 1)], C64::real(2.0));
    }

    #[test]
    fn diag_constructor() {
        let d = CMat::diag(&[C64::ONE, C64::I]);
        assert_eq!(d[(0, 0)], C64::ONE);
        assert_eq!(d[(1, 1)], C64::I);
        assert_eq!(d[(0, 1)], C64::ZERO);
    }

    #[test]
    fn operator_overloads() {
        let x = pauli_x();
        let z = pauli_z();
        let s = &x + &z;
        assert_eq!(s[(0, 0)], C64::ONE);
        assert_eq!(s[(0, 1)], C64::ONE);
        let d = &s - &z;
        assert!(d.approx_eq(&x, 0.0));
        let p = &x * &x;
        assert!(p.approx_eq(&CMat::identity(2), 0.0));
        let n = -&x;
        assert_eq!(n[(0, 1)], C64::real(-1.0));
    }
}
