//! Row-major dense matrices and the handful of BLAS-like kernels the
//! reproduction needs (GEMM, GEMV, transpose, small solves).
//!
//! GEMM and both GEMV variants run through a cache-blocked kernel and,
//! above a flop-count cutoff, split into row/column bands on the shared
//! [`sgm_par`] pool (selected by [`sgm_par::current`], default auto).
//! Banding never reorders any scalar accumulation — per output element
//! the k/row sums stay in ascending order — so results are bit-identical
//! across thread counts, and identical to the serial reference kernels
//! kept below as oracles ([`gemm_reference`]).

use crate::rng::Rng64;

/// Mul-add count above which GEMM parallelizes under `Parallelism::Auto`.
const GEMM_PAR_FLOPS: usize = 64 * 64 * 64;
/// Mul-add count above which GEMV parallelizes under `Parallelism::Auto`.
const GEMV_PAR_FLOPS: usize = 64 * 1024;
/// k-panel length of the blocked GEMM kernel: one panel of B
/// (`GEMM_KC × n` elements) stays cache-hot across all rows of a band.
const GEMM_KC: usize = 64;

/// A row-major dense `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use sgm_linalg::dense::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Matrix filled with standard Gaussian entries.
    pub fn gaussian(rows: usize, cols: usize, rng: &mut Rng64) -> Self {
        let data = (0..rows * cols).map(|_| rng.gaussian()).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes self, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        crate::simd::transpose(&self.data, self.rows, self.cols, &mut t.data);
        t
    }

    /// Writes the transpose of `self` into `dst` without allocating —
    /// the hot-loop variant of [`Matrix::transposed`].
    ///
    /// # Panics
    /// Panics if `dst` is not `cols × rows`.
    pub fn transpose_into(&self, dst: &mut Matrix) {
        assert_eq!(
            (dst.rows, dst.cols),
            (self.cols, self.rows),
            "transpose_into shape mismatch"
        );
        crate::simd::transpose(&self.data, self.rows, self.cols, &mut dst.data);
    }

    /// Overwrites every entry with `v` (buffer reuse in workspaces).
    pub fn fill(&mut self, v: f64) {
        for x in &mut self.data {
            *x = v;
        }
    }

    /// Copies another matrix of identical shape into `self`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Dense GEMM: `self * other`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "gemm dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm(1.0, self, other, 0.0, &mut out);
        out
    }

    /// Dense GEMV: `y = self * x`. Rows are independent dot products, so
    /// the parallel path is bit-identical to the serial one.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "gemv dim");
        let mut y = vec![0.0; self.rows];
        match sgm_par::current().pool(self.rows * self.cols, GEMV_PAR_FLOPS) {
            Some(pool) => {
                pool.par_chunks_mut(&mut y, 16, |r0, band| {
                    for (off, v) in band.iter_mut().enumerate() {
                        *v = dot(self.row(r0 + off), x);
                    }
                });
            }
            None => {
                for (r, yr) in y.iter_mut().enumerate() {
                    *yr = dot(self.row(r), x);
                }
            }
        }
        y
    }

    /// Transposed GEMV: `y = selfᵀ * x`, accumulated with an unconditional
    /// fused loop (a skip-on-zero branch mispredicts on dense inputs).
    /// The parallel path splits `y` into column bands; each column's sum
    /// over rows stays in ascending row order, so results are
    /// bit-identical to serial.
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    pub fn mul_vec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "gemv-t dim");
        let mut y = vec![0.0; self.cols];
        match sgm_par::current().pool(self.rows * self.cols, GEMV_PAR_FLOPS) {
            Some(pool) => {
                pool.par_chunks_mut(&mut y, 32, |c0, band| {
                    for (r, &xr) in x.iter().enumerate() {
                        let base = r * self.cols + c0;
                        let arow = &self.data[base..base + band.len()];
                        axpy(xr, arow, band);
                    }
                });
            }
            None => {
                for (r, &xr) in x.iter().enumerate() {
                    axpy(xr, self.row(r), &mut y);
                }
            }
        }
        y
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// In-place scaling (SIMD-dispatched).
    pub fn scale(&mut self, s: f64) {
        scale(&mut self.data, s);
    }

    /// In-place AXPY on matrices: `self += alpha * other`
    /// (SIMD-dispatched).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape"
        );
        axpy(alpha, &other.data, &mut self.data);
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    /// Intended for small dense systems (test oracles, pseudo-inverse of
    /// small Laplacians).
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs square");
        assert_eq!(b.len(), self.rows, "rhs dim");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if piv != col {
                for c in 0..n {
                    a.swap(col * n + c, piv * n + c);
                }
                x.swap(col, piv);
            }
            let d = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / d;
                if f != 0.0 {
                    for c in col..n {
                        a[r * n + c] -= f * a[col * n + c];
                    }
                    x[r] -= f * x[col];
                }
            }
        }
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in col + 1..n {
                s -= a[col * n + c] * x[c];
            }
            x[col] = s / a[col * n + col];
        }
        Some(x)
    }

    /// Moore–Penrose pseudo-inverse of a symmetric PSD matrix via its full
    /// eigendecomposition (Jacobi rotations). O(n³); test-oracle use only.
    ///
    /// Eigenvalues below `tol * λ_max` are treated as zero.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn sym_pinv(&self, tol: f64) -> Matrix {
        let (vals, vecs) = self.sym_eig();
        let n = self.rows;
        let lmax = vals.iter().cloned().fold(0.0, f64::max).max(1e-300);
        let mut out = Matrix::zeros(n, n);
        for (k, &vk) in vals.iter().enumerate() {
            if vk > tol * lmax {
                let inv = 1.0 / vk;
                for i in 0..n {
                    let vik = vecs.get(i, k);
                    if vik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out.add_at(i, j, inv * vik * vecs.get(j, k));
                    }
                }
            }
        }
        out
    }

    /// Cholesky factorisation `self = C Cᵀ` of a symmetric positive-definite
    /// matrix (lower-triangular `C`). Returns `None` if a non-positive pivot
    /// is encountered.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky needs square");
        let n = self.rows;
        let mut c = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self.get(i, j);
                for k in 0..j {
                    s -= c.get(i, k) * c.get(j, k);
                }
                if i == j {
                    if s <= 0.0 {
                        return None;
                    }
                    c.set(i, i, s.sqrt());
                } else {
                    c.set(i, j, s / c.get(j, j));
                }
            }
        }
        Some(c)
    }

    /// Solves `C x = b` for lower-triangular `C` (forward substitution).
    ///
    /// # Panics
    /// Panics on shape mismatch or a zero diagonal entry.
    pub fn forward_substitute(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols, "needs square");
        assert_eq!(b.len(), self.rows, "rhs dim");
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.get(i, j) * xj;
            }
            let d = self.get(i, i);
            assert!(d != 0.0, "zero diagonal");
            x[i] = s / d;
        }
        x
    }

    /// Solves `Cᵀ x = b` for lower-triangular `C` (back substitution on the
    /// transpose).
    ///
    /// # Panics
    /// Panics on shape mismatch or a zero diagonal entry.
    pub fn back_substitute_t(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols, "needs square");
        assert_eq!(b.len(), self.rows, "rhs dim");
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.get(j, i) * xj;
            }
            let d = self.get(i, i);
            assert!(d != 0.0, "zero diagonal");
            x[i] = s / d;
        }
        x
    }

    /// Full symmetric eigendecomposition by cyclic Jacobi rotations.
    /// Returns `(eigenvalues, eigenvector_columns)`. O(n³); intended for
    /// small matrices (test oracles and [`Matrix::sym_pinv`]).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn sym_eig(&self) -> (Vec<f64>, Matrix) {
        assert_eq!(self.rows, self.cols, "sym_eig needs square");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        for _sweep in 0..100 {
            let mut off = 0.0;
            for p in 0..n {
                for q in p + 1..n {
                    off += a.get(p, q).abs();
                }
            }
            if off < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in p + 1..n {
                    let apq = a.get(p, q);
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = 0.5 * (aqq - app) / apq;
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        let vals = (0..n).map(|i| a.get(i, i)).collect();
        (vals, v)
    }
}

/// `c = alpha * a * b + beta * c`.
///
/// Dispatches to the cache-blocked, register-tiled kernel
/// ([`gemm_band`]); above [`GEMM_PAR_FLOPS`] mul-adds the output rows
/// split into bands on the shared pool. Per output element the k-sum
/// stays in ascending order in every path, so `gemm` is bit-identical
/// across thread counts and to the naive [`gemm_reference`] oracle.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "gemm inner dim");
    assert_eq!(c.rows, a.rows, "gemm out rows");
    assert_eq!(c.cols, b.cols, "gemm out cols");
    if beta != 1.0 {
        for v in &mut c.data {
            *v *= beta;
        }
    }
    let n = b.cols;
    if a.rows == 0 || n == 0 || a.cols == 0 {
        return;
    }
    match sgm_par::current().pool(a.rows * a.cols * n, GEMM_PAR_FLOPS) {
        Some(pool) => {
            pool.par_rows_mut(&mut c.data, n, 1, |row0, cband| {
                gemm_band(alpha, a, b, row0, cband);
            });
        }
        None => gemm_band(alpha, a, b, 0, &mut c.data),
    }
}

/// Blocked kernel over one horizontal band of `c`, dispatched on the
/// SIMD tier: the AVX-512 and AVX2 tiers run one vector body that
/// vectorises the innermost j loop 8- resp. 4-wide over row pairs, with
/// a masked column tail (FMA, ascending-k update order preserved); the
/// scalar tier runs the original register-tiled kernel. All keep
/// per-element accumulation order independent of the band split, so
/// parallelism stays bit-invariant within any tier.
fn gemm_band(alpha: f64, a: &Matrix, b: &Matrix, row0: usize, cband: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a vector tier is only selected when its CPU features are
    // available; shapes are validated by the `gemm` entry point.
    match crate::simd::current_tier() {
        crate::simd::SimdTier::Avx512 => {
            return unsafe {
                crate::simd::gemm_band_avx512(
                    alpha, &a.data, a.cols, &b.data, b.cols, GEMM_KC, row0, cband,
                )
            };
        }
        crate::simd::SimdTier::Avx2 => {
            return unsafe {
                crate::simd::gemm_band_avx2(
                    alpha, &a.data, a.cols, &b.data, b.cols, GEMM_KC, row0, cband,
                )
            };
        }
        crate::simd::SimdTier::Scalar => {}
    }
    gemm_band_scalar(alpha, a, b, row0, cband)
}

/// Scalar blocked kernel over one horizontal band of `c` (rows
/// `row0..row0 + cband.len()/n`): the k loop is cut into [`GEMM_KC`]
/// panels so a `GEMM_KC × n` slab of B stays cache-hot across every row
/// of the band, and the innermost update is 4-way register-tiled over k.
/// The fused update expression evaluates left-to-right, preserving the
/// sequential-k association of the naive kernel bit-for-bit — the
/// scalar tier is bit-equal to [`gemm_reference`].
fn gemm_band_scalar(alpha: f64, a: &Matrix, b: &Matrix, row0: usize, cband: &mut [f64]) {
    let kdim = a.cols;
    let n = b.cols;
    debug_assert_eq!(cband.len() % n, 0);
    let rows = cband.len() / n;
    let mut k0 = 0;
    while k0 < kdim {
        let kend = (k0 + GEMM_KC).min(kdim);
        for ri in 0..rows {
            let arow = &a.data[(row0 + ri) * kdim..(row0 + ri + 1) * kdim];
            let crow = &mut cband[ri * n..(ri + 1) * n];
            let mut k = k0;
            while k + 4 <= kend {
                let f0 = alpha * arow[k];
                let f1 = alpha * arow[k + 1];
                let f2 = alpha * arow[k + 2];
                let f3 = alpha * arow[k + 3];
                let (b0, rest) = b.data[k * n..(k + 4) * n].split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for (j, cv) in crow.iter_mut().enumerate() {
                    *cv = *cv + f0 * b0[j] + f1 * b1[j] + f2 * b2[j] + f3 * b3[j];
                }
                k += 4;
            }
            while k < kend {
                let f = alpha * arow[k];
                let brow = &b.data[k * n..(k + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += f * bv;
                }
                k += 1;
            }
        }
        k0 = kend;
    }
}

/// Serial reference GEMM (naive ikj loop) — the oracle the blocked and
/// banded paths are property-tested against. `c = alpha*a*b + beta*c`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_reference(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "gemm inner dim");
    assert_eq!(c.rows, a.rows, "gemm out rows");
    assert_eq!(c.cols, b.cols, "gemm out cols");
    if beta != 1.0 {
        for v in &mut c.data {
            *v *= beta;
        }
    }
    let n = b.cols;
    for i in 0..a.rows {
        let arow = &a.data[i * a.cols..(i + 1) * a.cols];
        let crow = &mut c.data[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            let f = alpha * aik;
            let brow = &b.data[k * n..(k + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += f * bv;
            }
        }
    }
}

/// Dot product (SIMD-dispatched; one index-strided partial sum per lane:
/// four in the scalar and AVX2 tiers, eight in AVX-512 — see `simd`
/// module docs for the cross-tier contract).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    crate::simd::dot(a, b)
}

/// `y += alpha * x` (SIMD-dispatched, elementwise — bit-invariant under
/// any chunked parallel split).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::simd::axpy(alpha, x, y)
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// In-place scaling of a vector (SIMD-dispatched).
#[inline]
pub fn scale(x: &mut [f64], s: f64) {
    crate::simd::scale(x, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involutive() {
        let mut rng = Rng64::new(1);
        let a = Matrix::gaussian(4, 7, &mut rng);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let mut rng = Rng64::new(2);
        let a = Matrix::gaussian(5, 3, &mut rng);
        let x = vec![1.0, -2.0, 0.5];
        let y = a.mul_vec(&x);
        let xm = Matrix::from_vec(3, 1, x);
        let ym = a.matmul(&xm);
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - ym.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_vec_t_matches_transpose() {
        let mut rng = Rng64::new(3);
        let a = Matrix::gaussian(5, 3, &mut rng);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y1 = a.mul_vec_t(&x);
        let y2 = a.transposed().mul_vec(&x);
        for i in 0..3 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_roundtrip() {
        let mut rng = Rng64::new(4);
        // Diagonally dominant => well conditioned.
        let n = 8;
        let mut a = Matrix::gaussian(n, n, &mut rng);
        for i in 0..n {
            a.add_at(i, i, 10.0);
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).expect("nonsingular");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "{} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn sym_eig_reconstructs() {
        let mut rng = Rng64::new(5);
        let n = 6;
        let g = Matrix::gaussian(n, n, &mut rng);
        let a = g.matmul(&g.transposed()); // SPD
        let (vals, vecs) = a.sym_eig();
        // A v_k = λ_k v_k
        for (k, &lk) in vals.iter().enumerate() {
            let vk: Vec<f64> = (0..n).map(|i| vecs.get(i, k)).collect();
            let av = a.mul_vec(&vk);
            for (avi, vki) in av.iter().zip(&vk) {
                assert!((avi - lk * vki).abs() < 1e-7, "eigpair {k}");
            }
        }
    }

    #[test]
    fn sym_pinv_of_laplacian() {
        // Path graph on 3 nodes: L = [[1,-1,0],[-1,2,-1],[0,-1,1]]
        let l = Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        let p = l.sym_pinv(1e-9);
        // L * L⁺ * L = L
        let t = l.matmul(&p).matmul(&l);
        for i in 0..3 {
            for j in 0..3 {
                assert!((t.get(i, j) - l.get(i, j)).abs() < 1e-8);
            }
        }
        // Effective resistance between ends of a 2-edge path = 2.
        let e = [1.0, 0.0, -1.0];
        let pe = p.mul_vec(&e);
        let r = dot(&e, &pe);
        assert!((r - 2.0).abs() < 1e-8, "R = {r}");
    }

    #[test]
    fn cholesky_roundtrip() {
        let mut rng = Rng64::new(6);
        let g = Matrix::gaussian(5, 5, &mut rng);
        let mut a = g.matmul(&g.transposed());
        for i in 0..5 {
            a.add_at(i, i, 1.0);
        }
        let c = a.cholesky().expect("SPD");
        let cct = c.matmul(&c.transposed());
        for i in 0..5 {
            for j in 0..5 {
                assert!((cct.get(i, j) - a.get(i, j)).abs() < 1e-9);
            }
        }
        // Triangular solves invert the factorisation.
        let b = vec![1.0, -2.0, 3.0, 0.5, 0.0];
        let y = c.forward_substitute(&b);
        let x = c.back_substitute_t(&y);
        let ax = a.mul_vec(&x);
        for i in 0..5 {
            assert!((ax[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn gemm_beta_accumulates() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut c = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        gemm(2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c.get(0, 0), 2.5);
        assert_eq!(c.get(0, 1), 0.5);
    }

    #[test]
    fn gemm_matches_reference_bit_exactly() {
        use crate::simd::{self, SimdTier};
        use sgm_par::{with_parallelism, Parallelism};
        let mut rng = Rng64::new(7);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (17, 33, 9),
            (70, 70, 70),
        ] {
            let a = Matrix::gaussian(m, k, &mut rng);
            let b = Matrix::gaussian(k, n, &mut rng);
            let c0 = Matrix::gaussian(m, n, &mut rng);
            let mut expect = c0.clone();
            gemm_reference(0.7, &a, &b, 0.3, &mut expect);
            for &tier in simd::available_tiers() {
                simd::with_tier(tier, || {
                    let mut base = c0.clone();
                    with_parallelism(Parallelism::Serial, || gemm(0.7, &a, &b, 0.3, &mut base));
                    for (x, y) in base.as_slice().iter().zip(expect.as_slice()) {
                        if tier == SimdTier::Scalar {
                            // The scalar tier preserves the naive kernel's
                            // association, so it stays bit-equal to the oracle.
                            assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} scalar vs ref");
                        } else {
                            // FMA tiers diverge only by contraction rounding.
                            assert!(
                                (x - y).abs() <= 1e-12 * (y.abs() + 1.0),
                                "{m}x{k}x{n} {tier:?} vs ref: {x} vs {y}"
                            );
                        }
                    }
                    // Within a tier, parallelism is bit-invariant.
                    for p in [Parallelism::Threads(2), Parallelism::Threads(8)] {
                        let mut c = c0.clone();
                        with_parallelism(p, || gemm(0.7, &a, &b, 0.3, &mut c));
                        for (x, y) in c.as_slice().iter().zip(base.as_slice()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} {tier:?} {p:?}");
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn gemv_parallel_matches_serial_bit_exactly() {
        use crate::simd;
        use sgm_par::{with_parallelism, Parallelism};
        let mut rng = Rng64::new(8);
        let a = Matrix::gaussian(65, 41, &mut rng);
        let x: Vec<f64> = (0..41).map(|_| rng.gaussian()).collect();
        let xt: Vec<f64> = (0..65).map(|_| rng.gaussian()).collect();
        for &tier in simd::available_tiers() {
            simd::with_tier(tier, || {
                let y0 = with_parallelism(Parallelism::Serial, || a.mul_vec(&x));
                let z0 = with_parallelism(Parallelism::Serial, || a.mul_vec_t(&xt));
                for threads in [2usize, 8] {
                    let y = with_parallelism(Parallelism::Threads(threads), || a.mul_vec(&x));
                    let z = with_parallelism(Parallelism::Threads(threads), || a.mul_vec_t(&xt));
                    assert!(y.iter().zip(&y0).all(|(p, q)| p.to_bits() == q.to_bits()));
                    assert!(z.iter().zip(&z0).all(|(p, q)| p.to_bits() == q.to_bits()));
                }
            });
        }
    }

    #[test]
    fn vector_helpers() {
        let a = [1.0, 2.0, 2.0];
        assert_eq!(norm2(&a), 3.0);
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 5.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.5, 2.5, 2.5]);
    }
}
