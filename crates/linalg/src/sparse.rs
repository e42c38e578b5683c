//! Compressed sparse row matrices.
//!
//! The PGM Laplacians in SGM-PINN have `O(kN)` nonzeros; CSR keeps SpMV,
//! smoothers and CG linear in the edge count.

use crate::dense::Matrix;

/// A compressed-sparse-row `f64` matrix.
///
/// # Example
///
/// ```
/// use sgm_linalg::sparse::Csr;
/// let a = Csr::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
/// let mut y = vec![0.0; 2];
/// a.mul_vec(&[1.0, 1.0], &mut y);
/// assert_eq!(y, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds from COO triplets `(row, col, value)`. Duplicate entries are
    /// summed. Entries that sum to exactly zero are retained (harmless).
    ///
    /// # Panics
    /// Panics if any index is out of bounds or `cols > u32::MAX`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        assert!(cols <= u32::MAX as usize, "cols exceed u32 index space");
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0u32; triplets.len()];
        let mut values = vec![0.0; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let p = cursor[r];
            col_idx[p] = c as u32;
            values[p] = v;
            cursor[r] += 1;
        }
        let mut m = Csr {
            rows,
            cols,
            row_ptr: counts,
            col_idx,
            values,
        };
        m.sort_and_merge();
        m
    }

    fn sort_and_merge(&mut self) {
        let mut new_ptr = vec![0usize; self.rows + 1];
        let mut new_cols = Vec::with_capacity(self.col_idx.len());
        let mut new_vals = Vec::with_capacity(self.values.len());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..self.rows {
            scratch.clear();
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                scratch.push((self.col_idx[p], self.values[p]));
            }
            scratch.sort_unstable_by_key(|t| t.0);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                new_cols.push(c);
                new_vals.push(v);
                i = j;
            }
            new_ptr[r + 1] = new_cols.len();
        }
        self.row_ptr = new_ptr;
        self.col_idx = new_cols;
        self.values = new_vals;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(r, c)` or 0.0 if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row_iter(r)
            .find(|&(cc, _)| cc == c)
            .map_or(0.0, |(_, v)| v)
    }

    /// SpMV: `y = A x` (SIMD-dispatched: the vector tiers gather four or
    /// eight `x` entries per step; see `crate::simd::spmv`).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        // The vector tiers gather `x[col_idx[p]]` without bounds checks:
        // `from_triplets` keeps every column index below `cols`, and this
        // assert keeps `cols` within `x`.
        assert_eq!(x.len(), self.cols, "spmv x dim");
        assert_eq!(y.len(), self.rows, "spmv y dim");
        crate::simd::spmv(&self.row_ptr, &self.col_idx, &self.values, x, y);
    }

    /// Allocating SpMV convenience.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec(x, &mut y);
        y
    }

    /// The diagonal as a vector (missing entries are 0).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        let mut d = vec![0.0; n];
        for (r, dr) in d.iter_mut().enumerate() {
            *dr = self.get(r, r);
        }
        d
    }

    /// Dense copy (test-oracle use).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                m.add_at(r, c, v);
            }
        }
        m
    }

    /// Checks structural symmetry and value symmetry within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                if (self.get(c, r) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Anything that can act as a symmetric linear operator on vectors.
/// Implemented by [`Csr`], [`Matrix`] and composite operators (e.g. the
/// `L_Y⁺ L_X` pencil in the stability crate).
pub trait LinOp {
    /// Operator dimension (square).
    fn dim(&self) -> usize;
    /// `y = A x`.
    fn apply_to(&self, x: &[f64], y: &mut [f64]);
}

impl LinOp for Csr {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows, self.cols);
        self.rows
    }
    fn apply_to(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec(x, y);
    }
}

impl LinOp for Matrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }
    fn apply_to(&self, x: &[f64], y: &mut [f64]) {
        let r = self.mul_vec(x);
        y.copy_from_slice(&r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn triplets_roundtrip() {
        let a = sample();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 1), -1.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = Csr::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = vec![1.0, 2.0, 3.0];
        let ys = a.apply(&x);
        let yd = d.mul_vec(&x);
        for i in 0..3 {
            assert!((ys[i] - yd[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn rows_sorted_by_column() {
        let a = Csr::from_triplets(1, 4, &[(0, 3, 1.0), (0, 0, 2.0), (0, 2, 3.0)]);
        let cols: Vec<usize> = a.row_iter(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn symmetry_check() {
        assert!(sample().is_symmetric(0.0));
        let asym = Csr::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn short_x_panics_under_every_tier() {
        // The vector tiers' gathers are unchecked, so the length check
        // must fire before any tier's kernel runs.
        let a = Csr::from_triplets(2, 9, &[(0, 8, 1.0), (1, 0, 2.0)]);
        for &t in crate::simd::available_tiers() {
            let res = std::panic::catch_unwind(|| {
                let mut y = vec![0.0; 2];
                crate::simd::with_tier(t, || a.mul_vec(&[1.0; 8], &mut y));
            });
            assert!(res.is_err(), "{t:?}: mul_vec accepted a short x");
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_triplet_panics() {
        let _ = Csr::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn linop_trait_dispatch() {
        let a = sample();
        let op: &dyn LinOp = &a;
        let mut y = vec![0.0; 3];
        op.apply_to(&[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y, vec![2.0, -1.0, 0.0]);
    }
}
