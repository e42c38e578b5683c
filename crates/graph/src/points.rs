//! Flat point-cloud storage.
//!
//! Collocation points are stored row-major in one contiguous buffer
//! (`N × dim`), matching the paper's `X ∈ ℝ^{N×M}` sample matrix. The kNN
//! builders, the PGM and the samplers all reference points by index into a
//! shared cloud.

use sgm_linalg::rng::Rng64;

/// An `N × dim` point cloud in one flat buffer.
///
/// # Example
///
/// ```
/// use sgm_graph::points::PointCloud;
/// let c = PointCloud::from_flat(2, vec![0.0, 0.0, 3.0, 4.0]);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.dist2(0, 1), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PointCloud {
    dim: usize,
    data: Vec<f64>,
}

impl PointCloud {
    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or the buffer length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "buffer not a multiple of dim");
        PointCloud { dim, data }
    }

    /// An empty cloud of the given dimension.
    pub fn new(dim: usize) -> Self {
        Self::from_flat(dim, Vec::new())
    }

    /// Uniform random cloud in the axis-aligned box `[lo, hi]^dim`.
    pub fn uniform_box(n: usize, dim: usize, lo: f64, hi: f64, rng: &mut Rng64) -> Self {
        let data = (0..n * dim).map(|_| rng.uniform_in(lo, hi)).collect();
        Self::from_flat(dim, data)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the cloud holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics if `p.len() != dim`.
    pub fn push(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "point dimension");
        self.data.extend_from_slice(p);
    }

    /// Overwrites point `i` with `p` (the adaptive samplers move
    /// collocation points through this).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or `p.len() != dim`.
    #[inline]
    pub fn set_point(&mut self, i: usize, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "point dimension");
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(p);
    }

    /// Drops all points past the first `n` (no-op when `n >= len`).
    pub fn truncate(&mut self, n: usize) {
        self.data.truncate(n.saturating_mul(self.dim));
    }

    /// The flat buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Squared Euclidean distance between stored points `i` and `j`.
    #[inline]
    pub fn dist2(&self, i: usize, j: usize) -> f64 {
        dist2(self.point(i), self.point(j))
    }

    /// Squared Euclidean distance from stored point `i` to a query `q`.
    ///
    /// # Panics
    /// Panics (debug) if `q.len() != dim`.
    #[inline]
    pub fn dist2_to(&self, i: usize, q: &[f64]) -> f64 {
        dist2(self.point(i), q)
    }

    /// Restriction of the cloud to a subset of point indices (copies).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn subset(&self, idx: &[usize]) -> PointCloud {
        let mut data = Vec::with_capacity(idx.len() * self.dim);
        for &i in idx {
            data.extend_from_slice(self.point(i));
        }
        PointCloud::from_flat(self.dim, data)
    }

    /// Restriction to the first `d` coordinates of every point (e.g. the
    /// spatial `(x, y, z)` part of a parameterised sample, as the paper
    /// builds its kNN graph on the low-dimensional spatial coordinates).
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > dim`.
    pub fn project(&self, d: usize) -> PointCloud {
        assert!(d > 0 && d <= self.dim, "bad projection dim");
        let n = self.len();
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            data.extend_from_slice(&self.point(i)[..d]);
        }
        PointCloud::from_flat(d, data)
    }

    /// Bounding box `(mins, maxs)` of the cloud.
    ///
    /// # Panics
    /// Panics on an empty cloud.
    pub fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        assert!(!self.is_empty(), "bounds of empty cloud");
        let mut mins = self.point(0).to_vec();
        let mut maxs = mins.clone();
        for i in 1..self.len() {
            for (d, &v) in self.point(i).iter().enumerate() {
                mins[d] = mins[d].min(v);
                maxs[d] = maxs[d].max(v);
            }
        }
        (mins, maxs)
    }
}

/// Squared Euclidean distance between two slices.
///
/// # Panics
/// Panics (debug builds) if lengths differ.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    sgm_linalg::simd::dist2(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_access() {
        let c = PointCloud::from_flat(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.dim(), 3);
        assert_eq!(c.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn distances() {
        let c = PointCloud::from_flat(2, vec![0.0, 0.0, 3.0, 4.0]);
        assert_eq!(c.dist2(0, 1), 25.0);
        assert_eq!(c.dist2_to(0, &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn push_extends() {
        let mut c = PointCloud::new(2);
        c.push(&[1.0, 2.0]);
        c.push(&[3.0, 4.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn subset_and_project() {
        let c = PointCloud::from_flat(3, vec![1.0, 2.0, 9.0, 4.0, 5.0, 8.0, 6.0, 7.0, 7.0]);
        let s = c.subset(&[2, 0]);
        assert_eq!(s.point(0), &[6.0, 7.0, 7.0]);
        assert_eq!(s.point(1), &[1.0, 2.0, 9.0]);
        let p = c.project(2);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.point(1), &[4.0, 5.0]);
    }

    #[test]
    fn bounds_cover_all_points() {
        let c = PointCloud::from_flat(2, vec![0.0, 5.0, -3.0, 2.0, 4.0, -1.0]);
        let (mins, maxs) = c.bounds();
        assert_eq!(mins, vec![-3.0, -1.0]);
        assert_eq!(maxs, vec![4.0, 5.0]);
    }

    #[test]
    fn uniform_box_within_bounds() {
        let mut rng = Rng64::new(1);
        let c = PointCloud::uniform_box(100, 3, -2.0, 2.0, &mut rng);
        assert_eq!(c.len(), 100);
        let (mins, maxs) = c.bounds();
        for d in 0..3 {
            assert!(mins[d] >= -2.0 && maxs[d] <= 2.0);
        }
    }

    #[test]
    #[should_panic]
    fn ragged_buffer_panics() {
        let _ = PointCloud::from_flat(2, vec![1.0, 2.0, 3.0]);
    }
}
