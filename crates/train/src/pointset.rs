//! The engine-owned, mutable collocation set.
//!
//! Classic samplers only reweight draws over a fixed cloud; the adaptive
//! rivals (DMIS, RAD, RAR-D) *move, add or drop* collocation points. The
//! [`PointSet`] is the single authoritative copy of the interior
//! coordinates during such a run: the engine builds it from
//! [`LossModel::interior_cloud`](crate::LossModel::interior_cloud) before
//! the first iteration, lends it mutably to
//! [`Sampler::adapt`](crate::Sampler::adapt) each iteration, and gathers
//! every subsequent batch from it instead of from the model's internal
//! dataset.
//!
//! Every mutation is recorded in a [`PointChanges`] log that the engine
//! drains once per iteration — it drives workspace re-validation, the
//! [`on_points_changed`](crate::Sampler::on_points_changed) notification
//! (how the SGM graph layer learns that its cloud changed) and the
//! `sgm_train_points_*` metrics.
//!
//! # Allocation contract
//!
//! Iterations where `adapt` does not mutate the set must stay
//! allocation-free: the change log's `moved` buffer keeps its capacity
//! across [`PointSet::drain_changes`] calls, and a no-op adapt touches
//! nothing. Mutating iterations run probe evaluations and may allocate —
//! they are the adaptive analogue of the `τ_e` refresh, not the
//! steady-state path.

use sgm_graph::points::PointCloud;

/// Log of one adapt phase's mutations, in engine-visible form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointChanges {
    /// Indices whose coordinates were overwritten (deduplicated, sorted).
    pub moved: Vec<usize>,
    /// Points appended at the end of the set.
    pub added: usize,
    /// Points dropped from the end of the set.
    pub dropped: usize,
}

impl PointChanges {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty() && self.added == 0 && self.dropped == 0
    }

    fn clear(&mut self) {
        self.moved.clear();
        self.added = 0;
        self.dropped = 0;
    }
}

/// Mutable interior collocation set with a change log and an epoch
/// counter (bumped once per mutating adapt phase; checkpointed so a
/// resumed run knows how many mutations preceded it).
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    cloud: PointCloud,
    epoch: u64,
    pending: PointChanges,
}

impl PointSet {
    /// Wraps an initial cloud (epoch 0, no pending changes).
    pub fn new(cloud: PointCloud) -> Self {
        PointSet {
            cloud,
            epoch: 0,
            pending: PointChanges::default(),
        }
    }

    /// Rebuilds a set from checkpointed parts (resume path).
    ///
    /// # Panics
    /// Panics if the flat buffer is not a multiple of `dim`.
    pub fn from_parts(dim: usize, coords: Vec<f64>, epoch: u64) -> Self {
        PointSet {
            cloud: PointCloud::from_flat(dim, coords),
            epoch,
            pending: PointChanges::default(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.cloud.len()
    }

    /// True when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.cloud.is_empty()
    }

    /// Coordinate dimension.
    pub fn dim(&self) -> usize {
        self.cloud.dim()
    }

    /// Mutations applied so far (one per mutating adapt phase).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Read-only view of the current coordinates.
    pub fn cloud(&self) -> &PointCloud {
        &self.cloud
    }

    /// Flat row-major coordinate buffer.
    pub fn coords(&self) -> &[f64] {
        self.cloud.as_slice()
    }

    /// Borrow of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn point(&self, i: usize) -> &[f64] {
        self.cloud.point(i)
    }

    /// Moves point `i` to `p`, logging it.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or `p.len() != dim`.
    pub fn set_point(&mut self, i: usize, p: &[f64]) {
        assert!(i < self.len(), "set_point index {i} out of bounds");
        self.cloud.set_point(i, p);
        self.pending.moved.push(i);
    }

    /// Appends a point, logging it.
    ///
    /// # Panics
    /// Panics if `p.len() != dim`.
    pub fn push(&mut self, p: &[f64]) {
        self.cloud.push(p);
        self.pending.added += 1;
    }

    /// Drops all points past the first `n`, logging the removal.
    ///
    /// # Panics
    /// Panics if `n == 0` (an empty collocation set cannot be trained
    /// on) or `n > len`.
    pub fn truncate(&mut self, n: usize) {
        assert!(n > 0, "cannot truncate point set to zero points");
        assert!(n <= self.len(), "truncate {n} beyond len {}", self.len());
        self.pending.dropped += self.len() - n;
        self.cloud.truncate(n);
    }

    /// Drains the pending change log into `out` (deduplicating the moved
    /// list and dropping moved indices that no longer exist). Returns
    /// `true` — after bumping the epoch — when anything changed. The
    /// engine calls this once per iteration, reusing one `out` across
    /// the run so quiet iterations stay allocation-free.
    pub fn drain_changes(&mut self, out: &mut PointChanges) -> bool {
        out.clear();
        if self.pending.is_empty() {
            return false;
        }
        std::mem::swap(&mut out.moved, &mut self.pending.moved);
        out.moved.sort_unstable();
        out.moved.dedup();
        out.moved.retain(|&i| i < self.len());
        out.added = self.pending.added;
        out.dropped = self.pending.dropped;
        self.pending.clear();
        self.epoch += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set3() -> PointSet {
        PointSet::new(PointCloud::from_flat(2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]))
    }

    #[test]
    fn mutations_are_logged_and_epoch_bumps_per_drain() {
        let mut ps = set3();
        assert_eq!(ps.epoch(), 0);
        ps.set_point(1, &[5.0, 5.0]);
        ps.set_point(1, &[6.0, 6.0]);
        ps.push(&[7.0, 7.0]);
        let mut ch = PointChanges::default();
        assert!(ps.drain_changes(&mut ch));
        assert_eq!(ch.moved, vec![1]);
        assert_eq!(ch.added, 1);
        assert_eq!(ch.dropped, 0);
        assert_eq!(ps.epoch(), 1);
        assert_eq!(ps.point(1), &[6.0, 6.0]);
        assert_eq!(ps.len(), 4);
        // Quiet drain: no change, no epoch bump.
        assert!(!ps.drain_changes(&mut ch));
        assert_eq!(ps.epoch(), 1);
    }

    #[test]
    fn truncate_logs_dropped_and_filters_moved() {
        let mut ps = set3();
        ps.set_point(2, &[9.0, 9.0]);
        ps.truncate(2);
        let mut ch = PointChanges::default();
        assert!(ps.drain_changes(&mut ch));
        assert_eq!(ch.dropped, 1);
        // The moved index no longer exists — it must not be reported.
        assert!(ch.moved.is_empty());
        assert_eq!(ps.len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn truncate_to_zero_panics() {
        set3().truncate(0);
    }

    #[test]
    fn from_parts_roundtrips() {
        let mut ps = set3();
        ps.push(&[3.0, 3.0]);
        let mut ch = PointChanges::default();
        ps.drain_changes(&mut ch);
        let back = PointSet::from_parts(ps.dim(), ps.coords().to_vec(), ps.epoch());
        assert_eq!(back, ps);
    }
}
