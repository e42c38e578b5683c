//! The sampler interface and the uniform baseline.
//!
//! The trainer is deliberately sampler-agnostic: every iteration it asks
//! a [`Sampler`] to fill the interior mini-batch index buffer and offers
//! it a [`Probe`] through which the sampler may (on its own schedule,
//! e.g. every `τ_e` iterations) evaluate per-sample losses or network
//! outputs on subsets of the dataset. The uniform / MIS / RAR / SGM-PINN
//! samplers all implement this trait, so the experiment harness compares
//! them under identical training mechanics — exactly the paper's setup
//! on Modulus.
//!
//! # The draw/adapt split
//!
//! The trait has two capabilities. Every sampler implements the **draw**
//! side ([`Sampler::fill_batch`] + [`Sampler::refresh`]): reweighting
//! mini-batch draws over a fixed collocation set. Samplers that also
//! mutate the collocation *set* — DMIS, RAD, RAR-D — opt into the
//! **adapt** side by returning `true` from [`Sampler::adapts_points`]
//! and implementing [`Sampler::adapt`], which receives the engine-owned
//! [`PointSet`] mutably once per iteration (between `Refresh` and
//! `Draw`). After a mutating adapt the engine re-validates batch shapes,
//! gathers all subsequent batches from the mutated set and calls
//! [`Sampler::on_points_changed`] so samplers that keep structures
//! derived from the coordinates can update them.
//!
//! # Allocation contract
//!
//! [`Sampler::fill_batch`] must not allocate in steady state (the engine
//! reuses one index buffer for the whole run). [`Sampler::adapt`] must
//! not allocate on iterations where it leaves the set untouched; on
//! mutating iterations it runs probe evaluations and may allocate, like
//! a `τ_e` refresh.

use crate::model::LossModel;
use crate::pointset::{PointChanges, PointSet};
use sgm_json::Value;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::mlp::Mlp;

/// Read-only view the trainer lends to samplers so they can score
/// samples. When the run has a mutable [`PointSet`] (an adaptive
/// sampler is active), all index-based methods read the *current*
/// coordinates from it rather than the model's initial dataset.
pub struct Probe<'a> {
    /// Current network.
    pub net: &'a Mlp,
    /// The training objective (for loss/output evaluation).
    pub model: &'a (dyn LossModel + 'a),
    points: Option<&'a PointSet>,
}

impl std::fmt::Debug for Probe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").finish_non_exhaustive()
    }
}

impl<'a> Probe<'a> {
    /// A probe over the model's own (fixed) collocation set.
    pub fn new(net: &'a Mlp, model: &'a (dyn LossModel + 'a)) -> Self {
        Probe {
            net,
            model,
            points: None,
        }
    }

    /// A probe whose index-based methods read coordinates from `points`
    /// (the engine uses this whenever an adaptive sampler owns the set).
    pub fn with_points(
        net: &'a Mlp,
        model: &'a (dyn LossModel + 'a),
        points: Option<&'a PointSet>,
    ) -> Self {
        Probe { net, model, points }
    }

    /// The engine-owned point set, when one exists.
    pub fn points(&self) -> Option<&'a PointSet> {
        self.points
    }

    fn gather_points(&self, ps: &PointSet, idx: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(idx.len(), ps.dim());
        for (r, &i) in idx.iter().enumerate() {
            for (c, &v) in ps.point(i).iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Per-sample interior losses at the given indices (paper: the
    /// `r × N` loss calculations every `τ_e` iterations).
    pub fn sample_losses(&self, idx: &[usize]) -> Vec<f64> {
        match self.points {
            Some(ps) => self.model.losses_at(self.net, &self.gather_points(ps, idx)),
            None => self.model.sample_losses(self.net, idx),
        }
    }

    /// Per-sample interior losses at arbitrary coordinates (one row per
    /// candidate point) — how the adaptive samplers score proposal
    /// points that are not in the set yet.
    pub fn losses_at(&self, coords: &Matrix) -> Vec<f64> {
        self.model.losses_at(self.net, coords)
    }

    /// Network outputs at the given interior indices (the ISR stage
    /// builds its output graph from these).
    pub fn outputs(&self, idx: &[usize]) -> Matrix {
        match self.points {
            Some(ps) => self
                .model
                .outputs_at(self.net, &self.gather_points(ps, idx)),
            None => self.model.outputs(self.net, idx),
        }
    }

    /// Input rows at the given interior indices.
    pub fn inputs(&self, idx: &[usize]) -> Matrix {
        match self.points {
            Some(ps) => self.gather_points(ps, idx),
            None => self.model.inputs(idx),
        }
    }

    /// Size of the interior dataset (the *current* point-set size when
    /// an adaptive sampler owns it).
    pub fn num_interior(&self) -> usize {
        match self.points {
            Some(ps) => ps.len(),
            None => self.model.num_interior(),
        }
    }
}

/// Chooses interior mini-batches; may maintain internal importance
/// state, and may opt into mutating the collocation set itself (see the
/// module docs for the draw/adapt split).
pub trait Sampler {
    /// Short display name (used in experiment tables).
    fn name(&self) -> &str;

    /// Writes the indices of the next interior mini-batch into `out`
    /// (clearing it first). The engine reuses one buffer for the whole
    /// run, so implementations must not allocate here in steady state.
    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64);

    /// Called once per iteration *before* the batch is drawn; samplers
    /// refresh importance state here on their own schedule.
    fn refresh(&mut self, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        let _ = (iter, probe, rng);
    }

    /// Whether this sampler mutates the collocation set. When `true`,
    /// the engine builds a [`PointSet`] from
    /// [`LossModel::interior_cloud`] (which must return `Some`), runs
    /// the `Adapt` stage every iteration and gathers batches from the
    /// set. Draw-only samplers keep the default `false` and pay nothing.
    fn adapts_points(&self) -> bool {
        false
    }

    /// Mutates the collocation set (move / add / drop points) on the
    /// sampler's own schedule. Runs between `Refresh` and `Draw`; only
    /// called when [`Sampler::adapts_points`] is `true`. Must not
    /// allocate on iterations where it leaves the set untouched.
    ///
    /// The probe passed here has no point-set view (the sampler holds
    /// the set mutably): score coordinates read from `points` through
    /// [`Probe::losses_at`] rather than the index-based methods, which
    /// would see the model's initial dataset.
    fn adapt(&mut self, points: &mut PointSet, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        let _ = (points, iter, probe, rng);
    }

    /// Notification that the adapt phase mutated the set (issued by the
    /// engine after draining the change log, before the draw). Samplers
    /// layered on graph structures update them here — the SGM sampler
    /// copies moved rows into the cloud its next τ_G rebuild reads, and
    /// rebuilds inline when the set changes size.
    fn on_points_changed(&mut self, points: &PointSet, changes: &PointChanges) {
        let _ = (points, changes);
    }

    /// Coordinate resynchronisation on resume: called once after
    /// [`Sampler::load_state`] when the checkpoint carried a point set,
    /// with the restored coordinates. Unlike
    /// [`Sampler::on_points_changed`] this must not mark anything dirty
    /// — the restored state already reflects these coordinates.
    fn sync_points(&mut self, points: &PointSet) {
        let _ = points;
    }

    /// Serialisable importance state for run checkpointing. Stateless
    /// samplers return [`Value::Null`].
    fn save_state(&self) -> Value {
        Value::Null
    }

    /// Restores state captured by [`Sampler::save_state`]. The default
    /// accepts only [`Value::Null`] (stateless samplers).
    ///
    /// # Errors
    /// Returns a message when the payload does not match this sampler.
    fn load_state(&mut self, state: &Value) -> Result<(), String> {
        match state {
            Value::Null => Ok(()),
            _ => Err(format!(
                "sampler {:?} does not accept saved state",
                self.name()
            )),
        }
    }
}

/// Trivial uniform sampler (the `U_β` baselines).
#[derive(Debug, Clone, Default)]
pub struct UniformSampler {
    n: usize,
}

impl UniformSampler {
    /// Uniform sampler over `n` interior points.
    pub fn new(n: usize) -> Self {
        UniformSampler { n }
    }
}

impl Sampler for UniformSampler {
    fn name(&self) -> &str {
        "uniform"
    }

    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
        out.clear();
        for _ in 0..batch_size {
            out.push(rng.below(self.n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next_batch(s: &mut dyn Sampler, batch: usize, rng: &mut Rng64) -> Vec<usize> {
        let mut out = Vec::new();
        s.fill_batch(batch, &mut out, rng);
        out
    }

    #[test]
    fn uniform_sampler_covers_dataset() {
        let mut s = UniformSampler::new(20);
        let mut rng = Rng64::new(1);
        let mut seen = [false; 20];
        for _ in 0..50 {
            for i in next_batch(&mut s, 10, &mut rng) {
                assert!(i < 20);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn fill_batch_clears_stale_contents() {
        let mut a = UniformSampler::new(33);
        let mut b = UniformSampler::new(33);
        let mut ra = Rng64::new(5);
        let mut rb = Rng64::new(5);
        let mut buf = vec![999usize; 4];
        a.fill_batch(7, &mut buf, &mut ra);
        assert_eq!(buf, next_batch(&mut b, 7, &mut rb));
    }

    #[test]
    fn default_state_roundtrip() {
        let mut s = UniformSampler::new(5);
        let saved = s.save_state();
        assert!(matches!(saved, Value::Null));
        assert!(s.load_state(&saved).is_ok());
        assert!(s.load_state(&Value::Num(1.0)).is_err());
    }

    #[test]
    fn draw_only_samplers_do_not_adapt() {
        let s = UniformSampler::new(5);
        assert!(!s.adapts_points());
    }
}
