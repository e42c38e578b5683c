//! The [`LossModel`] implementation for PINN problems — the bridge
//! between the physics layer and the `sgm-train` engine.
//!
//! [`PinnModel`] wraps a [`Problem`] + [`TrainSet`] pair and exposes the
//! engine-facing interface: gather batches into a preallocated
//! [`PinnWorkspace`], compute the weighted interior + boundary loss with
//! exact parameter gradients through the allocation-free `sgm-nn`
//! workspace path, and serve the probe evaluations importance samplers
//! request. The engine itself (in `sgm-train`) never sees a PDE.

use crate::problem::{Problem, TrainSet};
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_nn::mlp::{BatchDerivatives, Gradients, Mlp, MlpWorkspace};
use sgm_train::{BatchedLossModel, LossModel, ModelWorkspace};
use std::any::Any;

/// A [`Problem`] + [`TrainSet`] pair viewed as a training objective.
#[derive(Debug, Clone, Copy)]
pub struct PinnModel<'a> {
    /// PDE + loss weights.
    pub problem: &'a Problem,
    /// Collocation data.
    pub data: &'a TrainSet,
}

impl<'a> PinnModel<'a> {
    /// Bundles a problem with its collocation data.
    pub fn new(problem: &'a Problem, data: &'a TrainSet) -> Self {
        PinnModel { problem, data }
    }

    /// Interior PDE term of one batch: the residuals of `derivs` at the
    /// batch rows `xi` into `resid`, the adjoint seeds `2 w_k r_k / bi`
    /// into `factors`, and through the PDE's chain rule the adjoints into
    /// `adj`. Returns the weighted mean squared residual.
    fn interior_term(
        &self,
        xi: &Matrix,
        derivs: &BatchDerivatives,
        resid: &mut Matrix,
        factors: &mut Matrix,
        adj: &mut BatchDerivatives,
    ) -> f64 {
        self.problem.pde.residuals_into(xi, derivs, resid);
        let bi = xi.rows();
        let nr = self.problem.pde.num_residuals();
        let inv_b = 1.0 / bi as f64;
        let mut total = 0.0;
        for i in 0..bi {
            for k in 0..nr {
                let w = self.problem.residual_weights[k];
                let rv = resid.get(i, k);
                total += w * rv * rv * inv_b;
                factors.set(i, k, 2.0 * w * rv * inv_b);
            }
        }
        adj.zero();
        self.problem
            .pde
            .accumulate_adjoints(xi, derivs, factors, adj);
        total
    }

    /// Dirichlet term of one batch: the misfit of the network `values` at
    /// boundary points `bidx` against their targets (`NaN` targets are
    /// unconstrained), with the value adjoints into `adj`. Returns the
    /// weighted mean squared misfit.
    fn boundary_term(&self, bidx: &[usize], values: &Matrix, adj: &mut BatchDerivatives) -> f64 {
        let o = values.cols();
        let inv_b = 1.0 / bidx.len() as f64;
        adj.zero();
        let mut total = 0.0;
        for (row, &i) in bidx.iter().enumerate() {
            for k in 0..o {
                let t = self.data.boundary_targets.get(i, k);
                if t.is_nan() {
                    continue;
                }
                let r = values.get(row, k) - t;
                total += self.problem.bc_weight * r * r * inv_b;
                adj.values
                    .set(row, k, 2.0 * self.problem.bc_weight * r * inv_b);
            }
        }
        total
    }
}

/// Preallocated per-run scratch for [`PinnModel`]: interior and boundary
/// batch matrices, network workspaces, residual/factor buffers and
/// adjoint accumulators. Steady-state iterations touch only these
/// buffers — no heap allocations under serial parallelism.
#[derive(Debug)]
pub struct PinnWorkspace {
    diff_dims: Vec<usize>,
    /// Interior batch rows, `bi × dim`.
    xi: Matrix,
    nni: MlpWorkspace,
    /// Residual values, `bi × num_residuals`.
    resid: Matrix,
    /// Adjoint seed factors `2 w_k r_k / bi`.
    factors: Matrix,
    adj_i: BatchDerivatives,
    /// Effective boundary batch size (0 = no boundary term).
    bb: usize,
    /// Boundary batch rows, `bb × dim`.
    xb: Matrix,
    nnb: MlpWorkspace,
    adj_b: BatchDerivatives,
    /// Boundary indices of the current batch (for target lookups).
    bidx: Vec<usize>,
}

impl ModelWorkspace for PinnWorkspace {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl PinnWorkspace {
    fn of(ws: &mut dyn ModelWorkspace) -> &mut PinnWorkspace {
        ws.as_any_mut()
            .downcast_mut()
            .expect("workspace was not created by PinnModel")
    }

    fn of_ref(ws: &dyn ModelWorkspace) -> &PinnWorkspace {
        ws.as_any()
            .downcast_ref()
            .expect("workspace was not created by PinnModel")
    }
}

impl LossModel for PinnModel<'_> {
    fn num_interior(&self) -> usize {
        self.data.num_interior()
    }

    fn num_boundary(&self) -> usize {
        self.data.num_boundary()
    }

    fn make_workspace(
        &self,
        net: &Mlp,
        batch_interior: usize,
        batch_boundary: usize,
    ) -> Box<dyn ModelWorkspace> {
        let diff_dims = self.problem.pde.diff_dims();
        let nd = diff_dims.len();
        let nr = self.problem.pde.num_residuals();
        let out = self.problem.pde.output_dim();
        Box::new(PinnWorkspace {
            xi: Matrix::zeros(batch_interior, self.data.interior.dim()),
            nni: net.make_workspace(batch_interior, nd),
            resid: Matrix::zeros(batch_interior, nr),
            factors: Matrix::zeros(batch_interior, nr),
            adj_i: BatchDerivatives::zeros(batch_interior, out, nd),
            bb: batch_boundary,
            xb: Matrix::zeros(batch_boundary, self.data.boundary.dim()),
            nnb: net.make_workspace(batch_boundary, 0),
            adj_b: BatchDerivatives::zeros(batch_boundary, out, 0),
            bidx: Vec::with_capacity(batch_boundary),
            diff_dims,
        })
    }

    fn gather(&self, interior_idx: &[usize], boundary_idx: &[usize], ws: &mut dyn ModelWorkspace) {
        let ws = PinnWorkspace::of(ws);
        Problem::gather_into(&self.data.interior, interior_idx, &mut ws.xi);
        if ws.bb > 0 {
            Problem::gather_into(&self.data.boundary, boundary_idx, &mut ws.xb);
            ws.bidx.clear();
            ws.bidx.extend_from_slice(boundary_idx);
        }
    }

    fn loss_and_grad(&self, net: &Mlp, ws: &mut dyn ModelWorkspace, grads: &mut Gradients) -> f64 {
        let ws = PinnWorkspace::of(ws);
        // Interior PDE term.
        net.forward_with_derivs_ws(&ws.xi, &ws.diff_dims, &mut ws.nni);
        let mut total = self.interior_term(
            &ws.xi,
            ws.nni.derivs(),
            &mut ws.resid,
            &mut ws.factors,
            &mut ws.adj_i,
        );
        net.backward_ws(&mut ws.nni, &ws.adj_i, grads);

        // Boundary (Dirichlet) term, sharing the same gradient
        // accumulator.
        if ws.bb > 0 {
            net.forward_with_derivs_ws(&ws.xb, &[], &mut ws.nnb);
            total += self.boundary_term(&ws.bidx, &ws.nnb.derivs().values, &mut ws.adj_b);
            net.backward_ws(&mut ws.nnb, &ws.adj_b, grads);
        }
        total
    }

    fn batch_loss(&self, net: &Mlp, interior_idx: &[usize], boundary_idx: &[usize]) -> f64 {
        let per = self
            .problem
            .interior_sample_losses(net, self.data, interior_idx);
        let mut total = per.iter().sum::<f64>() / interior_idx.len().max(1) as f64;
        if !boundary_idx.is_empty() {
            total += self.problem.boundary_loss(net, self.data, boundary_idx);
        }
        total
    }

    fn sample_losses(&self, net: &Mlp, idx: &[usize]) -> Vec<f64> {
        self.problem.interior_sample_losses(net, self.data, idx)
    }

    fn outputs(&self, net: &Mlp, idx: &[usize]) -> Matrix {
        self.problem.interior_outputs(net, self.data, idx)
    }

    fn inputs(&self, idx: &[usize]) -> Matrix {
        Problem::gather(&self.data.interior, idx)
    }

    fn interior_cloud(&self) -> Option<PointCloud> {
        Some(self.data.interior.clone())
    }

    fn gather_from(
        &self,
        points: &PointCloud,
        interior_idx: &[usize],
        boundary_idx: &[usize],
        ws: &mut dyn ModelWorkspace,
    ) {
        let ws = PinnWorkspace::of(ws);
        Problem::gather_into(points, interior_idx, &mut ws.xi);
        if ws.bb > 0 {
            Problem::gather_into(&self.data.boundary, boundary_idx, &mut ws.xb);
            ws.bidx.clear();
            ws.bidx.extend_from_slice(boundary_idx);
        }
    }

    fn batch_loss_from(
        &self,
        net: &Mlp,
        points: &PointCloud,
        interior_idx: &[usize],
        boundary_idx: &[usize],
    ) -> f64 {
        let x = Problem::gather(points, interior_idx);
        let per = self.problem.sample_losses_at(net, &x);
        let mut total = per.iter().sum::<f64>() / interior_idx.len().max(1) as f64;
        if !boundary_idx.is_empty() {
            total += self.problem.boundary_loss(net, self.data, boundary_idx);
        }
        total
    }

    fn losses_at(&self, net: &Mlp, coords: &Matrix) -> Vec<f64> {
        self.problem.sample_losses_at(net, coords)
    }
}

/// The staged halves of [`LossModel::loss_and_grad`], exposed so the
/// lockstep runner (`sgm_train::multi`) can route the network forward
/// and backward passes through the batched kernels. Both halves run the
/// same `interior_term` / `boundary_term` as `loss_and_grad`, reading
/// the passed derivatives instead of the internal network workspace —
/// for bit-identical derivative inputs they produce bit-identical
/// adjoints, which is what the lockstep determinism contract rests on.
impl BatchedLossModel for PinnModel<'_> {
    fn diff_dims(&self) -> Vec<usize> {
        self.problem.pde.diff_dims()
    }

    fn interior_input<'a>(&self, ws: &'a dyn ModelWorkspace) -> &'a Matrix {
        &PinnWorkspace::of_ref(ws).xi
    }

    fn boundary_input<'a>(&self, ws: &'a dyn ModelWorkspace) -> Option<&'a Matrix> {
        let ws = PinnWorkspace::of_ref(ws);
        (ws.bb > 0).then_some(&ws.xb)
    }

    fn interior_adjoints(
        &self,
        ws: &mut dyn ModelWorkspace,
        derivs: &BatchDerivatives,
        adj: &mut BatchDerivatives,
    ) -> f64 {
        let ws = PinnWorkspace::of(ws);
        self.interior_term(&ws.xi, derivs, &mut ws.resid, &mut ws.factors, adj)
    }

    fn boundary_adjoints(
        &self,
        ws: &mut dyn ModelWorkspace,
        values: &Matrix,
        adj: &mut BatchDerivatives,
    ) -> f64 {
        self.boundary_term(&PinnWorkspace::of(ws).bidx, values, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Cavity, FillStrategy};
    use crate::pde::{Pde, PoissonConfig};
    use crate::validate::ValidationSet;
    use sgm_linalg::rng::Rng64;
    use sgm_nn::activation::Activation;
    use sgm_nn::mlp::MlpConfig;
    use sgm_nn::optimizer::{AdamConfig, LrSchedule};
    use sgm_train::{TrainOptions, Trainer, UniformSampler};

    fn poisson_setup(seed: u64) -> (Mlp, Problem, TrainSet, ValidationSet) {
        let pde = Pde::Poisson(PoissonConfig {
            forcing: |p: &[f64]| {
                let pi = std::f64::consts::PI;
                2.0 * pi * pi * (pi * p[0]).sin() * (pi * p[1]).sin()
            },
        });
        let problem = Problem::new(pde);
        let cav = Cavity::default();
        let mut rng = Rng64::new(seed);
        let interior = cav.sample_interior(512, FillStrategy::Halton, &mut rng);
        // Dirichlet u = 0 on all walls.
        let n_b = 64;
        let mut bpts = Vec::new();
        let mut tgt = Matrix::zeros(n_b, 1);
        for i in 0..n_b {
            let t = rng.uniform();
            let (x, y) = match i % 4 {
                0 => (t, 0.0),
                1 => (t, 1.0),
                2 => (0.0, t),
                _ => (1.0, t),
            };
            bpts.push(x);
            bpts.push(y);
            tgt.set(i, 0, 0.0);
        }
        let data = TrainSet {
            interior,
            boundary: sgm_graph::points::PointCloud::from_flat(2, bpts),
            boundary_targets: tgt,
        };
        // Validation grid with exact solution.
        let g = 12;
        let mut pts = Matrix::zeros(g * g, 2);
        let mut targets = Matrix::zeros(g * g, 1);
        let pi = std::f64::consts::PI;
        for i in 0..g {
            for j in 0..g {
                let (x, y) = ((i as f64 + 0.5) / g as f64, (j as f64 + 0.5) / g as f64);
                pts.set(i * g + j, 0, x);
                pts.set(i * g + j, 1, y);
                targets.set(i * g + j, 0, (pi * x).sin() * (pi * y).sin());
            }
        }
        let val = ValidationSet {
            points: pts,
            targets,
            output_indices: vec![0],
            names: vec!["u".into()],
        };
        let cfg = MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 24,
            hidden_layers: 2,
            activation: Activation::Tanh,
            fourier: None,
        };
        let mut nrng = Rng64::new(seed + 1);
        (Mlp::new(&cfg, &mut nrng), problem, data, val)
    }

    #[test]
    fn training_reduces_validation_error() {
        let (mut net, problem, data, val) = poisson_setup(11);
        let model = PinnModel::new(&problem, &data);
        let mut sampler = UniformSampler::new(data.num_interior());
        let opts = TrainOptions {
            iterations: 800,
            batch_interior: 64,
            batch_boundary: 32,
            adam: AdamConfig {
                lr: 5e-3,
                schedule: LrSchedule::Constant,
                ..AdamConfig::default()
            },
            seed: 3,
            record_every: 100,
            max_seconds: None,
            synthetic_dt: None,
        };
        let result = Trainer {
            net: &mut net,
            model: &model,
        }
        .run(&mut sampler, Some(&val), &opts);
        let first = result.history.first().unwrap().val_errors[0];
        let (best, _t) = result.min_error(0).unwrap();
        assert!(
            best < 0.5 * first,
            "validation error did not improve: {first} -> {best}"
        );
        assert_eq!(result.sampler, "uniform");
    }

    #[test]
    fn history_timestamps_monotone_and_clocks_split() {
        let (mut net, problem, data, val) = poisson_setup(12);
        let model = PinnModel::new(&problem, &data);
        let mut sampler = UniformSampler::new(data.num_interior());
        let opts = TrainOptions {
            iterations: 50,
            batch_interior: 16,
            batch_boundary: 8,
            record_every: 10,
            ..TrainOptions::default()
        };
        let result = Trainer {
            net: &mut net,
            model: &model,
        }
        .run(&mut sampler, Some(&val), &opts);
        for w in result.history.windows(2) {
            assert!(w[1].seconds >= w[0].seconds);
            assert!(w[1].iteration > w[0].iteration);
        }
        // Record timestamps are on the training clock, which excludes
        // validation time.
        assert!(result.train_seconds >= result.history.last().unwrap().seconds);
        assert!(result.record_seconds > 0.0, "validation took time");
        assert_eq!(
            result.total_seconds,
            result.train_seconds + result.record_seconds
        );
    }

    /// `batch_loss` (the record-path evaluation) equals the training
    /// loss value for the same weights and batch.
    #[test]
    fn batch_loss_matches_loss_and_grad() {
        let (net, problem, data, _val) = poisson_setup(14);
        let model = PinnModel::new(&problem, &data);
        let idx: Vec<usize> = (0..24).collect();
        let bidx: Vec<usize> = (0..12).collect();
        let mut ws = model.make_workspace(&net, idx.len(), bidx.len());
        model.gather(&idx, &bidx, &mut *ws);
        let mut grads = net.zero_gradients();
        let with_grad = model.loss_and_grad(&net, &mut *ws, &mut grads);
        let without = model.batch_loss(&net, &idx, &bidx);
        assert!(
            (with_grad - without).abs() <= 1e-12 * with_grad.abs(),
            "{with_grad} vs {without}"
        );
    }

    /// Workspaces are reusable: repeated gather/loss cycles give the
    /// same results as fresh evaluations.
    #[test]
    fn workspace_reuse_is_stable() {
        let (net, problem, data, _val) = poisson_setup(15);
        let model = PinnModel::new(&problem, &data);
        let mut ws = model.make_workspace(&net, 16, 8);
        let mut rng = Rng64::new(5);
        for _ in 0..3 {
            let idx: Vec<usize> = (0..16).map(|_| rng.below(data.num_interior())).collect();
            let bidx: Vec<usize> = (0..8).map(|_| rng.below(data.num_boundary())).collect();
            model.gather(&idx, &bidx, &mut *ws);
            let mut g1 = net.zero_gradients();
            let l1 = model.loss_and_grad(&net, &mut *ws, &mut g1);
            // Fresh workspace for the same batch.
            let mut ws2 = model.make_workspace(&net, 16, 8);
            model.gather(&idx, &bidx, &mut *ws2);
            let mut g2 = net.zero_gradients();
            let l2 = model.loss_and_grad(&net, &mut *ws2, &mut g2);
            assert_eq!(l1.to_bits(), l2.to_bits());
            for (a, b) in g1.flat().iter().zip(&g2.flat()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A 3-job PINN parameter sweep through the batched lockstep runner
    /// reproduces each solo `Trainer` run bit for bit — losses,
    /// validation errors, clocks and final parameters. This is the full
    /// batched path: fourier-less tanh nets, second derivatives along
    /// both inputs, and a Dirichlet boundary term.
    #[test]
    fn pinn_lockstep_sweep_matches_solo_bitwise() {
        use sgm_train::{ParamSweep, SweepJob};
        const DT: f64 = 1.0 / 1024.0;
        let setups: Vec<_> = (0..3).map(|i| poisson_setup(40 + i)).collect();
        let optses: Vec<TrainOptions> = (0..3)
            .map(|i| TrainOptions {
                iterations: 30,
                batch_interior: 24,
                batch_boundary: 12,
                adam: AdamConfig {
                    lr: [5e-3, 1e-3, 2e-3][i],
                    schedule: if i == 2 {
                        LrSchedule::Exponential {
                            gamma: 0.9,
                            decay_steps: 5,
                        }
                    } else {
                        LrSchedule::Constant
                    },
                    ..AdamConfig::default()
                },
                seed: 7 + i as u64,
                record_every: 10,
                max_seconds: None,
                synthetic_dt: Some(DT),
            })
            .collect();

        // Solo reference runs.
        let mut solo = Vec::new();
        for (i, (net, problem, data, val)) in setups.iter().enumerate() {
            let mut n = net.clone();
            let model = PinnModel::new(problem, data);
            let mut sampler = UniformSampler::new(data.num_interior());
            let r = Trainer {
                net: &mut n,
                model: &model,
            }
            .run(&mut sampler, Some(val), &optses[i]);
            solo.push((n, r));
        }

        // The same three runs as one lockstep batch.
        let mut nets: Vec<Mlp> = setups.iter().map(|s| s.0.clone()).collect();
        let models: Vec<PinnModel<'_>> = setups
            .iter()
            .map(|(_, problem, data, _)| PinnModel::new(problem, data))
            .collect();
        let mut samplers: Vec<UniformSampler> = setups
            .iter()
            .map(|(_, _, data, _)| UniformSampler::new(data.num_interior()))
            .collect();
        let mut jobs: Vec<SweepJob<'_>> = nets
            .iter_mut()
            .zip(&models)
            .zip(&mut samplers)
            .zip(&optses)
            .zip(&setups)
            .map(|((((net, model), sampler), opts), setup)| SweepJob {
                net,
                model,
                sampler,
                validator: Some(&setup.3),
                opts,
            })
            .collect();
        let results = ParamSweep::run(&mut jobs).unwrap();
        drop(jobs);

        for i in 0..3 {
            let (sn, sr) = &solo[i];
            let br = &results[i];
            assert_eq!(sr.history.len(), br.history.len(), "job {i}: history");
            for (a, b) in sr.history.iter().zip(&br.history) {
                assert_eq!(a.iteration, b.iteration, "job {i}");
                assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "job {i}");
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "job {i} iter {}",
                    a.iteration
                );
                assert_eq!(a.val_errors.len(), b.val_errors.len(), "job {i}");
                for (x, y) in a.val_errors.iter().zip(&b.val_errors) {
                    assert_eq!(x.to_bits(), y.to_bits(), "job {i} iter {}", a.iteration);
                }
            }
            for (a, b) in sn.params().iter().zip(&nets[i].params()) {
                assert_eq!(a.to_bits(), b.to_bits(), "job {i}: params");
            }
        }
    }
}
