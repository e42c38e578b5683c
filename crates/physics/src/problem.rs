//! A trainable PINN problem: PDE + collocation data + loss weights.

use crate::pde::Pde;
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_nn::batched::BatchedMlp;
use sgm_nn::mlp::{BatchDerivatives, Mlp};

/// Smallest probe batch that [`Problem::sample_losses_at`] routes
/// through the lane-replicated batched fast path. Below this the
/// pack/workspace setup outweighs the fused-kernel win.
pub const PROBE_FUSE_MIN_ROWS: usize = 64;

/// The collocation data a problem trains on.
#[derive(Debug, Clone)]
pub struct TrainSet {
    /// Interior collocation points, `N × input_dim` (the paper's sample
    /// matrix `X ∈ ℝ^{N×M}`). Importance sampling operates on this set.
    pub interior: PointCloud,
    /// Boundary points (`N_b × input_dim`).
    pub boundary: PointCloud,
    /// Dirichlet targets per boundary point and output; `NaN` entries are
    /// unconstrained.
    pub boundary_targets: Matrix,
}

impl TrainSet {
    /// Number of interior samples.
    pub fn num_interior(&self) -> usize {
        self.interior.len()
    }

    /// Number of boundary samples.
    pub fn num_boundary(&self) -> usize {
        self.boundary.len()
    }
}

/// A PDE plus loss weighting.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The governing equations.
    pub pde: Pde,
    /// Per-residual weights `w_F` (length = `pde.num_residuals()`).
    pub residual_weights: Vec<f64>,
    /// Weight on the boundary-condition loss `w_C`.
    pub bc_weight: f64,
}

impl Problem {
    /// A problem with unit weights.
    pub fn new(pde: Pde) -> Self {
        let n = pde.num_residuals();
        Problem {
            pde,
            residual_weights: vec![1.0; n],
            bc_weight: 1.0,
        }
    }

    /// Gathers rows `idx` of a cloud into a batch matrix.
    pub fn gather(cloud: &PointCloud, idx: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(idx.len(), cloud.dim());
        Self::gather_into(cloud, idx, &mut m);
        m
    }

    /// Like [`Problem::gather`], writing into a preallocated
    /// `idx.len() × dim` buffer (the zero-allocation training path).
    ///
    /// # Panics
    /// Panics if the buffer shape does not match.
    pub fn gather_into(cloud: &PointCloud, idx: &[usize], m: &mut Matrix) {
        assert_eq!(
            (m.rows(), m.cols()),
            (idx.len(), cloud.dim()),
            "gather buffer shape"
        );
        for (r, &i) in idx.iter().enumerate() {
            m.row_mut(r).copy_from_slice(cloud.point(i));
        }
    }

    /// Boundary (Dirichlet) loss alone at batch rows `idx` — no
    /// gradients; the record-path evaluation.
    pub fn boundary_loss(&self, net: &Mlp, data: &TrainSet, idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let x = Self::gather(&data.boundary, idx);
        let vals = net.forward(&x);
        let o = vals.cols();
        let inv_b = 1.0 / idx.len() as f64;
        let mut total = 0.0;
        for (row, &i) in idx.iter().enumerate() {
            for k in 0..o {
                let t = data.boundary_targets.get(i, k);
                if t.is_nan() {
                    continue;
                }
                let r = vals.get(row, k) - t;
                total += self.bc_weight * r * r * inv_b;
            }
        }
        total
    }

    /// Per-sample interior losses for arbitrary indices — the **loss
    /// probe** importance samplers call on small subsets (no gradients,
    /// values + derivatives forward pass only).
    pub fn interior_sample_losses(&self, net: &Mlp, data: &TrainSet, idx: &[usize]) -> Vec<f64> {
        if idx.is_empty() {
            return Vec::new();
        }
        let x = Self::gather(&data.interior, idx);
        self.sample_losses_at(net, &x)
    }

    /// Per-sample interior losses at arbitrary coordinates (one row per
    /// point) — how point-set-adaptive samplers score proposal locations
    /// that are not in the collocation set yet.
    ///
    /// Probe batches of [`PROBE_FUSE_MIN_ROWS`] rows or more run through
    /// the lane-replicated [`BatchedMlp`] fast path: the network is
    /// packed 8× and the rows split across lanes, so one register-tiled
    /// pass evaluates 8 row blocks at once. Results are bit-identical to
    /// the sequential path on every SIMD tier — per-row arithmetic does
    /// not depend on how rows are grouped.
    pub fn sample_losses_at(&self, net: &Mlp, x: &Matrix) -> Vec<f64> {
        if x.rows() == 0 {
            return Vec::new();
        }
        if x.rows() >= PROBE_FUSE_MIN_ROWS {
            return self.sample_losses_fused(net, x);
        }
        let d = net.forward_with_derivs(x, &self.pde.diff_dims());
        let r = self.pde.residuals(x, &d);
        self.weighted_row_losses(&r, x.rows())
    }

    /// `Σ_k w_k r²_{ik}` per row of a residual matrix.
    fn weighted_row_losses(&self, r: &Matrix, rows: usize) -> Vec<f64> {
        let nr = self.pde.num_residuals();
        (0..rows)
            .map(|i| {
                (0..nr)
                    .map(|k| self.residual_weights[k] * r.get(i, k).powi(2))
                    .sum()
            })
            .collect()
    }

    /// The fused probe path: lane-replicate `net` across all 8 batch
    /// lanes, give each lane a contiguous row block (the last block
    /// padded by repeating the final row), and evaluate residuals per
    /// lane from the deinterleaved derivatives.
    fn sample_losses_fused(&self, net: &Mlp, x: &Matrix) -> Vec<f64> {
        const LANES: usize = 8;
        let rows = x.rows();
        let dim = x.cols();
        let chunk = rows.div_ceil(LANES);
        let dd = self.pde.diff_dims();
        let mut lane_x: Vec<Matrix> = (0..LANES).map(|_| Matrix::zeros(chunk, dim)).collect();
        for (l, lx) in lane_x.iter_mut().enumerate() {
            for r in 0..chunk {
                let src = (l * chunk + r).min(rows - 1);
                lx.row_mut(r).copy_from_slice(x.row(src));
            }
        }
        let packed = BatchedMlp::pack(&[net; LANES]);
        let mut ws = packed.make_workspace(chunk, dd.len());
        let xrefs: Vec<&Matrix> = lane_x.iter().collect();
        packed.forward_with_derivs_batched(&xrefs, &dd, &mut ws);
        let nr = self.pde.num_residuals();
        let mut d = BatchDerivatives::zeros(chunk, self.pde.output_dim(), dd.len());
        let mut resid = Matrix::zeros(chunk, nr);
        let mut out = vec![0.0; rows];
        for (l, lx) in lane_x.iter().enumerate() {
            let base = l * chunk;
            if base >= rows {
                break;
            }
            ws.extract_derivs(l, &mut d);
            self.pde.residuals_into(lx, &d, &mut resid);
            for r in 0..chunk.min(rows - base) {
                out[base + r] = (0..nr)
                    .map(|k| self.residual_weights[k] * resid.get(r, k).powi(2))
                    .sum();
            }
        }
        out
    }

    /// Network outputs at arbitrary interior indices (what the ISR stage
    /// builds its output graph from).
    pub fn interior_outputs(&self, net: &Mlp, data: &TrainSet, idx: &[usize]) -> Matrix {
        let x = Self::gather(&data.interior, idx);
        net.forward(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Cavity, FillStrategy};
    use crate::model::PinnModel;
    use crate::pde::{NsConfig, PoissonConfig};
    use sgm_linalg::rng::Rng64;
    use sgm_nn::activation::Activation;
    use sgm_nn::mlp::{Gradients, MlpConfig};
    use sgm_train::LossModel;

    fn poisson_problem() -> Problem {
        Problem::new(Pde::Poisson(PoissonConfig {
            forcing: |p: &[f64]| {
                let pi = std::f64::consts::PI;
                2.0 * pi * pi * (pi * p[0]).sin() * (pi * p[1]).sin()
            },
        }))
    }

    fn small_net(out: usize, seed: u64) -> Mlp {
        let cfg = MlpConfig {
            input_dim: 2,
            output_dim: out,
            hidden_width: 10,
            hidden_layers: 2,
            activation: Activation::SiLu,
            fourier: None,
        };
        let mut rng = Rng64::new(seed);
        Mlp::new(&cfg, &mut rng)
    }

    fn cavity_data(seed: u64, out: usize) -> TrainSet {
        let cav = Cavity::default();
        let mut rng = Rng64::new(seed);
        let interior = cav.sample_interior(64, FillStrategy::Uniform, &mut rng);
        // Zero-Dirichlet targets on a few wall points (enough for probes).
        let boundary =
            sgm_graph::points::PointCloud::from_flat(2, vec![0.0, 0.5, 1.0, 0.5, 0.5, 0.0]);
        let boundary_targets = Matrix::zeros(3, out);
        TrainSet {
            interior,
            boundary,
            boundary_targets,
        }
    }

    /// `PinnModel::loss_and_grad` over interior rows `idx` and boundary
    /// rows `bidx`: the training loss and its gradient.
    fn train_loss(
        prob: &Problem,
        data: &TrainSet,
        net: &Mlp,
        idx: &[usize],
        bidx: &[usize],
    ) -> (f64, Gradients) {
        let model = PinnModel::new(prob, data);
        let mut ws = model.make_workspace(net, idx.len(), bidx.len());
        model.gather(idx, bidx, &mut *ws);
        let mut grads = net.zero_gradients();
        let loss = model.loss_and_grad(net, &mut *ws, &mut grads);
        (loss, grads)
    }

    #[test]
    fn nan_targets_are_unconstrained() {
        let prob = Problem::new(Pde::NavierStokes(NsConfig {
            nu: 0.1,
            zero_eq: None,
        }));
        let net = small_net(3, 2);
        let mut tgt = Matrix::zeros(1, 3);
        tgt.set(0, 0, f64::NAN);
        tgt.set(0, 1, f64::NAN);
        tgt.set(0, 2, f64::NAN);
        let data = TrainSet {
            interior: sgm_graph::points::PointCloud::from_flat(2, vec![0.5, 0.5]),
            boundary: sgm_graph::points::PointCloud::from_flat(2, vec![0.2, 0.9]),
            boundary_targets: tgt,
        };
        // An empty interior batch leaves only the boundary term.
        let (l, g) = train_loss(&prob, &data, &net, &[], &[0]);
        assert_eq!(l, 0.0);
        assert_eq!(g.l2_norm(), 0.0);
    }

    #[test]
    fn per_sample_losses_sum_to_total() {
        let prob = poisson_problem();
        let net = small_net(1, 3);
        let data = TrainSet {
            interior: PointCloud::from_flat(2, vec![0.1, 0.9, 0.4, 0.4, 0.7, 0.3]),
            boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
            boundary_targets: Matrix::zeros(1, 1),
        };
        let idx = [0usize, 1, 2];
        let (total, _) = train_loss(&prob, &data, &net, &idx, &[]);
        let per = prob.interior_sample_losses(&net, &data, &idx);
        let mean: f64 = per.iter().sum::<f64>() / per.len() as f64;
        assert!((total - mean).abs() < 1e-12);
    }

    #[test]
    fn probe_matches_batch_losses() {
        let prob = poisson_problem();
        let net = small_net(1, 4);
        let data = cavity_data(5, 1);
        let idx = [3usize, 10, 20];
        let probe = prob.interior_sample_losses(&net, &data, &idx);
        for i in 0..3 {
            // The training loss of a one-row batch is that row's loss.
            let (per, _) = train_loss(&prob, &data, &net, &idx[i..=i], &[]);
            assert!((probe[i] - per).abs() < 1e-12);
        }
    }

    #[test]
    fn outputs_probe_shape() {
        let prob = poisson_problem();
        let net = small_net(1, 6);
        let data = cavity_data(6, 1);
        let out = prob.interior_outputs(&net, &data, &[0, 1, 2, 3]);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 1);
    }

    /// The fused (lane-replicated `BatchedMlp`) probe path must return
    /// the same bits as the solo workspace forward pass on every
    /// available SIMD tier, including batch sizes that do not divide
    /// evenly across the 8 lanes.
    #[test]
    fn fused_probe_matches_sequential_bitwise() {
        use sgm_linalg::simd;
        let problems = [
            (poisson_problem(), small_net(1, 11)),
            (
                Problem::new(Pde::NavierStokes(NsConfig {
                    nu: 0.05,
                    zero_eq: None,
                })),
                small_net(3, 12),
            ),
        ];
        for (prob, net) in &problems {
            for rows in [PROBE_FUSE_MIN_ROWS, 100, 129] {
                let mut rng = Rng64::new(rows as u64);
                let mut x = Matrix::zeros(rows, 2);
                for i in 0..rows {
                    x.set(i, 0, rng.uniform());
                    x.set(i, 1, rng.uniform());
                }
                for &t in simd::available_tiers() {
                    let fused = simd::with_tier(t, || prob.sample_losses_fused(net, &x));
                    let seq = simd::with_tier(t, || {
                        let d = net.forward_with_derivs(&x, &prob.pde.diff_dims());
                        let r = prob.pde.residuals(&x, &d);
                        prob.weighted_row_losses(&r, rows)
                    });
                    assert_eq!(fused.len(), rows);
                    for i in 0..rows {
                        assert_eq!(
                            fused[i].to_bits(),
                            seq[i].to_bits(),
                            "tier {} rows {rows} row {i}: {} vs {}",
                            t.name(),
                            fused[i],
                            seq[i]
                        );
                    }
                }
            }
        }
    }
}
