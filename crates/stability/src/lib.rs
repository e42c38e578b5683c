//! # sgm-stability
//!
//! The spectral stability metric of paper step **S3**: the Inverse
//! Stability Rating (ISR), a black-box robustness score for an ML model
//! over a dataset, following SPADE (Cheng et al., ICML'21).
//!
//! Given a probe set of samples with input features `X` and model outputs
//! `Y = F(X)`, two kNN graphs `G_X`, `G_Y` are built over the same node
//! set. The **distance-mapping distortion** `γ^F(p,q) = d_Y(p,q) / d_X(p,q)`
//! measures how much the map stretches locally; its supremum is bounded by
//! the dominant generalized eigenvalue of the Laplacian pencil (Lemma 2):
//!
//! ```text
//! ISR^F = λ_max(L_Y⁺ L_X) ≥ K* ≥ γ^F_max
//! ```
//!
//! Edge and node scores come from the top-`r` eigenpairs (Lemma 3 / Eq. 11):
//! `ISR^F(p,q) = ‖V_rᵀ e_pq‖²` with `V_r = [v_1 √λ_1, …, v_r √λ_r]`, and
//! `ISR^F(p)` is the mean edge score over `p`'s input-graph neighbours.
//! High node scores flag regions where the output manifold changes fastest
//! with the *inputs* — exactly the signal plain loss-based importance
//! sampling misses on parameterised problems (paper §2.2, §4.2).
//!
//! Only the top `r` pairs are needed, so the pencil is solved as in SPADE:
//! Cholesky-factor `L_Y + εI = C Cᵀ` once (dense, `O(n³/6)` in the *probe*
//! count, not the dataset size), then run [`lanczos`] on the standard
//! symmetric operator `C⁻¹ L_X C⁻ᵀ`. Each application is a triangular
//! solve, a sparse `L_X` product and a second triangular solve, so the
//! `n × n` reduced matrix is never formed.
//!
//! # Example
//!
//! ```
//! use sgm_graph::points::PointCloud;
//! use sgm_stability::{spade_scores, SpadeConfig};
//!
//! // A map that stretches the right half of the line.
//! let n = 40;
//! let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64 - 0.5).collect();
//! let ys: Vec<f64> = xs.iter().map(|&x| if x > 0.0 { 8.0 * x } else { x }).collect();
//! let inp = PointCloud::from_flat(1, xs);
//! let out = PointCloud::from_flat(1, ys);
//! let result = spade_scores(&inp, &out, &SpadeConfig::default());
//! assert!(result.isr_max >= 1.0);
//! ```

use sgm_graph::graph::Graph;
use sgm_graph::knn::{build_knn_graph, KnnConfig, KnnStrategy};
use sgm_graph::laplacian::regularized_laplacian;
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::{scale, Matrix};
use sgm_linalg::eigen::{lanczos, LanczosOptions};
use sgm_linalg::sparse::{Csr, LinOp};

/// Configuration for [`spade_scores`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpadeConfig {
    /// kNN size for both the input and output graphs.
    pub k: usize,
    /// Number of dominant eigenpairs used for the embedding `V_r`.
    pub num_pairs: usize,
    /// Tikhonov regularisation added to both Laplacians before the pencil
    /// reduction.
    pub reg_eps: f64,
    /// Weight floor for kNN edges.
    pub weight_eps: f64,
}

impl Default for SpadeConfig {
    fn default() -> Self {
        SpadeConfig {
            k: 6,
            num_pairs: 4,
            reg_eps: 1e-6,
            weight_eps: 1e-9,
        }
    }
}

/// Output of [`spade_scores`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpadeResult {
    /// Dominant generalized eigenvalue `λ_max(L_Y⁺ L_X)` — the global ISR,
    /// an upper bound on the best Lipschitz constant of the map.
    pub isr_max: f64,
    /// Per-node ISR scores (Eq. 11): mean edge score over input-graph
    /// neighbours. Larger = less stable region.
    pub node_scores: Vec<f64>,
    /// The generalized eigenvalues used (descending).
    pub eigenvalues: Vec<f64>,
}

/// Computes ISR scores for a probe set.
///
/// `input` holds the probe samples' input features; `output` the model
/// outputs (or per-sample loss vectors) for the same samples, in the same
/// order.
///
/// # Panics
/// Panics if the clouds differ in length or have fewer than 3 points (no
/// meaningful pencil).
pub fn spade_scores(input: &PointCloud, output: &PointCloud, cfg: &SpadeConfig) -> SpadeResult {
    assert_eq!(input.len(), output.len(), "probe sets must align");
    let n = input.len();
    assert!(n >= 3, "need at least 3 probe points");
    let k = cfg.k.min(n - 1).max(1);
    let knn_cfg = KnnConfig {
        k,
        strategy: KnnStrategy::Brute,
        weight_eps: cfg.weight_eps,
        seed: 0x5BADE,
    };
    let gx = build_knn_graph(input, &knn_cfg);
    let gy = build_knn_graph(output, &knn_cfg);
    spade_scores_from_graphs(&gx, &gy, cfg)
}

/// ISR scores from pre-built input/output graphs over the same node set.
///
/// # Panics
/// Panics if the graphs have different node counts or fewer than 3 nodes.
pub fn spade_scores_from_graphs(gx: &Graph, gy: &Graph, cfg: &SpadeConfig) -> SpadeResult {
    let n = gx.num_nodes();
    assert_eq!(n, gy.num_nodes(), "graph node counts differ");
    assert!(n >= 3, "need at least 3 nodes");
    // Generalized symmetric problem L_X v = λ L_Y v via Cholesky reduction:
    // L_Y = C Cᵀ  ⇒  (C⁻¹ L_X C⁻ᵀ) u = λ u,  v = C⁻ᵀ u.
    let pencil = ReducedPencil {
        lx: regularized_laplacian(gx, cfg.reg_eps),
        c: regularized_laplacian(gy, cfg.reg_eps)
            .to_dense()
            .cholesky()
            .expect("regularised Laplacian is positive definite"),
    };
    let pairs = lanczos(
        &pencil,
        &LanczosOptions {
            num_pairs: cfg.num_pairs,
            ..LanczosOptions::default()
        },
    );
    let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.value).collect();
    let isr_max = eigenvalues.first().copied().unwrap_or(0.0);

    // Transform eigenvectors back: v = C⁻ᵀ u, then scale by √λ.
    let vr: Vec<Vec<f64>> = pairs
        .iter()
        .map(|p| {
            let mut v = pencil.c.back_substitute_t(&p.vector);
            scale(&mut v, p.value.max(0.0).sqrt());
            v
        })
        .collect();

    // Edge score ‖V_rᵀ e_pq‖² = Σ_k (v_k(p) − v_k(q))²; node score = mean
    // over input-graph neighbours (Eq. 11).
    let node_scores: Vec<f64> = (0..n)
        .map(|p| {
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for (q, _) in gx.neighbors(p) {
                let s: f64 = vr
                    .iter()
                    .map(|v| {
                        let d = v[p] - v[q];
                        d * d
                    })
                    .sum();
                sum += s;
                cnt += 1;
            }
            if cnt == 0 {
                0.0
            } else {
                sum / cnt as f64
            }
        })
        .collect();

    SpadeResult {
        isr_max,
        node_scores,
        eigenvalues,
    }
}

/// The Cholesky-reduced pencil `C⁻¹ L_X C⁻ᵀ` as an operator: sparse
/// `L_X`, lower-triangular `C` with `C Cᵀ = L_Y + εI`.
struct ReducedPencil {
    lx: Csr,
    c: Matrix,
}

impl LinOp for ReducedPencil {
    fn dim(&self) -> usize {
        self.lx.rows()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) {
        let t = self.lx.apply(&self.c.back_substitute_t(x));
        y.copy_from_slice(&self.c.forward_substitute(&t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_cloud(f: impl Fn(f64) -> f64, n: usize) -> (PointCloud, PointCloud) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        (PointCloud::from_flat(1, xs), PointCloud::from_flat(1, ys))
    }

    #[test]
    fn identity_map_is_stable() {
        let (inp, out) = line_cloud(|x| x, 30);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        assert!((r.isr_max - 1.0).abs() < 0.2, "isr {}", r.isr_max);
    }

    #[test]
    fn uniform_scaling_scales_lambda() {
        // y = 5x: output distances ×5, kNN weights 1/d ⇒ L_Y = L_X/5,
        // so λ_max(L_Y⁺ L_X) ≈ 5.
        let (inp, out) = line_cloud(|x| 5.0 * x, 30);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        assert!(r.isr_max > 3.0 && r.isr_max < 8.0, "isr {}", r.isr_max);
    }

    #[test]
    fn stretched_region_scores_higher() {
        // Stretch x > 0.5 by 10×; nodes there should receive higher ISR.
        let (inp, out) = line_cloud(|x| if x > 0.5 { 10.0 * x - 4.5 } else { x }, 60);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        let n = r.node_scores.len();
        let left: f64 = r.node_scores[..n / 2 - 2].iter().sum::<f64>() / (n / 2 - 2) as f64;
        let right: f64 = r.node_scores[n / 2 + 2..].iter().sum::<f64>() / (n / 2 - 2) as f64;
        assert!(
            right > 2.0 * left,
            "right {right} should dominate left {left}"
        );
    }

    #[test]
    fn isr_dominates_distortion() {
        // Lemma 2: ISR ≥ γ_max (here the local stretch factor is 10).
        let (inp, out) = line_cloud(|x| if x > 0.5 { 10.0 * x - 4.5 } else { x }, 60);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        // (tiny Tikhonov regularisation can shave a fraction of a percent
        // off the exact bound, hence the 1e-2 slack)
        assert!(r.isr_max >= 10.0 - 1e-2, "isr {} < γ_max", r.isr_max);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let (inp, out) = line_cloud(|x| x * x + 0.1 * x, 40);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        for w in r.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn node_scores_nonnegative_and_finite() {
        let (inp, out) = line_cloud(|x| (6.0 * x).sin(), 50);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        assert_eq!(r.node_scores.len(), 50);
        for &s in &r.node_scores {
            assert!(s.is_finite() && s >= 0.0);
        }
    }

    #[test]
    fn works_on_multidimensional_outputs() {
        let n = 40;
        let xs: Vec<f64> = (0..n)
            .flat_map(|i| {
                let t = i as f64 / n as f64;
                [t, 1.0 - t]
            })
            .collect();
        let ys: Vec<f64> = (0..n)
            .flat_map(|i| {
                let t = i as f64 / n as f64;
                [t.sin(), t.cos(), t * t]
            })
            .collect();
        let inp = PointCloud::from_flat(2, xs);
        let out = PointCloud::from_flat(3, ys);
        let r = spade_scores(&inp, &out, &SpadeConfig::default());
        assert!(r.isr_max.is_finite());
        assert!(r.isr_max > 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let a = PointCloud::from_flat(1, vec![0.0, 1.0, 2.0]);
        let b = PointCloud::from_flat(1, vec![0.0, 1.0]);
        let _ = spade_scores(&a, &b, &SpadeConfig::default());
    }

    #[test]
    fn small_probe_sets_clamp_k() {
        let a = PointCloud::from_flat(1, vec![0.0, 1.0, 2.0, 3.0]);
        let b = PointCloud::from_flat(1, vec![0.0, 2.0, 4.0, 6.0]);
        let cfg = SpadeConfig {
            k: 50, // larger than the probe set
            ..SpadeConfig::default()
        };
        let r = spade_scores(&a, &b, &cfg);
        assert!(r.isr_max.is_finite());
    }
}
