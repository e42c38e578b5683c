//! Dense ISR oracle: SPADE's pencil solved in full.
//!
//! `sgm_stability::spade_scores_from_graphs` finds the top-`r`
//! generalized eigenpairs of `(L_X + εI, L_Y + εI)` with Lanczos on the
//! Cholesky-reduced operator `C⁻¹ L_X C⁻ᵀ`, never forming it. This oracle
//! forms that `n × n` matrix column by column and diagonalises it with
//! cyclic Jacobi ([`Matrix::sym_eig`]). It is exact to rounding for every
//! pair, but `O(n³)` with a large constant (~0.4 s at 192 probes, release
//! build), so only tests use it.

use sgm_graph::graph::Graph;
use sgm_graph::laplacian::regularized_laplacian;
use sgm_linalg::dense::Matrix;
use sgm_stability::{SpadeConfig, SpadeResult};

/// The dense counterpart of `sgm_stability::spade_scores_from_graphs`:
/// the same [`SpadeResult`] from the full eigendecomposition, plus the
/// whole generalized spectrum in descending order (so a test can tell
/// whether `λ_r` and `λ_{r+1}` are separated).
///
/// # Panics
/// Panics if the graphs have different node counts or fewer than 3 nodes.
pub fn dense_spade_scores_from_graphs(
    gx: &Graph,
    gy: &Graph,
    cfg: &SpadeConfig,
) -> (SpadeResult, Vec<f64>) {
    let n = gx.num_nodes();
    assert_eq!(n, gy.num_nodes(), "graph node counts differ");
    assert!(n >= 3, "need at least 3 nodes");
    let lx = regularized_laplacian(gx, cfg.reg_eps).to_dense();
    let ly = regularized_laplacian(gy, cfg.reg_eps).to_dense();

    // Generalized symmetric problem L_X v = λ L_Y v via Cholesky reduction:
    // L_Y = C Cᵀ  ⇒  (C⁻¹ L_X C⁻ᵀ) u = λ u,  v = C⁻ᵀ u.
    let c = ly
        .cholesky()
        .expect("regularised Laplacian is positive definite");
    let mut a = Matrix::zeros(n, n);
    for col in 0..n {
        let mut e = vec![0.0; n];
        e[col] = 1.0;
        let cinv_t = c.back_substitute_t(&e);
        let lx_c = lx.mul_vec(&cinv_t);
        let a_col = c.forward_substitute(&lx_c);
        for (row, &v) in a_col.iter().enumerate() {
            a.set(row, col, v);
        }
    }
    // Symmetrise against round-off.
    for i in 0..n {
        for j in i + 1..n {
            let m = 0.5 * (a.get(i, j) + a.get(j, i));
            a.set(i, j, m);
            a.set(j, i, m);
        }
    }
    let (vals, vecs) = a.sym_eig();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&p, &q| vals[q].partial_cmp(&vals[p]).unwrap());
    let spectrum: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
    let r = cfg.num_pairs.min(n);
    let top: Vec<usize> = order[..r].to_vec();
    let eigenvalues: Vec<f64> = top.iter().map(|&i| vals[i]).collect();
    let isr_max = eigenvalues.first().copied().unwrap_or(0.0);

    // Transform eigenvectors back: v = C⁻ᵀ u, then scale by √λ.
    let mut vr: Vec<Vec<f64>> = Vec::with_capacity(r);
    for (&ti, &lam) in top.iter().zip(&eigenvalues) {
        let u: Vec<f64> = (0..n).map(|row| vecs.get(row, ti)).collect();
        let mut v = c.back_substitute_t(&u);
        let s = lam.max(0.0).sqrt();
        for x in &mut v {
            *x *= s;
        }
        vr.push(v);
    }

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

    (
        SpadeResult {
            isr_max,
            node_scores,
            eigenvalues,
        },
        spectrum,
    )
}
