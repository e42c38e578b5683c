//! Eigensolvers: symmetric Lanczos with full reorthogonalisation, the
//! implicit QL algorithm for the resulting tridiagonal matrices, and power
//! iteration.
//!
//! The stability crate runs [`lanczos`] on the Cholesky-reduced pencil
//! operator `C⁻¹ L_X C⁻ᵀ`, where `C Cᵀ = L_Y + εI`, applied as a
//! triangular solve, a sparse `L_X` product and a second triangular
//! solve. Its top-`r` eigenpairs define the ISR edge scores (paper
//! Eq. 9–11).

use crate::dense::{axpy, dot, norm2, scale, Matrix};
use crate::rng::Rng64;
use crate::sparse::LinOp;

/// Which end of the spectrum to report first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectrumEnd {
    /// Largest eigenvalues first.
    Largest,
    /// Smallest eigenvalues first.
    Smallest,
}

/// An eigenpair `(value, vector)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenPair {
    /// The eigenvalue.
    pub value: f64,
    /// The unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Eigenvalues and eigenvectors of a symmetric tridiagonal matrix with
/// diagonal `d` and off-diagonal `e` (`e.len() == d.len() - 1`), via the
/// implicit QL algorithm with Wilkinson shifts.
///
/// Returns pairs sorted ascending by eigenvalue. The eigenvector matrix has
/// eigenvectors as columns.
///
/// # Panics
/// Panics if `e.len() + 1 != d.len()` (for non-empty `d`) or the QL
/// iteration fails to converge (pathological input).
pub fn tridiag_eig(d: &[f64], e: &[f64]) -> (Vec<f64>, Matrix) {
    let n = d.len();
    if n == 0 {
        return (Vec::new(), Matrix::zeros(0, 0));
    }
    assert_eq!(e.len() + 1, n, "off-diagonal length");
    let mut dd = d.to_vec();
    let mut ee = {
        let mut v = e.to_vec();
        v.push(0.0);
        v
    };
    let mut z = Matrix::identity(n);
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let ddm = dd[m].abs() + dd[m + 1].abs();
                if ee[m].abs() <= 1e-15 * ddm + 1e-300 {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 100, "tridiag QL failed to converge");
            let mut g = (dd[l + 1] - dd[l]) / (2.0 * ee[l]);
            let mut r = (g * g + 1.0).sqrt();
            g = dd[m] - dd[l] + ee[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * ee[i];
                let b = c * ee[i];
                r = (f * f + g * g).sqrt();
                ee[i + 1] = r;
                if r == 0.0 {
                    dd[i + 1] -= p;
                    ee[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = dd[i + 1] - p;
                r = (dd[i] - g) * s + 2.0 * c * b;
                p = s * r;
                dd[i + 1] = g + p;
                g = c * r - b;
                for k in 0..n {
                    f = z.get(k, i + 1);
                    z.set(k, i + 1, s * z.get(k, i) + c * f);
                    z.set(k, i, c * z.get(k, i) - s * f);
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            dd[l] -= p;
            ee[l] = g;
            ee[m] = 0.0;
        }
    }
    // Sort ascending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| dd[a].partial_cmp(&dd[b]).unwrap());
    let vals: Vec<f64> = order.iter().map(|&i| dd[i]).collect();
    let mut vecs = Matrix::zeros(n, n);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vecs.set(r, new_c, z.get(r, old_c));
        }
    }
    (vals, vecs)
}

/// Options for [`lanczos`].
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosOptions {
    /// Number of eigenpairs wanted.
    pub num_pairs: usize,
    /// Which end of the spectrum.
    pub end: SpectrumEnd,
    /// RNG seed for the starting vector (and for restart vectors after a
    /// breakdown).
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            num_pairs: 4,
            end: SpectrumEnd::Largest,
            seed: 0xDEC0DE,
        }
    }
}

/// Relative residual tolerance of [`lanczos`]: a wanted Ritz pair
/// `(θ, Q s)` of the `m`-step basis has converged once its residual
/// bound `β_m·|s_m|` is at most `LANCZOS_TOL·|θ|`.
const LANCZOS_TOL: f64 = 1e-10;
/// Basis growth between two convergence checks (each check
/// diagonalises the tridiagonal matrix).
const LANCZOS_CHECK_EVERY: usize = 8;
/// A step whose new direction is this small relative to the largest
/// `|α|`/`β` so far has found an invariant subspace.
const LANCZOS_BREAKDOWN: f64 = 1e-12;

/// Symmetric Lanczos with full reorthogonalisation.
///
/// Returns `min(opts.num_pairs, n)` Ritz pairs from the requested end of
/// the spectrum, best first. The Krylov basis grows until the residual
/// bounds of all wanted pairs fall below a fixed relative tolerance
/// (`1e-10`, checked every 8 steps), and at the latest until it spans
/// the whole space (`m = n`), where the pairs are exact. On breakdown
/// (the basis spans an invariant subspace) it continues from a random
/// vector orthogonal to the basis, so further copies of a repeated
/// eigenvalue are found too. The operator must be symmetric; Ritz pairs
/// of non-symmetric operators are not meaningful.
///
/// # Panics
/// Panics if `opts.num_pairs == 0` or the operator dimension is zero.
pub fn lanczos<A: LinOp + ?Sized>(a: &A, opts: &LanczosOptions) -> Vec<EigenPair> {
    let n = a.dim();
    assert!(n > 0, "empty operator");
    assert!(opts.num_pairs > 0, "num_pairs must be positive");
    let r = opts.num_pairs.min(n);

    let mut rng = Rng64::new(opts.seed);
    let mut q: Vec<Vec<f64>> = vec![fresh_direction(&[], n, &mut rng)];
    let mut alphas: Vec<f64> = Vec::new();
    // `betas[j]` couples `q[j]` and `q[j + 1]`; 0 where a breakdown
    // restarted the basis.
    let mut betas: Vec<f64> = Vec::new();
    let mut t_scale = 0.0f64;
    let mut w = vec![0.0; n];
    let (vals, vecs, order) = loop {
        let j = alphas.len();
        a.apply_to(&q[j], &mut w);
        let alpha = dot(&w, &q[j]);
        axpy(-alpha, &q[j], &mut w);
        if j > 0 {
            axpy(-betas[j - 1], &q[j - 1], &mut w);
        }
        orthogonalise(&mut w, &q);
        let beta = norm2(&w);
        alphas.push(alpha);
        let m = j + 1;
        t_scale = t_scale.max(alpha.abs()).max(beta);
        let breakdown = beta <= LANCZOS_BREAKDOWN * t_scale;
        // At a breakdown every Ritz residual is zero, but the rest of the
        // space is unexplored, so convergence is only judged mid-run.
        if m == n || (!breakdown && m >= r && m.is_multiple_of(LANCZOS_CHECK_EVERY)) {
            let (vals, vecs) = tridiag_eig(&alphas, &betas);
            let order = ranked(&vals, opts.end);
            let converged = order[..r]
                .iter()
                .all(|&i| (beta * vecs.get(m - 1, i)).abs() <= LANCZOS_TOL * vals[i].abs());
            if m == n || converged {
                break (vals, vecs, order);
            }
        }
        if breakdown {
            betas.push(0.0);
            q.push(fresh_direction(&q, n, &mut rng));
        } else {
            betas.push(beta);
            q.push(w.iter().map(|x| x / beta).collect());
        }
    };

    order[..r]
        .iter()
        .map(|&ti| {
            let mut vec = vec![0.0; n];
            for (j, qj) in q.iter().enumerate() {
                axpy(vecs.get(j, ti), qj, &mut vec);
            }
            let nv = norm2(&vec).max(1e-300);
            scale(&mut vec, 1.0 / nv);
            EigenPair {
                value: vals[ti],
                vector: vec,
            }
        })
        .collect()
}

/// Indices of `vals` ordered from the wanted end of the spectrum.
fn ranked(vals: &[f64], end: SpectrumEnd) -> Vec<usize> {
    let mut order: Vec<usize> = (0..vals.len()).collect();
    match end {
        SpectrumEnd::Largest => order.sort_by(|&a, &b| vals[b].partial_cmp(&vals[a]).unwrap()),
        SpectrumEnd::Smallest => order.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap()),
    }
    order
}

/// Removes from `w` its components along the orthonormal vectors `q`
/// (two passes, for stability).
fn orthogonalise(w: &mut [f64], q: &[Vec<f64>]) {
    for _ in 0..2 {
        for qi in q {
            let c = dot(w, qi);
            if c != 0.0 {
                axpy(-c, qi, w);
            }
        }
    }
}

/// A random unit vector orthogonal to the orthonormal vectors `q`, which
/// must span fewer than `n` dimensions.
fn fresh_direction(q: &[Vec<f64>], n: usize, rng: &mut Rng64) -> Vec<f64> {
    loop {
        let mut v: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let drawn = norm2(&v);
        orthogonalise(&mut v, q);
        let nv = norm2(&v);
        // A draw (almost) inside span(q) leaves only rounding noise.
        if nv > 1e-6 * drawn {
            scale(&mut v, 1.0 / nv);
            return v;
        }
    }
}

/// Power iteration for the dominant eigenpair of a symmetric operator.
///
/// # Panics
/// Panics if `iters == 0` or the operator dimension is zero.
pub fn power_iteration<A: LinOp + ?Sized>(a: &A, iters: usize, seed: u64) -> EigenPair {
    let n = a.dim();
    assert!(n > 0 && iters > 0);
    let mut rng = Rng64::new(seed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    let nv = norm2(&v).max(1e-300);
    scale(&mut v, 1.0 / nv);
    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        a.apply_to(&v, &mut av);
        lambda = dot(&v, &av);
        let nav = norm2(&av);
        if nav < 1e-300 {
            break;
        }
        for i in 0..n {
            v[i] = av[i] / nav;
        }
    }
    EigenPair {
        value: lambda,
        vector: v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Csr;

    fn diag_op(values: &[f64]) -> Csr {
        let trips: Vec<(usize, usize, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        Csr::from_triplets(values.len(), values.len(), &trips)
    }

    #[test]
    fn tridiag_eig_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let (vals, vecs) = tridiag_eig(&[2.0, 2.0], &[1.0]);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2.
        let r = vecs.get(0, 1) / vecs.get(1, 1);
        assert!((r - 1.0).abs() < 1e-10);
    }

    #[test]
    fn tridiag_eig_known_laplacian_path() {
        // Path Laplacian eigenvalues: 2 - 2cos(kπ/n), k = 0..n-1 — for the
        // free path (Neumann), d = [1,2,...,2,1].
        let n = 8;
        let mut d = vec![2.0; n];
        d[0] = 1.0;
        d[n - 1] = 1.0;
        let e = vec![-1.0; n - 1];
        let (vals, _) = tridiag_eig(&d, &e);
        for (k, v) in vals.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((v - expect).abs() < 1e-9, "k={k}: {v} vs {expect}");
        }
    }

    #[test]
    fn lanczos_diag_largest() {
        let a = diag_op(&[1.0, 5.0, 3.0, 9.0, 2.0, 7.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 2,
                ..LanczosOptions::default()
            },
        );
        assert!((pairs[0].value - 9.0).abs() < 1e-8);
        assert!((pairs[1].value - 7.0).abs() < 1e-8);
    }

    #[test]
    fn lanczos_diag_smallest() {
        let a = diag_op(&[1.0, 5.0, 3.0, 9.0, 2.0, 7.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 2,
                end: SpectrumEnd::Smallest,
                ..LanczosOptions::default()
            },
        );
        assert!((pairs[0].value - 1.0).abs() < 1e-8);
        assert!((pairs[1].value - 2.0).abs() < 1e-8);
    }

    #[test]
    fn lanczos_eigvecs_satisfy_pencil() {
        let mut rng = Rng64::new(77);
        let g = Matrix::gaussian(12, 12, &mut rng);
        let a = g.matmul(&g.transposed());
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 3,
                ..LanczosOptions::default()
            },
        );
        for p in &pairs {
            let av = a.mul_vec(&p.vector);
            for (avi, vi) in av.iter().zip(&p.vector) {
                assert!((avi - p.value * vi).abs() < 1e-6, "residual too large");
            }
        }
    }

    #[test]
    fn lanczos_matches_jacobi_eig() {
        let mut rng = Rng64::new(99);
        let g = Matrix::gaussian(10, 10, &mut rng);
        let a = g.matmul(&g.transposed());
        let (mut vals, _) = a.sym_eig();
        vals.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 3,
                ..LanczosOptions::default()
            },
        );
        for (i, p) in pairs.iter().enumerate() {
            assert!(
                (p.value - vals[i]).abs() < 1e-7,
                "λ{i}: {} vs {}",
                p.value,
                vals[i]
            );
        }
    }

    #[test]
    fn lanczos_repeated_values_restart_after_breakdown() {
        // Two distinct values: each Krylov run breaks down after two
        // steps with one copy of each, so the other copies of 6 come
        // from the restarts.
        let a = diag_op(&[6.0, 1.0, 6.0, 1.0, 6.0, 1.0, 6.0, 1.0, 6.0, 1.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 4,
                ..LanczosOptions::default()
            },
        );
        assert_eq!(pairs.len(), 4);
        for (i, p) in pairs.iter().enumerate() {
            assert!((p.value - 6.0).abs() < 1e-10, "λ{i} = {}", p.value);
            let av = a.apply(&p.vector);
            for (avi, vi) in av.iter().zip(&p.vector) {
                assert!((avi - p.value * vi).abs() < 1e-8, "pair {i} residual");
            }
            for (j, other) in pairs.iter().enumerate().take(i) {
                let c = dot(&p.vector, &other.vector);
                assert!(c.abs() < 1e-8, "pairs {j} and {i} overlap by {c}");
            }
        }
    }

    #[test]
    fn power_iteration_dominant() {
        let a = diag_op(&[1.0, 2.0, 10.0, 3.0]);
        let p = power_iteration(&a, 200, 5);
        assert!((p.value - 10.0).abs() < 1e-6);
        assert!(p.vector[2].abs() > 0.999);
    }

    #[test]
    fn lanczos_handles_small_operator() {
        let a = diag_op(&[4.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 1,
                ..LanczosOptions::default()
            },
        );
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].value - 4.0).abs() < 1e-10);
    }
}
