//! Property-based tests of the linear-algebra substrate.
//!
//! Offline-buildable replacement for the original proptest suite: each
//! property is exercised over a deterministic sweep of seeded random
//! cases drawn from [`Rng64`] (32 cases per property, mirroring the old
//! `ProptestConfig::with_cases(32)`).

use sgm_linalg::dense::{dot, Matrix};
use sgm_linalg::eigen::{lanczos, tridiag_eig, LanczosOptions, SpectrumEnd};
use sgm_linalg::rng::Rng64;
use sgm_linalg::solve::{conjugate_gradient, CgOptions};
use sgm_linalg::sparse::Csr;
use sgm_linalg::stats::{normalize_distribution, quantile, relative_l2};

const CASES: u64 = 32;

fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::new(seed);
    let g = Matrix::gaussian(n, n, &mut rng);
    let mut a = g.matmul(&g.transposed());
    for i in 0..n {
        a.add_at(i, i, n as f64); // well conditioned
    }
    a
}

/// Draws `len in lo..hi` values uniform in `(-range, range)`.
fn random_vec(rng: &mut Rng64, lo: usize, hi: usize, range: f64) -> Vec<f64> {
    let n = lo + rng.below(hi - lo);
    (0..n).map(|_| rng.uniform_in(-range, range)).collect()
}

/// (AB)C = A(BC) within round-off.
#[test]
fn matmul_associative() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let n = 2 + rng.below(6);
        let a = Matrix::gaussian(n, n, &mut rng);
        let b = Matrix::gaussian(n, n, &mut rng);
        let c = Matrix::gaussian(n, n, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (left.get(i, j) - right.get(i, j)).abs() < 1e-9,
                    "seed={seed} n={n} ({i},{j})"
                );
            }
        }
    }
}

/// Gaussian elimination inverts what it multiplies.
#[test]
fn solve_inverts() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0x517e);
        let n = 2 + rng.below(8);
        let a = random_spd(n, seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let b = a.mul_vec(&x);
        let xr = a.solve(&b).expect("SPD is nonsingular");
        for i in 0..n {
            assert!((xr[i] - x[i]).abs() < 1e-7, "seed={seed} n={n} i={i}");
        }
    }
}

/// CG agrees with direct solve on SPD systems.
#[test]
fn cg_matches_direct() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0xc6);
        let n = 3 + rng.below(9);
        let a = random_spd(n, seed);
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                trips.push((i, j, a.get(i, j)));
            }
        }
        let sp = Csr::from_triplets(n, n, &trips);
        let b: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let direct = a.solve(&b).unwrap();
        let cg = conjugate_gradient(&sp, &b, &CgOptions::default());
        assert!(cg.converged, "seed={seed} n={n}");
        for (i, (cgi, di)) in cg.solution.iter().zip(&direct).enumerate() {
            assert!((cgi - di).abs() < 1e-6, "seed={seed} n={n} i={i}");
        }
    }
}

/// Cholesky reproduces the matrix and solves match `solve`.
#[test]
fn cholesky_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0xc401);
        let n = 2 + rng.below(7);
        let a = random_spd(n, seed);
        let c = a.cholesky().expect("SPD");
        let b: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let y = c.forward_substitute(&b);
        let x = c.back_substitute_t(&y);
        let direct = a.solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - direct[i]).abs() < 1e-7, "seed={seed} n={n} i={i}");
        }
    }
}

/// Lanczos extreme eigenvalues match the full Jacobi decomposition.
#[test]
fn lanczos_matches_jacobi() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0x1a);
        let n = 4 + rng.below(8);
        let a = random_spd(n, seed);
        let (mut vals, _) = a.sym_eig();
        vals.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 1,
                end: SpectrumEnd::Largest,
                seed,
            },
        );
        assert!(
            (pairs[0].value - vals[0]).abs() < 1e-6 * (1.0 + vals[0].abs()),
            "seed={seed}: {} vs {}",
            pairs[0].value,
            vals[0]
        );
    }
}

/// Tridiagonal eigenvalues: trace and Frobenius norm are preserved.
#[test]
fn tridiag_eig_preserves_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0x3d);
        let n = 2 + rng.below(10);
        let d: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gaussian()).collect();
        let (vals, _) = tridiag_eig(&d, &e);
        let trace: f64 = d.iter().sum();
        let val_sum: f64 = vals.iter().sum();
        assert!(
            (trace - val_sum).abs() < 1e-8 * (1.0 + trace.abs()),
            "seed={seed} trace"
        );
        let fro2: f64 =
            d.iter().map(|x| x * x).sum::<f64>() + 2.0 * e.iter().map(|x| x * x).sum::<f64>();
        let val2: f64 = vals.iter().map(|x| x * x).sum();
        assert!((fro2 - val2).abs() < 1e-7 * (1.0 + fro2), "seed={seed} fro");
    }
}

/// The RNG's weighted draw respects zero weights.
#[test]
fn weighted_index_avoids_zeros() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let w = [0.0, 1.0, 0.0, 2.0, 0.0];
        for _ in 0..100 {
            let i = rng.weighted_index(&w);
            assert!(i == 1 || i == 3, "seed={seed} drew {i}");
        }
    }
}

/// normalize_distribution is a probability vector.
#[test]
fn normalized_is_probability() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0xA0);
        let xs = random_vec(&mut rng, 1, 20, 5.0);
        let p = normalize_distribution(&xs);
        assert_eq!(p.len(), xs.len());
        assert!(
            p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)),
            "seed={seed}"
        );
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "seed={seed}");
    }
}

/// Quantiles are monotone in q and bounded by the data range.
#[test]
fn quantiles_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0x9a);
        let xs = random_vec(&mut rng, 2, 30, 10.0);
        let q25 = quantile(&xs, 0.25);
        let q50 = quantile(&xs, 0.5);
        let q75 = quantile(&xs, 0.75);
        assert!(q25 <= q50 && q50 <= q75, "seed={seed}");
        let mn = xs.iter().cloned().fold(f64::MAX, f64::min);
        let mx = xs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(q25 >= mn && q75 <= mx, "seed={seed}");
    }
}

/// relative_l2 is zero iff equal, symmetric under scaling of both.
#[test]
fn relative_l2_properties() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0xe12);
        let xs = random_vec(&mut rng, 1, 15, 3.0);
        let s = rng.uniform_in(0.1, 10.0);
        assert!(relative_l2(&xs, &xs) < 1e-15, "seed={seed}");
        let scaled_a: Vec<f64> = xs.iter().map(|x| x * s).collect();
        // rel(s·a, s·b) = rel(a, b): check vs a shifted copy.
        let b: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        let scaled_b: Vec<f64> = b.iter().map(|x| x * s).collect();
        let r1 = relative_l2(&xs, &b);
        let r2 = relative_l2(&scaled_a, &scaled_b);
        assert!((r1 - r2).abs() < 1e-9 * (1.0 + r1), "seed={seed}");
    }
}

/// dot is bilinear.
#[test]
fn dot_bilinear() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed ^ 0xb1);
        let n = 1 + rng.below(19);
        let alpha = rng.uniform_in(-3.0, 3.0);
        let a: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let c: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let ab_c: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + alpha * y).collect();
        let lhs = dot(&ab_c, &c);
        let rhs = dot(&a, &c) + alpha * dot(&b, &c);
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()), "seed={seed}");
    }
}
