//! Kernel-oracle sweeps for the `sgm_linalg::simd` dispatch tiers.
//!
//! Every SIMD kernel is audited two ways, per the ISSUE-4 contract:
//!
//! 1. **Oracle agreement** — against an *independent* naive computation
//!    (`gemm_reference`, plain summation loops, triplet SpMV) that shares
//!    no code with the production kernels. The scalar tier must match the
//!    sequential oracles bit-for-bit where the kernel preserves the naive
//!    association (GEMM, SpMV row sums, all elementwise kernels); strided
//!    reductions (dot/dist2) match within the FMA-free reassociation
//!    bound.
//! 2. **Cross-tier divergence** — scalar vs AVX2 results differ only by
//!    FMA contraction rounding, bounded by `1e-12` *relative to the
//!    term-magnitude sum* (the cancellation-safe yardstick: a plain
//!    relative bound is unattainable when adversarial mixed-sign inputs
//!    cancel catastrophically, yet the absolute FMA error still scales
//!    with the term magnitudes, not the result).
//! 3. **Exact vector-tier arithmetic** — each AVX2 and AVX-512 result
//!    must equal, bit for bit, a scalar `f64::mul_add` replay of that
//!    tier's operation chain (the strided partials and lane fold of the
//!    reductions, the single-rounding FMAs of the elementwise and GEMM
//!    kernels). This pins each tier's rounding, so a rewrite of a vector
//!    kernel that moves one bit fails here, not only past `1e-12`.
//!
//! Sizes sweep the adversarial lane boundaries (0, 1, lane−1, lane,
//! lane+1, large odd); values sweep subnormals, signed zeros and wildly
//! mixed signs/magnitudes via the shared generator below.

use sgm_linalg::dense::{gemm, gemm_reference, Matrix};
use sgm_linalg::rng::Rng64;
use sgm_linalg::simd::{self, SimdTier};
use sgm_linalg::Csr;
use sgm_testkit::sweep::Sweep;

/// Adversarial lengths around the 4-lane boundary plus a large odd size.
const SIZES: &[usize] = &[0, 1, 3, 4, 5, 8, 13, 1023];

/// Draws one adversarial f64: mixed signs, huge/tiny magnitudes,
/// subnormals and signed zeros all appear.
fn adversarial(rng: &mut Rng64) -> f64 {
    match rng.next_u64() % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE / 2.0,  // subnormal
        3 => -f64::MIN_POSITIVE / 4.0, // subnormal
        4 => rng.gaussian() * 1e100,
        5 => rng.gaussian() * 1e-100,
        _ => rng.gaussian(),
    }
}

fn adv_vec(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| adversarial(rng)).collect()
}

/// Shrinker: halve the vectors (pairwise, keeping them same-length).
fn shrink_pair(case: &(Vec<f64>, Vec<f64>)) -> Vec<(Vec<f64>, Vec<f64>)> {
    let n = case.0.len();
    if n == 0 {
        return Vec::new();
    }
    let h = n / 2;
    vec![
        (case.0[..h].to_vec(), case.1[..h].to_vec()),
        (case.0[h..].to_vec(), case.1[h..].to_vec()),
    ]
}

/// Lanes per vector of a vector tier.
fn width(t: SimdTier) -> usize {
    match t {
        SimdTier::Avx2 => 4,
        SimdTier::Avx512 => 8,
        SimdTier::Scalar => unreachable!("the scalar tier has no vector width"),
    }
}

/// Replays a vector tier's strided reduction of `n` terms `x·y`: over
/// the whole vectors lane `i % W` accumulates `fma(x, y, acc)`, the
/// lanes fold as the tier folds them (AVX-512 first adds lanes `l` and
/// `l + 4`, then `(l0 + l2) + (l1 + l3)`), and the remaining terms add
/// sequentially with two roundings each.
fn vector_reduce(t: SimdTier, n: usize, term: impl Fn(usize) -> (f64, f64)) -> f64 {
    let w = width(t);
    let full = n - n % w;
    let mut acc = [0.0f64; 8];
    for i in 0..full {
        let (x, y) = term(i);
        acc[i % w] = x.mul_add(y, acc[i % w]);
    }
    if w == 8 {
        for l in 0..4 {
            acc[l] += acc[l + 4];
        }
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for i in full..n {
        let (x, y) = term(i);
        s += x * y;
    }
    s
}

/// Bit-equality of a vector-tier result with its exact replay.
fn exact(got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{got} vs exact replay {want}"))
    }
}

/// `|got - want| ≤ 1e-12 · (mag + tiny)` with `mag` the term-magnitude
/// sum of the reduction — the cancellation-safe divergence bound.
fn close(got: f64, want: f64, mag: f64) -> Result<(), String> {
    // Exact-match fast path also covers inf/nan agreement on overflow.
    if got.to_bits() == want.to_bits() || (got - want).abs() <= 1e-12 * (mag + 1e-300) {
        Ok(())
    } else {
        Err(format!("{got} vs {want} (mag {mag})"))
    }
}

#[test]
fn dot_matches_oracle_and_tiers_agree() {
    let mut size_i = 0;
    Sweep::new(0xD07, 64).run(
        |rng| {
            let n = SIZES[size_i % SIZES.len()];
            size_i += 1;
            (adv_vec(rng, n), adv_vec(rng, n))
        },
        shrink_pair,
        |(a, b)| {
            // Independent oracle: sequential Kahan-free naive sum.
            let want: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let mag: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
            let mut per_tier = Vec::new();
            for &t in simd::available_tiers() {
                let got = simd::with_tier(t, || simd::dot(a, b));
                close(got, want, mag).map_err(|e| format!("{t:?} vs oracle: {e}"))?;
                if t != SimdTier::Scalar {
                    exact(got, vector_reduce(t, a.len(), |i| (a[i], b[i])))
                        .map_err(|e| format!("{t:?} dot: {e}"))?;
                }
                per_tier.push((t, got));
            }
            for (t, got) in &per_tier[1..] {
                close(*got, per_tier[0].1, mag).map_err(|e| format!("{t:?} vs scalar: {e}"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn axpy_matches_oracle_bitwise_per_tier() {
    let mut size_i = 0;
    Sweep::new(0xA9, 64).run(
        |rng| {
            let n = SIZES[size_i % SIZES.len()];
            size_i += 1;
            (adv_vec(rng, n), adv_vec(rng, n + 1)) // last elem of .1 is alpha
        },
        |case| {
            if case.0.is_empty() {
                return Vec::new();
            }
            let h = case.0.len() / 2;
            vec![(
                case.0[..h].to_vec(),
                case.1[..h].iter().chain(case.1.last()).copied().collect(),
            )]
        },
        |(x, y_alpha)| {
            let (alpha, y0) = (*y_alpha.last().unwrap(), &y_alpha[..x.len()]);
            // axpy is elementwise: each tier must match the naive update
            // bit-for-bit except for the AVX2 FMA contraction, which we
            // check element-relative.
            for &t in simd::available_tiers() {
                let mut y = y0.to_vec();
                simd::with_tier(t, || simd::axpy(alpha, x, &mut y));
                for i in 0..x.len() {
                    let want = y0[i] + alpha * x[i];
                    let mag = y0[i].abs() + (alpha * x[i]).abs();
                    if t == SimdTier::Scalar && y[i].to_bits() != want.to_bits() {
                        return Err(format!("scalar axpy[{i}]: {} vs {want}", y[i]));
                    }
                    if t != SimdTier::Scalar {
                        exact(y[i], alpha.mul_add(x[i], y0[i]))
                            .map_err(|e| format!("{t:?} axpy[{i}]: {e}"))?;
                    }
                    close(y[i], want, mag).map_err(|e| format!("{t:?} axpy[{i}]: {e}"))?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn dist2_and_batch_match_naive_knn_oracle() {
    let dims = [1usize, 2, 3, 4, 7];
    let mut case_i = 0;
    Sweep::new(0xD15, 48).run(
        |rng| {
            let dim = dims[case_i % dims.len()];
            let n = SIZES[case_i % SIZES.len()];
            case_i += 1;
            (adv_vec(rng, n * dim), adv_vec(rng, dim))
        },
        |_| Vec::new(),
        |(points, q)| {
            let dim = q.len();
            let n = points.len() / dim;
            // Independent oracle: the naive kNN distance loop.
            let naive = |p: &[f64]| -> f64 {
                let mut s = 0.0;
                for k in 0..dim {
                    let d = p[k] - q[k];
                    s += d * d;
                }
                s
            };
            for &t in simd::available_tiers() {
                let mut out = vec![0.0; n];
                simd::with_tier(t, || simd::dist2_batch(points, dim, q, &mut out));
                for j in 0..n {
                    let p = &points[j * dim..(j + 1) * dim];
                    let want = naive(p);
                    let mag: f64 = p
                        .iter()
                        .zip(q)
                        .map(|(a, b)| {
                            let d = a - b;
                            d * d
                        })
                        .sum();
                    close(out[j], want, mag).map_err(|e| format!("{t:?} batch[{j}]: {e}"))?;
                    let single = simd::with_tier(t, || simd::dist2(p, q));
                    close(single, want, mag).map_err(|e| format!("{t:?} dist2[{j}]: {e}"))?;
                    if t != SimdTier::Scalar {
                        // Batch lanes hold points: one fma chain per point
                        // over ascending coordinates, wherever it sits.
                        let mut chain = 0.0f64;
                        for k in 0..dim {
                            let d = p[k] - q[k];
                            chain = d.mul_add(d, chain);
                        }
                        exact(out[j], chain).map_err(|e| format!("{t:?} batch[{j}]: {e}"))?;
                        let strided = vector_reduce(t, dim, |k| {
                            let d = p[k] - q[k];
                            (d, d)
                        });
                        exact(single, strided).map_err(|e| format!("{t:?} dist2[{j}]: {e}"))?;
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn spmv_matches_triplet_oracle_per_tier() {
    let mut case_i = 0;
    Sweep::new(0x59, 32).run(
        |rng| {
            let rows = [1usize, 2, 5, 9, 33][case_i % 5];
            let cols = [1usize, 3, 4, 8, 65][case_i % 5];
            case_i += 1;
            // Random sparsity incl. empty rows and rows of every lane-tail length.
            let mut triplets = Vec::new();
            for r in 0..rows {
                let nnz = (rng.next_u64() % 19) as usize; // 0..=18 per row
                for _ in 0..nnz {
                    let c = (rng.next_u64() % cols as u64) as usize;
                    triplets.push((r, c, adversarial(rng)));
                }
            }
            let x = adv_vec(rng, cols);
            (rows, cols, triplets, x)
        },
        |_| Vec::new(),
        |(rows, cols, triplets, x)| {
            let a = Csr::from_triplets(*rows, *cols, triplets);
            // Independent oracle: dense accumulation from the triplets
            // (duplicates sum, in insertion order per (r,c) — matches
            // from_triplets' coalescing), evaluated with a naive loop.
            let mut dense = vec![0.0; rows * cols];
            for &(r, c, v) in triplets {
                dense[r * cols + c] += v;
            }
            let want: Vec<f64> = (0..*rows)
                .map(|r| {
                    let mut s = 0.0;
                    for c in 0..*cols {
                        s += dense[r * cols + c] * x[c];
                    }
                    s
                })
                .collect();
            for &t in simd::available_tiers() {
                let mut y = vec![0.0; *rows];
                simd::with_tier(t, || a.mul_vec(x, &mut y));
                for r in 0..*rows {
                    let mag: f64 = (0..*cols).map(|c| (dense[r * cols + c] * x[c]).abs()).sum();
                    close(y[r], want[r], mag).map_err(|e| format!("{t:?} row {r}: {e}"))?;
                    if t != SimdTier::Scalar {
                        let terms: Vec<(f64, f64)> =
                            a.row_iter(r).map(|(c, v)| (v, x[c])).collect();
                        exact(y[r], vector_reduce(t, terms.len(), |i| terms[i]))
                            .map_err(|e| format!("{t:?} row {r}: {e}"))?;
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn gemm_matches_reference_oracle_per_tier() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (2, 3, 1),
        (3, 4, 4),
        (5, 5, 5),
        (17, 9, 33),
        (31, 64, 7),
    ];
    let mut case_i = 0;
    Sweep::new(0x6E, 24).run(
        |rng| {
            let (m, k, n) = shapes[case_i % shapes.len()];
            case_i += 1;
            (
                m,
                k,
                n,
                adv_vec(rng, m * k),
                adv_vec(rng, k * n),
                adv_vec(rng, m * n),
            )
        },
        |_| Vec::new(),
        |(m, k, n, av, bv, cv)| {
            let a = Matrix::from_vec(*m, *k, av.clone());
            let b = Matrix::from_vec(*k, *n, bv.clone());
            let c0 = Matrix::from_vec(*m, *n, cv.clone());
            let mut want = c0.clone();
            gemm_reference(0.9, &a, &b, -0.4, &mut want);
            for &t in simd::available_tiers() {
                let mut c = c0.clone();
                simd::with_tier(t, || gemm(0.9, &a, &b, -0.4, &mut c));
                for i in 0..*m {
                    for j in 0..*n {
                        let got = c.get(i, j);
                        let w = want.get(i, j);
                        if t == SimdTier::Scalar {
                            // Documented invariant: the scalar tier is
                            // bit-equal to the naive reference kernel.
                            if got.to_bits() != w.to_bits() {
                                return Err(format!("scalar gemm[{i},{j}]: {got} vs {w}"));
                            }
                        } else {
                            let mag: f64 = (0..*k)
                                .map(|p| (0.9 * a.get(i, p) * b.get(p, j)).abs())
                                .sum::<f64>()
                                + (0.4 * c0.get(i, j)).abs();
                            close(got, w, mag).map_err(|e| format!("{t:?} gemm[{i},{j}]: {e}"))?;
                            // β scales first, then one fma per k, ascending.
                            let mut chain = c0.get(i, j) * -0.4;
                            for p in 0..*k {
                                chain = (0.9 * a.get(i, p)).mul_add(b.get(p, j), chain);
                            }
                            exact(got, chain).map_err(|e| format!("{t:?} gemm[{i},{j}]: {e}"))?;
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// One vector-tier Adam step on one element: the two moment updates
/// are single-rounding FMAs, the rest rounds per operation. Returns the
/// new `(m, v, p)`.
#[allow(clippy::too_many_arguments)]
fn adam_chain(
    p: f64,
    g: f64,
    m: f64,
    v: f64,
    b1: f64,
    b2: f64,
    bc1: f64,
    bc2: f64,
    lr: f64,
    eps: f64,
) -> (f64, f64, f64) {
    let m = b1.mul_add(m, (1.0 - b1) * g);
    let v = b2.mul_add(v, ((1.0 - b2) * g) * g);
    (m, v, p - lr * (m / bc1) / ((v / bc2).sqrt() + eps))
}

#[test]
fn adam_update_matches_naive_oracle_per_tier() {
    let mut size_i = 0;
    Sweep::new(0xADA, 40).run(
        |rng| {
            let n = SIZES[size_i % SIZES.len()];
            size_i += 1;
            (
                adv_vec(rng, n),
                (0..n).map(|_| rng.gaussian()).collect::<Vec<f64>>(),
                (0..n).map(|_| rng.gaussian() * 0.1).collect::<Vec<f64>>(),
                (0..n)
                    .map(|_| rng.gaussian().abs() * 0.01)
                    .collect::<Vec<f64>>(),
            )
        },
        |_| Vec::new(),
        |(g, p0, m0, v0)| {
            let n = g.len();
            let (b1, b2, bc1, bc2, lr, eps) = (0.9, 0.999, 0.271, 0.0297, 1e-3, 1e-8);
            // Independent oracle: the pre-SIMD per-element update.
            let mut pw = p0.clone();
            let mut mw = m0.clone();
            let mut vw = v0.clone();
            for i in 0..n {
                mw[i] = b1 * mw[i] + (1.0 - b1) * g[i];
                vw[i] = b2 * vw[i] + (1.0 - b2) * g[i] * g[i];
                let mh = mw[i] / bc1;
                let vh = vw[i] / bc2;
                pw[i] -= lr * mh / (vh.sqrt() + eps);
            }
            for &t in simd::available_tiers() {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                simd::with_tier(t, || {
                    simd::adam_update(&mut p, g, &mut m, &mut v, b1, b2, bc1, bc2, lr, eps)
                });
                for i in 0..n {
                    close(m[i], mw[i], mw[i].abs().max(g[i].abs()))
                        .map_err(|e| format!("{t:?} m[{i}]: {e}"))?;
                    close(v[i], vw[i], vw[i].abs().max(g[i] * g[i]))
                        .map_err(|e| format!("{t:?} v[{i}]: {e}"))?;
                    close(p[i], pw[i], pw[i].abs().max(1.0))
                        .map_err(|e| format!("{t:?} p[{i}]: {e}"))?;
                    if t != SimdTier::Scalar {
                        let (em, ev, ep) =
                            adam_chain(p0[i], g[i], m0[i], v0[i], b1, b2, bc1, bc2, lr, eps);
                        exact(m[i], em).map_err(|e| format!("{t:?} m[{i}]: {e}"))?;
                        exact(v[i], ev).map_err(|e| format!("{t:?} v[{i}]: {e}"))?;
                        exact(p[i], ep).map_err(|e| format!("{t:?} p[{i}]: {e}"))?;
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn transpose_matches_naive_oracle_bitwise_per_tier() {
    // Pure data movement: every tier must match the naive double loop
    // bit-for-bit, including adversarial floats (subnormals survive a
    // shuffle unchanged) and non-multiple-of-4 shapes.
    let mut shape_i = 0;
    const SHAPES: &[(usize, usize)] = &[(0, 3), (1, 1), (3, 4), (4, 4), (5, 7), (8, 8), (13, 6)];
    Sweep::new(0x7A5, 40).run(
        |rng| {
            let (rows, cols) = SHAPES[shape_i % SHAPES.len()];
            shape_i += 1;
            (rows, cols, adv_vec(rng, rows * cols))
        },
        |_| Vec::new(),
        |&(rows, cols, ref src)| {
            let mut want = vec![0.0; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    want[c * rows + r] = src[r * cols + c];
                }
            }
            for &t in simd::available_tiers() {
                let mut dst = vec![0.0; rows * cols];
                simd::with_tier(t, || simd::transpose(src, rows, cols, &mut dst));
                for (i, (got, exp)) in dst.iter().zip(&want).enumerate() {
                    if got.to_bits() != exp.to_bits() {
                        return Err(format!("{t:?} {rows}x{cols} [{i}]: {got} vs {exp}"));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn bgemm_accum_matches_per_lane_oracle() {
    // The batched multi-instance GEMM: lane l of every (row, col) cell
    // is an independent ascending-k accumulation chain. The naive
    // triple loop below shares no code with the kernel; the scalar tier
    // must match it bit-for-bit, vector tiers within the FMA bound.
    let shapes = [
        (1usize, 1usize, 1usize),
        (2, 3, 1),
        (3, 7, 5),
        (5, 4, 9),
        (13, 9, 3),
    ];
    let mut case_i = 0;
    Sweep::new(0xB6E, 24).run(
        |rng| {
            let (m, kd, n) = shapes[case_i % shapes.len()];
            let lanes = [8usize, 16][case_i % 2];
            case_i += 1;
            (
                lanes,
                m,
                kd,
                n,
                adv_vec(rng, m * kd * lanes),
                adv_vec(rng, kd * n * lanes),
                adv_vec(rng, m * n * lanes),
            )
        },
        |_| Vec::new(),
        |&(lanes, m, kd, n, ref a, ref b, ref c0)| {
            let mut want = c0.clone();
            for r in 0..m {
                for j in 0..n {
                    for l in 0..lanes {
                        let mut acc = c0[(r * n + j) * lanes + l];
                        for k in 0..kd {
                            acc += a[(r * kd + k) * lanes + l] * b[(k * n + j) * lanes + l];
                        }
                        want[(r * n + j) * lanes + l] = acc;
                    }
                }
            }
            // The same product through the transposed-A entry point and
            // through both packings of B: `at` is `kd × m·L`, `w` (= Bᵀ)
            // is `n × kd·L`.
            let mut at = vec![0.0; a.len()];
            let mut w = vec![0.0; b.len()];
            for k in 0..kd {
                for l in 0..lanes {
                    for r in 0..m {
                        at[(k * m + r) * lanes + l] = a[(r * kd + k) * lanes + l];
                    }
                    for j in 0..n {
                        w[(j * kd + k) * lanes + l] = b[(k * n + j) * lanes + l];
                    }
                }
            }
            for &t in simd::available_tiers() {
                let runs = simd::with_tier(t, || {
                    let mut out = [c0.clone(), c0.clone(), c0.clone(), c0.clone()];
                    simd::bgemm_accum(lanes, a, b, &mut out[0], m, kd, n);
                    simd::bgemm_accum_t(lanes, &at, b, &mut out[1], m, kd, n);
                    let mut bp = simd::PackedB::new();
                    simd::bgemm_pack_b(lanes, b, kd, n, &mut bp);
                    simd::bgemm_accum_packed(a, &bp, &mut out[2], m);
                    simd::bgemm_pack_b_t(lanes, &w, kd, n, &mut bp);
                    simd::bgemm_accum_packed(a, &bp, &mut out[3], m);
                    out
                });
                for (path, c) in ["accum", "accum_t", "packed", "packed_t"].iter().zip(&runs) {
                    for i in 0..c.len() {
                        let (r, j, l) = (i / (n * lanes), (i / lanes) % n, i % lanes);
                        if t == SimdTier::Scalar {
                            if c[i].to_bits() != want[i].to_bits() {
                                return Err(format!("scalar {path}[{i}]: {} vs {}", c[i], want[i]));
                            }
                        } else {
                            let mag: f64 = (0..kd)
                                .map(|k| {
                                    (a[(r * kd + k) * lanes + l] * b[(k * n + j) * lanes + l]).abs()
                                })
                                .sum::<f64>()
                                + c0[i].abs();
                            close(c[i], want[i], mag)
                                .map_err(|e| format!("{t:?} {path}[{i}]: {e}"))?;
                            let mut chain = c0[i];
                            for k in 0..kd {
                                let (av, bv) =
                                    (a[(r * kd + k) * lanes + l], b[(k * n + j) * lanes + l]);
                                chain = av.mul_add(bv, chain);
                            }
                            exact(c[i], chain).map_err(|e| format!("{t:?} {path}[{i}]: {e}"))?;
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn adam_update_multi_matches_per_lane_oracle() {
    // The multi-instance Adam step: element i uses lane i % lanes'
    // bias corrections and learning rate. Odd multiples of the lane
    // width exercise every remainder path.
    let mut case_i = 0;
    Sweep::new(0xADB, 32).run(
        |rng| {
            let lanes = [8usize, 16][case_i % 2];
            let n = lanes * [1usize, 3, 7][case_i % 3];
            case_i += 1;
            let consts: Vec<f64> = (0..3 * lanes)
                .map(|i| match i % 3 {
                    0 => 1.0 - 0.9f64.powi(1 + (i as i32 % 5)), // bc-like
                    1 => rng.uniform() + 0.01,
                    _ => rng.uniform() * 1e-2,
                })
                .collect();
            (
                lanes,
                adv_vec(rng, n),
                (0..n).map(|_| rng.gaussian()).collect::<Vec<f64>>(),
                (0..n).map(|_| rng.gaussian() * 0.1).collect::<Vec<f64>>(),
                (0..n)
                    .map(|_| rng.gaussian().abs() * 0.01)
                    .collect::<Vec<f64>>(),
                consts,
            )
        },
        |_| Vec::new(),
        |&(lanes, ref g, ref p0, ref m0, ref v0, ref consts)| {
            let n = g.len();
            let (b1, b2, eps) = (0.9, 0.999, 1e-8);
            let bc1: Vec<f64> = (0..lanes).map(|l| consts[3 * l]).collect();
            let bc2: Vec<f64> = (0..lanes).map(|l| consts[3 * l + 1]).collect();
            let lr: Vec<f64> = (0..lanes).map(|l| consts[3 * l + 2]).collect();
            // Independent oracle: the solo per-element formula with the
            // element's lane constants.
            let mut pw = p0.clone();
            let mut mw = m0.clone();
            let mut vw = v0.clone();
            for i in 0..n {
                let l = i % lanes;
                mw[i] = b1 * mw[i] + (1.0 - b1) * g[i];
                vw[i] = b2 * vw[i] + (1.0 - b2) * g[i] * g[i];
                let mh = mw[i] / bc1[l];
                let vh = vw[i] / bc2[l];
                pw[i] -= lr[l] * mh / (vh.sqrt() + eps);
            }
            for &t in simd::available_tiers() {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                simd::with_tier(t, || {
                    simd::adam_update_multi(
                        lanes, &mut p, g, &mut m, &mut v, b1, b2, &bc1, &bc2, &lr, eps,
                    )
                });
                for i in 0..n {
                    close(m[i], mw[i], mw[i].abs().max(g[i].abs()))
                        .map_err(|e| format!("{t:?} m[{i}]: {e}"))?;
                    close(v[i], vw[i], vw[i].abs().max(g[i] * g[i]))
                        .map_err(|e| format!("{t:?} v[{i}]: {e}"))?;
                    close(p[i], pw[i], pw[i].abs().max(1.0))
                        .map_err(|e| format!("{t:?} p[{i}]: {e}"))?;
                    if t != SimdTier::Scalar {
                        let l = i % lanes;
                        let (em, ev, ep) = adam_chain(
                            p0[i], g[i], m0[i], v0[i], b1, b2, bc1[l], bc2[l], lr[l], eps,
                        );
                        exact(m[i], em).map_err(|e| format!("{t:?} m[{i}]: {e}"))?;
                        exact(v[i], ev).map_err(|e| format!("{t:?} v[{i}]: {e}"))?;
                        exact(p[i], ep).map_err(|e| format!("{t:?} p[{i}]: {e}"))?;
                    }
                }
            }
            Ok(())
        },
    );
}

/// Forced-tier smoke: exercise one kernel under every *named* tier.
/// Tiers the host cannot run are skipped with a visible message rather
/// than failed — the portable-fallback contract says `SGM_SIMD=avx512`
/// on a lesser host silently degrades, so the suite must stay green
/// everywhere while making the skipped coverage auditable in the log.
#[test]
fn forced_tier_smoke_runs_or_skips_visibly() {
    let available = simd::available_tiers();
    for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
        if !available.contains(&tier) {
            eprintln!(
                "forced_tier_smoke: skipping tier `{}` — not supported on this host \
                 (available: {:?})",
                tier.name(),
                available.iter().map(|t| t.name()).collect::<Vec<_>>()
            );
            continue;
        }
        let x: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let dot = simd::with_tier(tier, || simd::dot(&x, &y));
        let want: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(
            (dot - want).abs() <= 1e-12 * want.abs().max(1.0),
            "tier {}: {dot} vs {want}",
            tier.name()
        );
    }
}

#[test]
fn activation_combine_kernels_match_formula_oracle() {
    let mut size_i = 0;
    Sweep::new(0xAC7, 40).run(
        |rng| {
            let n = SIZES[size_i % SIZES.len()];
            size_i += 1;
            (0..7).map(|_| adv_vec(rng, n)).collect::<Vec<Vec<f64>>>()
        },
        |_| Vec::new(),
        |vs| {
            let [s1, s2, s3, zj, zh, gj, gh] =
                [&vs[0], &vs[1], &vs[2], &vs[3], &vs[4], &vs[5], &vs[6]];
            let n = s1.len();
            for &t in simd::available_tiers() {
                let (mut jo, mut ho) = (vec![0.0; n], vec![0.0; n]);
                let mut gz = vec![0.0; n];
                let (mut gzj, mut gzh) = (vec![0.0; n], vec![0.0; n]);
                simd::with_tier(t, || {
                    simd::act_fwd_jh(s1, s2, zj, zh, &mut jo, &mut ho);
                    simd::act_bwd_accum(s1, s2, s3, zj, zh, gj, gh, &mut gz, &mut gzj, &mut gzh);
                });
                for i in 0..n {
                    let wj = s1[i] * zj[i];
                    let wh = s2[i] * zj[i] * zj[i] + s1[i] * zh[i];
                    let wgz =
                        gj[i] * s2[i] * zj[i] + gh[i] * (s3[i] * zj[i] * zj[i] + s2[i] * zh[i]);
                    let wgzj = gj[i] * s1[i] + gh[i] * 2.0 * s2[i] * zj[i];
                    let wgzh = gh[i] * s1[i];
                    let mh = (s2[i] * zj[i] * zj[i]).abs() + (s1[i] * zh[i]).abs();
                    let mgz = (gj[i] * s2[i] * zj[i]).abs()
                        + (gh[i] * s3[i] * zj[i] * zj[i]).abs()
                        + (gh[i] * s2[i] * zh[i]).abs();
                    let mgzj = (gj[i] * s1[i]).abs() + (gh[i] * 2.0 * s2[i] * zj[i]).abs();
                    close(jo[i], wj, wj.abs()).map_err(|e| format!("{t:?} j[{i}]: {e}"))?;
                    close(ho[i], wh, mh).map_err(|e| format!("{t:?} h[{i}]: {e}"))?;
                    close(gz[i], wgz, mgz).map_err(|e| format!("{t:?} gz[{i}]: {e}"))?;
                    close(gzj[i], wgzj, mgzj).map_err(|e| format!("{t:?} gzj[{i}]: {e}"))?;
                    close(gzh[i], wgzh, wgzh.abs()).map_err(|e| format!("{t:?} gzh[{i}]: {e}"))?;
                    if t != SimdTier::Scalar {
                        let eh = (s2[i] * zj[i]).mul_add(zj[i], s1[i] * zh[i]);
                        let t1 = (gj[i] * s2[i]) * zj[i];
                        let t2 = (s3[i] * zj[i]).mul_add(zj[i], s2[i] * zh[i]);
                        let egz = 0.0 + gh[i].mul_add(t2, t1);
                        let egzj = ((gh[i] * 2.0) * s2[i]).mul_add(zj[i], gj[i] * s1[i]);
                        exact(jo[i], s1[i] * zj[i]).map_err(|e| format!("{t:?} j[{i}]: {e}"))?;
                        exact(ho[i], eh).map_err(|e| format!("{t:?} h[{i}]: {e}"))?;
                        exact(gz[i], egz).map_err(|e| format!("{t:?} gz[{i}]: {e}"))?;
                        exact(gzj[i], egzj).map_err(|e| format!("{t:?} gzj[{i}]: {e}"))?;
                        exact(gzh[i], gh[i] * s1[i]).map_err(|e| format!("{t:?} gzh[{i}]: {e}"))?;
                    }
                }
            }
            Ok(())
        },
    );
}
