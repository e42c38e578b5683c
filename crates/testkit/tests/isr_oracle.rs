//! ISR oracle sweep: the production SPADE solve (Lanczos on the
//! Cholesky-reduced pencil operator, `sgm_stability`) against the dense
//! oracle (the same reduction formed in full and diagonalised by Jacobi,
//! `sgm_testkit::isr`) on seeded probe sets of 3 to 192 points with 1–3
//! input and output dimensions.
//!
//! Eigenvalues must agree to [`EIG_TOL`] relative. Node scores must
//! agree to [`SCORE_TOL`] of their largest value wherever the top-`r`
//! eigenspace is well defined: when `λ_r` and `λ_{r+1}` are separated,
//! or when the probe set has at most `r` points. Inside the top `r` a
//! repeated eigenvalue does not matter, because the node score sums over
//! the whole subspace.

use sgm_graph::knn::{build_knn_graph, KnnConfig, KnnStrategy};
use sgm_graph::points::PointCloud;
use sgm_graph::Graph;
use sgm_linalg::rng::Rng64;
use sgm_stability::{spade_scores, spade_scores_from_graphs, SpadeConfig};
use sgm_testkit::isr::dense_spade_scores_from_graphs;

/// Relative eigenvalue tolerance.
const EIG_TOL: f64 = 1e-8;
/// Node-score tolerance, as a fraction of the largest node score.
const SCORE_TOL: f64 = 1e-8;
/// `λ_r` and `λ_{r+1}` count as separated when they differ by at least
/// this fraction of `λ_r`.
const SEPARATED: f64 = 1e-3;

/// The probe graphs `spade_scores` builds: brute kNN with `k` clamped to
/// the probe count.
fn probe_graphs(input: &PointCloud, output: &PointCloud, cfg: &SpadeConfig) -> (Graph, Graph) {
    let knn = KnnConfig {
        k: cfg.k.min(input.len() - 1).max(1),
        strategy: KnnStrategy::Brute,
        weight_eps: cfg.weight_eps,
        seed: 0x5BADE,
    };
    (build_knn_graph(input, &knn), build_knn_graph(output, &knn))
}

/// Compares the production solve with the oracle on one probe set.
/// `scores_defined` is false for degenerate pencils whose top-`r`
/// subspace is arbitrary inside a repeated eigenvalue.
fn check(label: &str, input: &PointCloud, output: &PointCloud, scores_defined: bool) {
    let cfg = SpadeConfig::default();
    let n = input.len();
    let (gx, gy) = probe_graphs(input, output, &cfg);
    let got = spade_scores_from_graphs(&gx, &gy, &cfg);
    let (want, spectrum) = dense_spade_scores_from_graphs(&gx, &gy, &cfg);
    let r = cfg.num_pairs.min(n);

    assert_eq!(got.eigenvalues.len(), r, "{label}: pair count");
    assert_eq!(got, spade_scores(input, output, &cfg), "{label}: graphs");
    for (i, (a, b)) in got.eigenvalues.iter().zip(&want.eigenvalues).enumerate() {
        assert!(
            (a - b).abs() <= EIG_TOL * b.abs(),
            "{label}: λ{} = {a}, oracle {b}",
            i + 1
        );
    }
    assert_eq!(got.isr_max, got.eigenvalues[0], "{label}: isr_max");

    let separated = n <= r || spectrum[r - 1] - spectrum[r] >= SEPARATED * spectrum[r - 1];
    if scores_defined && separated {
        let max = want.node_scores.iter().cloned().fold(0.0, f64::max);
        for (p, (a, b)) in got.node_scores.iter().zip(&want.node_scores).enumerate() {
            assert!(
                (a - b).abs() <= SCORE_TOL * max,
                "{label}: node {p} scores {a}, oracle {b} (max {max})"
            );
        }
    }
}

/// `n` input points of dimension `d_in`: an annulus `0.5 ≤ ρ ≤ 1` in the
/// first two coordinates (a segment of it when `d_in = 1`: the angle
/// alone), plus a parameter in `[0, 1]` as the third.
fn ring_inputs(n: usize, d_in: usize, rng: &mut Rng64) -> PointCloud {
    let mut flat = Vec::with_capacity(n * d_in);
    for _ in 0..n {
        let phi = rng.uniform_in(0.0, std::f64::consts::TAU);
        let rho = rng.uniform_in(0.5, 1.0);
        match d_in {
            1 => flat.push(phi),
            _ => {
                flat.push(rho * phi.cos());
                flat.push(rho * phi.sin());
                if d_in == 3 {
                    flat.push(rng.uniform_in(0.0, 1.0));
                }
            }
        }
    }
    PointCloud::from_flat(d_in, flat)
}

/// A smooth map of the inputs into `d_out` dimensions, like a trained
/// network's fields over the ring.
fn smooth_outputs(input: &PointCloud, d_out: usize) -> PointCloud {
    let mut flat = Vec::with_capacity(input.len() * d_out);
    for i in 0..input.len() {
        let p = input.point(i);
        let (x, y, s) = (p[0], p.get(1).copied().unwrap_or(0.0), p.get(2).copied());
        let fields = [
            (2.0 * x).sin() * (1.0 + y * y) + s.unwrap_or(0.0),
            x * y + 0.3 * (3.0 * y).cos(),
            (x * x + y * y).sqrt() * (1.0 + s.unwrap_or(0.5)),
        ];
        flat.extend_from_slice(&fields[..d_out]);
    }
    PointCloud::from_flat(d_out, flat)
}

fn scaled(input: &PointCloud, by: f64) -> PointCloud {
    PointCloud::from_flat(
        input.dim(),
        input.as_slice().iter().map(|v| by * v).collect(),
    )
}

const SIZES: [usize; 6] = [3, 4, 8, 30, 64, 128];

/// `y = x` and `y = 5x`: every eigenvalue but the constant vector's is
/// repeated, and the solver must still return `min(r, n)` pairs.
#[test]
fn degenerate_pencils_return_every_pair() {
    let mut rng = Rng64::new(0x15A1);
    for &n in &SIZES {
        let d_in = 1 + rng.below(3);
        let input = ring_inputs(n, d_in, &mut rng);
        check(&format!("y=x n={n} d={d_in}"), &input, &input, false);
        let five = scaled(&input, 5.0);
        check(&format!("y=5x n={n} d={d_in}"), &input, &five, false);
    }
}

/// Two output groups 10³ apart, split at the median of the first input
/// coordinate: `G_Y` falls into two components once each group has more
/// than `k` points, and the top eigenvalue grows toward 1/ε.
#[test]
fn disconnected_output_graph() {
    let mut rng = Rng64::new(0x15A2);
    for &n in &SIZES {
        let (d_in, d_out) = (1 + rng.below(3), 1 + rng.below(3));
        let input = ring_inputs(n, d_in, &mut rng);
        let mut first: Vec<f64> = (0..n).map(|i| input.point(i)[0]).collect();
        first.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = first[n / 2];
        let mut flat = smooth_outputs(&input, d_out).as_slice().to_vec();
        for (i, row) in flat.chunks_mut(d_out).enumerate() {
            if input.point(i)[0] >= median {
                row[0] += 1e3;
            }
        }
        let output = PointCloud::from_flat(d_out, flat);
        check(
            &format!("groups n={n} d={d_in}->{d_out}"),
            &input,
            &output,
            true,
        );
    }
}

/// Smooth ring-like maps over the sweep sizes, two draws each.
#[test]
fn ring_like_smooth_maps() {
    let mut rng = Rng64::new(0x15A3);
    for &n in &SIZES {
        for _ in 0..2 {
            let (d_in, d_out) = (1 + rng.below(3), 1 + rng.below(3));
            let input = ring_inputs(n, d_in, &mut rng);
            let output = smooth_outputs(&input, d_out);
            check(
                &format!("ring n={n} d={d_in}->{d_out}"),
                &input,
                &output,
                true,
            );
        }
    }
}

/// One probe set at 192 points, the `isr_cap` the experiment configs use.
#[test]
fn ring_like_map_at_the_production_cap() {
    let mut rng = Rng64::new(0x15A4);
    let input = ring_inputs(192, 3, &mut rng);
    let output = smooth_outputs(&input, 3);
    check("ring n=192 d=3->3", &input, &output, true);
}
