//! k-nearest-neighbour graph construction (paper step **S1**).
//!
//! The PGM is a kNN graph over the collocation-point cloud: nearby points
//! are conditionally dependent, with edge weight inversely proportional to
//! distance. Three builders are provided:
//!
//! * [`KnnStrategy::Brute`] — exact `O(N²)`; the oracle for tests and fine
//!   for clouds below a few thousand points.
//! * [`KnnStrategy::Grid`] — exact for low-dimensional clouds using a
//!   uniform bucket grid; near-linear for the 2-D/3-D spatial coordinates
//!   PINN clouds actually use.
//! * [`KnnStrategy::Hnsw`] — approximate hierarchical navigable small world
//!   ([`hnsw`]), the `O(N log N)` algorithm the paper cites (Malkov &
//!   Yashunin, ref [17]).

pub mod hnsw;

use crate::graph::Graph;
use crate::points::{dist2, PointCloud};
use sgm_linalg::rng::Rng64;
use sgm_obs::{trace, Histogram, TraceLevel};

/// Wall time of each full kNN graph build (nanoseconds).
static KNN_BUILD_NS: Histogram = Histogram::new("sgm_graph_knn_build_ns");

/// Auto-mode work cutoff (≈ distance evaluations) above which per-query
/// kNN fans out to the pool. Each query row is independent, so the
/// parallel result is bit-identical to the serial scan.
const KNN_PAR_WORK: usize = 1 << 18;

/// Which kNN algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnStrategy {
    /// Exact O(N²) scan.
    Brute,
    /// Exact uniform-grid accelerated search (low dimensions).
    Grid,
    /// Approximate HNSW (O(N log N) construction).
    Hnsw,
}

/// Configuration for [`build_knn_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnConfig {
    /// Neighbours per node (the paper's `k`; e.g. 30 for LDC, 7 for AR).
    pub k: usize,
    /// Algorithm choice.
    pub strategy: KnnStrategy,
    /// Edge-weight scheme: `w = 1 / (dist + eps)` (inverse distance encodes
    /// conditional dependence). `eps` guards coincident points.
    pub weight_eps: f64,
    /// RNG seed (HNSW level assignment).
    pub seed: u64,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 8,
            strategy: KnnStrategy::Grid,
            weight_eps: 1e-9,
            seed: 0x5EED,
        }
    }
}

/// The `k` nearest neighbours of every point: `out[i]` lists up to `k`
/// `(index, dist2)` pairs, ascending by distance, excluding `i` itself.
pub fn knn_lists(cloud: &PointCloud, cfg: &KnnConfig) -> Vec<Vec<(usize, f64)>> {
    match cfg.strategy {
        KnnStrategy::Brute => brute_knn(cloud, cfg.k),
        KnnStrategy::Grid => grid_knn(cloud, cfg.k),
        KnnStrategy::Hnsw => {
            let mut rng = Rng64::new(cfg.seed);
            let index = hnsw::Hnsw::build(cloud, &hnsw::HnswParams::default(), &mut rng);
            let n = cloud.len();
            let query = |i: usize| -> Vec<(usize, f64)> {
                index
                    .search(cloud.point(i), cfg.k + 1)
                    .into_iter()
                    .filter(|&(j, _)| j != i)
                    .take(cfg.k)
                    .collect()
            };
            // Construction is inherently sequential (each insert reads the
            // links of previous ones) but the bulk query phase is not.
            let work = n.saturating_mul((cfg.k + 1) * 512);
            match sgm_par::current().pool(work, KNN_PAR_WORK) {
                Some(pool) => pool.par_map_indexed(n, 8, query),
                None => (0..n).map(query).collect(),
            }
        }
    }
}

/// Builds the undirected kNN graph (the PGM of S1). Mutual duplicate edges
/// are merged; edge weight is `1 / (dist + eps)`.
///
/// # Panics
/// Panics if the cloud is empty or `k == 0`.
pub fn build_knn_graph(cloud: &PointCloud, cfg: &KnnConfig) -> Graph {
    assert!(!cloud.is_empty(), "empty cloud");
    assert!(cfg.k > 0, "k must be positive");
    let _span = trace::span(TraceLevel::Full, "graph", "knn_build");
    let t0 = std::time::Instant::now();
    let lists = knn_lists(cloud, cfg);
    let mut edges = Vec::with_capacity(cloud.len() * cfg.k);
    for (i, nbrs) in lists.iter().enumerate() {
        for &(j, d2) in nbrs {
            let w = 1.0 / (d2.sqrt() + cfg.weight_eps);
            edges.push((i.min(j), i.max(j), w));
        }
    }
    // A mutual pair is listed from both ends, and from_edges would *sum*
    // the two weights. The stable sort keeps each pair's first listing
    // ahead of its second, and dedup keeps only that one, so every edge
    // weighs 1/(d+eps) once.
    edges.sort_by_key(|&(u, v, _)| (u, v));
    edges.dedup_by_key(|e| (e.0, e.1));
    let g = Graph::from_edges(cloud.len(), &edges);
    KNN_BUILD_NS.record_duration(t0.elapsed());
    g
}

/// Exact O(N²) kNN. Query rows are independent, so the pooled path
/// returns exactly what the serial scan does.
pub fn brute_knn(cloud: &PointCloud, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = cloud.len();
    // Per-worker distance buffer: reused across queries so the hot loop
    // is allocation-free (one 8·n buffer per pool thread, not per query).
    thread_local! {
        static D2: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    let query = |i: usize| -> Vec<(usize, f64)> {
        D2.with(|cell| {
            let mut d2 = cell.borrow_mut();
            d2.resize(n, 0.0);
            // Batched distance kernel: the AVX2 tier scores four candidate
            // points per step (lanes hold points), which vectorises the
            // scan even for dim-2..4 clouds where per-pair SIMD has
            // nothing to do.
            sgm_linalg::simd::dist2_batch(cloud.as_slice(), cloud.dim(), cloud.point(i), &mut d2);
            // Bounded-insertion pass: keep the k nearest in ascending
            // (dist, index) order. Expected insertions are O(k·log n), so
            // the per-candidate cost is one predictable compare — the
            // distance kernel above dominates, unlike a full O(n·log n)
            // sort. Scanning j ascending means an equal-distance incumbent
            // always has the smaller index, so strict `<` reproduces the
            // old stable-sort tie behaviour exactly.
            let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
            for (j, &d) in d2.iter().enumerate() {
                if j == i || k == 0 {
                    continue;
                }
                if best.len() == k {
                    if d >= best[k - 1].1 {
                        continue;
                    }
                    best.pop();
                }
                let pos = best.partition_point(|&(jj, dd)| dd < d || (dd == d && jj < j));
                best.insert(pos, (j, d));
            }
            best
        })
    };
    let work = n.saturating_mul(n).saturating_mul(cloud.dim().max(1));
    match sgm_par::current().pool(work, KNN_PAR_WORK) {
        Some(pool) => pool.par_map_indexed(n, 8, query),
        None => (0..n).map(query).collect(),
    }
}

/// Exact kNN using a uniform bucket grid over the bounding box. Efficient
/// for spatial (2–4 dimensional) clouds with roughly uniform density.
pub fn grid_knn(cloud: &PointCloud, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = cloud.len();
    let dim = cloud.dim();
    if n <= k + 1 || dim > 4 {
        return brute_knn(cloud, k.min(n.saturating_sub(1)));
    }
    let (mins, maxs) = cloud.bounds();
    // Aim for ~2 points per cell.
    let cells_target = (n as f64 / 2.0).max(1.0);
    let per_axis = cells_target.powf(1.0 / dim as f64).ceil().max(1.0) as usize;
    let mut widths = vec![0.0; dim];
    for d in 0..dim {
        let span = (maxs[d] - mins[d]).max(1e-12);
        widths[d] = span / per_axis as f64;
    }
    let cell_of = |p: &[f64]| -> Vec<usize> {
        (0..dim)
            .map(|d| (((p[d] - mins[d]) / widths[d]) as usize).min(per_axis - 1))
            .collect()
    };
    let linear = |c: &[usize]| -> usize {
        let mut idx = 0;
        for &cd in c.iter().take(dim) {
            idx = idx * per_axis + cd;
        }
        idx
    };
    let num_cells = per_axis.pow(dim as u32);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num_cells];
    for i in 0..n {
        buckets[linear(&cell_of(cloud.point(i)))].push(i as u32);
    }

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let home = cell_of(cloud.point(i));
        let mut ring = 0usize;
        let mut heap: Vec<(usize, f64)> = Vec::new(); // collected candidates
        loop {
            // Gather all cells at Chebyshev distance exactly `ring`.
            let mut any_cell = false;
            let mut stack = vec![(0usize, Vec::<isize>::new())];
            while let Some((d, partial)) = stack.pop() {
                if d == dim {
                    let cheb = partial.iter().map(|o| o.unsigned_abs()).max().unwrap_or(0);
                    if cheb != ring {
                        continue;
                    }
                    let mut cell = vec![0usize; dim];
                    let mut ok = true;
                    for dd in 0..dim {
                        let c = home[dd] as isize + partial[dd];
                        if c < 0 || c >= per_axis as isize {
                            ok = false;
                            break;
                        }
                        cell[dd] = c as usize;
                    }
                    if ok {
                        any_cell = true;
                        for &j in &buckets[linear(&cell)] {
                            let j = j as usize;
                            if j != i {
                                heap.push((j, cloud.dist2(i, j)));
                            }
                        }
                    }
                    continue;
                }
                for off in -(ring as isize)..=(ring as isize) {
                    let mut p = partial.clone();
                    p.push(off);
                    stack.push((d + 1, p));
                }
            }
            // Stop when we have k candidates whose distance is provably
            // within the scanned region: the scanned region covers radius
            // ring * min_width around the home cell.
            if heap.len() >= k {
                let safe_radius = ring as f64 * widths.iter().cloned().fold(f64::MAX, f64::min);
                heap.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                if heap.len() >= k && heap[k - 1].1.sqrt() <= safe_radius {
                    break;
                }
            }
            if !any_cell && ring > per_axis {
                break;
            }
            ring += 1;
        }
        heap.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        heap.dedup_by_key(|e| e.0);
        heap.truncate(k);
        out.push(heap);
    }
    out
}

/// Recall of an approximate kNN result against the exact one: the fraction
/// of true neighbours found, averaged over query points.
///
/// # Panics
/// Panics if the two lists have different lengths.
pub fn recall(approx: &[Vec<(usize, f64)>], exact: &[Vec<(usize, f64)>]) -> f64 {
    assert_eq!(approx.len(), exact.len(), "result length mismatch");
    if approx.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for (a, e) in approx.iter().zip(exact) {
        if e.is_empty() {
            total += 1.0;
            continue;
        }
        let truth: std::collections::HashSet<usize> = e.iter().map(|&(j, _)| j).collect();
        let hit = a.iter().filter(|&&(j, _)| truth.contains(&j)).count();
        total += hit as f64 / truth.len() as f64;
    }
    total / approx.len() as f64
}

/// Convenience: exact squared distance between two raw points.
pub fn point_dist2(a: &[f64], b: &[f64]) -> f64 {
    dist2(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_cloud(n: usize) -> PointCloud {
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            data.push(t.cos());
            data.push(t.sin());
        }
        PointCloud::from_flat(2, data)
    }

    #[test]
    fn brute_on_ring_finds_adjacent() {
        let c = ring_cloud(16);
        let lists = brute_knn(&c, 2);
        for (i, nbrs) in lists.iter().enumerate() {
            let expect: std::collections::HashSet<usize> =
                [(i + 1) % 16, (i + 15) % 16].into_iter().collect();
            let got: std::collections::HashSet<usize> = nbrs.iter().map(|&(j, _)| j).collect();
            assert_eq!(got, expect, "node {i}");
        }
    }

    #[test]
    fn grid_matches_brute() {
        let mut rng = Rng64::new(42);
        let c = PointCloud::uniform_box(300, 2, 0.0, 1.0, &mut rng);
        let exact = brute_knn(&c, 5);
        let grid = grid_knn(&c, 5);
        let r = recall(&grid, &exact);
        assert!(r > 0.999, "grid recall {r}");
    }

    #[test]
    fn grid_matches_brute_3d() {
        let mut rng = Rng64::new(43);
        let c = PointCloud::uniform_box(200, 3, -1.0, 1.0, &mut rng);
        let exact = brute_knn(&c, 4);
        let grid = grid_knn(&c, 4);
        assert!(recall(&grid, &exact) > 0.999);
    }

    #[test]
    fn hnsw_recall_reasonable() {
        let mut rng = Rng64::new(44);
        let c = PointCloud::uniform_box(500, 2, 0.0, 1.0, &mut rng);
        let exact = brute_knn(&c, 8);
        let approx = knn_lists(
            &c,
            &KnnConfig {
                k: 8,
                strategy: KnnStrategy::Hnsw,
                ..KnnConfig::default()
            },
        );
        let r = recall(&approx, &exact);
        assert!(r > 0.9, "hnsw recall {r}");
    }

    #[test]
    fn knn_graph_is_connected_for_dense_cloud() {
        let mut rng = Rng64::new(45);
        let c = PointCloud::uniform_box(400, 2, 0.0, 1.0, &mut rng);
        let g = build_knn_graph(
            &c,
            &KnnConfig {
                k: 8,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
        );
        assert_eq!(g.num_nodes(), 400);
        assert!(g.is_connected());
    }

    #[test]
    fn knn_graph_weights_are_inverse_distance() {
        let c = PointCloud::from_flat(1, vec![0.0, 1.0, 3.0]);
        let g = build_knn_graph(
            &c,
            &KnnConfig {
                k: 1,
                strategy: KnnStrategy::Brute,
                weight_eps: 0.0,
                ..KnnConfig::default()
            },
        );
        // Nearest of 0 is 1 (d=1, w=1); nearest of 2 is 1 (d=2, w=0.5).
        let mut weights: Vec<f64> = g.edges().map(|(_, _, w)| w).collect();
        weights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((weights[0] - 0.5).abs() < 1e-12);
        assert!((weights[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recall_of_exact_is_one() {
        let c = ring_cloud(10);
        let e = brute_knn(&c, 3);
        assert_eq!(recall(&e, &e), 1.0);
    }

    #[test]
    fn tiny_clouds_fall_back() {
        let c = PointCloud::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
        let lists = grid_knn(&c, 5);
        assert_eq!(lists[0].len(), 1);
    }
}
