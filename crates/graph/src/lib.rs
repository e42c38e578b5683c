//! # sgm-graph
//!
//! Graph machinery for the SGM-PINN probabilistic graphical model (PGM):
//!
//! * [`points`] — flat, cache-friendly point clouds (`N × M` features).
//! * [`knn`] — k-nearest-neighbour graph builders: exact brute force, a
//!   uniform-grid accelerator for low-dimensional clouds, and a from-scratch
//!   **HNSW** (hierarchical navigable small world, Malkov & Yashunin) index —
//!   the algorithm the paper uses for S1 (`O(N log N)` construction).
//! * [`graph`] — undirected weighted graphs in edge + CSR adjacency form,
//!   union–find, BFS/components.
//! * [`laplacian`] — graph Laplacians (combinatorial and normalised) as
//!   sparse matrices.
//! * [`resistance`] — effective-resistance computation: exact dense
//!   pseudo-inverse (test oracle), per-edge CG solves (accurate), and the
//!   scalable **smoothed-random-projection estimator** (HyperEF style) used
//!   in production — linear time in the edge count.
//! * [`partition`] — grid-partitioned multi-threaded S1+S2 (paper §3.3's
//!   "speedup roughly linear with the number of available threads").
//! * [`lrd`] — the **low-resistance-diameter decomposition** (S2): partitions
//!   the PGM into clusters whose internal effective-resistance diameter is
//!   bounded, by level-wise contraction of low-ER edges (Alev et al.,
//!   ITCS'18).
//! * [`metrics`] — conductance, cut size, cluster ER-diameter checks.
//! * [`sparsify`] — Spielman–Srivastava spectral sparsification by
//!   effective-resistance sampling (thins dense PGMs before LRD).
//!
//! # Example: cluster a small cloud
//!
//! ```
//! use sgm_graph::points::PointCloud;
//! use sgm_graph::knn::{build_knn_graph, KnnConfig, KnnStrategy};
//! use sgm_graph::lrd::{decompose, LrdConfig};
//!
//! // Two well-separated blobs.
//! let mut pts = Vec::new();
//! for i in 0..20 {
//!     let t = i as f64 * 0.01;
//!     pts.extend_from_slice(&[t, t]);
//!     pts.extend_from_slice(&[10.0 + t, 10.0 - t]);
//! }
//! let cloud = PointCloud::from_flat(2, pts);
//! let g = build_knn_graph(
//!     &cloud,
//!     &KnnConfig { k: 4, strategy: KnnStrategy::Brute, ..KnnConfig::default() },
//! );
//! let clustering = decompose(&g, &LrdConfig::default());
//! assert!(clustering.num_clusters() >= 2);
//! ```

pub mod graph;
pub mod knn;
pub mod laplacian;
pub mod lrd;
pub mod metrics;
pub mod partition;
pub mod points;
pub mod resistance;
pub mod sparsify;

pub use graph::Graph;
pub use lrd::Clustering;
pub use points::PointCloud;
