//! The SGM-PINN sampler — Algorithm 1 of the paper.
//!
//! ```text
//! 1: From X, create a kNN-graph G                      (S1)
//! 2: Use the LRD Algorithm to split G into n_c clusters (S2)
//! 3: S ← cluster sizes
//! 4: while training:
//! 5:   S* ← r · S_i points from each cluster
//! 6:   calculate the losses for S*
//! 7:   from S*, apply the ISR algorithm                 (S3, parameterised)
//! 8:   L ← combined losses and ISR per cluster
//! 9:   map L to proportional sampling ratios P
//! 10:  create an epoch with P_i · S_i samples per cluster (floor 1)
//! 11:  shuffle and serve the epoch until τ_e iterations pass
//! 14:  every τ_G iterations rebuild S1–S2 in the background
//! ```

use crate::background::{run_rebuild, BackgroundBuilder, RebuildRequest};
use crate::score::{assemble_epoch, combine_scores, map_scores, ScoreMapping};
use sgm_graph::knn::{KnnConfig, KnnStrategy};
use sgm_graph::lrd::{Clustering, ErSource, LrdConfig};
use sgm_graph::points::PointCloud;
use sgm_graph::resistance::ApproxErOptions;
use sgm_json::Value;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_obs::{trace, Counter, Gauge, TraceLevel};
use sgm_stability::{spade_scores, SpadeConfig};
use sgm_train::{PointChanges, PointSet, Probe, Sampler};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Completed τ_e score refreshes.
static REFRESHES_TOTAL: Counter = Counter::new("sgm_sampler_refreshes_total");
/// τ_e refreshes that assembled an epoch from a *stale* clustering
/// (a rebuild was still in flight on the background worker).
static STALE_EPOCHS_TOTAL: Counter = Counter::new("sgm_sampler_stale_epochs_total");
/// Distribution summary of the per-cluster combined scores at the last
/// refresh.
static SCORE_MIN: Gauge = Gauge::new("sgm_sampler_score_min");
static SCORE_MEAN: Gauge = Gauge::new("sgm_sampler_score_mean");
static SCORE_MAX: Gauge = Gauge::new("sgm_sampler_score_max");
/// Normalised Shannon entropy of the per-cluster draw ratios at the last
/// refresh: 1.0 = uniform over clusters, → 0 as the sampler concentrates.
static DRAW_ENTROPY: Gauge = Gauge::new("sgm_sampler_draw_entropy");

/// Normalised Shannon entropy of a (non-negative) count distribution.
fn normalized_entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 || counts.len() < 2 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.ln();
        }
    }
    h / (counts.len() as f64).ln()
}

/// Minimum probe points per parallel chunk in the τ_e loss refresh.
const PROBE_PAR_MIN: usize = 32;

/// Auto-mode work cutoff (≈ probe count × per-point forward cost proxy)
/// for fanning the refresh loss evaluations out to the pool.
const PROBE_PAR_WORK: usize = 1 << 18;

/// Evaluates `probe.sample_losses` over `idx`, fanning out to the pool in
/// chunks when the batch is large. Each per-point loss depends only on
/// its own input row, so the chunked result is bit-identical to the
/// one-shot serial call.
fn probe_losses(probe: &Probe<'_>, idx: &[usize]) -> Vec<f64> {
    let m = idx.len();
    match sgm_par::current().pool(m.saturating_mul(1024), PROBE_PAR_WORK) {
        Some(pool) => {
            let chunk = sgm_par::chunk_len(m, PROBE_PAR_MIN);
            let ranges: Vec<(usize, usize)> = (0..m)
                .step_by(chunk)
                .map(|r0| (r0, (r0 + chunk).min(m)))
                .collect();
            let parts = pool.par_map_indexed(ranges.len(), 1, |ci| {
                let (r0, r1) = ranges[ci];
                probe.sample_losses(&idx[r0..r1])
            });
            parts.concat()
        }
        None => probe.sample_losses(idx),
    }
}

/// Configuration of the SGM-PINN sampler.
#[derive(Debug, Clone)]
pub struct SgmConfig {
    /// kNN size `k` (paper: 30 for LDC, 7 for AR).
    pub k: usize,
    /// kNN algorithm for S1.
    pub knn_strategy: KnnStrategy,
    /// LRD contraction level `𝕃` (paper: 10 for LDC, 6 for AR).
    pub lrd_level: usize,
    /// Lower bound on cluster count.
    pub min_clusters: usize,
    /// Cluster size cap as a fraction of N.
    pub max_cluster_frac: f64,
    /// Probe ratio `r`: fraction of each cluster scored per refresh
    /// (paper: 15%).
    pub probe_ratio: f64,
    /// Score refresh period `τ_e` (iterations).
    pub tau_e: usize,
    /// Graph rebuild period `τ_G` (iterations; 0 disables rebuilds).
    pub tau_g: usize,
    /// Score → ratio mapping.
    pub mapping: ScoreMapping,
    /// Keep ≥ 1 sample per cluster in every epoch (paper §3.5).
    pub floor_one: bool,
    /// Enable the ISR stability term (S3; `SGM-S` in the paper).
    pub use_isr: bool,
    /// Weight of the normalised ISR term when fused with losses.
    pub isr_weight: f64,
    /// SPADE configuration for the ISR pass.
    pub spade: SpadeConfig,
    /// Cap on the number of probe points entering the ISR solve (its
    /// dense Cholesky factorisation is cubic in this count).
    pub isr_cap: usize,
    /// Leading input columns used as the kNN space (spatial coordinates;
    /// the PGM is built on these, per paper §3.2).
    pub spatial_dims: usize,
    /// Rebuild the PGM on a background thread (vs. inline).
    pub background: bool,
    /// When rebuilding at `τ_G`, append the network's current outputs as
    /// extra kNN features (paper §3.2: "At later stages in training this
    /// model can be re-built in parallel while incorporating additional
    /// features from the output"). Costs one full-dataset forward pass
    /// per rebuild.
    pub augment_outputs: bool,
    /// Seed for graph construction and ER probes.
    pub seed: u64,
}

impl Default for SgmConfig {
    fn default() -> Self {
        SgmConfig {
            k: 8,
            knn_strategy: KnnStrategy::Grid,
            lrd_level: 6,
            min_clusters: 24,
            max_cluster_frac: 0.05,
            probe_ratio: 0.15,
            tau_e: 300,
            tau_g: 1200,
            mapping: ScoreMapping::default(),
            floor_one: true,
            use_isr: false,
            isr_weight: 1.0,
            spade: SpadeConfig::default(),
            isr_cap: 256,
            spatial_dims: 2,
            background: true,
            augment_outputs: false,
            seed: 0x56C1,
        }
    }
}

/// Overhead accounting, reported by the experiment harness. Checkpoints
/// carry every field except the two wall-clock ones
/// (`last_rebuild_seconds`, `refresh_seconds`), which measure the
/// current process only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SgmStats {
    /// Completed score refreshes.
    pub refreshes: usize,
    /// Rebuilds requested (τ_G events).
    pub rebuilds_requested: usize,
    /// Rebuilds whose result was swapped in (`S ← S_new`).
    pub rebuilds_applied: usize,
    /// PGM constructions that ran to completion, counting the initial
    /// build and rebuilds whether background or inline.
    pub rebuilds_completed: usize,
    /// Score refreshes that assembled an epoch from a stale clustering
    /// because a rebuild was still in flight.
    pub rebuilds_stale_served: usize,
    /// Worker-side wall seconds of the most recent completed rebuild
    /// (0.0 until one completes).
    pub last_rebuild_seconds: f64,
    /// Loss-probe forward evaluations consumed.
    pub probe_evals: usize,
    /// Background rebuild workers observed dead (the sampler falls back
    /// to inline rebuilds after the first death).
    pub worker_deaths: usize,
    /// Wall-clock seconds spent inside refresh (scoring + epoch assembly;
    /// excludes background-thread graph time by construction).
    pub refresh_seconds: f64,
}

/// The SGM-PINN sampler (implements [`Sampler`]).
#[derive(Debug)]
pub struct SgmSampler {
    cfg: SgmConfig,
    /// Spatial projection of the interior cloud the PGM is built on.
    cloud: Arc<PointCloud>,
    clustering: Clustering,
    epoch: Vec<usize>,
    cursor: usize,
    builder: Option<BackgroundBuilder>,
    stats: SgmStats,
    rebuild_counter: u64,
}

impl SgmSampler {
    /// Builds the initial PGM and clustering over `interior` and returns a
    /// ready sampler. The first epoch (before any loss probe) is the whole
    /// dataset shuffled — equivalent to uniform sampling, as in the paper's
    /// warm-up while S1/S2 complete. The background rebuild thread is
    /// spawned only when `cfg.background` is set and `tau_g > 0`; with
    /// rebuilds off it would never get work.
    ///
    /// # Panics
    /// Panics if the cloud is empty or `spatial_dims` exceeds its dimension.
    pub fn new(interior: &PointCloud, cfg: SgmConfig) -> Self {
        Self::init(interior, cfg, None, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`SgmSampler::new`] but with a caller-supplied background
    /// builder (e.g. one spawned through
    /// [`BackgroundBuilder::spawn_with_worker`] by a fault-injection
    /// harness). Ignores `cfg.background`.
    ///
    /// # Panics
    /// Panics if the cloud is empty or `spatial_dims` exceeds its dimension.
    pub fn with_builder(interior: &PointCloud, cfg: SgmConfig, builder: BackgroundBuilder) -> Self {
        Self::init(interior, cfg, Some(builder), None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rebuilds a sampler from a [`Sampler::save_state`] value without
    /// the initial PGM build: the clustering is the state's
    /// `assignment`, validated by [`Sampler::load_state`]. From here on
    /// it behaves exactly like [`SgmSampler::new`] followed by
    /// `load_state` (same batches, same `save_state` bytes), for the
    /// cost of a projection instead of a kNN + ER + LRD build.
    ///
    /// # Errors
    /// Returns a message for an empty cloud, a `spatial_dims` outside
    /// the cloud's dimension, or a state `load_state` rejects.
    pub fn restore(interior: &PointCloud, cfg: SgmConfig, state: &Value) -> Result<Self, String> {
        Self::init(interior, cfg, None, Some(state))
    }

    /// The constructor behind [`SgmSampler::new`], [`SgmSampler::with_builder`]
    /// and [`SgmSampler::restore`]: projects the cloud, runs the initial
    /// build unless a `state` replaces its result, loads the state, and
    /// spawns the default builder when none is supplied and τ_G rebuilds
    /// are on.
    fn init(
        interior: &PointCloud,
        cfg: SgmConfig,
        builder: Option<BackgroundBuilder>,
        state: Option<&Value>,
    ) -> Result<Self, String> {
        if interior.is_empty() {
            return Err("empty interior cloud".into());
        }
        if cfg.spatial_dims < 1 || cfg.spatial_dims > interior.dim() {
            return Err("bad spatial_dims".into());
        }
        let spatial = if cfg.spatial_dims < interior.dim() {
            interior.project(cfg.spatial_dims)
        } else {
            interior.clone()
        };
        let n = interior.len();
        let mut rng = Rng64::new(cfg.seed ^ 0xE90C);
        let mut epoch: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut epoch);
        let mut sampler = SgmSampler {
            cfg,
            cloud: Arc::new(spatial),
            // Replaced by the initial build or by `load_state` below.
            clustering: Clustering::from_assignment(Vec::new()),
            epoch,
            cursor: 0,
            builder: None,
            stats: SgmStats::default(),
            rebuild_counter: 0,
        };
        if state.is_none() {
            sampler.initial_build();
        }
        if let Some(state) = state {
            sampler.load_state(state)?;
        }
        sampler.builder = builder.or_else(|| {
            (sampler.cfg.background && sampler.cfg.tau_g > 0).then(BackgroundBuilder::spawn)
        });
        Ok(sampler)
    }

    /// S1–S2 over the current cloud on the calling thread.
    fn initial_build(&mut self) {
        let req = self.rebuild_request(self.cloud.clone(), self.cfg.seed);
        let t_build = Instant::now();
        self.clustering = run_rebuild(&req);
        self.stats = SgmStats {
            rebuilds_completed: 1,
            last_rebuild_seconds: t_build.elapsed().as_secs_f64(),
            ..SgmStats::default()
        };
    }

    fn rebuild_request(&self, cloud: Arc<PointCloud>, seed: u64) -> RebuildRequest {
        RebuildRequest {
            cloud,
            knn: Self::knn_config(&self.cfg, seed),
            lrd: Self::lrd_config(&self.cfg, seed),
        }
    }

    fn knn_config(cfg: &SgmConfig, seed: u64) -> KnnConfig {
        KnnConfig {
            k: cfg.k,
            strategy: cfg.knn_strategy,
            weight_eps: 1e-9,
            seed,
        }
    }

    fn lrd_config(cfg: &SgmConfig, seed: u64) -> LrdConfig {
        LrdConfig {
            level: cfg.lrd_level,
            er: ErSource::Approx(ApproxErOptions {
                seed,
                ..ApproxErOptions::default()
            }),
            budget_scale: 1.0,
            max_cluster_frac: cfg.max_cluster_frac,
            min_clusters: cfg.min_clusters,
        }
    }

    /// Current clustering (for diagnostics and the cluster-explorer
    /// example).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Overhead statistics.
    pub fn stats(&self) -> SgmStats {
        self.stats
    }

    /// Selects `ceil(r · S_i)` probe members (≥ 1) from every cluster.
    /// Returns `(probe_indices, cluster_of_probe)`.
    fn select_probes(&self, rng: &mut Rng64) -> (Vec<usize>, Vec<usize>) {
        let mut probe_idx = Vec::new();
        let mut probe_cluster = Vec::new();
        for (ci, members) in self.clustering.clusters().iter().enumerate() {
            let want = ((members.len() as f64 * self.cfg.probe_ratio).ceil() as usize)
                .clamp(1, members.len());
            for p in rng.sample_indices(members.len(), want) {
                probe_idx.push(members[p] as usize);
                probe_cluster.push(ci);
            }
        }
        (probe_idx, probe_cluster)
    }

    fn cluster_means(&self, values: &[f64], probe_cluster: &[usize]) -> Vec<f64> {
        let nc = self.clustering.num_clusters();
        let mut sum = vec![0.0; nc];
        let mut cnt = vec![0usize; nc];
        for (&v, &c) in values.iter().zip(probe_cluster) {
            sum[c] += v;
            cnt[c] += 1;
        }
        sum.iter()
            .zip(&cnt)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }

    /// ISR pass over a capped subset of the probes: builds input/output
    /// clouds, runs SPADE, and averages node scores per cluster.
    fn isr_cluster_scores(
        &self,
        probe: &Probe<'_>,
        probe_idx: &[usize],
        probe_cluster: &[usize],
        rng: &mut Rng64,
    ) -> Vec<f64> {
        let m = probe_idx.len().min(self.cfg.isr_cap).max(3);
        let chosen: Vec<usize> = if probe_idx.len() <= m {
            (0..probe_idx.len()).collect()
        } else {
            rng.sample_indices(probe_idx.len(), m)
        };
        if chosen.len() < 3 {
            return vec![0.0; self.clustering.num_clusters()];
        }
        let sel_idx: Vec<usize> = chosen.iter().map(|&i| probe_idx[i]).collect();
        let sel_cluster: Vec<usize> = chosen.iter().map(|&i| probe_cluster[i]).collect();
        let inputs = probe.inputs(&sel_idx);
        let outputs = probe.outputs(&sel_idx);
        let in_cloud = matrix_to_cloud(&inputs);
        let out_cloud = matrix_to_cloud(&outputs);
        let result = spade_scores(&in_cloud, &out_cloud, &self.cfg.spade);
        self.cluster_means(&result.node_scores, &sel_cluster)
    }

    fn rebuild_due(&self, iter: usize) -> bool {
        self.cfg.tau_g > 0 && iter > 0 && iter.is_multiple_of(self.cfg.tau_g)
    }

    /// Runs a rebuild on the calling thread and applies it immediately,
    /// keeping the bookkeeping aligned with the background path.
    fn rebuild_inline(&mut self, req: &RebuildRequest) {
        let _span = trace::span(TraceLevel::Stages, "sampler", "rebuild_inline");
        let t0 = Instant::now();
        self.clustering = run_rebuild(req);
        self.stats.last_rebuild_seconds = t0.elapsed().as_secs_f64();
        self.stats.rebuilds_requested += 1;
        self.stats.rebuilds_applied += 1;
        self.stats.rebuilds_completed += 1;
    }

    /// Patches the sampler's spatial cloud to the coordinates in
    /// `points`.
    ///
    /// A move-only change updates rows in place and keeps the current
    /// clustering until the next τ_G rebuild, which builds its graph
    /// over the moved coordinates. A size change invalidates both the
    /// epoch indices and the cluster assignment, so the PGM is rebuilt
    /// inline and the epoch reset to a full-dataset shuffle keyed on the
    /// point-set epoch (deterministic across thread counts).
    fn resync_cloud(&mut self, points: &PointSet) {
        let d_sp = self.cfg.spatial_dims.min(points.dim());
        if points.len() == self.cloud.len() {
            let cloud = Arc::make_mut(&mut self.cloud);
            for i in 0..points.len() {
                cloud.set_point(i, &points.point(i)[..d_sp]);
            }
            return;
        }
        let mut flat = Vec::with_capacity(points.len() * d_sp);
        for i in 0..points.len() {
            flat.extend_from_slice(&points.point(i)[..d_sp]);
        }
        self.cloud = Arc::new(PointCloud::from_flat(d_sp, flat));
        let req = self.rebuild_request(self.cloud.clone(), self.cfg.seed);
        self.rebuild_inline(&req);
        let mut rng = Rng64::new(self.cfg.seed ^ 0xAD47 ^ points.epoch());
        self.epoch = (0..points.len()).collect();
        rng.shuffle(&mut self.epoch);
        self.cursor = 0;
    }

    /// Spatial coordinates concatenated with the network's current
    /// outputs, each output column rescaled to the spatial bounding-box
    /// scale so neither group dominates the kNN metric.
    fn augmented_cloud(&self, probe: &Probe<'_>) -> PointCloud {
        let n = self.cloud.len();
        let all: Vec<usize> = (0..n).collect();
        let outputs = probe.outputs(&all);
        let d_sp = self.cloud.dim();
        let d_out = outputs.cols();
        let (mins, maxs) = self.cloud.bounds();
        let spatial_scale = mins
            .iter()
            .zip(&maxs)
            .map(|(a, b)| b - a)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        // Per-output min/max for normalisation.
        let mut omin = vec![f64::MAX; d_out];
        let mut omax = vec![f64::MIN; d_out];
        for i in 0..n {
            for c in 0..d_out {
                let v = outputs.get(i, c);
                omin[c] = omin[c].min(v);
                omax[c] = omax[c].max(v);
            }
        }
        let mut flat = Vec::with_capacity(n * (d_sp + d_out));
        for i in 0..n {
            flat.extend_from_slice(self.cloud.point(i));
            for c in 0..d_out {
                let span = (omax[c] - omin[c]).max(1e-12);
                flat.push((outputs.get(i, c) - omin[c]) / span * spatial_scale);
            }
        }
        PointCloud::from_flat(d_sp + d_out, flat)
    }
}

fn matrix_to_cloud(m: &Matrix) -> PointCloud {
    PointCloud::from_flat(m.cols().max(1), m.as_slice().to_vec())
}

impl Sampler for SgmSampler {
    fn name(&self) -> &str {
        if self.cfg.use_isr {
            "sgm-s"
        } else {
            "sgm"
        }
    }

    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
        out.clear();
        while out.len() < batch_size {
            if self.cursor >= self.epoch.len() {
                rng.shuffle(&mut self.epoch);
                self.cursor = 0;
            }
            let take = (batch_size - out.len()).min(self.epoch.len() - self.cursor);
            out.extend_from_slice(&self.epoch[self.cursor..self.cursor + take]);
            self.cursor += take;
        }
    }

    fn refresh(&mut self, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        // (lines 14–18) Graph rebuild scheduling.
        if self.rebuild_due(iter) {
            self.rebuild_counter += 1;
            let cloud = if self.cfg.augment_outputs {
                Arc::new(self.augmented_cloud(probe))
            } else {
                self.cloud.clone()
            };
            let req = self.rebuild_request(cloud, self.cfg.seed ^ self.rebuild_counter);
            match &mut self.builder {
                Some(b) => match b.request(req.clone()) {
                    Ok(true) => self.stats.rebuilds_requested += 1,
                    Ok(false) => {}
                    Err(_died) => {
                        // The worker is gone; run this rebuild inline and
                        // retire the builder so future τ_G events rebuild
                        // synchronously instead of waiting forever.
                        self.stats.worker_deaths += 1;
                        self.builder = None;
                        self.rebuild_inline(&req);
                    }
                },
                None => self.rebuild_inline(&req),
            }
        }
        if let Some(b) = &mut self.builder {
            match b.try_take() {
                Ok(Some(fresh)) => {
                    let dt = b.last_rebuild_duration();
                    // A result that raced a point-set size change was
                    // computed on a cloud snapshot of the wrong shape;
                    // applying it would desynchronise clustering and
                    // epoch. Discard it — the resync already rebuilt
                    // inline at the new size.
                    if fresh.num_nodes() == self.cloud.len() {
                        self.clustering = fresh;
                        self.stats.rebuilds_applied += 1;
                    }
                    self.stats.rebuilds_completed += 1;
                    if let Some(dt) = dt {
                        self.stats.last_rebuild_seconds = dt.as_secs_f64();
                    }
                }
                Ok(None) => {}
                Err(_died) => {
                    // Keep sampling from the stale clustering; inline
                    // rebuilds take over at the next τ_G event.
                    self.stats.worker_deaths += 1;
                    self.builder = None;
                }
            }
        }
        // (lines 5–10) Score refresh every τ_e iterations.
        if !iter.is_multiple_of(self.cfg.tau_e) {
            return;
        }
        let _refresh_span = trace::span(TraceLevel::Stages, "sampler", "score_refresh");
        let t0 = Instant::now();
        if self.builder.as_ref().is_some_and(|b| b.is_pending()) {
            // This epoch is assembled from the previous clustering while
            // a rebuild is still computing (Algorithm 1's "previously
            // calculated distribution").
            self.stats.rebuilds_stale_served += 1;
            STALE_EPOCHS_TOTAL.inc();
        }
        let (probe_idx, probe_cluster) = self.select_probes(rng);
        let losses = {
            let _s = trace::span(TraceLevel::Full, "sampler", "probe_losses");
            probe_losses(probe, &probe_idx)
        };
        self.stats.probe_evals += probe_idx.len();
        let cluster_losses = self.cluster_means(&losses, &probe_cluster);
        let cluster_isr = if self.cfg.use_isr {
            let _s = trace::span(TraceLevel::Full, "sampler", "isr_scores");
            self.isr_cluster_scores(probe, &probe_idx, &probe_cluster, rng)
        } else {
            Vec::new()
        };
        let combined = combine_scores(&cluster_losses, &cluster_isr, self.cfg.isr_weight);
        if let (Some(&min), Some(&max)) = (
            combined
                .iter()
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
            combined
                .iter()
                .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
        ) {
            SCORE_MIN.set(min);
            SCORE_MAX.set(max);
            SCORE_MEAN.set(combined.iter().sum::<f64>() / combined.len() as f64);
        }
        let sizes = self.clustering.sizes();
        let plan = map_scores(&combined, &sizes, self.cfg.mapping, self.cfg.floor_one);
        DRAW_ENTROPY.set(normalized_entropy(&plan.counts));
        self.epoch = assemble_epoch(self.clustering.clusters(), &plan.counts, rng);
        if self.epoch.is_empty() {
            // Degenerate mapping (e.g. floor disabled, all-zero scores):
            // fall back to the full dataset.
            self.epoch = (0..probe.num_interior()).collect();
            rng.shuffle(&mut self.epoch);
        }
        self.cursor = 0;
        self.stats.refreshes += 1;
        REFRESHES_TOTAL.inc();
        self.stats.refresh_seconds += t0.elapsed().as_secs_f64();
    }

    /// Routes collocation-set mutations from an adaptive layer into the
    /// graph side: moved rows are written into the spatial cloud, where
    /// the next τ_G rebuild picks them up; size changes trigger an
    /// inline rebuild and a deterministic epoch reset.
    fn on_points_changed(&mut self, points: &PointSet, changes: &PointChanges) {
        let _ = changes;
        self.resync_cloud(points);
    }

    /// Resume-time resynchronisation: restores the spatial cloud to the
    /// checkpointed coordinates. With an unchanged point count this
    /// touches nothing but the cloud rows (the restored clustering,
    /// epoch and stats already reflect those coordinates); a size
    /// mismatch falls back to the inline-rebuild path.
    fn sync_points(&mut self, points: &PointSet) {
        if points.len() == self.cloud.len() {
            let d_sp = self.cfg.spatial_dims.min(points.dim());
            let cloud = Arc::make_mut(&mut self.cloud);
            for i in 0..points.len() {
                cloud.set_point(i, &points.point(i)[..d_sp]);
            }
        } else {
            self.resync_cloud(points);
        }
    }

    /// Serialises the clustering assignment, current epoch and overhead
    /// counters. The wall-clock stats are left out, so identical runs
    /// write identical bytes. A rebuild in flight on the background
    /// thread is *not* captured — after a restore the next `τ_G` event
    /// requests it again.
    fn save_state(&self) -> Value {
        let num = |v: f64| Value::Num(v);
        let arr_usize = |it: &[usize]| Value::Arr(it.iter().map(|&i| num(i as f64)).collect());
        let mut obj = BTreeMap::new();
        obj.insert(
            "assignment".to_string(),
            Value::Arr(
                self.clustering
                    .assignment()
                    .iter()
                    .map(|&c| num(c as f64))
                    .collect(),
            ),
        );
        obj.insert("epoch".to_string(), arr_usize(&self.epoch));
        obj.insert("cursor".to_string(), num(self.cursor as f64));
        obj.insert(
            "rebuild_counter".to_string(),
            num(self.rebuild_counter as f64),
        );
        obj.insert("refreshes".to_string(), num(self.stats.refreshes as f64));
        obj.insert(
            "rebuilds_requested".to_string(),
            num(self.stats.rebuilds_requested as f64),
        );
        obj.insert(
            "rebuilds_applied".to_string(),
            num(self.stats.rebuilds_applied as f64),
        );
        obj.insert(
            "rebuilds_completed".to_string(),
            num(self.stats.rebuilds_completed as f64),
        );
        obj.insert(
            "rebuilds_stale_served".to_string(),
            num(self.stats.rebuilds_stale_served as f64),
        );
        obj.insert(
            "probe_evals".to_string(),
            num(self.stats.probe_evals as f64),
        );
        obj.insert(
            "worker_deaths".to_string(),
            num(self.stats.worker_deaths as f64),
        );
        Value::Obj(obj)
    }

    fn load_state(&mut self, state: &Value) -> Result<(), String> {
        let get_usize = |key: &str| -> Result<usize, String> {
            state
                .get(key)
                .and_then(Value::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("sgm state: missing {key}"))
        };
        // Counters absent from older checkpoints default to 0.
        let opt_usize = |key: &str| state.get(key).and_then(Value::as_u64).unwrap_or(0) as usize;
        let get_arr = |key: &str| -> Result<Vec<usize>, String> {
            state
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("sgm state: missing {key}"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|i| i as usize)
                        .ok_or_else(|| format!("sgm state: non-integer in {key}"))
                })
                .collect()
        };
        let n = self.cloud.len();
        let assignment = get_arr("assignment")?;
        if assignment.len() != n {
            return Err(format!(
                "sgm state: {} assignment labels for {n} points",
                assignment.len()
            ));
        }
        // `Clustering::from_assignment` wants labels 0..k, each used.
        let k = assignment.iter().max().map_or(0, |&m| m.saturating_add(1));
        let mut used = vec![false; k.min(n)];
        for &c in &assignment {
            match used.get_mut(c) {
                Some(u) => *u = true,
                None => return Err(format!("sgm state: cluster label {c} for {n} points")),
            }
        }
        if used.contains(&false) {
            return Err("sgm state: cluster labels are not contiguous".to_string());
        }
        let epoch = get_arr("epoch")?;
        if epoch.is_empty() {
            return Err("sgm state: empty epoch".to_string());
        }
        if epoch.iter().any(|&i| i >= n) {
            return Err("sgm state: epoch index out of range".to_string());
        }
        let cursor = get_usize("cursor")?;
        if cursor > epoch.len() {
            return Err("sgm state: cursor past epoch end".to_string());
        }
        let rebuild_counter = get_usize("rebuild_counter")? as u64;
        let refreshes = get_usize("refreshes")?;
        let rebuilds_requested = get_usize("rebuilds_requested")?;
        let rebuilds_applied = get_usize("rebuilds_applied")?;
        let probe_evals = get_usize("probe_evals")?;
        self.clustering =
            Clustering::from_assignment(assignment.iter().map(|&c| c as u32).collect());
        self.epoch = epoch;
        self.cursor = cursor;
        self.rebuild_counter = rebuild_counter;
        // The wall-clock stats are this process's measurements: neither
        // saved nor restored (older checkpoints carrying them are read
        // without them).
        self.stats = SgmStats {
            refreshes,
            rebuilds_requested,
            rebuilds_applied,
            probe_evals,
            worker_deaths: opt_usize("worker_deaths"),
            rebuilds_completed: opt_usize("rebuilds_completed"),
            rebuilds_stale_served: opt_usize("rebuilds_stale_served"),
            ..self.stats
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_nn::activation::Activation;
    use sgm_nn::mlp::{Mlp, MlpConfig};
    use sgm_physics::geometry::{Cavity, FillStrategy};
    use sgm_physics::pde::{Pde, PoissonConfig};
    use sgm_physics::problem::{Problem, TrainSet};
    use sgm_physics::PinnModel;

    fn next_batch(s: &mut dyn Sampler, batch: usize, rng: &mut Rng64) -> Vec<usize> {
        let mut out = Vec::new();
        s.fill_batch(batch, &mut out, rng);
        out
    }

    /// Forcing that is enormous on the left half of the cavity — an
    /// untrained (≈ 0) network therefore has its loss concentrated there.
    fn lopsided_problem() -> Problem {
        Problem::new(Pde::Poisson(PoissonConfig {
            forcing: |p: &[f64]| if p[0] < 0.5 { 100.0 } else { 0.01 },
        }))
    }

    fn setup(n: usize, seed: u64) -> (Mlp, Problem, TrainSet) {
        let cav = Cavity::default();
        let mut rng = Rng64::new(seed);
        let interior = cav.sample_interior(n, FillStrategy::Halton, &mut rng);
        let data = TrainSet {
            interior,
            boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
            boundary_targets: Matrix::zeros(1, 1),
        };
        let cfg = MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 8,
            hidden_layers: 1,
            activation: Activation::Tanh,
            fourier: None,
        };
        let mut nrng = Rng64::new(seed + 1);
        (Mlp::new(&cfg, &mut nrng), lopsided_problem(), data)
    }

    fn small_cfg() -> SgmConfig {
        SgmConfig {
            k: 6,
            min_clusters: 8,
            max_cluster_frac: 0.2,
            tau_e: 10,
            tau_g: 0,
            background: false,
            ..SgmConfig::default()
        }
    }

    #[test]
    fn initial_epoch_covers_everything() {
        let (_net, _prob, data) = setup(100, 1);
        let mut s = SgmSampler::new(&data.interior, small_cfg());
        let mut rng = Rng64::new(2);
        let batch = next_batch(&mut s, 100, &mut rng);
        let uniq: std::collections::HashSet<_> = batch.iter().collect();
        assert_eq!(uniq.len(), 100, "first epoch is the shuffled dataset");
    }

    #[test]
    fn refresh_biases_towards_high_loss_region() {
        let (net, prob, data) = setup(400, 3);
        let mut s = SgmSampler::new(&data.interior, small_cfg());
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(4);
        s.refresh(0, &probe, &mut rng);
        assert_eq!(s.stats().refreshes, 1);
        // Draw a large batch and count how many samples fall on the
        // high-loss (left) half.
        let batch = next_batch(&mut s, 2000, &mut rng);
        let left = batch
            .iter()
            .filter(|&&i| data.interior.point(i)[0] < 0.5)
            .count();
        let frac = left as f64 / batch.len() as f64;
        assert!(frac > 0.6, "left-half fraction only {frac}");
    }

    #[test]
    fn floor_one_keeps_every_cluster_alive() {
        let (net, prob, data) = setup(300, 5);
        let mut cfg = small_cfg();
        cfg.floor_one = true;
        let mut s = SgmSampler::new(&data.interior, cfg);
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(6);
        s.refresh(0, &probe, &mut rng);
        // Each cluster must contribute ≥ 1 index to the epoch.
        let epoch: std::collections::HashSet<usize> = s.epoch.iter().copied().collect();
        for members in s.clustering.clusters() {
            assert!(
                members.iter().any(|&m| epoch.contains(&(m as usize))),
                "cluster starved"
            );
        }
    }

    #[test]
    fn tau_e_schedule_respected() {
        let (net, prob, data) = setup(200, 7);
        let mut s = SgmSampler::new(&data.interior, small_cfg()); // tau_e = 10
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(8);
        for iter in 0..25 {
            s.refresh(iter, &probe, &mut rng);
        }
        assert_eq!(s.stats().refreshes, 3, "refreshes at iters 0, 10, 20");
        assert!(s.stats().probe_evals > 0);
    }

    #[test]
    fn synchronous_rebuild_applies() {
        let (net, prob, data) = setup(200, 9);
        let mut cfg = small_cfg();
        cfg.tau_g = 5;
        cfg.background = false;
        let mut s = SgmSampler::new(&data.interior, cfg);
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(10);
        for iter in 0..11 {
            s.refresh(iter, &probe, &mut rng);
        }
        assert_eq!(s.stats().rebuilds_requested, 2);
        assert_eq!(s.stats().rebuilds_applied, 2);
    }

    #[test]
    fn background_rebuild_eventually_applies() {
        let (net, prob, data) = setup(300, 11);
        let mut cfg = small_cfg();
        cfg.tau_g = 2;
        cfg.background = true;
        let mut s = SgmSampler::new(&data.interior, cfg);
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(12);
        let mut applied = 0;
        for iter in 0..200 {
            s.refresh(iter, &probe, &mut rng);
            applied = s.stats().rebuilds_applied;
            if applied > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(applied > 0, "background rebuild never applied");
    }

    #[test]
    fn isr_variant_runs_and_scores() {
        let (net, prob, data) = setup(200, 13);
        let mut cfg = small_cfg();
        cfg.use_isr = true;
        cfg.isr_cap = 64;
        let mut s = SgmSampler::new(&data.interior, cfg);
        assert_eq!(s.name(), "sgm-s");
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(14);
        s.refresh(0, &probe, &mut rng);
        assert_eq!(s.stats().refreshes, 1);
        assert!(!s.epoch.is_empty());
    }

    #[test]
    fn batches_always_full_and_in_range() {
        let (net, prob, data) = setup(150, 15);
        let mut s = SgmSampler::new(&data.interior, small_cfg());
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(16);
        s.refresh(0, &probe, &mut rng);
        for _ in 0..20 {
            let b = next_batch(&mut s, 64, &mut rng);
            assert_eq!(b.len(), 64);
            assert!(b.iter().all(|&i| i < 150));
        }
    }

    /// The stats a checkpoint carries: all but the wall-clock fields.
    fn replayed(s: SgmStats) -> SgmStats {
        SgmStats {
            last_rebuild_seconds: 0.0,
            refresh_seconds: 0.0,
            ..s
        }
    }

    fn state_text(s: &SgmSampler) -> String {
        s.save_state().to_string_compact()
    }

    #[test]
    fn state_roundtrip_preserves_epoch_and_stats() {
        let (net, prob, data) = setup(250, 21);
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let rebuilding = SgmConfig {
            tau_g: 4,
            ..small_cfg()
        };
        for cfg in [small_cfg(), rebuilding] {
            let mut a = SgmSampler::new(&data.interior, cfg.clone());
            let mut rng = Rng64::new(22);
            // A refresh at 0, an inline rebuild at 4 when τ_G > 0, and
            // a cursor left mid-epoch.
            for iter in 0..7 {
                a.refresh(iter, &probe, &mut rng);
                next_batch(&mut a, 64, &mut rng);
            }
            let saved = Value::parse(&state_text(&a)).unwrap();
            // Two restore routes: a fresh build overwritten by
            // `load_state`, and `restore`, which skips the build.
            let mut b = SgmSampler::new(&data.interior, cfg.clone());
            b.load_state(&saved).unwrap();
            let mut c = SgmSampler::restore(&data.interior, cfg.clone(), &saved).unwrap();
            for s in [&b, &c] {
                assert_eq!(s.clustering.assignment(), a.clustering.assignment());
                assert_eq!(s.epoch, a.epoch);
                assert_eq!(s.cursor, a.cursor);
                assert_eq!(replayed(s.stats()), replayed(a.stats()));
            }
            // Further refreshes (τ_e = 10), batches and inline rebuilds
            // replay bit for bit along both routes.
            let mut rngs = [rng.clone(), rng.clone(), rng];
            for iter in 7..25 {
                let batches: Vec<Vec<usize>> = [&mut a, &mut b, &mut c]
                    .into_iter()
                    .zip(&mut rngs)
                    .map(|(s, r)| {
                        s.refresh(iter, &probe, r);
                        next_batch(s, 64, r)
                    })
                    .collect();
                assert_eq!(batches[1], batches[0], "{cfg:?} at {iter}");
                assert_eq!(batches[2], batches[0], "{cfg:?} at {iter}");
            }
            assert_eq!(state_text(&b), state_text(&a), "{cfg:?}");
            assert_eq!(state_text(&c), state_text(&a), "{cfg:?}");
        }
    }

    #[test]
    fn restore_accepts_checkpoints_with_retired_delta_stats() {
        let (net, prob, data) = setup(250, 28);
        let model = PinnModel::new(&prob, &data);
        let probe = Probe::new(&net, &model);
        let cfg = SgmConfig {
            tau_g: 4,
            ..small_cfg()
        };
        let mut a = SgmSampler::new(&data.interior, cfg.clone());
        let mut rng = Rng64::new(29);
        for iter in 0..7 {
            a.refresh(iter, &probe, &mut rng);
            next_batch(&mut a, 64, &mut rng);
        }
        let saved = a.save_state();
        // Checkpoints written while the delta-refresh engine existed
        // carry three more counters; they are read and ignored.
        let mut old = saved.clone();
        let Value::Obj(map) = &mut old else {
            panic!("sgm state is an object");
        };
        for (key, v) in [
            ("points_rescored", 250.0),
            ("edges_patched", 17.0),
            ("last_dirty_fraction", 0.25),
        ] {
            assert!(map.insert(key.to_string(), Value::Num(v)).is_none());
        }
        let reference = SgmSampler::restore(&data.interior, cfg.clone(), &saved).unwrap();
        let restored = SgmSampler::restore(&data.interior, cfg.clone(), &old).unwrap();
        let mut loaded = SgmSampler::new(&data.interior, cfg);
        loaded.load_state(&old).unwrap();
        let mut samplers = [reference, restored, loaded];
        for s in &samplers[1..] {
            assert_eq!(state_text(s), saved.to_string_compact());
        }
        let mut rngs = [rng.clone(), rng.clone(), rng];
        for iter in 7..25 {
            let batches: Vec<Vec<usize>> = samplers
                .iter_mut()
                .zip(&mut rngs)
                .map(|(s, r)| {
                    s.refresh(iter, &probe, r);
                    next_batch(s, 64, r)
                })
                .collect();
            assert_eq!(batches[1], batches[0], "restore at {iter}");
            assert_eq!(batches[2], batches[0], "load_state at {iter}");
        }
        assert_eq!(state_text(&samplers[1]), state_text(&samplers[0]));
        assert_eq!(state_text(&samplers[2]), state_text(&samplers[0]));
    }

    #[test]
    fn restore_rejects_bad_state_without_panicking() {
        let (_net, _prob, data) = setup(100, 26);
        let saved = SgmSampler::new(&data.interior, small_cfg()).save_state();
        let edited = |key: &str, edit: &dyn Fn(&mut Vec<Value>)| {
            let mut state = saved.clone();
            if let Value::Obj(map) = &mut state {
                if let Some(Value::Arr(arr)) = map.get_mut(key) {
                    edit(arr);
                }
            }
            state
        };
        for (what, state) in [
            (
                "short assignment",
                edited("assignment", &|a| {
                    a.pop();
                }),
            ),
            (
                "label past the point count",
                edited("assignment", &|a| a[0] = Value::Num(1e12)),
            ),
            (
                "label gap",
                edited("assignment", &|a| a[0] = Value::Num(99.0)),
            ),
            (
                "epoch index out of range",
                edited("epoch", &|a| a[0] = Value::Num(100.0)),
            ),
            ("empty epoch", edited("epoch", &|a| a.clear())),
            ("not an object", Value::Num(1.0)),
        ] {
            assert!(
                SgmSampler::restore(&data.interior, small_cfg(), &state).is_err(),
                "{what}"
            );
        }
        assert!(SgmSampler::restore(&data.interior, small_cfg(), &saved).is_ok());
    }

    #[test]
    fn rebuild_thread_spawns_only_when_rebuilds_are_on() {
        let (_net, _prob, data) = setup(100, 27);
        let background = SgmConfig {
            background: true,
            ..small_cfg()
        };
        let idle = SgmSampler::new(&data.interior, background.clone());
        assert!(idle.builder.is_none(), "tau_g = 0 never requests a rebuild");
        let restored =
            SgmSampler::restore(&data.interior, background.clone(), &idle.save_state()).unwrap();
        assert!(restored.builder.is_none());
        let rebuilding = SgmConfig {
            tau_g: 5,
            ..background
        };
        assert!(SgmSampler::new(&data.interior, rebuilding.clone())
            .builder
            .is_some());
        assert!(
            SgmSampler::restore(&data.interior, rebuilding, &idle.save_state())
                .unwrap()
                .builder
                .is_some()
        );
    }

    #[test]
    fn state_rejects_mismatched_cloud() {
        let (_net, _prob, data) = setup(100, 24);
        let a = SgmSampler::new(&data.interior, small_cfg());
        let saved = a.save_state();
        let (_n2, _p2, data2) = setup(120, 25);
        let mut b = SgmSampler::new(&data2.interior, small_cfg());
        assert!(b.load_state(&saved).is_err());
        assert!(SgmSampler::restore(&data2.interior, small_cfg(), &saved).is_err());
    }

    #[test]
    fn parameterised_cloud_uses_spatial_projection() {
        // 3-column cloud (x, y, r_i): the PGM must be built on (x, y) only.
        let mut rng = Rng64::new(17);
        let mut flat = Vec::new();
        for _ in 0..120 {
            flat.push(rng.uniform());
            flat.push(rng.uniform());
            flat.push(rng.uniform_in(0.75, 1.1));
        }
        let cloud = PointCloud::from_flat(3, flat);
        let cfg = SgmConfig {
            spatial_dims: 2,
            background: false,
            min_clusters: 6,
            ..small_cfg()
        };
        let s = SgmSampler::new(&cloud, cfg);
        assert_eq!(s.clustering().num_nodes(), 120);
    }
}
