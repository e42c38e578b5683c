//! Regression guard wiring `sgm-testkit`'s fault injection into the
//! crate that owns `BackgroundBuilder`: a scripted worker crash must
//! surface as `WorkerDied` with the panic message, never a hang — and a
//! crash mid-rebuild must leave the sampler serving the last consistent
//! clustering (only complete clusterings cross the channel).

use sgm_core::background::RebuildRequest;
use sgm_core::{SgmConfig, SgmSampler};
use sgm_graph::knn::{KnnConfig, KnnStrategy};
use sgm_graph::lrd::LrdConfig;
use sgm_graph::points::PointCloud;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_physics::geometry::{Cavity, FillStrategy};
use sgm_physics::pde::{Pde, PoissonConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::PinnModel;
use sgm_testkit::fault::{FaultAction, FaultPlan};
use sgm_train::{PointChanges, PointSet, Probe, Sampler};
use std::sync::Arc;
use std::time::Duration;

/// Draw one batch through the no-allocation `fill_batch` entry point.
fn next_batch(s: &mut dyn Sampler, batch: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut out = Vec::new();
    s.fill_batch(batch, &mut out, rng);
    out
}

#[test]
fn scripted_crash_is_surfaced_with_its_message() {
    let mut rng = Rng64::new(0x1CE);
    let req = RebuildRequest {
        cloud: Arc::new(PointCloud::uniform_box(100, 2, 0.0, 1.0, &mut rng)),
        knn: KnnConfig {
            k: 5,
            strategy: KnnStrategy::Grid,
            ..KnnConfig::default()
        },
        lrd: LrdConfig::default(),
    };
    let mut b = FaultPlan::new([
        FaultAction::Compute,
        FaultAction::Panic("wedged in rebuild".into()),
    ])
    .spawn();

    // First request computes normally...
    assert!(b.request(req.clone()).unwrap());
    let out = b.take_blocking().expect("healthy rebuild");
    assert_eq!(out.num_nodes(), 100);

    // ...the second crashes, and the crash is reported, not swallowed.
    assert!(b.request(req).unwrap());
    let err = b.take_blocking().unwrap_err();
    assert_eq!(err.panic.as_deref(), Some("wedged in rebuild"));
    assert!(b.is_dead());
}

fn poisson_setup(n: usize, seed: u64) -> (Mlp, Problem, TrainSet) {
    let cav = Cavity::default();
    let mut rng = Rng64::new(seed);
    let interior = cav.sample_interior(n, FillStrategy::Halton, &mut rng);
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
        boundary_targets: sgm_linalg::dense::Matrix::zeros(1, 1),
    };
    let prob = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| if p[0] < 0.5 { 100.0 } else { 0.01 },
    }));
    let mlp = MlpConfig {
        input_dim: 2,
        output_dim: 1,
        hidden_width: 8,
        hidden_layers: 1,
        activation: Activation::Tanh,
        fourier: None,
    };
    let mut nrng = Rng64::new(seed + 1);
    (Mlp::new(&mlp, &mut nrng), prob, data)
}

/// A crash mid-rebuild through the scripted worker: the first τ_G
/// request computes normally; the second crashes. The sampler must keep
/// serving the last applied clustering unchanged, report exactly one
/// death, and fall back to inline rebuilds for later τ_G events.
#[test]
fn crash_mid_rebuild_keeps_serving_last_consistent_graph() {
    let (net, prob, data) = poisson_setup(400, 0xA1);
    let model = PinnModel::new(&prob, &data);
    let probe = Probe::new(&net, &model);
    let mut rng = Rng64::new(0xA2);

    let cfg = SgmConfig {
        k: 6,
        min_clusters: 8,
        max_cluster_frac: 0.2,
        tau_e: 1,
        tau_g: 2,
        ..SgmConfig::default()
    };
    let plan = FaultPlan::new([
        FaultAction::Compute,
        FaultAction::Panic("crash mid rebuild".into()),
    ]);
    let mut s = SgmSampler::with_builder(&data.interior, cfg, plan.spawn());
    s.refresh(0, &probe, &mut rng);

    // Drive until the first (healthy) worker rebuild lands.
    let mut iter = 2;
    while s.stats().rebuilds_applied == 0 {
        assert!(iter < 2000, "first worker rebuild never applied");
        s.refresh(iter, &probe, &mut rng);
        iter += 2;
        std::thread::sleep(Duration::from_millis(2));
    }
    let consistent = s.clustering().assignment().to_vec();

    // Drive until the scripted crash surfaces. Every clustering served
    // in between must be exactly the last consistent one — a dead
    // worker can never publish a torn graph.
    while s.stats().worker_deaths == 0 {
        assert!(iter < 4000, "worker death never surfaced");
        s.refresh(iter, &probe, &mut rng);
        assert_eq!(
            s.clustering().assignment(),
            &consistent[..],
            "clustering changed while the worker was crashing"
        );
        let batch = next_batch(&mut s, 64, &mut rng);
        assert_eq!(batch.len(), 64);
        assert!(batch.iter().all(|&i| i < data.interior.len()));
        iter += 2;
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(s.stats().worker_deaths, 1);
    assert_eq!(s.clustering().assignment(), &consistent[..]);

    // After retirement, τ_G events rebuild inline on the sampler's own
    // thread: the served clustering keeps its shape and rebuild
    // bookkeeping advances.
    let applied = s.stats().rebuilds_applied;
    s.refresh(iter, &probe, &mut rng);
    assert!(
        s.stats().rebuilds_applied > applied,
        "no inline rebuild after worker death"
    );
    assert_eq!(s.clustering().num_nodes(), data.interior.len());
    let batch = next_batch(&mut s, 64, &mut rng);
    assert_eq!(batch.len(), 64);
}

/// Test-local adaptive wrapper: moves (and optionally grows) the point
/// set on a fixed cadence while delegating draws and graph-layer
/// notifications to the wrapped [`SgmSampler`]. Stands in for an
/// adaptive sampler stacked on the SGM graph machinery, so the race
/// below exercises the production `on_points_changed` path.
struct JitterAdapter {
    inner: SgmSampler,
    tau: usize,
    grow_at: Option<usize>,
}

impl Sampler for JitterAdapter {
    fn name(&self) -> &str {
        "sgm_jitter"
    }

    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
        self.inner.fill_batch(batch_size, out, rng);
    }

    fn refresh(&mut self, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        self.inner.refresh(iter, probe, rng);
    }

    fn adapts_points(&self) -> bool {
        true
    }

    fn adapt(&mut self, points: &mut PointSet, iter: usize, _probe: &Probe<'_>, rng: &mut Rng64) {
        if iter == 0 || !iter.is_multiple_of(self.tau) {
            return;
        }
        if self.grow_at == Some(iter) {
            for _ in 0..5 {
                let p = [rng.uniform(), rng.uniform()];
                points.push(&p);
            }
        }
        for _ in 0..8 {
            let i = rng.below(points.len());
            let mut p = points.point(i).to_vec();
            for c in &mut p {
                *c = 0.5 + (*c - 0.5) * 0.95;
            }
            points.set_point(i, &p);
        }
    }

    fn on_points_changed(&mut self, points: &PointSet, changes: &PointChanges) {
        self.inner.on_points_changed(points, changes);
    }

    fn sync_points(&mut self, points: &PointSet) {
        self.inner.sync_points(points);
    }
}

/// The adapt stage racing a background rebuild: a gated worker holds a
/// τ_G rebuild in flight while adapt keeps moving points — and then the
/// set *grows*, so the held result was computed on a snapshot of the
/// wrong shape. The sampler must keep serving valid batches throughout,
/// rebuild inline at the new size, and *discard* the stale-shaped
/// result when it finally lands instead of desynchronising its
/// clustering from the grown point set.
#[test]
fn adapt_racing_background_rebuild_discards_stale_shape() {
    let (net, prob, data) = poisson_setup(300, 0xB1);
    let model = PinnModel::new(&prob, &data);
    let mut rng = Rng64::new(0xB2);
    let cfg = SgmConfig {
        k: 6,
        min_clusters: 8,
        max_cluster_frac: 0.2,
        tau_e: 1,
        tau_g: 2,
        ..SgmConfig::default()
    };
    let (gate, held) = FaultAction::gated();
    let plan = FaultPlan::new([held]);
    let grow_at = 6;
    let mut s = JitterAdapter {
        inner: SgmSampler::with_builder(&data.interior, cfg, plan.spawn()),
        tau: 2,
        grow_at: Some(grow_at),
    };
    let mut points = PointSet::new(data.interior.clone());
    let mut changes = PointChanges::default();

    // One engine stage sequence: refresh → adapt → drain/notify → draw.
    let step = |s: &mut JitterAdapter,
                points: &mut PointSet,
                changes: &mut PointChanges,
                iter: usize,
                rng: &mut Rng64| {
        {
            let probe = Probe::with_points(&net, &model, Some(points));
            s.refresh(iter, &probe, rng);
        }
        {
            let probe = Probe::new(&net, &model);
            s.adapt(points, iter, &probe, rng);
        }
        if points.drain_changes(changes) {
            s.on_points_changed(points, changes);
        }
        let batch = next_batch(s, 64, rng);
        assert_eq!(batch.len(), 64);
        assert!(
            batch.iter().all(|&i| i < points.len()),
            "iteration {iter}: batch index out of range for {} points",
            points.len()
        );
    };

    // Iterations 0..6: the τ_G request at iteration 2 is held by the
    // gate; adapt keeps moving points under it. Served clusterings must
    // keep matching the (unchanged) point count.
    for iter in 0..grow_at {
        step(&mut s, &mut points, &mut changes, iter, &mut rng);
        assert_eq!(s.inner.clustering().num_nodes(), points.len());
    }
    assert!(
        s.inner.stats().rebuilds_requested > 0,
        "gated worker never received the τ_G request"
    );
    let applied_pre = s.inner.stats().rebuilds_applied;

    // Iteration 6 grows the set by 5 points: the resync rebuilds inline
    // at the new size while the worker still holds the old-shape result.
    step(&mut s, &mut points, &mut changes, grow_at, &mut rng);
    assert_eq!(points.len(), 305);
    assert_eq!(s.inner.clustering().num_nodes(), 305);
    let applied_grow = s.inner.stats().rebuilds_applied;
    assert!(
        applied_grow > applied_pre,
        "size change must trigger an inline rebuild"
    );
    let completed_grow = s.inner.stats().rebuilds_completed;

    // Release the gate: the stale 300-node result lands and must be
    // discarded — completed but never applied.
    gate.release();
    let mut iter = grow_at + 1;
    while s.inner.stats().rebuilds_completed == completed_grow {
        assert!(iter < 2000, "held rebuild never completed");
        step(&mut s, &mut points, &mut changes, iter, &mut rng);
        assert_eq!(
            s.inner.clustering().num_nodes(),
            points.len(),
            "stale-shaped rebuild was applied over the grown point set"
        );
        iter += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        s.inner.stats().rebuilds_applied,
        applied_grow,
        "stale-shaped result must be discarded, not applied"
    );

    // The pipeline recovers: the next τ_G request is computed on the
    // grown cloud and applies cleanly.
    while s.inner.stats().rebuilds_applied == applied_grow {
        assert!(iter < 4000, "post-race rebuild never applied");
        step(&mut s, &mut points, &mut changes, iter, &mut rng);
        iter += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(s.inner.clustering().num_nodes(), points.len());
}
