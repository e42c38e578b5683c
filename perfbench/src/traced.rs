//! The traced run's instruments: wrappers that time calls into each
//! layer's public functions from outside the program, and replays that
//! re-run one layer's public entry point on the workload's own inputs.
//!
//! Nothing here changes what the program computes: the wrappers
//! forward every call unchanged, so a traced run's record history must
//! hash the same as an untraced one (`run.py` checks it).

use sgm_core::background::{BackgroundBuilder, RebuildWorker};
use sgm_core::{SgmSampler, SgmStats};
use sgm_graph::knn::{build_knn_graph, KnnConfig};
use sgm_graph::lrd::{decompose, ErSource, LrdConfig};
use sgm_graph::points::PointCloud;
use sgm_graph::resistance::approx_edge_resistances;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::mlp::{BatchDerivatives, Gradients, Mlp};
use sgm_nn::optimizer::{Adam, AdamConfig};
use sgm_train::{LossModel, ModelWorkspace, Probe, Sampler, Validator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Nanosecond/count accumulator shared across threads. The counters
/// publish no other data, so relaxed ordering is enough.
#[derive(Debug, Default)]
pub struct Tally {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

impl Tally {
    fn add(&self, dt: Duration, items: usize) {
        self.ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
    }

    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }
}

fn timed<R>(tally: &Tally, items: usize, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    tally.add(t0.elapsed(), items);
    r
}

/// A [`LossModel`] that forwards to `inner` and times the probe-path
/// calls samplers make inside the refresh stage.
pub struct TimedModel<'a> {
    pub inner: &'a (dyn LossModel + 'a),
    pub sample_losses: Tally,
    /// `outputs` + `inputs`: the rows the ISR pass pulls from the model.
    pub rows: Tally,
}

impl<'a> TimedModel<'a> {
    pub fn new(inner: &'a (dyn LossModel + 'a)) -> Self {
        TimedModel {
            inner,
            sample_losses: Tally::default(),
            rows: Tally::default(),
        }
    }

    /// Seconds spent in the model on behalf of samplers.
    pub fn probe_seconds(&self) -> f64 {
        self.sample_losses.seconds() + self.rows.seconds()
    }
}

impl LossModel for TimedModel<'_> {
    fn num_interior(&self) -> usize {
        self.inner.num_interior()
    }
    fn num_boundary(&self) -> usize {
        self.inner.num_boundary()
    }
    fn make_workspace(&self, net: &Mlp, bi: usize, bb: usize) -> Box<dyn ModelWorkspace> {
        self.inner.make_workspace(net, bi, bb)
    }
    fn gather(&self, idx: &[usize], bidx: &[usize], ws: &mut dyn ModelWorkspace) {
        self.inner.gather(idx, bidx, ws)
    }
    fn loss_and_grad(&self, net: &Mlp, ws: &mut dyn ModelWorkspace, grads: &mut Gradients) -> f64 {
        self.inner.loss_and_grad(net, ws, grads)
    }
    fn batch_loss(&self, net: &Mlp, idx: &[usize], bidx: &[usize]) -> f64 {
        self.inner.batch_loss(net, idx, bidx)
    }
    fn sample_losses(&self, net: &Mlp, idx: &[usize]) -> Vec<f64> {
        timed(&self.sample_losses, idx.len(), || {
            self.inner.sample_losses(net, idx)
        })
    }
    fn outputs(&self, net: &Mlp, idx: &[usize]) -> Matrix {
        timed(&self.rows, idx.len(), || self.inner.outputs(net, idx))
    }
    fn inputs(&self, idx: &[usize]) -> Matrix {
        timed(&self.rows, idx.len(), || self.inner.inputs(idx))
    }
}

/// A [`Validator`] that times `val_errors`.
pub struct TimedValidator<'a> {
    pub inner: &'a dyn Validator,
    pub tally: Tally,
}

impl Validator for TimedValidator<'_> {
    fn val_errors(&self, net: &Mlp) -> Vec<f64> {
        timed(&self.tally, 1, || self.inner.val_errors(net))
    }
}

/// The samplers the training workloads use.
pub enum TrainSampler {
    Sgm(Box<SgmSampler>),
    Uniform(sgm_core::UniformSampler),
}

impl TrainSampler {
    pub fn as_dyn(&mut self) -> &mut dyn Sampler {
        match self {
            TrainSampler::Sgm(s) => s.as_mut(),
            TrainSampler::Uniform(s) => s,
        }
    }

    pub fn sgm_stats(&self) -> Option<SgmStats> {
        match self {
            TrainSampler::Sgm(s) => Some(s.stats()),
            TrainSampler::Uniform(_) => None,
        }
    }
}

/// A [`Sampler`] that forwards to the workload's sampler and counts
/// score refreshes (refresh calls that probed the model) and the
/// request-to-apply lag of every graph rebuild.
pub struct TracedSampler<'s, 'm> {
    pub inner: &'s mut TrainSampler,
    pub model: &'s TimedModel<'m>,
    pub score_refreshes: u64,
    pending_since: Option<usize>,
    pub max_rebuild_lag: usize,
}

impl<'s, 'm> TracedSampler<'s, 'm> {
    pub fn new(inner: &'s mut TrainSampler, model: &'s TimedModel<'m>) -> Self {
        TracedSampler {
            inner,
            model,
            score_refreshes: 0,
            pending_since: None,
            max_rebuild_lag: 0,
        }
    }
}

impl Sampler for TracedSampler<'_, '_> {
    fn name(&self) -> &str {
        match &*self.inner {
            TrainSampler::Sgm(s) => s.name(),
            TrainSampler::Uniform(s) => s.name(),
        }
    }
    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
        self.inner.as_dyn().fill_batch(batch_size, out, rng)
    }
    fn refresh(&mut self, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        let before = self.inner.sgm_stats();
        let probes_before = self.model.sample_losses.calls();
        self.inner.as_dyn().refresh(iter, probe, rng);
        if self.model.sample_losses.calls() > probes_before {
            self.score_refreshes += 1;
        }
        if let (Some(b), Some(a)) = (before, self.inner.sgm_stats()) {
            // An apply seen in the same call as a new request belongs to
            // the older request: the sampler polls for a finished rebuild
            // right after requesting, too soon for the new one to finish.
            if a.rebuilds_applied > b.rebuilds_applied {
                if let Some(since) = self.pending_since.take() {
                    self.max_rebuild_lag = self.max_rebuild_lag.max(iter - since);
                }
            }
            if a.rebuilds_requested > b.rebuilds_requested {
                self.pending_since = Some(iter);
            }
        }
    }
}

/// A background builder whose worker is the production
/// [`RebuildWorker`], timed per request; the shared list collects the
/// worker's busy seconds, one entry per rebuild.
pub fn timed_builder() -> (BackgroundBuilder, Arc<Mutex<Vec<f64>>>) {
    let busy = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&busy);
    let mut worker = RebuildWorker::new();
    let builder = BackgroundBuilder::spawn_with_worker(move |req| {
        let t0 = Instant::now();
        let out = worker.run(req);
        sink.lock()
            .expect("rebuild timing sink poisoned by a panicking worker")
            .push(t0.elapsed().as_secs_f64());
        Some(out)
    });
    (builder, busy)
}

/// One replay of the S1/S2 graph build: kNN, then ER, then LRD fed the
/// same ER vector, so each phase is timed alone.
pub struct GraphReplay {
    pub knn_s: f64,
    pub er_s: f64,
    pub lrd_s: f64,
    pub edges: usize,
    pub clusters: usize,
    /// Cluster of every point.
    pub assignment: Vec<u32>,
}

pub fn replay_graph(cloud: &PointCloud, knn: &KnnConfig, lrd: &LrdConfig) -> GraphReplay {
    let ErSource::Approx(er_opts) = &lrd.er else {
        panic!("the samplers estimate resistances with ErSource::Approx");
    };
    let t0 = Instant::now();
    let g = build_knn_graph(cloud, knn);
    let t1 = Instant::now();
    let er = approx_edge_resistances(&g, er_opts);
    let t2 = Instant::now();
    let c = decompose(
        &g,
        &LrdConfig {
            er: ErSource::Provided(er),
            ..lrd.clone()
        },
    );
    let t3 = Instant::now();
    GraphReplay {
        knn_s: (t1 - t0).as_secs_f64(),
        er_s: (t2 - t1).as_secs_f64(),
        lrd_s: (t3 - t2).as_secs_f64(),
        edges: g.num_edges(),
        clusters: c.num_clusters(),
        assignment: c.assignment().to_vec(),
    }
}

/// Median per-call microseconds of the three network kernels of one
/// training iteration, replayed at the interior batch shape.
pub struct NnReplay {
    pub forward_derivs_us: f64,
    pub backward_us: f64,
    pub adam_step_us: f64,
}

pub fn replay_nn(net: &Mlp, batch: &Matrix, diff_dims: &[usize], reps: usize) -> NnReplay {
    let nd = diff_dims.len();
    let b = batch.rows();
    let out = net.config().output_dim;
    let mut ws = net.make_workspace(b, nd);
    let mut adj = BatchDerivatives::zeros(b, out, nd);
    let mut rng = Rng64::new(0xAD1);
    for m in std::iter::once(&mut adj.values)
        .chain(adj.jac.iter_mut())
        .chain(adj.hess.iter_mut())
    {
        for v in m.as_mut_slice() {
            *v = 1e-3 * rng.gaussian();
        }
    }
    let mut grads = net.zero_gradients();
    let mut net_copy = net.clone();
    let mut adam = Adam::new(&net_copy, AdamConfig::default());
    let (mut fw, mut bw, mut st) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t0 = Instant::now();
        net.forward_with_derivs_ws(batch, diff_dims, &mut ws);
        let t1 = Instant::now();
        grads.zero();
        net.backward_ws(&mut ws, &adj, &mut grads);
        let t2 = Instant::now();
        adam.step(&mut net_copy, &grads);
        let t3 = Instant::now();
        fw.push((t1 - t0).as_secs_f64() * 1e6);
        bw.push((t2 - t1).as_secs_f64() * 1e6);
        st.push((t3 - t2).as_secs_f64() * 1e6);
    }
    std::hint::black_box(&net_copy);
    NnReplay {
        forward_derivs_us: crate::median(&fw),
        backward_us: crate::median(&bw),
        adam_step_us: crate::median(&st),
    }
}

/// GEMM flops of one training iteration, computed from the layer
/// shapes: each layer runs one GEMM per derivative stream forward
/// (value, plus a first and a second derivative per differentiated
/// input), and two backward (input and weight gradients).
pub fn flops_per_iter(net: &Mlp, batch_interior: usize, batch_boundary: usize, nd: usize) -> f64 {
    let cfg = net.config();
    let mut dims = vec![cfg.input_dim];
    dims.extend(std::iter::repeat_n(cfg.hidden_width, cfg.hidden_layers));
    dims.push(cfg.output_dim);
    let macs: f64 = dims.windows(2).map(|w| (w[0] * w[1]) as f64).sum();
    let streams = (batch_interior * (1 + 2 * nd) + batch_boundary) as f64;
    3.0 * 2.0 * macs * streams
}

/// Per-layer metric names with no work on a workload: reported as 0.
pub fn zeros(names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names.iter().map(|&n| (n, 0.0)).collect()
}
