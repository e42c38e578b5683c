//! Background S1+S2 rebuilds.
//!
//! Paper §3.3: "we also decompose the dataset into grids and perform S1
//! and S2 in independent sub-processes while training continues either
//! with uniform sampling, or a previously calculated distribution."
//!
//! [`BackgroundBuilder`] owns a worker thread fed through std mpsc
//! channels: the trainer requests a rebuild every `τ_G` iterations and
//! keeps sampling from the previous clustering until the new one arrives
//! (`S ← S_new` in Algorithm 1, lines 14–18). The GPU-side training loop
//! therefore never blocks on graph work.
//!
//! A worker that dies (panics) is *detected*, not silently absorbed:
//! every channel operation reports [`WorkerDied`] once the worker is
//! gone, so the trainer can fall back to inline rebuilds instead of
//! waiting forever on a result that will never come.

use sgm_graph::knn::{build_knn_graph, KnnConfig};
use sgm_graph::lrd::{decompose, Clustering, LrdConfig};
use sgm_graph::points::PointCloud;
use sgm_obs::{flight, trace, Counter, Histogram, SpanContext, TraceLevel};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall time of every PGM rebuild, background or inline (nanoseconds).
static REBUILD_NS: Histogram = Histogram::new("sgm_sampler_rebuild_ns");
/// Rebuilds enqueued to the background worker. Together with
/// `sgm_sampler_rebuild_ns`'s count this gives the watchdog its
/// requests-vs-completions silence detector.
static REBUILD_REQUESTS: Counter = Counter::new("sgm_sampler_rebuild_requests_total");
/// Background rebuild workers observed dead (panicked).
static REBUILD_WORKER_DEATHS: Counter = Counter::new("sgm_sampler_rebuild_worker_deaths_total");

/// A rebuild job: construct the kNN PGM over `cloud` and decompose it.
#[derive(Debug, Clone)]
pub struct RebuildRequest {
    /// Point cloud to build the PGM over (spatial coordinates, optionally
    /// augmented with output features — paper §3.2's later-stage rebuild).
    pub cloud: Arc<PointCloud>,
    /// kNN configuration (S1).
    pub knn: KnnConfig,
    /// LRD configuration (S2).
    pub lrd: LrdConfig,
}

/// Runs one full S1+S2 rebuild on the calling thread: the kNN graph over
/// `req.cloud`, then its LRD clustering (`S_new` in Algorithm 1). Every
/// rebuild — background worker, inline fallback, fault harness — goes
/// through here.
pub fn run_rebuild(req: &RebuildRequest) -> Clustering {
    let t0 = Instant::now();
    let g = build_knn_graph(&req.cloud, &req.knn);
    let c = decompose(&g, &req.lrd);
    let elapsed = t0.elapsed();
    REBUILD_NS.record_duration(elapsed);
    flight::record(
        flight::EventKind::Rebuild,
        0,
        elapsed.as_nanos().min(u64::MAX as u128) as u64,
    );
    c
}

/// The production rebuild executor as a value, for harnesses that wrap
/// it in their own [`BackgroundBuilder::spawn_with_worker`] closure
/// (e.g. to time each request). It holds no state: [`RebuildWorker::run`]
/// is [`run_rebuild`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RebuildWorker;

impl RebuildWorker {
    /// A new worker.
    pub fn new() -> Self {
        RebuildWorker
    }

    /// Serves one request with a full rebuild.
    pub fn run(&mut self, req: &RebuildRequest) -> Clustering {
        run_rebuild(req)
    }
}

/// The rebuild worker thread terminated (panicked) while results were
/// still expected. Carries the panic message when one could be
/// recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerDied {
    /// Panic payload, if the worker panicked with a string message.
    pub panic: Option<String>,
}

impl std::fmt::Display for WorkerDied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.panic {
            Some(msg) => write!(f, "background rebuild worker died: {msg}"),
            None => write!(f, "background rebuild worker died"),
        }
    }
}

impl std::error::Error for WorkerDied {}

/// Worker thread handle for asynchronous PGM rebuilds.
#[derive(Debug)]
pub struct BackgroundBuilder {
    tx: Option<Sender<(RebuildRequest, SpanContext)>>,
    rx: Receiver<(Clustering, Duration)>,
    handle: Option<JoinHandle<()>>,
    pending: usize,
    died: Option<WorkerDied>,
    last_duration: Option<Duration>,
}

impl BackgroundBuilder {
    /// Spawns the standard worker thread: one [`run_rebuild`] per
    /// request.
    pub fn spawn() -> Self {
        Self::spawn_with_worker(|req| Some(run_rebuild(req)))
    }

    /// Spawns a worker running `work` per request. Returning `None`
    /// drops the result (no message is sent back); panicking inside
    /// `work` kills the worker thread, which the owner observes as
    /// [`WorkerDied`]. Production code uses [`BackgroundBuilder::spawn`];
    /// this hook exists so test harnesses can inject delays, drops and
    /// panics deterministically.
    pub fn spawn_with_worker<F>(work: F) -> Self
    where
        F: FnMut(&RebuildRequest) -> Option<Clustering> + Send + 'static,
    {
        let (tx_req, rx_req) = channel::<(RebuildRequest, SpanContext)>();
        let (tx_res, rx_res) = channel::<(Clustering, Duration)>();
        let handle = std::thread::Builder::new()
            .name("sgm-rebuild".into())
            .spawn(move || {
                let mut work = work;
                while let Ok((req, ctx)) = rx_req.recv() {
                    // Explicit cross-thread parenting: the span lands on
                    // this worker's timeline but hangs off the engine
                    // refresh span that requested the rebuild.
                    let _span = trace::span_with_parent(
                        TraceLevel::Stages,
                        "sampler",
                        "background_rebuild",
                        ctx,
                    );
                    let t0 = Instant::now();
                    if let Some(output) = work(&req) {
                        if tx_res.send((output, t0.elapsed())).is_err() {
                            break;
                        }
                    }
                }
            })
            .expect("spawn rebuild worker");
        BackgroundBuilder {
            tx: Some(tx_req),
            rx: rx_res,
            handle: Some(handle),
            pending: 0,
            died: None,
            last_duration: None,
        }
    }

    /// Records the worker's death: joins the thread to recover the panic
    /// message, clears in-flight state and caches the error so every
    /// later call keeps reporting it.
    fn mark_dead(&mut self) -> WorkerDied {
        if let Some(d) = &self.died {
            return d.clone();
        }
        self.tx.take();
        self.pending = 0;
        let panic = self.handle.take().and_then(|h| match h.join() {
            Ok(()) => None,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned()),
        });
        let d = WorkerDied { panic };
        REBUILD_WORKER_DEATHS.inc();
        self.died = Some(d.clone());
        d
    }

    /// Enqueues a rebuild unless one is already in flight. Returns
    /// `Ok(true)` when the request was accepted, `Ok(false)` when one is
    /// already pending.
    ///
    /// # Errors
    /// Returns [`WorkerDied`] when the worker thread is gone — the
    /// request can never be served.
    pub fn request(&mut self, req: RebuildRequest) -> Result<bool, WorkerDied> {
        if let Some(d) = &self.died {
            return Err(d.clone());
        }
        if self.pending > 0 {
            return Ok(false);
        }
        match &self.tx {
            Some(tx) if tx.send((req, trace::current_context())).is_ok() => {
                self.pending += 1;
                REBUILD_REQUESTS.inc();
                Ok(true)
            }
            _ => Err(self.mark_dead()),
        }
    }

    /// Non-blocking poll for a finished rebuild. `Ok(None)` means no
    /// result is ready yet (the worker may still be computing).
    ///
    /// # Errors
    /// Returns [`WorkerDied`] when the worker thread is gone, so callers
    /// never spin forever waiting on a dead worker.
    pub fn try_take(&mut self) -> Result<Option<Clustering>, WorkerDied> {
        if let Some(d) = &self.died {
            return Err(d.clone());
        }
        match self.rx.try_recv() {
            Ok((c, dt)) => {
                self.pending = self.pending.saturating_sub(1);
                self.last_duration = Some(dt);
                Ok(Some(c))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(self.mark_dead()),
        }
    }

    /// Blocking wait for a finished rebuild (used by tests and by
    /// shutdown paths).
    ///
    /// # Errors
    /// Returns [`WorkerDied`] when the worker thread exits without
    /// producing a result.
    pub fn take_blocking(&mut self) -> Result<Clustering, WorkerDied> {
        if let Some(d) = &self.died {
            return Err(d.clone());
        }
        match self.rx.recv() {
            Ok((c, dt)) => {
                self.pending = self.pending.saturating_sub(1);
                self.last_duration = Some(dt);
                Ok(c)
            }
            Err(_) => Err(self.mark_dead()),
        }
    }

    /// Whether a rebuild is currently in flight.
    pub fn is_pending(&self) -> bool {
        self.pending > 0
    }

    /// Worker-side wall time of the most recently received rebuild.
    pub fn last_rebuild_duration(&self) -> Option<Duration> {
        self.last_duration
    }

    /// Whether the worker thread has been observed dead.
    pub fn is_dead(&self) -> bool {
        self.died.is_some()
    }
}

impl Drop for BackgroundBuilder {
    fn drop(&mut self) {
        // Close the request channel so the worker exits, then join. A
        // worker that panicked already poisoned the join handle; ignore
        // the payload — death was (or would have been) reported through
        // the channel API.
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_graph::knn::KnnStrategy;
    use sgm_linalg::rng::Rng64;

    fn cloud(n: usize, seed: u64) -> Arc<PointCloud> {
        let mut rng = Rng64::new(seed);
        Arc::new(PointCloud::uniform_box(n, 2, 0.0, 1.0, &mut rng))
    }

    fn req(c: Arc<PointCloud>) -> RebuildRequest {
        RebuildRequest {
            cloud: c,
            knn: KnnConfig {
                k: 5,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
            lrd: LrdConfig::default(),
        }
    }

    #[test]
    fn background_rebuild_roundtrip() {
        let mut b = BackgroundBuilder::spawn();
        let c = cloud(200, 1);
        assert!(b.request(req(c.clone())).unwrap());
        let out = b.take_blocking().expect("worker result");
        assert_eq!(out.num_nodes(), 200);
        assert!(out.num_clusters() >= 2);
        assert!(!b.is_pending());
    }

    #[test]
    fn only_one_request_in_flight() {
        let mut b = BackgroundBuilder::spawn();
        let c = cloud(500, 2);
        assert!(b.request(req(c.clone())).unwrap());
        assert!(
            !b.request(req(c.clone())).unwrap(),
            "second request must be refused"
        );
        let _ = b.take_blocking();
        assert!(b.request(req(c)).unwrap());
        let _ = b.take_blocking();
    }

    #[test]
    fn matches_synchronous_rebuild() {
        let c = cloud(150, 3);
        let sync = run_rebuild(&req(c.clone()));
        let mut b = BackgroundBuilder::spawn();
        b.request(req(c)).unwrap();
        let asynch = b.take_blocking().unwrap();
        assert_eq!(sync.assignment(), asynch.assignment());
    }

    #[test]
    fn drop_joins_cleanly_with_pending_work() {
        let mut b = BackgroundBuilder::spawn();
        b.request(req(cloud(300, 4))).unwrap();
        drop(b); // must not hang or panic
    }

    #[test]
    fn panicking_worker_is_reported_not_hung() {
        let mut b = BackgroundBuilder::spawn_with_worker(|_req| -> Option<Clustering> {
            panic!("injected rebuild failure")
        });
        assert!(b.request(req(cloud(50, 5))).unwrap());
        // Blocking take must return the error, not hang.
        let err = b.take_blocking().unwrap_err();
        assert_eq!(err.panic.as_deref(), Some("injected rebuild failure"));
        assert!(b.is_dead());
        assert!(!b.is_pending(), "death clears in-flight state");
        // Every later call keeps reporting the death (the pre-fix bug
        // left `pending` stuck, silently refusing all future requests).
        assert!(b.try_take().is_err());
        assert!(b.request(req(cloud(50, 6))).is_err());
        let msg = b.take_blocking().unwrap_err().to_string();
        assert!(msg.contains("injected rebuild failure"), "{msg}");
    }

    #[test]
    fn dropping_worker_skips_result_but_stays_alive() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;
        let calls = StdArc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let mut b = BackgroundBuilder::spawn_with_worker(move |r| {
            let n = calls2.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                None // drop the first result
            } else {
                Some(run_rebuild(r))
            }
        });
        let c = cloud(80, 7);
        assert!(b.request(req(c.clone())).unwrap());
        // The dropped result never arrives; the builder still reports
        // pending until we observe something. Re-requesting is refused
        // while the (orphaned) request counts as in flight, which is the
        // documented single-slot policy — so poll until the drop has
        // happened, then verify no result is pending and the worker is
        // still alive.
        while calls.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert!(b.try_take().unwrap().is_none());
        assert!(!b.is_dead());
    }
}
