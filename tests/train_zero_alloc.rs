//! Steady-state allocation contract of the staged training engine: after
//! a short warmup, an iteration of the hot path (draw → gather →
//! loss/grad → step) performs **zero** heap allocations when running
//! serially. Every buffer is owned by the per-run workspaces, so the
//! only events allowed to allocate are workspace construction, sampler
//! refreshes and recording — none of which fire in the measured window.
//!
//! The counting `#[global_allocator]` makes this a hard test, not a
//! heuristic: a single stray `Vec` or `Matrix` in the loop fails it.
//! It counts per thread, and each test reads the deltas of its own
//! thread. That is the serial contract exactly: under
//! `Parallelism::Serial` every stage runs on the calling thread, so
//! every allocation the contract forbids lands on the counting thread,
//! while tests training beside this one in the same process (and the
//! watchdog, whose scrape allocates on its own thread by design) do
//! not.
//!
//! The contract is measured with the full observability stack armed:
//! the `ObsHook` (registry + flight recorder) rides in the hook chain
//! and a live watchdog thread is parked on its condvar for the whole
//! window — recording stays allocation-free even with both enabled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_nn::optimizer::AdamConfig;
use sgm_par::Parallelism;
use sgm_physics::geometry::{Cavity, FillStrategy};
use sgm_physics::pde::{Pde, PoissonConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::PinnModel;
use sgm_train::{Hook, ObsHook, Stage, TrainOptions, Trainer, UniformSampler};

/// Forwards to the system allocator while counting every `alloc` and
/// `realloc` call made by the current thread (deallocations are free
/// and not counted).
struct CountingAlloc;

thread_local! {
    // Const-initialised and destructor-free, so touching it never
    // allocates (the allocator must not recurse into itself).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocs() -> usize {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records the training thread's cumulative allocation count at the end
/// of every iteration. The vector is pre-reserved so the pushes
/// themselves never allocate inside the measured window.
struct AllocCounter {
    counts: Vec<usize>,
    record_stages: usize,
}

impl Hook for AllocCounter {
    fn on_stage(&mut self, _iter: usize, stage: Stage, _dt: std::time::Duration) {
        if stage == Stage::Record {
            self.record_stages += 1;
        }
    }

    fn on_iteration(&mut self, _iter: usize) {
        self.counts.push(thread_allocs());
    }
}

#[test]
fn steady_state_iterations_do_not_allocate() {
    const ITERS: usize = 40;
    const WARMUP: usize = 5;

    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| (3.0 * p[0]).sin() * (2.0 * p[1]).cos(),
    }));
    let mut rng = Rng64::new(31);
    let interior = Cavity::default().sample_interior(600, FillStrategy::Halton, &mut rng);
    let (boundary, boundary_targets) = Cavity::default().sample_boundary(16, 4, &mut rng);
    let data = TrainSet {
        interior,
        boundary,
        boundary_targets,
    };
    let mut net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 16,
            hidden_layers: 2,
            activation: Activation::Tanh,
            fourier: None,
        },
        &mut Rng64::new(32),
    );
    let model = PinnModel::new(&problem, &data);
    let mut sampler = UniformSampler::new(data.interior.len());
    let opts = TrainOptions {
        iterations: ITERS,
        batch_interior: 64,
        batch_boundary: 16,
        adam: AdamConfig::default(),
        seed: 33,
        // Larger than ITERS: only the final iteration records, which is
        // outside the measured window (its record follows on_iteration).
        record_every: 10 * ITERS,
        max_seconds: None,
        synthetic_dt: None,
    };
    let mut hook = AllocCounter {
        counts: Vec::with_capacity(ITERS + 1),
        record_stages: 0,
    };
    // The metrics-recording hook rides along: its registry writes are
    // relaxed atomics into static shards and its flight-recorder events
    // are relaxed stores into static rings, so the zero-allocation
    // assertions below hold with instrumentation enabled (registration
    // itself happens in the warmup window). A watchdog is armed too:
    // its initial scrape runs synchronously here (before the measured
    // window) and the thread then sleeps on a condvar — being armed
    // must cost the hot path nothing.
    let watchdog = sgm_obs::Watchdog::start(sgm_obs::WatchdogConfig {
        period: std::time::Duration::from_secs(3600),
        flight_dir: None,
        ..Default::default()
    });
    let mut obs = ObsHook::new();
    sgm_par::with_parallelism(Parallelism::Serial, || {
        let mut tr = Trainer {
            net: &mut net,
            model: &model,
        };
        let mut hooks: [&mut dyn Hook; 2] = [&mut obs, &mut hook];
        tr.run_hooked(&mut sampler, None, &opts, &mut hooks);
    });
    drop(watchdog);
    assert_eq!(hook.counts.len(), ITERS);
    // Iteration 0 records (`0 % record_every == 0`) and so does the final
    // one; both are outside the measured window.
    assert_eq!(hook.record_stages, 2, "records at iteration 0 and the end");
    // Every iteration after warmup (the final, recording one excluded —
    // its Record stage fires after on_iteration, so it cannot contaminate
    // earlier windows) must add exactly zero allocations.
    for i in WARMUP..ITERS - 1 {
        let delta = hook.counts[i] - hook.counts[i - 1];
        assert_eq!(
            delta, 0,
            "iteration {i} allocated {delta} times in steady state"
        );
    }
}

/// Direct contract on the `sgm-obs` registry: once a metric is
/// registered (first record), every further counter add and histogram
/// record is allocation-free — the property the engine test above
/// relies on.
#[test]
fn metric_records_do_not_allocate_in_steady_state() {
    static C: sgm_obs::Counter = sgm_obs::Counter::new("test_zero_alloc_counter");
    static G: sgm_obs::Gauge = sgm_obs::Gauge::new("test_zero_alloc_gauge");
    static H: sgm_obs::Histogram = sgm_obs::Histogram::new("test_zero_alloc_hist");
    // Warmup: the first record of each metric pushes one registry entry
    // (allowed to allocate, happens once per process).
    C.inc();
    G.set(1.0);
    H.record(1);
    let before = thread_allocs();
    for i in 0..1000u64 {
        C.add(i);
        G.add(0.5);
        H.record(i * 37);
    }
    let delta = thread_allocs() - before;
    assert_eq!(delta, 0, "steady-state metric records allocated {delta}x");
    assert_eq!(C.value(), 1 + (0..1000).sum::<u64>());
    assert_eq!(H.snapshot().count, 1001);
}

/// Direct contract on the flight recorder: each event is four relaxed
/// atomic stores into a static ring — no allocation, ever, and the
/// most recent events are there to snapshot afterwards.
#[test]
fn flight_recorder_events_do_not_allocate() {
    use sgm_obs::flight::{self, EventKind};
    flight::record(EventKind::Iter, 0, 0); // thread-ordinal warmup
    let before = thread_allocs();
    for i in 0..10_000u64 {
        flight::record(EventKind::Stage, (i % 7) as u32, i * 17);
    }
    let delta = thread_allocs() - before;
    assert_eq!(delta, 0, "flight-recorder events allocated {delta}x");
    let events = flight::snapshot();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Stage),
        "recorded events must be visible in the snapshot"
    );
}

/// The same engine loop re-run with a fresh workspace produces identical
/// weights: the allocation-free path is not a different numerical path.
#[test]
fn zero_alloc_path_is_reproducible() {
    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| (3.0 * p[0]).sin(),
    }));
    let mut rng = Rng64::new(41);
    let interior = Cavity::default().sample_interior(200, FillStrategy::Halton, &mut rng);
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
    let opts = TrainOptions {
        iterations: 25,
        batch_interior: 32,
        batch_boundary: 1,
        adam: AdamConfig::default(),
        seed: 42,
        record_every: 5,
        max_seconds: None,
        synthetic_dt: Some(1.0 / 1024.0),
    };
    let model = PinnModel::new(&problem, &data);
    let run = || {
        let mut net = Mlp::new(&cfg, &mut Rng64::new(43));
        let mut sampler = UniformSampler::new(data.interior.len());
        let mut tr = Trainer {
            net: &mut net,
            model: &model,
        };
        let result = tr.run(&mut sampler, None, &opts);
        (net.params(), result)
    };
    let (pa, ra) = run();
    let (pb, rb) = run();
    assert_eq!(ra.history.len(), rb.history.len());
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
