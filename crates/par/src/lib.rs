//! # sgm-par
//!
//! A small, hand-rolled data-parallel runtime for the SGM-PINN
//! reproduction (std only, no rayon/crossbeam — consistent with
//! DESIGN §6's offline-buildable constraint).
//!
//! ## Architecture
//!
//! * [`ThreadPool`] — a persistent worker pool. A pool of size `n` spawns
//!   `n - 1` OS threads; the calling thread always participates in
//!   execution, so a pool of size 1 runs everything inline with zero
//!   scheduling overhead.
//! * [`global`] — the process-wide pool, sized from
//!   `std::thread::available_parallelism` and overridable with the
//!   `SGM_NUM_THREADS` environment variable (read once, at first use).
//! * Scoped primitives — [`ThreadPool::par_map_indexed`],
//!   [`ThreadPool::par_chunks_mut`], [`ThreadPool::par_reduce`] — operate
//!   over borrowed data (`&[T]` / `&mut [T]` / closures over locals) and
//!   block until every task has completed.
//!
//! ## Determinism contract
//!
//! Work is split into chunks whose boundaries depend only on the problem
//! size (see [`chunk_len`]), never on the thread count, and all merges
//! (output concatenation, reductions) happen in ascending chunk order on
//! the calling thread. Results are therefore **bit-identical** for any
//! thread count, including the serial path — the scheduler decides *who*
//! computes a chunk, never *what* is computed or in which order partial
//! results combine.
//!
//! ## Parallelism selection
//!
//! [`Parallelism`] picks the execution mode per call site: `Serial` (the
//! oracle), `Threads(n)` (a fixed-size pool, cached per `n`), or `Auto`
//! (the global pool, but only above a caller-supplied work-size cutoff so
//! small problems never pay scheduling overhead).

use sgm_obs::{metrics, trace};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Jobs executed through the pooled path (the serial fast path is not
/// counted — it is indistinguishable from inline execution).
static JOBS_TOTAL: metrics::Counter = metrics::Counter::new("sgm_par_jobs_total");
/// Size of the global pool (set once, when the pool is built).
static POOL_THREADS: metrics::Gauge = metrics::Gauge::new("sgm_par_pool_threads");
/// Threads currently executing a pooled job (occupancy).
static BUSY_WORKERS: metrics::Gauge = metrics::Gauge::new("sgm_par_busy_workers");

/// How a parallelizable call site should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the global pool when the work size clears the call site's
    /// cutoff; run serially otherwise. The default everywhere.
    #[default]
    Auto,
    /// Always run the serial path (the determinism oracle).
    Serial,
    /// Use exactly this many threads regardless of work size (pools are
    /// created on demand and cached per count; intended for tests and
    /// benches).
    Threads(usize),
}

impl Parallelism {
    /// Reads the `SGM_NUM_THREADS` environment variable: `1` means
    /// `Serial`, any larger value `Threads(n)`, unset/invalid `Auto`.
    pub fn from_env() -> Self {
        match std::env::var("SGM_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(0) | Some(1) => Parallelism::Serial,
            Some(n) => Parallelism::Threads(n),
            None => Parallelism::Auto,
        }
    }

    /// Resolves this setting to a pool, given the work size and the call
    /// site's `Auto` cutoff. `None` means "run the serial path".
    pub fn pool(self, work_size: usize, auto_cutoff: usize) -> Option<&'static ThreadPool> {
        match self {
            Parallelism::Serial => None,
            Parallelism::Threads(n) => {
                if n <= 1 {
                    None
                } else {
                    Some(pool_with(n))
                }
            }
            Parallelism::Auto => {
                let g = global();
                if g.threads() <= 1 || work_size < auto_cutoff {
                    None
                } else {
                    Some(g)
                }
            }
        }
    }
}

thread_local! {
    static CURRENT: std::cell::Cell<Parallelism> =
        const { std::cell::Cell::new(Parallelism::Auto) };
}

/// The calling thread's parallelism setting (default `Auto`). Call sites
/// in `sgm-linalg`/`sgm-nn`/`sgm-graph`/`sgm-core` consult this to pick
/// the serial or pooled path.
pub fn current() -> Parallelism {
    CURRENT.with(|c| c.get())
}

/// Runs `f` with the calling thread's parallelism setting overridden
/// (restored afterwards, including on panic). This is how tests pin a
/// region of code to `Serial` or `Threads(n)`.
pub fn with_parallelism<R>(p: Parallelism, f: impl FnOnce() -> R) -> R {
    struct Restore(Parallelism);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(CURRENT.with(|c| c.replace(p)));
    f()
}

thread_local! {
    static DISPATCH: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// The calling thread's kernel-dispatch override: an opaque code that
/// `sgm-linalg`'s `simd::with_tier` sets (0 = none). It lives here
/// because [`ThreadPool::run`] carries the submitting thread's code into
/// every job, so a forced tier reaches the pool workers that run kernels
/// on the caller's behalf, and no other thread.
#[inline]
pub fn dispatch_override() -> u8 {
    DISPATCH.with(|c| c.get())
}

/// Runs `f` with the calling thread's dispatch override set to `code`
/// (restored afterwards, including on panic).
pub fn with_dispatch_override<R>(code: u8, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            DISPATCH.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(DISPATCH.with(|c| c.replace(code)));
    f()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

struct Latch {
    remaining: Mutex<usize>,
    done_cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done_cv: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().expect("latch poisoned");
        *r -= 1;
        if *r == 0 {
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().expect("latch poisoned");
        while *r > 0 {
            r = self.done_cv.wait(r).expect("latch poisoned");
        }
    }
}

/// A persistent pool of worker threads executing borrowed-data tasks.
///
/// See the crate docs for the determinism contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool that executes with `threads`-way parallelism
    /// (`threads - 1` spawned workers plus the calling thread; 0 is
    /// clamped to 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sgm-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sgm-par worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Parallelism degree this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every task to completion before returning. Tasks may
    /// borrow from the caller's stack — the blocking join makes the
    /// lifetime erasure below sound. Panics in tasks are caught on the
    /// worker and re-raised here after all tasks finish. Every task runs
    /// under the submitting thread's trace parent and
    /// [`dispatch_override`], whichever thread executes it.
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads == 1 || tasks.len() == 1 {
            for t in tasks {
                t();
            }
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        let panicked = Arc::new(AtomicBool::new(false));
        // Cross-thread parent for worker task spans: whatever span the
        // submitting thread is inside when it fans out.
        let parent_ctx = trace::current_context();
        // Whichever thread runs a job, it runs at the submitter's tier.
        let dispatch = dispatch_override();
        {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            for task in tasks {
                let latch = latch.clone();
                let panicked = panicked.clone();
                let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let _span =
                        trace::span_with_parent(trace::TraceLevel::Full, "par", "task", parent_ctx);
                    JOBS_TOTAL.inc();
                    BUSY_WORKERS.add(1.0);
                    let outcome = with_dispatch_override(dispatch, || {
                        std::panic::catch_unwind(AssertUnwindSafe(task))
                    });
                    if outcome.is_err() {
                        panicked.store(true, Ordering::SeqCst);
                    }
                    BUSY_WORKERS.add(-1.0);
                    latch.count_down();
                });
                // SAFETY: `run` blocks on `latch.wait()` until every job has
                // executed, so the borrowed environment outlives all uses of
                // the erased-lifetime closure.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
                q.push_back(job);
            }
            self.shared.work_cv.notify_all();
        }
        // The caller participates until the queue drains, then waits for
        // stragglers still running on workers.
        loop {
            let job = self
                .shared
                .queue
                .lock()
                .expect("queue poisoned")
                .pop_front();
            match job {
                Some(j) => j(),
                None => break,
            }
        }
        latch.wait();
        if panicked.load(Ordering::SeqCst) {
            panic!("sgm-par: a parallel task panicked");
        }
    }

    /// Maps `f` over `0..n`, returning results in index order. Chunked by
    /// [`chunk_len`]`(n, min_chunk)`; bit-identical for any thread count.
    pub fn par_map_indexed<T, F>(&self, n: usize, min_chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunk = chunk_len(n, min_chunk);
        let mut parts: Vec<Vec<T>> = Vec::new();
        parts.resize_with(n.div_ceil(chunk), Vec::new);
        {
            let f = &f;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = parts
                .iter_mut()
                .enumerate()
                .map(|(ci, slot)| {
                    let lo = ci * chunk;
                    let hi = (lo + chunk).min(n);
                    Box::new(move || {
                        *slot = (lo..hi).map(f).collect();
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.run(tasks);
        }
        let mut out = Vec::with_capacity(n);
        for p in parts {
            out.extend(p);
        }
        out
    }

    /// Applies `f` to disjoint chunks of `data` (chunk base index and the
    /// mutable chunk slice). Chunk boundaries come from [`chunk_len`], so
    /// the partition is thread-count independent.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], min_chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        if n == 0 {
            return;
        }
        let chunk = chunk_len(n, min_chunk);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let base = ci * chunk;
                Box::new(move || f(base, slice)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run(tasks);
    }

    /// Like [`ThreadPool::par_chunks_mut`], but chunk boundaries are kept
    /// aligned to multiples of `row_len` elements (for row-major matrix
    /// bands). `f` receives the first row index of its band and the band
    /// slice. `min_rows` floors the rows per chunk.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `row_len`.
    pub fn par_rows_mut<T, F>(&self, data: &mut [T], row_len: usize, min_rows: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(
            row_len > 0 && data.len().is_multiple_of(row_len),
            "band shape"
        );
        let rows = data.len() / row_len;
        if rows == 0 {
            return;
        }
        let row_chunk = chunk_len(rows, min_rows);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(row_chunk * row_len)
            .enumerate()
            .map(|(ci, band)| {
                let row0 = ci * row_chunk;
                Box::new(move || f(row0, band)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run(tasks);
    }

    /// Chunk-wise map-reduce over `0..n`: `map` runs on each index range,
    /// partials are folded with `reduce` in ascending chunk order on the
    /// calling thread — the reduction tree is fixed, so the result is
    /// bit-identical for any thread count.
    pub fn par_reduce<A, M, R>(&self, n: usize, min_chunk: usize, map: M, reduce: R) -> Option<A>
    where
        A: Send,
        M: Fn(std::ops::Range<usize>) -> A + Sync,
        R: Fn(A, A) -> A,
    {
        if n == 0 {
            return None;
        }
        let chunk = chunk_len(n, min_chunk);
        let parts = self.par_map_indexed(n.div_ceil(chunk), 1, |ci| {
            let lo = ci * chunk;
            map(lo..(lo + chunk).min(n))
        });
        parts.into_iter().reduce(reduce)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.work_cv.wait(q).expect("queue poisoned");
            }
        };
        match job {
            Some(j) => j(),
            None => return,
        }
    }
}

/// Chunk length used by every primitive: the work is cut into a fixed
/// number of slices (64) regardless of thread count, floored at
/// `min_chunk` items so tiny problems produce few, meaty chunks. Depends
/// only on `n` and `min_chunk` — never on the pool — which is what makes
/// chunk-ordered merges deterministic.
pub fn chunk_len(n: usize, min_chunk: usize) -> usize {
    const SLICES: usize = 64;
    n.div_ceil(SLICES).max(min_chunk.max(1)).min(n.max(1))
}

/// The process-wide pool. Sized from `SGM_NUM_THREADS` when set, else
/// `std::thread::available_parallelism`; built on first use.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let n = std::env::var("SGM_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let n = n.max(1);
        POOL_THREADS.set(n as f64);
        ThreadPool::new(n)
    })
}

/// A cached pool of exactly `n` threads (for `Parallelism::Threads`).
/// Pools are leaked intentionally: they are few (one per distinct count
/// requested) and live for the process.
pub fn pool_with(n: usize) -> &'static ThreadPool {
    static POOLS: OnceLock<Mutex<Vec<(usize, &'static ThreadPool)>>> = OnceLock::new();
    let n = n.max(1);
    let global_pool = global();
    if n == global_pool.threads() {
        return global_pool;
    }
    let pools = POOLS.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = pools.lock().expect("pool registry poisoned");
    if let Some(&(_, p)) = guard.iter().find(|&&(size, _)| size == n) {
        return p;
    }
    let p: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(n)));
    guard.push((n, p));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_identity() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.par_map_indexed(1000, 1, |i| i * i);
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn chunks_mut_covers_disjointly() {
        for threads in [1, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0usize; 777];
            pool.par_chunks_mut(&mut data, 10, |base, slice| {
                for (off, v) in slice.iter_mut().enumerate() {
                    *v = base + off;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn reduce_is_deterministic_across_thread_counts() {
        // Floating-point sum: association is fixed by chunk order, so the
        // result must be bit-identical for every thread count.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.1 - 3.7)
            .collect();
        let sum = |pool: &ThreadPool| {
            pool.par_reduce(xs.len(), 16, |r| xs[r].iter().sum::<f64>(), |a, b| a + b)
                .unwrap()
        };
        let s1 = sum(&ThreadPool::new(1));
        let s2 = sum(&ThreadPool::new(2));
        let s8 = sum(&ThreadPool::new(8));
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(s1.to_bits(), s8.to_bits());
    }

    #[test]
    fn map_is_bit_identical_across_thread_counts() {
        let f = |i: usize| ((i as f64).sin() * 1e6).cos();
        let a = ThreadPool::new(1).par_map_indexed(5000, 8, f);
        let b = ThreadPool::new(8).par_map_indexed(5000, 8, f);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(4);
        let out: Vec<usize> = pool.par_map_indexed(0, 1, |i| i);
        assert!(out.is_empty());
        assert_eq!(pool.par_reduce(0, 1, |_| 0.0f64, |a, b| a + b), None);
        let out = pool.par_map_indexed(1, 128, |i| i + 41);
        assert_eq!(out, vec![41]);
        let mut empty: Vec<u8> = Vec::new();
        pool.par_chunks_mut(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = ThreadPool::new(4);
        let outer = pool.par_map_indexed(8, 1, |i| {
            // Nested use of the *global* pool from inside a worker task.
            global()
                .par_reduce(
                    100,
                    8,
                    |r| r.map(|j| (i * j) as u64).sum::<u64>(),
                    |a, b| a + b,
                )
                .unwrap_or(0)
        });
        for (i, v) in outer.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 4950);
        }
    }

    #[test]
    #[should_panic(expected = "parallel task panicked")]
    fn task_panic_propagates() {
        let pool = ThreadPool::new(4);
        pool.par_map_indexed(64, 1, |i| {
            assert!(i != 40, "boom");
            i
        });
    }

    #[test]
    fn chunk_len_ignores_thread_count_and_respects_floor() {
        assert_eq!(chunk_len(10, 32), 10);
        assert_eq!(chunk_len(64_000, 1), 1000);
        assert_eq!(chunk_len(0, 4), 1);
        assert!(chunk_len(100, 8) >= 8);
    }

    #[test]
    fn rows_mut_bands_are_row_aligned() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let row_len = 7;
            let mut data = vec![0usize; 53 * row_len];
            pool.par_rows_mut(&mut data, row_len, 1, |row0, band| {
                assert_eq!(band.len() % row_len, 0);
                for (off, v) in band.iter_mut().enumerate() {
                    *v = (row0 * row_len) + off;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn with_parallelism_overrides_and_restores() {
        assert_eq!(current(), Parallelism::Auto);
        let inner = with_parallelism(Parallelism::Serial, current);
        assert_eq!(inner, Parallelism::Serial);
        assert_eq!(current(), Parallelism::Auto);
        let nested = with_parallelism(Parallelism::Threads(2), || {
            with_parallelism(Parallelism::Serial, current)
        });
        assert_eq!(nested, Parallelism::Serial);
        // Restored even when the body panics.
        let _ =
            std::panic::catch_unwind(|| with_parallelism(Parallelism::Serial, || panic!("boom")));
        assert_eq!(current(), Parallelism::Auto);
    }

    #[test]
    fn parallelism_pool_selection() {
        assert!(Parallelism::Serial.pool(1 << 30, 0).is_none());
        assert!(Parallelism::Threads(1).pool(1 << 30, 0).is_none());
        let p = Parallelism::Threads(3)
            .pool(1, 1 << 30)
            .expect("fixed pool");
        assert_eq!(p.threads(), 3);
        // Auto honours the cutoff.
        if global().threads() > 1 {
            assert!(Parallelism::Auto.pool(10, 1000).is_none());
            assert!(Parallelism::Auto.pool(1000, 10).is_some());
        } else {
            assert!(Parallelism::Auto.pool(1 << 30, 0).is_none());
        }
    }
}
