//! The multi-tenant job scheduler.
//!
//! One shared worker pool executes every admitted job in fixed-size
//! iteration **slices** ([`ServeConfig::slice_iterations`]). At each
//! slice boundary the job's full [`RunState`] is captured, so any job
//! can be preempted, cancelled, evicted or checkpointed between slices
//! with zero lost work — and because a slice resumes by instantiating
//! the job from its spec and restoring the checkpoint
//! ([`JobSpec::build_from`], the same path as a client-uploaded warm
//! resume), a run sliced N ways is bit-identical to the same run
//! executed locally in one piece. Work the checkpoint replaces is not
//! redone: an SGM job builds its kNN graph and clustering only when it
//! starts from scratch; later slices and warm resumes take the
//! clustering from the checkpoint.
//!
//! **Fairness** is round-robin over *tenants*, not jobs: each tenant
//! owns a FIFO of runnable job ids and a rotating cursor picks the next
//! non-empty tenant queue. A tenant submitting 100 jobs cannot starve a
//! tenant with one — per-slice throughput per tenant is equalised,
//! which is what the load test's max/min fairness gate measures.
//!
//! **Backpressure** is two-layered: [`ServeConfig::max_jobs`] bounds
//! jobs in flight (queued + running + paused) and
//! [`ServeConfig::queue_depth`] bounds the runnable queue alone; either
//! limit maps to HTTP 429 at the submission endpoint.

use crate::spec::JobSpec;
use sgm_json::{obj, Value};
use sgm_obs::{flight, Counter, Gauge, Histogram, MetricScope};
use sgm_par::Parallelism;
use sgm_physics::PinnModel;
use sgm_train::{run_lockstep, MultiJob, RunState, Segment, Stage, StageTimes, Trainer, Validator};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Jobs accepted over the server's lifetime.
pub static JOBS_SUBMITTED: Counter = Counter::new("sgm_serve_jobs_submitted_total");
/// Jobs that reached their final iteration.
pub static JOBS_COMPLETED: Counter = Counter::new("sgm_serve_jobs_completed_total");
/// Jobs that failed (training error or worker panic).
pub static JOBS_FAILED: Counter = Counter::new("sgm_serve_jobs_failed_total");
/// Jobs cancelled by a client.
pub static JOBS_CANCELLED: Counter = Counter::new("sgm_serve_jobs_cancelled_total");
/// Jobs evicted for exceeding their wall-clock budget.
pub static JOBS_EVICTED: Counter = Counter::new("sgm_serve_jobs_evicted_total");
/// Submissions refused with 429 (queue or job-cap backpressure).
pub static JOBS_REJECTED: Counter = Counter::new("sgm_serve_jobs_rejected_total");
/// Worker panics survived (the pool thread lives on).
pub static WORKER_PANICS: Counter = Counter::new("sgm_serve_worker_panics_total");
/// Runnable jobs currently queued.
pub static QUEUE_DEPTH: Gauge = Gauge::new("sgm_serve_queue_depth");
/// Jobs in flight (queued + running + paused).
pub static JOBS_IN_FLIGHT: Gauge = Gauge::new("sgm_serve_jobs_in_flight");
/// Wall time per executed slice, nanoseconds.
pub static SLICE_NS: Histogram = Histogram::new("sgm_serve_slice_ns");
/// Configured runnable-queue capacity (pairs with
/// `sgm_serve_queue_depth` for the watchdog's saturation detector).
pub static QUEUE_CAPACITY: Gauge = Gauge::new("sgm_serve_queue_capacity");
/// Progress events published across all jobs.
pub static EVENTS_PUBLISHED: Counter = Counter::new("sgm_serve_events_published_total");

/// Progress events retained per job for SSE replay (`Last-Event-ID`
/// resume). A client lagging further than this sees a sequence gap and
/// knows to re-sync from `/jobs/{id}`.
pub const EVENT_BUFFER: usize = 1024;

/// One per-job progress event: a monotone sequence number (1-based,
/// gapless per job) and its pre-rendered JSON payload, shared by every
/// SSE subscriber.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Per-job sequence number (1, 2, 3, … with no gaps).
    pub seq: u64,
    /// The event payload, rendered once at publish time.
    pub data: String,
}

/// Server configuration. `addr`, `max_jobs`, `queue_depth` and
/// `co_slice` honor the `SGM_SERVE_ADDR`, `SGM_SERVE_MAX_JOBS`,
/// `SGM_SERVE_QUEUE_DEPTH` and `SGM_SERVE_CO_SLICE` environment
/// variables via [`ServeConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads in the shared training pool.
    pub workers: usize,
    /// Max jobs in flight (queued + running + paused); 429 above.
    pub max_jobs: usize,
    /// Max runnable jobs queued; 429 above.
    pub queue_depth: usize,
    /// Preemption quantum: iterations per slice.
    pub slice_iterations: usize,
    /// Hard cap on a single job's `iterations`; 400 above.
    pub max_iterations: usize,
    /// Default per-job wall budget in seconds when the spec sets none
    /// (`None` = unlimited).
    pub default_wall_budget: Option<f64>,
    /// Socket read timeout (slow-loris defense) in milliseconds.
    pub read_timeout_ms: u64,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Intra-slice parallelism applied around every training slice
    /// (`sgm-par`'s setting is thread-local, so workers must re-enter
    /// it).
    pub parallelism: Parallelism,
    /// Lockstep co-execution width: a worker picking a job may batch up
    /// to this many co-compatible queued jobs
    /// ([`JobSpec::co_compatible`]) into one slice executed through the
    /// batched multi-model kernels (`sgm_train::run_lockstep`). `1`
    /// (the default) disables grouping. Per-job checkpoints stay
    /// bit-identical to solo execution; only measured wall clocks
    /// differ (each member is charged the full group slice) and
    /// per-stage timing is not attributed for co-executed slices.
    pub co_slice: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_jobs: 256,
            queue_depth: 128,
            slice_iterations: 10,
            max_iterations: 100_000,
            default_wall_budget: None,
            read_timeout_ms: 2_000,
            max_body_bytes: 16 * 1024 * 1024,
            parallelism: Parallelism::Serial,
            co_slice: 1,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by `SGM_SERVE_ADDR`, `SGM_SERVE_MAX_JOBS`,
    /// `SGM_SERVE_QUEUE_DEPTH` and `SGM_SERVE_CO_SLICE` (invalid
    /// values are ignored).
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Ok(v) = std::env::var("SGM_SERVE_ADDR") {
            if !v.is_empty() {
                cfg.addr = v;
            }
        }
        if let Some(n) = env_usize("SGM_SERVE_MAX_JOBS") {
            cfg.max_jobs = n.max(1);
        }
        if let Some(n) = env_usize("SGM_SERVE_QUEUE_DEPTH") {
            cfg.queue_depth = n.max(1);
        }
        if let Some(n) = env_usize("SGM_SERVE_CO_SLICE") {
            cfg.co_slice = n.max(1);
        }
        cfg
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.parse().ok()
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Runnable, waiting for a worker slot.
    Queued,
    /// A worker is executing a slice.
    Running,
    /// Reached its final iteration.
    Completed,
    /// Training error or worker panic (message attached).
    Failed(String),
    /// Cancelled by a client (checkpoint, if any, is kept).
    Cancelled,
    /// Evicted by policy (message attached), e.g. wall-budget overrun.
    Evicted(String),
    /// Checkpointed by a graceful shutdown; resumable via upload.
    Paused,
}

impl JobState {
    /// Whether the job can never run again on this server.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed(_) | JobState::Cancelled | JobState::Evicted(_)
        )
    }

    /// Whether a `wait` call should keep blocking on this state.
    pub fn is_settled(&self) -> bool {
        self.is_terminal() || matches!(self, JobState::Paused)
    }

    /// Display name for status payloads.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Evicted(_) => "evicted",
            JobState::Paused => "paused",
        }
    }
}

/// One admitted job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Latest slice-boundary checkpoint (also present on resume
    /// admission before the first slice runs).
    pub run: Option<RunState>,
    /// Cancellation requested; consumed at the next slice boundary.
    pub cancel: bool,
    /// Measured wall seconds spent executing this job's slices.
    pub wall_seconds: f64,
    /// Per-stage wall nanoseconds accumulated across slices.
    pub stage_ns: [u128; Stage::COUNT],
    /// Per-stage event counts accumulated across slices.
    pub stage_counts: [u64; Stage::COUNT],
    /// Per-run labelled metrics (`run`, `tenant`).
    pub scope: MetricScope,
    /// Iterations completed.
    pub iteration: usize,
    /// Training loss at the latest record, if any.
    pub last_loss: Option<f64>,
    /// Recent progress events for SSE replay (last [`EVENT_BUFFER`]).
    pub events: VecDeque<JobEvent>,
    /// Sequence number of the newest published event (0 = none yet).
    pub last_event_seq: u64,
}

impl Job {
    fn new(id: u64, spec: JobSpec, run: Option<RunState>) -> Self {
        let scope = MetricScope::new([
            ("run".to_string(), id.to_string()),
            ("tenant".to_string(), spec.tenant.clone()),
        ]);
        let iteration = run.as_ref().map_or(0, |r| r.iteration);
        Job {
            id,
            tenant: spec.tenant.clone(),
            spec,
            state: JobState::Queued,
            run,
            cancel: false,
            wall_seconds: 0.0,
            stage_ns: [0; Stage::COUNT],
            stage_counts: [0; Stage::COUNT],
            scope,
            iteration,
            last_loss: None,
            events: VecDeque::new(),
            last_event_seq: 0,
        }
    }

    /// Effective wall budget (spec override, else server default).
    fn wall_budget(&self, cfg: &ServeConfig) -> Option<f64> {
        self.spec.max_wall_seconds.or(cfg.default_wall_budget)
    }

    /// Publishes one progress event: assigns the next sequence number,
    /// renders the payload once, trims the replay buffer and mirrors
    /// the boundary into the flight recorder. Callers must hold the
    /// scheduler lock and wake `job_done` afterwards.
    fn publish_event(&mut self, slice_ns: Option<u64>) {
        self.last_event_seq += 1;
        let mut fields = vec![
            ("seq", Value::Num(self.last_event_seq as f64)),
            ("job", Value::Num(self.id as f64)),
            ("tenant", Value::Str(self.tenant.clone())),
            ("state", Value::Str(self.state.name().into())),
            ("iteration", Value::Num(self.iteration as f64)),
            ("iterations_total", Value::Num(self.spec.iterations as f64)),
            ("wall_seconds", Value::Num(self.wall_seconds)),
        ];
        if let Some(loss) = self.last_loss.filter(|l| l.is_finite()) {
            fields.push(("train_loss", Value::Num(loss)));
        }
        if let Some(ns) = slice_ns {
            fields.push(("slice_ns", Value::Num(ns as f64)));
        }
        let stages: Vec<(&str, Value)> = Stage::ALL
            .iter()
            .filter(|s| self.stage_counts[s.index()] > 0)
            .map(|s| (s.name(), Value::Num(self.stage_ns[s.index()] as f64)))
            .collect();
        if !stages.is_empty() {
            fields.push(("stage_ns", obj(stages)));
        }
        if let Some(msg) = match &self.state {
            JobState::Failed(m) | JobState::Evicted(m) => Some(m.clone()),
            _ => None,
        } {
            fields.push(("error", Value::Str(msg)));
        }
        self.events.push_back(JobEvent {
            seq: self.last_event_seq,
            data: obj(fields).to_string_compact(),
        });
        while self.events.len() > EVENT_BUFFER {
            self.events.pop_front();
        }
        EVENTS_PUBLISHED.inc();
        flight::record(
            flight::EventKind::Slice,
            self.id as u32,
            self.iteration as u64,
        );
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Server draining after shutdown — HTTP 503.
    Draining,
    /// Queue/job-cap backpressure — HTTP 429.
    Busy(String),
    /// Spec violates a server policy — HTTP 400.
    Invalid(String),
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    /// Tenant rotation order (first-seen) + per-tenant runnable FIFOs.
    tenants: Vec<String>,
    queues: BTreeMap<String, VecDeque<u64>>,
    cursor: usize,
    queued: usize,
    shutdown: bool,
}

impl Inner {
    fn in_flight(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| !j.state.is_terminal())
            .count()
    }

    fn publish_gauges(&self) {
        QUEUE_DEPTH.set(self.queued as f64);
        JOBS_IN_FLIGHT.set(self.in_flight() as f64);
    }

    /// Pops the next runnable job id, round-robin over tenants.
    fn pick(&mut self) -> Option<u64> {
        let n = self.tenants.len();
        for step in 0..n {
            let t = &self.tenants[(self.cursor + step) % n];
            if let Some(q) = self.queues.get_mut(t) {
                if let Some(id) = q.pop_front() {
                    self.cursor = (self.cursor + step + 1) % n;
                    self.queued -= 1;
                    return Some(id);
                }
            }
        }
        None
    }

    /// Pops up to `width - 1` additional queued jobs that can share a
    /// lockstep slice with `lead` (scanning tenant queues in rotation
    /// order), returning the whole group with `lead` first. Returns
    /// just `[lead]` when `lead` itself is not co-eligible — e.g. an
    /// adaptive sampler, fault injection, or a resumed checkpoint
    /// carrying point-set state.
    fn pick_co_group(&mut self, lead: u64, width: usize) -> Vec<u64> {
        let mut group = vec![lead];
        if width <= 1 || !co_eligible(&self.jobs[&lead]) {
            return group;
        }
        let lead_spec = self.jobs[&lead].spec.clone();
        let tenants = self.tenants.clone();
        'scan: for t in &tenants {
            let Some(q) = self.queues.get_mut(t) else {
                continue;
            };
            let mut i = 0;
            while i < q.len() {
                if group.len() >= width {
                    break 'scan;
                }
                let id = q[i];
                let job = &self.jobs[&id];
                if co_eligible(job) && lead_spec.co_compatible(&job.spec) {
                    q.remove(i);
                    self.queued -= 1;
                    group.push(id);
                } else {
                    i += 1;
                }
            }
        }
        group
    }

    fn enqueue(&mut self, id: u64) {
        let tenant = self.jobs[&id].tenant.clone();
        if !self.tenants.contains(&tenant) {
            self.tenants.push(tenant.clone());
        }
        self.queues.entry(tenant).or_default().push_back(id);
        self.queued += 1;
    }
}

/// The scheduler: admission control, fair queueing, slice execution,
/// preemption and shutdown checkpointing. Thread-safe; worker threads
/// run [`Scheduler::worker_loop`].
pub struct Scheduler {
    cfg: ServeConfig,
    inner: Mutex<Inner>,
    /// Signalled when a job becomes runnable or shutdown begins.
    work_ready: Condvar,
    /// Signalled on every job state change (wait/long-poll support).
    job_done: Condvar,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("cfg", &self.cfg).finish()
    }
}

impl Scheduler {
    /// A scheduler with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        QUEUE_CAPACITY.set(cfg.queue_depth as f64);
        Scheduler {
            cfg,
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                next_id: 1,
                tenants: Vec::new(),
                queues: BTreeMap::new(),
                cursor: 0,
                queued: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Admits a job, optionally warm-started from an uploaded
    /// checkpoint.
    ///
    /// # Errors
    /// [`SubmitError::Draining`] after shutdown, [`SubmitError::Busy`]
    /// on backpressure, [`SubmitError::Invalid`] for policy violations.
    pub fn submit(&self, spec: JobSpec, resume: Option<RunState>) -> Result<u64, SubmitError> {
        if spec.iterations > self.cfg.max_iterations {
            return Err(SubmitError::Invalid(format!(
                "iterations {} exceeds server cap {}",
                spec.iterations, self.cfg.max_iterations
            )));
        }
        if let Some(st) = &resume {
            if st.iteration >= spec.iterations {
                return Err(SubmitError::Invalid(format!(
                    "checkpoint is at iteration {} of {} — nothing left to run",
                    st.iteration, spec.iterations
                )));
            }
        }
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        if inner.shutdown {
            return Err(SubmitError::Draining);
        }
        if inner.in_flight() >= self.cfg.max_jobs {
            JOBS_REJECTED.inc();
            return Err(SubmitError::Busy(format!(
                "job cap reached ({} in flight)",
                self.cfg.max_jobs
            )));
        }
        if inner.queued >= self.cfg.queue_depth {
            JOBS_REJECTED.inc();
            return Err(SubmitError::Busy(format!(
                "queue full ({} queued)",
                self.cfg.queue_depth
            )));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(id, Job::new(id, spec, resume));
        inner.enqueue(id);
        inner
            .jobs
            .get_mut(&id)
            .expect("job just inserted")
            .publish_event(None);
        inner.publish_gauges();
        JOBS_SUBMITTED.inc();
        self.work_ready.notify_one();
        self.job_done.notify_all();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs settle immediately; running
    /// jobs settle at the next slice boundary. Returns `false` for
    /// unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        let Some(job) = inner.jobs.get_mut(&id) else {
            return false;
        };
        if job.state.is_settled() {
            return true;
        }
        job.cancel = true;
        if job.state == JobState::Queued {
            job.state = JobState::Cancelled;
            job.publish_event(None);
            JOBS_CANCELLED.inc();
            let tenant = job.tenant.clone();
            if let Some(q) = inner.queues.get_mut(&tenant) {
                if let Some(pos) = q.iter().position(|&x| x == id) {
                    q.remove(pos);
                    inner.queued -= 1;
                }
            }
            inner.publish_gauges();
            self.job_done.notify_all();
        }
        true
    }

    /// Runs `f` against the job, if it exists.
    pub fn with_job<R>(&self, id: u64, f: impl FnOnce(&Job) -> R) -> Option<R> {
        let inner = self.inner.lock().expect("scheduler poisoned");
        inner.jobs.get(&id).map(f)
    }

    /// Blocks until the job settles (terminal or paused) or `timeout`
    /// elapses; returns the state at that point (`None` = unknown id).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        loop {
            let state = inner.jobs.get(&id)?.state.clone();
            if state.is_settled() {
                return Some(state);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(state);
            }
            let (guard, _) = self
                .job_done
                .wait_timeout(inner, deadline - now)
                .expect("scheduler poisoned");
            inner = guard;
        }
    }

    /// Progress events with sequence number > `after`, plus the job's
    /// current state and last published sequence number (`None` =
    /// unknown id). Non-blocking; events older than the
    /// [`EVENT_BUFFER`] replay window are gone, which a client detects
    /// as `first returned seq > after + 1`.
    pub fn events_after(&self, id: u64, after: u64) -> Option<(Vec<JobEvent>, JobState, u64)> {
        let inner = self.inner.lock().expect("scheduler poisoned");
        let job = inner.jobs.get(&id)?;
        let events: Vec<JobEvent> = job
            .events
            .iter()
            .filter(|e| e.seq > after)
            .cloned()
            .collect();
        Some((events, job.state.clone(), job.last_event_seq))
    }

    /// Blocks until the job has published an event with sequence number
    /// greater than `after`, the job settles, or `timeout` elapses;
    /// returns the new events (possibly empty on timeout/settle) and
    /// the state at that point (`None` = unknown id).
    pub fn wait_events(
        &self,
        id: u64,
        after: u64,
        timeout: Duration,
    ) -> Option<(Vec<JobEvent>, JobState)> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        loop {
            let job = inner.jobs.get(&id)?;
            if job.last_event_seq > after || job.state.is_settled() {
                let events: Vec<JobEvent> = job
                    .events
                    .iter()
                    .filter(|e| e.seq > after)
                    .cloned()
                    .collect();
                return Some((events, job.state.clone()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Some((Vec::new(), job.state.clone()));
            }
            let (guard, _) = self
                .job_done
                .wait_timeout(inner, deadline - now)
                .expect("scheduler poisoned");
            inner = guard;
        }
    }

    /// Begins a graceful shutdown: admissions stop, queued jobs pause
    /// in place, running slices finish and checkpoint to `Paused`.
    pub fn begin_shutdown(&self) {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        inner.shutdown = true;
        let mut drained: Vec<u64> = Vec::new();
        for q in inner.queues.values_mut() {
            drained.extend(q.drain(..));
        }
        inner.queued = 0;
        for id in drained {
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.state = JobState::Paused;
                job.publish_event(None);
            }
        }
        inner.publish_gauges();
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.lock().expect("scheduler poisoned").shutdown
    }

    /// `(queued, running, settled)` job counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock().expect("scheduler poisoned");
        let mut c = (0, 0, 0);
        for j in inner.jobs.values() {
            match j.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }

    /// Worker-pool thread body: picks jobs fairly, executes one slice,
    /// settles or requeues. Returns when shutdown has begun and no work
    /// remains. Worker panics inside a slice are caught and charged to
    /// the job (or the whole co-executed group), never to the pool
    /// thread.
    ///
    /// With [`ServeConfig::co_slice`] > 1 the worker batches up to that
    /// many co-compatible queued jobs into one lockstep slice executed
    /// through `sgm_train::run_lockstep` — same per-job checkpoints,
    /// one pass through the batched kernels.
    pub fn worker_loop(&self) {
        loop {
            let (group, specs, starts, stop_afters) = {
                let mut inner = self.inner.lock().expect("scheduler poisoned");
                let lead = loop {
                    if let Some(id) = inner.pick() {
                        break id;
                    }
                    if inner.shutdown {
                        return;
                    }
                    inner = self.work_ready.wait(inner).expect("scheduler poisoned");
                };
                let group = inner.pick_co_group(lead, self.cfg.co_slice.max(1));
                // Lockstep requires every member to run the same number
                // of iterations, so the group slice is the shortest
                // remaining stretch (capped by the preemption quantum).
                let steps = group
                    .iter()
                    .map(|id| inner.jobs[id].spec.iterations - inner.jobs[id].iteration)
                    .min()
                    .unwrap_or(0)
                    .min(self.cfg.slice_iterations);
                let mut specs = Vec::with_capacity(group.len());
                let mut starts = Vec::with_capacity(group.len());
                let mut stop_afters = Vec::with_capacity(group.len());
                for &id in &group {
                    let job = inner.jobs.get_mut(&id).expect("picked job exists");
                    job.state = JobState::Running;
                    specs.push(job.spec.clone());
                    starts.push(job.run.clone());
                    stop_afters.push(job.iteration + steps);
                }
                inner.publish_gauges();
                (group, specs, starts, stop_afters)
            };

            let t0 = Instant::now();
            // Per-job outcome: (segment, per-stage timings). Co-executed
            // slices carry no stage attribution; group-level failures
            // (panic or error) are charged to every member.
            type SliceOutcome = Result<(Segment, Option<StageTimes>), (String, bool)>;
            let outcomes: Vec<SliceOutcome> = if group.len() == 1 {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_slice(
                        &specs[0],
                        starts[0].as_ref(),
                        stop_afters[0],
                        self.cfg.parallelism,
                    )
                }));
                vec![match caught {
                    Err(payload) => Err((panic_message(&payload), true)),
                    Ok(Err(msg)) => Err((msg, false)),
                    Ok(Ok((segment, stages))) => Ok((segment, Some(stages))),
                }]
            } else {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_co_slice(&specs, &starts, &stop_afters, self.cfg.parallelism)
                }));
                match caught {
                    Err(payload) => {
                        let msg = panic_message(&payload);
                        group.iter().map(|_| Err((msg.clone(), true))).collect()
                    }
                    Ok(Err(msg)) => group.iter().map(|_| Err((msg.clone(), false))).collect(),
                    Ok(Ok(segments)) => segments.into_iter().map(|s| Ok((s, None))).collect(),
                }
            };
            let elapsed = t0.elapsed();
            SLICE_NS.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);

            let mut inner = self.inner.lock().expect("scheduler poisoned");
            let draining = inner.shutdown;
            let mut requeued = false;
            for (&id, outcome) in group.iter().zip(outcomes) {
                let job = inner.jobs.get_mut(&id).expect("running job exists");
                // Every member is charged the full (shared) slice.
                job.wall_seconds += elapsed.as_secs_f64();
                job.scope.counter("sgm_run_slices_total").inc();
                job.scope
                    .histogram("sgm_run_slice_ns")
                    .record_duration(elapsed);
                job.scope
                    .gauge("sgm_run_wall_seconds")
                    .set(job.wall_seconds);
                let mut requeue = false;
                match outcome {
                    Err((msg, panicked)) => {
                        if panicked {
                            job.state = JobState::Failed(format!("worker panicked: {msg}"));
                            job.scope.counter("sgm_run_worker_panics_total").inc();
                            WORKER_PANICS.inc();
                        } else {
                            job.state = JobState::Failed(msg);
                        }
                        JOBS_FAILED.inc();
                    }
                    Ok((segment, stages)) => {
                        if let Some(stages) = &stages {
                            for s in Stage::ALL {
                                job.stage_ns[s.index()] += stages.total_duration(s).as_nanos();
                                job.stage_counts[s.index()] += stages.count(s);
                            }
                        }
                        if let Some(state) = segment.state {
                            job.iteration = state.iteration;
                            job.run = Some(state);
                        }
                        if let Some(r) = segment.result.history.last() {
                            job.last_loss = Some(r.train_loss);
                            job.scope.gauge("sgm_run_train_loss").set(r.train_loss);
                        }
                        job.scope
                            .gauge("sgm_run_iteration")
                            .set(job.iteration as f64);
                        let budget = job.wall_budget(&self.cfg);
                        if job.cancel {
                            job.state = JobState::Cancelled;
                            JOBS_CANCELLED.inc();
                        } else if job.iteration >= job.spec.iterations {
                            job.state = JobState::Completed;
                            JOBS_COMPLETED.inc();
                        } else if budget.is_some_and(|b| job.wall_seconds > b) {
                            job.state = JobState::Evicted(format!(
                                "wall budget {}s exceeded ({:.3}s used at iteration {})",
                                budget.unwrap_or(0.0),
                                job.wall_seconds,
                                job.iteration
                            ));
                            JOBS_EVICTED.inc();
                        } else if draining {
                            job.state = JobState::Paused;
                        } else {
                            job.state = JobState::Queued;
                            requeue = true;
                        }
                    }
                }
                let job = inner.jobs.get_mut(&id).expect("running job exists");
                job.publish_event(Some(elapsed.as_nanos().min(u64::MAX as u128) as u64));
                if requeue {
                    inner.enqueue(id);
                    requeued = true;
                }
            }
            if requeued {
                self.work_ready.notify_one();
            }
            inner.publish_gauges();
            self.job_done.notify_all();
        }
    }
}

/// Whether a job may enter a lockstep co-execution group at all: the
/// spec must be self-compatible (draw-only sampler, no fault injection)
/// and any resume checkpoint must carry no point-set state.
fn co_eligible(job: &Job) -> bool {
    job.spec.co_compatible(&job.spec) && job.run.as_ref().is_none_or(|r| r.points.is_none())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Instantiates the job from its spec for `start`, restores `start` and
/// runs iterations up to `stop_after` under `parallelism` — the single
/// execution path shared by first slices, preempted continuations and
/// client-uploaded warm resumes.
fn run_slice(
    spec: &JobSpec,
    start: Option<&RunState>,
    stop_after: usize,
    parallelism: Parallelism,
) -> Result<(Segment, StageTimes), String> {
    sgm_par::with_parallelism(parallelism, || {
        let mut built = spec.build_from(start)?;
        let model = PinnModel::new(&built.problem, &built.data);
        let mut trainer = Trainer {
            net: &mut built.net,
            model: &model,
        };
        let mut stages = StageTimes::new();
        let mut obs = sgm_train::ObsHook::new();
        let segment = trainer.run_segment(
            built.sampler.as_mut(),
            built.validation.as_ref().map(|v| v as &dyn Validator),
            &built.opts,
            &mut [&mut stages, &mut obs],
            start,
            stop_after,
        )?;
        Ok((segment, stages))
    })
}

/// Instantiates every job in a co-execution group, restores its
/// checkpoint and runs the whole group through the batched lockstep
/// runner in one pass. Each returned [`Segment`] is bit-identical to the
/// one the solo [`run_slice`] path would have produced for that job
/// (under synthetic clocks; measured clocks share the group's iteration
/// timer).
fn run_co_slice(
    specs: &[JobSpec],
    starts: &[Option<RunState>],
    stop_afters: &[usize],
    parallelism: Parallelism,
) -> Result<Vec<Segment>, String> {
    sgm_par::with_parallelism(parallelism, || {
        let mut nets = Vec::with_capacity(specs.len());
        let mut samplers = Vec::with_capacity(specs.len());
        let mut problems = Vec::with_capacity(specs.len());
        let mut validations = Vec::with_capacity(specs.len());
        let mut optses = Vec::with_capacity(specs.len());
        for (spec, start) in specs.iter().zip(starts) {
            let built = spec.build_from(start.as_ref())?;
            nets.push(built.net);
            samplers.push(built.sampler);
            problems.push((built.problem, built.data));
            validations.push(built.validation);
            optses.push(built.opts);
        }
        let models: Vec<PinnModel<'_>> = problems
            .iter()
            .map(|(problem, data)| PinnModel::new(problem, data))
            .collect();
        let mut jobs: Vec<MultiJob<'_>> = nets
            .iter_mut()
            .zip(&models)
            .zip(samplers.iter_mut())
            .zip(&validations)
            .zip(&optses)
            .zip(starts)
            .zip(stop_afters)
            .map(
                |((((((net, model), sampler), validation), opts), start), &stop_after)| MultiJob {
                    net,
                    model,
                    sampler: sampler.as_mut(),
                    validator: validation.as_ref().map(|v| v as &dyn Validator),
                    opts,
                    start: start.as_ref(),
                    stop_after,
                },
            )
            .collect();
        run_lockstep(&mut jobs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn quick_spec(tenant: &str, iterations: usize) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            iterations,
            interior: 64,
            boundary: 16,
            batch_interior: 8,
            batch_boundary: 4,
            hidden_width: 4,
            hidden_layers: 1,
            record_every: 5,
            ..JobSpec::default()
        }
    }

    fn with_workers<R>(cfg: ServeConfig, n: usize, f: impl FnOnce(&Scheduler) -> R) -> R {
        let sched = Arc::new(Scheduler::new(cfg));
        let workers: Vec<_> = (0..n)
            .map(|_| {
                let s = Arc::clone(&sched);
                std::thread::spawn(move || s.worker_loop())
            })
            .collect();
        let out = f(&sched);
        sched.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        out
    }

    #[test]
    fn jobs_complete_and_settle() {
        with_workers(ServeConfig::default(), 2, |sched| {
            let a = sched.submit(quick_spec("a", 25), None).unwrap();
            let b = sched.submit(quick_spec("b", 25), None).unwrap();
            for id in [a, b] {
                let st = sched.wait(id, Duration::from_secs(60)).unwrap();
                assert_eq!(st, JobState::Completed, "job {id}");
            }
            let iters = sched.with_job(a, |j| j.iteration).unwrap();
            assert_eq!(iters, 25);
            assert!(
                sched
                    .with_job(a, |j| j.run.as_ref().map(|r| r.iteration))
                    .unwrap()
                    == Some(25)
            );
        });
    }

    #[test]
    fn backpressure_rejects_over_caps() {
        // No workers: nothing drains the queue.
        let sched = Scheduler::new(ServeConfig {
            max_jobs: 2,
            queue_depth: 8,
            ..ServeConfig::default()
        });
        sched.submit(quick_spec("a", 10), None).unwrap();
        sched.submit(quick_spec("a", 10), None).unwrap();
        let err = sched.submit(quick_spec("a", 10), None).unwrap_err();
        assert!(matches!(err, SubmitError::Busy(_)), "{err:?}");

        let sched = Scheduler::new(ServeConfig {
            max_jobs: 64,
            queue_depth: 1,
            ..ServeConfig::default()
        });
        sched.submit(quick_spec("a", 10), None).unwrap();
        let err = sched.submit(quick_spec("a", 10), None).unwrap_err();
        assert!(matches!(err, SubmitError::Busy(_)), "{err:?}");
    }

    #[test]
    fn iteration_cap_is_policy_not_backpressure() {
        let sched = Scheduler::new(ServeConfig {
            max_iterations: 100,
            ..ServeConfig::default()
        });
        let err = sched.submit(quick_spec("a", 101), None).unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn queued_cancel_settles_immediately() {
        let sched = Scheduler::new(ServeConfig::default());
        let id = sched.submit(quick_spec("a", 10), None).unwrap();
        assert!(sched.cancel(id));
        let st = sched.with_job(id, |j| j.state.clone()).unwrap();
        assert_eq!(st, JobState::Cancelled);
        assert_eq!(sched.counts().0, 0);
        assert!(!sched.cancel(999), "unknown id");
    }

    #[test]
    fn shutdown_pauses_queued_jobs_and_stops_workers() {
        let sched = Arc::new(Scheduler::new(ServeConfig::default()));
        let id = sched.submit(quick_spec("a", 10), None).unwrap();
        sched.begin_shutdown();
        let st = sched.with_job(id, |j| j.state.clone()).unwrap();
        assert_eq!(st, JobState::Paused);
        assert!(matches!(
            sched.submit(quick_spec("a", 5), None),
            Err(SubmitError::Draining)
        ));
        // A worker started after shutdown exits immediately.
        let s = Arc::clone(&sched);
        std::thread::spawn(move || s.worker_loop()).join().unwrap();
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let sched = Scheduler::new(ServeConfig::default());
        let ids: Vec<u64> = (0..6)
            .map(|i| {
                let tenant = if i < 4 { "big" } else { "small" };
                sched.submit(quick_spec(tenant, 10), None).unwrap()
            })
            .collect();
        let picked: Vec<u64> = {
            let mut lock = sched.inner.lock().unwrap();
            (0..6).map(|_| lock.pick().unwrap()).collect()
        };
        // big, small alternate until small drains: b s b s b b.
        assert_eq!(picked, vec![ids[0], ids[4], ids[1], ids[5], ids[2], ids[3]]);
    }

    #[test]
    fn worker_panic_fails_job_but_pool_survives() {
        let before = WORKER_PANICS.value();
        with_workers(ServeConfig::default(), 1, |sched| {
            let mut spec = quick_spec("a", 20);
            spec.panic_at_iteration = Some(3);
            let bad = sched.submit(spec, None).unwrap();
            let good = sched.submit(quick_spec("b", 15), None).unwrap();
            let st = sched.wait(bad, Duration::from_secs(60)).unwrap();
            assert!(
                matches!(st, JobState::Failed(ref m) if m.contains("panicked")),
                "{st:?}"
            );
            // Same single worker thread goes on to finish the next job.
            let st = sched.wait(good, Duration::from_secs(60)).unwrap();
            assert_eq!(st, JobState::Completed);
        });
        assert!(WORKER_PANICS.value() > before);
    }

    #[test]
    fn wall_budget_evicts_unfinished_jobs() {
        with_workers(ServeConfig::default(), 1, |sched| {
            let mut spec = quick_spec("a", 10_000);
            spec.max_wall_seconds = Some(1e-9);
            let id = sched.submit(spec, None).unwrap();
            let st = sched.wait(id, Duration::from_secs(60)).unwrap();
            assert!(matches!(st, JobState::Evicted(_)), "{st:?}");
            let (run, iter) = sched
                .with_job(id, |j| (j.run.is_some(), j.iteration))
                .unwrap();
            assert!(run && iter > 0, "evicted job keeps its checkpoint");
        });
    }

    #[test]
    fn co_group_pops_compatible_jobs_across_tenants() {
        let sched = Scheduler::new(ServeConfig {
            co_slice: 4,
            ..ServeConfig::default()
        });
        let a = sched.submit(quick_spec("a", 20), None).unwrap();
        let b = sched.submit(quick_spec("b", 30), None).unwrap(); // compatible, other tenant
        let mut wide = quick_spec("a", 20);
        wide.hidden_width = 6;
        let c = sched.submit(wide, None).unwrap(); // different arch
        let mut adaptive = quick_spec("b", 20);
        adaptive.sampler = "rad".into();
        let d = sched.submit(adaptive, None).unwrap(); // point-adaptive
        let mut mis = quick_spec("c", 40);
        mis.sampler = "mis".into();
        let e = sched.submit(mis, None).unwrap(); // compatible, draw-only

        let mut inner = sched.inner.lock().unwrap();
        let lead = inner.pick().unwrap();
        assert_eq!(lead, a);
        let group = inner.pick_co_group(lead, 4);
        assert_eq!(group, vec![a, b, e]);
        // The incompatible jobs are still queued, in order.
        assert_eq!(inner.queued, 2);
        assert_eq!(inner.pick(), Some(d));
        assert_eq!(inner.pick(), Some(c));
    }

    /// A mixed fleet under co-execution: four groupable jobs (three
    /// samplers, four tenants, different seeds/lr/iterations) plus two
    /// ungroupable ones. Every job must complete with a final
    /// checkpoint bit-identical to its solo local run — co-execution is
    /// a throughput optimisation, never a semantic one.
    #[test]
    fn co_executed_jobs_match_local_runs_bitwise() {
        let mut specs = [
            quick_spec("a", 25),
            quick_spec("b", 40),
            quick_spec("c", 25),
            quick_spec("a", 20),
            quick_spec("b", 20),
            quick_spec("d", 30),
        ];
        specs[1].lr = 1e-3;
        specs[1].train_seed = 9;
        specs[2].sampler = "mis".into();
        specs[2].net_seed = 17;
        specs[3].hidden_width = 6; // never groups with the others
        specs[4].sampler = "rad".into(); // adaptive: always solo
        specs[5].sampler = "sgm".into(); // restored from its checkpoint
        specs[5].net_seed = 23;
        let local: Vec<RunState> = specs
            .iter()
            .map(|s| crate::spec::run_local(s).unwrap().1)
            .collect();
        let cfg = ServeConfig {
            co_slice: 4,
            slice_iterations: 7,
            ..ServeConfig::default()
        };
        with_workers(cfg, 1, |sched| {
            let ids: Vec<u64> = specs
                .iter()
                .map(|s| sched.submit(s.clone(), None).unwrap())
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                let st = sched.wait(id, Duration::from_secs(120)).unwrap();
                assert_eq!(st, JobState::Completed, "job {i}");
                let run = sched.with_job(id, |j| j.run.clone()).unwrap().unwrap();
                assert_eq!(
                    run.to_json().unwrap(),
                    local[i].to_json().unwrap(),
                    "job {i}: server checkpoint diverged from local run"
                );
            }
        });
    }

    #[test]
    fn resume_submission_rejects_spent_checkpoints() {
        with_workers(ServeConfig::default(), 1, |sched| {
            let id = sched.submit(quick_spec("a", 10), None).unwrap();
            sched.wait(id, Duration::from_secs(60)).unwrap();
            let state = sched.with_job(id, |j| j.run.clone()).unwrap().unwrap();
            let err = sched.submit(quick_spec("a", 10), Some(state)).unwrap_err();
            assert!(matches!(err, SubmitError::Invalid(_)), "{err:?}");
        });
    }
}
