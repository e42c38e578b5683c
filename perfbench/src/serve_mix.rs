//! The job-server workload: an in-process `sgm_serve::Server` driven
//! through real sockets by a closed-loop client mix.
//!
//! Two clients each keep four jobs in flight (one blocking slot per
//! in-flight job, as a client with a blocking API must), across four
//! tenants. Jobs cycle through the `sgm`, `uniform` and `mis` samplers
//! on `poisson-sine`. The scheduler rebuilds every job from its spec
//! each slice, so SGM's graph build sits on the critical path many
//! times per job, unlike the training workloads' few background
//! rebuilds.

use crate::traced;
use crate::{
    cpu_seconds, history_hash, mean_error, median, peak_rss_mb, quantile, Args, Check, Report,
};
use sgm_json::Value;
use sgm_serve::{client, run_local, JobSpec, ServeConfig, Server};
use sgm_train::Record;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-layer metrics only this workload produces.
pub const SERVE_LAYER_METRICS: [&str; 11] = [
    "serve.submit_ms_p50",
    "serve.queue_wait_s",
    "serve.slice_overhead_s",
    "serve.train_share",
    "serve.sgm_busy_share",
    "serve.build_ms.sgm",
    "serve.build_ms.uniform",
    "serve.build_ms.mis",
    "serve.slices",
    "serve.jobs_failed",
    "serve.rejected",
];

const KINDS: [&str; 3] = ["sgm", "uniform", "mis"];
const TENANTS: usize = 4;
const CLIENTS: usize = 2;
const IN_FLIGHT: usize = 4;
/// Jobs per run: p90 then has ten samples beyond it.
const JOBS: usize = 100;
/// Validation error a job counts as accurate at. Every job starts near
/// 1 (a near-zero network) and about 95 % of jobs get there, mostly
/// between iterations 30 and 55; the rest are censored at their last
/// record.
const TARGET: f64 = 0.7;

/// The job shape. 4096 interior points on `poisson-sine` put SGM's
/// per-slice `JobSpec::build` (kNN + ER + LRD) at 40–80 ms on a 2-vCPU
/// host. The network and batch make a slice's ten iterations cost about
/// 40 % of that build, so SGM jobs, a third of the jobs, take ~64 % of
/// worker busy time (`serve.sgm_busy_share`). Sixty iterations fit 100 jobs into
/// about 15 s on two workers; the learning rate is the one at which
/// such short jobs still train (median final error ~0.5). Everything
/// else is `JobSpec::default()`.
fn base_spec(kind: &str) -> JobSpec {
    JobSpec {
        preset: "poisson-sine".into(),
        interior: 4096,
        boundary: 256,
        validation_grid: 16,
        hidden_width: 32,
        hidden_layers: 3,
        sampler: kind.into(),
        iterations: 60,
        batch_interior: 256,
        batch_boundary: 64,
        lr: 2e-2,
        record_every: 5,
        ..JobSpec::default()
    }
}

/// The seed feeds only the jobs' data seeds. Job specs travel as JSON
/// numbers, so a data seed must stay below 2^53 to arrive intact.
fn data_seed(seed: u64, job: usize) -> u64 {
    ((seed & 0xFFFF_FFFF) << 20) | (job as u64 & 0xF_FFFF)
}

fn job_spec(seed: u64, i: usize) -> JobSpec {
    JobSpec {
        tenant: format!("tenant-{}", i % TENANTS),
        data_seed: data_seed(seed, i),
        net_seed: 3 + i as u64,
        train_seed: 1 + i as u64,
        ..base_spec(KINDS[i % KINDS.len()])
    }
}

/// Warm-up jobs, one per sampler kind; their checkpoints are compared
/// with `run_local`.
fn warmup_spec(seed: u64, kind_index: usize) -> JobSpec {
    JobSpec {
        tenant: "warmup".into(),
        data_seed: data_seed(seed, 0xF_FFFF - kind_index),
        ..base_spec(KINDS[kind_index])
    }
}

struct Started {
    server: Server,
    warmups: Vec<(JobSpec, u64)>,
}

fn start(args: &Args) -> Result<Started, String> {
    let server = Server::start(ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let mut warmups = Vec::new();
    for k in 0..KINDS.len() {
        let spec = warmup_spec(args.seed, k);
        let id = client::submit(addr, &spec).map_err(|(s, m)| format!("warm-up {s}: {m}"))?;
        warmups.push((spec, id));
    }
    for (_, id) in &warmups {
        let st = client::wait_settled(addr, *id, Duration::from_secs(120))?;
        if st.req_str("state").ok() != Some("completed") {
            return Err(format!("warm-up job {id} ended {:?}", st.get("state")));
        }
    }
    Ok(Started { server, warmups })
}

/// `setup` mode.
pub fn setup_only(args: &Args, started: Instant) -> f64 {
    let s = start(args).unwrap_or_else(|e| {
        eprintln!("perfbench: serve_mix set-up failed: {e}");
        std::process::exit(1)
    });
    let setup_s = started.elapsed().as_secs_f64();
    s.server.shutdown_and_join();
    setup_s
}

/// One job as the client saw it.
struct Outcome {
    job: usize,
    id: Option<u64>,
    submit_ms: f64,
    latency_s: f64,
    settled_at: f64,
    state: String,
    /// HTTP status of a refused submit (0 when accepted).
    refused: u16,
    status: Option<Value>,
}

fn run_slot(
    addr: SocketAddr,
    seed: u64,
    next: &AtomicUsize,
    jobs: usize,
    t_start: Instant,
    out: &Mutex<Vec<Outcome>>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= jobs {
            return;
        }
        let spec = job_spec(seed, i);
        let t0 = Instant::now();
        let submitted = client::submit(addr, &spec);
        let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut o = Outcome {
            job: i,
            id: None,
            submit_ms,
            latency_s: 0.0,
            settled_at: 0.0,
            state: String::new(),
            refused: 0,
            status: None,
        };
        match submitted {
            Ok(id) => {
                o.id = Some(id);
                match client::wait_settled(addr, id, Duration::from_secs(150)) {
                    Ok(st) => {
                        o.state = st.req_str("state").unwrap_or("?").to_string();
                        o.status = Some(st);
                    }
                    Err(e) => o.state = format!("wait failed: {e}"),
                }
            }
            Err((code, msg)) => {
                o.refused = code;
                o.state = format!("refused {code}: {msg}");
            }
        }
        o.latency_s = t0.elapsed().as_secs_f64();
        o.settled_at = t_start.elapsed().as_secs_f64();
        out.lock().expect("outcome list poisoned").push(o);
    }
}

fn stage_ns(status: &Value, stage: &str) -> f64 {
    status
        .get("stages")
        .and_then(|s| s.get(stage))
        .and_then(|s| s.get("ns"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Measured training seconds of a job: its training stages, summed over
/// slices. A job submitted over HTTP always runs on the engine's
/// synthetic clock (a null `synthetic_dt` parses as the default), so the
/// status `train_seconds` and the record clocks count iterations, not
/// time; the stage durations are measured either way.
fn train_seconds(status: &Value) -> f64 {
    TRAIN_STAGES
        .iter()
        .map(|s| stage_ns(status, s))
        .sum::<f64>()
        * 1e-9
}

const TRAIN_STAGES: [&str; 6] = ["refresh", "adapt", "draw", "gather", "loss_grad", "step"];

fn slices(status: &Value) -> f64 {
    status
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(Value::as_arr)
        .and_then(|arr| {
            arr.iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some("sgm_run_slices_total"))
        })
        .and_then(|e| e.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Byte equality, except that SGM's sampler state records wall-clock
/// statistics (`refresh_seconds`, `last_rebuild_seconds`,
/// `last_patch_seconds`) that no two runs share; those are dropped
/// before comparing everything else exactly.
fn same_checkpoint(got: &str, want: &str) -> bool {
    let strip = |text: &str| {
        let mut v = Value::parse(text).ok()?;
        if let Value::Obj(top) = &mut v {
            if top.get("sampler_name").and_then(Value::as_str) == Some("sgm") {
                if let Some(Value::Obj(state)) = top.get_mut("sampler_state") {
                    state.retain(|k, _| !k.ends_with("_seconds"));
                }
            }
        }
        Some(v)
    };
    got == want || matches!((strip(got), strip(want)), (Some(a), Some(b)) if a == b)
}

/// `run` mode.
pub fn run(args: &Args, started: Instant) -> (f64, Report) {
    let s = start(args).unwrap_or_else(|e| {
        eprintln!("perfbench: serve_mix set-up failed: {e}");
        std::process::exit(1)
    });
    let setup_s = started.elapsed().as_secs_f64();
    let addr = s.server.addr();
    let jobs = JOBS;

    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(jobs));
    let cpu0 = cpu_seconds();
    let t_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS * IN_FLIGHT {
            scope.spawn(|| run_slot(addr, args.seed, &next, jobs, t_start, &outcomes));
        }
    });
    let cpu_s = cpu_seconds() - cpu0;
    let rss_mb = peak_rss_mb();
    let mut outcomes = outcomes.into_inner().expect("outcome list poisoned");
    outcomes.sort_by_key(|o| o.job);
    let wall_s = outcomes.iter().map(|o| o.settled_at).fold(0.0, f64::max);

    // Outside the timed phase: histories, checks, replays.
    let mut report = Report {
        target: TARGET,
        target_window: 1,
        operations: jobs,
        ..Report::default()
    };
    let completed = outcomes.iter().filter(|o| o.state == "completed").count();
    report.operations_failed = jobs - completed;
    let server_errors = outcomes.iter().filter(|o| o.refused >= 500).count();
    let rejected = outcomes.iter().filter(|o| o.refused == 429).count();
    report.checks.push(Check::new(
        "jobs_completed",
        completed == jobs && server_errors == 0,
        format!("{completed}/{jobs} completed, {server_errors} 5xx, {rejected} 429"),
    ));

    let sched = s.server.scheduler();
    let histories: Vec<Vec<Record>> = outcomes
        .iter()
        .map(|o| {
            o.id.and_then(|id| sched.with_job(id, |j| j.run.as_ref().map(|r| r.history.clone())))
                .flatten()
                .unwrap_or_default()
        })
        .collect();
    let finite = histories.iter().all(|h| {
        !h.is_empty()
            && h.iter()
                .all(|r| r.train_loss.is_finite() && r.val_errors.iter().all(|e| e.is_finite()))
    });
    report
        .checks
        .push(Check::new("history_finite", finite, format!("{jobs} jobs")));
    // Per job: iteration of the first record at the target (or of the
    // last record when the job never got there), and the measured
    // training time up to it, pro rata to the job's training stages.
    let to_target: Vec<(f64, f64)> = outcomes
        .iter()
        .zip(&histories)
        .filter_map(|(o, h)| {
            let rec = h.iter().find(|r| mean_error(r) <= TARGET).or(h.last())?;
            let iters = job_spec(args.seed, o.job).iterations as f64;
            let train_s = o.status.as_ref().map_or(0.0, train_seconds);
            let done = rec.iteration as f64 + 1.0;
            Some((train_s * done / iters, rec.iteration as f64))
        })
        .collect();
    let final_errors: Vec<f64> = histories
        .iter()
        .filter_map(|h| h.last().map(mean_error))
        .collect();
    report.history_hashes = vec![history_hash(histories.iter().map(Vec::as_slice))];

    // One job per sampler kind: the served checkpoint must equal the
    // reference executor's.
    for (spec, id) in &s.warmups {
        let got = client::checkpoint(addr, *id);
        let want = run_local(spec).and_then(|(_, st)| st.to_json().map_err(|e| e.to_string()));
        let ok = matches!((&got, &want), (Ok(g), Ok(w)) if same_checkpoint(g, w));
        report.checks.push(Check::new(
            "checkpoint_matches_local",
            ok,
            format!("{} job {id}", spec.sampler),
        ));
    }

    let latencies_ms: Vec<f64> = outcomes.iter().map(|o| o.latency_s * 1e3).collect();
    let job_iters: f64 = outcomes
        .iter()
        .filter(|o| o.state == "completed")
        .map(|o| job_spec(args.seed, o.job).iterations as f64)
        .sum();
    report.end_to_end = vec![
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("train_iters_per_s", job_iters / wall_s),
        ("time_to_target_s", to_target.iter().map(|t| t.0).sum()),
        ("iters_to_target", to_target.iter().map(|t| t.1).sum()),
        (
            "final_val_error",
            final_errors.iter().sum::<f64>() / final_errors.len().max(1) as f64,
        ),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", rss_mb),
        ("jobs_per_s", completed as f64 / wall_s),
        ("job_latency_p50_ms", quantile(&latencies_ms, 0.5)),
        ("job_latency_p90_ms", quantile(&latencies_ms, 0.9)),
    ];

    if args.trace {
        report.per_layer = per_layer(
            args,
            &outcomes,
            wall_s,
            cpu_s,
            job_iters,
            rejected,
            &mut report.checks,
        );
    }
    s.server.shutdown_and_join();
    (setup_s, report)
}

fn per_layer(
    args: &Args,
    outcomes: &[Outcome],
    wall_s: f64,
    cpu_s: f64,
    job_iters: f64,
    rejected: usize,
    checks: &mut Vec<Check>,
) -> Vec<(&'static str, f64)> {
    let statuses: Vec<&Value> = outcomes.iter().filter_map(|o| o.status.as_ref()).collect();
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let job_wall: f64 = statuses.iter().map(|v| num(v, "wall_seconds")).sum();
    let job_train: f64 = statuses.iter().map(|v| train_seconds(v)).sum();
    let stage_s = |name: &str| statuses.iter().map(|v| stage_ns(v, name)).sum::<f64>() * 1e-9;
    let stage_sum = job_train + stage_s("record");
    // Worker busy time (Σ job wall) splits into the engine's stages and
    // the slice overhead around them: spec rebuild, state restore and
    // capture.
    let unaccounted = job_wall - stage_sum;
    checks.push(Check::new(
        "stage_accounting",
        unaccounted >= 0.0,
        format!("stages {stage_sum:.4}s + unaccounted {unaccounted:.4}s = job wall {job_wall:.4}s"),
    ));
    let queue_wait: f64 = outcomes
        .iter()
        .filter_map(|o| {
            o.status
                .as_ref()
                .map(|v| o.latency_s - num(v, "wall_seconds"))
        })
        .sum();
    let submit_ms: Vec<f64> = outcomes.iter().map(|o| o.submit_ms).collect();
    let sgm_wall: f64 = outcomes
        .iter()
        .filter(|o| KINDS[o.job % KINDS.len()] == "sgm")
        .filter_map(|o| o.status.as_ref().map(|v| num(v, "wall_seconds")))
        .sum();

    let build_ms = |kind_index: usize| {
        let spec = job_spec(args.seed, kind_index);
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(spec.build().expect("benchmark spec builds"));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    let sgm_ms = build_ms(0);
    let uniform_ms = build_ms(1);
    let mis_ms = build_ms(2);

    // The graph the scheduler builds for every SGM slice (the config
    // `JobSpec::build` gives the `sgm` sampler: k = 8, at least 8
    // clusters, `SgmConfig` defaults otherwise; the replay must give
    // the built sampler's clustering), and the network kernels at the
    // jobs' batch shape.
    let built = job_spec(args.seed, 0)
        .build()
        .expect("benchmark spec builds");
    let graph = traced::replay_graph(
        &built.data.interior,
        &sgm_graph::knn::KnnConfig {
            k: 8,
            strategy: sgm_graph::knn::KnnStrategy::Grid,
            weight_eps: 1e-9,
            seed: sgm_core::SgmConfig::default().seed,
        },
        &sgm_graph::lrd::LrdConfig {
            level: sgm_core::SgmConfig::default().lrd_level,
            er: sgm_graph::lrd::ErSource::Approx(sgm_graph::resistance::ApproxErOptions {
                seed: sgm_core::SgmConfig::default().seed,
                ..Default::default()
            }),
            budget_scale: 1.0,
            max_cluster_frac: sgm_core::SgmConfig::default().max_cluster_frac,
            min_clusters: 8,
        },
    );
    let served: Option<Vec<u32>> = built
        .sampler
        .save_state()
        .get("assignment")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Value::as_f64)
                .map(|c| c as u32)
                .collect()
        });
    checks.push(Check::new(
        "graph_replay_matches_sampler",
        served.as_ref() == Some(&graph.assignment),
        format!("{} clusters replayed", graph.clusters),
    ));
    let spec0 = job_spec(args.seed, 0);
    let idx: Vec<usize> = (0..spec0.batch_interior).collect();
    let xb = sgm_physics::problem::Problem::gather(&built.data.interior, &idx);
    let diff_dims = built.problem.pde.diff_dims();
    let nn = traced::replay_nn(&built.net, &xb, &diff_dims, 200);
    let flops = traced::flops_per_iter(
        &built.net,
        spec0.batch_interior,
        spec0.batch_boundary,
        diff_dims.len(),
    );
    let loss_grad_s = stage_s("loss_grad");

    let mut out: Vec<(&'static str, f64)> = vec![
        ("train.refresh_s", stage_s("refresh")),
        ("train.adapt_s", stage_s("adapt")),
        ("train.draw_s", stage_s("draw")),
        ("train.gather_s", stage_s("gather")),
        ("train.loss_grad_s", loss_grad_s),
        ("train.step_s", stage_s("step")),
        ("train.record_s", stage_s("record")),
        ("train.unaccounted_s", unaccounted),
    ];
    // The samplers live inside the server; their counters and the
    // rebuild thread are not observable from a client.
    out.extend(traced::zeros(&[
        "core.score_refreshes",
        "core.probe_evals",
        "core.probe_s",
        "core.refresh_self_s",
        "core.rebuilds",
        "core.rebuilds_applied",
        "core.stale_epochs",
        "core.rebuild_busy_s",
        "core.rebuild_lag_iters",
    ]));
    out.extend([
        ("graph.knn_s", graph.knn_s),
        ("graph.er_s", graph.er_s),
        ("graph.lrd_s", graph.lrd_s),
        ("graph.edges", graph.edges as f64),
        ("graph.clusters", graph.clusters as f64),
        ("stability.isr_s", 0.0),
        // The record stage is the validation pass at each record.
        ("physics.val_errors_s", stage_s("record")),
        ("physics.flops_per_iter", flops),
        ("nn.forward_derivs_us", nn.forward_derivs_us),
        ("nn.backward_us", nn.backward_us),
        ("nn.adam_step_us", nn.adam_step_us),
        (
            "linalg.loss_grad_gflops",
            flops * job_iters / loss_grad_s / 1e9,
        ),
        ("par.cpu_per_wall", cpu_s / wall_s),
        ("cfd.ldc_solve_s", 0.0),
        ("serve.submit_ms_p50", median(&submit_ms)),
        ("serve.queue_wait_s", queue_wait),
        (
            "serve.slice_overhead_s",
            job_wall - job_train - stage_s("record"),
        ),
        ("serve.train_share", job_train / job_wall),
        ("serve.sgm_busy_share", sgm_wall / job_wall),
        ("serve.build_ms.sgm", sgm_ms),
        ("serve.build_ms.uniform", uniform_ms),
        ("serve.build_ms.mis", mis_ms),
        ("serve.slices", statuses.iter().map(|v| slices(v)).sum()),
        (
            "serve.jobs_failed",
            outcomes.iter().filter(|o| o.state != "completed").count() as f64,
        ),
        ("serve.rejected", rejected as f64),
    ]);
    out
}
