#!/usr/bin/env python3
"""SGM-PINN benchmark front end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --report

Run from the repository root. Builds the `perfbench` runner (its own
Cargo package, against the repository's crates), runs the workload's
fixed work in fresh child processes with a pinned environment, checks
the outputs and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The work of each workload is a constant sized for `run_seconds` of
`BENCHMARK.json`, so `--seconds` must equal it. With `--trace 0` the
metrics are the end-to-end metrics; with
`--trace 1` they are the per-layer metrics of a traced run, plus the
tracing overhead against an untraced run made in the same invocation.
Host facts and the record history of every run are written under
`.bench_build/perfbench/`; `--report` prints the paper's headline ratio
(U_large over SGM on the cavity) from those records.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
SPEC = ROOT / "BENCHMARK.json"
RECORDS = ROOT / ".bench_build" / "perfbench"

# The thread split is part of each workload's definition; no run has
# more than two runnable threads.
WORKLOADS = {
    "ldc_sgm": {"threads": "1", "split": "1 training thread + SGM rebuild thread"},
    "ldc_ularge": {"threads": "2", "split": "2-thread sgm-par pool (caller + 1 worker)"},
    "ar_sgms": {"threads": "1", "split": "1 training thread + SGM rebuild thread"},
    "serve_mix": {
        "threads": "1",
        "split": "2 serve workers (serial slices) + 8 blocking client slots",
    },
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_iters_per_s": "1/s",
    "time_to_target_s": "s",
    "iters_to_target": "count",
    "final_val_error": "1",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "jobs_per_s": "1/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
}

PER_LAYER = {
    "train.refresh_s": "s",
    "train.adapt_s": "s",
    "train.draw_s": "s",
    "train.gather_s": "s",
    "train.loss_grad_s": "s",
    "train.step_s": "s",
    "train.record_s": "s",
    "train.unaccounted_s": "s",
    "core.score_refreshes": "count",
    "core.probe_evals": "count",
    "core.probe_s": "s",
    "core.refresh_self_s": "s",
    "core.rebuilds": "count",
    "core.rebuilds_applied": "count",
    "core.stale_epochs": "count",
    "core.rebuild_busy_s": "s",
    "core.rebuild_lag_iters": "count",
    "graph.knn_s": "s",
    "graph.er_s": "s",
    "graph.lrd_s": "s",
    "graph.edges": "count",
    "graph.clusters": "count",
    "stability.isr_s": "s",
    "physics.val_errors_s": "s",
    "physics.flops_per_iter": "flop",
    "nn.forward_derivs_us": "us",
    "nn.backward_us": "us",
    "nn.adam_step_us": "us",
    "linalg.loss_grad_gflops": "GFLOP/s",
    "par.cpu_per_wall": "ratio",
    "cfd.ldc_solve_s": "s",
    "serve.submit_ms_p50": "ms",
    "serve.queue_wait_s": "s",
    "serve.slice_overhead_s": "s",
    "serve.train_share": "ratio",
    "serve.sgm_busy_share": "ratio",
    "serve.build_ms.sgm": "ms",
    "serve.build_ms.uniform": "ms",
    "serve.build_ms.mis": "ms",
    "serve.slices": "count",
    "serve.jobs_failed": "count",
    "serve.rejected": "count",
    "bench.trace_overhead_frac": "ratio",
}

# Set-up runs per measurement (the measured run's own set-up included);
# `setup_s` is their median.
SETUP_RUNS = 3
# Whole invocation, first build excluded.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError(f"build failed with exit code {r.returncode}")
    return target_dir() / "release" / "perfbench"


def run_seconds():
    """`run_seconds` of BENCHMARK.json, the one duration the work is
    sized for."""
    try:
        return json.loads(SPEC.read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read run_seconds from {SPEC.name}: {e}")


def child_env(workload):
    """The parent environment without any SGM_* variable, plus the
    workload's pinned thread count and SIMD dispatch."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGM_")}
    env["SGM_NUM_THREADS"] = WORKLOADS[workload]["threads"]
    env["SGM_SIMD"] = "auto"
    return env


def run_child(binary, args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before " + " ".join(args[:1]))
    try:
        r = subprocess.run([str(binary)] + args, cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} timed out")
    if r.returncode != 0:
        raise BenchError(f"child {args} exited with {r.returncode}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"child {args} printed nothing")
    return json.loads(lines[-1])


def commit_id():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def source_hash():
    """Identifies the program and the benchmark by their sources, which
    also covers uncommitted edits and checkouts without git."""
    h = hashlib.sha256()
    files = [p for d in ("crates", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and p.suffix in (".rs", ".toml")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def history_check(args, result, source):
    """Same sources, workload, seed and SIMD tier must give the same
    record history in every run; the first run records it."""
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / "history_hashes.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{source}/{args.workload}/seed={args.seed}/tier={result['simd_tier']}"
    got = ",".join(result["history_hashes"])
    want = known.setdefault(key, got)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return {"name": "history_repeats", "ok": got == want,
            "detail": f"{got} (first seen {want})"}


def write_record(args, host, results, summary):
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps({"args": vars(args), "host": host,
                                "summary": summary, "runs": results}, indent=1))


def crossing(history, target, window):
    """First record `[iteration, seconds, loss, error]` whose error,
    averaged over the records of the last `window` iterations, is at or
    below `target` (the runner's rule)."""
    for i, rec in enumerate(history):
        recent = [r[3] for r in history[:i + 1] if rec[0] - r[0] < max(window, 1)]
        if sum(recent) / len(recent) <= target:
            return rec
    return None


def headline():
    """Table 1's figure: U_large over SGM on the cavity, in training time
    and iterations to U_large's target error, per seed with both
    records."""
    lines = []
    for u_path in sorted(RECORDS.glob("ldc_ularge-seed*-trace0.json")):
        seed = u_path.name.split("-seed")[1].split("-")[0]
        s_path = RECORDS / f"ldc_sgm-seed{seed}-trace0.json"
        if not s_path.exists():
            continue
        u = json.loads(u_path.read_text())["runs"][-1]
        s = json.loads(s_path.read_text())["runs"][-1]
        target, window = u["target"], u["target_window"]
        u_hit = crossing(u["history"], target, window)
        s_hit = crossing(s["history"], target, window)
        if u_hit is None or s_hit is None:
            lines.append(f"seed {seed}: target {target} not reached by "
                         f"{'U_large' if u_hit is None else 'SGM'}")
            continue
        lines.append(
            f"seed {seed}: at error {target}: U_large {u_hit[1]:.2f}s/{u_hit[0]:.0f} it, "
            f"SGM {s_hit[1]:.2f}s/{s_hit[0]:.0f} it -> time ratio {u_hit[1] / s_hit[1]:.2f}x, "
            f"iteration ratio {u_hit[0] / max(s_hit[0], 1):.2f}x")
    return lines


def measure(args, binary, deadline):
    env = child_env(args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    host = {
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "source_hash": source_hash(),
        "thread_split": WORKLOADS[args.workload]["split"],
        "sgm_num_threads": env["SGM_NUM_THREADS"],
        "calibrate_s": run_child(binary, ["calibrate"], env, deadline)["calibrate_s"],
    }
    checks, results = [], []
    if not args.trace:
        setups = [run_child(binary, ["setup"] + common, env, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        main = run_child(binary, ["run"] + common + ["--trace", "0"], env, deadline)
        results.append(main)
        setups.append(main["setup_s"])
        metrics = dict(main["end_to_end"], setup_s=statistics.median(setups))
        host["setup_runs_s"] = setups
        names = END_TO_END
    else:
        plain = run_child(binary, ["run"] + common + ["--trace", "0"], env, deadline)
        traced = run_child(binary, ["run"] + common + ["--trace", "1"], env, deadline)
        results += [plain, traced]
        metrics = dict(traced["per_layer"])
        # Per training: the traced run trains once, the untraced one
        # once per history hash (ar_sgms trains several seeds).
        plain_wall = plain["end_to_end"]["wall_s"] / len(plain["history_hashes"])
        metrics["bench.trace_overhead_frac"] = traced["end_to_end"]["wall_s"] / plain_wall - 1.0
        first, got = plain["history_hashes"][0], traced["history_hashes"][0]
        checks.append({"name": "traced_history_matches_untraced", "ok": first == got,
                       "detail": f"{first} vs {got}"})
        names = PER_LAYER
    host["simd_tier"] = results[0]["simd_tier"]
    for r in results:
        checks += r["checks"]
    checks.append(history_check(args, results[0], host["source_hash"]))
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"runner did not report {missing}")
    broken = [n for n in names if not math.isfinite(metrics[n])]
    if broken:
        raise BenchError(f"runner reported non-finite {broken}")
    operations = results[-1]["operations"]
    failed_ops = results[-1]["operations_failed"]
    failed_checks = [c for c in checks if not c["ok"]]
    for c in failed_checks:
        log(f"check failed: {c['name']}: {c['detail']}")
    summary = {
        "correct": not failed_checks and failed_ops == 0,
        "attempted": len(checks) + operations,
        "failed": len(failed_checks) + failed_ops,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names.items()},
    }
    write_record(args, host, results, summary)
    return host, summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="print the headline ratio from the written records")
    args = p.parse_args()
    if args.report:
        for line in headline() or ["no paired ldc_sgm/ldc_ularge records yet"]:
            print(line)
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    try:
        if args.seconds != run_seconds():
            raise BenchError(f"--seconds {args.seconds}: the workloads' fixed work "
                             f"is sized for run_seconds = {run_seconds()} only")
        binary = build()
        deadline = time.monotonic() + DEADLINE_S
        host, summary = measure(args, binary, deadline)
    except (BenchError, json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print("# host " + json.dumps(host, sort_keys=True))
    if args.workload.startswith("ldc_"):
        for line in headline():
            print("# headline " + line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
