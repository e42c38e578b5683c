#!/bin/bash
# Regenerates every experiment artifact sequentially (single-core safe).
#
# Usage: ./run_experiments.sh [--quick|--samplers-quick|--serve-quick]
#   --quick           smoke mode: tiny wall budgets + bench dry-run, just
#                     proves the whole pipeline still executes end to end.
#   --samplers-quick  only the sampler bake-off tier: the cross-sampler ×
#                     cross-PDE convergence matrix (gated on its
#                     statistical acceptance checks) plus the
#                     sampler_overhead bench group diffed with
#                     bench_diff --strict (idle adapt stage must cost
#                     within noise of a draw-only engine run).
#   --serve-quick     smoke the job server: 25 quickstart-sized jobs from
#                     4 tenants through real sockets (fairness +
#                     backpressure asserted in-binary), telemetry
#                     schema-checked by validate_telemetry.
cd /root/repo
if [ "$1" = "--serve-quick" ]; then
    set -x
    cargo build --release -p sgm-serve -p sgm-testkit 2>&1 | tail -3
    mkdir -p target
    SERVE_LOG="$PWD/target/serve_quick.jsonl"
    # The load test exits non-zero on any dropped connection, unfair
    # tenant split, or missing backpressure. At smoke scale (~6 jobs
    # per tenant in ~50 ms) the throughput ratio is dominated by timing
    # noise, so the fairness bound is loosened here; the real ≤3x gate
    # runs on the 200-job CI tier and the 1000-job acceptance test.
    cargo run --release -p sgm-serve --bin load_test -- \
        --jobs 25 --tenants 4 --workers 2 --queue-depth 8 --max-jobs 16 \
        --fairness-max 25 --out "$SERVE_LOG" || exit 1
    cargo run --release -p sgm-testkit --bin validate_telemetry -- "$SERVE_LOG" \
        --require-metric sgm_serve_jobs_completed_total --min-records 25 || exit 1
    echo "SERVE_QUICK_COMPLETE"
    exit 0
fi
if [ "$1" = "--samplers-quick" ]; then
    set -x
    cargo build --release -p sgm-bench 2>&1 | tail -3
    # Matrix + statistical acceptance gates (non-zero exit on failure).
    cargo run --release -p sgm-bench --bin sampler_matrix || exit 1
    # Adapt-stage overhead: same case names in both dumps, sampler
    # switched by env; --strict fails the tier on a >10 % regression.
    cargo bench -p sgm-bench --bench components -- \
        sampler_overhead/engine_adapt_stage --iters 20 \
        --json "$PWD/target/sampler_adapt_off.json" > target/sampler_adapt_off.txt 2>&1 || exit 1
    SGM_SAMPLER_ADAPT=1 cargo bench -p sgm-bench --bench components -- \
        sampler_overhead/engine_adapt_stage --iters 20 \
        --json "$PWD/target/sampler_adapt_on.json" > target/sampler_adapt_on.txt 2>&1 || exit 1
    cargo run --release -p sgm-bench --bin bench_diff -- --strict \
        target/sampler_adapt_off.json target/sampler_adapt_on.json || exit 1
    echo "SAMPLERS_QUICK_COMPLETE"
    exit 0
fi
if [ "$1" = "--quick" ]; then
    export SGM_BUDGET_SECS=${SGM_BUDGET_SECS:-3}
    export SGM_ABLATION_SECS=${SGM_ABLATION_SECS:-1}
    BENCH_ARGS="--test"
else
    export SGM_BUDGET_SECS=${SGM_BUDGET_SECS:-75}
    export SGM_ABLATION_SECS=${SGM_ABLATION_SECS:-10}
    BENCH_ARGS=""
fi
# Every experiment bin writes one telemetry JSONL per method run here
# (consumed by `run_report` and validated by `validate_telemetry`).
export SGM_RUN_LOG_DIR=${SGM_RUN_LOG_DIR:-$PWD/target/telemetry}
mkdir -p "$SGM_RUN_LOG_DIR"
set -x
cargo build --release --workspace 2>&1 | tail -3
cargo test --release -p sgm-core -p sgm-nn 2>&1 | grep -E "test result|FAILED|error\["
cargo bench -p sgm-bench --bench components -- $BENCH_ARGS > target/bench_output.txt 2>&1 || exit 1
# SIMD kernel group in both dispatch tiers; diff the dumps so a tier
# regression (or a broken fallback) fails the pipeline loudly. The
# --json paths must be absolute: cargo runs bench binaries with the
# package dir (crates/bench) as cwd, not the workspace root.
SGM_SIMD=scalar cargo bench -p sgm-bench --bench components -- $BENCH_ARGS simd_kernels --json "$PWD/target/simd_scalar.json" > target/simd_scalar_output.txt 2>&1 || exit 1
SGM_SIMD=auto   cargo bench -p sgm-bench --bench components -- $BENCH_ARGS simd_kernels --json "$PWD/target/simd_auto.json"   > target/simd_auto_output.txt 2>&1 || exit 1
cargo run --release -p sgm-bench --bin bench_diff -- target/simd_scalar.json target/simd_auto.json > target/simd_diff.txt 2>&1 || exit 1
# Batched multi-model execution: the same multi_model cases run B
# sequential solo passes (seq) and one interleaved BatchedMlp pass
# (batched); bench_diff's speedup column is the batched-execution win.
# BENCH_PR9.json keeps the full honest record (B < 8 pads to 8 lanes
# and reads as a slowdown there — see DESIGN.md §6f); the gate runs on
# the lane-full b8_w128 case only, the probe/sweep/serve regime, at a
# noise floor below the ~1.4x it measures. Quick mode dry-runs the
# bench (empty dumps), so the gate only arms on real runs.
if [ -z "$BENCH_ARGS" ]; then
    MULTI_GATE="--min-speedup 1.2"
    MULTI_JSON="$PWD/BENCH_PR9.json"
else
    MULTI_GATE=""
    MULTI_JSON="$PWD/target/multi_diff_quick.json"
fi
SGM_MULTI_MODE=seq     cargo bench -p sgm-bench --bench components -- $BENCH_ARGS multi_model --json "$PWD/target/multi_seq.json"     > target/multi_seq_output.txt 2>&1 || exit 1
SGM_MULTI_MODE=batched cargo bench -p sgm-bench --bench components -- $BENCH_ARGS multi_model --json "$PWD/target/multi_batched.json" > target/multi_batched_output.txt 2>&1 || exit 1
cargo run --release -p sgm-bench --bin bench_diff -- --json "$MULTI_JSON" target/multi_seq.json target/multi_batched.json > target/multi_diff.txt 2>&1 || exit 1
if [ -n "$MULTI_GATE" ]; then
    SGM_MULTI_MODE=seq     cargo bench -p sgm-bench --bench components -- multi_model/fwd_bwd_b8_w128 --iters 15 --json "$PWD/target/multi_seq_b8.json"     > target/multi_seq_b8_output.txt 2>&1 || exit 1
    SGM_MULTI_MODE=batched cargo bench -p sgm-bench --bench components -- multi_model/fwd_bwd_b8_w128 --iters 15 --json "$PWD/target/multi_batched_b8.json" > target/multi_batched_b8_output.txt 2>&1 || exit 1
    cargo run --release -p sgm-bench --bin bench_diff -- $MULTI_GATE target/multi_seq_b8.json target/multi_batched_b8.json > target/multi_gate.txt 2>&1 || exit 1
fi
cargo run --release -p sgm-bench --bin table1   > target/table1_output.txt 2>&1
cargo run --release -p sgm-bench --bin table2   > target/table2_output.txt 2>&1
cargo run --release -p sgm-bench --bin fig2     > target/fig2_output.txt 2>&1
cargo run --release -p sgm-bench --bin fig3     > target/fig3_output.txt 2>&1
cargo run --release -p sgm-bench --bin fig4     > target/fig4_output.txt 2>&1
cargo run --release -p sgm-bench --bin ablation > target/ablation_output.txt 2>&1
# Schema-check whatever telemetry the suites produced (tolerates an
# empty dir on bins that don't route through run_suite).
if ls "$SGM_RUN_LOG_DIR"/*.jsonl >/dev/null 2>&1; then
    cargo run --release -p sgm-testkit --bin validate_telemetry -- "$SGM_RUN_LOG_DIR"/*.jsonl \
        > target/telemetry_validation.txt 2>&1 || exit 1
fi
echo "PIPELINE_COMPLETE"
