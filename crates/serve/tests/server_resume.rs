//! Server-side resume determinism (pattern from
//! `tests/parallel_determinism.rs`).
//!
//! The server's core invariant: a job executed through the server —
//! sliced by the scheduler, preempted, cancelled, checkpointed over
//! HTTP, re-uploaded and resumed — produces a final [`RunState`]
//! **bit-identical** to the same spec run locally in one uninterrupted
//! piece, at every intra-slice thread count {1, 2, 8}.
//!
//! Two stateful draw-only samplers (`mis`, and `sgm`, whose later
//! slices take their clustering from the checkpoint instead of
//! rebuilding the graph) and a point-set-adaptive one (`rad`, RunState
//! v2 with a points checkpoint) are exercised, on a synthetic clock so
//! every timestamp is deterministic.

use sgm_par::Parallelism;
use sgm_serve::{client, run_local, JobSpec, ServeConfig, Server};
use std::time::Duration;

const PARALLELISMS: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

fn spec(sampler: &str) -> JobSpec {
    JobSpec {
        tenant: "determinism".into(),
        sampler: sampler.into(),
        sampler_tau: Some(7), // refresh/adapt inside slices, not only at boundaries
        iterations: 60,
        interior: 128,
        boundary: 32,
        batch_interior: 16,
        batch_boundary: 8,
        hidden_width: 8,
        hidden_layers: 2,
        validation_grid: 6,
        record_every: 9, // off-boundary records cross slice boundaries
        ..JobSpec::default()
    }
}

fn reference_state_json(spec: &JobSpec, p: Parallelism) -> String {
    let (_, state) = sgm_par::with_parallelism(p, || run_local(spec)).expect("local run");
    state.to_json().expect("serialise")
}

#[test]
fn server_sliced_run_matches_local_run_bitwise() {
    for p in PARALLELISMS {
        let server = Server::start(ServeConfig {
            workers: 2,
            slice_iterations: 7, // 60 iterations → 9 preemptions, ragged boundary
            parallelism: p,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        for sampler in ["mis", "sgm", "rad"] {
            let spec = spec(sampler);
            let want = reference_state_json(&spec, p);
            let id = client::submit(addr, &spec).expect("submit");
            let status = client::wait_settled(addr, id, Duration::from_secs(300)).expect("wait");
            assert_eq!(
                status.req_str("state").unwrap(),
                "completed",
                "{sampler} at {p:?}"
            );
            let got = client::checkpoint(addr, id).expect("download checkpoint");
            assert_eq!(
                got, want,
                "{sampler} at {p:?}: server-sliced state diverged from local run"
            );
        }
        assert!(server.shutdown_and_join());
    }
}

#[test]
fn preempt_checkpoint_upload_resume_is_bit_identical() {
    for p in PARALLELISMS {
        let server = Server::start(ServeConfig {
            workers: 2,
            slice_iterations: 5,
            parallelism: p,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        for sampler in ["mis", "sgm", "rad"] {
            let spec = spec(sampler);
            let want = reference_state_json(&spec, p);

            // Run the job partway, then preempt it mid-flight. A tiny
            // wall budget evicts deterministically at the *first*
            // slice boundary, checkpoint in hand — unlike a cancel
            // issued from a polling loop, it cannot race the job to
            // completion on a loaded machine.
            let mut bounded = spec.clone();
            bounded.max_wall_seconds = Some(1e-6);
            let id = client::submit(addr, &bounded).expect("submit");
            let status = client::wait_settled(addr, id, Duration::from_secs(120)).expect("wait");
            assert_eq!(
                status.req_str("state").unwrap(),
                "evicted",
                "{sampler} at {p:?}: expected a mid-flight preemption"
            );
            let mid_iter = status.req_usize("iteration").unwrap();
            assert!(
                mid_iter > 0 && mid_iter < spec.iterations,
                "{sampler} at {p:?}: preempted at {mid_iter}, wanted mid-flight"
            );

            // Download the checkpoint, upload it as a warm resume, run
            // to completion.
            let ckpt = client::checkpoint(addr, id).expect("download");
            let resumed = client::submit_resume(addr, &spec, &ckpt).expect("resume");
            let status =
                client::wait_settled(addr, resumed, Duration::from_secs(300)).expect("wait");
            assert_eq!(status.req_str("state").unwrap(), "completed");
            let got = client::checkpoint(addr, resumed).expect("final checkpoint");
            assert_eq!(
                got, want,
                "{sampler} at {p:?}: resumed-from-iteration-{mid_iter} state \
                 diverged from the uninterrupted local run"
            );
        }
        assert!(server.shutdown_and_join());
    }
}
