//! Pins how often a server-sliced SGM job builds its graph, by count
//! rather than by timing: the kNN graph and clustering are built once,
//! in the job's first slice, and every later slice restores the
//! clustering from the checkpoint. A warm resume builds nothing.
//!
//! Builds are counted by the process-global `sgm_sampler_rebuild_ns`
//! histogram, scraped over `GET /metrics?format=json`. That is why this
//! file is a test binary of its own with a single test: no other test
//! may build graphs in the same process.

use sgm_json::Value;
use sgm_serve::{client, JobSpec, ServeConfig, Server};
use std::net::SocketAddr;
use std::time::Duration;

/// Field `field` of the entry named `name` in a metrics array.
fn metric(metrics: &Value, name: &str, field: &str) -> Option<f64> {
    metrics
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
        .get(field)?
        .as_f64()
}

/// Graph builds so far in this process (0 before the first one
/// registers the histogram).
fn graph_builds(addr: SocketAddr) -> f64 {
    let resp = client::request(addr, "GET", "/metrics?format=json", None).expect("scrape");
    assert_eq!(resp.status, 200);
    let metrics = resp.json().expect("metrics JSON");
    metric(&metrics, "sgm_sampler_rebuild_ns", "count").unwrap_or(0.0)
}

fn settle(addr: SocketAddr, id: u64, want: &str) -> Value {
    let status = client::wait_settled(addr, id, Duration::from_secs(300)).expect("wait");
    assert_eq!(status.req_str("state").unwrap(), want, "job {id}");
    status
}

#[test]
fn sliced_sgm_job_builds_its_graph_once() {
    let server = Server::start(ServeConfig {
        workers: 2,
        slice_iterations: 10,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let spec = JobSpec {
        tenant: "rebuilds".into(),
        sampler: "sgm".into(),
        sampler_tau: Some(7),
        iterations: 60,
        interior: 256,
        boundary: 32,
        batch_interior: 16,
        batch_boundary: 8,
        ..JobSpec::default()
    };

    let before = graph_builds(addr);
    let id = client::submit(addr, &spec).expect("submit");
    let status = settle(addr, id, "completed");
    let slices = status
        .get("metrics")
        .and_then(|m| metric(m.get("metrics")?, "sgm_run_slices_total", "value"));
    assert_eq!(slices, Some(6.0), "60 iterations in slices of 10");
    assert_eq!(graph_builds(addr) - before, 1.0, "one build for six slices");

    // A job evicted at its first slice boundary builds once; uploading
    // its checkpoint as a warm resume runs the other five slices
    // without a build.
    let bounded = JobSpec {
        max_wall_seconds: Some(1e-6),
        ..spec.clone()
    };
    let before = graph_builds(addr);
    let id = client::submit(addr, &bounded).expect("submit");
    let status = settle(addr, id, "evicted");
    assert_eq!(status.req_usize("iteration").unwrap(), 10);
    assert_eq!(graph_builds(addr) - before, 1.0, "first slice builds");
    let ckpt = client::checkpoint(addr, id).expect("download");
    let before = graph_builds(addr);
    let resumed = client::submit_resume(addr, &spec, &ckpt).expect("resume");
    settle(addr, resumed, "completed");
    assert_eq!(
        graph_builds(addr) - before,
        0.0,
        "a warm resume takes its clustering from the upload"
    );

    assert!(server.shutdown_and_join());
}
