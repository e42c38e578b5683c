//! Watchdog detector acceptance: every fault the watchdog claims to
//! catch is injected through production paths, fires **exactly one**
//! typed anomaly, and produces a flight-recorder dump that passes
//! `sgm_testkit::telemetry::validate_run_log`.
//!
//! * NaN loss arrives through the real `ObsHook::on_record` path, the
//!   same code a divergent training run executes.
//! * A stage stall arrives through `ObsHook::on_stage`.
//! * A killed rebuild worker is a scripted [`FaultAction::Panic`]
//!   through the PR 3 fault harness — the production death-detection
//!   path (`WorkerDied`) is what increments the deaths counter the
//!   watchdog scrapes.
//!
//! Each test feeds the detector a snapshot *filtered to the metrics it
//! injects*, so parallel tests in this binary cannot cross-fire each
//! other's detectors.

use sgm_core::background::RebuildRequest;
use sgm_graph::knn::{KnnConfig, KnnStrategy};
use sgm_graph::lrd::LrdConfig;
use sgm_graph::points::PointCloud;
use sgm_linalg::rng::Rng64;
use sgm_obs::metrics::MetricSnapshot;
use sgm_obs::watchdog::{dump_anomaly, AnomalyKind, WatchdogConfig, WatchdogState};
use sgm_testkit::fault::{FaultAction, FaultPlan};
use sgm_testkit::telemetry::validate_run_log;
use sgm_train::{Hook, ObsHook, Record, Stage};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Snapshot of the global registry restricted to `names`.
fn filtered_snapshot(names: &[&str]) -> Vec<MetricSnapshot> {
    sgm_obs::metrics::snapshot()
        .into_iter()
        .filter(|m| {
            let n = match m {
                MetricSnapshot::Counter { name, .. } => name,
                MetricSnapshot::Gauge { name, .. } => name,
                MetricSnapshot::Histogram(h) => &h.name,
            };
            names.contains(n)
        })
        .collect()
}

/// A fresh per-test dump directory under the system temp dir.
fn dump_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgm_watchdog_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
}

/// Dumps the anomaly, validates the dump, and asserts it carries the
/// expected anomaly kind plus at least one flight event.
fn assert_valid_dump(tag: &str, anomaly: &sgm_obs::Anomaly, kind: &str) {
    let dir = dump_dir(tag);
    let path = dump_anomaly(&dir, anomaly).expect("write dump");
    let text = std::fs::read_to_string(&path).expect("read dump");
    let summary = validate_run_log(&text)
        .unwrap_or_else(|e| panic!("dump {} failed validation: {e}", path.display()));
    assert!(
        summary.anomaly_kinds.contains(kind),
        "dump is missing anomaly kind {kind:?} (have {:?})",
        summary.anomaly_kinds
    );
    assert!(
        summary.flight_events >= 1,
        "dump carries no flight-recorder events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nan_loss_fires_exactly_one_anomaly_with_valid_dump() {
    let mut hook = ObsHook::new();
    hook.on_record(&Record {
        iteration: 7,
        seconds: 0.1,
        train_loss: f64::NAN,
        val_errors: Vec::new(),
    });

    let mut state = WatchdogState::new(WatchdogConfig::default());
    let snap = filtered_snapshot(&["sgm_train_loss"]);
    let fired = state.observe(&snap);
    assert_eq!(fired.len(), 1, "expected exactly one anomaly: {fired:?}");
    assert_eq!(fired[0].kind, AnomalyKind::LossNonFinite);

    // Latched: the same wedged gauge must not fire again next scrape.
    assert!(state.observe(&snap).is_empty(), "NaN detector not latched");

    assert_valid_dump("nan", &fired[0], "loss_non_finite");
}

#[test]
fn stage_stall_fires_exactly_one_anomaly_with_valid_dump() {
    let mut hook = ObsHook::new();
    // Healthy baseline: enough samples for the detector to trust p99.
    for _ in 0..20 {
        hook.on_stage(0, Stage::Refresh, Duration::from_micros(900));
    }
    let mut state = WatchdogState::new(WatchdogConfig::default());
    let names = ["sgm_train_stage_refresh_ns"];
    assert!(
        state.observe(&filtered_snapshot(&names)).is_empty(),
        "baseline scrape must not fire"
    );

    // The fault: one stage suddenly takes ~1000x its baseline.
    for _ in 0..8 {
        hook.on_stage(1, Stage::Refresh, Duration::from_millis(900));
    }
    let fired = state.observe(&filtered_snapshot(&names));
    assert_eq!(fired.len(), 1, "expected exactly one anomaly: {fired:?}");
    assert_eq!(fired[0].kind, AnomalyKind::StageStall);

    // Latched per stage while the stall persists.
    assert!(
        state.observe(&filtered_snapshot(&names)).is_empty(),
        "stall detector not latched"
    );

    assert_valid_dump("stall", &fired[0], "stage_stall");
}

#[test]
fn killed_rebuild_worker_fires_exactly_one_anomaly_with_valid_dump() {
    let mut rng = Rng64::new(0xDEAD);
    let req = RebuildRequest {
        cloud: Arc::new(PointCloud::uniform_box(100, 2, 0.0, 1.0, &mut rng)),
        knn: KnnConfig {
            k: 5,
            strategy: KnnStrategy::Grid,
            ..KnnConfig::default()
        },
        lrd: LrdConfig::default(),
    };
    let mut b = FaultPlan::new([FaultAction::Panic("scripted rebuild crash".into())]).spawn();
    assert!(b.request(req).expect("request accepted"));
    let err = b.take_blocking().expect_err("worker must be dead");
    assert_eq!(err.panic.as_deref(), Some("scripted rebuild crash"));

    let names = [
        "sgm_sampler_rebuild_requests_total",
        "sgm_sampler_rebuild_worker_deaths_total",
        "sgm_sampler_rebuild_ns",
    ];
    let mut state = WatchdogState::new(WatchdogConfig::default());
    let fired = state.observe(&filtered_snapshot(&names));
    assert_eq!(fired.len(), 1, "expected exactly one anomaly: {fired:?}");
    assert_eq!(fired[0].kind, AnomalyKind::RebuildSilence);

    // No new deaths and not enough stagnant scrapes → no re-fire.
    assert!(
        state.observe(&filtered_snapshot(&names)).is_empty(),
        "death detector re-fired without a new death"
    );

    assert_valid_dump("death", &fired[0], "rebuild_silence");

    // After the anomaly, the process-wide health verdict is degraded.
    assert_ne!(sgm_obs::watchdog::health_verdict(), "ok");
}
