//! Renders a run-telemetry JSONL file (written by `sgm_obs::RunLog` /
//! `SGM_RUN_LOG`) as a human-readable report, or diffs two runs.
//!
//! ```sh
//! cargo run --release -p sgm-bench --bin run_report -- run.jsonl
//! cargo run --release -p sgm-bench --bin run_report -- before.jsonl after.jsonl
//! ```
//!
//! Single-run mode prints the meta line, a convergence summary (records,
//! final loss/errors, train seconds), every counter/gauge, histogram
//! rollups with tail percentiles (p50/p95/p99 estimated from the
//! log-linear buckets when the dump carries them), flight-recorder
//! event rollups, watchdog anomalies, and a per-name span rollup
//! (count, total, mean). Two-run mode prints the shared metrics and
//! span rollups side by side with the after/before ratio — the quick
//! way to see where a configuration change moved the time.
//!
//! `--live <target>` tails a run instead: an `http://host:port/events/N`
//! target subscribes to the serve SSE stream and prints one line per
//! progress event (then the same per-stage rollup once the job
//! settles); a file target treats it as a flight-recorder dump and
//! renders the same rollup.

use sgm_json::Value;
use sgm_obs::metrics::percentile_from_buckets;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Everything parsed out of one telemetry JSONL file.
struct Run {
    path: String,
    meta: Vec<(String, String)>,
    /// Counter and gauge values by name.
    scalars: BTreeMap<String, f64>,
    /// Histograms by name: (count, mean_ns, min, max).
    hists: BTreeMap<String, (u64, f64, u64, u64)>,
    /// Log-linear bucket vectors by histogram name, when dumped.
    buckets: BTreeMap<String, Vec<(u64, u64)>>,
    /// Convergence records: (iteration, seconds, train_loss, val_errors).
    records: Vec<(usize, f64, f64, Vec<f64>)>,
    /// Span rollup by `cat/name`: (count, total_ns).
    spans: BTreeMap<String, (u64, u64)>,
    /// Flight-recorder rollup by kind: (events, sum of values).
    flight: BTreeMap<String, (u64, u64)>,
    /// Per-stage flight rollup by stage code: (events, total ns).
    flight_stages: BTreeMap<u32, (u64, u64)>,
    /// Watchdog anomalies: (kind, detail).
    anomalies: Vec<(String, String)>,
}

fn scalar_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Num(n) => format!("{n}"),
        Value::Bool(b) => format!("{b}"),
        other => other.to_string_compact(),
    }
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("run_report: cannot read {path}: {e}"))?;
    let mut run = Run {
        path: path.to_string(),
        meta: Vec::new(),
        scalars: BTreeMap::new(),
        hists: BTreeMap::new(),
        buckets: BTreeMap::new(),
        records: Vec::new(),
        spans: BTreeMap::new(),
        flight: BTreeMap::new(),
        flight_stages: BTreeMap::new(),
        anomalies: Vec::new(),
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            Value::parse(line).map_err(|e| format!("run_report: {path}:{}: {e}", lineno + 1))?;
        let ty = v
            .req_str("type")
            .map_err(|e| format!("run_report: {path}:{}: {e}", lineno + 1))?;
        match ty {
            "meta" => {
                if let Value::Obj(fields) = &v {
                    for (k, val) in fields {
                        if k.as_str() != "type" {
                            run.meta.push((k.clone(), scalar_text(val)));
                        }
                    }
                }
            }
            "metric" => {
                let name = v.req_str("name").map_err(|e| e.to_string())?.to_string();
                match v.req_str("kind").map_err(|e| e.to_string())? {
                    "histogram" => {
                        if let Some(arr) = v.get("buckets").and_then(Value::as_arr) {
                            let parsed: Vec<(u64, u64)> = arr
                                .iter()
                                .filter_map(|b| {
                                    let pair = b.as_arr()?;
                                    let lower = pair.first()?.as_f64()? as u64;
                                    let count = pair.get(1)?.as_f64()? as u64;
                                    Some((lower, count))
                                })
                                .collect();
                            if !parsed.is_empty() {
                                run.buckets.insert(name.clone(), parsed);
                            }
                        }
                        run.hists.insert(
                            name,
                            (
                                v.req_f64("count").unwrap_or(0.0) as u64,
                                v.req_f64("mean").unwrap_or(0.0),
                                v.req_f64("min").unwrap_or(0.0) as u64,
                                v.req_f64("max").unwrap_or(0.0) as u64,
                            ),
                        );
                    }
                    _ => {
                        run.scalars
                            .insert(name, v.req_f64("value").unwrap_or(f64::NAN));
                    }
                }
            }
            "record" => {
                let errors = v
                    .get("val_errors")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                run.records.push((
                    v.req_f64("iteration").unwrap_or(0.0) as usize,
                    v.req_f64("seconds").unwrap_or(0.0),
                    v.req_f64("train_loss").unwrap_or(f64::NAN),
                    errors,
                ));
            }
            "flight" => {
                let kind = v.req_str("kind").map_err(|e| e.to_string())?.to_string();
                let code = v.req_f64("code").unwrap_or(0.0) as u32;
                let value = v.req_f64("value").unwrap_or(0.0) as u64;
                if kind == "stage" {
                    let e = run.flight_stages.entry(code).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += value;
                }
                let e = run.flight.entry(kind).or_insert((0, 0));
                e.0 += 1;
                e.1 += value;
            }
            "anomaly" => {
                run.anomalies.push((
                    v.req_str("kind").map_err(|e| e.to_string())?.to_string(),
                    v.req_str("detail").unwrap_or("").to_string(),
                ));
            }
            "span" => {
                let key = format!(
                    "{}/{}",
                    v.req_str("cat").unwrap_or("?"),
                    v.req_str("name").unwrap_or("?")
                );
                let e = run.spans.entry(key).or_insert((0, 0));
                e.0 += 1;
                e.1 += v.req_f64("dur_ns").unwrap_or(0.0) as u64;
            }
            other => {
                return Err(format!(
                    "run_report: {path}:{}: unknown line type `{other}`",
                    lineno + 1
                ))
            }
        }
    }
    Ok(run)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn print_single(run: &Run) {
    println!("=== run report: {} ===", run.path);
    for (k, v) in &run.meta {
        println!("  {k}: {v}");
    }
    if let (Some(first), Some(last)) = (run.records.first(), run.records.last()) {
        println!(
            "\nconvergence: {} records over {:.1}s (iterations {}..{})",
            run.records.len(),
            last.1,
            first.0,
            last.0
        );
        println!("  train loss: {:.6} -> {:.6}", first.2, last.2);
        if !last.3.is_empty() {
            let errs: Vec<String> = last.3.iter().map(|e| format!("{e:.4}")).collect();
            println!("  final val errors: [{}]", errs.join(", "));
        }
    } else {
        println!("\nconvergence: no records");
    }
    if !run.scalars.is_empty() {
        println!("\ncounters & gauges:");
        for (name, v) in &run.scalars {
            println!("  {name:<42} {v}");
        }
    }
    if !run.hists.is_empty() {
        println!("\nhistograms (count / mean / min / max / p50 / p95 / p99):");
        for (name, (count, mean, min, max)) in &run.hists {
            // Tail percentiles come from the log-linear buckets when
            // the dump carries them (lower-bound estimates, <=25% low).
            let tails = run.buckets.get(name).map_or_else(
                || format!("{:>12}  {:>12}  {:>12}", "-", "-", "-"),
                |b| {
                    format!(
                        "{:>12}  {:>12}  {:>12}",
                        fmt_ns(percentile_from_buckets(b, 0.50) as f64),
                        fmt_ns(percentile_from_buckets(b, 0.95) as f64),
                        fmt_ns(percentile_from_buckets(b, 0.99) as f64),
                    )
                },
            );
            println!(
                "  {name:<42} {count:>8}  {:>12}  {:>12}  {:>12}  {tails}",
                fmt_ns(*mean),
                fmt_ns(*min as f64),
                fmt_ns(*max as f64),
            );
        }
    }
    if !run.flight.is_empty() {
        println!("\nflight recorder (events per kind):");
        for (kind, (count, _)) in &run.flight {
            println!("  {kind:<42} {count:>8}");
        }
        if !run.flight_stages.is_empty() {
            println!("\nflight stage rollup (count / total / mean):");
            for (code, (count, total_ns)) in &run.flight_stages {
                let name = sgm_train::Stage::ALL
                    .get(*code as usize)
                    .map_or("stage_?", |st| st.name());
                println!(
                    "  {name:<42} {count:>8}  {:>12}  {:>12}",
                    fmt_ns(*total_ns as f64),
                    fmt_ns(*total_ns as f64 / (*count).max(1) as f64),
                );
            }
        }
    }
    if !run.anomalies.is_empty() {
        println!("\nanomalies ({}):", run.anomalies.len());
        for (kind, detail) in &run.anomalies {
            println!("  {kind:<24} {detail}");
        }
    }
    if !run.spans.is_empty() {
        println!("\nspans (count / total / mean):");
        for (key, (count, total_ns)) in &run.spans {
            println!(
                "  {key:<42} {count:>8}  {:>12}  {:>12}",
                fmt_ns(*total_ns as f64),
                fmt_ns(*total_ns as f64 / (*count).max(1) as f64),
            );
        }
    }
}

fn print_diff(before: &Run, after: &Run) {
    println!("=== run diff: {} vs {} ===", before.path, after.path);
    println!("\nscalar metrics (before / after / ratio):");
    for (name, b) in &before.scalars {
        let Some(a) = after.scalars.get(name) else {
            println!("  {name:<42} only in {}", before.path);
            continue;
        };
        let ratio = if *b != 0.0 { a / b } else { f64::INFINITY };
        println!("  {name:<42} {b:>12.3}  {a:>12.3}  {ratio:>7.2}x");
    }
    for name in after.scalars.keys() {
        if !before.scalars.contains_key(name) {
            println!("  {name:<42} only in {}", after.path);
        }
    }
    println!("\nhistogram means (before / after / ratio):");
    for (name, (_, bm, _, _)) in &before.hists {
        let Some((_, am, _, _)) = after.hists.get(name) else {
            println!("  {name:<42} only in {}", before.path);
            continue;
        };
        let ratio = if *bm > 0.0 { am / bm } else { f64::INFINITY };
        println!(
            "  {name:<42} {:>12}  {:>12}  {ratio:>7.2}x",
            fmt_ns(*bm),
            fmt_ns(*am)
        );
    }
    println!("\nspan totals (before / after / ratio):");
    for (key, (_, bt)) in &before.spans {
        let Some((_, at)) = after.spans.get(key) else {
            println!("  {key:<42} only in {}", before.path);
            continue;
        };
        let ratio = if *bt > 0 {
            *at as f64 / *bt as f64
        } else {
            f64::INFINITY
        };
        println!(
            "  {key:<42} {:>12}  {:>12}  {ratio:>7.2}x",
            fmt_ns(*bt as f64),
            fmt_ns(*at as f64)
        );
    }
}

/// Tails a live target: an `http://host:port/events/N` URL subscribes
/// to the serve SSE stream; anything else is read as a flight-recorder
/// dump and rendered with the standard single-run rollup.
fn live(target: &str) -> Result<(), String> {
    if !target.starts_with("http://") {
        let run = load(target)?;
        print_single(&run);
        return Ok(());
    }
    let rest = target.trim_start_matches("http://");
    let (hostport, path) = rest
        .split_once('/')
        .ok_or_else(|| format!("run_report: {target}: missing path"))?;
    let id: u64 = path
        .strip_prefix("events/")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("run_report: {target}: expected /events/<job-id>"))?;
    use std::net::ToSocketAddrs;
    let addr = hostport
        .to_socket_addrs()
        .map_err(|e| format!("run_report: {hostport}: {e}"))?
        .next()
        .ok_or_else(|| format!("run_report: {hostport}: no address"))?;
    println!("=== live: job {id} @ {hostport} ===");
    let mut stage_ns: BTreeMap<String, f64> = BTreeMap::new();
    sgm_serve::client::subscribe_events(addr, id, 0, None, |e| {
        let Ok(v) = Value::parse(&e.data) else {
            return;
        };
        if e.event.as_deref() == Some("done") {
            println!(
                "done: state {} after {} event(s)",
                v.req_str("state").unwrap_or("?"),
                v.req_f64("last_event_seq").unwrap_or(0.0)
            );
            return;
        }
        let loss = v
            .req_f64("train_loss")
            .map(|l| format!("  loss {l:.6e}"))
            .unwrap_or_default();
        let slice = v
            .req_f64("slice_ns")
            .map(|ns| format!("  slice {}", fmt_ns(ns)))
            .unwrap_or_default();
        println!(
            "seq {:>5}  iter {:>7}/{}  {:<9}{loss}{slice}",
            v.req_f64("seq").unwrap_or(0.0),
            v.req_f64("iteration").unwrap_or(0.0),
            v.req_f64("iterations_total").unwrap_or(0.0),
            v.req_str("state").unwrap_or("?"),
        );
        if let Some(Value::Obj(stages)) = v.get("stage_ns") {
            for (name, ns) in stages {
                if let Some(ns) = ns.as_f64() {
                    stage_ns.insert(name.clone(), ns);
                }
            }
        }
    })?;
    if !stage_ns.is_empty() {
        println!("\nstage rollup (cumulative):");
        for (name, ns) in &stage_ns {
            println!("  {name:<42} {:>12}", fmt_ns(*ns));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut live_target: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--live" => match args.next() {
                Some(t) => live_target = Some(t),
                None => {
                    eprintln!("error: --live requires a URL or dump path");
                    return ExitCode::from(2);
                }
            },
            _ => paths.push(a),
        }
    }
    if let Some(target) = live_target {
        return match live(&target) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let runs: Result<Vec<Run>, String> = paths.iter().map(|p| load(p)).collect();
    let runs = match runs {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match runs.as_slice() {
        [one] => print_single(one),
        [before, after] => print_diff(before, after),
        _ => {
            eprintln!(
                "usage: run_report <run.jsonl> [other-run.jsonl] | run_report --live <url|dump>"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
