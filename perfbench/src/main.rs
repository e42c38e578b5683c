//! Workload runner of the SGM-PINN benchmark.
//!
//! `perfbench/run.py` builds this binary and starts it once per
//! measurement in a fresh process:
//!
//! ```text
//! perfbench run   --workload <name> --seed <n> --trace <0|1>
//! perfbench setup --workload <name> --seed <n>
//! perfbench calibrate
//! ```
//!
//! `run` sets the workload up, runs its fixed work (a constant count of
//! iterations or jobs per workload), checks the outputs
//! and prints one JSON object on stdout: the checks, the end-to-end
//! metrics, the record history and, with `--trace 1`, the per-layer
//! metrics. `setup` stops once the workload is ready and prints its
//! set-up time, so `run.py` can take a median over several fresh
//! processes. `calibrate` times a fixed CPU loop, which tells a slow
//! host phase apart from a slow program.

mod serve_mix;
mod traced;
mod training;

use sgm_json::{obj, Value};
use sgm_train::Record;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ldc_sgm", "ldc_ularge", "ar_sgms", "serve_mix"];

/// Command-line arguments of `run` and `setup`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
}

/// One output check; a failed check counts as a failed operation.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What one `run` reports back to `run.py`.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Vec<Check>,
    /// Operations attempted beyond the checks (serve_mix: jobs).
    pub operations: usize,
    /// Operations among them that failed.
    pub operations_failed: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// `(iteration, training-clock seconds, train loss, mean validation
    /// error)` per record; serve_mix leaves it empty.
    pub history: Vec<[f64; 4]>,
    /// Hash of each training's record history (serve_mix: one over all
    /// jobs).
    pub history_hashes: Vec<String>,
    pub target: f64,
    /// Iterations of records averaged before comparing with the target.
    pub target_window: usize,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        trace,
    })
}

/// Process user+sys CPU seconds, from `/proc/self/stat`. The kernel
/// reports these fields in USER_HZ ticks, which Linux fixes at 100 for
/// this interface.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean validation error of a record (over outputs, and over validation
/// sets as `AveragedValidation` already averages them).
pub fn mean_error(r: &Record) -> f64 {
    r.val_errors.iter().sum::<f64>() / r.val_errors.len().max(1) as f64
}

/// FNV-1a hash of record histories without their clocks (iteration,
/// loss and validation errors, bit for bit), as 16 hex digits.
pub fn history_hash<'a>(histories: impl IntoIterator<Item = &'a [Record]>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for history in histories {
        for r in history {
            feed(r.iteration as u64);
            feed(r.train_loss.to_bits());
            for e in &r.val_errors {
                feed(e.to_bits());
            }
        }
    }
    format!("{h:016x}")
}

/// A fixed integer/float loop; its time tracks the host's speed at the
/// moment, independent of the program under test.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..60_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-18 + i as f64 * 1e-12;
    }
    std::hint::black_box((x, acc));
    t0.elapsed().as_secs_f64()
}

fn num_map(pairs: &[(&'static str, f64)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::Num(v)))
            .collect(),
    )
}

fn print_report(args: &Args, setup_s: f64, report: &Report) {
    let checks = Value::Arr(
        report
            .checks
            .iter()
            .map(|c| {
                obj([
                    ("name", Value::Str(c.name.to_string())),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", Value::Str(c.detail.clone())),
                ])
            })
            .collect(),
    );
    let history = Value::Arr(
        report
            .history
            .iter()
            .map(|r| Value::Arr(r.iter().map(|&v| Value::Num(v)).collect()))
            .collect(),
    );
    let out = obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Bool(args.trace)),
        (
            "simd_tier",
            Value::Str(sgm_linalg::simd::detected_tier().name().to_string()),
        ),
        ("setup_s", Value::Num(setup_s)),
        ("operations", Value::Num(report.operations as f64)),
        (
            "operations_failed",
            Value::Num(report.operations_failed as f64),
        ),
        ("checks", checks),
        ("end_to_end", num_map(&report.end_to_end)),
        ("per_layer", num_map(&report.per_layer)),
        ("target", Value::Num(report.target)),
        ("target_window", Value::Num(report.target_window as f64)),
        (
            "history_hashes",
            Value::Arr(
                report
                    .history_hashes
                    .iter()
                    .map(|h| Value::Str(h.clone()))
                    .collect(),
            ),
        ),
        ("history", history),
    ]);
    println!("{}", out.to_string_compact());
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    let mode = argv.get(1).map(String::as_str).unwrap_or("");
    if mode == "calibrate" {
        println!(
            "{}",
            obj([("calibrate_s", Value::Num(calibrate()))]).to_string_compact()
        );
        return;
    }
    if mode != "run" && mode != "setup" {
        eprintln!("usage: perfbench run|setup --workload <name> --seed <n> [--trace 0|1] | perfbench calibrate");
        std::process::exit(2);
    }
    let args = match parse_args(&argv[2..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if mode == "setup" {
        let setup_s = match args.workload.as_str() {
            "serve_mix" => serve_mix::setup_only(&args, started),
            _ => training::setup_only(&args, started),
        };
        println!(
            "{}",
            obj([("setup_s", Value::Num(setup_s))]).to_string_compact()
        );
        return;
    }
    let (setup_s, report) = match args.workload.as_str() {
        "serve_mix" => serve_mix::run(&args, started),
        _ => training::run(&args, started),
    };
    print_report(&args, setup_s, &report);
}
