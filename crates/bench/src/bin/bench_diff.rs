//! Compares two microbench `--json` dumps case-by-case.
//!
//! ```sh
//! cargo run --release -p sgm-bench --bin bench_diff -- before.json after.json
//! ```
//!
//! Prints a per-case table and the `before/after` speedup, flags every
//! case that regressed by more than 10 %, and summarises. Comparisons
//! use each case's `min_ns` when both dumps carry it (the minimum is the
//! noise-robust statistic on shared hosts — scheduler interference only
//! ever adds time), falling back to `mean_ns` otherwise. Options:
//!
//! * `--json <path>` — also write the merged comparison as JSON (used to
//!   assemble `BENCH_PR4.json`).
//! * `--strict` — exit non-zero when any case regresses >10 % (off by
//!   default so smoke runs with 1-iteration timings don't flake).
//! * `--min-speedup <x>` — exit non-zero unless the geometric-mean
//!   speedup over all compared cases is at least `x`. Used by the
//!   `multi-model` CI gate: a sequential-solo dump diffed against a
//!   batched dump of the same case from the *same machine* must clear
//!   the batched-execution floor.
//!
//! Groups present in only one dump (a filtered run, or a group added or
//! removed between revisions) are reported as warnings and skipped —
//! never an error, even under `--strict`, so partial dumps stay
//! diffable.

use sgm_json::{obj, Value};
use std::process::ExitCode;

/// One case parsed out of a microbench dump.
struct Case {
    group: String,
    name: String,
    mean_ns: f64,
    min_ns: Option<f64>,
    p50_ns: Option<f64>,
    p95_ns: Option<f64>,
    p99_ns: Option<f64>,
}

impl Case {
    /// The statistic compared: `min_ns` when recorded, else `mean_ns`.
    fn metric(&self) -> f64 {
        self.min_ns.unwrap_or(self.mean_ns)
    }
}

fn load(path: &str) -> Vec<Case> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_diff: cannot read {path}: {e}"));
    let value = Value::parse(&text).unwrap_or_else(|e| panic!("bench_diff: {path}: {e}"));
    let arr = value
        .as_arr()
        .unwrap_or_else(|| panic!("bench_diff: {path}: top level is not an array"));
    arr.iter()
        .map(|entry| Case {
            group: entry
                .req_str("group")
                .unwrap_or_else(|e| panic!("bench_diff: {path}: {e}"))
                .to_string(),
            name: entry
                .req_str("name")
                .unwrap_or_else(|e| panic!("bench_diff: {path}: {e}"))
                .to_string(),
            mean_ns: entry
                .req_f64("mean_ns")
                .unwrap_or_else(|e| panic!("bench_diff: {path}: {e}")),
            min_ns: entry.req_f64("min_ns").ok(),
            p50_ns: entry.req_f64("p50_ns").ok(),
            p95_ns: entry.req_f64("p95_ns").ok(),
            p99_ns: entry.req_f64("p99_ns").ok(),
        })
        .collect()
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

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut json_out: Option<String> = None;
    let mut strict = false;
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_out = Some(args.next().expect("--json needs a path")),
            "--strict" => strict = true,
            "--min-speedup" => {
                min_speedup = Some(
                    args.next()
                        .expect("--min-speedup needs a value")
                        .parse()
                        .expect("--min-speedup: not a number"),
                );
            }
            _ => paths.push(a),
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_diff [--json <out>] [--strict] [--min-speedup <x>] \
             <before.json> <after.json>"
        );
        return ExitCode::from(2);
    }
    let before = load(&paths[0]);
    let after = load(&paths[1]);

    // Whole groups missing on either side are tolerated with a warning
    // (never a failure): dumps from filtered runs or different revisions
    // should still diff on whatever they share.
    let groups_before: std::collections::BTreeSet<&str> =
        before.iter().map(|c| c.group.as_str()).collect();
    let groups_after: std::collections::BTreeSet<&str> =
        after.iter().map(|c| c.group.as_str()).collect();
    for g in groups_before.difference(&groups_after) {
        eprintln!(
            "warning: group `{g}` only in {} — skipped, not a failure",
            paths[0]
        );
    }
    for g in groups_after.difference(&groups_before) {
        eprintln!(
            "warning: group `{g}` only in {} — skipped, not a failure",
            paths[1]
        );
    }

    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    let mut missing = 0usize;
    for b in &before {
        let Some(a) = after
            .iter()
            .find(|a| a.group == b.group && a.name == b.name)
        else {
            missing += 1;
            continue;
        };
        let speedup = if a.metric() > 0.0 {
            b.metric() / a.metric()
        } else {
            f64::INFINITY
        };
        let regressed = a.metric() > 1.10 * b.metric();
        if regressed {
            regressions.push(format!("{}/{}", b.group, b.name));
        }
        rows.push((b, a, speedup, regressed));
    }

    let id_w = rows
        .iter()
        .map(|(b, _, _, _)| b.group.len() + b.name.len() + 1)
        .max()
        .unwrap_or(4)
        .max(4);
    println!(
        "{:<id_w$}  {:>12}  {:>12}  {:>8}",
        "case", "before", "after", "speedup"
    );
    for (b, a, speedup, regressed) in &rows {
        println!(
            "{:<id_w$}  {:>12}  {:>12}  {:>7.2}x{}",
            format!("{}/{}", b.group, b.name),
            fmt_ns(b.metric()),
            fmt_ns(a.metric()),
            speedup,
            if *regressed {
                "  << REGRESSION >10%"
            } else {
                ""
            },
        );
        // Tail percentiles, when both dumps recorded per-sample stats.
        if let (Some(b50), Some(a50), Some(b95), Some(a95), Some(b99), Some(a99)) =
            (b.p50_ns, a.p50_ns, b.p95_ns, a.p95_ns, b.p99_ns, a.p99_ns)
        {
            println!(
                "{:<id_w$}  p50 {} -> {}   p95 {} -> {}   p99 {} -> {}",
                "",
                fmt_ns(b50),
                fmt_ns(a50),
                fmt_ns(b95),
                fmt_ns(a95),
                fmt_ns(b99),
                fmt_ns(a99),
            );
        }
    }
    if missing > 0 {
        println!(
            "({missing} case(s) in {} have no counterpart in {})",
            paths[0], paths[1]
        );
    }
    let extra = after
        .iter()
        .filter(|a| {
            !before
                .iter()
                .any(|b| b.group == a.group && b.name == a.name)
        })
        .count();
    if extra > 0 {
        println!(
            "({extra} case(s) in {} have no counterpart in {})",
            paths[1], paths[0]
        );
    }
    println!(
        "{} case(s) compared, {} regression(s) >10%",
        rows.len(),
        regressions.len()
    );

    // Per-group and overall geometric-mean speedups. The geomean is the
    // right aggregate for ratios: a 4x win and a 4x loss cancel to 1.0
    // instead of averaging to 2.1x.
    let geomean = |ratios: &[f64]| -> f64 {
        let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
        if finite.is_empty() {
            return f64::NAN;
        }
        (finite.iter().map(|r| r.ln()).sum::<f64>() / finite.len() as f64).exp()
    };
    let mut group_ratios: std::collections::BTreeMap<&str, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (b, _, speedup, _) in &rows {
        group_ratios
            .entry(b.group.as_str())
            .or_default()
            .push(*speedup);
    }
    let mut group_rows = Vec::new();
    for (g, ratios) in &group_ratios {
        let gm = geomean(ratios);
        println!(
            "group {g:<24} geomean speedup {gm:>7.2}x over {} case(s)",
            ratios.len()
        );
        group_rows.push((g.to_string(), gm, ratios.len()));
    }
    let all_ratios: Vec<f64> = rows.iter().map(|(_, _, s, _)| *s).collect();
    let overall = geomean(&all_ratios);
    if !rows.is_empty() {
        println!("overall geomean speedup {overall:.2}x");
    }

    if let Some(out) = json_out {
        let cases: Vec<Value> = rows
            .iter()
            .map(|(b, a, speedup, regressed)| {
                obj([
                    ("group", Value::Str(b.group.clone())),
                    ("name", Value::Str(b.name.clone())),
                    ("before_ns", Value::Num(b.metric())),
                    ("after_ns", Value::Num(a.metric())),
                    ("before_mean_ns", Value::Num(b.mean_ns)),
                    ("after_mean_ns", Value::Num(a.mean_ns)),
                    ("speedup", Value::Num(*speedup)),
                    ("regressed", Value::Bool(*regressed)),
                ])
            })
            .collect();
        let groups: Vec<Value> = group_rows
            .iter()
            .map(|(g, gm, n)| {
                obj([
                    ("group", Value::Str(g.clone())),
                    ("geomean_speedup", Value::Num(*gm)),
                    ("cases", Value::Num(*n as f64)),
                ])
            })
            .collect();
        let doc = obj([
            ("before", Value::Str(paths[0].clone())),
            ("after", Value::Str(paths[1].clone())),
            ("overall_geomean_speedup", Value::Num(overall)),
            ("groups", Value::Arr(groups)),
            ("cases", Value::Arr(cases)),
        ]);
        std::fs::write(&out, doc.to_string_pretty())
            .unwrap_or_else(|e| panic!("bench_diff: cannot write {out}: {e}"));
        println!("wrote {out}");
    }

    if strict && !regressions.is_empty() {
        eprintln!("regressions: {}", regressions.join(", "));
        return ExitCode::FAILURE;
    }
    if let Some(floor) = min_speedup {
        if overall.is_nan() || overall < floor {
            eprintln!(
                "overall geomean speedup {overall:.2}x is below the --min-speedup floor {floor}x"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
