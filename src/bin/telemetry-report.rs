//! Render a telemetry run manifest (`results/runs/<run-id>.json`) as a
//! human-readable table, or diff two manifests for the CI perf gate.
//!
//! ```text
//! telemetry-report <manifest.json>
//! telemetry-report --diff <reference.json> <candidate.json> [--warn-pct <p>] [--fail]
//! telemetry-report --exec-table <BENCH_exec.json>
//! ```
//!
//! The diff aggregates span wall time per phase group (the first
//! dot-separated segment of the span name: `train.*`, `exec.*`, `sim.*`,
//! `bench.*`) and flags groups whose total regressed by more than
//! `--warn-pct` (default 20). Warnings are informational unless `--fail`
//! is passed, in which case any flagged `sim`/`train`/`exec` group makes
//! the process exit 3 — CI runs warn-only until a stable reference host
//! exists (see ROADMAP).
//!
//! Checksums are verified before anything is parsed: a manifest that
//! rotted on disk is rejected, same discipline as `rl::ckpt`.

use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Phase groups the perf gate watches for regressions.
const GATED_GROUPS: [&str; 3] = ["sim", "train", "exec"];
/// Reference group totals under this many seconds are noise, not a baseline.
const MIN_GATE_SECONDS: f64 = 1e-3;

fn usage() -> ExitCode {
    eprintln!(
        "usage: telemetry-report <manifest.json>\n       telemetry-report --diff <reference.json> <candidate.json> [--warn-pct <p>] [--fail]\n       telemetry-report --exec-table <BENCH_exec.json>"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let body = telemetry::manifest_body(text.trim_end()).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str::<Value>(body).map_err(|e| format!("{path}: parse: {e}"))
}

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        _ => f64::NAN,
    }
}

/// `"counters"`/`"spans"`/… section of the manifest as name → value pairs.
fn section<'a>(doc: &'a Value, name: &str) -> Vec<(&'a str, &'a Value)> {
    doc.get(name)
        .and_then(|v| v.as_object())
        .map(|fields| fields.iter().map(|(k, v)| (k.as_str(), v)).collect())
        .unwrap_or_default()
}

fn field_f64(v: &Value, name: &str) -> f64 {
    v.get(name).map(num).unwrap_or(f64::NAN)
}

fn render(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    let str_of = |k: &str| doc.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
    println!("run manifest {path}");
    println!("  run_id: {}", str_of("run_id"));
    match doc.get("seed") {
        Some(Value::Null) | None => println!("  seed:   (none)"),
        Some(v) => println!("  seed:   {}", num(v)),
    }
    if let Some(prov) = doc.get("provenance") {
        let p = |k: &str| prov.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
        println!(
            "  commit: {}  host: {} ({} cores)",
            p("commit"),
            p("hostname"),
            field_f64(prov, "cores")
        );
        // manifests written before the libm fingerprint lack it
        let libm = prov.get("libm").and_then(|v| v.as_str());
        let libm = libm.map(|l| format!("  libm: {l}")).unwrap_or_default();
        println!("  rustc:  {}  os: {}{libm}", p("rustc"), p("os"));
    }
    let config = section(&doc, "config");
    if !config.is_empty() {
        println!("  config:");
        for (k, v) in config {
            println!("    {k} = {}", v.as_str().unwrap_or("?"));
        }
    }

    let spans = section(&doc, "spans");
    if !spans.is_empty() {
        println!(
            "\n  {:<28}{:>8}{:>12}{:>12}{:>12}{:>12}",
            "span", "count", "total_s", "mean_s", "min_s", "max_s"
        );
        for (name, s) in &spans {
            let count = field_f64(s, "count");
            let total = field_f64(s, "total_s");
            println!(
                "  {:<28}{:>8}{:>12.4}{:>12.6}{:>12.6}{:>12.6}",
                name,
                count,
                total,
                total / count.max(1.0),
                field_f64(s, "min_s"),
                field_f64(s, "max_s"),
            );
        }
    }

    let counters = section(&doc, "counters");
    if !counters.is_empty() {
        println!("\n  {:<40}{:>16}", "counter", "value");
        for (name, v) in &counters {
            println!("  {:<40}{:>16}", name, num(v));
        }
        // per-phase rollup, mirroring the span grouping: subsystem
        // counters (`arena.pool.insert`, `serve.decisions`, …) sum under
        // their first dot segment so a phase's activity reads at a glance
        let groups = counter_group_totals(&doc);
        if groups.len() > 1 {
            println!("\n  {:<40}{:>16}", "counter group", "total");
            for (g, total) in &groups {
                println!("  {:<40}{:>16}", g, total);
            }
        }
    }

    let gauges = section(&doc, "gauges");
    if !gauges.is_empty() {
        println!("\n  {:<40}{:>16}", "gauge", "value");
        for (name, v) in &gauges {
            println!("  {:<40}{:>16}", name, num(v));
        }
    }

    let hists = section(&doc, "histograms");
    if !hists.is_empty() {
        println!(
            "\n  {:<28}{:>8}{:>12}{:>12}{:>12}{:>12}",
            "histogram", "count", "sum", "mean", "min", "max"
        );
        for (name, h) in &hists {
            let count = field_f64(h, "count");
            let sum = field_f64(h, "sum");
            println!(
                "  {:<28}{:>8}{:>12.4}{:>12.6}{:>12.6}{:>12.6}",
                name,
                count,
                sum,
                sum / count.max(1.0),
                field_f64(h, "min"),
                field_f64(h, "max"),
            );
        }
    }
    Ok(())
}

/// Counter totals per phase group (first dot-separated name segment),
/// the counter analogue of [`group_totals`].
fn counter_group_totals(doc: &Value) -> BTreeMap<String, f64> {
    let mut groups: BTreeMap<String, f64> = BTreeMap::new();
    for (name, v) in section(doc, "counters") {
        let group = name.split('.').next().unwrap_or(name).to_string();
        *groups.entry(group).or_insert(0.0) += num(v);
    }
    groups
}

/// Span totals per phase group (first dot-separated name segment).
fn group_totals(doc: &Value) -> BTreeMap<String, f64> {
    let mut groups: BTreeMap<String, f64> = BTreeMap::new();
    for (name, s) in section(doc, "spans") {
        let group = name.split('.').next().unwrap_or(name).to_string();
        *groups.entry(group).or_insert(0.0) += field_f64(s, "total_s");
    }
    groups
}

fn pct(reference: f64, candidate: f64) -> f64 {
    if reference.abs() < f64::EPSILON {
        if candidate.abs() < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (candidate - reference) / reference
    }
}

fn diff(ref_path: &str, cand_path: &str, warn_pct: f64, fail: bool) -> Result<ExitCode, String> {
    let reference = load(ref_path)?;
    let candidate = load(cand_path)?;
    let commit = |d: &Value| {
        d.get("provenance")
            .and_then(|p| p.get("commit"))
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "diff: {ref_path} (commit {}) -> {cand_path} (commit {})",
        commit(&reference),
        commit(&candidate)
    );

    // wall-time comparisons across hosts with different core counts are
    // apples-to-oranges for parallel phases — surface the parallelism of
    // both hosts and warn loudly when they differ
    let cores = |d: &Value| d.get("provenance").map(|p| field_f64(p, "cores")).unwrap_or(f64::NAN);
    let (ref_cores, cand_cores) = (cores(&reference), cores(&candidate));
    println!("  host_parallelism: ref {ref_cores} cores, candidate {cand_cores} cores");
    if ref_cores != cand_cores && !(ref_cores.is_nan() && cand_cores.is_nan()) {
        eprintln!(
            "warning: host_parallelism differs ({ref_cores} vs {cand_cores} cores) — \
             wall-time deltas for parallel phases are not comparable"
        );
    }

    // per-span wall time
    let ref_spans: BTreeMap<&str, f64> = section(&reference, "spans")
        .into_iter()
        .map(|(k, v)| (k, field_f64(v, "total_s")))
        .collect();
    let cand_spans: BTreeMap<&str, f64> = section(&candidate, "spans")
        .into_iter()
        .map(|(k, v)| (k, field_f64(v, "total_s")))
        .collect();
    let mut names: Vec<&str> = ref_spans.keys().chain(cand_spans.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    if !names.is_empty() {
        println!("\n  {:<28}{:>12}{:>12}{:>10}", "span", "ref_s", "new_s", "delta");
        for name in names {
            let r = ref_spans.get(name).copied().unwrap_or(0.0);
            let c = cand_spans.get(name).copied().unwrap_or(0.0);
            println!("  {:<28}{:>12.4}{:>12.4}{:>+9.1}%", name, r, c, pct(r, c));
        }
    }

    // counter deltas (only changed ones — steady counters are noise here)
    let ref_ctrs: BTreeMap<&str, f64> =
        section(&reference, "counters").into_iter().map(|(k, v)| (k, num(v))).collect();
    let cand_ctrs: BTreeMap<&str, f64> =
        section(&candidate, "counters").into_iter().map(|(k, v)| (k, num(v))).collect();
    let mut cnames: Vec<&str> = ref_ctrs.keys().chain(cand_ctrs.keys()).copied().collect();
    cnames.sort_unstable();
    cnames.dedup();
    let changed: Vec<&str> = cnames
        .into_iter()
        .filter(|n| {
            ref_ctrs.get(*n).copied().unwrap_or(0.0) != cand_ctrs.get(*n).copied().unwrap_or(0.0)
        })
        .collect();
    if !changed.is_empty() {
        println!("\n  {:<40}{:>12}{:>12}", "counter (changed)", "ref", "new");
        for name in changed {
            println!(
                "  {:<40}{:>12}{:>12}",
                name,
                ref_ctrs.get(name).copied().unwrap_or(0.0),
                cand_ctrs.get(name).copied().unwrap_or(0.0)
            );
        }
    }

    // counter-group rollup (informational; counters measure work done,
    // not wall time, so they are never gated)
    let ref_cgroups = counter_group_totals(&reference);
    let cand_cgroups = counter_group_totals(&candidate);
    let mut cgroups: Vec<&String> = ref_cgroups.keys().chain(cand_cgroups.keys()).collect();
    cgroups.sort_unstable();
    cgroups.dedup();
    if !cgroups.is_empty() {
        println!("\n  {:<12}{:>14}{:>14}{:>10}", "counters", "ref", "new", "delta");
        for g in cgroups {
            let r = ref_cgroups.get(g).copied().unwrap_or(0.0);
            let c = cand_cgroups.get(g).copied().unwrap_or(0.0);
            println!("  {:<12}{:>14}{:>14}{:>+9.1}%", g, r, c, pct(r, c));
        }
    }

    // phase-group gate
    let ref_groups = group_totals(&reference);
    let cand_groups = group_totals(&candidate);
    let mut warnings = 0usize;
    println!(
        "\n  {:<12}{:>12}{:>12}{:>10}  gate(>{warn_pct:.0}%)",
        "group", "ref_s", "new_s", "delta"
    );
    let mut groups: Vec<&String> = ref_groups.keys().chain(cand_groups.keys()).collect();
    groups.sort_unstable();
    groups.dedup();
    for g in groups {
        let r = ref_groups.get(g).copied().unwrap_or(0.0);
        let c = cand_groups.get(g).copied().unwrap_or(0.0);
        let delta = pct(r, c);
        let gated = GATED_GROUPS.contains(&g.as_str());
        let verdict = if !gated {
            "-"
        } else if r < MIN_GATE_SECONDS {
            "skip (ref below noise floor)"
        } else if delta > warn_pct {
            warnings += 1;
            "WARN: regression"
        } else {
            "ok"
        };
        println!("  {:<12}{:>12.4}{:>12.4}{:>+9.1}%  {verdict}", g, r, c, delta);
    }
    if warnings > 0 {
        eprintln!(
            "warning: {warnings} phase group(s) regressed more than {warn_pct:.0}% vs {ref_path}"
        );
        if fail {
            return Ok(ExitCode::from(3));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Render `results/BENCH_exec.json` (the core-scaling sweep written by
/// the `exec_perf` bench) as a GitHub-flavored markdown table, for the CI
/// perf-gate job summary. Plain JSON, no checksum envelope — the bench
/// report is a measurement log, not a sealed manifest.
fn exec_table(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = serde_json::from_str::<Value>(text.trim_end())
        .map_err(|e| format!("{path}: parse: {e}"))?;
    let str_of = |k: &str| doc.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let host_par = field_f64(&doc, "host_parallelism");
    println!("### exec core-scaling sweep");
    println!();
    println!(
        "host `{}` — host_parallelism {}, commit `{}`, averaged over {} iterations of {} steps",
        str_of("hostname"),
        host_par,
        str_of("commit"),
        field_f64(&doc, "iterations_averaged"),
        field_f64(&doc, "n_steps"),
    );
    println!();
    let rollout = doc.get("rows").and_then(|v| v.as_array()).unwrap_or_default();
    if !rollout.is_empty() {
        println!("| n_envs | rollout steps/s | speedup vs serial |");
        println!("|---:|---:|---:|");
        for r in rollout {
            println!(
                "| {} | {:.0} | {:.2}× |",
                field_f64(r, "n_envs"),
                field_f64(r, "steps_per_s"),
                field_f64(r, "speedup_vs_serial"),
            );
        }
        println!();
    }
    if host_par <= 1.0 {
        println!(
            "_single-core host: parallel rows cannot beat serial here; \
             the speedup column is informational only_"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |r: Result<(), String>| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("telemetry-report: {e}");
            ExitCode::from(2)
        }
    };
    match args.first().map(String::as_str) {
        Some("--diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else { return usage() };
            let mut warn_pct = 20.0;
            let mut fail = false;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--warn-pct" => {
                        let Some(p) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                            return usage();
                        };
                        warn_pct = p;
                        i += 2;
                    }
                    "--fail" => {
                        fail = true;
                        i += 1;
                    }
                    _ => return usage(),
                }
            }
            match diff(a, b, warn_pct, fail) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("telemetry-report: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("--exec-table") => {
            let Some(p) = args.get(1).filter(|_| args.len() == 2) else { return usage() };
            run(exec_table(p))
        }
        Some(path) if !path.starts_with('-') && args.len() == 1 => run(render(path)),
        _ => usage(),
    }
}
