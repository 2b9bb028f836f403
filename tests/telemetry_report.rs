//! End-to-end tests of the `telemetry-report` tool: rendering a sealed run
//! manifest, the checksum gate in front of it, the phase-group perf-gate
//! diff (`--diff`, `--warn-pct`, `--fail`) and the `--exec-table` markdown
//! rendering of `results/BENCH_exec.json`. Manifests are built with the
//! telemetry crate's own `render_body` + `seal_body`, so the files are
//! byte-for-byte what `ADVNET_TELEMETRY=on` runs write.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use telemetry::{HistStat, Provenance, RunMeta, Snapshot, SpanStat};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_telemetry-report")).args(args).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("advnet-telemetry-report-{tag}"));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn span(count: u64, total_s: f64) -> SpanStat {
    SpanStat { count, total_s, min_s: total_s / count as f64, max_s: total_s / count as f64 }
}

/// A snapshot whose spans are `(name, total seconds)` and whose counters
/// are `(name, value)`.
fn snapshot(spans: &[(&str, f64)], counters: &[(&str, u64)]) -> Snapshot {
    Snapshot {
        counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        gauges: BTreeMap::new(),
        hists: BTreeMap::new(),
        spans: spans.iter().map(|(k, s)| (k.to_string(), span(2, *s))).collect(),
    }
}

fn provenance(cores: usize) -> Provenance {
    Provenance {
        commit: format!("commit-{cores}"),
        hostname: "testhost".to_string(),
        cores,
        rustc: "rustc-test".to_string(),
        os: "testos".to_string(),
        libm: "0123456789abcdef".to_string(),
    }
}

/// Write `snap` as a sealed manifest and return its path.
fn write_manifest(dir: &Path, name: &str, cores: usize, snap: &Snapshot) -> String {
    let meta = RunMeta {
        run_id: name.to_string(),
        seed: Some(7),
        config: vec![("command".to_string(), "fig3 --smoke".to_string())],
    };
    let body = telemetry::render_body(&meta, &provenance(cores), snap);
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, telemetry::seal_body(&body)).unwrap();
    path.to_str().unwrap().to_string()
}

/// `(group, verdict)` of every row of the diff's phase-group gate table.
fn gate_verdicts(out: &Output) -> BTreeMap<String, String> {
    let text = stdout(out);
    let table = text.split("gate(>").nth(1).expect("diff printed no gate table");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let group = line.split_whitespace().next()?;
            let verdict = line.split('%').nth(1)?.trim();
            Some((group.to_string(), verdict.to_string()))
        })
        .collect()
}

#[test]
fn malformed_command_lines_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &[],
        &["--frobnicate"],
        &["a.json", "b.json"],
        &["--diff", "only-one.json"],
        &["--diff", "a.json", "b.json", "--warn-pct"],
        &["--diff", "a.json", "b.json", "--warn-pct", "lots"],
        &["--diff", "a.json", "b.json", "--strict"],
        &["--exec-table"],
        &["--exec-table", "a.json", "b.json"],
    ];
    for args in cases {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).contains("usage:"), "args {args:?}: {}", stderr(&out));
    }
}

#[test]
fn renders_every_section_of_a_sealed_manifest() {
    let dir = tmpdir("render");
    let mut snap = snapshot(
        &[("train.rollout", 0.25), ("train.update", 0.5)],
        &[("rl.iterations", 3), ("nn.flops", 1200), ("netsim.events", 40)],
    );
    snap.gauges.insert("serve.decisions_per_s".to_string(), 1500.0);
    snap.hists.insert(
        "exec.slot.busy_s".to_string(),
        HistStat {
            count: 2,
            sum: 0.5,
            min: 0.2,
            max: 0.3,
            zero_or_neg: 0,
            buckets: BTreeMap::from([(-2, 2)]),
        },
    );
    let path = write_manifest(&dir, "render-run", 4, &snap);

    let out = report(&[&path]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "run_id: render-run",
        "seed:   7",
        "commit: commit-4  host: testhost (4 cores)",
        "rustc:  rustc-test  os: testos  libm: 0123456789abcdef",
        "command = fig3 --smoke",
        "train.rollout",
        "train.update",
        "rl.iterations",
        "serve.decisions_per_s",
        "exec.slot.busy_s",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // counters roll up under their first name segment
    let group_table = text.split("counter group").nth(1).expect("no counter-group table");
    for (group, total) in [("nn", "1200"), ("netsim", "40"), ("rl", "3")] {
        assert!(
            group_table.lines().any(|l| l.split_whitespace().eq([group, total])),
            "group {group} should total {total}:\n{group_table}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn renders_a_manifest_written_before_the_libm_fingerprint() {
    let dir = tmpdir("render-old");
    let meta = RunMeta { run_id: "old-run".to_string(), seed: None, config: vec![] };
    let snap = snapshot(&[("train.update", 0.5)], &[]);
    let body = telemetry::render_body(&meta, &provenance(2), &snap);
    let old = body.replace(",\"libm\":\"0123456789abcdef\"", "");
    assert_ne!(old, body, "the provenance renders a libm field");
    let path = dir.join("old-run.json");
    std::fs::write(&path, telemetry::seal_body(&old)).unwrap();
    let out = report(&[path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.lines().any(|l| l.trim() == "rustc:  rustc-test  os: testos"), "{text}");
    assert!(!text.contains("libm"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_a_manifest_whose_body_changed_on_disk() {
    let dir = tmpdir("rot");
    let path = write_manifest(&dir, "rot", 2, &snapshot(&[("train.update", 0.5)], &[]));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"total_s\":0.5", "\"total_s\":0.6")).unwrap();

    let out = report(&[&path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("checksum mismatch"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may be rendered from a rotted manifest");
    std::fs::remove_dir_all(&dir).ok();
}

/// Seal a manifest, rewrite its 16-digit checksum with `edit`, and
/// return what `telemetry-report` does with the result.
fn report_with_edited_checksum(tag: &str, edit: impl Fn(&str) -> String) -> Output {
    let dir = tmpdir(tag);
    let path = write_manifest(&dir, tag, 2, &snapshot(&[("train.update", 0.5)], &[]));
    let text = std::fs::read_to_string(&path).unwrap();
    let (prefix, rest) = text.split_at("{\"fnv1a\":\"".len());
    let (hex, tail) = rest.split_at(16);
    std::fs::write(&path, format!("{prefix}{}{tail}", edit(hex))).unwrap();
    let out = report(&[&path]);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn rejects_a_checksum_with_a_case_flipped_letter() {
    // One bit (0x20) upper-cases a hex letter; the value it parses to is
    // unchanged, so only the digit check can catch it.
    let out = report_with_edited_checksum("upper", |hex| {
        let at = hex.find(|c: char| c.is_ascii_lowercase()).expect("checksum has a hex letter");
        format!("{}{}{}", &hex[..at], hex[at..=at].to_ascii_uppercase(), &hex[at + 1..])
    });
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("malformed checksum"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may be rendered from a rotted manifest");
}

#[test]
fn rejects_a_checksum_cut_inside_a_multibyte_character() {
    // `é` is two bytes, so byte 16 of the checksum falls inside it.
    let out = report_with_edited_checksum("straddle", |hex| format!("{}é", &hex[..15]));
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("malformed checksum"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may be rendered from a rotted manifest");
}

#[test]
fn rejects_an_unsealed_manifest() {
    let dir = tmpdir("unsealed");
    let snap = snapshot(&[("train.update", 0.5)], &[]);
    let meta = RunMeta { run_id: "bare".to_string(), seed: None, config: Vec::new() };
    let path = dir.join("bare.json");
    std::fs::write(&path, telemetry::render_body(&meta, &provenance(1), &snap)).unwrap();

    for args in [
        vec![path.to_str().unwrap()],
        vec!["--diff", path.to_str().unwrap(), path.to_str().unwrap()],
    ] {
        let out = report(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).contains("missing fnv1a envelope"), "{}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_fails_on_a_gated_regression_only_with_the_fail_flag() {
    let dir = tmpdir("gate");
    let reference = write_manifest(
        &dir,
        "ref",
        2,
        &snapshot(&[("train.rollout", 0.25), ("train.update", 0.25), ("sim.run", 0.1)], &[]),
    );
    // train grows 40% (0.5 s -> 0.7 s), sim holds still
    let candidate = write_manifest(
        &dir,
        "cand",
        2,
        &snapshot(&[("train.rollout", 0.25), ("train.update", 0.45), ("sim.run", 0.1)], &[]),
    );

    let warn_only = report(&["--diff", &reference, &candidate]);
    assert_eq!(warn_only.status.code(), Some(0), "{}", stderr(&warn_only));
    assert!(stderr(&warn_only).contains("1 phase group(s) regressed more than 20%"));
    let verdicts = gate_verdicts(&warn_only);
    assert_eq!(verdicts["train"], "WARN: regression");
    assert_eq!(verdicts["sim"], "ok");

    let gated = report(&["--diff", &reference, &candidate, "--fail"]);
    assert_eq!(gated.status.code(), Some(3), "{}", stderr(&gated));

    // a candidate that improved passes the gate
    let improved = report(&["--diff", &candidate, &reference, "--fail"]);
    assert_eq!(improved.status.code(), Some(0), "{}", stderr(&improved));
    assert_eq!(gate_verdicts(&improved)["train"], "ok");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_never_gates_ungated_groups() {
    let dir = tmpdir("ungated");
    let reference = write_manifest(&dir, "ref", 2, &snapshot(&[("bench.fig3", 1.0)], &[]));
    let candidate = write_manifest(&dir, "cand", 2, &snapshot(&[("bench.fig3", 6.0)], &[]));

    let out = report(&["--diff", &reference, &candidate, "--fail"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(gate_verdicts(&out)["bench"], "-");
    assert!(stdout(&out).contains("+500.0%"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_skips_groups_below_the_noise_floor() {
    let dir = tmpdir("noise");
    let reference = write_manifest(&dir, "ref", 2, &snapshot(&[("exec.slots", 0.0005)], &[]));
    let candidate = write_manifest(&dir, "cand", 2, &snapshot(&[("exec.slots", 0.005)], &[]));

    let out = report(&["--diff", &reference, &candidate, "--fail"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(gate_verdicts(&out)["exec"], "skip (ref below noise floor)");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_threshold_follows_warn_pct() {
    let dir = tmpdir("warnpct");
    let reference = write_manifest(&dir, "ref", 2, &snapshot(&[("sim.run", 1.0)], &[]));
    let candidate = write_manifest(&dir, "cand", 2, &snapshot(&[("sim.run", 1.3)], &[]));

    let default = report(&["--diff", &reference, &candidate, "--fail"]);
    assert_eq!(default.status.code(), Some(3), "30% is over the default 20% threshold");
    let loose = report(&["--diff", &reference, &candidate, "--warn-pct", "50", "--fail"]);
    assert_eq!(loose.status.code(), Some(0), "{}", stderr(&loose));
    assert_eq!(gate_verdicts(&loose)["sim"], "ok");
    let strict = report(&["--diff", &reference, &candidate, "--fail", "--warn-pct", "10"]);
    assert_eq!(strict.status.code(), Some(3), "flags may come in any order");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_warns_when_host_parallelism_differs() {
    let dir = tmpdir("cores");
    let snap = snapshot(&[("train.update", 0.5)], &[]);
    let one = write_manifest(&dir, "one", 1, &snap);
    let four = write_manifest(&dir, "four", 4, &snap);
    let other_one = write_manifest(&dir, "other-one", 1, &snap);

    let mixed = report(&["--diff", &one, &four]);
    assert!(mixed.status.success());
    assert!(stdout(&mixed).contains("host_parallelism: ref 1 cores, candidate 4 cores"));
    assert!(stderr(&mixed).contains("host_parallelism differs"), "{}", stderr(&mixed));

    let same = report(&["--diff", &one, &other_one]);
    assert!(same.status.success());
    assert!(!stderr(&same).contains("host_parallelism differs"), "{}", stderr(&same));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_lists_only_changed_counters() {
    let dir = tmpdir("counters");
    let reference = write_manifest(
        &dir,
        "ref",
        2,
        &snapshot(&[], &[("nn.flops", 1000), ("rl.iterations", 3), ("exec.items", 8)]),
    );
    let candidate = write_manifest(
        &dir,
        "cand",
        2,
        &snapshot(&[], &[("nn.flops", 1000), ("rl.iterations", 4), ("netsim.events", 5)]),
    );

    let out = report(&["--diff", &reference, &candidate]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let changed = text
        .split("counter (changed)")
        .nth(1)
        .and_then(|t| t.split("\n\n").next())
        .expect("no changed-counter table");
    let names: Vec<&str> =
        changed.lines().skip(1).filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(names, ["exec.items", "netsim.events", "rl.iterations"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exec_table_renders_the_committed_rollout_sweep() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_exec.json");
    let doc: serde::Value =
        serde_json::from_str(std::fs::read_to_string(&path).unwrap().trim_end()).unwrap();
    let n_rows = doc.get("rows").and_then(|v| v.as_array()).map_or(0, |rows| rows.len());
    assert!(n_rows > 0, "committed BENCH_exec.json has no rollout rows");

    let out = report(&["--exec-table", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("### exec core-scaling sweep"), "{text}");
    let tables: Vec<&str> = text.lines().filter(|l| l.starts_with("| n_envs")).collect();
    assert_eq!(tables, ["| n_envs | rollout steps/s | speedup vs serial |"]);
    let rows: Vec<&str> =
        text.lines().filter(|l| l.starts_with("| ") && !l.starts_with("| n_envs")).collect();
    assert_eq!(rows.len(), n_rows, "{text}");
    assert!(rows[0].starts_with("| 1 |") && rows[0].ends_with("| 1.00× |"), "{}", rows[0]);
}

#[test]
fn exec_table_marks_single_core_hosts() {
    let dir = tmpdir("exec-table");
    let bench = |host_parallelism: usize| {
        format!(
            r#"{{"commit":"abc","hostname":"h","host_parallelism":{host_parallelism},"n_steps":960,"iterations_averaged":3,"rows":[{{"n_envs":1,"steps_per_s":1000.4,"speedup_vs_serial":1}},{{"n_envs":2,"steps_per_s":1500,"speedup_vs_serial":1.5}}]}}"#
        )
    };
    let single = dir.join("single.json");
    let dual = dir.join("dual.json");
    std::fs::write(&single, bench(1)).unwrap();
    std::fs::write(&dual, bench(2)).unwrap();

    let out = report(&["--exec-table", single.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("host `h` — host_parallelism 1, commit `abc`"), "{text}");
    assert!(text.contains("| 1 | 1000 | 1.00× |") && text.contains("| 2 | 1500 | 1.50× |"));
    assert!(text.contains("_single-core host:"), "{text}");

    let out = report(&["--exec-table", dual.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(!stdout(&out).contains("single-core host"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exec_table_rejects_unreadable_input() {
    let dir = tmpdir("exec-table-bad");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"rows\": [").unwrap();

    let out = report(&["--exec-table", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("parse"), "{}", stderr(&out));
    let out = report(&["--exec-table", dir.join("missing.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("read"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}
