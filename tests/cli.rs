//! End-to-end tests of the `advnet` command-line tool (Cargo builds the
//! binary for integration tests and exposes its path via
//! `CARGO_BIN_EXE_advnet`).

use std::process::Command;

fn advnet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_advnet"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("advnet-cli-{tag}"));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = advnet().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = advnet().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn gen_corpus_and_stats_roundtrip() {
    let dir = tmpdir("corpus");
    let path = dir.join("hsdpa.json");
    let out =
        advnet().args(["gen-corpus", "hsdpa", "4", path.to_str().unwrap(), "7"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(path.exists());

    let out = advnet().args(["stats", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hsdpa-like-7"));
    assert!(stdout.contains("(4 traces)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_reports_per_trace_qoe() {
    let dir = tmpdir("replay");
    let path = dir.join("random.json");
    advnet().args(["gen-corpus", "random", "3", path.to_str().unwrap(), "1"]).status().unwrap();
    let out = advnet().args(["replay-abr", "mpc", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("QoE/chunk"));
    assert!(stdout.contains("mpc over 3 traces"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cem_attack_writes_a_trace() {
    let dir = tmpdir("cem");
    let path = dir.join("cem.json");
    // tiny search so the test stays fast
    let out =
        advnet().args(["attack-cem", "bb", path.to_str().unwrap(), "3", "5"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let traces = traces::io::load_traces(&path).unwrap();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].segments.len(), 48);
    // every bandwidth inside the adversary's action space
    assert!(traces[0].segments.iter().all(|s| (0.8..=4.8).contains(&s.bandwidth_mbps)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_rejects_missing_file() {
    let out = advnet().args(["stats", "/nonexistent/nowhere.json"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_protocol_names_exit_2_with_usage() {
    for args in [
        &["replay-abr", "pensieve", "/nonexistent/traces.json"][..],
        &["attack-cem", "pensieve", "/nonexistent/out.json"],
        &["attack-abr", "pensieve", "3", "/nonexistent/out.json"],
    ] {
        let out = advnet().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "args {args:?}");
    }
}

#[test]
fn gen_corpus_rejects_unknown_kind_and_bad_count() {
    let dir = tmpdir("gen-bad");
    let path = dir.join("never.json");
    std::fs::remove_file(&path).ok();
    let out = advnet().args(["gen-corpus", "lte", "3", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown corpus kind \"lte\""));
    let out =
        advnet().args(["gen-corpus", "fcc", "many", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert!(!path.exists(), "a rejected command must not write its output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_fault_plan_is_rejected_before_any_work() {
    let dir = tmpdir("bad-plan");
    let path = dir.join("never.json");
    std::fs::remove_file(&path).ok();
    let out = advnet()
        .env("ADVNET_FAULT_PLAN", "explode@ppo.update:1")
        .args(["gen-corpus", "fcc", "2", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid ADVNET_FAULT_PLAN"), "{stderr}");
    assert!(stderr.contains("unknown fault kind"), "{stderr}");
    assert!(!path.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_seed_corpora_are_byte_identical() {
    let dir = tmpdir("determinism");
    let gen = |name: &str, seed: &str| {
        let path = dir.join(name);
        let out = advnet()
            .args(["gen-corpus", "fcc", "3", path.to_str().unwrap(), seed])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read(path).unwrap()
    };
    let a = gen("a.json", "5");
    assert_eq!(a, gen("b.json", "5"));
    assert_ne!(a, gen("c.json", "6"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaying_an_empty_corpus_reports_no_traces() {
    let dir = tmpdir("empty");
    let path = dir.join("empty.json");
    let out =
        advnet().args(["gen-corpus", "random", "0", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = advnet().args(["replay-abr", "bb", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bb over 0 traces"), "{stdout}");
    assert!(!stdout.contains("QoE/chunk"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_run_manifest_renders_with_telemetry_report() {
    let dir = tmpdir("manifest");
    let corpus = dir.join("corpus.json");
    let run = |telemetry: &str| {
        let out = advnet()
            .env("ADVNET_TELEMETRY", telemetry)
            .env("RESULTS_DIR", &dir)
            .env("ADVNET_RUN_ID", "cli-manifest")
            .args(["gen-corpus", "hsdpa", "2", corpus.to_str().unwrap(), "3"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    };
    let manifest = dir.join("runs").join("cli-manifest.json");
    std::fs::remove_file(&manifest).ok();

    run("off");
    assert!(!manifest.exists(), "telemetry off must not write a manifest");
    run("on");
    assert!(manifest.exists());
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry-report")).arg(&manifest).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run_id: cli-manifest"), "{stdout}");
    let command = format!("command = gen-corpus hsdpa 2 {} 3", corpus.display());
    assert!(stdout.contains(&command), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
