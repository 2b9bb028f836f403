//! Fleet-scale serving benchmark: run tens of thousands of concurrent
//! ABR sessions through the session-sharded batch-inference engine
//! (`crates/serve`) under benign and adversarial trace streams, for
//! each of {BB, MPC, Pensieve}.
//!
//! Per (protocol, stream) cell the binary reports the fleet mean and
//! 5th-percentile session QoE from the engine's constant-memory
//! quantile sketch, plus the serving throughput in **decisions/s**
//! (policy decisions = chunks fetched; see docs/PERF.md). Deterministic
//! results are cached through the crash-resumable [`Pipeline`];
//! throughput is a measurement, so it is printed fresh on every compute
//! and recorded only in the telemetry manifest — never in the cache.
//!
//! Run: `cargo run -p adv-bench --release --bin fleet_eval`. Writes
//! `results/fleet_eval.csv`.
//!
//! Knobs (env):
//!
//! * `FLEET_SESSIONS` — fleet size (default 20 000). MPC runs
//!   `max(sessions / 20, 1)` sessions: its decisions are per-session
//!   lookahead searches, not batched, and fleet QoE statistics converge
//!   long before 20 000 sessions. Changing the scaling would change
//!   MPC's cache keys and outputs.
//! * `FLEET_SHARDS` — worker shards (default [`exec::default_workers`]).
//!   Shard count never changes results (DESIGN.md §13), only speed.
//! * `FLEET_PROTOCOLS` — comma list from {bb, mpc, pensieve}
//!   (default all three).
//! * `FLEET_TRAIN_STEPS` — PPO steps for the served Pensieve model
//!   (default 24 000: a serving-workload model, not a paper-grade one).

use abr::{BufferBased, Mpc, Pensieve};
use adv_bench::pipeline::{Pipeline, UnitKey};
use adv_bench::{banner, fmt_row, results_dir, Scale};
use serde::{Deserialize, Serialize};
use serve::{run_fleet, FleetConfig, FleetPolicy};
use std::cell::Cell;
use traces::{GenConfig, TraceFamily, TraceStream};

/// Deterministic part of a fleet run: pure function of
/// `(protocol, stream, sessions)` — shard count and wall-clock are
/// excluded by the engine's shard-invariance contract, so the cached
/// value replays byte-identically on resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FleetCell {
    sessions: usize,
    decisions: u64,
    mean_qoe: f64,
    p5_qoe: f64,
    /// Sketch memory footprint (tuples), to make the constant-memory
    /// claim auditable from the CSV/manifest.
    sketch_tuples: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let scale = Scale::from_env();
    let sessions = env_usize("FLEET_SESSIONS", 20_000);
    let shards = env_usize("FLEET_SHARDS", exec::default_workers());
    let train_steps = env_usize("FLEET_TRAIN_STEPS", 24_000);
    let protocols: Vec<String> = std::env::var("FLEET_PROTOCOLS")
        .unwrap_or_else(|_| "bb,mpc,pensieve".to_string())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    banner(&format!(
        "fleet_eval — {sessions} sessions x {} protocols over {shards} shards",
        protocols.len()
    ));
    let mut pipe = Pipeline::new("fleet_eval", scale);

    // ---- serving model: one modest Pensieve, trained once and cached.
    // Same corpus recipe as abr_eval's unit so the policy has no trivial
    // out-of-distribution holes, but far fewer steps — this binary
    // measures serving, not training.
    let ppo_cfg = rl::PpoConfig {
        n_steps: 1920,
        minibatch_size: 96,
        epochs: 5,
        lr: 3e-4,
        ent_coef: 0.01,
        seed: 41,
        ..rl::PpoConfig::default()
    };
    let need_pensieve = protocols.iter().any(|p| p == "pensieve");
    let pensieve: Option<Pensieve> = need_pensieve.then(|| {
        let key =
            UnitKey::of(&("pensieve-corpus-v1", train_steps), "fleet_pensieve_train", &ppo_cfg);
        Pipeline::require(
            pipe.unit("train serving pensieve", &key, || {
                eprintln!("[fleet_eval] training serving pensieve ({train_steps} steps)...");
                let latency_ms = 80.0;
                let mut corpus: Vec<traces::Trace> = (0..80)
                    .map(|i| traces::random_abr_trace(1000 + i, 80, 4.0, latency_ms))
                    .collect();
                for i in 0..10u64 {
                    let bw = 0.8 + 0.15 * i as f64;
                    corpus.push(traces::Trace::new(
                        format!("const-low-{i}"),
                        vec![traces::Segment::bw(320.0, bw, latency_ms)],
                    ));
                }
                let gen_cfg = traces::GenConfig { latency_ms, ..Default::default() };
                for i in 0..10u64 {
                    corpus.push(traces::hsdpa_like(3000 + i, &gen_cfg));
                }
                let (pensieve, _, _) = abr::env::train_pensieve(
                    corpus,
                    abr::Video::cbr(),
                    abr::QoeParams::default(),
                    train_steps,
                    ppo_cfg.clone(),
                );
                pensieve
            }),
            "serving pensieve training",
        )
    });

    // ---- the fleet matrix: protocol x {benign, adversarial} stream.
    let streams = [
        ("benign", TraceFamily::BenignMix, 9001u64),
        ("adversarial", TraceFamily::AdversarialLike, 9002u64),
    ];
    let mut rows: Vec<String> = Vec::new();
    for proto in &protocols {
        let n_sessions = match proto.as_str() {
            "bb" => sessions,
            // MPC's per-session lookahead search is not batched
            "mpc" => (sessions / 20).max(1),
            "pensieve" => sessions,
            other => {
                eprintln!("[fleet_eval] unknown protocol {other:?}, skipping");
                continue;
            }
        };
        for (stream_tag, family, base_seed) in streams {
            let stream = TraceStream::new(family, base_seed, GenConfig::default());
            let key = UnitKey::of(
                &(family.tag(), base_seed, n_sessions as u64),
                &format!("fleet_{proto}"),
                &(pensieve.as_ref().map(UnitKey::hash_of).unwrap_or(0), "fleet v1"),
            );
            // wall-clock is a fresh measurement, captured outside the
            // cacheable value (cache hits have no meaningful timing)
            let timing: Cell<Option<(f64, f64)>> = Cell::new(None);
            // robustness accounting (quarantined / fallbacks / shed /
            // shard retries) is all zero on a healthy fleet and only
            // meaningful on the run that computed the cell, so it is
            // printed fresh and kept out of the cached value
            let accounting: Cell<Option<(u64, u64, usize, u64)>> = Cell::new(None);
            let cell: FleetCell = Pipeline::require(
                pipe.unit(&format!("fleet {proto} on {stream_tag}"), &key, || {
                    let cfg = FleetConfig::new(n_sessions, shards);
                    let policy = match proto.as_str() {
                        "bb" => FleetPolicy::per_session(|_id| {
                            Box::new(BufferBased::pensieve_defaults()) as _
                        }),
                        "mpc" => FleetPolicy::per_session(|_id| Box::new(Mpc::default()) as _),
                        _ => {
                            FleetPolicy::batched(pensieve.clone().expect("pensieve trained above"))
                        }
                    };
                    let summary = run_fleet(&cfg, &policy, &stream);
                    timing.set(Some((summary.wall_s, summary.decisions_per_s)));
                    accounting.set(Some((
                        summary.quarantined,
                        summary.fallbacks,
                        summary.shed,
                        summary.shard_retries,
                    )));
                    FleetCell {
                        sessions: summary.sessions,
                        decisions: summary.decisions,
                        mean_qoe: summary.mean_qoe,
                        p5_qoe: summary.p5_qoe,
                        sketch_tuples: summary.sketch.tuples_len(),
                    }
                }),
                "fleet cell",
            );
            println!(
                "{}",
                fmt_row(
                    &format!("{proto} on {stream_tag} ({} sessions)", cell.sessions),
                    &[cell.mean_qoe, cell.p5_qoe],
                )
            );
            match timing.get() {
                Some((wall_s, dps)) => println!(
                    "    {} decisions in {wall_s:.2}s -> {dps:.0} decisions/s \
                     ({} sketch tuples)",
                    cell.decisions, cell.sketch_tuples
                ),
                None => println!(
                    "    {} decisions (cached; re-run with a cold cache to measure \
                     throughput)",
                    cell.decisions
                ),
            }
            if let Some((quarantined, fallbacks, shed, retries)) = accounting.get() {
                println!(
                    "    robustness: {quarantined} quarantined, {fallbacks} fallback \
                     decisions, {shed} shed, {retries} shard retries"
                );
            }
            rows.push(format!(
                "{proto},{stream_tag},{},{shards},{},{:.6},{:.6},{}",
                cell.sessions, cell.decisions, cell.mean_qoe, cell.p5_qoe, cell.sketch_tuples
            ));
        }
    }

    println!("\n(columns: mean QoE, p5 QoE)");
    let path = results_dir().join("fleet_eval.csv");
    let csv = format!(
        "protocol,stream,sessions,shards,decisions,mean_qoe,p5_qoe,sketch_tuples\n{}\n",
        rows.join("\n")
    );
    if let Err(e) = std::fs::write(&path, csv) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    pipe.finish();
    println!("wrote {}", path.display());
}
