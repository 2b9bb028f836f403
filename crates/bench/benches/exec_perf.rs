//! Criterion benchmark of the `exec` rollout engine: serial vs 2/4/8-worker
//! parallel collection on the ABR adversary environment.
//!
//! Besides the usual Criterion timings, the benchmark measures steady-state
//! collection throughput per worker count from the trainer's own
//! `TrainReport` timing fields and writes `results/BENCH_exec.json`. The
//! numbers are whatever the host actually delivers: on a single-core
//! machine the parallel rows will not beat the serial row — that is the
//! honest result, not a bug in the engine (merge order, and therefore the
//! learned policy, is identical regardless).

use adv_bench::results_dir;
use adversary::{AbrAdversaryConfig, AbrAdversaryEnv};
use criterion::{criterion_group, criterion_main, Criterion};
use rl::{Ppo, PpoConfig};
use serde::Serialize;
use std::hint::black_box;

const N_STEPS: usize = 960;

fn ppo_cfg(n_envs: usize) -> PpoConfig {
    PpoConfig { n_steps: N_STEPS, minibatch_size: 96, epochs: 1, n_envs, ..PpoConfig::default() }
}

fn env() -> AbrAdversaryEnv<abr::BufferBased> {
    AbrAdversaryEnv::new(
        abr::BufferBased::pensieve_defaults(),
        abr::Video::cbr(),
        AbrAdversaryConfig::default(),
    )
}

fn ppo(n_envs: usize) -> Ppo {
    Ppo::new_gaussian(adversary::abr_env::OBS_DIM, 1, &[32, 16], 0.8, ppo_cfg(n_envs))
}

#[derive(Debug, Clone, Serialize)]
struct ThroughputRow {
    n_envs: usize,
    rollout_wall_s: f64,
    steps_per_s: f64,
    speedup_vs_serial: f64,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    /// Git commit the numbers were measured at (provenance).
    commit: String,
    /// Host the numbers were measured on (provenance).
    hostname: String,
    /// Physical parallelism of that host (provenance).
    cores: usize,
    /// Toolchain that compiled the benchmark (provenance).
    rustc: String,
    /// Which libm variant the host ran (provenance,
    /// `telemetry::libm_fingerprint`).
    libm: String,
    host_parallelism: usize,
    n_steps: usize,
    iterations_averaged: usize,
    rows: Vec<ThroughputRow>,
}

/// Steady-state collection throughput from the trainer's own timing
/// fields, averaged over a few iterations (the first is discarded as
/// warm-up).
fn measure_throughput(n_envs: usize, iters: usize) -> (f64, f64) {
    let mut e = env();
    let mut p = ppo(n_envs);
    let reports = p.train_vec(&mut e, N_STEPS * (iters + 1));
    let tail = &reports[1..];
    let wall: f64 = tail.iter().map(|r| r.rollout_wall_s).sum::<f64>() / tail.len() as f64;
    let sps: f64 = tail.iter().map(|r| r.rollout_steps_per_s).sum::<f64>() / tail.len() as f64;
    (wall, sps)
}

fn bench_rollout_workers(c: &mut Criterion) {
    for n_envs in [1usize, 2, 4, 8] {
        c.bench_function(&format!("rollout_abr_{N_STEPS}steps_{n_envs}env"), |b| {
            b.iter_batched(
                || (env(), ppo(n_envs)),
                |(mut e, mut p)| black_box(p.train_vec(&mut e, N_STEPS)),
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // structured throughput report for the acceptance log
    let iters = 3;
    let mut rows = Vec::new();
    let mut serial_sps = f64::NAN;
    for n_envs in [1usize, 2, 4, 8] {
        let (wall, sps) = measure_throughput(n_envs, iters);
        if n_envs == 1 {
            serial_sps = sps;
        }
        rows.push(ThroughputRow {
            n_envs,
            rollout_wall_s: wall,
            steps_per_s: sps,
            speedup_vs_serial: sps / serial_sps,
        });
        eprintln!(
            "[exec_perf] n_envs={n_envs}: {:.0} steps/s ({:.2}x vs serial)",
            sps,
            sps / serial_sps
        );
    }

    let prov = telemetry::provenance();
    let report = BenchReport {
        commit: prov.commit,
        hostname: prov.hostname,
        cores: prov.cores,
        rustc: prov.rustc,
        libm: prov.libm,
        host_parallelism: exec::default_workers(),
        n_steps: N_STEPS,
        iterations_averaged: iters,
        rows,
    };
    let path = results_dir().join("BENCH_exec.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            std::fs::write(&path, json).expect("write BENCH_exec.json");
            eprintln!("[exec_perf] wrote {}", path.display());
        }
        Err(e) => eprintln!("[exec_perf] could not serialize report: {e}"),
    }
}

criterion_group!(benches, bench_rollout_workers);
criterion_main!(benches);
