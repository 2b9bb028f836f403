//! Criterion benchmark of the `exec` rollout engine: serial vs 2/4/8-worker
//! parallel collection on the ABR adversary environment.
//!
//! Besides the usual Criterion timings, the benchmark measures steady-state
//! collection throughput per worker count from the trainer's own
//! `TrainReport` timing fields over five runs that interleave the worker
//! counts, and writes each row's median and quartiles to
//! `results/BENCH_exec.json`. The numbers are whatever the host actually
//! delivers: on a single-core machine the parallel rows will not beat the
//! serial row — that is the honest result, not a bug in the engine (merge
//! order, and therefore the learned policy, is identical regardless).

use adv_bench::{results_dir, Spread};
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
    /// Median collection throughput over the runs.
    steps_per_s: f64,
    /// Collection throughput (steps/s), one value per run.
    steps_per_s_spread: Spread,
    /// Rollout seconds per iteration, one value per run.
    rollout_wall_s: Spread,
    /// `steps_per_s` over the `n_envs` 1 row's.
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
    /// Independent runs behind every row.
    runs: usize,
    rows: Vec<ThroughputRow>,
}

/// Independent runs behind every committed row.
const RUNS: usize = 5;

/// The worker counts of the sweep.
const N_ENVS: [usize; 4] = [1, 2, 4, 8];

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
    for n_envs in N_ENVS {
        c.bench_function(&format!("rollout_abr_{N_STEPS}steps_{n_envs}env"), |b| {
            b.iter_batched(
                || (env(), ppo(n_envs)),
                |(mut e, mut p)| black_box(p.train_vec(&mut e, N_STEPS)),
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // structured throughput report for the acceptance log; runs
    // interleave the worker counts, so host drift lands on all of them
    let iters = 3;
    let mut samples = vec![(Vec::new(), Vec::new()); N_ENVS.len()];
    for _ in 0..RUNS {
        for (n_envs, (walls, sps)) in N_ENVS.into_iter().zip(&mut samples) {
            let (wall, steps_per_s) = measure_throughput(n_envs, iters);
            walls.push(wall);
            sps.push(steps_per_s);
        }
    }
    let mut rows: Vec<ThroughputRow> = Vec::new();
    for (n_envs, (walls, sps)) in N_ENVS.into_iter().zip(samples) {
        let sps = Spread::of(sps);
        let serial = rows.first().map_or(sps.median, |r| r.steps_per_s);
        let row = ThroughputRow {
            n_envs,
            steps_per_s: sps.median,
            speedup_vs_serial: sps.median / serial,
            steps_per_s_spread: sps,
            rollout_wall_s: Spread::of(walls),
        };
        eprintln!(
            "[exec_perf] n_envs={n_envs}: median {:.0} steps/s (Q1 {:.0}, Q3 {:.0}; {:.2}x vs serial)",
            row.steps_per_s, row.steps_per_s_spread.q1, row.steps_per_s_spread.q3, row.speedup_vs_serial
        );
        rows.push(row);
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
        runs: RUNS,
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
