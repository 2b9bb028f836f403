//! Criterion micro-benchmarks of the training stack: policy forward
//! passes, gradient accumulation (per-sample and batched), and one full
//! PPO iteration for each of the paper's adversary architectures.
//!
//! Besides the Criterion timings, the benchmark measures the PPO
//! *update-phase* wall time (from the trainer's own
//! `TrainReport::update_wall_s`) under the legacy per-sample path and the
//! batched matrix–matrix path, and writes `results/BENCH_train.json` — the
//! numbers quoted in `docs/PERF.md`. Both paths produce bit-identical
//! training trajectories (see the `update_equivalence` test suite); only
//! the wall clock differs.

use adv_bench::results_dir;
use adversary::{AbrAdversaryConfig, AbrAdversaryEnv, CcAdversaryConfig, CcAdversaryEnv};
use cc::Bbr;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Ppo, PpoConfig};
use serde::Serialize;
use std::hint::black_box;

fn small_ppo_cfg(n_steps: usize) -> PpoConfig {
    PpoConfig { n_steps, minibatch_size: 64, epochs: 3, ..PpoConfig::default() }
}

const BATCH: usize = 64;

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    // the ABR adversary's network: 110 -> 32 -> 16 -> 1
    let net = nn::Mlp::new(&[110, 32, 16, 1], nn::Activation::Tanh, &mut rng);
    let x: Vec<f64> = (0..110).map(|i| (i as f64 * 0.1).sin()).collect();
    c.bench_function("mlp_forward_110x32x16", |b| b.iter(|| black_box(net.forward(&x))));

    let mut grads = nn::MlpGrads::zeros_like(&net);
    let mut cache = net.new_cache();
    c.bench_function("mlp_forward_backward_110x32x16", |b| {
        b.iter(|| {
            net.forward_cached(&x, &mut cache);
            black_box(net.backward(&cache, &[1.0], &mut grads));
        })
    });

    // batched kernels on a 64-row batch, vs the per-sample loop above
    let xdata: Vec<f64> = (0..BATCH * 110).map(|i| (i as f64 * 0.1).sin()).collect();
    let xb = nn::Matrix::from_vec(BATCH, 110, xdata);
    c.bench_function("mlp_forward_batch64_110x32x16", |b| {
        b.iter(|| black_box(net.forward_batch(&xb)))
    });

    let mut bgrads = nn::MlpGrads::zeros_like(&net);
    let mut bcache = net.new_batch_cache(BATCH);
    let dl = nn::Matrix::from_vec(BATCH, 1, vec![1.0; BATCH]);
    c.bench_function("mlp_forward_backward_batch64_110x32x16", |b| {
        b.iter(|| {
            net.forward_batch_cached(&xb, &mut bcache);
            net.grads_batch(&bcache, &dl, &mut bgrads);
            black_box(&bgrads);
        })
    });
}

#[derive(Debug, Clone, Serialize)]
struct UpdateRow {
    path: String,
    update_wall_s: f64,
    speedup_vs_legacy: f64,
}

#[derive(Debug, Clone, Serialize)]
struct TrainBenchReport {
    /// Git commit the numbers were measured at (provenance).
    commit: String,
    /// Host the numbers were measured on (provenance).
    hostname: String,
    /// Physical parallelism of that host (provenance).
    cores: usize,
    /// Toolchain that compiled the benchmark (provenance).
    rustc: String,
    host_parallelism: usize,
    n_steps: usize,
    minibatch_size: usize,
    epochs: usize,
    iterations_averaged: usize,
    rows: Vec<UpdateRow>,
}

/// Mean update-phase wall time under a given path, from the trainer's
/// own `TrainReport::update_wall_s`, averaged over `iters` iterations
/// after a warm-up iteration.
fn measure_update(batched: bool, iters: usize) -> f64 {
    let mut env = AbrAdversaryEnv::new(
        abr::BufferBased::pensieve_defaults(),
        abr::Video::cbr(),
        AbrAdversaryConfig::default(),
    );
    let cfg = PpoConfig { batched_updates: batched, ..small_ppo_cfg(192) };
    let mut ppo = Ppo::new_gaussian(adversary::abr_env::OBS_DIM, 1, &[32, 16], 0.8, cfg);
    let reports = ppo.train(&mut env, 192 * (iters + 1));
    let tail = &reports[1..];
    tail.iter().map(|r| r.update_wall_s).sum::<f64>() / tail.len() as f64
}

/// PPO update-phase wall time across the two gradient paths, written to
/// `results/BENCH_train.json`.
fn bench_update_paths(_c: &mut Criterion) {
    let iters = 5;
    let mut rows = Vec::new();
    let mut legacy_wall = f64::NAN;
    for (path, batched) in [("legacy_per_sample", false), ("batched", true)] {
        let wall = measure_update(batched, iters);
        if !batched {
            legacy_wall = wall;
        }
        rows.push(UpdateRow {
            path: path.to_string(),
            update_wall_s: wall,
            speedup_vs_legacy: legacy_wall / wall,
        });
        eprintln!(
            "[train_perf] {path}: update {:.4}s/iter ({:.2}x vs legacy)",
            wall,
            legacy_wall / wall
        );
    }
    let prov = telemetry::provenance();
    let report = TrainBenchReport {
        commit: prov.commit,
        hostname: prov.hostname,
        cores: prov.cores,
        rustc: prov.rustc,
        host_parallelism: exec::default_workers(),
        n_steps: 192,
        minibatch_size: 64,
        epochs: 3,
        iterations_averaged: iters,
        rows,
    };
    let path = results_dir().join("BENCH_train.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            std::fs::write(&path, json).expect("write BENCH_train.json");
            eprintln!("[train_perf] wrote {}", path.display());
        }
        Err(e) => eprintln!("[train_perf] could not serialize report: {e}"),
    }
}

fn bench_ppo_iterations(c: &mut Criterion) {
    c.bench_function("ppo_iteration_abr_adversary_vs_bb", |b| {
        b.iter_batched(
            || {
                let env = AbrAdversaryEnv::new(
                    abr::BufferBased::pensieve_defaults(),
                    abr::Video::cbr(),
                    AbrAdversaryConfig::default(),
                );
                let ppo = Ppo::new_gaussian(
                    adversary::abr_env::OBS_DIM,
                    1,
                    &[32, 16],
                    0.8,
                    small_ppo_cfg(192),
                );
                (env, ppo)
            },
            |(mut env, mut ppo)| black_box(ppo.train_iteration(&mut env)),
            criterion::BatchSize::SmallInput,
        )
    });

    c.bench_function("ppo_iteration_cc_adversary_vs_bbr", |b| {
        b.iter_batched(
            || {
                let env = CcAdversaryEnv::new(
                    Box::new(|| Box::new(Bbr::new())),
                    CcAdversaryConfig { episode_steps: 200, ..CcAdversaryConfig::default() },
                );
                let ppo = Ppo::new_gaussian(2, 3, &[4], 0.8, small_ppo_cfg(200));
                (env, ppo)
            },
            |(mut env, mut ppo)| black_box(ppo.train_iteration(&mut env)),
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_nn, bench_ppo_iterations, bench_update_paths);
criterion_main!(benches);
