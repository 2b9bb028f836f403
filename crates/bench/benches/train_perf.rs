//! Criterion micro-benchmarks of the training stack: policy forward
//! passes, gradient accumulation (per-sample and batched), and one full
//! PPO iteration for each of the paper's adversary architectures.
//!
//! Besides the Criterion timings, the benchmark measures the PPO
//! *update-phase* wall time (from the trainer's own
//! `TrainReport::update_wall_s`) of the batched update and the nn
//! kernels' time per call (`tanh_into_960k` is `nn::ops::tanh_into` over
//! one fleet forward's 960 000 hidden values), each over five runs, and
//! writes their medians and quartiles to `results/BENCH_train.json` — the
//! numbers quoted in `docs/PERF.md`.

use adv_bench::{results_dir, Spread};
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

    // the fleet shard's batched forward: 10 000 Pensieve rows per tick
    let pensieve = nn::Mlp::new(&[25, 64, 32, 6], nn::Activation::Tanh, &mut rng);
    let pdata: Vec<f64> = (0..10_000 * 25).map(|i| (i as f64 * 0.37).sin()).collect();
    let xp = nn::Matrix::from_vec(10_000, 25, pdata);
    c.bench_function("mlp_forward_batch10000_25x64x32x6", |b| {
        b.iter(|| black_box(pensieve.forward_batch(&xp)))
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
    /// Mean update-phase seconds per PPO iteration, one value per run.
    update_wall_s: Spread,
}

#[derive(Debug, Clone, Serialize)]
struct KernelRow {
    /// The Criterion benchmark of the same call.
    name: String,
    /// Microseconds per call, one value per run.
    us_per_call: Spread,
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
    /// Which libm variant the host ran (provenance,
    /// `telemetry::libm_fingerprint`).
    libm: String,
    host_parallelism: usize,
    n_steps: usize,
    minibatch_size: usize,
    epochs: usize,
    iterations_averaged: usize,
    rows: Vec<UpdateRow>,
    kernels: Vec<KernelRow>,
}

/// Independent runs behind every committed row.
const RUNS: usize = 5;

/// Mean update-phase wall time, from the trainer's own
/// `TrainReport::update_wall_s`, averaged over `iters` iterations after a
/// warm-up iteration.
fn measure_update(iters: usize) -> f64 {
    let mut env = AbrAdversaryEnv::new(
        abr::BufferBased::pensieve_defaults(),
        abr::Video::cbr(),
        AbrAdversaryConfig::default(),
    );
    let cfg = small_ppo_cfg(192);
    let mut ppo = Ppo::new_gaussian(adversary::abr_env::OBS_DIM, 1, &[32, 16], 0.8, cfg);
    let reports = ppo.train(&mut env, 192 * (iters + 1));
    let tail = &reports[1..];
    tail.iter().map(|r| r.update_wall_s).sum::<f64>() / tail.len() as f64
}

/// Microseconds per call of `f`, over enough calls to last about 0.2 s.
fn us_per_call(mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_secs_f64() < 0.2 {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// A named kernel call.
type Kernel<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// The 960 000 hidden pre-activations of one fleet forward: both tanh
/// layers of `net` over the 10 000 rows of `x`.
fn fleet_preacts(net: &nn::Mlp, x: &nn::Matrix) -> Vec<f64> {
    let mut input = x.clone();
    let mut preacts = Vec::new();
    for layer in &net.layers()[..net.layers().len() - 1] {
        let mut z = nn::Matrix::zeros(x.rows(), layer.outputs());
        let mut a = nn::Matrix::zeros(x.rows(), layer.outputs());
        layer.forward_batch_into(&input, &mut z, &mut a);
        preacts.extend_from_slice(z.as_slice());
        input = a;
    }
    preacts
}

/// The Criterion kernels of [`bench_nn`] and `nn::ops::tanh_into` over a
/// fleet forward's activations, timed [`RUNS`] times each.
fn kernel_rows() -> Vec<KernelRow> {
    let mut rng = StdRng::seed_from_u64(0);
    let net = nn::Mlp::new(&[110, 32, 16, 1], nn::Activation::Tanh, &mut rng);
    let x: Vec<f64> = (0..110).map(|i| (i as f64 * 0.1).sin()).collect();
    let xdata: Vec<f64> = (0..BATCH * 110).map(|i| (i as f64 * 0.1).sin()).collect();
    let xb = nn::Matrix::from_vec(BATCH, 110, xdata);
    let mut bgrads = nn::MlpGrads::zeros_like(&net);
    let mut bcache = net.new_batch_cache(BATCH);
    let dl = nn::Matrix::from_vec(BATCH, 1, vec![1.0; BATCH]);
    let pensieve = nn::Mlp::new(&[25, 64, 32, 6], nn::Activation::Tanh, &mut rng);
    let pdata: Vec<f64> = (0..10_000 * 25).map(|i| (i as f64 * 0.37).sin()).collect();
    let xp = nn::Matrix::from_vec(10_000, 25, pdata);
    let preacts = fleet_preacts(&pensieve, &xp);
    let mut acts = vec![0.0; preacts.len()];
    let mut kernels: Vec<Kernel> = vec![
        ("mlp_forward_110x32x16", Box::new(|| drop(black_box(net.forward(&x))))),
        ("mlp_forward_batch64_110x32x16", Box::new(|| drop(black_box(net.forward_batch(&xb))))),
        (
            "mlp_forward_backward_batch64_110x32x16",
            Box::new(|| {
                net.forward_batch_cached(&xb, &mut bcache);
                net.grads_batch(&bcache, &dl, &mut bgrads);
                black_box(&bgrads);
            }),
        ),
        (
            "mlp_forward_batch10000_25x64x32x6",
            Box::new(|| drop(black_box(pensieve.forward_batch(&xp)))),
        ),
        ("tanh_into_960k", Box::new(|| nn::ops::tanh_into(black_box(&preacts), &mut acts))),
    ];
    let mut samples = vec![Vec::new(); kernels.len()];
    // runs interleave the kernels, so host drift lands on all of them
    for _ in 0..RUNS {
        for ((_, f), runs) in kernels.iter_mut().zip(&mut samples) {
            runs.push(us_per_call(f));
        }
    }
    kernels
        .iter()
        .zip(samples)
        .map(|((name, _), runs)| {
            let row = KernelRow { name: name.to_string(), us_per_call: Spread::of(runs) };
            eprintln!(
                "[train_perf] {}: median {:.2} us/call (Q1 {:.2}, Q3 {:.2})",
                row.name, row.us_per_call.median, row.us_per_call.q1, row.us_per_call.q3
            );
            row
        })
        .collect()
}

/// PPO update-phase wall time and the nn kernels' time per call, each
/// from [`RUNS`] runs, written to `results/BENCH_train.json`.
fn bench_update(_c: &mut Criterion) {
    let iters = 5;
    let wall = Spread::of((0..RUNS).map(|_| measure_update(iters)).collect());
    eprintln!(
        "[train_perf] batched: update median {:.4}s/iter (Q1 {:.4}, Q3 {:.4})",
        wall.median, wall.q1, wall.q3
    );
    let rows = vec![UpdateRow { path: "batched".to_string(), update_wall_s: wall }];
    let prov = telemetry::provenance();
    let report = TrainBenchReport {
        commit: prov.commit,
        hostname: prov.hostname,
        cores: prov.cores,
        rustc: prov.rustc,
        libm: prov.libm,
        host_parallelism: exec::default_workers(),
        n_steps: 192,
        minibatch_size: 64,
        epochs: 3,
        iterations_averaged: iters,
        rows,
        kernels: kernel_rows(),
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

criterion_group!(benches, bench_nn, bench_ppo_iterations, bench_update);
criterion_main!(benches);
