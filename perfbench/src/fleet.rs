//! `fleet-pensieve`: serve a fleet of benign-mix ABR sessions with a
//! batched Pensieve through `serve::run_fleet` on two shards, after
//! training the served Pensieve as set-up exactly as `fleet_eval` does.

use crate::probe::TimedEnv;
use crate::report::{digest_of, hex, median, timed, Obj};
use crate::{Args, Seeds};
use abr::protocols::pensieve::PENSIEVE_OBS_DIM;
use abr::{AbrTrainEnv, Pensieve, QoeParams, Video};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{run_fleet, FleetConfig, FleetPolicy, FleetSummary};
use std::hint::black_box;
use traces::{GenConfig, TraceFamily, TraceStream};

/// Two shards of 10 000 sessions: each shard tick is one 10 000-row
/// batched forward.
const SHARDS: usize = 2;

/// Pensieve training takes seconds, so set-up is repeated only this often
/// (the median is reported).
const SETUP_REPS: usize = 3;

struct Size {
    sessions: usize,
    train_steps: usize,
    setup_reps: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size { sessions: 200, train_steps: 1920, setup_reps: 1 }
    } else {
        Size { sessions: 20_000, train_steps: 24_000, setup_reps: SETUP_REPS }
    }
}

/// `fleet_eval`'s PPO configuration, seeded from the workload seed.
fn ppo_config(seeds: &Seeds) -> rl::PpoConfig {
    rl::PpoConfig {
        n_steps: 1920,
        minibatch_size: 96,
        epochs: 5,
        lr: 3e-4,
        ent_coef: 0.01,
        seed: seeds.ppo,
        ..rl::PpoConfig::default()
    }
}

/// `fleet_eval`'s training corpus (80 random traces spanning the
/// adversary's range, 10 sustained-low, 10 HSDPA-like), seeded from the
/// workload seed.
fn corpus(seeds: &Seeds) -> Vec<traces::Trace> {
    let latency_ms = 80.0;
    let mut corpus: Vec<traces::Trace> = (0..80)
        .map(|i| traces::random_abr_trace(seeds.corpus.wrapping_add(i), 80, 4.0, latency_ms))
        .collect();
    for i in 0..10u64 {
        let bw = 0.8 + 0.15 * i as f64;
        corpus.push(traces::Trace::new(
            format!("const-low-{i}"),
            vec![traces::Segment::bw(320.0, bw, latency_ms)],
        ));
    }
    let gen_cfg = GenConfig { latency_ms, ..Default::default() };
    for i in 0..10u64 {
        corpus.push(traces::hsdpa_like(seeds.corpus.wrapping_add(2000 + i), &gen_cfg));
    }
    corpus
}

fn train_pensieve(seeds: &Seeds, steps: usize) -> Pensieve {
    let (pensieve, _, _) = abr::env::train_pensieve(
        corpus(seeds),
        Video::cbr(),
        QoeParams::default(),
        steps,
        ppo_config(seeds),
    );
    pensieve
}

/// The same training driven through `rl::Ppo` directly, with the
/// environment timed; returns the model and the `rl`/`nn` metrics.
fn train_pensieve_traced(seeds: &Seeds, steps: usize) -> (Pensieve, Vec<(&'static str, f64)>) {
    telemetry::set_enabled(true);
    let flops0 = telemetry::counter_get("nn.flops");
    let mut env =
        TimedEnv::new(AbrTrainEnv::new(corpus(seeds), Video::cbr(), QoeParams::default()));
    let mut ppo = rl::Ppo::new_categorical(PENSIEVE_OBS_DIM, 6, &[64, 32], ppo_config(seeds));
    // a failed training leaves a different model, which the digest check
    // reports
    let reports = ppo.try_train(&mut env, steps).unwrap_or_default();
    let flops = telemetry::counter_get("nn.flops") - flops0;
    telemetry::set_enabled(false);
    let rollout_s: f64 = reports.iter().map(|r| r.rollout_wall_s).sum();
    let update_s: f64 = reports.iter().map(|r| r.update_wall_s).sum();
    let m = vec![
        ("rl.rollout_s", rollout_s),
        ("rl.policy_s", rollout_s - env.tally().secs),
        ("rl.update_s", update_s),
        ("rl.guard_trips", reports.last().map_or(0, |r| r.guard_trips) as f64),
        ("nn.update_gflops", flops as f64 / update_s.max(1e-12) / 1e9),
    ];
    (Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone()), m)
}

fn serve(
    pensieve: &Pensieve,
    stream: &TraceStream,
    sessions: usize,
    shards: usize,
) -> (FleetSummary, f64) {
    let cfg = FleetConfig::new(sessions, shards);
    let policy = FleetPolicy::batched(pensieve.clone());
    timed(|| run_fleet(&cfg, &policy, stream))
}

/// The fleet's deterministic result: decisions and the mean/p5 QoE bits.
fn fleet_digest(s: &FleetSummary) -> String {
    hex(digest_of(&(s.decisions, s.mean_qoe.to_bits(), s.p5_qoe.to_bits())))
}

fn rep_report(s: &FleetSummary, wall_s: f64) -> Obj {
    Obj::new()
        .int("seed_index", 0)
        .int("work", s.decisions)
        .num("wall_s", wall_s)
        .text("digest", &fleet_digest(s))
        .int("sessions", s.sessions as u64)
        .int("admitted", s.admitted as u64)
        .int("completed", s.completed as u64)
        .int("quarantined", s.quarantined)
        .int("shed", s.shed as u64)
        .int("shard_retries", s.shard_retries)
        .int("decisions", s.decisions)
        .int("chunks_per_session", Video::cbr().n_chunks() as u64)
}

/// The shard tick's batched forward replayed in isolation: one
/// `mode_batch` over a shard's rows per chunk of the video. Row values
/// are seeded features; a dense forward's cost does not depend on them.
fn replay_forward(pensieve: &Pensieve, seeds: &Seeds, rows: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seeds.features);
    let data = (0..rows * PENSIEVE_OBS_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let obs = nn::Matrix::from_vec(rows, PENSIEVE_OBS_DIM, data);
    telemetry::set_enabled(true);
    let flops0 = telemetry::counter_get("nn.flops");
    let (_, secs) = timed(|| {
        for _ in 0..Video::cbr().n_chunks() {
            black_box(pensieve.policy.mode_batch(black_box(&obs)));
        }
    });
    let flops = telemetry::counter_get("nn.flops") - flops0;
    telemetry::set_enabled(false);
    (secs, flops as f64 / secs / 1e9)
}

pub fn run(args: &Args) -> Obj {
    let seeds = Seeds::from(args.seed);
    let sz = size(args.tiny);
    let stream = TraceStream::new(TraceFamily::BenignMix, seeds.traces, GenConfig::default());

    let mut setup = Vec::new();
    let mut models = Vec::new();
    let mut pensieve = None;
    for _ in 0..sz.setup_reps {
        let (p, secs) = timed(|| train_pensieve(&seeds, sz.train_steps));
        setup.push(secs);
        models.push(hex(digest_of(&p)));
        pensieve = Some(p);
    }
    let pensieve = pensieve.expect("at least one set-up repetition");
    let traced_setup = args.traced.then(|| train_pensieve_traced(&seeds, sz.train_steps));

    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut walls = (Vec::new(), Vec::new());
    let mut last_traced = None;
    let t0 = std::time::Instant::now();
    let min_reps = if args.traced { 2 } else { 3 };
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < args.seconds {
        telemetry::set_enabled(false);
        let (s, wall) = serve(&pensieve, &stream, sz.sessions, SHARDS);
        reps.push(rep_report(&s, wall));
        walls.0.push(wall);
        if args.traced {
            telemetry::set_enabled(true);
            let (s, wall) = serve(&pensieve, &stream, sz.sessions, SHARDS);
            telemetry::set_enabled(false);
            traced_reps.push(rep_report(&s, wall));
            walls.1.push(wall);
            last_traced = Some(s);
        }
    }
    telemetry::set_enabled(args.traced);
    let (one_shard, one_shard_s) = serve(&pensieve, &stream, sz.sessions, 1);
    telemetry::set_enabled(false);

    let mut out = Obj::new()
        .text("unit", "decisions")
        .nums("setup_s", &setup)
        .objs("setup_models", models.iter().map(|d| Obj::new().text("digest", d)).collect())
        .text("model", &hex(digest_of(&pensieve)))
        .objs("reps", reps)
        .obj("one_shard", rep_report(&one_shard, one_shard_s));
    if let (Some((traced_model, rl_metrics)), Some(s)) = (traced_setup, last_traced) {
        let fleet_s = median(&walls.1);
        let (forward_s, forward_gflops) = replay_forward(&pensieve, &seeds, sz.sessions / SHARDS);
        let (_, gen_s) = timed(|| {
            for i in 0..sz.sessions as u64 {
                black_box(stream.nth_trace(i));
            }
        });
        let mut layers = Obj::new();
        for (k, v) in rl_metrics {
            layers = layers.num(k, v);
        }
        layers = layers
            .num("nn.forward_batch_s", forward_s)
            .num("nn.forward_gflops", forward_gflops)
            .num("serve.fleet_s", fleet_s)
            .num("serve.decisions", s.decisions as f64)
            .num("serve.quarantined", s.quarantined as f64)
            .num("serve.shed", s.shed as f64)
            .num("serve.shard_retries", s.shard_retries as f64)
            .num("traces.gen_s", gen_s)
            .num("exec.shard_speedup", one_shard_s / fleet_s)
            .num("tracing.overhead", median(&walls.0) / fleet_s);
        out = out
            .text("traced_model", &hex(digest_of(&traced_model)))
            .objs("traced_reps", traced_reps)
            .obj("layers", layers);
    }
    out
}
