//! The two attack workloads: PPO-training the paper's online adversary
//! against MPC (§3, `abr-attack-mpc`) and against BBR (§4,
//! `cc-attack-bbr`).
//!
//! A repetition trains a fresh adversary from a seed derived from the
//! workload seed and the repetition's seed index, with a fresh checkpoint
//! path (`Ppo::train_checkpointed` auto-resumes from an existing file and
//! would skip the training), so every repetition of one seed index must
//! end in the same policy. Untraced repetitions call only the
//! public entry points (`try_train_abr_adversary`,
//! `try_train_cc_adversary`); traced ones build the same training from
//! `Ppo::new_gaussian` + `train_checkpointed` with the `probe` wrappers in
//! place.

use crate::probe::{clock_overhead_s, CcTally, TimedCc, TimedEnv, TimedPolicy};
use crate::report::{digest_of, hex, median, percentile, timed, Obj};
use crate::{Args, Seeds};
use abr::{Mpc, Video};
use adversary::trace_gen::generate_cc_trace;
use adversary::{
    try_train_abr_adversary, try_train_cc_adversary, AbrAdversaryConfig, AbrAdversaryEnv,
    AdversaryTrainConfig, CcAdversaryConfig, CcAdversaryEnv,
};
use cc::Bbr;
use netsim::CongestionControl;
use rl::{Checkpointer, Env, Ppo, Snapshot, TrainError, TrainReport};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Least number of set-up batches timed per cycle. They are spread over
/// its repetitions so that they sample the host over the whole run; the
/// median is reported.
const SETUP_BATCHES: usize = 21;

#[derive(Clone, Copy, PartialEq)]
pub enum Target {
    /// `abr::Mpc` in the §3 ABR environment.
    Mpc,
    /// `cc::Bbr` in the §4 CC environment.
    Bbr,
}

impl Target {
    /// Iterations per repetition: one checkpoint interval for ABR (≈ 3 s);
    /// one iteration for CC, whose 6000-step iteration alone takes ≈ 6 s
    /// (its checkpoint is then the completion write).
    fn iterations(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Target::Mpc, false) => 5,
            _ => 1,
        }
    }

    /// Distinct adversaries of one cycle of repetitions, one per seed
    /// index. A cycle trains seed indices `0..K` and then 0 again, the
    /// repetition the digest check compares. A run times whole cycles, so
    /// every run times the same adversaries in the same proportions
    /// however fast the code is. A cycle takes ≈ 28 s on the reference
    /// host.
    fn adversaries(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 1,
            (Target::Mpc, false) => 8,
            (Target::Bbr, false) => 4,
        }
    }

    /// Set-ups per timed batch: one takes ≈ 0.3 ms (ABR) or ≈ 3 µs (CC),
    /// too short to time steadily, so a batch of ≈ 10 ms is timed and the
    /// time per set-up reported.
    fn setup_batch(self) -> usize {
        match self {
            Target::Mpc => 40,
            Target::Bbr => 3000,
        }
    }

    fn policy_shape(self) -> (usize, usize, &'static [usize]) {
        match self {
            Target::Mpc => (adversary::abr_env::OBS_DIM, 1, &[32, 16]),
            Target::Bbr => (2, 3, &[4]),
        }
    }

    /// The training configuration the repository uses for this figure,
    /// with the PPO seed taken from the workload seed. Tiny sizes (smoke
    /// test only) shrink the CC rollout; nothing else changes.
    fn train_config(self, seeds: &Seeds, tiny: bool) -> AdversaryTrainConfig {
        let mut cfg = match self {
            // `abr_eval` (Figs. 1/2): the crate's defaults, serial
            Target::Mpc => AdversaryTrainConfig::default(),
            // `adv_bench::cc_adv` (Fig. 5): hyperparameters from `cc_tune`
            Target::Bbr => AdversaryTrainConfig {
                ppo: rl::PpoConfig {
                    n_steps: if tiny { 1000 } else { 6000 },
                    minibatch_size: 250,
                    epochs: 8,
                    lr: 3e-4,
                    gamma: 0.99,
                    lambda: 0.97,
                    ent_coef: 0.0005,
                    ..rl::PpoConfig::default()
                },
                init_std: 1.0,
                ..AdversaryTrainConfig::default()
            },
        };
        cfg.ppo.seed = seeds.ppo;
        cfg.total_steps = cfg.ppo.n_steps * self.iterations(tiny);
        cfg.checkpoint_every = 5;
        cfg
    }
}

fn abr_env<P: abr::AbrPolicy>(target: P) -> AbrAdversaryEnv<P> {
    AbrAdversaryEnv::new(target, Video::cbr(), AbrAdversaryConfig::default())
}

/// `bbr_train_env()` of `adv_bench::cc_adv`: 300 ms decisions (ten 30 ms
/// intervals), 100-step episodes, simulator seed from the workload seed.
fn bbr_env(
    seeds: &Seeds,
    make_cc: Box<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync>,
) -> CcAdversaryEnv {
    let mut cfg =
        CcAdversaryConfig { episode_steps: 100, action_repeat: 10, ..CcAdversaryConfig::default() };
    cfg.sim.seed = seeds.sim;
    CcAdversaryEnv::new(make_cc, cfg)
}

fn bbr() -> Box<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync> {
    Box::new(|| Box::new(Bbr::new()))
}

/// What one training repetition produced, for the checks.
struct Trained {
    result: Result<(Ppo, Vec<TrainReport>), TrainError>,
    wall_s: f64,
    /// Interval utilization range of the episodes the checks could see.
    util: (f64, f64),
}

/// One repetition's report: throughput inputs plus every raw value the
/// output checks compare.
fn rep_report(seed_index: usize, cfg: &AdversaryTrainConfig, ckpt: &Path, t: &Trained) -> Obj {
    let mut o = Obj::new()
        .int("seed_index", seed_index as u64)
        .int("work", cfg.total_steps as u64)
        .num("wall_s", t.wall_s)
        .int("steps_requested", cfg.total_steps as u64)
        .num("util_min", t.util.0)
        .num("util_max", t.util.1);
    match &t.result {
        Ok((ppo, reports)) => {
            let nonfinite = reports
                .iter()
                .filter(|r| {
                    !r.mean_step_reward.is_finite()
                        || (r.episodes_completed > 0 && !r.mean_episode_reward.is_finite())
                })
                .count();
            let resumed = Ppo::resume_from(ckpt).map(|p| hex(digest_of(&p.to_train_state())));
            o = o
                .int("steps_trained", ppo.total_steps() as u64)
                .text("digest", &hex(digest_of(&(&ppo.policy, &ppo.obs_norm))))
                .int("iterations", reports.len() as u64)
                .int("guard_trips", reports.last().map_or(0, |r| r.guard_trips) as u64)
                .int("nonfinite_rewards", nonfinite as u64)
                .int("ckpt_bytes", std::fs::metadata(ckpt).map_or(0, |m| m.len()))
                .text("trained_state", &hex(digest_of(&ppo.to_train_state())))
                .text("resumed_state", &resumed.unwrap_or_else(|e| format!("resume failed: {e}")))
                .opt_text("error", None);
        }
        Err(e) => {
            o = o
                .int("steps_trained", 0)
                .text("digest", "none")
                .int("iterations", 1)
                .int("guard_trips", 0)
                .int("nonfinite_rewards", 0)
                .int("ckpt_bytes", 0)
                .text("trained_state", "none")
                .text("resumed_state", "none")
                .opt_text("error", Some(&e.to_string()));
        }
    }
    o
}

fn util_range(u: &[f64]) -> (f64, f64) {
    u.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// An untraced repetition: the public training entry point, nothing else.
fn untraced(target: Target, seeds: &Seeds, cfg: &AdversaryTrainConfig) -> Trained {
    telemetry::set_enabled(false);
    match target {
        Target::Mpc => {
            let mut env = abr_env(Mpc::default());
            let (result, wall_s) = timed(|| try_train_abr_adversary(&mut env, cfg));
            Trained { result, wall_s, util: (f64::INFINITY, f64::NEG_INFINITY) }
        }
        Target::Bbr => {
            let mut env = bbr_env(seeds, bbr());
            let (result, wall_s) = timed(|| try_train_cc_adversary(&mut env, cfg));
            // the trainer resets the environment after its last episode, so
            // the trained adversary plays one more for the utilization check
            let util = match &result {
                Ok((ppo, _)) => {
                    util_range(&generate_cc_trace(&mut env, ppo, false, seeds.sim).utilization)
                }
                Err(_) => (f64::INFINITY, f64::NEG_INFINITY),
            };
            Trained { result, wall_s, util }
        }
    }
}

/// Time in the protocol's callbacks, as the traced repetition saw it.
enum Protocol {
    Mpc(Arc<Mutex<Vec<f64>>>),
    Bbr(Arc<Mutex<CcTally>>),
}

/// Telemetry readings taken around a traced repetition.
struct Counters {
    flops: u64,
    events: u64,
    drops: u64,
    netsim_s: f64,
}

impl Counters {
    fn read() -> Self {
        let spans = telemetry::snapshot().spans;
        Counters {
            flops: telemetry::counter_get("nn.flops"),
            events: telemetry::counter_get("netsim.events"),
            drops: telemetry::counter_get("netsim.drops"),
            netsim_s: spans.get("netsim.run").map_or(0.0, |s| s.total_s),
        }
    }
}

/// Train through `Ppo::train_checkpointed` exactly as the entry points do.
fn train_direct<E>(
    target: Target,
    env: &mut E,
    cfg: &AdversaryTrainConfig,
    ckpt: &Path,
) -> Result<(Ppo, Vec<TrainReport>), TrainError>
where
    E: Env + Clone + Send + Snapshot,
{
    let (obs, act, hidden) = target.policy_shape();
    let mut ppo = Ppo::new_gaussian(obs, act, hidden, cfg.init_std, cfg.ppo.clone());
    let ck = Checkpointer::new(ckpt, cfg.checkpoint_every);
    let reports = ppo.train_checkpointed(env, cfg.total_steps, &ck)?;
    Ok((ppo, reports))
}

/// A traced repetition: same training, timed layer by layer. Returns the
/// checks' view and the per-layer metrics of this repetition.
fn traced(
    target: Target,
    seeds: &Seeds,
    cfg: &AdversaryTrainConfig,
    ckpt: &Path,
) -> (Trained, Vec<(&'static str, f64)>) {
    telemetry::set_enabled(true);
    let before = Counters::read();
    let (result, wall_s, env_tally, protocol) = match target {
        Target::Mpc => {
            let policy = TimedPolicy::new(Mpc::default());
            let log = policy.log();
            let mut env = TimedEnv::new(abr_env(policy));
            let (result, wall_s) = timed(|| train_direct(target, &mut env, cfg, ckpt));
            (result, wall_s, env.tally(), Protocol::Mpc(log))
        }
        Target::Bbr => {
            let tally = Arc::new(Mutex::new(CcTally::default()));
            let shared = Arc::clone(&tally);
            let make_cc: Box<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync> =
                Box::new(move || Box::new(TimedCc::new(Box::new(Bbr::new()), Arc::clone(&shared))));
            let mut env = TimedEnv::new(bbr_env(seeds, make_cc));
            let (result, wall_s) = timed(|| train_direct(target, &mut env, cfg, ckpt));
            let env_tally = env.tally();
            // the live episode's controller adds its tally when dropped
            drop(env);
            (result, wall_s, env_tally, Protocol::Bbr(tally))
        }
    };
    let after = Counters::read();
    telemetry::set_enabled(false);

    let (rollout_s, update_s, trips) = match &result {
        Ok((_, reports)) => (
            reports.iter().map(|r| r.rollout_wall_s).sum::<f64>(),
            reports.iter().map(|r| r.update_wall_s).sum::<f64>(),
            reports.last().map_or(0, |r| r.guard_trips),
        ),
        Err(_) => (0.0, 0.0, 0),
    };
    let step_s = env_tally.secs;
    let mut m = vec![
        ("adversary.step_s", step_s),
        ("adversary.steps", env_tally.steps as f64),
        ("rl.rollout_s", rollout_s),
        ("rl.policy_s", rollout_s - step_s),
        ("rl.update_s", update_s),
        ("rl.guard_trips", trips as f64),
        ("rl.ckpt_s", wall_s - rollout_s - update_s),
        ("rl.ckpt_bytes", std::fs::metadata(ckpt).map_or(0, |m| m.len()) as f64),
        ("nn.update_gflops", (after.flops - before.flops) as f64 / update_s.max(1e-12) / 1e9),
    ];
    match protocol {
        Protocol::Mpc(log) => {
            let us = log.lock().expect("select log lock").clone();
            let mpc_s = us.iter().sum::<f64>() / 1e6;
            m.extend([
                ("abr.mpc.select_us.p50", percentile(&us, 50.0)),
                ("abr.mpc.select_us.p99", percentile(&us, 99.0)),
                ("abr.mpc.decisions", us.len() as f64),
                ("adversary.self_s", step_s - mpc_s),
            ]);
        }
        Protocol::Bbr(tally) => {
            let cc = *tally.lock().expect("cc tally lock");
            let cc_s = cc.secs - cc.timed_calls() as f64 * clock_overhead_s();
            let netsim_run_s = after.netsim_s - before.netsim_s;
            let events = (after.events - before.events) as f64;
            m.extend([
                ("adversary.self_s", step_s - netsim_run_s),
                ("netsim.self_s", netsim_run_s - cc_s),
                ("netsim.events", events),
                ("netsim.events_per_s", events / netsim_run_s.max(1e-12)),
                ("netsim.drops", (after.drops - before.drops) as f64),
                ("cc.self_s", cc_s),
                ("cc.acks", cc.acks as f64),
                ("cc.losses", cc.losses as f64),
                ("cc.rtos", cc.rtos as f64),
                ("cc.consults", cc.consults as f64),
            ]);
        }
    }
    let util = (env_tally.util_min, env_tally.util_max);
    (Trained { result, wall_s, util }, m)
}

/// Set-up: environment and trainer construction, everything the entry
/// point does before its first environment step. Returns the seconds per
/// set-up of one batch.
fn setup_batch(target: Target, seeds: &Seeds, cfg: &AdversaryTrainConfig, ckpt: &Path) -> f64 {
    let (obs, act, hidden) = target.policy_shape();
    let n = target.setup_batch();
    let trainer = || {
        let ppo = Ppo::new_gaussian(obs, act, hidden, cfg.init_std, cfg.ppo.clone());
        (ppo, Checkpointer::new(ckpt, cfg.checkpoint_every))
    };
    let (_, secs) = timed(|| {
        for _ in 0..n {
            match target {
                Target::Mpc => drop(black_box((abr_env(Mpc::default()), trainer()))),
                Target::Bbr => drop(black_box((bbr_env(seeds, bbr()), trainer()))),
            }
        }
    });
    secs / n as f64
}

/// Seeds of the repetition with seed index `i`. Each index of a cycle
/// trains a different adversary: the CC step cost depends on the links
/// the initial policy picks, so a run averages over several.
fn rep_seeds(seed: u64, i: usize) -> Seeds {
    Seeds::from(exec::split_seed(seed, i as u64))
}

pub fn run(target: Target, args: &Args) -> Obj {
    let ckpt_at = |tag: &str, i: usize| args.work_dir.join(format!("{tag}-{i}.ckpt"));
    let config = |i: usize, path: &Path| AdversaryTrainConfig {
        checkpoint_path: Some(path.to_path_buf()),
        ..target.train_config(&rep_seeds(args.seed, i), args.tiny)
    };
    let untraced_rep = |i: usize| {
        let path = ckpt_at("untraced", i);
        let cfg = config(i, &path);
        let t = untraced(target, &rep_seeds(args.seed, i), &cfg);
        let report = rep_report(i, &cfg, &path, &t);
        std::fs::remove_file(&path).ok();
        (report, cfg.total_steps as f64 / t.wall_s)
    };

    let seeds = rep_seeds(args.seed, 0);
    let base = target.train_config(&seeds, args.tiny);
    let adversaries = target.adversaries(args.tiny);
    let batches_per_rep = SETUP_BATCHES.div_ceil(adversaries + 1);

    let mut setup = Vec::new();
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut overhead = Vec::new();
    let t0 = std::time::Instant::now();
    for cycles in 1.. {
        for i in (0..=adversaries).map(|j| j % adversaries) {
            for _ in 0..batches_per_rep {
                setup.push(setup_batch(target, &seeds, &base, &ckpt_at("setup", 0)));
            }
            let (report, untraced_tp) = untraced_rep(i);
            reps.push(report);
            if args.traced {
                let path = ckpt_at("traced", i);
                let cfg = config(i, &path);
                let (t, m) = traced(target, &rep_seeds(args.seed, i), &cfg, &path);
                overhead.push(cfg.total_steps as f64 / t.wall_s / untraced_tp);
                traced_reps.push(rep_report(i, &cfg, &path, &t));
                layers.push(m);
                std::fs::remove_file(&path).ok();
            }
        }
        // stop at the cycle boundary nearest to --seconds
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / cycles as f64 / 2.0 >= args.seconds {
            break;
        }
    }

    let mut out = Obj::new().text("unit", "steps").nums("setup_s", &setup).objs("reps", reps);
    if args.traced {
        let mut metrics = Obj::new();
        for (k, _) in &layers[0] {
            let vs: Vec<f64> = layers
                .iter()
                .map(|m| m.iter().find(|(n, _)| n == k).expect("same keys").1)
                .collect();
            metrics = metrics.num(k, median(&vs));
        }
        metrics = metrics.num("tracing.overhead", median(&overhead));
        out = out.objs("traced_reps", traced_reps).obj("layers", metrics);
    }
    out
}
