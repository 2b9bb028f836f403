//! Telemetry must be purely observational: flipping `ADVNET_TELEMETRY`
//! cannot change a single bit of a training run. This suite trains the
//! same PPO configuration with telemetry disabled and enabled and
//! compares the full serialized `TrainState` — weights, Adam moments,
//! observation statistics, and RNG state all round-trip bit-exactly
//! through the JSON form, so string equality is bit equality.
//!
//! The ABR adversary records Eq. 1's terms per episode; it too trains to
//! the same bits either way, and what it records adds up to its rewards.
//!
//! (The byte-identity of *result CSVs* under telemetry is covered by
//! `crates/bench/tests/telemetry_manifest.rs`, which runs the smoke
//! pipeline both ways; the train-report CSV is excluded here because it
//! legitimately carries wall-clock columns that differ between any two
//! runs, instrumented or not.)

use abr::{BufferBased, Video};
use adversary::abr_env::{AbrAdversaryConfig, AbrAdversaryEnv, OBS_DIM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Action, ActionSpace, Env, Ppo, PpoConfig, Snapshot, Step};

/// Telemetry state is process-global; serialize tests that toggle it.
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Continuous control: chase a drifting target (same environment shape
/// as the update-equivalence suite).
#[derive(Clone)]
struct Walk {
    pos: f64,
    t: usize,
}

impl Env for Walk {
    fn obs_dim(&self) -> usize {
        2
    }
    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { low: vec![-2.0], high: vec![2.0] }
    }
    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.t = 0;
        self.pos = rng.gen_range(-1.0..1.0);
        vec![self.pos, 0.0]
    }
    fn step(&mut self, action: &Action, rng: &mut StdRng) -> Step {
        let a = self.action_space().clip(action.vector())[0];
        let reward = -(a - self.pos) * (a - self.pos);
        self.t += 1;
        self.pos = (self.pos + rng.gen_range(-0.3..0.3)).clamp(-1.0, 1.0);
        Step { obs: vec![self.pos, self.t as f64 / 8.0], reward, done: self.t >= 8 }
    }
}

fn config(n_envs: usize) -> PpoConfig {
    PpoConfig {
        n_steps: 64,
        minibatch_size: 32,
        epochs: 2,
        seed: 97,
        n_envs,
        ..PpoConfig::default()
    }
}

/// Train three iterations and return the serialized trainer state.
fn train_state(n_envs: usize) -> String {
    let mut env = Walk { pos: 0.0, t: 0 };
    let mut ppo = Ppo::new_gaussian(2, 1, &[4], 0.5, config(n_envs));
    ppo.try_train_vec(&mut env, 3 * 64).unwrap();
    serde_json::to_string(&ppo.to_train_state()).unwrap()
}

/// The tentpole guarantee: serial and exec-parallel training runs are
/// bit-identical with telemetry off and on — and the instrumented run
/// really did record (spans, counters, FLOPs), so the equality is not
/// vacuous.
#[test]
fn telemetry_on_off_train_states_are_bit_identical() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for n_envs in [1, 2] {
        telemetry::set_enabled(false);
        telemetry::reset();
        let off = train_state(n_envs);

        telemetry::set_enabled(true);
        telemetry::reset();
        let on = train_state(n_envs);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();

        assert_eq!(on, off, "telemetry changed the TrainState bits (n_envs={n_envs})");
        // the instrumented run must actually have instrumented
        assert_eq!(snap.counters["rl.iterations"], 3);
        assert!(snap.counters["nn.flops"] > 0, "batched kernels recorded no FLOPs");
        assert!(snap.spans.contains_key("train.rollout"));
        assert!(snap.spans.contains_key("train.update"));
        assert_eq!(snap.spans["train.update"].count, 3);
        if n_envs > 1 {
            assert!(snap.spans.contains_key("exec.slots"), "vectorized rollout missing exec span");
        }
    }
}

/// Toggling telemetry *mid-run* is also invisible to training: a run
/// that flips recording on between iterations matches an untouched one.
#[test]
fn telemetry_toggle_mid_run_is_invisible() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(false);
    telemetry::reset();
    let reference = train_state(1);

    telemetry::set_enabled(false);
    telemetry::reset();
    let mut env = Walk { pos: 0.0, t: 0 };
    let mut ppo = Ppo::new_gaussian(2, 1, &[4], 0.5, config(1));
    ppo.try_train_vec(&mut env, 64).unwrap();
    telemetry::set_enabled(true); // flip on for the middle iteration
    ppo.try_train_vec(&mut env, 64).unwrap();
    telemetry::set_enabled(false); // and off again for the last
    ppo.try_train_vec(&mut env, 64).unwrap();
    let toggled = serde_json::to_string(&ppo.to_train_state()).unwrap();
    telemetry::reset();

    assert_eq!(toggled, reference, "mid-run telemetry toggle perturbed training");
}

/// An ABR adversary against Buffer-Based on a VBR video.
fn abr_adversary() -> AbrAdversaryEnv<BufferBased> {
    AbrAdversaryEnv::new(
        BufferBased::pensieve_defaults(),
        Video::synthetic(5),
        AbrAdversaryConfig::default(),
    )
}

/// The names of Eq. 1's three terms, as the ABR adversary records them.
const REWARD_TERMS: [&str; 3] =
    ["adversary.reward.opt", "adversary.reward.protocol", "adversary.reward.smooth"];

/// Recording the reward terms is observational too: an ABR adversary
/// trains to the same bits with telemetry off and on, and the run
/// records one observation of each term per finished episode.
#[test]
fn abr_adversary_train_states_are_bit_identical() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg =
        PpoConfig { n_steps: 96, minibatch_size: 32, epochs: 2, seed: 31, ..PpoConfig::default() };
    let train = || {
        let mut env = abr_adversary();
        let mut ppo = Ppo::new_gaussian(OBS_DIM, 1, &[8], 0.5, cfg.clone());
        ppo.try_train_vec(&mut env, 2 * 96).unwrap();
        serde_json::to_string(&ppo.to_train_state()).unwrap()
    };
    telemetry::set_enabled(false);
    telemetry::reset();
    let off = train();

    telemetry::set_enabled(true);
    telemetry::reset();
    let on = train();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();

    assert_eq!(on, off, "telemetry changed the ABR adversary's TrainState bits");
    // 192 steps are four 48-chunk episodes
    for name in REWARD_TERMS {
        assert_eq!(snap.hists[name].count, 4, "{name}");
    }
}

/// A seeded episode stepped by hand records one observation of each
/// term, and the terms add up to the episode's mean step reward. A
/// restore replays an episode's steps without recording them, even the
/// last one.
#[test]
fn abr_adversary_records_eq1_terms_once_per_episode() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::reset();
    let mut env = abr_adversary();
    let mut rng = StdRng::seed_from_u64(8);
    env.reset(&mut rng);
    let mut rewards = Vec::new();
    let mut mid_episode = None;
    loop {
        let action = Action::Continuous(vec![rng.gen_range(-1.0..1.0)]);
        let step = env.step(&action, &mut rng);
        rewards.push(step.reward);
        if rewards.len() == 20 {
            mid_episode = Some(env.snapshot());
        }
        if step.done {
            break;
        }
    }
    let snap = telemetry::snapshot();
    let term = |name: &str| {
        let h = &snap.hists[name];
        assert_eq!(h.count, 1, "{name}");
        h.sum
    };
    let [opt, protocol, smooth] = REWARD_TERMS.map(term);
    let mean_reward = rewards.iter().sum::<f64>() / rewards.len() as f64;
    assert_eq!(rewards.len(), 48);
    assert!(smooth > 0.0, "random actions pay a smoothing penalty");
    assert!(
        (opt - protocol - smooth - mean_reward).abs() < 1e-9,
        "opt {opt} − protocol {protocol} − smooth {smooth} ≠ mean reward {mean_reward}"
    );

    let count = |name: &str| telemetry::snapshot().hists[name].count;
    let mut twin = abr_adversary();
    twin.restore(&env.snapshot()).unwrap();
    assert_eq!(count(REWARD_TERMS[0]), 1, "restoring a finished episode recorded it");
    twin.restore(&mid_episode.unwrap()).unwrap();
    while !twin.step(&Action::Continuous(vec![0.0]), &mut rng).done {}
    let counts = REWARD_TERMS.map(count);
    telemetry::set_enabled(false);
    telemetry::reset();
    assert_eq!(counts, [2; 3], "finishing a restored episode records it once");
}
