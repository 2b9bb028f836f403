//! Telemetry must be purely observational: flipping `ADVNET_TELEMETRY`
//! cannot change a single bit of a training run. This suite trains the
//! same PPO configuration with telemetry disabled and enabled and
//! compares the full serialized `TrainState` — weights, Adam moments,
//! observation statistics, and RNG state all round-trip bit-exactly
//! through the JSON form, so string equality is bit equality.
//!
//! (The byte-identity of *result CSVs* under telemetry is covered by
//! `crates/bench/tests/telemetry_manifest.rs`, which runs the smoke
//! pipeline both ways; the train-report CSV is excluded here because it
//! legitimately carries wall-clock columns that differ between any two
//! runs, instrumented or not.)

use rand::rngs::StdRng;
use rand::Rng;
use rl::{Action, ActionSpace, Env, Ppo, PpoConfig, Step};

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
