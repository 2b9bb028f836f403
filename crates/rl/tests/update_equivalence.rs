//! Bit-identity contract of the PPO update paths (see `docs/PERF.md`):
//!
//! the legacy per-sample loop (`batched_updates: false`) and the batched
//! matrix–matrix path (`batched_updates: true`) must produce the **same
//! bits** — weights, optimizer moments, RNG streams, reports — after full
//! training runs, for Gaussian and categorical policies alike.
//! This is the same invariant `train_vec` upholds for rollout collection,
//! extended to the update phase.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rl::{Action, ActionSpace, Env, Ppo, PpoConfig, Step};

/// Continuous control: chase a drifting target (same shape as the
/// checkpoint-resume suite's environment).
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

/// Discrete control: pick the arm matching the observed context bit.
#[derive(Clone)]
struct Context {
    side: usize,
    t: usize,
}

impl Env for Context {
    fn obs_dim(&self) -> usize {
        2
    }
    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete { n: 3 }
    }
    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.t = 0;
        self.side = rng.gen_range(0..2usize);
        vec![self.side as f64, 1.0 - self.side as f64]
    }
    fn step(&mut self, action: &Action, rng: &mut StdRng) -> Step {
        let reward = if action.index() == self.side { 1.0 } else { -0.2 };
        self.t += 1;
        self.side = rng.gen_range(0..2usize);
        Step { obs: vec![self.side as f64, 1.0 - self.side as f64], reward, done: self.t >= 8 }
    }
}

const TOTAL_STEPS: usize = 3 * 64; // three 64-step iterations

fn config(seed: u64, n_envs: usize, batched: bool) -> PpoConfig {
    PpoConfig {
        n_steps: 64,
        minibatch_size: 32,
        epochs: 2,
        seed,
        n_envs,
        batched_updates: batched,
        ..PpoConfig::default()
    }
}

/// Train to completion, return the full trainer state as JSON — every
/// `f64` round-trips bit-exactly through this serialization, so string
/// equality is bit equality of weights, Adam moments, and RNG state.
///
/// The path-selection flag is normalized before serializing: it is an
/// *input* that legitimately differs between the runs under comparison,
/// and everything else in the state must not.
fn train_state(mut ppo: Ppo, discrete: bool) -> String {
    if discrete {
        let mut env = Context { side: 0, t: 0 };
        ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
    } else {
        let mut env = Walk { pos: 0.0, t: 0 };
        ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
    }
    ppo.cfg.batched_updates = true;
    serde_json::to_string(&ppo.to_train_state()).unwrap()
}

fn trainer(cfg: PpoConfig, discrete: bool) -> Ppo {
    if discrete {
        Ppo::new_categorical(2, 3, &[4], cfg)
    } else {
        Ppo::new_gaussian(2, 1, &[4], 0.5, cfg)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Legacy serial and batched updates finish full training runs
    /// bit-identical, for both policy heads and both rollout collection
    /// paths.
    #[test]
    fn update_paths_are_bit_identical(
        seed in 0_u64..10_000,
        n_envs in 1_usize..=2,
        discrete in any::<bool>(),
    ) {
        let reference = train_state(trainer(config(seed, n_envs, false), discrete), discrete);
        let batched = train_state(trainer(config(seed, n_envs, true), discrete), discrete);
        prop_assert_eq!(&batched, &reference);
    }
}

/// Belt-and-braces alongside the JSON comparison: directly compare the
/// trained policy's deterministic action (a pure function of its
/// weights) across both paths.
#[test]
fn update_path_flags_do_not_leak_into_weights() {
    let probe = [0.3, -0.7];
    let mut outs: Vec<Vec<f64>> = Vec::new();
    for batched in [false, true] {
        let mut ppo = trainer(config(11, 2, batched), false);
        let mut env = Walk { pos: 0.0, t: 0 };
        ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
        outs.push(ppo.policy.mode(&probe).vector().to_vec());
    }
    for o in &outs[1..] {
        assert_eq!(o, &outs[0], "policy weights diverged across update paths");
    }
}
