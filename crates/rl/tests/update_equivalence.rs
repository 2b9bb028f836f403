//! Recorded training runs of the PPO update (see `docs/PERF.md`).
//!
//! Each run's final trainer state and per-iteration entropy are pinned to
//! bits recorded before a change, for the categorical and the Gaussian
//! head, with serial (`train`) and slot (`try_train_vec`, 2 envs)
//! rollouts. The per-sample update that the batched one must match bit
//! for bit is the oracle of `rl`'s own `ppo::oracle` unit tests.

use rand::rngs::StdRng;
use rand::Rng;
use rl::{Action, ActionSpace, Env, Ppo, PpoConfig, Step, TrainReport};

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

fn config(seed: u64, n_envs: usize, minibatch_size: usize) -> PpoConfig {
    PpoConfig { n_steps: 64, minibatch_size, epochs: 2, seed, n_envs, ..PpoConfig::default() }
}

fn trainer(cfg: PpoConfig, discrete: bool) -> Ppo {
    if discrete {
        Ppo::new_categorical(2, 3, &[4], cfg)
    } else {
        Ppo::new_gaussian(2, 1, &[4], 0.5, cfg)
    }
}

/// Train seed 7 with `n_envs` 1 (the serial rollout, `train`) or 2 (the
/// slot rollout, `try_train_vec`) at `minibatch_size`; return the FNV-1a
/// digest of the final trainer state's JSON (every `f64` round-trips
/// bit-exactly through it, so equal digests mean equal weights, Adam
/// moments and RNG state) and the per-iteration entropy bits.
fn recorded_run(discrete: bool, n_envs: usize, minibatch_size: usize) -> (u64, Vec<u64>) {
    let mut ppo = trainer(config(7, n_envs, minibatch_size), discrete);
    let reports: Vec<TrainReport> = match (discrete, n_envs) {
        (true, 1) => ppo.train(&mut Context { side: 0, t: 0 }, TOTAL_STEPS),
        (true, _) => ppo.try_train_vec(&mut Context { side: 0, t: 0 }, TOTAL_STEPS).unwrap(),
        (false, 1) => ppo.train(&mut Walk { pos: 0.0, t: 0 }, TOTAL_STEPS),
        (false, _) => ppo.try_train_vec(&mut Walk { pos: 0.0, t: 0 }, TOTAL_STEPS).unwrap(),
    };
    let state = serde_json::to_string(&ppo.to_train_state()).unwrap();
    (rl::ckpt::fnv1a64(state.as_bytes()), reports.iter().map(|r| r.entropy.to_bits()).collect())
}

/// A categorical training run's final state and per-iteration entropy,
/// pinned to the bits recorded before the rollout stopped running a second
/// logits forward per step for the entropy. The state digests were
/// re-pinned when `PpoConfig` lost `batched_updates` and
/// `watchdog_timeout_ms`: each is the digest of the earlier state JSON with
/// exactly those two keys deleted.
#[test]
fn categorical_training_matches_the_recorded_run() {
    let pins: [(usize, u64, [u64; 3]); 2] = [
        (
            1,
            0x0958_4677_63bf_6eb9,
            [0x3fee_51b8_ad43_c557, 0x3fee_27f0_9a36_5f12, 0x3fed_fcf1_f997_fab0],
        ),
        (
            2,
            0x839a_ce5c_404b_6168,
            [0x3fef_cfc7_0f88_47b0, 0x3fed_e2eb_fd80_28da, 0x3fed_e873_cc3e_33c0],
        ),
    ];
    for (n_envs, digest, entropy) in pins {
        let (got_digest, got_entropy) = recorded_run(true, n_envs, 32);
        assert_eq!(got_digest, digest, "n_envs {n_envs}: state");
        assert_eq!(got_entropy, entropy, "n_envs {n_envs}: per-iteration entropy");
    }
}

/// The Gaussian twin of the categorical pins: recorded while the
/// per-sample update still shipped beside the batched one, with the state
/// digest taken of that state's JSON with `batched_updates` and
/// `watchdog_timeout_ms` deleted.
#[test]
fn gaussian_training_matches_the_recorded_run() {
    let pins: [(usize, u64, [u64; 3]); 2] = [
        (
            1,
            0xdee3_4f8b_3e40_2cb5,
            [0x3fe7_39ae_c96a_84c2, 0x3fe7_309d_7c2e_1891, 0x3fe7_28fb_f789_da6f],
        ),
        (
            2,
            0x3a8f_3a50_9fc3_2c3a,
            [0x3fe7_39ae_c96a_84c3, 0x3fe7_31ba_d351_9b23, 0x3fe7_3411_69be_2b17],
        ),
    ];
    for (n_envs, digest, entropy) in pins {
        let (got_digest, got_entropy) = recorded_run(false, n_envs, 32);
        assert_eq!(got_digest, digest, "n_envs {n_envs}: state");
        assert_eq!(got_entropy, entropy, "n_envs {n_envs}: per-iteration entropy");
    }
}

/// The categorical `n_envs` 1 run again at minibatch 24. At minibatch 32
/// the value gradient's `1/b` is a power of two, and in that run the
/// global-norm clip maps a value gradient that lost its `1/b` onto the same
/// bits as the right one, so the `n_envs` 1 pin above cannot see that
/// fault; this run can. Recorded before `RunningMeanStd::normalize` became
/// a wrapper over `normalize_rows`.
#[test]
fn categorical_training_at_minibatch_24_matches_the_recorded_run() {
    let (digest, entropy) = recorded_run(true, 1, 24);
    assert_eq!(digest, 0x2c73_8cdb_abed_f4a8, "state");
    assert_eq!(
        entropy,
        [0x3fee_51b8_ad43_c557, 0x3fee_2237_4817_95c8, 0x3fed_ef02_da3d_cae6],
        "per-iteration entropy"
    );
}
