//! The per-sample PPO update, kept only as the test oracle of the batched
//! update ([`Ppo::minibatch_grads_batched`]), and the suite that trains
//! through both and compares the results.
//!
//! The per-sample path runs two per-sample forwards per network per
//! transition and backpropagates each through `nn`'s
//! `forward_cached`/`backward`. The batched update must finish full
//! training runs with the **same bits** — weights, optimizer moments, RNG
//! streams, reports — for Gaussian and categorical policies alike, with
//! serial and slot rollouts. A test thread selects the per-sample path
//! with [`per_sample`]; the hook it sets exists only in this crate's test
//! build.

use super::*;
use std::cell::Cell;

thread_local! {
    /// Whether this thread's PPO updates take the per-sample path.
    static PER_SAMPLE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread's PPO updates on the per-sample path. The
/// update runs on the thread that trains (rollout workers only collect),
/// so other tests' threads are unaffected.
fn per_sample<R>(f: impl FnOnce() -> R) -> R {
    PER_SAMPLE.with(|c| c.set(true));
    let out = f();
    PER_SAMPLE.with(|c| c.set(false));
    out
}

impl PolicyKind {
    /// Log-probability of an action.
    fn log_prob(&self, obs: &[f64], action: &Action) -> f64 {
        match self {
            PolicyKind::Gaussian(p) => p.log_prob(obs, action),
            PolicyKind::Categorical(p) => p.log_prob(obs, action),
        }
    }
}

impl Ppo {
    /// The hook [`Ppo::minibatch_grads_batched`] calls first: on a thread
    /// inside [`per_sample`], the minibatch's gradients and losses come
    /// from [`Ppo::minibatch_grads_serial`] instead.
    pub(super) fn per_sample_hook(
        &self,
        buf: &RolloutBuffer,
        chunk: &[usize],
        pgrads: &mut MlpGrads,
        vgrads: &mut MlpGrads,
        log_std_grad: &mut [f64],
    ) -> Option<(f64, f64)> {
        if !PER_SAMPLE.with(Cell::get) {
            return None;
        }
        let mut pcache = self.policy.net().new_cache();
        let mut vcache = self.value.net.new_cache();
        Some(self.minibatch_grads_serial(
            buf,
            chunk,
            &mut pcache,
            &mut vcache,
            pgrads,
            vgrads,
            log_std_grad,
        ))
    }

    /// Legacy per-sample minibatch gradients: the reference
    /// implementation the batched path must match bit-for-bit. Two
    /// per-sample forwards per network per transition (one for the ratio,
    /// one cached for backprop). Returns the minibatch's summed (policy,
    /// value) loss; gradients accumulate into `pgrads` / `vgrads` /
    /// `log_std_grad`.
    #[allow(clippy::too_many_arguments)]
    fn minibatch_grads_serial(
        &self,
        buf: &RolloutBuffer,
        chunk: &[usize],
        pcache: &mut nn::Cache,
        vcache: &mut nn::Cache,
        pgrads: &mut MlpGrads,
        vgrads: &mut MlpGrads,
        log_std_grad: &mut [f64],
    ) -> (f64, f64) {
        let inv_b = 1.0 / chunk.len() as f64;
        let mut ploss = 0.0;
        let mut vloss = 0.0;
        for &i in chunk {
            let t = &buf.transitions[i];
            let adv = buf.advantages[i];
            let ret = buf.returns[i];
            let logp_new = self.policy.log_prob(&t.obs, &t.action);
            let ratio = (logp_new - t.log_prob).exp();
            let unclipped = ratio * adv;
            let clipped = ratio.clamp(1.0 - self.cfg.clip, 1.0 + self.cfg.clip) * adv;
            let surrogate = unclipped.min(clipped);
            ploss += -surrogate;
            // Gradient flows only when the unclipped branch is
            // active (min picks it), matching autograd through
            // min(ratio·A, clip(ratio)·A).
            let c_logp = if unclipped <= clipped { -adv * ratio * inv_b } else { 0.0 };
            let c_ent = -self.cfg.ent_coef * inv_b;
            match &self.policy {
                PolicyKind::Gaussian(g) => g.accumulate_grads(
                    &t.obs,
                    t.action.vector(),
                    c_logp,
                    c_ent,
                    pcache,
                    pgrads,
                    log_std_grad,
                ),
                PolicyKind::Categorical(c) => {
                    c.accumulate_grads(&t.obs, t.action.index(), c_logp, c_ent, pcache, pgrads)
                }
            }
            let v = self.value.value(&t.obs);
            vloss += 0.5 * (v - ret) * (v - ret);
            self.value.accumulate_grads(
                &t.obs,
                self.cfg.vf_coef * (v - ret) * inv_b,
                vcache,
                vgrads,
            );
        }
        (ploss, vloss)
    }
}

mod tests {
    use super::*;
    use crate::env::{ActionSpace, Step};
    use proptest::prelude::*;
    use rand::Rng;

    /// Continuous control: chase a drifting target.
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

    /// Minibatches of 24, 24 and 16: a chunk whose `1/b` is not a power of
    /// two keeps a gradient scale error visible through the global-norm
    /// clip, which maps `g` and `2^k·g` to the same bits.
    fn config(seed: u64, n_envs: usize) -> PpoConfig {
        PpoConfig {
            n_steps: 64,
            minibatch_size: 24,
            epochs: 2,
            seed,
            n_envs,
            ..PpoConfig::default()
        }
    }

    fn trainer(cfg: PpoConfig, discrete: bool) -> Ppo {
        if discrete {
            Ppo::new_categorical(2, 3, &[4], cfg)
        } else {
            Ppo::new_gaussian(2, 1, &[4], 0.5, cfg)
        }
    }

    /// Train to completion, return the full trainer state as JSON — every
    /// `f64` round-trips bit-exactly through this serialization, so string
    /// equality is bit equality of weights, Adam moments, and RNG state.
    fn train_state(mut ppo: Ppo, discrete: bool) -> String {
        if discrete {
            let mut env = Context { side: 0, t: 0 };
            ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
        } else {
            let mut env = Walk { pos: 0.0, t: 0 };
            ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
        }
        serde_json::to_string(&ppo.to_train_state()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Per-sample and batched updates finish full training runs
        /// bit-identical, for both policy heads and both rollout
        /// collection paths.
        #[test]
        fn update_paths_are_bit_identical(
            seed in 0_u64..10_000,
            n_envs in 1_usize..=2,
            discrete in any::<bool>(),
        ) {
            let run = || train_state(trainer(config(seed, n_envs), discrete), discrete);
            let reference = per_sample(run);
            let batched = run();
            prop_assert_eq!(&batched, &reference);
        }
    }

    /// Belt-and-braces alongside the JSON comparison: directly compare the
    /// trained policy's deterministic action and the value net's estimate
    /// (pure functions of their weights) across both paths. A value-net
    /// error reaches the policy only through later rollouts' values, so the
    /// action alone can miss it.
    #[test]
    fn update_path_flags_do_not_leak_into_weights() {
        let probe = [0.3, -0.7];
        let mode = |ppo: &mut Ppo| {
            let mut env = Walk { pos: 0.0, t: 0 };
            ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
            let mut out = ppo.policy.mode(&probe).vector().to_vec();
            out.push(ppo.value.value(&probe));
            out
        };
        let reference = per_sample(|| mode(&mut trainer(config(11, 2), false)));
        let batched = mode(&mut trainer(config(11, 2), false));
        assert_eq!(batched, reference, "policy weights diverged across update paths");
    }
}
