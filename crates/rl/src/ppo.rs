//! Proximal Policy Optimization (Schulman et al. 2017) with the
//! stable-baselines defaults the paper relies on: clipped surrogate
//! objective, GAE(λ), minibatch epochs, entropy bonus, constant learning
//! rate, and gradient-norm clipping.

use crate::buffer::{RolloutBuffer, Transition};
use crate::ckpt::{
    load_train_checkpoint, save_train_checkpoint, Checkpointer, DivergenceReport, SlotState,
    Snapshot, TrainCheckpoint, TrainError, TrainState,
};
use crate::env::{Action, Env};
use crate::normalize::RunningMeanStd;
use crate::policy::{CategoricalPolicy, GaussianPolicy, PolicyHead, ValueNet};
use nn::optim::AdamVec;
use nn::{Adam, MlpGrads};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// PPO hyper-parameters.
///
/// Defaults mirror stable-baselines PPO2 (the paper's training stack) with a
/// constant learning rate, which is the one deviation the paper calls out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Environment steps collected per training iteration.
    pub n_steps: usize,
    /// Minibatch size for the update epochs.
    pub minibatch_size: usize,
    /// Number of passes over each rollout.
    pub epochs: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Clip range ε of the surrogate objective.
    pub clip: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Constant Adam learning rate.
    pub lr: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Maintain running observation normalization.
    pub normalize_obs: bool,
    /// Scale rewards by the running std of the discounted return.
    pub normalize_reward: bool,
    /// RNG seed for exploration and shuffling.
    pub seed: u64,
    /// Parallel environment clones used by [`Ppo::train_vec`]; each collects
    /// `n_steps / n_envs` transitions per iteration on its own worker
    /// thread with its own seed-split RNG stream. `1` (the default) selects
    /// the serial collection path, bit-identical to [`Ppo::train`].
    pub n_envs: usize,
    /// How many times a panicked rollout worker is retried on a rolled-back
    /// clone of its slot before the iteration fails with
    /// [`TrainError::Worker`]. Retries recover *transient* faults; a
    /// deterministic panic recurs and exhausts the budget.
    pub worker_retries: usize,
    /// Divergence-guard budget: how many non-finite updates may be skipped
    /// (with state rollback and LR backoff) before training fails with
    /// [`TrainError::Diverged`].
    pub guard_max_trips: usize,
    /// Multiplier applied to the effective learning rate on every
    /// divergence-guard trip (in `(0, 1]`).
    pub guard_lr_backoff: f64,
    /// Use the batched matrix–matrix update kernels (`nn::Mlp::forward_batch`
    /// / `grads_batch`): one batched forward per net per minibatch instead
    /// of two per-sample forwards per net per transition. `true` (the
    /// default) and `false` (the legacy per-sample path, kept as the
    /// reference implementation and benchmark baseline) produce
    /// bit-identical training trajectories — the kernels replay the exact
    /// floating-point operation order of the serial path.
    pub batched_updates: bool,
    /// Watchdog timeout for vectorized rollout workers, in milliseconds.
    /// When > 0, a monitor thread cancels any worker slot whose heartbeat
    /// (one beat per environment step) is older than this and re-runs it
    /// under the deterministic rollback/retry path, so a stalled slot
    /// finishes with the same merged rollout as a stall-free run. `0`
    /// (the default) disables the watchdog; the `ADVNET_WATCHDOG_MS`
    /// environment variable supplies a timeout when this is 0.
    pub watchdog_timeout_ms: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            n_steps: 2048,
            minibatch_size: 64,
            epochs: 10,
            gamma: 0.99,
            lambda: 0.95,
            clip: 0.2,
            ent_coef: 0.003,
            vf_coef: 0.5,
            lr: 3e-4,
            max_grad_norm: 0.5,
            normalize_obs: true,
            normalize_reward: true,
            seed: 0,
            n_envs: 1,
            worker_retries: 1,
            guard_max_trips: 8,
            guard_lr_backoff: 0.5,
            batched_updates: true,
            watchdog_timeout_ms: 0,
        }
    }
}

impl PpoConfig {
    /// Panics on configurations that cannot train (catching these at
    /// construction beats NaNs two hours into a run).
    pub fn validate(&self) {
        assert!(self.n_steps > 0, "n_steps must be positive");
        assert!(
            self.minibatch_size > 0 && self.minibatch_size <= self.n_steps,
            "minibatch_size must be in 1..=n_steps"
        );
        assert!(self.epochs > 0, "epochs must be positive");
        assert!((0.0..=1.0).contains(&self.gamma), "gamma must be in [0,1]");
        assert!((0.0..=1.0).contains(&self.lambda), "lambda must be in [0,1]");
        assert!(self.clip > 0.0, "clip range must be positive");
        assert!(self.lr > 0.0, "learning rate must be positive");
        assert!(self.ent_coef >= 0.0, "entropy coefficient must be non-negative");
        assert!(self.vf_coef >= 0.0, "value coefficient must be non-negative");
        assert!(self.max_grad_norm > 0.0, "max_grad_norm must be positive");
        assert!(self.n_envs >= 1, "n_envs must be at least 1");
        assert!(
            self.n_steps.is_multiple_of(self.n_envs),
            "n_steps ({}) must divide evenly across n_envs ({}) so every \
             worker collects the same segment length",
            self.n_steps,
            self.n_envs
        );
        assert!(
            self.guard_lr_backoff > 0.0 && self.guard_lr_backoff <= 1.0,
            "guard_lr_backoff must be in (0, 1]"
        );
    }
}

/// The policy variant PPO is training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyKind {
    Gaussian(GaussianPolicy),
    Categorical(CategoricalPolicy),
}

impl PolicyKind {
    fn net(&self) -> &nn::Mlp {
        match self {
            PolicyKind::Gaussian(p) => &p.mean_net,
            PolicyKind::Categorical(p) => &p.logits_net,
        }
    }

    /// Sample an action (and its log-prob) from the policy.
    pub fn sample(&self, obs: &[f64], rng: &mut StdRng) -> (Action, f64) {
        match self {
            PolicyKind::Gaussian(p) => p.sample(obs, rng),
            PolicyKind::Categorical(p) => p.sample(obs, rng),
        }
    }

    /// Deterministic (mode) action.
    pub fn mode(&self, obs: &[f64]) -> Action {
        match self {
            PolicyKind::Gaussian(p) => p.mode(obs),
            PolicyKind::Categorical(p) => p.mode(obs),
        }
    }

    /// Deterministic (mode) actions for a batch of observations, one per
    /// matrix row — the inference handle `serve`'s fleet engine amortizes
    /// per-tick policy calls through.
    ///
    /// Runs one [`nn::Mlp::forward_batch`] (bit-identical per row to the
    /// per-sample forward) and applies the same per-row head math as
    /// [`PolicyKind::mode`] — including the identical `max_by` argmax
    /// tie-breaking for categorical heads — so
    /// `mode_batch(m)[i] == mode(m.row(i))` bit-for-bit.
    pub fn mode_batch(&self, obs: &nn::Matrix) -> Vec<Action> {
        let out = self.net().forward_batch(obs);
        (0..out.rows())
            .map(|r| match self {
                PolicyKind::Gaussian(_) => Action::Continuous(out.row(r).to_vec()),
                PolicyKind::Categorical(_) => {
                    let best = out
                        .row(r)
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                        .map(|(i, _)| i)
                        .expect("non-empty logits");
                    Action::Discrete(best)
                }
            })
            .collect()
    }

    /// Log-probability of an action.
    pub fn log_prob(&self, obs: &[f64], action: &Action) -> f64 {
        match self {
            PolicyKind::Gaussian(p) => p.log_prob(obs, action),
            PolicyKind::Categorical(p) => p.log_prob(obs, action),
        }
    }

    /// Distribution entropy at `obs`.
    pub fn entropy(&self, obs: &[f64]) -> f64 {
        match self {
            PolicyKind::Gaussian(p) => p.entropy(obs),
            PolicyKind::Categorical(p) => p.entropy(obs),
        }
    }
}

/// Per-iteration training metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    pub iteration: usize,
    pub total_steps: usize,
    /// Mean raw (unnormalized) reward per environment step this iteration.
    pub mean_step_reward: f64,
    /// Mean total raw reward of episodes completed this iteration (NaN if none).
    pub mean_episode_reward: f64,
    pub episodes_completed: usize,
    /// Mean policy entropy over the rollout.
    pub entropy: f64,
    /// Mean clipped-surrogate policy loss of the final epoch.
    pub policy_loss: f64,
    /// Mean value loss of the final epoch.
    pub value_loss: f64,
    /// Environment clones that collected this iteration's rollout.
    pub n_envs: usize,
    /// Wall-clock seconds spent collecting the rollout.
    pub rollout_wall_s: f64,
    /// Collection throughput: `n_steps / rollout_wall_s`.
    pub rollout_steps_per_s: f64,
    /// Wall-clock seconds spent in the PPO update phase (the gradient
    /// epochs over the rollout, including optimizer steps).
    pub update_wall_s: f64,
    /// Wall-clock seconds per worker, in worker order (one entry when
    /// collection is serial). Timing fields vary run to run; everything
    /// else in the report is deterministic for a given seed.
    pub worker_wall_s: Vec<f64>,
    /// Cumulative divergence-guard trips at the end of this iteration.
    /// Losses are NaN for an iteration whose update the guard skipped.
    pub guard_trips: usize,
}

/// Write per-iteration training reports as CSV (`iteration,total_steps,
/// mean_step_reward,mean_episode_reward,episodes,entropy,policy_loss,
/// value_loss,n_envs,rollout_wall_s,rollout_steps_per_s,guard_trips`) —
/// the learning curves behind every trained artifact. Per-worker wall
/// times stay in the structured [`TrainReport`]; the CSV carries only the
/// aggregate timing.
pub fn save_reports_csv(
    reports: &[TrainReport],
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut out = String::from(
        "iteration,total_steps,mean_step_reward,mean_episode_reward,episodes,entropy,policy_loss,value_loss,n_envs,rollout_wall_s,rollout_steps_per_s,guard_trips\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.iteration,
            r.total_steps,
            r.mean_step_reward,
            r.mean_episode_reward,
            r.episodes_completed,
            r.entropy,
            r.policy_loss,
            r.value_loss,
            r.n_envs,
            r.rollout_wall_s,
            r.rollout_steps_per_s,
            r.guard_trips
        ));
    }
    std::fs::write(path, out)
}

/// The PPO trainer: owns the policy, value net, optimizers, and
/// normalization state.
pub struct Ppo {
    pub policy: PolicyKind,
    pub value: ValueNet,
    pub cfg: PpoConfig,
    pub obs_norm: Option<RunningMeanStd>,
    opt_policy: Adam,
    opt_value: Adam,
    opt_log_std: Option<AdamVec>,
    rng: StdRng,
    /// Raw (unnormalized) observation carried across iterations.
    cur_obs: Option<Vec<f64>>,
    /// Running discounted return, for reward normalization.
    ret_acc: f64,
    ret_stats: RunningMeanStd,
    total_steps: usize,
    iteration: usize,
    /// Divergence-guard learning-rate backoff factor currently in effect.
    lr_scale: f64,
    /// Divergence-guard trips so far.
    guard_trips: usize,
}

/// Per-worker environment state for [`Ppo::train_vec`]: one env clone, its
/// own RNG stream, the raw observation carried across iterations, and its
/// own discounted-return accumulator for reward normalization. `Clone` is
/// what lets a panicked worker retry on a rolled-back copy.
#[derive(Clone)]
struct EnvSlot<E> {
    env: E,
    rng: StdRng,
    cur_obs: Option<Vec<f64>>,
    ret_acc: f64,
}

/// What one worker hands back from a rollout segment: the raw observations
/// it acted on (in step order, for the merge-time statistics update),
/// transitions carrying *raw* rewards, the bootstrap value after the final
/// transition, the summed policy entropy, and how many non-finite values
/// the sanitizer rewrote.
struct SegOut {
    raw_obs: Vec<Vec<f64>>,
    transitions: Vec<Transition>,
    last_value: f64,
    entropy_acc: f64,
    poisoned: usize,
}

/// Zero out non-finite values in place, returning how many were rewritten.
/// One poisoned environment step must not corrupt the running normalizers
/// (a single NaN folded into [`RunningMeanStd`] sticks forever); the count
/// reaches the divergence guard, which skips the tainted update.
fn sanitize(values: &mut [f64]) -> usize {
    let mut n = 0;
    for v in values {
        if !v.is_finite() {
            *v = 0.0;
            n += 1;
        }
    }
    n
}

impl Ppo {
    /// Build a PPO trainer for a continuous-action environment.
    ///
    /// `hidden` are the hidden layer widths (e.g. `&[32, 16]` for the ABR
    /// adversary, `&[4]` for the CC adversary, per the paper).
    pub fn new_gaussian(
        obs_dim: usize,
        act_dim: usize,
        hidden: &[usize],
        init_std: f64,
        cfg: PpoConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(act_dim);
        let policy = GaussianPolicy::new(&sizes, init_std, &mut rng);
        *sizes.last_mut().unwrap() = 1;
        let value = ValueNet::new(&sizes, &mut rng);
        Self::assemble(PolicyKind::Gaussian(policy), value, cfg, rng)
    }

    /// Build a PPO trainer for a discrete-action environment.
    pub fn new_categorical(
        obs_dim: usize,
        n_actions: usize,
        hidden: &[usize],
        cfg: PpoConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(n_actions);
        let policy = CategoricalPolicy::new(&sizes, &mut rng);
        *sizes.last_mut().unwrap() = 1;
        let value = ValueNet::new(&sizes, &mut rng);
        Self::assemble(PolicyKind::Categorical(policy), value, cfg, rng)
    }

    fn assemble(policy: PolicyKind, value: ValueNet, cfg: PpoConfig, rng: StdRng) -> Self {
        cfg.validate();
        let opt_policy = Adam::new(policy.net(), cfg.lr);
        let opt_value = Adam::new(&value.net, cfg.lr);
        let opt_log_std = match &policy {
            PolicyKind::Gaussian(g) => Some(AdamVec::new(g.log_std.len(), cfg.lr)),
            PolicyKind::Categorical(_) => None,
        };
        let obs_dim = policy.net().input_dim();
        let obs_norm = if cfg.normalize_obs { Some(RunningMeanStd::new(obs_dim)) } else { None };
        Ppo {
            policy,
            value,
            cfg,
            obs_norm,
            opt_policy,
            opt_value,
            opt_log_std,
            rng,
            cur_obs: None,
            ret_acc: 0.0,
            ret_stats: RunningMeanStd::new(1),
            total_steps: 0,
            iteration: 0,
            lr_scale: 1.0,
            guard_trips: 0,
        }
    }

    /// Total environment steps consumed so far.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Normalize a raw observation with the trainer's (frozen) statistics.
    pub fn normalize_obs(&self, raw: &[f64]) -> Vec<f64> {
        match &self.obs_norm {
            Some(n) => n.normalize(raw),
            None => raw.to_vec(),
        }
    }

    /// Train for (at least) `total_steps` environment steps; returns one
    /// report per iteration. Panics if training fails structurally (guard
    /// exhaustion, worker failure) — use [`Ppo::try_train`] to handle
    /// those as values.
    pub fn train<E: Env>(&mut self, env: &mut E, total_steps: usize) -> Vec<TrainReport> {
        self.try_train(env, total_steps).unwrap_or_else(|e| panic!("PPO training failed: {e}"))
    }

    /// Fallible [`Ppo::train`]: surfaces divergence-guard exhaustion as
    /// [`TrainError::Diverged`] instead of panicking.
    pub fn try_train<E: Env>(
        &mut self,
        env: &mut E,
        total_steps: usize,
    ) -> Result<Vec<TrainReport>, TrainError> {
        let mut reports = Vec::new();
        let start = self.total_steps;
        while self.total_steps - start < total_steps {
            reports.push(self.try_train_iteration(env)?);
        }
        Ok(reports)
    }

    /// Train with `cfg.n_envs` parallel environment clones.
    ///
    /// With `n_envs == 1` this delegates to [`Ppo::train`] and is
    /// bit-identical to it. With `n_envs > 1`, `env` is cloned into
    /// `n_envs` slots, each driven on its own worker thread with its own
    /// RNG stream derived from `cfg.seed` via [`exec::split_seed`]; every
    /// slot collects `n_steps / n_envs` transitions per iteration against
    /// a frozen snapshot of the policy and observation statistics, and the
    /// segments are merged in fixed slot order. The result is deterministic
    /// for a given `(seed, n_envs)` — independent of thread scheduling —
    /// but numerically different from the serial path, because observation
    /// statistics update per batch instead of per step.
    ///
    /// Slots (env state, RNG streams, episode continuations) persist across
    /// iterations within one call but are rebuilt per call, so repeated
    /// invocations with a fresh trainer reproduce exactly.
    ///
    /// Panics if training fails structurally — use [`Ppo::try_train_vec`]
    /// to handle worker failure and divergence as values.
    pub fn train_vec<E: Env + Clone + Send>(
        &mut self,
        env: &mut E,
        total_steps: usize,
    ) -> Vec<TrainReport> {
        self.try_train_vec(env, total_steps).unwrap_or_else(|e| panic!("PPO training failed: {e}"))
    }

    /// Fallible [`Ppo::train_vec`]: a worker panic that survives
    /// `cfg.worker_retries` rolled-back retries surfaces as
    /// [`TrainError::Worker`], divergence-guard exhaustion as
    /// [`TrainError::Diverged`].
    pub fn try_train_vec<E: Env + Clone + Send>(
        &mut self,
        env: &mut E,
        total_steps: usize,
    ) -> Result<Vec<TrainReport>, TrainError> {
        if self.cfg.n_envs <= 1 {
            return self.try_train(env, total_steps);
        }
        let mut slots = self.make_slots(env);
        let mut reports = Vec::new();
        let start = self.total_steps;
        while self.total_steps - start < total_steps {
            reports.push(self.try_train_iteration_vec(&mut slots)?);
        }
        Ok(reports)
    }

    /// Build the per-worker env slots for vectorized collection. Policy
    /// RNG streams use seed splits `0..n_envs`; each clone's *internal*
    /// noise source is decorrelated via [`Env::decorrelate`] with splits
    /// `n_envs..2·n_envs`, disjoint from the policy streams.
    fn make_slots<E: Env + Clone + Send>(&self, env: &E) -> Vec<EnvSlot<E>> {
        (0..self.cfg.n_envs)
            .map(|w| {
                let mut slot_env = env.clone();
                slot_env.decorrelate(exec::split_seed(self.cfg.seed, (self.cfg.n_envs + w) as u64));
                EnvSlot {
                    env: slot_env,
                    rng: StdRng::seed_from_u64(exec::split_seed(self.cfg.seed, w as u64)),
                    cur_obs: None,
                    ret_acc: 0.0,
                }
            })
            .collect()
    }

    /// One collect + update cycle. Panics on structural failure — use
    /// [`Ppo::try_train_iteration`] to handle it as a value.
    pub fn train_iteration<E: Env>(&mut self, env: &mut E) -> TrainReport {
        self.try_train_iteration(env).unwrap_or_else(|e| panic!("PPO training failed: {e}"))
    }

    /// One collect + update cycle behind the divergence guard.
    pub fn try_train_iteration<E: Env>(&mut self, env: &mut E) -> Result<TrainReport, TrainError> {
        self.iteration += 1;
        telemetry::counter_add("rl.iterations", 1);
        let t0 = std::time::Instant::now();
        let (buf, raw_step_reward, ep_rewards, mean_entropy, poisoned) = {
            let _span = telemetry::span!("train.rollout");
            self.collect_rollout(env)
        };
        let rollout_wall_s = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let (policy_loss, value_loss) = {
            let _span = telemetry::span!("train.update");
            self.guarded_update(&buf, poisoned)?
        };
        let update_wall_s = t1.elapsed().as_secs_f64();
        Ok(TrainReport {
            iteration: self.iteration,
            total_steps: self.total_steps,
            mean_step_reward: raw_step_reward,
            mean_episode_reward: nn::ops::mean(&ep_rewards),
            episodes_completed: ep_rewards.len(),
            entropy: mean_entropy,
            policy_loss,
            value_loss,
            n_envs: 1,
            rollout_wall_s,
            rollout_steps_per_s: self.cfg.n_steps as f64 / rollout_wall_s.max(1e-12),
            update_wall_s,
            worker_wall_s: vec![rollout_wall_s],
            guard_trips: self.guard_trips,
        })
    }

    /// Collect `cfg.n_steps` transitions, continuing episodes across
    /// iterations. Returns the buffer (with GAE computed), mean raw step
    /// reward, completed-episode raw rewards, mean entropy, and the count
    /// of non-finite values sanitized out of the stream.
    fn collect_rollout<E: Env>(
        &mut self,
        env: &mut E,
    ) -> (RolloutBuffer, f64, Vec<f64>, f64, usize) {
        let n = self.cfg.n_steps;
        let mut buf = RolloutBuffer::with_capacity(n);
        let mut raw_rewards = Vec::with_capacity(n);
        let mut ep_rewards = Vec::new();
        let mut cur_ep_reward = 0.0;
        let mut entropy_acc = 0.0;
        let mut poisoned = 0;

        let mut raw_obs = match self.cur_obs.take() {
            Some(o) => o,
            None => env.reset(&mut self.rng),
        };
        poisoned += sanitize(&mut raw_obs);
        for _ in 0..n {
            let obs = match &mut self.obs_norm {
                Some(norm) => norm.observe_and_normalize(&raw_obs),
                None => raw_obs.clone(),
            };
            let (action, log_prob) = self.policy.sample(&obs, &mut self.rng);
            entropy_acc += self.policy.entropy(&obs);
            let value = self.value.value(&obs);
            let mut step = env.step(&action, &mut self.rng);
            poisoned += sanitize(std::slice::from_mut(&mut step.reward));
            raw_rewards.push(step.reward);
            cur_ep_reward += step.reward;
            let reward = self.scale_reward(step.reward, step.done);
            buf.transitions.push(Transition {
                obs,
                action,
                reward,
                done: step.done,
                log_prob,
                value,
            });
            self.total_steps += 1;
            if step.done {
                ep_rewards.push(cur_ep_reward);
                cur_ep_reward = 0.0;
                raw_obs = env.reset(&mut self.rng);
            } else {
                raw_obs = step.obs;
            }
            poisoned += sanitize(&mut raw_obs);
        }
        // Bootstrap value for a rollout that ends mid-episode.
        let last_norm = match &self.obs_norm {
            Some(norm) => norm.normalize(&raw_obs),
            None => raw_obs.clone(),
        };
        buf.last_value = self.value.value(&last_norm);
        self.cur_obs = Some(raw_obs);

        buf.compute_gae(self.cfg.gamma, self.cfg.lambda);
        buf.normalize_advantages();
        let mean_raw = nn::ops::mean(&raw_rewards);
        (buf, mean_raw, ep_rewards, entropy_acc / n as f64, poisoned)
    }

    /// One collect + update cycle over parallel env slots.
    fn try_train_iteration_vec<E: Env + Clone + Send>(
        &mut self,
        slots: &mut [EnvSlot<E>],
    ) -> Result<TrainReport, TrainError> {
        self.iteration += 1;
        telemetry::counter_add("rl.iterations", 1);
        let t0 = std::time::Instant::now();
        let (buf, raw_step_reward, ep_rewards, mean_entropy, worker_wall_s, poisoned) = {
            let _span = telemetry::span!("train.rollout");
            self.collect_rollout_vec(slots)?
        };
        let rollout_wall_s = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let (policy_loss, value_loss) = {
            let _span = telemetry::span!("train.update");
            self.guarded_update(&buf, poisoned)?
        };
        let update_wall_s = t1.elapsed().as_secs_f64();
        Ok(TrainReport {
            iteration: self.iteration,
            total_steps: self.total_steps,
            mean_step_reward: raw_step_reward,
            mean_episode_reward: nn::ops::mean(&ep_rewards),
            episodes_completed: ep_rewards.len(),
            entropy: mean_entropy,
            policy_loss,
            value_loss,
            n_envs: slots.len(),
            rollout_wall_s,
            rollout_steps_per_s: self.cfg.n_steps as f64 / rollout_wall_s.max(1e-12),
            update_wall_s,
            worker_wall_s,
            guard_trips: self.guard_trips,
        })
    }

    /// Collect `cfg.n_steps` transitions split evenly across `slots`, each
    /// slot stepped on its own worker thread against a read-only snapshot
    /// of the policy, value net, and observation statistics.
    ///
    /// Workers record *raw* rewards and frozen-normalized observations;
    /// everything order-sensitive — observation-statistics updates, reward
    /// scaling against the shared return std, GAE, advantage
    /// normalization — happens at merge time in fixed slot order, which is
    /// what makes the result independent of thread scheduling. Returns the
    /// merged buffer, mean raw step reward, completed-episode raw rewards,
    /// mean entropy, per-worker wall-clock seconds, and the count of
    /// non-finite values sanitized out of the stream.
    ///
    /// Workers run fault-isolated: a panicked slot is rolled back to its
    /// pre-iteration state and retried up to `cfg.worker_retries` times
    /// (the rollout job is deterministic given the slot, so a successful
    /// retry merges identically); exhaustion fails the iteration with
    /// [`TrainError::Worker`].
    #[allow(clippy::type_complexity)]
    fn collect_rollout_vec<E: Env + Clone + Send>(
        &mut self,
        slots: &mut [EnvSlot<E>],
    ) -> Result<(RolloutBuffer, f64, Vec<f64>, f64, Vec<f64>, usize), TrainError> {
        let n = self.cfg.n_steps;
        let seg = n / slots.len();
        let policy = &self.policy;
        let value_net = &self.value;
        let frozen = self.obs_norm.clone();

        let job = |_w: usize, slot: &mut EnvSlot<E>, hb: &exec::Heartbeat| -> SegOut {
            let mut raw_obs_log = Vec::with_capacity(seg);
            let mut transitions = Vec::with_capacity(seg);
            let mut entropy_acc = 0.0;
            let mut poisoned = 0;
            let mut raw_obs = match slot.cur_obs.take() {
                Some(o) => o,
                None => slot.env.reset(&mut slot.rng),
            };
            poisoned += sanitize(&mut raw_obs);
            for _ in 0..seg {
                // One beat per environment step is the liveness contract
                // the watchdog supervises (and where a cancelled slot
                // panics into the rollback/retry path).
                hb.beat();
                let obs = match &frozen {
                    Some(norm) => norm.normalize(&raw_obs),
                    None => raw_obs.clone(),
                };
                let (action, log_prob) = policy.sample(&obs, &mut slot.rng);
                entropy_acc += policy.entropy(&obs);
                let value = value_net.value(&obs);
                let mut step = slot.env.step(&action, &mut slot.rng);
                poisoned += sanitize(std::slice::from_mut(&mut step.reward));
                let mut next_raw = if step.done { slot.env.reset(&mut slot.rng) } else { step.obs };
                poisoned += sanitize(&mut next_raw);
                raw_obs_log.push(std::mem::replace(&mut raw_obs, next_raw));
                transitions.push(Transition {
                    obs,
                    action,
                    // Raw reward; scaled deterministically at merge time.
                    reward: step.reward,
                    done: step.done,
                    log_prob,
                    value,
                });
            }
            let last_norm = match &frozen {
                Some(norm) => norm.normalize(&raw_obs),
                None => raw_obs.clone(),
            };
            let last_value = value_net.value(&last_norm);
            slot.cur_obs = Some(raw_obs);
            SegOut { raw_obs: raw_obs_log, transitions, last_value, entropy_acc, poisoned }
        };
        let watchdog = if self.cfg.watchdog_timeout_ms > 0 {
            Some(exec::WatchdogConfig::with_timeout_ms(self.cfg.watchdog_timeout_ms))
        } else {
            exec::WatchdogConfig::from_env()
        };
        let run = exec::run_on_slots_watchdog(
            slots,
            &fault::Backoff::none(self.cfg.worker_retries),
            watchdog.as_ref(),
            job,
        )?;
        let worker_wall_s: Vec<f64> = run.stats.iter().map(|s| s.wall_s).collect();

        // Merge in fixed slot order: batch the observation-statistics
        // update, then scale rewards sequentially and compute GAE per
        // segment (each segment bootstraps from its own last value).
        if let Some(norm) = &mut self.obs_norm {
            for seg_out in &run.results {
                for o in &seg_out.raw_obs {
                    norm.observe(o);
                }
            }
        }
        let mut buf = RolloutBuffer::with_capacity(n);
        let mut raw_sum = 0.0;
        let mut ep_rewards = Vec::new();
        let mut entropy_total = 0.0;
        let mut poisoned_total = 0;
        for (slot, seg_out) in slots.iter_mut().zip(run.results) {
            entropy_total += seg_out.entropy_acc;
            poisoned_total += seg_out.poisoned;
            let mut seg_buf = RolloutBuffer::with_capacity(seg);
            // Episode-reward accounting restarts each iteration, mirroring
            // the serial path's treatment of episodes that span iterations.
            let mut cur_ep_reward = 0.0;
            for mut t in seg_out.transitions {
                let raw = t.reward;
                raw_sum += raw;
                cur_ep_reward += raw;
                t.reward = Self::scale_reward_impl(
                    self.cfg.normalize_reward,
                    self.cfg.gamma,
                    &mut slot.ret_acc,
                    &mut self.ret_stats,
                    raw,
                    t.done,
                );
                if t.done {
                    ep_rewards.push(cur_ep_reward);
                    cur_ep_reward = 0.0;
                }
                seg_buf.transitions.push(t);
            }
            seg_buf.last_value = seg_out.last_value;
            seg_buf.compute_gae(self.cfg.gamma, self.cfg.lambda);
            buf.transitions.extend(seg_buf.transitions);
            buf.advantages.extend(seg_buf.advantages);
            buf.returns.extend(seg_buf.returns);
            self.total_steps += seg;
        }
        buf.normalize_advantages();
        Ok((
            buf,
            raw_sum / (seg * slots.len()) as f64,
            ep_rewards,
            entropy_total / n as f64,
            worker_wall_s,
            poisoned_total,
        ))
    }

    /// VecNormalize-style reward scaling by the running std of the
    /// discounted return.
    fn scale_reward(&mut self, r: f64, done: bool) -> f64 {
        Self::scale_reward_impl(
            self.cfg.normalize_reward,
            self.cfg.gamma,
            &mut self.ret_acc,
            &mut self.ret_stats,
            r,
            done,
        )
    }

    /// Shared implementation of [`Ppo::scale_reward`]: the parallel path
    /// applies it at merge time with each env slot's own discounted-return
    /// accumulator against the single shared `ret_stats`.
    fn scale_reward_impl(
        normalize: bool,
        gamma: f64,
        ret_acc: &mut f64,
        ret_stats: &mut RunningMeanStd,
        r: f64,
        done: bool,
    ) -> f64 {
        if !normalize {
            return r;
        }
        *ret_acc = gamma * *ret_acc + r;
        ret_stats.observe(&[*ret_acc]);
        if done {
            *ret_acc = 0.0;
        }
        let std = ret_stats.std()[0];
        (r / std.max(1e-4)).clamp(-10.0, 10.0)
    }

    /// Run the PPO update behind the divergence guard.
    ///
    /// A rollout that needed sanitizing, or an update that produced
    /// non-finite losses/gradients/weights, is *skipped*: the pre-update
    /// nets and optimizer moments are restored, the effective learning
    /// rate is multiplied by `cfg.guard_lr_backoff`, and training moves on
    /// to the next rollout. More than `cfg.guard_max_trips` trips fails
    /// with [`TrainError::Diverged`] carrying the last trip's
    /// [`DivergenceReport`]. A skipped update reports NaN losses.
    fn guarded_update(
        &mut self,
        buf: &RolloutBuffer,
        poisoned: usize,
    ) -> Result<(f64, f64), TrainError> {
        if poisoned > 0 {
            self.trip(format!(
                "{poisoned} non-finite value(s) sanitized out of the rollout; update skipped"
            ))?;
            return Ok((f64::NAN, f64::NAN));
        }
        let stash = self.stash_nets();
        match self.update_checked(buf) {
            Ok(losses) => Ok(losses),
            Err(reason) => {
                self.restore_nets(stash);
                self.trip(reason)?;
                Ok((f64::NAN, f64::NAN))
            }
        }
    }

    /// Record a divergence-guard trip: back off the learning rate, emit a
    /// telemetry event (`rl.guard.trips` counter + `rl.guard.trip` event —
    /// stderr stays reserved for fatal errors), and fail with
    /// [`TrainError::Diverged`] once the budget is spent.
    fn trip(&mut self, reason: String) -> Result<(), TrainError> {
        self.guard_trips += 1;
        self.lr_scale *= self.cfg.guard_lr_backoff;
        let report = DivergenceReport {
            iteration: self.iteration,
            trips: self.guard_trips,
            lr_scale: self.lr_scale,
            reason,
        };
        if self.guard_trips > self.cfg.guard_max_trips {
            return Err(TrainError::Diverged(report));
        }
        telemetry::counter_add("rl.guard.trips", 1);
        telemetry::event("rl.guard.trip", &format!("{report}; update skipped, nets rolled back"));
        Ok(())
    }

    /// Everything [`Ppo::update_checked`] mutates besides the RNG: nets
    /// and optimizer moments, stashed so a diverged update can be undone.
    fn stash_nets(&self) -> (PolicyKind, ValueNet, Adam, Adam, Option<AdamVec>) {
        (
            self.policy.clone(),
            self.value.clone(),
            self.opt_policy.clone(),
            self.opt_value.clone(),
            self.opt_log_std.clone(),
        )
    }

    fn restore_nets(&mut self, stash: (PolicyKind, ValueNet, Adam, Adam, Option<AdamVec>)) {
        (self.policy, self.value, self.opt_policy, self.opt_value, self.opt_log_std) = stash;
    }

    /// Clipped-surrogate update over the rollout. Returns the final epoch's
    /// mean (policy loss, value loss), or a description of the first
    /// non-finite quantity detected (gradients are checked before every
    /// optimizer step, losses and weights after the final epoch).
    ///
    /// Two interchangeable minibatch gradient paths sit underneath,
    /// selected by `cfg.batched_updates`; both produce bit-identical
    /// gradients, losses, and optimizer steps (see `docs/PERF.md` for the
    /// argument and the measured speedups):
    ///
    /// * **legacy serial** (`batched_updates: false`) — two per-sample
    ///   forwards per net per transition; the reference implementation.
    /// * **batched** (`batched_updates: true`) — one batched forward per
    ///   net per minibatch via `nn`'s matrix–matrix kernels, backward via
    ///   [`nn::Mlp::grads_batch`].
    fn update_checked(&mut self, buf: &RolloutBuffer) -> Result<(f64, f64), String> {
        // Fault point `ppo.update`: `panic@ppo.update:<n>` crashes the
        // process at the nth update step (the checkpoint written after the
        // previous iteration survives and a rerun resumes from it).
        let _ = fault::check("ppo.update");
        self.opt_policy.lr = self.cfg.lr * self.lr_scale;
        self.opt_value.lr = self.cfg.lr * self.lr_scale;
        if let Some(opt) = &mut self.opt_log_std {
            opt.lr = self.cfg.lr * self.lr_scale;
        }
        let n = buf.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut pgrads = MlpGrads::zeros_like(self.policy.net());
        let mut vgrads = MlpGrads::zeros_like(&self.value.net);
        let mut pcache = self.policy.net().new_cache();
        let mut vcache = self.value.net.new_cache();
        let mut bpcache = nn::BatchCache::default();
        let mut bvcache = nn::BatchCache::default();
        let mut last_policy_loss = 0.0;
        let mut last_value_loss = 0.0;

        for epoch in 0..self.cfg.epochs {
            indices.shuffle(&mut self.rng);
            let mut epoch_ploss = 0.0;
            let mut epoch_vloss = 0.0;
            let mut batches = 0.0;
            for chunk in indices.chunks(self.cfg.minibatch_size) {
                pgrads.zero();
                vgrads.zero();
                let mut log_std_grad = match &self.policy {
                    PolicyKind::Gaussian(g) => vec![0.0; g.log_std.len()],
                    PolicyKind::Categorical(_) => Vec::new(),
                };
                let (ploss, vloss) = if !self.cfg.batched_updates {
                    self.minibatch_grads_serial(
                        buf,
                        chunk,
                        &mut pcache,
                        &mut vcache,
                        &mut pgrads,
                        &mut vgrads,
                        &mut log_std_grad,
                    )
                } else {
                    self.minibatch_grads_batched(
                        buf,
                        chunk,
                        &mut bpcache,
                        &mut bvcache,
                        &mut pgrads,
                        &mut vgrads,
                        &mut log_std_grad,
                    )
                };
                // Fault point `nn.grads`: `nan@nn.grads:<n>` poisons the
                // nth minibatch's policy gradients, which the finite
                // check below must catch — tripping the divergence guard
                // (net rollback + LR backoff), never stepping on NaNs.
                if fault::active() && fault::check("nn.grads") == Some(fault::Injection::Nan) {
                    pgrads.scale(f64::NAN);
                }
                let pnorm = pgrads.clip_global_norm(self.cfg.max_grad_norm);
                let vnorm = vgrads.clip_global_norm(self.cfg.max_grad_norm);
                if !pnorm.is_finite()
                    || !vnorm.is_finite()
                    || log_std_grad.iter().any(|g| !g.is_finite())
                {
                    return Err(format!(
                        "non-finite gradients in epoch {epoch}: policy norm {pnorm:e}, \
                         value norm {vnorm:e}"
                    ));
                }
                match &mut self.policy {
                    PolicyKind::Gaussian(g) => {
                        self.opt_policy.step(&mut g.mean_net, &pgrads);
                        self.opt_log_std
                            .as_mut()
                            .expect("gaussian policies have a log-std optimizer")
                            .step(&mut g.log_std, &log_std_grad);
                    }
                    PolicyKind::Categorical(c) => {
                        self.opt_policy.step(&mut c.logits_net, &pgrads);
                    }
                }
                self.opt_value.step(&mut self.value.net, &vgrads);
                epoch_ploss += ploss / chunk.len() as f64;
                epoch_vloss += vloss / chunk.len() as f64;
                batches += 1.0;
            }
            last_policy_loss = epoch_ploss / batches;
            last_value_loss = epoch_vloss / batches;
        }
        if !last_policy_loss.is_finite() || !last_value_loss.is_finite() {
            return Err(format!(
                "non-finite losses after update: policy {last_policy_loss}, \
                 value {last_value_loss}"
            ));
        }
        let log_std_ok = match &self.policy {
            PolicyKind::Gaussian(g) => g.log_std.iter().all(|v| v.is_finite()),
            PolicyKind::Categorical(_) => true,
        };
        if !self.policy.net().all_finite() || !self.value.net.all_finite() || !log_std_ok {
            return Err("non-finite weights after update".to_string());
        }
        Ok((last_policy_loss, last_value_loss))
    }

    /// Legacy per-sample minibatch gradients (`batched_updates: false`):
    /// the reference implementation the batched path must match
    /// bit-for-bit. Two per-sample forwards per network per
    /// transition (one for the ratio, one cached for backprop). Returns
    /// the minibatch's summed (policy, value) loss; gradients accumulate
    /// into `pgrads` / `vgrads` / `log_std_grad`.
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

    /// Batched minibatch gradients (`batched_updates: true`): one batched
    /// cached forward per network per minibatch,
    /// per-sample head math in chunk order, then one
    /// [`nn::Mlp::grads_batch`] backward per network. Bit-identical to
    /// [`Ppo::minibatch_grads_serial`] because every batched kernel
    /// replays the serial path's per-element operation order (see
    /// `docs/PERF.md` for the argument).
    #[allow(clippy::too_many_arguments)]
    fn minibatch_grads_batched(
        &self,
        buf: &RolloutBuffer,
        chunk: &[usize],
        bpcache: &mut nn::BatchCache,
        bvcache: &mut nn::BatchCache,
        pgrads: &mut MlpGrads,
        vgrads: &mut MlpGrads,
        log_std_grad: &mut [f64],
    ) -> (f64, f64) {
        let inv_b = 1.0 / chunk.len() as f64;
        let c_ent = -self.cfg.ent_coef * inv_b;
        let obs = buf.gather_obs(chunk);
        let pout = self.policy.net().forward_batch_cached(&obs, bpcache);
        let vout = self.value.net.forward_batch_cached(&obs, bvcache);
        let mut dpol = nn::Matrix::zeros(chunk.len(), pout.cols());
        let mut dval = nn::Matrix::zeros(chunk.len(), 1);
        // `stds()` is a pure function of `log_std`, so hoisting it out of
        // the sample loop returns the exact bits the serial path recomputes
        // per sample.
        let stds = match &self.policy {
            PolicyKind::Gaussian(g) => g.stds(),
            PolicyKind::Categorical(_) => Vec::new(),
        };
        let mut lp = vec![0.0; pout.cols()];
        let mut ploss = 0.0;
        let mut vloss = 0.0;
        for (s, &i) in chunk.iter().enumerate() {
            let t = &buf.transitions[i];
            let adv = buf.advantages[i];
            let ret = buf.returns[i];
            let logp_new = match &self.policy {
                PolicyKind::Gaussian(_) => {
                    crate::policy::gaussian_log_prob(pout.row(s), &stds, t.action.vector())
                }
                PolicyKind::Categorical(_) => {
                    nn::ops::log_softmax_into(pout.row(s), &mut lp);
                    lp[t.action.index()]
                }
            };
            let ratio = (logp_new - t.log_prob).exp();
            let unclipped = ratio * adv;
            let clipped = ratio.clamp(1.0 - self.cfg.clip, 1.0 + self.cfg.clip) * adv;
            let surrogate = unclipped.min(clipped);
            ploss += -surrogate;
            let c_logp = if unclipped <= clipped { -adv * ratio * inv_b } else { 0.0 };
            match &self.policy {
                PolicyKind::Gaussian(g) => g.dmean_row(
                    pout.row(s),
                    t.action.vector(),
                    &stds,
                    c_logp,
                    c_ent,
                    dpol.row_mut(s),
                    log_std_grad,
                ),
                PolicyKind::Categorical(c) => {
                    c.dlogits_row(&lp, t.action.index(), c_logp, c_ent, dpol.row_mut(s))
                }
            }
            let v = vout.get(s, 0);
            vloss += 0.5 * (v - ret) * (v - ret);
            dval.set(s, 0, self.cfg.vf_coef * (v - ret) * inv_b);
        }
        self.policy.net().grads_batch(bpcache, &dpol, pgrads);
        self.value.net.grads_batch(bvcache, &dval, vgrads);
        // Fault point `nn.grads_batch`: the batched analogue of `nn.grads`
        // — `nan@nn.grads_batch:<n>` poisons the nth batched backward's
        // policy gradients, which the finite check in `update_checked`
        // must catch before any optimizer step.
        if fault::active() && fault::check("nn.grads_batch") == Some(fault::Injection::Nan) {
            pgrads.scale(f64::NAN);
        }
        (ploss, vloss)
    }
}

/// Checkpoint/resume: everything here round-trips bit-exactly (the JSON
/// layer preserves `f64` values losslessly), so a resumed run continues
/// the exact trajectory of an uninterrupted one.
impl Ppo {
    /// Capture the full trainer state for checkpointing.
    pub fn to_train_state(&self) -> TrainState {
        TrainState {
            cfg: self.cfg.clone(),
            policy: self.policy.clone(),
            value: self.value.clone(),
            opt_policy: self.opt_policy.clone(),
            opt_value: self.opt_value.clone(),
            opt_log_std: self.opt_log_std.clone(),
            obs_norm: self.obs_norm.clone(),
            rng: self.rng.state().to_vec(),
            cur_obs: self.cur_obs.clone(),
            ret_acc: self.ret_acc,
            ret_stats: self.ret_stats.clone(),
            total_steps: self.total_steps,
            iteration: self.iteration,
            lr_scale: self.lr_scale,
            guard_trips: self.guard_trips,
        }
    }

    /// Reconstruct a trainer from a captured [`TrainState`].
    pub fn from_train_state(state: &TrainState) -> Result<Ppo, TrainError> {
        state.cfg.validate();
        let rng_words: [u64; 4] = state.rng.as_slice().try_into().map_err(|_| {
            TrainError::Mismatch(format!(
                "trainer RNG state has {} words, expected 4",
                state.rng.len()
            ))
        })?;
        Ok(Ppo {
            policy: state.policy.clone(),
            value: state.value.clone(),
            cfg: state.cfg.clone(),
            obs_norm: state.obs_norm.clone(),
            opt_policy: state.opt_policy.clone(),
            opt_value: state.opt_value.clone(),
            opt_log_std: state.opt_log_std.clone(),
            rng: StdRng::from_state(rng_words),
            cur_obs: state.cur_obs.clone(),
            ret_acc: state.ret_acc,
            ret_stats: state.ret_stats.clone(),
            total_steps: state.total_steps,
            iteration: state.iteration,
            lr_scale: state.lr_scale,
            guard_trips: state.guard_trips,
        })
    }

    /// Replace this trainer's state with a checkpointed one. Fails with
    /// [`TrainError::Mismatch`] if the checkpoint was written under a
    /// different configuration.
    pub fn restore_train_state(&mut self, state: &TrainState) -> Result<(), TrainError> {
        if self.cfg.to_value() != state.cfg.to_value() {
            return Err(TrainError::Mismatch(
                "checkpoint was written with a different PpoConfig; refusing to resume".into(),
            ));
        }
        *self = Ppo::from_train_state(state)?;
        Ok(())
    }

    /// Write this trainer's state as a standalone checkpoint (atomic,
    /// checksummed). Pairs with [`Ppo::resume_from`]. For checkpointing
    /// *inside* a training loop — which also needs environment state —
    /// use [`Ppo::train_checkpointed`].
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<(), TrainError> {
        let ckpt = TrainCheckpoint {
            state: self.to_train_state(),
            env: None,
            slots: Vec::new(),
            reports: Vec::new(),
            start_steps: self.total_steps,
            target_steps: self.total_steps,
        };
        save_train_checkpoint(path.as_ref(), &ckpt)
    }

    /// Rebuild a trainer from a checkpoint written by
    /// [`Ppo::save_checkpoint`] or [`Ppo::train_checkpointed`].
    pub fn resume_from(path: impl AsRef<std::path::Path>) -> Result<Ppo, TrainError> {
        let ckpt = load_train_checkpoint(path.as_ref())?;
        Ppo::from_train_state(&ckpt.state)
    }

    /// [`Ppo::try_train_vec`] with crash safety: a checkpoint (trainer
    /// state, environment snapshots, accumulated reports) is written every
    /// `ckpt.every` iterations and once more on completion; if
    /// `ckpt.path` already exists, the run **auto-resumes** from it —
    /// `env` must then be the same pristine environment value the original
    /// call received, and the completed run is bit-identical to an
    /// uninterrupted one (kill the process at any point and re-invoke).
    ///
    /// The step budget of a resumed run comes from the checkpoint, so a
    /// finished checkpoint just returns its reports. With `cfg.n_envs == 1`
    /// collection is serial (bit-identical to [`Ppo::train`]); otherwise
    /// vectorized with fault-isolated workers.
    pub fn train_checkpointed<E>(
        &mut self,
        env: &mut E,
        total_steps: usize,
        ckpt: &Checkpointer,
    ) -> Result<Vec<TrainReport>, TrainError>
    where
        E: Env + Clone + Send + Snapshot,
    {
        let vec_path = self.cfg.n_envs > 1;
        let mut slots: Vec<EnvSlot<E>> = Vec::new();
        let mut reports: Vec<TrainReport>;
        let start: usize;
        let target: usize;
        if ckpt.path.exists() {
            let tc = load_train_checkpoint(&ckpt.path)?;
            self.restore_train_state(&tc.state)?;
            if vec_path {
                if tc.slots.len() != self.cfg.n_envs {
                    return Err(TrainError::Mismatch(format!(
                        "checkpoint has {} env slots, config wants {}",
                        tc.slots.len(),
                        self.cfg.n_envs
                    )));
                }
                slots = tc
                    .slots
                    .iter()
                    .map(|s| {
                        let mut slot_env = env.clone();
                        slot_env.restore(&s.env).map_err(|e| {
                            TrainError::Corrupt(format!("restore slot environment: {e}"))
                        })?;
                        let rng_words: [u64; 4] = s.rng.as_slice().try_into().map_err(|_| {
                            TrainError::Mismatch(format!(
                                "slot RNG state has {} words, expected 4",
                                s.rng.len()
                            ))
                        })?;
                        Ok(EnvSlot {
                            env: slot_env,
                            rng: StdRng::from_state(rng_words),
                            cur_obs: s.cur_obs.clone(),
                            ret_acc: s.ret_acc,
                        })
                    })
                    .collect::<Result<_, TrainError>>()?;
            } else {
                let snap = tc.env.as_ref().ok_or_else(|| {
                    TrainError::Corrupt("checkpoint has no serial environment snapshot".into())
                })?;
                env.restore(snap)
                    .map_err(|e| TrainError::Corrupt(format!("restore serial environment: {e}")))?;
            }
            reports = tc.reports;
            start = tc.start_steps;
            target = tc.target_steps;
        } else {
            if vec_path {
                slots = self.make_slots(env);
            }
            reports = Vec::new();
            start = self.total_steps;
            target = total_steps;
        }
        while self.total_steps - start < target {
            let report = if vec_path {
                self.try_train_iteration_vec(&mut slots)?
            } else {
                self.try_train_iteration(env)?
            };
            reports.push(report);
            if ckpt.fault_at == Some(self.iteration) {
                panic!("ADVNET_FAULT_ITER: injected crash at iteration {}", self.iteration);
            }
            // Fault point `ppo.iter`: a *value* point compared against the
            // iteration counter, which continues across a resume — so
            // `panic@ppo.iter:3` (or the legacy `ADVNET_FAULT_ITER=3`,
            // which aliases to it) crashes at iteration 3 exactly once per
            // run while armed, after that iteration's update and report
            // but before its checkpoint write.
            let _ = fault::check_value("ppo.iter", self.iteration as u64);
            let done = self.total_steps - start >= target;
            if done || self.iteration.is_multiple_of(ckpt.every) {
                let tc = TrainCheckpoint {
                    state: self.to_train_state(),
                    env: if vec_path { None } else { Some(env.snapshot()) },
                    slots: slots
                        .iter()
                        .map(|s| SlotState {
                            env: s.env.snapshot(),
                            rng: s.rng.state().to_vec(),
                            cur_obs: s.cur_obs.clone(),
                            ret_acc: s.ret_acc,
                        })
                        .collect(),
                    reports: reports.clone(),
                    start_steps: start,
                    target_steps: target,
                };
                save_train_checkpoint(&ckpt.path, &tc)?;
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ActionSpace as Sp, Step};

    /// Continuous bandit: reward = −(a − target)², episode length 1.
    struct ContBandit {
        target: f64,
    }

    impl Env for ContBandit {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_space(&self) -> Sp {
            Sp::Continuous { low: vec![-2.0], high: vec![2.0] }
        }
        fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
            let a = self.action_space().clip(action.vector())[0];
            Step { obs: vec![0.0], reward: -(a - self.target) * (a - self.target), done: true }
        }
    }

    /// Discrete bandit with per-arm payoffs.
    struct DiscBandit {
        payoffs: Vec<f64>,
    }

    impl Env for DiscBandit {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_space(&self) -> Sp {
            Sp::Discrete { n: self.payoffs.len() }
        }
        fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
            Step { obs: vec![0.0], reward: self.payoffs[action.index()], done: true }
        }
    }

    #[test]
    fn mode_batch_bit_identical_to_per_sample_mode() {
        let mut rng = StdRng::seed_from_u64(17);
        let obs: Vec<Vec<f64>> =
            (0..9).map(|i| (0..4).map(|j| ((i * 4 + j) as f64).sin()).collect()).collect();
        let m = nn::Matrix::from_vec(9, 4, obs.concat());

        let cat = PolicyKind::Categorical(CategoricalPolicy::new(&[4, 8, 5], &mut rng));
        let batched = cat.mode_batch(&m);
        for (i, o) in obs.iter().enumerate() {
            assert_eq!(batched[i].index(), cat.mode(o).index(), "categorical row {i}");
        }

        let gauss = PolicyKind::Gaussian(GaussianPolicy::new(&[4, 8, 2], 0.5, &mut rng));
        let batched = gauss.mode_batch(&m);
        for (i, o) in obs.iter().enumerate() {
            assert_eq!(batched[i].vector(), gauss.mode(o).vector(), "gaussian row {i}");
        }
    }

    /// Observation-tracking: reward = −(a − obs)²; a new random obs each step;
    /// requires the policy to actually use its input.
    struct Tracker {
        cur: f64,
        t: usize,
    }

    impl Env for Tracker {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_space(&self) -> Sp {
            Sp::Continuous { low: vec![-2.0], high: vec![2.0] }
        }
        fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
            use rand::Rng;
            self.t = 0;
            self.cur = rng.gen_range(-1.0..1.0);
            vec![self.cur]
        }
        fn step(&mut self, action: &Action, rng: &mut StdRng) -> Step {
            use rand::Rng;
            let a = self.action_space().clip(action.vector())[0];
            let r = -(a - self.cur) * (a - self.cur);
            self.t += 1;
            self.cur = rng.gen_range(-1.0..1.0);
            Step { obs: vec![self.cur], reward: r, done: self.t >= 16 }
        }
    }

    fn small_cfg(seed: u64) -> PpoConfig {
        PpoConfig {
            n_steps: 256,
            minibatch_size: 64,
            epochs: 6,
            lr: 3e-3,
            ent_coef: 0.001,
            seed,
            ..PpoConfig::default()
        }
    }

    #[test]
    fn ppo_solves_continuous_bandit() {
        let mut env = ContBandit { target: 0.7 };
        let mut ppo = Ppo::new_gaussian(1, 1, &[8], 0.6, small_cfg(1));
        ppo.train(&mut env, 20_000);
        let obs = ppo.normalize_obs(&[0.0]);
        let a = ppo.policy.mode(&obs).vector()[0];
        assert!((a - 0.7).abs() < 0.15, "learned action {a}, want ≈0.7");
    }

    #[test]
    fn ppo_solves_discrete_bandit() {
        let mut env = DiscBandit { payoffs: vec![0.0, 1.0, 0.2] };
        let mut ppo = Ppo::new_categorical(1, 3, &[8], small_cfg(2));
        ppo.train(&mut env, 10_000);
        let obs = ppo.normalize_obs(&[0.0]);
        assert_eq!(ppo.policy.mode(&obs).index(), 1);
    }

    #[test]
    fn ppo_tracks_observations() {
        let mut env = Tracker { cur: 0.0, t: 0 };
        let mut ppo = Ppo::new_gaussian(1, 1, &[16], 0.5, small_cfg(3));
        let reports = ppo.train(&mut env, 60_000);
        // Check the policy maps obs ≈ action across the range.
        let mut worst: f64 = 0.0;
        for &target in &[-0.8, -0.3, 0.0, 0.4, 0.9] {
            let obs = ppo.normalize_obs(&[target]);
            let a = ppo.policy.mode(&obs).vector()[0].clamp(-2.0, 2.0);
            worst = worst.max((a - target).abs());
        }
        assert!(worst < 0.3, "worst tracking error {worst}");
        // and training must have improved the step reward substantially
        let first = reports.first().unwrap().mean_step_reward;
        let last = reports.last().unwrap().mean_step_reward;
        assert!(last > first, "no improvement: {first} -> {last}");
        assert!(last > -0.05, "final step reward {last}");
    }

    #[test]
    fn ppo_reports_episodes() {
        let mut env = DiscBandit { payoffs: vec![0.5, 0.5] };
        let mut ppo = Ppo::new_categorical(1, 2, &[4], small_cfg(4));
        let reports = ppo.train(&mut env, 256);
        assert_eq!(reports.len(), 1);
        // episode length 1 → every step completes an episode
        assert_eq!(reports[0].episodes_completed, 256);
        assert!((reports[0].mean_episode_reward - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ppo_is_deterministic_given_seed() {
        let run = || {
            let mut env = ContBandit { target: -0.4 };
            let mut ppo = Ppo::new_gaussian(1, 1, &[4], 0.5, small_cfg(9));
            ppo.train(&mut env, 2048);
            ppo.policy.mode(&ppo.normalize_obs(&[0.0])).vector()[0]
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reports_export_to_csv() {
        let mut env = DiscBandit { payoffs: vec![0.1, 0.9] };
        let mut ppo = Ppo::new_categorical(1, 2, &[4], small_cfg(8));
        let reports = ppo.train(&mut env, 512);
        let dir = std::env::temp_dir().join("ppo-report-csv");
        let path = dir.join("curve.csv");
        save_reports_csv(&reports, &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("iteration,total_steps"));
        assert_eq!(body.lines().count(), reports.len() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "minibatch_size must be in 1..=n_steps")]
    fn config_validation_rejects_oversized_minibatch() {
        let cfg = PpoConfig { n_steps: 32, minibatch_size: 64, ..PpoConfig::default() };
        let _ = Ppo::new_categorical(1, 2, &[4], cfg);
    }

    /// Emits a NaN reward on exactly one step (the `poison_at`-th overall),
    /// then behaves like a bandit.
    #[derive(Clone)]
    struct PoisonOnce {
        steps: usize,
        poison_at: usize,
    }

    impl Env for PoisonOnce {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_space(&self) -> Sp {
            Sp::Continuous { low: vec![-2.0], high: vec![2.0] }
        }
        fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
            self.steps += 1;
            let a = self.action_space().clip(action.vector())[0];
            let reward =
                if self.steps == self.poison_at { f64::NAN } else { -(a - 0.5) * (a - 0.5) };
            Step { obs: vec![0.0], reward, done: true }
        }
    }

    /// Rewards so large the value loss overflows to infinity, driving the
    /// gradient norm non-finite — the classic divergence the guard exists
    /// for. Only reachable with `normalize_reward: false`.
    #[derive(Clone)]
    struct Exploder;

    impl Env for Exploder {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_space(&self) -> Sp {
            Sp::Continuous { low: vec![-2.0], high: vec![2.0] }
        }
        fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, _action: &Action, _rng: &mut StdRng) -> Step {
            Step { obs: vec![0.0], reward: 1e200, done: true }
        }
    }

    #[test]
    fn guard_skips_nan_poisoned_update_and_recovers() {
        // One NaN reward mid-run: the poisoned iteration's update is
        // skipped (NaN losses), everything else proceeds normally.
        let mut env = PoisonOnce { steps: 0, poison_at: 300 };
        let mut ppo = Ppo::new_gaussian(1, 1, &[4], 0.5, small_cfg(11));
        let reports = ppo.try_train(&mut env, 4 * 256).expect("guard should absorb one NaN");
        assert_eq!(reports.len(), 4);
        // step 300 falls in iteration 2 (steps 257..=512)
        assert!(reports[1].policy_loss.is_nan(), "poisoned update must be skipped");
        assert_eq!(reports[1].guard_trips, 1);
        assert_eq!(reports[3].guard_trips, 1, "no further trips");
        assert!(reports[3].policy_loss.is_finite());
        assert!(ppo.policy.net().all_finite() && ppo.value.net.all_finite());
    }

    #[test]
    fn guard_rolls_back_diverged_update() {
        let cfg = PpoConfig { normalize_reward: false, ..small_cfg(12) };
        let mut env = Exploder;
        let mut ppo = Ppo::new_gaussian(1, 1, &[4], 0.5, cfg);
        let before = serde_json::to_string(&ppo.policy).unwrap();
        let report = ppo.try_train_iteration(&mut env).expect("one trip is within budget");
        assert!(report.policy_loss.is_nan());
        assert_eq!(report.guard_trips, 1);
        // the diverged update must have been undone bit-exactly
        assert_eq!(serde_json::to_string(&ppo.policy).unwrap(), before);
        assert!(ppo.value.net.all_finite());
    }

    #[test]
    fn guard_exhaustion_fails_with_structured_report() {
        let cfg = PpoConfig { normalize_reward: false, guard_max_trips: 2, ..small_cfg(13) };
        let mut env = Exploder;
        let mut ppo = Ppo::new_gaussian(1, 1, &[4], 0.5, cfg);
        match ppo.try_train(&mut env, 10 * 256) {
            Err(TrainError::Diverged(r)) => {
                assert_eq!(r.trips, 3, "budget of 2 + the fatal trip");
                assert!(r.lr_scale < 0.2, "LR backed off each trip: {}", r.lr_scale);
                assert!(r.reason.contains("non-finite"), "{}", r.reason);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn vec_worker_panic_is_retried_deterministically() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static TRIPPED: AtomicBool = AtomicBool::new(false);

        /// Tracker whose clone in slot 1 panics once (process-global
        /// latch), modelling a transient worker fault.
        #[derive(Clone)]
        struct Flaky {
            inner_target: f64,
            t: usize,
            armed: bool,
        }

        impl Env for Flaky {
            fn obs_dim(&self) -> usize {
                1
            }
            fn action_space(&self) -> Sp {
                Sp::Continuous { low: vec![-2.0], high: vec![2.0] }
            }
            fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
                self.t = 0;
                vec![0.0]
            }
            fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
                self.t += 1;
                if self.armed && self.t == 3 && !TRIPPED.swap(true, Ordering::SeqCst) {
                    panic!("transient worker fault");
                }
                let a = self.action_space().clip(action.vector())[0];
                Step {
                    obs: vec![0.0],
                    reward: -(a - self.inner_target) * (a - self.inner_target),
                    done: self.t >= 4,
                }
            }
        }

        let run = |armed: bool| {
            let cfg = PpoConfig { n_envs: 2, ..small_cfg(14) };
            let mut env = Flaky { inner_target: 0.3, t: 0, armed };
            let mut ppo = Ppo::new_gaussian(1, 1, &[4], 0.5, cfg);
            let reports = ppo.try_train_vec(&mut env, 2 * 256).expect("retry absorbs the fault");
            (serde_json::to_string(&ppo.policy).unwrap(), reports.len())
        };
        let clean = run(false);
        let faulted = run(true);
        assert!(TRIPPED.load(Ordering::SeqCst), "the injected fault should have fired");
        assert_eq!(clean, faulted, "retried run must merge identically to a clean run");
    }

    #[test]
    fn vec_worker_panic_exhaustion_is_structured() {
        /// Panics deterministically in slot-clone steps — retries cannot
        /// help, so the error must surface as `TrainError::Worker`.
        #[derive(Clone)]
        struct AlwaysPanics;

        impl Env for AlwaysPanics {
            fn obs_dim(&self) -> usize {
                1
            }
            fn action_space(&self) -> Sp {
                Sp::Discrete { n: 2 }
            }
            fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
                vec![0.0]
            }
            fn step(&mut self, _action: &Action, _rng: &mut StdRng) -> Step {
                panic!("deterministic env bug");
            }
        }

        let cfg = PpoConfig { n_envs: 2, worker_retries: 1, ..small_cfg(15) };
        let mut env = AlwaysPanics;
        let mut ppo = Ppo::new_categorical(1, 2, &[4], cfg);
        match ppo.try_train_vec(&mut env, 256) {
            Err(TrainError::Worker(e)) => {
                assert_eq!(e.attempts, 2);
                assert!(e.message.contains("deterministic env bug"), "{}", e.message);
            }
            other => panic!("expected Worker error, got {other:?}"),
        }
    }

    #[test]
    fn save_checkpoint_resume_from_roundtrip() {
        let dir = std::env::temp_dir().join("ppo-save-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.ckpt");
        std::fs::remove_file(&path).ok();

        // Reference: 6 uninterrupted iterations.
        let mut env = Tracker { cur: 0.0, t: 0 };
        let mut full = Ppo::new_gaussian(1, 1, &[4], 0.5, small_cfg(16));
        full.train(&mut env, 6 * 256);

        // Interrupted: 3 iterations, checkpoint, resume in a fresh trainer,
        // 3 more. Tracker state rides in `cur_obs`, so the pause point is
        // fully captured by the trainer state plus the env's own fields —
        // which a fresh Tracker reproduces because `cur` is re-drawn from
        // the checkpointed RNG on reset... except mid-episode: carry the
        // env over, as a paused-and-resumed process would via Snapshot.
        let mut env2 = Tracker { cur: 0.0, t: 0 };
        let mut first = Ppo::new_gaussian(1, 1, &[4], 0.5, small_cfg(16));
        first.train(&mut env2, 3 * 256);
        first.save_checkpoint(&path).unwrap();
        let mut resumed = Ppo::resume_from(&path).unwrap();
        resumed.train(&mut env2, 3 * 256);

        assert_eq!(
            serde_json::to_string(&resumed.to_train_state()).unwrap(),
            serde_json::to_string(&full.to_train_state()).unwrap(),
            "resumed trainer must be bit-identical to the uninterrupted one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_config_drift() {
        let dir = std::env::temp_dir().join("ppo-cfg-drift-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drift.ckpt");
        let ppo = Ppo::new_categorical(1, 2, &[4], small_cfg(17));
        ppo.save_checkpoint(&path).unwrap();
        let mut other = Ppo::new_categorical(1, 2, &[4], small_cfg(99));
        let state = load_train_checkpoint(&path).unwrap().state;
        match other.restore_train_state(&state) {
            Err(TrainError::Mismatch(msg)) => assert!(msg.contains("PpoConfig"), "{msg}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entropy_decreases_with_training() {
        let mut env = DiscBandit { payoffs: vec![0.0, 1.0] };
        let mut ppo = Ppo::new_categorical(1, 2, &[4], small_cfg(5));
        let reports = ppo.train(&mut env, 20_000);
        let early = reports.first().unwrap().entropy;
        let late = reports.last().unwrap().entropy;
        assert!(late < early, "entropy should fall as the arm is learned: {early} -> {late}");
    }
}
