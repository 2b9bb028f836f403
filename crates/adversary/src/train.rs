//! Training entry points for the adversaries, with the paper's network
//! architectures and PPO settings.

use crate::abr_env::{AbrAdversaryEnv, OBS_DIM};
use crate::cc_env::CcAdversaryEnv;
use crate::cross_env::CrossTrafficEnv;
use abr::AbrPolicy;
use rl::{Checkpointer, Ppo, PpoConfig, TrainError, TrainReport};
use std::path::PathBuf;

/// Knobs for adversary training.
#[derive(Debug, Clone)]
pub struct AdversaryTrainConfig {
    /// Total environment steps (paper: ~600 k; scale down for CI).
    pub total_steps: usize,
    /// PPO settings.
    pub ppo: PpoConfig,
    /// Initial exploration std of the Gaussian policy.
    pub init_std: f64,
    /// When set, training is crash-safe: a checkpoint is written to this
    /// path every [`checkpoint_every`](Self::checkpoint_every) iterations
    /// and a rerun auto-resumes from it bit-identically (the file is the
    /// unit of recovery — delete it to start over).
    pub checkpoint_path: Option<PathBuf>,
    /// Iterations between checkpoint writes (only with
    /// [`checkpoint_path`](Self::checkpoint_path); clamped to ≥ 1).
    pub checkpoint_every: usize,
}

impl AdversaryTrainConfig {
    /// The checkpointer of [`checkpoint_path`](Self::checkpoint_path), if
    /// set.
    fn checkpointer(&self) -> Option<Checkpointer> {
        self.checkpoint_path.as_ref().map(|p| Checkpointer::new(p.clone(), self.checkpoint_every))
    }
}

impl Default for AdversaryTrainConfig {
    fn default() -> Self {
        AdversaryTrainConfig {
            total_steps: 60_000,
            ppo: PpoConfig {
                n_steps: 1920, // 40 ABR episodes per iteration
                minibatch_size: 64,
                epochs: 6,
                lr: 3e-4,
                ent_coef: 0.002,
                ..PpoConfig::default()
            },
            init_std: 0.8,
            checkpoint_path: None,
            checkpoint_every: 1,
        }
    }
}

/// Train an ABR adversary against `target` (paper §3: two hidden layers of
/// 32 and 16 neurons). Returns the trainer (policy + normalization) and the
/// per-iteration reports.
///
/// Rollouts go through the `exec`-backed [`Ppo::train_vec`] path:
/// `cfg.ppo.n_envs` environment clones collect in parallel, merged
/// deterministically. The default `n_envs = 1` is bit-identical to the
/// serial trainer.
pub fn train_abr_adversary<P: AbrPolicy + Clone + Send>(
    env: &mut AbrAdversaryEnv<P>,
    cfg: &AdversaryTrainConfig,
) -> (Ppo, Vec<TrainReport>) {
    try_train_abr_adversary(env, cfg)
        .unwrap_or_else(|e| panic!("ABR adversary training failed: {e}"))
}

/// Fallible [`train_abr_adversary`]: surfaces divergence, worker, and
/// checkpoint errors as [`TrainError`] instead of panicking. With
/// `cfg.checkpoint_path` set, training runs through
/// [`Ppo::train_checkpointed`] — crash-safe and auto-resuming.
pub fn try_train_abr_adversary<P: AbrPolicy + Clone + Send>(
    env: &mut AbrAdversaryEnv<P>,
    cfg: &AdversaryTrainConfig,
) -> Result<(Ppo, Vec<TrainReport>), TrainError> {
    let mut ppo = Ppo::new_gaussian(OBS_DIM, 1, &[32, 16], cfg.init_std, cfg.ppo.clone());
    let reports = train_leg(&mut ppo, env, cfg.total_steps, cfg.checkpointer())?;
    Ok((ppo, reports))
}

/// Train a CC adversary (paper §4: "a simple neural network with only one
/// hidden layer of 4 neurons").
///
/// Like [`train_abr_adversary`], collection runs through
/// [`Ppo::train_vec`] with `cfg.ppo.n_envs` parallel env clones.
pub fn train_cc_adversary(
    env: &mut CcAdversaryEnv,
    cfg: &AdversaryTrainConfig,
) -> (Ppo, Vec<TrainReport>) {
    try_train_cc_adversary(env, cfg).unwrap_or_else(|e| panic!("CC adversary training failed: {e}"))
}

/// Fallible [`train_cc_adversary`], with the same crash-safe checkpoint
/// wiring as [`try_train_abr_adversary`].
pub fn try_train_cc_adversary(
    env: &mut CcAdversaryEnv,
    cfg: &AdversaryTrainConfig,
) -> Result<(Ppo, Vec<TrainReport>), TrainError> {
    let mut ppo = Ppo::new_gaussian(2, 3, &[4], cfg.init_std, cfg.ppo.clone());
    let reports = train_leg(&mut ppo, env, cfg.total_steps, cfg.checkpointer())?;
    Ok((ppo, reports))
}

/// Train a cross-traffic adversary (the multi-flow variant: the policy
/// drives a competing sender's rate at a shared bottleneck). Same tiny
/// 4-neuron architecture as the single-flow CC adversary — the attack
/// surface is one scalar rate, not a rich observation space.
pub fn train_cross_adversary(
    env: &mut CrossTrafficEnv,
    cfg: &AdversaryTrainConfig,
) -> (Ppo, Vec<TrainReport>) {
    try_train_cross_adversary(env, cfg)
        .unwrap_or_else(|e| panic!("cross-traffic adversary training failed: {e}"))
}

/// Fallible [`train_cross_adversary`], with the same crash-safe checkpoint
/// wiring as [`try_train_abr_adversary`].
pub fn try_train_cross_adversary(
    env: &mut CrossTrafficEnv,
    cfg: &AdversaryTrainConfig,
) -> Result<(Ppo, Vec<TrainReport>), TrainError> {
    let mut ppo = Ppo::new_gaussian(3, 1, &[4], cfg.init_std, cfg.ppo.clone());
    let reports = train_leg(&mut ppo, env, cfg.total_steps, cfg.checkpointer())?;
    Ok((ppo, reports))
}

/// Train `ppo` for `steps` steps on `env`, through
/// [`Ppo::train_checkpointed`] when a checkpointer is given and
/// [`Ppo::try_train_vec`] otherwise: every adversary and every leg of the
/// robustify pipeline trains here.
pub(crate) fn train_leg<E>(
    ppo: &mut Ppo,
    env: &mut E,
    steps: usize,
    ck: Option<Checkpointer>,
) -> Result<Vec<TrainReport>, TrainError>
where
    E: rl::Env + Clone + Send + rl::Snapshot,
{
    match ck {
        Some(ck) => ppo.train_checkpointed(env, steps, &ck),
        None => ppo.try_train_vec(env, steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr_env::AbrAdversaryConfig;
    use abr::{BufferBased, Video};

    /// The core claim of the framework, in miniature: a briefly trained
    /// adversary hurts BB more than its own random initialization does.
    #[test]
    fn abr_adversary_learns_to_hurt_bb() {
        let mut env = AbrAdversaryEnv::new(
            BufferBased::pensieve_defaults(),
            Video::cbr(),
            AbrAdversaryConfig::default(),
        );
        let cfg = AdversaryTrainConfig {
            total_steps: 12_000,
            ppo: PpoConfig {
                n_steps: 960,
                minibatch_size: 96,
                epochs: 6,
                lr: 1e-3,
                seed: 11,
                ..PpoConfig::default()
            },
            ..AdversaryTrainConfig::default()
        };
        let (_, reports) = train_abr_adversary(&mut env, &cfg);
        let early = reports[0].mean_step_reward;
        let late = reports.last().unwrap().mean_step_reward;
        assert!(
            late > early + 0.05,
            "adversary reward should improve with training: {early} -> {late}"
        );
    }
}
