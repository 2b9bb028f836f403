//! A compact reinforcement-learning stack: environments, stochastic
//! policies, generalized advantage estimation, and PPO.
//!
//! The HotNets '19 paper trains its adversaries with PPO
//! (stable-baselines defaults, constant learning rate); this crate
//! reimplements that algorithm in pure Rust on top of the [`nn`] crate:
//!
//! * [`env::Env`] — the environment interface both the adversary
//!   environments (crate `adversary`) and the Pensieve training environment
//!   (crate `abr`) implement.
//! * [`policy::GaussianPolicy`] — diagonal-Gaussian policy for continuous
//!   actions (network-condition tuples), with state-independent learnable
//!   log-standard-deviations and PPO-style action clipping at the
//!   environment boundary.
//! * [`policy::CategoricalPolicy`] — softmax policy for discrete actions
//!   (bitrate indices, as in Pensieve).
//! * [`policy::ValueNet`] — state-value baseline.
//! * [`buffer`] — rollout storage plus GAE(λ) advantage computation.
//! * [`ppo`] — the clipped-surrogate PPO training loop with minibatch
//!   epochs, entropy bonus, and gradient-norm clipping. Rollouts go
//!   through one collector, inline on one env or on `exec` env slots
//!   ([`Ppo::train_vec`](ppo::Ppo::train_vec)); its one switch is when
//!   the observation statistics learn a step.
//! * [`normalize`] — running mean/std observation normalization.
//! * [`ckpt`] — crash-safe checkpoint files (atomic, checksummed),
//!   environment snapshots, and the structured [`TrainError`] taxonomy
//!   behind [`Ppo::train_checkpointed`](ppo::Ppo::train_checkpointed)'s
//!   kill-and-resume guarantee.
//!
//! Everything is deterministic given the seed: one `StdRng` drives
//! exploration (one per env slot when the rollout fans out) and minibatch
//! shuffling.

pub mod buffer;
pub mod ckpt;
pub mod env;
pub mod eval;
pub mod normalize;
pub mod policy;
pub mod ppo;

pub use buffer::{gae, RolloutBuffer, Transition};
pub use ckpt::{
    load_train_checkpoint, save_train_checkpoint, Checkpointer, DivergenceReport, SlotState,
    Snapshot, TrainCheckpoint, TrainError, TrainState,
};
pub use env::{Action, ActionSpace, Env, Step};
pub use eval::{rollout_episode, EpisodeStats};
pub use normalize::RunningMeanStd;
pub use policy::{CategoricalPolicy, GaussianPolicy, PolicyHead, ValueNet};
pub use ppo::{save_reports_csv, PolicyKind, Ppo, PpoConfig, TrainReport};
