//! The shared CC adversary behind Figs. 5 and 6: trained once against BBR
//! as a checksummed, keyed pipeline unit under `results/cache/`, so both
//! figures — and a run killed mid-training — share one adversary. Each
//! run also records it as `results/cc_adversary_<scale>.json`, an output
//! that is never read back.

use crate::pipeline::{Pipeline, UnitKey};
use crate::saved::SavedPolicy;
use crate::{results_dir, Scale};
use adversary::{try_train_cc_adversary, AdversaryTrainConfig, CcAdversaryConfig, CcAdversaryEnv};
use cc::Bbr;

/// A fresh BBR-vs-adversary environment with the paper's defaults
/// (decisions every 30 ms).
pub fn bbr_env() -> CcAdversaryEnv {
    CcAdversaryEnv::new(Box::new(|| Box::new(Bbr::new())), CcAdversaryConfig::default())
}

/// The training environment: identical except decisions are held for ten
/// 30 ms intervals. BBR's BtlBw max-filter only decays after ~10 poisoned
/// rounds, so per-interval iid exploration noise never experiences the
/// payoff of an attack; holding actions for 300 ms makes the valley
/// crossable (see EXPERIMENTS.md, Fig. 5 notes). Recorded traces still
/// carry one entry per 30 ms interval.
pub fn bbr_train_env() -> CcAdversaryEnv {
    CcAdversaryEnv::new(
        Box::new(|| Box::new(Bbr::new())),
        CcAdversaryConfig {
            episode_steps: 100, // 100 × 300 ms = the paper's 30 s episode
            action_repeat: 10,
            ..CcAdversaryConfig::default()
        },
    )
}

/// Train (or replay from the unit cache) the CC adversary against BBR, as
/// a unit of the caller's pipeline, and record it as
/// `results/cc_adversary_<scale>.json`. Figs. 5 and 6 both call this with
/// the same key, so whichever runs first trains and the other replays
/// the cache.
pub fn cc_adversary_in(pipe: &mut Pipeline, scale: Scale) -> SavedPolicy {
    let path = results_dir().join(format!("cc_adversary_{}.json", scale.tag()));
    // Hyperparameters selected by the sweep recorded in `cc_tune` (see
    // EXPERIMENTS.md): wide initial exploration noise plus 300 ms action
    // persistence is what lets PPO discover the probe attack; the
    // utilization this configuration reaches is recorded under Fig. 5 in
    // EXPERIMENTS.md.
    let ckpt_path = results_dir().join(format!("cc_adversary_{}.ckpt", scale.tag()));
    let cfg = AdversaryTrainConfig {
        total_steps: scale.adversary_steps().clamp(300_000, 600_000),
        ppo: rl::PpoConfig {
            n_steps: 6000,
            minibatch_size: 250,
            epochs: 8,
            lr: 3e-4,
            // the payoff of a successful probe attack is spread over many
            // intervals; a long credit horizon is needed
            gamma: 0.99,
            lambda: 0.97,
            ent_coef: 0.0005,
            seed: 23,
            ..rl::PpoConfig::default()
        },
        init_std: 1.0,
        checkpoint_path: Some(ckpt_path.clone()),
        checkpoint_every: 5,
    };
    let key = UnitKey::of(
        &(cfg.total_steps, 23u64),
        "cc_adversary_bbr",
        &(cfg.ppo.clone(), cfg.init_std),
    );
    let saved = Pipeline::require(
        pipe.unit("train CC adversary vs BBR", &key, || {
            eprintln!(
                "[cc_adv] training CC adversary vs BBR ({} steps)...",
                scale.adversary_steps()
            );
            // This is the longest single training run in the bench suite,
            // so it is doubly crash-safe: a training checkpoint lands next
            // to the cache every 5 iterations and a re-run of this unit
            // resumes from it bit-identically (removed once the caches
            // exist).
            let mut env = bbr_train_env();
            let (ppo, reports) = try_train_cc_adversary(&mut env, &cfg)
                .unwrap_or_else(|e| panic!("[cc_adv] adversary training failed: {e}"));
            eprintln!(
                "[cc_adv] adversary reward: first {:.3} last {:.3}",
                reports.first().map(|r| r.mean_step_reward).unwrap_or(f64::NAN),
                reports.last().map(|r| r.mean_step_reward).unwrap_or(f64::NAN)
            );
            std::fs::remove_file(&ckpt_path).ok();
            SavedPolicy::from_ppo(
                &ppo,
                format!("CC adversary vs BBR, {} steps, seed 23", scale.adversary_steps()),
            )
        }),
        "CC adversary training",
    );
    saved
        .save(&path)
        .unwrap_or_else(|e| panic!("[cc_adv] cannot record adversary to {}: {e}", path.display()));
    saved
}
