//! The §2.3 pipeline: making an RL protocol more robust with adversarial
//! traces.
//!
//! "(1) train the protocol of interest, (2) train an adversary against it,
//! (3) use the trained adversary to generate traces, and (4) continue the
//! protocol's training with the new adversarial traces in its training
//! dataset." The traces are injected late (at 90 % or 70 % of training) "to
//! avoid over-fitting to adversarial examples".

use crate::abr_env::{AbrAdversaryConfig, AbrAdversaryEnv};
use crate::trace_gen::{abr_traces_to_corpus, try_generate_abr_traces_with};
use crate::train::{train_leg, try_train_abr_adversary, AdversaryTrainConfig};
use abr::env::AbrTrainEnv;
use abr::protocols::pensieve::PENSIEVE_OBS_DIM;
use abr::{Pensieve, QoeParams, Video};
use rl::{Checkpointer, Ppo, PpoConfig, TrainError};
use std::path::PathBuf;
use traces::Trace;

/// Configuration of the adversarial-training experiment (Fig. 4).
#[derive(Debug, Clone)]
pub struct RobustifyConfig {
    /// Total Pensieve training steps.
    pub total_steps: usize,
    /// Fraction of training completed before adversarial traces are
    /// injected (the paper evaluates 0.9 and 0.7).
    pub inject_at: f64,
    /// How many adversarial traces to generate and add.
    pub n_adv_traces: usize,
    /// Adversary training budget.
    pub adversary: AdversaryTrainConfig,
    /// Pensieve PPO settings.
    pub pensieve_ppo: PpoConfig,
    /// Adversary environment settings (QoE, latency, reward window).
    pub adv_env: AbrAdversaryConfig,
    pub seed: u64,
    /// When set, every training leg of the pipeline (baseline, partial
    /// protocol, adversary, resumed protocol) writes crash-safe
    /// checkpoints into this directory and auto-resumes from them on a
    /// rerun. Delete the directory to start the experiment over.
    pub checkpoint_dir: Option<PathBuf>,
    /// Iterations between checkpoint writes for every leg.
    pub checkpoint_every: usize,
}

impl RobustifyConfig {
    /// Checkpointer for one named training leg, if checkpointing is on.
    fn checkpointer(&self, name: &str) -> Option<Checkpointer> {
        self.checkpoint_dir.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            Checkpointer::new(dir.join(format!("{name}.ckpt")), self.checkpoint_every)
        })
    }
}

impl Default for RobustifyConfig {
    fn default() -> Self {
        RobustifyConfig {
            total_steps: 60_000,
            inject_at: 0.9,
            n_adv_traces: 32,
            adversary: AdversaryTrainConfig::default(),
            pensieve_ppo: PpoConfig {
                n_steps: 1920,
                minibatch_size: 96,
                epochs: 5,
                lr: 3e-4,
                ent_coef: 0.01,
                ..PpoConfig::default()
            },
            adv_env: AbrAdversaryConfig::default(),
            seed: 0,
            checkpoint_dir: None,
            checkpoint_every: 5,
        }
    }
}

/// What the pipeline produced.
pub struct RobustifyOutcome {
    /// Pensieve trained without adversarial traces (the baseline).
    pub baseline: Pensieve,
    /// Pensieve whose training was resumed with adversarial traces.
    pub robust: Pensieve,
    /// The adversarial traces that were injected (in corpus form).
    pub adv_traces: Vec<Trace>,
}

fn new_pensieve_trainer(cfg: &RobustifyConfig) -> Ppo {
    let ppo_cfg = PpoConfig { seed: cfg.seed, ..cfg.pensieve_ppo.clone() };
    Ppo::new_categorical(PENSIEVE_OBS_DIM, 6, &[64, 32], ppo_cfg)
}

/// Run the full §2.3 pipeline on `corpus`, returning the baseline and the
/// adversarially robustified Pensieve.
///
/// Both models consume the same total training budget; the robust model's
/// final `(1 − inject_at)` fraction runs on the corpus *plus* the
/// adversarial traces.
pub fn robustify_pensieve(
    corpus: Vec<Trace>,
    video: Video,
    qoe: QoeParams,
    cfg: &RobustifyConfig,
) -> RobustifyOutcome {
    try_robustify_pensieve(corpus, video, qoe, cfg)
        .unwrap_or_else(|e| panic!("robustify pipeline failed: {e}"))
}

/// Fallible [`robustify_pensieve`]: divergence, worker, and checkpoint
/// failures surface as [`TrainError`]. With `cfg.checkpoint_dir` set, a
/// crashed run picks up from its last checkpoints when re-invoked with
/// the same inputs.
pub fn try_robustify_pensieve(
    corpus: Vec<Trace>,
    video: Video,
    qoe: QoeParams,
    cfg: &RobustifyConfig,
) -> Result<RobustifyOutcome, TrainError> {
    assert!((0.0..1.0).contains(&cfg.inject_at), "inject_at must be in [0,1)");
    // baseline: the full budget on the clean corpus
    let mut baseline_env = AbrTrainEnv::new(corpus.clone(), video.clone(), qoe.clone());
    let mut baseline_ppo = new_pensieve_trainer(cfg);
    train_leg(
        &mut baseline_ppo,
        &mut baseline_env,
        cfg.total_steps,
        cfg.checkpointer("pensieve-baseline"),
    )?;
    let baseline = Pensieve::new(baseline_ppo.policy.clone(), baseline_ppo.obs_norm.clone());

    // stages 1-4 (§2.3)
    let (robust, adv_traces) = try_run_robust_branch(corpus, video, qoe, cfg)?;
    Ok(RobustifyOutcome { baseline, robust, adv_traces })
}

/// Run the pipeline once per injection point, training the (identical)
/// baseline only once. Returns the baseline and, per injection fraction,
/// the robustified model with its injected traces.
///
/// The per-injection-point branches are independent end-to-end training
/// runs, so they execute in parallel via [`exec::par_map`]; results come
/// back in `inject_points` order regardless of scheduling.
pub fn robustify_variants(
    corpus: Vec<Trace>,
    video: Video,
    qoe: QoeParams,
    cfg: &RobustifyConfig,
    inject_points: &[f64],
) -> (Pensieve, Vec<(f64, Pensieve, Vec<Trace>)>) {
    try_robustify_variants(corpus, video, qoe, cfg, inject_points)
        .unwrap_or_else(|e| panic!("robustify variants failed: {e}"))
}

/// Fallible [`robustify_variants`]: a panicking branch is reported as a
/// structured error (lowest branch index wins) instead of tearing down
/// the process, and divergence/checkpoint failures propagate.
#[allow(clippy::type_complexity)]
pub fn try_robustify_variants(
    corpus: Vec<Trace>,
    video: Video,
    qoe: QoeParams,
    cfg: &RobustifyConfig,
    inject_points: &[f64],
) -> Result<(Pensieve, Vec<(f64, Pensieve, Vec<Trace>)>), TrainError> {
    let mut baseline_env = AbrTrainEnv::new(corpus.clone(), video.clone(), qoe.clone());
    let mut baseline_ppo = new_pensieve_trainer(cfg);
    train_leg(
        &mut baseline_ppo,
        &mut baseline_env,
        cfg.total_steps,
        cfg.checkpointer("pensieve-baseline"),
    )?;
    let baseline = Pensieve::new(baseline_ppo.policy.clone(), baseline_ppo.obs_norm.clone());

    let variants = exec::try_par_map(
        inject_points.to_vec(),
        exec::default_workers(),
        // fail fast: each branch is a full training run, and a panic
        // there is deterministic, so retrying would just repeat it
        &fault::Backoff::none(0),
        |_, inject_at| {
            let cfg = RobustifyConfig { inject_at, ..cfg.clone() };
            try_run_robust_branch(corpus.clone(), video.clone(), qoe.clone(), &cfg)
                .map(|out| (inject_at, out.0, out.1))
        },
    )?
    .into_iter()
    .collect::<Result<Vec<_>, TrainError>>()?;
    Ok((baseline, variants))
}

/// Stages 1–4 of the pipeline (everything except the baseline).
///
/// Each leg gets its own checkpoint file keyed by the injection fraction,
/// so [`robustify_variants`] branches never collide.
fn try_run_robust_branch(
    corpus: Vec<Trace>,
    video: Video,
    qoe: QoeParams,
    cfg: &RobustifyConfig,
) -> Result<(Pensieve, Vec<Trace>), TrainError> {
    let phase1 = (cfg.total_steps as f64 * cfg.inject_at) as usize;
    let pct = (cfg.inject_at * 100.0).round() as u32;
    let mut env = AbrTrainEnv::new(corpus.clone(), video.clone(), qoe.clone());
    let mut ppo = new_pensieve_trainer(cfg);
    train_leg(&mut ppo, &mut env, phase1, cfg.checkpointer(&format!("pensieve-phase1-{pct}")))?;

    let partial = Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone());
    let mut adv_env = AbrAdversaryEnv::new(partial, video.clone(), cfg.adv_env.clone());
    let mut adv_cfg = cfg.adversary.clone();
    if let Some(ck) = cfg.checkpointer(&format!("adversary-{pct}")) {
        adv_cfg.checkpoint_path = Some(ck.path);
        adv_cfg.checkpoint_every = cfg.checkpoint_every;
    }
    let (adversary, _) = try_train_abr_adversary(&mut adv_env, &adv_cfg)?;

    let raw_traces = try_generate_abr_traces_with(
        &mut adv_env,
        &adversary.policy,
        adversary.obs_norm.as_ref(),
        cfg.n_adv_traces,
        false,
        cfg.seed ^ 0xad,
    )?;
    let adv_traces =
        abr_traces_to_corpus(&raw_traces, &video, cfg.adv_env.latency_ms, "adversarial");

    let mut augmented = corpus;
    augmented.extend(adv_traces.iter().cloned());
    env.set_corpus(augmented);
    train_leg(
        &mut ppo,
        &mut env,
        cfg.total_steps - phase1,
        cfg.checkpointer(&format!("pensieve-phase2-{pct}")),
    )?;
    Ok((Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone()), adv_traces))
}

/// Evaluate a Pensieve model's per-video mean QoE over a test corpus.
///
/// Traces replay independently, so the corpus is fanned out over
/// [`exec::par_map`] (each worker replays on its own model clone); the
/// QoE vector is in corpus order, identical to a serial replay.
pub fn eval_pensieve(
    model: &Pensieve,
    test_corpus: &[Trace],
    video: &Video,
    qoe: &QoeParams,
) -> Vec<f64> {
    use abr::{mean_qoe, run_session, TraceNetwork};
    exec::par_map(test_corpus.to_vec(), exec::default_workers(), |_, t| {
        let mut model = model.clone();
        let mut net = TraceNetwork::new(t);
        mean_qoe(&run_session(video, &mut model, &mut net, qoe))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::GenConfig;

    /// End-to-end smoke test of the pipeline at miniature scale: it must
    /// run, produce the requested number of traces, and both models must
    /// stream competently.
    #[test]
    fn pipeline_produces_models_and_traces() {
        let gen_cfg = GenConfig::default();
        let corpus: Vec<Trace> = (0..6).map(|i| traces::fcc_like(i, &gen_cfg)).collect();
        let cfg = RobustifyConfig {
            total_steps: 6_000,
            inject_at: 0.7,
            n_adv_traces: 4,
            adversary: AdversaryTrainConfig {
                total_steps: 2_000,
                ppo: PpoConfig {
                    n_steps: 480,
                    minibatch_size: 96,
                    epochs: 3,
                    ..PpoConfig::default()
                },
                ..AdversaryTrainConfig::default()
            },
            pensieve_ppo: PpoConfig {
                n_steps: 480,
                minibatch_size: 96,
                epochs: 3,
                ..PpoConfig::default()
            },
            ..RobustifyConfig::default()
        };
        let video = Video::cbr();
        let out = robustify_pensieve(corpus.clone(), video.clone(), QoeParams::default(), &cfg);
        assert_eq!(out.adv_traces.len(), 4);
        let qoe = QoeParams::default();
        let base = eval_pensieve(&out.baseline, &corpus, &video, &qoe);
        let robust = eval_pensieve(&out.robust, &corpus, &video, &qoe);
        assert_eq!(base.len(), 6);
        assert_eq!(robust.len(), 6);
        // tiny budgets can't guarantee improvement; sanity only: both
        // models must at least stream without cratering
        assert!(nn::ops::mean(&base) > -2.0, "baseline {base:?}");
        assert!(nn::ops::mean(&robust) > -2.0, "robust {robust:?}");
    }
}
