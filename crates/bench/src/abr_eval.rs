//! The shared ABR adversarial evaluation behind Figs. 1 and 2.
//!
//! Pipeline (paper §3.1):
//! 1. train Pensieve (the paper uses the authors' pre-trained model; we
//!    train one with our PPO on random traces spanning the adversary's
//!    action space),
//! 2. train one adversary against MPC and one against Pensieve,
//! 3. produce `n` traces from each adversary plus `n` random traces,
//! 4. replay Pensieve, MPC and BB on all three trace sets.
//!
//! The run is split into [`crate::pipeline`] units — Pensieve training,
//! each adversary's train+generate stage, and one replay unit per (trace
//! set × protocol) — so a killed run resumes from the keyed, checksummed
//! per-unit cache under `results/cache/` instead of starting over, and
//! two figures executed back to back share every unit. Each run records
//! the evaluation as `results/abr_eval_<scale>.json`, an output that is
//! never read back: a figure always shows what the current code computes.

use crate::pipeline::{Pipeline, UnitKey};
use crate::{results_dir, Scale};
use abr::{AbrPolicy, BufferBased, Mpc, Pensieve, QoeParams, Video};
use adversary::{
    generate_abr_traces_with, random_abr_traces, replay_abr_trace, try_train_abr_adversary,
    AbrAdversaryConfig, AbrAdversaryEnv, AbrTrace, AdversaryTrainConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Evaluation of one trace set: per-protocol per-trace mean QoE.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSetEval {
    /// "mpc_targeted", "pensieve_targeted", or "random".
    pub name: String,
    /// The traces themselves (bandwidth per chunk).
    pub traces: Vec<AbrTrace>,
    /// protocol name → per-trace mean QoE (same order as `traces`).
    pub qoe: BTreeMap<String, Vec<f64>>,
}

/// Everything Figs. 1 and 2 need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AbrEvalData {
    pub scale: String,
    pub sets: Vec<TraceSetEval>,
}

impl AbrEvalData {
    pub fn set(&self, name: &str) -> &TraceSetEval {
        self.sets.iter().find(|s| s.name == name).unwrap_or_else(|| {
            panic!(
                "no trace set named {name:?} (have: {:?})",
                self.sets.iter().map(|s| &s.name).collect::<Vec<_>>()
            )
        })
    }
}

/// Train the protocols + adversaries and evaluate all trace sets, as a
/// crash-resumable pipeline, then record the result as
/// `results/abr_eval_<scale>.json` (see the module docs).
pub fn run(scale: Scale) -> AbrEvalData {
    let mut pipe = Pipeline::new("abr_eval", scale);
    let data = run_units(scale, &mut pipe);
    pipe.finish();
    let path = results_dir().join(format!("abr_eval_{}.json", scale.tag()));
    let json = serde_json::to_string(&data).expect("evaluation serializes");
    match rl::ckpt::write_atomic(&path, &[json.as_bytes()]) {
        Ok(()) => eprintln!("[abr_eval] recorded {}", path.display()),
        Err(e) => eprintln!("[abr_eval] warning: cannot record {}: {e}", path.display()),
    }
    data
}

/// The unit breakdown of [`run`], on a caller-provided pipeline (so
/// tests can aim the cache at a scratch directory).
pub fn run_units(scale: Scale, pipe: &mut Pipeline) -> AbrEvalData {
    let video = Video::cbr();
    let qoe = QoeParams::default();
    let adv_cfg = AbrAdversaryConfig::default();
    let n = scale.n_traces();

    // ---- 1. a competent Pensieve over the adversary's bandwidth regime.
    // The corpus is mostly random traces spanning the adversary's action
    // space, plus a handful of sustained-low-bandwidth and regime-switching
    // traces so the policy has no catastrophic out-of-distribution holes
    // for the adversary to drive it into. Built inside the unit closure:
    // units must be restartable from their key alone.
    let ppo_cfg = rl::PpoConfig {
        n_steps: 1920,
        minibatch_size: 96,
        epochs: 5,
        lr: 3e-4,
        ent_coef: 0.01,
        seed: 41,
        ..rl::PpoConfig::default()
    };
    let pen_key =
        UnitKey::of(&("pensieve-corpus-v1", scale.pensieve_steps()), "pensieve_train", &ppo_cfg);
    let pensieve: Pensieve = Pipeline::require(
        pipe.unit("train pensieve", &pen_key, || {
            eprintln!("[abr_eval] training pensieve ({} steps)...", scale.pensieve_steps());
            let mut corpus: Vec<traces::Trace> = (0..80)
                .map(|i| traces::random_abr_trace(1000 + i, 80, 4.0, adv_cfg.latency_ms))
                .collect();
            for i in 0..10u64 {
                let bw = 0.8 + 0.15 * i as f64;
                corpus.push(traces::Trace::new(
                    format!("const-low-{i}"),
                    vec![traces::Segment::bw(320.0, bw, adv_cfg.latency_ms)],
                ));
            }
            let gen_cfg =
                traces::GenConfig { latency_ms: adv_cfg.latency_ms, ..Default::default() };
            for i in 0..10u64 {
                corpus.push(traces::hsdpa_like(3000 + i, &gen_cfg));
            }
            let (pensieve, _, _) = abr::env::train_pensieve(
                corpus,
                video.clone(),
                qoe.clone(),
                scale.pensieve_steps(),
                ppo_cfg.clone(),
            );
            pensieve
        }),
        "pensieve training",
    );

    // ---- 2+3. adversaries: train + generate traces, one unit each. The
    // inner checkpoint file still makes a *mid-training* kill resumable
    // (the restarted unit auto-resumes from it bit-identically); it is
    // removed once the unit's cached value takes over.
    let steps = scale.adversary_steps();
    let train_cfg = |tag: &str| AdversaryTrainConfig {
        total_steps: steps,
        checkpoint_path: Some(results_dir().join(format!("abr_adv_{tag}_{}.ckpt", scale.tag()))),
        checkpoint_every: 5,
        ..AdversaryTrainConfig::default()
    };
    let base = AdversaryTrainConfig::default();
    let train_sig = (steps, base.ppo.clone(), base.init_std);

    let mpc_key = UnitKey::of(&(n as u64, 7001u64), "mpc_adversary", &train_sig);
    let mpc_traces: Vec<AbrTrace> = Pipeline::require(
        pipe.unit("train MPC adversary + generate traces", &mpc_key, || {
            eprintln!("[abr_eval] training adversary vs MPC ({steps} steps)...");
            let mut env = AbrAdversaryEnv::new(Mpc::default(), video.clone(), adv_cfg.clone());
            let cfg = train_cfg("mpc");
            let (adv, _) = try_train_abr_adversary(&mut env, &cfg)
                .unwrap_or_else(|e| panic!("[abr_eval] MPC adversary training failed: {e}"));
            if let Some(p) = cfg.checkpoint_path {
                std::fs::remove_file(p).ok();
            }
            generate_abr_traces_with(&mut env, &adv.policy, adv.obs_norm.as_ref(), n, false, 7001)
        }),
        "MPC adversary unit",
    );

    // the Pensieve-targeted traces depend on *which* Pensieve was trained
    let pen_sig = (steps, base.ppo.clone(), base.init_std, UnitKey::hash_of(&pensieve));
    let pen_adv_key = UnitKey::of(&(n as u64, 7002u64), "pensieve_adversary", &pen_sig);
    let pen_traces: Vec<AbrTrace> = Pipeline::require(
        pipe.unit("train Pensieve adversary + generate traces", &pen_adv_key, || {
            eprintln!("[abr_eval] training adversary vs Pensieve ({steps} steps)...");
            let mut env = AbrAdversaryEnv::new(pensieve.clone(), video.clone(), adv_cfg.clone());
            let cfg = train_cfg("pensieve");
            let (adv, _) = try_train_abr_adversary(&mut env, &cfg)
                .unwrap_or_else(|e| panic!("[abr_eval] Pensieve adversary training failed: {e}"));
            if let Some(p) = cfg.checkpoint_path {
                std::fs::remove_file(p).ok();
            }
            generate_abr_traces_with(&mut env, &adv.policy, adv.obs_norm.as_ref(), n, false, 7002)
        }),
        "Pensieve adversary unit",
    );

    let random_traces = random_abr_traces(n, video.n_chunks(), 7003);

    // ---- 4. cross-evaluation: one unit per (trace set × protocol),
    // keyed by trace-set hash × protocol × config — the workspace-wide
    // evaluation cache key, so any binary replaying the same set under
    // the same config shares the entry.
    let pensieve_hash = UnitKey::hash_of(&pensieve);
    let sets = [
        ("mpc_targeted", mpc_traces),
        ("pensieve_targeted", pen_traces),
        ("random", random_traces),
    ]
    .into_iter()
    .map(|(name, ts)| {
        let mut qoe = BTreeMap::new();
        for pname in ["pensieve", "mpc", "bb"] {
            let key = UnitKey::of(&ts, pname, &("replay-v1", pensieve_hash, adv_cfg.latency_ms));
            let values: Vec<f64> = Pipeline::require(
                pipe.unit(&format!("replay {pname} on {name}"), &key, || {
                    replay_protocol(&ts, pname, &pensieve, &video, &adv_cfg)
                }),
                "replay unit",
            );
            qoe.insert(pname.to_string(), values);
        }
        TraceSetEval { name: name.to_string(), traces: ts, qoe }
    })
    .collect();

    AbrEvalData { scale: scale.tag().to_string(), sets }
}

/// Replay one protocol on every trace of a set (fresh protocol instance
/// per replay, fanned out over [`exec::par_map`]; QoE stays in trace
/// order).
fn replay_protocol(
    traces_in: &[AbrTrace],
    pname: &str,
    pensieve: &Pensieve,
    video: &Video,
    cfg: &AbrAdversaryConfig,
) -> Vec<f64> {
    exec::par_map(traces_in.to_vec(), exec::default_workers(), |_, t| {
        let mut proto: Box<dyn AbrPolicy> = match pname {
            "pensieve" => Box::new(pensieve.clone()),
            "mpc" => Box::new(Mpc::default()),
            _ => Box::new(BufferBased::pensieve_defaults()),
        };
        replay_abr_trace(&t, proto.as_mut(), video, cfg)
    })
}

/// Replay every protocol on every trace of a set.
///
/// Replays are independent (`run_session` resets the protocol per trace),
/// so each protocol's traces fan out over [`exec::par_map`] with a fresh
/// protocol instance per replay; QoE vectors stay in trace order.
pub fn evaluate_set(
    name: &str,
    traces_in: Vec<AbrTrace>,
    pensieve: &Pensieve,
    video: &Video,
    cfg: &AbrAdversaryConfig,
) -> TraceSetEval {
    let mut qoe = BTreeMap::new();
    for pname in ["pensieve", "mpc", "bb"] {
        qoe.insert(pname.to_string(), replay_protocol(&traces_in, pname, pensieve, video, cfg));
    }
    TraceSetEval { name: name.to_string(), traces: traces_in, qoe }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_set_shapes() {
        let video = Video::cbr();
        let cfg = AbrAdversaryConfig::default();
        // an untrained pensieve is fine for shape checks
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let policy = rl::PolicyKind::Categorical(rl::CategoricalPolicy::new(
            &[abr::protocols::pensieve::PENSIEVE_OBS_DIM, 8, 6],
            &mut rng,
        ));
        let pensieve = Pensieve::new(policy, None);
        let ts = random_abr_traces(4, 48, 3);
        let eval = evaluate_set("random", ts, &pensieve, &video, &cfg);
        assert_eq!(eval.qoe.len(), 3);
        for v in eval.qoe.values() {
            assert_eq!(v.len(), 4);
            assert!(v.iter().all(|q| q.is_finite()));
        }
    }
}
