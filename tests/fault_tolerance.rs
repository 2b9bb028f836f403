//! End-to-end crash safety of the adversary training stack.
//!
//! `crates/rl/tests/checkpoint_resume.rs` proves the kill/resume contract
//! on a toy environment; these tests close the loop on the real adversary
//! environments, whose `Snapshot` implementations replay recorded actions
//! through the actual simulators:
//!
//! * killing `try_train_abr_adversary` mid-run — via the
//!   `ADVNET_FAULT_PLAN` grammar (`panic@ppo.iter:<n>`) — and re-invoking
//!   it resumes from the checkpoint and finishes bit-identical to an
//!   uninterrupted run, including with vectorized (`n_envs > 1`)
//!   collection, and from a checkpoint whose config carries keys
//!   `PpoConfig` no longer declares (older versions wrote
//!   `batched_updates` and `watchdog_timeout_ms`);
//! * a truncated checkpoint file surfaces as `TrainError::Corrupt`
//!   through the adversary entry point instead of silently restarting;
//! * vectorized CC adversary training (per-worker decorrelated simulator
//!   seeds) is reproducible run to run;
//! * the simulator's own fault points (`netsim.enqueue`: corrupt = forced
//!   bottleneck drop; `netsim.event`: panic = crash mid-event-loop) reach
//!   the packet level and leave no state behind after `fault::clear`.

use abr::{BufferBased, Video};
use adversary::{
    try_train_abr_adversary, try_train_cc_adversary, AbrAdversaryConfig, AbrAdversaryEnv,
    AdversaryTrainConfig, CcAdversaryConfig, CcAdversaryEnv,
};
use cc::Bbr;
use rl::ckpt::{read_checkpoint_file, write_checkpoint_file};
use rl::{Ppo, PpoConfig, TrainError, TrainReport};
use std::path::PathBuf;

/// The fault plan (`ADVNET_FAULT_PLAN`) is process-global and every
/// checkpointed training run reads it (via `Checkpointer::new`), so tests
/// that set the variable or start checkpointed runs serialize on this
/// lock.
static FAULT_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("advnet-fault-tolerance-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn abr_env() -> AbrAdversaryEnv<BufferBased> {
    AbrAdversaryEnv::new(
        BufferBased::pensieve_defaults(),
        Video::cbr(),
        AbrAdversaryConfig::default(),
    )
}

/// Three small 96-step iterations, vectorized over two env clones so the
/// slot snapshot/restore path of the real ABR adversary env is exercised.
fn abr_cfg(path: Option<PathBuf>) -> AdversaryTrainConfig {
    AdversaryTrainConfig {
        total_steps: 3 * 96,
        ppo: rl::PpoConfig {
            n_steps: 96,
            minibatch_size: 48,
            epochs: 2,
            seed: 11,
            n_envs: 2,
            ..rl::PpoConfig::default()
        },
        init_std: 0.6,
        checkpoint_path: path,
        checkpoint_every: 1,
    }
}

/// Bit-exact signature of a finished run: full trainer state (weights,
/// Adam moments, RNG streams, normalizers) as JSON plus the deterministic
/// report fields, floats as bits.
fn run_sig(ppo: &Ppo, reports: &[TrainReport]) -> (String, Vec<(usize, u64, u64, u64)>) {
    (
        serde_json::to_string(&ppo.to_train_state()).unwrap(),
        reports
            .iter()
            .map(|r| {
                (
                    r.total_steps,
                    r.mean_step_reward.to_bits(),
                    r.policy_loss.to_bits(),
                    r.value_loss.to_bits(),
                )
            })
            .collect(),
    )
}

/// A serialized `PpoConfig` (or anything embedding one) with one extra,
/// undeclared key, placed right before its last field.
fn with_retired_key(json: &str) -> String {
    let key = "\"guard_lr_backoff\":";
    assert_eq!(json.matches(key).count(), 1, "expected exactly one serialized PpoConfig");
    json.replacen(key, &format!("\"retired_setting\":2,{key}"), 1)
}

/// A serialized default-backoff `PpoConfig` (or anything embedding one) in
/// the format written while `PpoConfig` still declared `batched_updates`
/// and `watchdog_timeout_ms`: both keys at their defaults, after the last
/// field.
fn in_older_format(json: &str) -> String {
    let last = "\"guard_lr_backoff\":0.5}";
    assert_eq!(json.matches(last).count(), 1, "expected exactly one serialized PpoConfig");
    json.replacen(
        last,
        "\"guard_lr_backoff\":0.5,\"batched_updates\":true,\"watchdog_timeout_ms\":0}",
        1,
    )
}

/// Kill training at iteration 2 of 3 with `panic@ppo.iter:2`, then resume
/// with the plan unset and check the finished run against the
/// uninterrupted reference. `edit`, when given, rewrites the surviving
/// checkpoint's body before the resume.
fn kill_and_resume_with(tag: &str, edit: Option<fn(&str) -> String>) {
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Reference: uninterrupted run (checkpointed, so the code path is the
    // same one the crashed run takes).
    let ref_path = ckpt_path(&format!("abr-ref-{tag}.ckpt"));
    std::fs::remove_file(&ref_path).ok();
    let mut env = abr_env();
    let (ref_ppo, ref_reports) =
        try_train_abr_adversary(&mut env, &abr_cfg(Some(ref_path.clone()))).unwrap();
    let reference = run_sig(&ref_ppo, &ref_reports);
    std::fs::remove_file(&ref_path).ok();

    // Crash at iteration 2 of 3 via the documented fault-injection hook.
    let path = ckpt_path(&format!("abr-kill-{tag}.ckpt"));
    std::fs::remove_file(&path).ok();
    std::env::set_var("ADVNET_FAULT_PLAN", "panic@ppo.iter:2");
    let crash_path = path.clone();
    let crashed = std::panic::catch_unwind(move || {
        let mut env = abr_env();
        let _ = try_train_abr_adversary(&mut env, &abr_cfg(Some(crash_path)));
    });
    std::env::remove_var("ADVNET_FAULT_PLAN");
    assert!(crashed.is_err(), "the injected fault should have crashed training");
    assert!(path.exists(), "the pre-crash checkpoint should have survived");
    if let Some(edit) = edit {
        let body = read_checkpoint_file(&path).unwrap();
        write_checkpoint_file(&path, &edit(&body)).unwrap();
        let ckpt = rl::load_train_checkpoint(&path).unwrap();
        assert_eq!((ckpt.state.iteration, ckpt.reports.len()), (1, 1), "resumes mid-run");
    }

    // Resume: fresh env, fresh trainer, same config — must finish
    // bit-identical to the uninterrupted reference.
    let mut env = abr_env();
    let (ppo, reports) = try_train_abr_adversary(&mut env, &abr_cfg(Some(path.clone()))).unwrap();
    assert_eq!(run_sig(&ppo, &reports), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn abr_adversary_kill_and_resume_via_fault_plan() {
    kill_and_resume_with("plan", None);
}

#[test]
fn abr_adversary_resumes_from_a_checkpoint_with_a_retired_config_key() {
    kill_and_resume_with("retired", Some(in_older_format));
}

#[test]
fn ppo_config_ignores_keys_it_no_longer_declares() {
    let cfg = PpoConfig { n_envs: 2, seed: 9, ..PpoConfig::default() };
    let json = serde_json::to_string(&cfg).unwrap();
    assert!(!json.contains("retired_setting"));
    let back: PpoConfig = serde_json::from_str(&with_retired_key(&json)).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn truncated_adversary_checkpoint_is_rejected() {
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = ckpt_path("abr-truncated.ckpt");
    std::fs::remove_file(&path).ok();
    let mut env = abr_env();
    try_train_abr_adversary(&mut env, &abr_cfg(Some(path.clone()))).unwrap();

    // Simulate the torn write the atomic tmp+rename protocol prevents.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();

    let mut env = abr_env();
    match try_train_abr_adversary(&mut env, &abr_cfg(Some(path.clone()))) {
        Err(TrainError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("expected TrainError::Corrupt, got {:?}", other.map(|_| ())),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn nan_poisoned_gradients_trip_the_guard() {
    // DESIGN.md §10, row `nn.grads`: poisoning a minibatch's gradients
    // with NaN must be absorbed by the divergence guard (skip + rollback),
    // leaving the finished adversary finite.
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(fault::FaultPlan::parse("nan@nn.grads:1").unwrap());
    let mut env = abr_env();
    let result = try_train_abr_adversary(&mut env, &abr_cfg(None));
    fault::clear();
    let (ppo, reports) = result.expect("one poisoned minibatch is within the guard budget");
    assert!(reports[0].policy_loss.is_nan(), "poisoned iteration's update must be skipped");
    assert_eq!(reports[0].guard_trips, 1);
    assert_eq!(reports.last().unwrap().guard_trips, 1, "no further trips");
    assert!(reports.last().unwrap().policy_loss.is_finite());
    let probe = vec![0.0; rl::Env::obs_dim(&env)];
    assert!(ppo.policy.mode(&probe).vector().iter().all(|v| v.is_finite()));
}

/// Bit-exact signature of a short single-flow run (floats as bits).
fn netsim_run_sig(plan: Option<&str>) -> Vec<u64> {
    if let Some(p) = plan {
        fault::install(fault::FaultPlan::parse(p).unwrap());
    }
    let mut sim = netsim::FlowSim::new(
        Box::new(Bbr::new()),
        netsim::LinkParams::new(12.0, 20.0, 0.0),
        netsim::SimConfig::default(),
    );
    let mut out = Vec::new();
    for _ in 0..20 {
        let s = sim.run_for(100 * netsim::MS);
        out.push(s.delivered_bytes);
        out.push(s.packets_sent);
        out.push(s.packets_lost_overflow);
        out.push(s.utilization.to_bits());
    }
    fault::clear();
    out
}

#[test]
fn netsim_enqueue_corruption_forces_a_counted_drop() {
    // DESIGN.md §10, row `netsim.enqueue`: `corrupt` force-drops one
    // admission at the bottleneck, surfacing as a counted overflow loss in
    // the interval stats — on an otherwise clean link where no genuine
    // overflow occurs.
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let clean = netsim_run_sig(None);
    let clean_drops: u64 = clean.chunks(4).map(|c| c[2]).sum();
    assert_eq!(clean_drops, 0, "clean link must not overflow");

    let faulted = netsim_run_sig(Some("corrupt@netsim.enqueue:40"));
    let faulted_drops: u64 = faulted.chunks(4).map(|c| c[2]).sum();
    assert_eq!(faulted_drops, 1, "exactly the one injected drop");
    assert_ne!(clean, faulted, "the dropped packet must perturb the trajectory");
}

#[test]
fn netsim_event_panic_crashes_the_run_and_leaves_no_residue() {
    // DESIGN.md §10, row `netsim.event`: `panic` kills the simulation at
    // the nth event pop (a crash mid-event-loop). A fresh run after
    // `fault::clear` must match a never-faulted run bit for bit.
    let _guard = FAULT_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = netsim_run_sig(None);

    fault::install(fault::FaultPlan::parse("panic@netsim.event:100").unwrap());
    let crashed = std::panic::catch_unwind(|| {
        let mut sim = netsim::FlowSim::new(
            Box::new(Bbr::new()),
            netsim::LinkParams::new(12.0, 20.0, 0.0),
            netsim::SimConfig::default(),
        );
        sim.run_for(2 * netsim::SEC);
    });
    fault::clear();
    assert!(crashed.is_err(), "the injected event-loop fault should have crashed the run");

    assert_eq!(netsim_run_sig(None), reference, "no fault state may leak into later runs");
}

#[test]
fn cc_adversary_vectorized_training_is_reproducible() {
    // Two env clones collect in parallel with decorrelated simulator
    // seeds (`Env::decorrelate` + `exec::split_seed`); the merged run must
    // still be bit-reproducible across invocations.
    let cfg = AdversaryTrainConfig {
        total_steps: 100,
        ppo: rl::PpoConfig {
            n_steps: 50,
            minibatch_size: 25,
            epochs: 2,
            seed: 7,
            n_envs: 2,
            ..rl::PpoConfig::default()
        },
        init_std: 0.8,
        checkpoint_path: None,
        checkpoint_every: 1,
    };
    let cc_cfg =
        CcAdversaryConfig { episode_steps: 25, action_repeat: 2, ..CcAdversaryConfig::default() };
    let run = || {
        let mut env = CcAdversaryEnv::new(Box::new(|| Box::new(Bbr::new())), cc_cfg.clone());
        let (ppo, reports) = try_train_cc_adversary(&mut env, &cfg).unwrap();
        run_sig(&ppo, &reports)
    };
    assert_eq!(run(), run());
}
