//! Fault-injection tests for the fleet robustness layer (DESIGN.md
//! §15): quarantine + fallback on poisoned observations and policy
//! outputs, snapshot-rollback absorption of shard panics and stalls,
//! and structured errors when the retry budget runs out.
//!
//! The fault registry is process-global, so every test that installs a
//! plan serializes on [`FAULT_LOCK`] and clears the plan before
//! leaving.

use abr::protocols::pensieve::PENSIEVE_OBS_DIM;
use abr::BufferBased;
use serve::{run_fleet, try_run_fleet, FleetConfig, FleetPolicy, SupervisorConfig};
use std::sync::Mutex;
use traces::{GenConfig, TraceFamily, TraceStream};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with `plan` installed (empty string = no faults), holding
/// the global fault lock for the duration.
fn with_plan<T>(plan: &str, f: impl FnOnce() -> T) -> T {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if plan.is_empty() {
        fault::clear();
    } else {
        fault::install(fault::FaultPlan::parse(plan).expect("valid fault plan"));
    }
    let out = f();
    fault::clear();
    out
}

fn bb_policy() -> FleetPolicy {
    FleetPolicy::per_session(|_id| Box::new(BufferBased::pensieve_defaults()) as _)
}

fn pensieve_policy() -> FleetPolicy {
    let ppo = rl::Ppo::new_categorical(
        PENSIEVE_OBS_DIM,
        6,
        &[16],
        rl::PpoConfig { seed: 17, ..rl::PpoConfig::default() },
    );
    FleetPolicy::batched(abr::Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone()))
}

fn stream() -> TraceStream {
    TraceStream::new(TraceFamily::BenignMix, 42, GenConfig::default())
}

fn sup_no_watchdog() -> SupervisorConfig {
    SupervisorConfig { watchdog: None, ..SupervisorConfig::default() }
}

/// The accounting identity every run must satisfy.
fn assert_accounting(summary: &serve::FleetSummary) {
    assert_eq!(
        summary.quarantined as usize + summary.completed + summary.shed,
        summary.admitted,
        "quarantined + completed + shed != admitted"
    );
    assert_eq!(summary.sessions, summary.admitted - summary.shed);
    assert!(summary.mean_qoe.is_finite(), "poisoned mean leaked into the summary");
    assert!(summary.p5_qoe.is_finite(), "poisoned p5 leaked into the summary");
    assert_eq!(summary.sketch.count(), summary.completed as u64);
    assert_eq!(summary.sketch.rejected(), 0, "a non-finite QoE reached the sketch");
}

#[test]
fn nan_observation_quarantines_one_session_and_falls_back() {
    let cfg = FleetConfig::new(4, 1);
    let ticks = cfg.video.n_chunks() as u64;
    // the 5th serve.obs check (tick index 4) poisons the first live
    // lane's observation copy with NaN
    let summary = with_plan("nan@serve.obs:5", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup_no_watchdog()).expect("fleet completes")
    });
    assert_accounting(&summary);
    assert_eq!(summary.quarantined, 1);
    assert_eq!(summary.completed, 3);
    assert!(summary.per_session[0].quarantined, "lane 0 took the poisoned observation");
    assert!(!summary.per_session[1].quarantined);
    // the quarantined session still finished every chunk — under the
    // BB fallback from the poisoned tick on
    assert_eq!(summary.per_session[0].chunks as u64, ticks);
    assert_eq!(summary.fallbacks, ticks - 4);
    assert_eq!(summary.decisions, 4 * ticks);
}

#[test]
fn poisoned_policy_output_quarantines_batched_session() {
    let cfg = FleetConfig::new(3, 1);
    let ticks = cfg.video.n_chunks() as u64;
    // the 2nd serve.policy check (tick index 1) replaces the first live
    // batched action with an off-ladder index; without validation the
    // player would panic the whole shard
    let summary = with_plan("corrupt@serve.policy:2", || {
        try_run_fleet(&cfg, &pensieve_policy(), &stream(), &sup_no_watchdog())
            .expect("fleet completes")
    });
    assert_accounting(&summary);
    assert_eq!(summary.quarantined, 1);
    assert_eq!(summary.completed, 2);
    assert!(summary.per_session[0].quarantined);
    // the poisoned tick itself is already served by the fallback
    assert_eq!(summary.fallbacks, ticks - 1);
    assert_eq!(summary.decisions, 3 * ticks);
}

#[test]
fn injected_shard_panic_is_absorbed_bit_identically() {
    let cfg = FleetConfig::new(6, 2);
    let baseline = with_plan("", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup_no_watchdog()).expect("clean run")
    });
    let disturbed = with_plan("panic@serve.shard.1:1", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup_no_watchdog()).expect("absorbed")
    });
    assert_accounting(&disturbed);
    assert_eq!(disturbed.shard_retries, 1, "exactly one window replay");
    assert_eq!(disturbed.quarantined, 0);
    // the replayed window reproduces the undisturbed results bit for bit
    assert_eq!(disturbed.per_session, baseline.per_session);
    assert_eq!(
        serde_json::to_string(&disturbed.sketch).unwrap(),
        serde_json::to_string(&baseline.sketch).unwrap()
    );
}

#[test]
fn stalled_shard_is_cancelled_by_watchdog_and_replayed() {
    let cfg = FleetConfig::new(4, 2);
    let baseline = with_plan("", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup_no_watchdog()).expect("clean run")
    });
    // shard 0 wedges for 30 s without heartbeating on its first window;
    // a 100 ms watchdog cancels it into the rollback path
    let sup = SupervisorConfig {
        watchdog: Some(exec::WatchdogConfig::with_timeout_ms(100)),
        ..SupervisorConfig::default()
    };
    let disturbed = with_plan("stall@serve.shard.0:1,stall_ms=30000", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup).expect("stall recovered")
    });
    assert_accounting(&disturbed);
    assert!(disturbed.shard_retries >= 1, "the cancelled window must count as a retry");
    assert_eq!(disturbed.per_session, baseline.per_session);
    assert_eq!(
        serde_json::to_string(&disturbed.sketch).unwrap(),
        serde_json::to_string(&baseline.sketch).unwrap()
    );
}

#[test]
fn exhausted_retry_budget_surfaces_a_structured_error() {
    let cfg = FleetConfig::new(4, 2);
    let sup = SupervisorConfig { backoff: fault::Backoff::none(1), ..sup_no_watchdog() };
    // shard 0 panics on its first attempt and again on the retry:
    // budget (1 retry) exhausted
    let err = with_plan("panic@serve.shard.0:1,panic@serve.shard.0:2", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup).expect_err("budget must run out")
    });
    assert_eq!(err.shard, 0);
    let msg = err.to_string();
    assert!(msg.contains("shard 0"), "unhelpful error: {msg}");
}

#[test]
fn shedding_composes_with_quarantine_in_the_accounting() {
    let mut cfg = FleetConfig::new(8, 1);
    cfg.max_inflight = Some(5);
    let summary = with_plan("nan@serve.obs:3", || {
        try_run_fleet(&cfg, &bb_policy(), &stream(), &sup_no_watchdog()).expect("fleet completes")
    });
    assert_accounting(&summary);
    assert_eq!(summary.admitted, 8);
    assert_eq!(summary.shed, 3);
    assert_eq!(summary.quarantined, 1);
    assert_eq!(summary.completed, 4);
}

#[test]
fn run_fleet_panics_on_unrecoverable_shard() {
    // the legacy entry point escalates FleetError to a panic; its
    // default budget is 2 retries, so three injected panics exhaust it
    let result =
        with_plan("panic@serve.shard.0:1,panic@serve.shard.0:2,panic@serve.shard.0:3", || {
            std::panic::catch_unwind(|| {
                let cfg = FleetConfig::new(2, 1);
                run_fleet(&cfg, &bb_policy(), &stream())
            })
        });
    assert!(result.is_err(), "run_fleet must escalate an exhausted shard to a panic");
}

#[test]
fn normalizer_of_another_width_fails_the_batched_fleet() {
    // 5 divides the 25-wide feature matrix, so only the tick's own width
    // check stands between this model and silently wrong features
    let ppo = rl::Ppo::new_categorical(
        PENSIEVE_OBS_DIM,
        6,
        &[16],
        rl::PpoConfig { seed: 17, ..rl::PpoConfig::default() },
    );
    let model = abr::Pensieve::new(ppo.policy.clone(), Some(rl::RunningMeanStd::new(5)));
    let cfg = FleetConfig::new(4, 2);
    let sup = SupervisorConfig { backoff: fault::Backoff::none(0), ..sup_no_watchdog() };
    let err = with_plan("", || {
        try_run_fleet(&cfg, &FleetPolicy::batched(model), &stream(), &sup)
            .expect_err("a mis-sized normalizer must not serve")
    });
    assert!(err.to_string().contains("Pensieve normalizer width"), "{err}");
}
