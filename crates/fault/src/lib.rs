//! Deterministic fault injection for the whole workspace.
//!
//! The training/eval stack stress-tests *protocols* under hostile inputs;
//! this crate turns the same philosophy on the stack itself. Code under
//! test registers **fault points** — `fault::check("ppo.update")`,
//! `fault::check_value("ppo.iter", iteration)` — which are free no-ops
//! until a **fault plan** is installed. A plan is a comma-separated list
//! of `kind@point:trigger` entries parsed from the `ADVNET_FAULT_PLAN`
//! environment variable, e.g.
//!
//! ```text
//! ADVNET_FAULT_PLAN="panic@ppo.update:3,nan@nn.grads:5,corrupt@ckpt.write:1,stall@exec.worker.2:4"
//! ```
//!
//! Four fault kinds exist:
//!
//! * `panic`   — `check` panics at the trigger (simulated crash / kill);
//! * `nan`     — the call site poisons a float payload (exercises
//!   divergence guards);
//! * `corrupt` — the call site flips bits in the artifact it just wrote,
//!   or treats the one it is reading as rotten (exercises checksum
//!   validation + quarantine);
//! * `stall`   — the call site blocks for `stall_ms` without heartbeating
//!   (exercises the exec watchdog).
//!
//! Triggers are **1-based hit counts** per point (`panic@ppo.update:3`
//! fires on the third `check("ppo.update")` of the process) except for
//! value points (`check_value`), where the trigger is compared against
//! the value the caller passes — that is how `ppo.iter` fires at the same
//! iteration across a resume, where the iteration counter continues but
//! hit counts restart.
//!
//! The full inventory of registered points (and which subsystem absorbs
//! each injection) is the DESIGN.md §10 fault matrix. It spans training
//! (`ppo.*`, `nn.grads`), execution (`exec.item`,
//! `exec.worker.<slot>`), the bench pipeline (`bench.unit`,
//! `traces.load`), the packet simulator
//! (`netsim.event` — per event pop, counting only the events still
//! popped: superseded RTO armings are never queued; `netsim.enqueue` —
//! per bottleneck admission, where `corrupt` force-drops the packet), the
//! serving fleet (`serve.obs`, `serve.policy`, `serve.shard.<id>`), and
//! every durable file: `rl::ckpt` registers `<kind>.write` /
//! `<kind>.read` for each kind it stores — `ckpt` (training
//! checkpoints), `cache` (bench units), `pool` (the arena trace pool),
//! `state` (the arena state) and `spool` (serve shard spools).
//!
//! Two plan-wide settings may appear as `key=value` entries:
//! `stall_ms=<ms>` (duration of injected stalls, default 60000) and
//! `seed=<u64>` (reserved for randomized plans; recorded so a campaign
//! is replayable from its plan string alone).
//!
//! The registry is process-global and re-installable (tests serialize on
//! an env lock and call [`reload_from_env`] or [`install`] directly).
//! When no plan was ever installed, the first `check` lazily loads the
//! environment, so binaries need no explicit setup — though calling
//! [`reload_from_env`] at startup gives earlier parse errors.
//!
//! The crate also hosts [`Backoff`], the one retry/backoff policy shared
//! by `exec`, `rl` and `bench` (exponential, jitter from the vendored
//! `rand`, capped), replacing the scattered bare `max_retries` counters.

use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable holding the fault plan.
pub const PLAN_ENV: &str = "ADVNET_FAULT_PLAN";

/// What a triggered fault point injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside `check` — a simulated crash.
    Panic,
    /// Ask the call site to poison its float payload with NaN.
    Nan,
    /// Ask the call site to corrupt the artifact it produced.
    Corrupt,
    /// Ask the call site to stall without heartbeating.
    Stall,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "nan" => Some(FaultKind::Nan),
            "corrupt" => Some(FaultKind::Corrupt),
            "stall" => Some(FaultKind::Stall),
            _ => None,
        }
    }
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Nan => "nan",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Stall => "stall",
        }
    }
}

/// One `kind@point:trigger` entry of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: FaultKind,
    pub point: String,
    /// 1-based hit count for `check` points, compared value for
    /// `check_value` points.
    pub trigger: u64,
}

/// A parsed fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub specs: Vec<FaultSpec>,
    /// Duration of injected stalls, milliseconds.
    pub stall_ms: u64,
    /// Recorded so a campaign is replayable from its plan string.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { specs: Vec::new(), stall_ms: 60_000, seed: 0 }
    }
}

impl FaultPlan {
    /// The empty plan: every fault point is a no-op.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse a plan string: comma-separated `kind@point:trigger` entries
    /// plus optional `stall_ms=<ms>` / `seed=<u64>` settings. Whitespace
    /// around entries is ignored; an empty string is the empty plan.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty();
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some((key, value)) = entry.split_once('=') {
                let value: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault plan: bad value in {entry:?}"))?;
                match key.trim() {
                    "stall_ms" => plan.stall_ms = value,
                    "seed" => plan.seed = value,
                    other => return Err(format!("fault plan: unknown setting {other:?}")),
                }
                continue;
            }
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault plan: expected kind@point:trigger, got {entry:?}"))?;
            let kind = FaultKind::parse(kind.trim())
                .ok_or_else(|| format!("fault plan: unknown fault kind {kind:?} in {entry:?}"))?;
            let (point, trigger) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("fault plan: missing :trigger in {entry:?}"))?;
            let trigger: u64 = trigger
                .trim()
                .parse()
                .map_err(|_| format!("fault plan: bad trigger in {entry:?}"))?;
            let point = point.trim();
            if point.is_empty() {
                return Err(format!("fault plan: empty point name in {entry:?}"));
            }
            if trigger == 0 {
                return Err(format!("fault plan: triggers are 1-based, got 0 in {entry:?}"));
            }
            plan.specs.push(FaultSpec { kind, point: point.to_string(), trigger });
        }
        Ok(plan)
    }

    /// Canonical plan string (`parse` ∘ `render` is the identity on the
    /// spec list).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .specs
            .iter()
            .map(|s| format!("{}@{}:{}", s.kind.name(), s.point, s.trigger))
            .collect();
        if self.stall_ms != FaultPlan::default().stall_ms {
            parts.push(format!("stall_ms={}", self.stall_ms));
        }
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        parts.join(",")
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// What a triggered non-panic fault asks the call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Poison the float payload with NaN.
    Nan,
    /// Corrupt the artifact just produced (flip bits on disk).
    Corrupt,
    /// Block for this long without heartbeating.
    Stall(Duration),
}

struct PlanState {
    plan: FaultPlan,
    hits: HashMap<String, u64>,
}

/// `None` = never initialised (first `check` loads the environment);
/// `Some` = an installed plan (possibly empty).
static STATE: Mutex<Option<PlanState>> = Mutex::new(None);
/// Fast path: lets hot loops skip the mutex and the point-name
/// formatting entirely when no fault is armed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// True iff the installed plan has at least one spec. Hot paths gate
/// `check` calls (and the `format!` building dynamic point names) on
/// this — it is a single relaxed atomic load.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Install a plan, resetting all hit counters. Replaces any previous
/// plan (the registry is deliberately re-installable so tests can run
/// several campaigns in one process).
pub fn install(plan: FaultPlan) {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(!plan.is_empty(), Ordering::Relaxed);
    *state = Some(PlanState { plan, hits: HashMap::new() });
}

/// Remove any installed plan; all fault points become no-ops.
pub fn clear() {
    install(FaultPlan::empty());
}

/// Build the plan described by `ADVNET_FAULT_PLAN` (empty when unset).
pub fn plan_from_env() -> Result<FaultPlan, String> {
    match std::env::var(PLAN_ENV) {
        Ok(s) => FaultPlan::parse(&s),
        Err(_) => Ok(FaultPlan::empty()),
    }
}

/// (Re)load the plan from the environment and install it. Returns the
/// canonical plan string when a non-empty plan was installed. A parse
/// error leaves the previous plan in place.
///
/// Idempotent while the environment is unchanged: if it describes
/// exactly the plan already installed, the hit counters are preserved.
/// Mid-run constructors (`rl::Checkpointer::new`, `bench` pipelines)
/// can therefore all call this at startup without resetting a campaign
/// already in flight in the same process.
pub fn reload_from_env() -> Result<Option<String>, String> {
    let plan = plan_from_env()?;
    let rendered = (!plan.is_empty()).then(|| plan.render());
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(state) if state.plan == plan => {}
        _ => {
            ACTIVE.store(!plan.is_empty(), Ordering::Relaxed);
            *guard = Some(PlanState { plan, hits: HashMap::new() });
        }
    }
    Ok(rendered)
}

fn with_state<R>(f: impl FnOnce(&mut PlanState) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(|| {
        // Lazy bootstrap: binaries get env-var plans without any setup.
        let plan = plan_from_env().unwrap_or_else(|e| {
            // A malformed campaign must fail loudly, not silently skip
            // its injections.
            panic!("{e}");
        });
        ACTIVE.store(!plan.is_empty(), Ordering::Relaxed);
        PlanState { plan, hits: HashMap::new() }
    });
    f(state)
}

fn fire(kind: FaultKind, point: &str, trigger: u64, stall_ms: u64) -> Option<Injection> {
    // recorded before the Panic arm unwinds, so every injection — crashes
    // included — is visible as `fault.fired.<kind>.<point>` in the manifest
    telemetry::counter_add(&format!("fault.fired.{}.{point}", kind.name()), 1);
    match kind {
        FaultKind::Panic => {
            panic!("fault-plan: injected panic at {point} (trigger {trigger})")
        }
        FaultKind::Nan => Some(Injection::Nan),
        FaultKind::Corrupt => Some(Injection::Corrupt),
        FaultKind::Stall => Some(Injection::Stall(Duration::from_millis(stall_ms))),
    }
}

/// Register one hit of a fault point. Increments the point's hit counter
/// and fires any spec whose trigger equals the new count: `Panic` panics
/// right here; the other kinds return an [`Injection`] the call site is
/// responsible for acting on. Returns `None` (and is cheap) when no
/// plan is armed for this point.
pub fn check(point: &str) -> Option<Injection> {
    telemetry::counter_add("fault.checks", 1);
    if !active() {
        // Cheap path — but make sure lazy env bootstrap still happens
        // for processes that never call install().
        let bootstrapped = {
            let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
            guard.is_some()
        };
        if bootstrapped {
            return None;
        }
    }
    with_state(|state| {
        let count = state.hits.entry(point.to_string()).or_insert(0);
        *count += 1;
        let hit = *count;
        let stall_ms = state.plan.stall_ms;
        let spec = state.plan.specs.iter().find(|s| s.point == point && s.trigger == hit).cloned();
        spec.and_then(|s| fire(s.kind, point, s.trigger, stall_ms))
    })
}

/// Like [`check`] but the trigger is compared against `value` instead of
/// a hit count (the counter is not consulted or advanced). Used for
/// points whose natural coordinate survives a resume — e.g. the PPO
/// iteration number, so `panic@ppo.iter:3` fires at iteration 3 even
/// though a resumed process starts its hit counts from zero.
pub fn check_value(point: &str, value: u64) -> Option<Injection> {
    telemetry::counter_add("fault.checks", 1);
    if !active() {
        let bootstrapped = {
            let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
            guard.is_some()
        };
        if bootstrapped {
            return None;
        }
    }
    with_state(|state| {
        let stall_ms = state.plan.stall_ms;
        let spec =
            state.plan.specs.iter().find(|s| s.point == point && s.trigger == value).cloned();
        spec.and_then(|s| fire(s.kind, point, s.trigger, stall_ms))
    })
}

/// Flip one bit near the end of a file in place — how a `corrupt`
/// injection at `<kind>.write` damages the file `rl::ckpt::save` just
/// wrote (simulated bit rot; deliberately not atomic), and how tests rot
/// one by hand. Checksummed readers must reject the file afterwards.
pub fn corrupt_file(path: &std::path::Path) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if let Some(last) = bytes.len().checked_sub(2) {
        bytes[last] ^= 0x01;
    }
    std::fs::write(path, bytes)
}

/// The workspace-wide retry/backoff policy: exponential delays with
/// deterministic jitter, capped. `retries` is the number of *re*-tries
/// after the first attempt, matching the old bare `max_retries`
/// counters this type replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry; doubles every further retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Number of retries after the initial attempt (0 = fail fast).
    pub retries: usize,
    /// Seed for the jitter stream — same seed, same delays.
    pub seed: u64,
}

impl Backoff {
    /// Retry immediately, `retries` times, with no delay. The right
    /// policy for deterministic rollback-and-rerun paths (exec slot
    /// retries) where waiting buys nothing.
    pub const fn none(retries: usize) -> Backoff {
        Backoff { base: Duration::ZERO, cap: Duration::ZERO, retries, seed: 0 }
    }

    /// The standard policy for I/O-ish work: 25 ms base, doubling,
    /// capped at 2 s, with deterministic jitter.
    pub const fn standard(retries: usize, seed: u64) -> Backoff {
        Backoff { base: Duration::from_millis(25), cap: Duration::from_secs(2), retries, seed }
    }

    /// Delay before retry number `attempt` (1-based: the delay after the
    /// first failure is `delay(1)`). Exponential in `attempt`, capped at
    /// `cap`, with ±50% deterministic jitter drawn from the vendored
    /// xoshiro `StdRng` seeded by `(seed, attempt)` — replayable, and
    /// decorrelated across attempts.
    pub fn delay(&self, attempt: usize) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32) as u32;
        let nominal = self.base.saturating_mul(2u32.saturating_pow(exp)).min(self.cap);
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            self.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let jitter = 0.5 + rng.gen::<f64>(); // uniform in [0.5, 1.5)
        nominal.mul_f64(jitter).min(self.cap)
    }

    /// Sleep for `delay(attempt)` (no-op for zero delays).
    pub fn pause(&self, attempt: usize) {
        let d = self.delay(attempt);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests that install plans serialize
    // on this lock (mirrors tests/fault_tolerance.rs).
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parses_the_issue_example_plan() {
        let plan = FaultPlan::parse(
            "panic@ppo.update:3,nan@nn.grads:5,corrupt@ckpt.write:1,stall@exec.worker.2:4",
        )
        .unwrap();
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(
            plan.specs[0],
            FaultSpec { kind: FaultKind::Panic, point: "ppo.update".into(), trigger: 3 }
        );
        assert_eq!(
            plan.specs[3],
            FaultSpec { kind: FaultKind::Stall, point: "exec.worker.2".into(), trigger: 4 }
        );
        assert_eq!(plan.stall_ms, 60_000);
    }

    #[test]
    fn parse_render_roundtrip_and_settings() {
        let s = "stall@exec.worker.0:1,stall_ms=250,seed=9";
        let plan = FaultPlan::parse(s).unwrap();
        assert_eq!(plan.stall_ms, 250);
        assert_eq!(plan.seed, 9);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in ["boom@x:1", "panic@x", "panic@x:zero", "panic@:1", "panic@x:0", "wat=3"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn hit_counted_points_fire_once_at_their_trigger() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::parse("nan@t.point:2").unwrap());
        assert_eq!(check("t.point"), None);
        assert_eq!(check("t.point"), Some(Injection::Nan));
        assert_eq!(check("t.point"), None); // does not re-fire
        assert_eq!(check("t.other"), None);
        clear();
    }

    #[test]
    fn value_points_compare_the_passed_value() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::parse("corrupt@t.val:7").unwrap());
        assert_eq!(check_value("t.val", 6), None);
        assert_eq!(check_value("t.val", 7), Some(Injection::Corrupt));
        // Value triggers re-fire if the same value is seen again — the
        // caller's coordinate, not our counter, decides.
        assert_eq!(check_value("t.val", 7), Some(Injection::Corrupt));
        clear();
    }

    #[test]
    fn panic_kind_panics_inside_check() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::parse("panic@t.crash:1").unwrap());
        let r = std::panic::catch_unwind(|| check("t.crash"));
        clear();
        let payload = r.expect_err("should panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("fault-plan"), "{msg}");
    }

    #[test]
    fn stall_injection_carries_plan_stall_ms() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::parse("stall@t.slow:1,stall_ms=123").unwrap());
        assert_eq!(check("t.slow"), Some(Injection::Stall(Duration::from_millis(123))));
        clear();
    }

    #[test]
    fn inactive_plan_is_a_cheap_noop() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        assert!(!active());
        assert_eq!(check("anything"), None);
        assert_eq!(check_value("anything", 3), None);
    }

    #[test]
    fn backoff_none_is_instant_and_bounded() {
        let b = Backoff::none(2);
        assert_eq!(b.retries, 2);
        assert_eq!(b.delay(1), Duration::ZERO);
        assert_eq!(b.delay(10), Duration::ZERO);
    }

    #[test]
    fn backoff_delays_are_deterministic_growing_and_capped() {
        let b = Backoff::standard(5, 42);
        assert_eq!(b.delay(1), b.delay(1), "jitter must be replayable");
        assert_ne!(b.delay(1), b.delay(2), "attempts are decorrelated");
        for attempt in 1..200 {
            assert!(b.delay(attempt) <= b.cap);
        }
        // Nominal growth: with jitter in [0.5, 1.5), attempt 4 (200ms
        // nominal) always exceeds attempt 1's maximum (37.5ms).
        assert!(b.delay(4) > b.delay(1));
    }

    #[test]
    fn reload_preserves_hit_counters_while_env_is_unchanged() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(PLAN_ENV, "nan@t.reload:2");
        reload_from_env().unwrap();
        assert_eq!(check("t.reload"), None); // hit 1 of 2
        reload_from_env().unwrap(); // same env: counters must survive
        assert_eq!(check("t.reload"), Some(Injection::Nan)); // hit 2 fires
        std::env::set_var(PLAN_ENV, "nan@t.reload:1");
        reload_from_env().unwrap(); // changed env: counters reset
        assert_eq!(check("t.reload"), Some(Injection::Nan));
        std::env::remove_var(PLAN_ENV);
        reload_from_env().unwrap();
        assert!(!active());
        clear();
    }
}
