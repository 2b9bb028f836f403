//! Shard supervision: heartbeats, deterministic retry from snapshots,
//! per-session quarantine + fallback, admission control, and a crash
//! spool — the fleet robustness layer (DESIGN.md §15).
//!
//! [`try_run_fleet`] is the supervised engine entry point; the legacy
//! [`crate::engine::run_fleet`] is now a thin wrapper over it with the
//! default [`SupervisorConfig`]. Fault domains, outermost first:
//!
//! 1. **The fleet** — admission control. `FleetConfig::max_inflight`
//!    sheds the excess sessions (highest ids first, deterministically)
//!    *before* any work starts, so overload degrades to a smaller
//!    correct answer instead of an OOM or stall. Shed counts surface in
//!    `FleetSummary::shed`.
//! 2. **A shard** — supervision. Every shard job heartbeats once per
//!    tick under [`exec::run_on_slots_watchdog`]; a panicked or
//!    watchdog-cancelled shard rolls back to its last per-tick snapshot
//!    (taken every `snapshot_ticks` ticks) and re-executes
//!    deterministically under the configured [`fault::Backoff`] budget.
//!    Sessions are pure functions of `(policy, trace)`, so a replayed
//!    window reproduces the undisturbed results bit for bit. Each fleet
//!    run is one fan-out of scoped threads, one per shard; a cancelled
//!    shard's unwind is caught on its own thread, which re-runs the
//!    window from the snapshot — supervision never costs a thread.
//! 3. **A session** — quarantine. Observations and policy outputs are
//!    validated every tick (see [`crate::quarantine`]); on violation
//!    the session is quarantined, a per-session [`abr::BufferBased`]
//!    fallback drives its remaining chunks, and its QoE leaves the
//!    aggregate sketch. `quarantined + completed + shed == admitted`
//!    always holds.
//!
//! Fault points (for `ADVNET_FAULT_PLAN`): `serve.shard.<id>` fires
//! once per snapshot-window attempt of shard `<id>` (panic/stall/
//! corrupt-the-spool), `serve.obs` poisons the first live observation
//! of a tick, `serve.policy` poisons the first live policy output of a
//! tick. The `chaos_soak` bench binary drives randomized seeded
//! schedules over exactly these points.
//!
//! When `spool_dir` is set, each finished shard writes its results as a
//! checksummed `rl::ckpt` envelope keyed by a fingerprint of
//! `(stream, video, qoe, record_chunks, block)`; a later run over the
//! same inputs resumes finished shards from the spool (corrupt spools
//! are renamed `*.quarantined` and recomputed), giving fleets the same
//! kill+resume contract the training pipeline has.

use crate::engine::{block, FleetConfig, FleetPolicy, FleetSummary};
use crate::quarantine;
use crate::session::{Session, SessionResult};
use crate::sketch::QuantileSketch;
use abr::protocols::pensieve::{pensieve_features, PENSIEVE_OBS_DIM};
use abr::{AbrObservation, AbrPolicy, BufferBased};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;
use traces::TraceStream;

/// Supervision knobs for [`try_run_fleet`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retry budget + pacing for a panicked or stalled shard window.
    /// Rollback-and-replay is deterministic, so the default waits
    /// nothing between attempts ([`fault::Backoff::none`] with 2
    /// retries).
    pub backoff: fault::Backoff,
    /// Watchdog for stalled shards; `None` disables stall detection
    /// (panics are still supervised). Defaults to
    /// [`exec::WatchdogConfig::from_env`] (`ADVNET_WATCHDOG_MS`).
    pub watchdog: Option<exec::WatchdogConfig>,
    /// Ticks between shard snapshots — the rollback granularity. A
    /// failed window replays at most this many ticks.
    pub snapshot_ticks: usize,
    /// When set, finished shards spool their results here (checksummed
    /// `rl::ckpt` envelopes) and later runs resume from the spool.
    pub spool_dir: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            backoff: fault::Backoff::none(2),
            watchdog: exec::WatchdogConfig::from_env(),
            snapshot_ticks: 12,
            spool_dir: None,
        }
    }
}

/// A shard exhausted its retry budget: the structured failure
/// [`try_run_fleet`] surfaces instead of poisoning the process.
#[derive(Debug)]
pub struct FleetError {
    /// Shard index that gave up (lowest wins when several fail).
    pub shard: usize,
    /// The underlying exec-layer failure (attempts, panic message).
    pub source: exec::ExecError,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet shard {} failed: {}", self.shard, self.source)
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One session's execution lane inside a shard: the session plus the
/// policy state that drives it (a per-session protocol instance on the
/// [`FleetPolicy::PerSession`] path, and — once quarantined — the BB
/// fallback).
struct Lane {
    session: Session,
    /// Per-session protocol instance (`None` on the batched path).
    proto: Option<Box<dyn AbrPolicy + Send>>,
    /// Installed at quarantine time; drives every remaining chunk.
    fallback: Option<BufferBased>,
}

impl Clone for Lane {
    fn clone(&self) -> Lane {
        Lane {
            session: self.session.clone(),
            // clone_box preserves mid-stream protocol state (MPC error
            // history), which is what makes rollback deterministic
            proto: self.proto.as_ref().map(|p| p.clone_box()),
            fallback: self.fallback.clone(),
        }
    }
}

impl Lane {
    /// Quarantine this lane: flag the session, install the BB fallback.
    fn quarantine(&mut self, shard: usize, why: &str) {
        telemetry::counter_add("serve.quarantined", 1);
        let _ = (shard, why); // reasons surface via telemetry counts only
        self.session.quarantine();
        if self.fallback.is_none() {
            self.fallback = Some(BufferBased::pensieve_defaults());
        }
    }

    /// Step one chunk under the fallback policy (true observation).
    fn fallback_step(&mut self) -> f64 {
        let obs = self.session.observation();
        let idx = self.fallback.as_mut().expect("quarantined lane has a fallback").select(&obs);
        telemetry::counter_add("serve.fallback", 1);
        self.session.step(idx)
    }
}

/// One shard's full execution state: the [`exec`] slot type. Cloning it
/// is what snapshots a shard (sessions, protocol state, tick cursor).
#[derive(Clone)]
struct ShardState {
    shard: usize,
    lo: u64,
    hi: u64,
    tick: usize,
    lanes: Vec<Lane>,
    retries: u64,
    quarantined: u64,
    fallback_decisions: u64,
    /// Set when a `corrupt@serve.shard.<id>` injection fired: the spool
    /// written at shard completion gets bit-flipped, exercising the
    /// resume path's checksum quarantine.
    corrupt_spool: bool,
}

impl ShardState {
    fn new(
        shard: usize,
        ids: (u64, u64),
        cfg: &FleetConfig,
        policy: &FleetPolicy,
        stream: &TraceStream,
    ) -> ShardState {
        let (lo, hi) = ids;
        let lanes = (lo..hi)
            .map(|id| {
                let trace = stream.nth_trace(id);
                let session = Session::new(id, &cfg.video, &cfg.qoe, &trace, cfg.record_chunks);
                let proto = match policy {
                    FleetPolicy::Batched(_) => None,
                    FleetPolicy::PerSession(factory) => {
                        let mut proto = factory(id);
                        proto.reset(); // mirror run_session's per-session reset
                        Some(proto)
                    }
                };
                Lane { session, proto, fallback: None }
            })
            .collect();
        ShardState {
            shard,
            lo,
            hi,
            tick: 0,
            lanes,
            retries: 0,
            quarantined: 0,
            fallback_decisions: 0,
            corrupt_spool: false,
        }
    }
}

/// What one shard hands back to the aggregation step.
struct ShardOutcome {
    results: Vec<SessionResult>,
    quarantined: u64,
    fallback_decisions: u64,
    retries: u64,
}

/// On-disk spool record for one finished shard.
#[derive(Serialize, Deserialize)]
struct SpoolShard {
    /// Fingerprint of `(stream, video, qoe, record_chunks, lo, hi)` —
    /// a spool is only resumed for the exact same inputs.
    fingerprint: u64,
    lo: u64,
    hi: u64,
    results: Vec<SessionResult>,
    quarantined: u64,
    fallback_decisions: u64,
    retries: u64,
}

/// Poison the first live observation of a tick when a `serve.obs`
/// injection is armed. NaN/corrupt mutate a *copy* that only the
/// validator sees — modelling a corrupt telemetry pipe the quarantine
/// layer must catch before the policy does.
fn maybe_poison_obs(obs: &mut AbrObservation, hb: &exec::Heartbeat) {
    if !fault::active() {
        return;
    }
    match fault::check("serve.obs") {
        Some(fault::Injection::Nan) => obs.buffer_s = f64::NAN,
        Some(fault::Injection::Corrupt) => obs.buffer_s = -1e12,
        Some(fault::Injection::Stall(d)) => hb.stall_for(d),
        None => {}
    }
}

/// Poison the first live policy output of a tick when a `serve.policy`
/// injection is armed: the returned index is off the ladder, which the
/// action validator must catch before the player panics on it.
fn maybe_poison_action(n_qualities: usize, hb: &exec::Heartbeat) -> Option<usize> {
    if !fault::active() {
        return None;
    }
    match fault::check("serve.policy") {
        Some(fault::Injection::Nan) => Some(usize::MAX),
        Some(fault::Injection::Corrupt) => Some(n_qualities + 7),
        Some(fault::Injection::Stall(d)) => {
            hb.stall_for(d);
            None
        }
        None => None,
    }
}

/// Advance every lane of the shard by exactly one chunk.
///
/// Live lanes are driven by the fleet policy (batched or per-session);
/// quarantined lanes by their BB fallback on the true observation. With
/// no quarantine and no injection this reproduces the pre-supervision
/// engine bit for bit: same features, same batched forward, same clamp,
/// same step order.
fn run_tick(state: &mut ShardState, hb: &exec::Heartbeat, cfg: &FleetConfig, policy: &FleetPolicy) {
    let n_q = cfg.video.n_qualities();
    let shard = state.shard;
    let mut newly_quarantined = 0u64;
    let mut fallback_decisions = 0u64;
    match policy {
        FleetPolicy::Batched(p) => {
            // pass 1: validate observations, collect features of live lanes
            let mut live: Vec<usize> = Vec::with_capacity(state.lanes.len());
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(state.lanes.len());
            let mut obs_point_armed = true;
            for (i, lane) in state.lanes.iter_mut().enumerate() {
                if lane.session.quarantined() {
                    continue;
                }
                let mut obs = lane.session.observation();
                if obs_point_armed {
                    obs_point_armed = false;
                    maybe_poison_obs(&mut obs, hb);
                }
                if let Err(why) = quarantine::validate_observation(&obs) {
                    lane.quarantine(shard, &why);
                    newly_quarantined += 1;
                    continue;
                }
                let raw = pensieve_features(&obs);
                rows.push(match &p.obs_norm {
                    Some(norm) => norm.normalize(&raw),
                    None => raw,
                });
                live.push(i);
            }
            // pass 2: one batched forward for the whole shard tick
            let actions = if live.is_empty() {
                Vec::new()
            } else {
                let mut feats = nn::Matrix::zeros(live.len(), PENSIEVE_OBS_DIM);
                for (r, row) in rows.iter().enumerate() {
                    feats.row_mut(r).copy_from_slice(row);
                }
                p.policy.mode_batch(&feats)
            };
            // pass 3: step every lane exactly once, in session-id order
            let mut next_live = 0usize;
            let mut policy_point_armed = true;
            for (i, lane) in state.lanes.iter_mut().enumerate() {
                let is_live = next_live < live.len() && live[next_live] == i;
                if is_live {
                    // same clamp as Pensieve::select
                    let mut idx = actions[next_live].index().min(n_q - 1);
                    next_live += 1;
                    if policy_point_armed {
                        policy_point_armed = false;
                        if let Some(poison) = maybe_poison_action(n_q, hb) {
                            idx = poison;
                        }
                    }
                    if quarantine::validate_action(idx, n_q).is_err() {
                        lane.quarantine(shard, "policy output off the ladder");
                        newly_quarantined += 1;
                        lane.fallback_step();
                        fallback_decisions += 1;
                    } else {
                        let qoe = lane.session.step(idx);
                        if !quarantine::qoe_is_sane(qoe) {
                            lane.quarantine(shard, "non-finite chunk QoE");
                            newly_quarantined += 1;
                        }
                    }
                } else {
                    lane.fallback_step();
                    fallback_decisions += 1;
                }
            }
        }
        FleetPolicy::PerSession(_) => {
            let mut obs_point_armed = true;
            let mut policy_point_armed = true;
            for lane in state.lanes.iter_mut() {
                if lane.session.quarantined() {
                    lane.fallback_step();
                    fallback_decisions += 1;
                    continue;
                }
                let mut obs = lane.session.observation();
                if obs_point_armed {
                    obs_point_armed = false;
                    maybe_poison_obs(&mut obs, hb);
                }
                if let Err(why) = quarantine::validate_observation(&obs) {
                    lane.quarantine(shard, &why);
                    newly_quarantined += 1;
                    lane.fallback_step();
                    fallback_decisions += 1;
                    continue;
                }
                let mut idx =
                    lane.proto.as_mut().expect("per-session lane has a protocol").select(&obs);
                if policy_point_armed {
                    policy_point_armed = false;
                    if let Some(poison) = maybe_poison_action(n_q, hb) {
                        idx = poison;
                    }
                }
                if quarantine::validate_action(idx, n_q).is_err() {
                    lane.quarantine(shard, "policy output off the ladder");
                    newly_quarantined += 1;
                    lane.fallback_step();
                    fallback_decisions += 1;
                    continue;
                }
                let qoe = lane.session.step(idx);
                if !quarantine::qoe_is_sane(qoe) {
                    lane.quarantine(shard, "non-finite chunk QoE");
                    newly_quarantined += 1;
                }
            }
        }
    }
    state.quarantined += newly_quarantined;
    state.fallback_decisions += fallback_decisions;
}

/// Run one shard to completion under snapshot-window supervision.
///
/// The shard executes in windows of `snapshot_ticks` ticks. Before each
/// window (when retries are budgeted) the whole shard state is cloned;
/// a panic inside the window — injected, organic, or a watchdog
/// cancellation surfacing through [`exec::Heartbeat::beat`] — rolls the
/// shard back to that snapshot and replays it. Deterministic sessions
/// make the replay bit-identical to an undisturbed execution. A shard
/// that exhausts `backoff.retries` re-raises the panic into the exec
/// layer, which converts it into the [`FleetError`] the caller sees.
fn run_shard_supervised(
    state: &mut ShardState,
    hb: &exec::Heartbeat,
    cfg: &FleetConfig,
    policy: &FleetPolicy,
    stream: &TraceStream,
    sup: &SupervisorConfig,
) -> ShardOutcome {
    if let Some(dir) = &sup.spool_dir {
        if let Some(outcome) = try_resume_spool(dir, state, cfg, stream) {
            return outcome;
        }
    }
    let ticks = cfg.video.n_chunks();
    let window = sup.snapshot_ticks.max(1);
    let point = format!("serve.shard.{}", state.shard);
    let mut attempt = 0usize;
    while state.tick < ticks {
        let snapshot = (sup.backoff.retries > 0).then(|| state.clone());
        let end = (state.tick + window).min(ticks);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if fault::active() {
                match fault::check(&point) {
                    Some(fault::Injection::Stall(d)) => hb.stall_for(d),
                    Some(fault::Injection::Corrupt) => state.corrupt_spool = true,
                    Some(fault::Injection::Nan) | None => {}
                }
            }
            while state.tick < end {
                run_tick(state, hb, cfg, policy);
                state.tick += 1;
                hb.beat();
            }
        }));
        match outcome {
            Ok(()) => attempt = 0,
            Err(payload) => {
                attempt += 1;
                if attempt > sup.backoff.retries {
                    // budget exhausted: surface through the exec layer
                    std::panic::resume_unwind(payload);
                }
                let snap = snapshot.expect("snapshot exists when retries are budgeted");
                let corrupt_spool = state.corrupt_spool; // fired faults stay fired
                *state = snap;
                state.corrupt_spool |= corrupt_spool;
                state.retries += 1;
                telemetry::counter_add("serve.shard.retry", 1);
                sup.backoff.pause(attempt);
            }
        }
    }
    debug_assert!(state.lanes.iter().all(|l| l.session.finished()));
    let outcome = ShardOutcome {
        results: state.lanes.drain(..).map(|lane| lane.session.into_result()).collect(),
        quarantined: state.quarantined,
        fallback_decisions: state.fallback_decisions,
        retries: state.retries,
    };
    if let Some(dir) = &sup.spool_dir {
        write_spool(dir, state, &outcome, cfg, stream);
    }
    outcome
}

/// Fingerprint of everything that determines a shard's results: the
/// trace stream, the video, the QoE weights, the recording flag and the
/// id block.
fn shard_fingerprint(cfg: &FleetConfig, stream: &TraceStream, lo: u64, hi: u64) -> u64 {
    let mut body = serde_json::to_string(stream).expect("stream serializes");
    body.push('|');
    body.push_str(&serde_json::to_string(&cfg.video).expect("video serializes"));
    body.push('|');
    body.push_str(&serde_json::to_string(&cfg.qoe).expect("qoe serializes"));
    body.push_str(&format!("|{}|{lo}|{hi}", cfg.record_chunks));
    rl::ckpt::fnv1a64(body.as_bytes())
}

fn spool_path(dir: &Path, lo: u64, hi: u64) -> PathBuf {
    dir.join(format!("shard-{lo}-{hi}.ckpt"))
}

/// Move a rotten spool aside (never delete evidence) and count it.
fn quarantine_spool(path: &Path) {
    let mut aside = path.as_os_str().to_os_string();
    aside.push(".quarantined");
    let _ = std::fs::rename(path, &aside);
    telemetry::counter_add("serve.spool.quarantined", 1);
}

/// Resume a finished shard from its spool, if one exists and matches.
fn try_resume_spool(
    dir: &Path,
    state: &ShardState,
    cfg: &FleetConfig,
    stream: &TraceStream,
) -> Option<ShardOutcome> {
    let path = spool_path(dir, state.lo, state.hi);
    if !path.exists() {
        return None;
    }
    let body = match rl::ckpt::read_checkpoint_file(&path) {
        Ok(body) => body,
        Err(_) => {
            // bad magic or checksum: a torn or corrupted spool
            quarantine_spool(&path);
            return None;
        }
    };
    match serde_json::from_str::<SpoolShard>(&body) {
        Ok(sp)
            if sp.lo == state.lo
                && sp.hi == state.hi
                && sp.fingerprint == shard_fingerprint(cfg, stream, state.lo, state.hi) =>
        {
            telemetry::counter_add("serve.spool.resume", 1);
            Some(ShardOutcome {
                results: sp.results,
                quarantined: sp.quarantined,
                fallback_decisions: sp.fallback_decisions,
                retries: sp.retries,
            })
        }
        Ok(_) => {
            // a spool for different inputs: recompute, keep it aside
            quarantine_spool(&path);
            None
        }
        Err(_) => {
            quarantine_spool(&path);
            None
        }
    }
}

/// Spool one finished shard (atomic, checksummed). Best-effort: a spool
/// that fails to write only costs the next run a recompute.
fn write_spool(
    dir: &Path,
    state: &ShardState,
    outcome: &ShardOutcome,
    cfg: &FleetConfig,
    stream: &TraceStream,
) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let record = SpoolShard {
        fingerprint: shard_fingerprint(cfg, stream, state.lo, state.hi),
        lo: state.lo,
        hi: state.hi,
        results: outcome.results.clone(),
        quarantined: outcome.quarantined,
        fallback_decisions: outcome.fallback_decisions,
        retries: outcome.retries,
    };
    let body = serde_json::to_string(&record).expect("spool record serializes");
    let path = spool_path(dir, state.lo, state.hi);
    if rl::ckpt::write_checkpoint_file(&path, &body).is_ok() {
        telemetry::counter_add("serve.spool.write", 1);
        if state.corrupt_spool {
            let _ = fault::corrupt_file(&path);
        }
    }
}

/// Run a fleet under full supervision; the robust sibling of
/// [`crate::engine::run_fleet`].
///
/// Admission first: with [`FleetConfig::max_inflight`] `= Some(cap)`,
/// sessions `cap..sessions` are shed deterministically (they never
/// start; their ids simply don't appear in `per_session`). The admitted
/// sessions are sharded and run under watchdog supervision with
/// snapshot-rollback retries; per-session quarantine keeps poisoned QoE
/// out of the aggregate sketch. Errors (a shard out of retry budget)
/// surface as [`FleetError`] instead of a panic.
///
/// Accounting invariant, asserted in debug builds and by `chaos_soak`:
/// `quarantined + completed + shed == admitted`.
pub fn try_run_fleet(
    cfg: &FleetConfig,
    policy: &FleetPolicy,
    stream: &TraceStream,
    sup: &SupervisorConfig,
) -> Result<FleetSummary, FleetError> {
    assert!(cfg.sessions > 0, "fleet needs at least one session");
    let _span = telemetry::span!("serve.fleet");
    let t0 = Instant::now();

    // fault domain 1: admission control / load shedding
    let admitted = cfg.sessions;
    let ran = match cfg.max_inflight {
        Some(cap) => admitted.min(cap),
        None => admitted,
    };
    let shed = admitted - ran;
    if shed > 0 {
        telemetry::counter_add("serve.shed", shed as u64);
    }
    let shards = cfg.shards.clamp(1, ran.max(1));

    // fault domain 2: supervised shards
    let mut states: Vec<ShardState> = if ran == 0 {
        Vec::new()
    } else {
        (0..shards)
            .map(|b| ShardState::new(b, block(ran, shards, b), cfg, policy, stream))
            .collect()
    };
    let run = exec::run_on_slots_watchdog(
        &mut states,
        // exec-level retries stay at 0: the supervisor's own
        // snapshot-window retry (finer-grained than exec's entry-state
        // rollback) is the recovery path
        &fault::Backoff::none(0),
        sup.watchdog.as_ref(),
        |_w, state, hb| run_shard_supervised(state, hb, cfg, policy, stream, sup),
    )
    .map_err(|e| FleetError { shard: e.index, source: e })?;

    // slot order = session-id order (blocks are contiguous and sorted)
    let mut per_session: Vec<SessionResult> = Vec::with_capacity(ran);
    let mut quarantined = 0u64;
    let mut fallbacks = 0u64;
    let mut shard_retries = 0u64;
    for (outcome, stat) in run.results.into_iter().zip(&run.stats) {
        quarantined += outcome.quarantined;
        fallbacks += outcome.fallback_decisions;
        // internal window retries + any exec-level re-attempts
        shard_retries += outcome.retries + (stat.attempts as u64).saturating_sub(1);
        per_session.extend(outcome.results);
    }
    debug_assert_eq!(per_session.len(), ran);

    // fault domain 3: quarantine keeps poisoned QoE out of the sketch.
    // Single-sketch aggregation on the caller's thread, in session-id
    // order: no sketch merging, so the summary is shard-count invariant.
    let mut sketch = QuantileSketch::new(cfg.sketch_eps);
    let mut decisions = 0u64;
    for r in &per_session {
        decisions += r.chunks as u64;
        if !r.quarantined {
            sketch.insert(r.mean_qoe);
        }
    }
    let completed = ran - quarantined as usize;
    debug_assert_eq!(quarantined as usize + completed + shed, admitted);

    let wall_s = t0.elapsed().as_secs_f64();
    let decisions_per_s = decisions as f64 / wall_s.max(1e-9);
    telemetry::counter_add("serve.decisions", decisions);
    telemetry::gauge_set("serve.sessions", ran as f64);
    telemetry::gauge_set("serve.decisions_per_s", decisions_per_s);

    Ok(FleetSummary {
        sessions: ran,
        admitted,
        completed,
        quarantined,
        fallbacks,
        shed,
        shard_retries,
        shards,
        decisions,
        mean_qoe: sketch.mean(),
        // 0.0 sentinel when every session was shed or quarantined —
        // never NaN, so downstream CSVs and gates stay clean
        p5_qoe: sketch.quantile(0.05).unwrap_or(0.0),
        sketch,
        wall_s,
        decisions_per_s,
        per_session,
    })
}
