//! The session-sharded batch-inference engine.
//!
//! N sessions are split into `shards` **contiguous id blocks**; each
//! block becomes one [`exec`] worker slot. A shard runs its sessions in
//! lock-step ticks: per tick it assembles one observation-feature
//! matrix (one row per live session) and makes a single batched policy
//! call ([`rl::PolicyKind::mode_batch`] → [`nn::Mlp::forward_batch`])
//! instead of one forward per session — the PR-4 batched kernels
//! amortized across the fleet.
//!
//! Since PR 8 the shard loop itself lives in [`crate::supervisor`]: the
//! engine's [`run_fleet`] is a thin wrapper over
//! [`crate::supervisor::try_run_fleet`] with the default
//! [`crate::supervisor::SupervisorConfig`] — shards heartbeat, panics
//! and stalls retry from snapshots, bad observations quarantine their
//! session onto a BB fallback, and `max_inflight` sheds overload
//! deterministically.
//!
//! Invariants (DESIGN.md §13, §15):
//!
//! * **Session independence.** A session's trajectory depends only on
//!   `(policy, its trace)`; sessions never observe each other, so the
//!   shard partition cannot change any trajectory.
//! * **Bit-identical batching.** `mode_batch` is bit-identical per row
//!   to the per-sample `mode`, so the batched path reproduces the
//!   single-session `abr::run_session` path exactly.
//! * **Shard-invariant aggregation.** Shard results are concatenated
//!   in slot order (= session-id order, blocks are contiguous) and fed
//!   to one [`QuantileSketch`] on the caller's thread — never merged —
//!   so the aggregate summary is byte-identical for any shard count.
//! * **Supervision is bit-transparent.** With no fault fired and no
//!   quarantine triggered, the supervised engine's summary is
//!   byte-identical to the pre-supervision engine's
//!   (`tests/supervised_equivalence.rs`).
//!
//! Classic protocols (BB, MPC) have no batched forward; they run on the
//! same shard loop with one policy instance per session
//! ([`FleetPolicy::PerSession`]) — MPC is stateful, so instances are
//! never shared.

use crate::session::SessionResult;
use crate::sketch::QuantileSketch;
use crate::supervisor::{try_run_fleet, SupervisorConfig};
use abr::{AbrPolicy, Pensieve, QoeParams, Video};
use traces::TraceStream;

/// How the fleet drives its protocol.
pub enum FleetPolicy {
    /// A Pensieve model shared read-only across the fleet; inference is
    /// batched per shard tick through [`rl::PolicyKind::mode_batch`].
    Batched(Pensieve),
    /// One fresh protocol instance per session, built by the factory
    /// from the session id. Required for stateful protocols (MPC keeps
    /// per-session throughput-error history) and used for all classic
    /// protocols.
    PerSession(Box<dyn Fn(u64) -> Box<dyn AbrPolicy + Send> + Send + Sync>),
}

impl FleetPolicy {
    /// Batched-inference fleet over a trained Pensieve.
    pub fn batched(p: Pensieve) -> Self {
        FleetPolicy::Batched(p)
    }

    /// Per-session protocol instances from a factory.
    pub fn per_session<F>(factory: F) -> Self
    where
        F: Fn(u64) -> Box<dyn AbrPolicy + Send> + Send + Sync + 'static,
    {
        FleetPolicy::PerSession(Box::new(factory))
    }
}

/// Fleet-run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of sessions asking to be served ("admitted" in the
    /// summary's accounting).
    pub sessions: usize,
    /// Worker shards; clamped to `[1, running sessions]`.
    pub shards: usize,
    /// The video every session streams.
    pub video: Video,
    /// QoE weights.
    pub qoe: QoeParams,
    /// Rank-error target of the aggregation sketch.
    pub sketch_eps: f64,
    /// Record per-chunk QoE trajectories in every [`SessionResult`]
    /// (tests and small fleets only — O(chunks) memory per session).
    pub record_chunks: bool,
    /// Admission-control cap: at most this many sessions actually run;
    /// the rest are **shed** deterministically (highest session ids
    /// first — ids `cap..sessions` never start). `None` = no cap.
    pub max_inflight: Option<usize>,
}

impl FleetConfig {
    /// Standard fleet: Pensieve's CBR video and default QoE weights,
    /// sketch `ε = 0.005` (±0.5 % rank error), no trajectory recording,
    /// no admission cap.
    pub fn new(sessions: usize, shards: usize) -> Self {
        FleetConfig {
            sessions,
            shards,
            video: Video::cbr(),
            qoe: QoeParams::default(),
            sketch_eps: 0.005,
            record_chunks: false,
            max_inflight: None,
        }
    }
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Sessions that actually ran (admitted minus shed).
    pub sessions: usize,
    /// Sessions that asked to run (`FleetConfig::sessions`).
    pub admitted: usize,
    /// Sessions that ran to completion un-quarantined; their QoE is
    /// what the sketch aggregates. `quarantined + completed + shed ==
    /// admitted` always holds.
    pub completed: usize,
    /// Sessions quarantined mid-stream (invalid observation or policy
    /// output); they finish under the BB fallback but their QoE is
    /// excluded from the sketch.
    pub quarantined: u64,
    /// Chunk decisions made by fallback policies on quarantined
    /// sessions.
    pub fallbacks: u64,
    /// Sessions shed by admission control ([`FleetConfig::max_inflight`]).
    pub shed: usize,
    /// Shard snapshot-window retries absorbed by supervision (panics,
    /// watchdog cancellations).
    pub shard_retries: u64,
    /// Shards actually used (after clamping).
    pub shards: usize,
    /// Total policy decisions (= chunks fetched fleet-wide).
    pub decisions: u64,
    /// Exact fleet mean of per-session mean QoE over un-quarantined
    /// sessions (from the sketch's exact running sum). `0.0` sentinel
    /// when nothing completed.
    pub mean_qoe: f64,
    /// 5th-percentile session QoE from the sketch (rank error ≤ εn+1).
    /// `0.0` sentinel when nothing completed.
    pub p5_qoe: f64,
    /// The aggregation sketch itself, for further quantile queries.
    pub sketch: QuantileSketch,
    /// Wall-clock seconds of the sharded run (measurement, not part of
    /// the deterministic result).
    pub wall_s: f64,
    /// Serving throughput: `decisions / wall_s`.
    pub decisions_per_s: f64,
    /// Per-session results in session-id order (shed sessions are
    /// absent). `chunk_qoe` inside is populated only under
    /// [`FleetConfig::record_chunks`].
    pub per_session: Vec<SessionResult>,
}

/// Contiguous id block `[start, end)` owned by shard `b` of `shards`.
pub(crate) fn block(sessions: usize, shards: usize, b: usize) -> (u64, u64) {
    let q = sessions / shards;
    let r = sessions % shards;
    let start = b * q + b.min(r);
    let len = q + usize::from(b < r);
    (start as u64, (start + len) as u64)
}

/// Run a fleet of `cfg.sessions` concurrent sessions: session `i`
/// streams trace [`TraceStream::nth_trace`]`(i)` under `policy`.
///
/// This is [`try_run_fleet`] under the default
/// [`SupervisorConfig`] — watchdog from `ADVNET_WATCHDOG_MS`, two
/// immediate snapshot retries per shard window, no spool — with a
/// shard that exhausts its retry budget escalated to a panic. Callers
/// that want structured errors, a crash spool, or custom budgets use
/// [`try_run_fleet`] directly.
///
/// Telemetry (when enabled): span `serve.fleet`; from the shard
/// threads, span `serve.snapshot` (taking and releasing each window's
/// rollback snapshot) and, for a batched policy, one span per pass of
/// every tick: `serve.tick.features`, `serve.tick.forward` and
/// `serve.tick.step`; counters `serve.decisions` / `serve.quarantined` /
/// `serve.fallback` / `serve.shed` / `serve.shard.retry`, gauges
/// `serve.sessions` and `serve.decisions_per_s` — the decisions/s metric
/// defined in PERF.md.
pub fn run_fleet(cfg: &FleetConfig, policy: &FleetPolicy, stream: &TraceStream) -> FleetSummary {
    try_run_fleet(cfg, policy, stream, &SupervisorConfig::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr::BufferBased;
    use traces::{GenConfig, TraceFamily};

    #[test]
    fn shard_blocks_partition_the_fleet() {
        for (sessions, shards) in [(10, 3), (7, 7), (5, 1), (20_000, 16), (3, 8)] {
            let shards_eff = shards.clamp(1, sessions);
            let mut next = 0u64;
            for b in 0..shards_eff {
                let (lo, hi) = block(sessions, shards_eff, b);
                assert_eq!(lo, next, "{sessions}x{shards} shard {b}");
                assert!(hi > lo, "every shard owns at least one session");
                next = hi;
            }
            assert_eq!(next, sessions as u64);
        }
    }

    #[test]
    fn small_bb_fleet_completes_and_counts_decisions() {
        let cfg = FleetConfig::new(6, 2);
        let policy =
            FleetPolicy::per_session(|_id| Box::new(BufferBased::pensieve_defaults()) as _);
        let stream = TraceStream::new(TraceFamily::BenignMix, 42, GenConfig::default());
        let summary = run_fleet(&cfg, &policy, &stream);
        assert_eq!(summary.sessions, 6);
        assert_eq!(summary.decisions, 6 * cfg.video.n_chunks() as u64);
        assert_eq!(summary.per_session.len(), 6);
        assert!(summary.mean_qoe.is_finite());
        assert!(summary.p5_qoe.is_finite());
        assert!(summary.decisions_per_s > 0.0);
        // robustness accounting on a healthy fleet: everything admitted
        // ran to completion, nothing quarantined / fell back / shed
        assert_eq!(summary.admitted, 6);
        assert_eq!(summary.completed, 6);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.fallbacks, 0);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.shard_retries, 0);
    }

    #[test]
    fn admission_cap_sheds_deterministically() {
        let stream = TraceStream::new(TraceFamily::BenignMix, 42, GenConfig::default());
        let policy =
            FleetPolicy::per_session(|_id| Box::new(BufferBased::pensieve_defaults()) as _);
        let mut capped = FleetConfig::new(10, 2);
        capped.max_inflight = Some(6);
        let summary = run_fleet(&capped, &policy, &stream);
        assert_eq!(summary.admitted, 10);
        assert_eq!(summary.shed, 4);
        assert_eq!(summary.sessions, 6);
        assert_eq!(summary.completed, 6);
        // shedding is by session id: the capped fleet is exactly the
        // 6-session fleet, bit for bit
        let small = run_fleet(&FleetConfig::new(6, 2), &policy, &stream);
        assert_eq!(summary.per_session, small.per_session);
        assert_eq!(
            serde_json::to_string(&summary.sketch).unwrap(),
            serde_json::to_string(&small.sketch).unwrap()
        );
    }
}
