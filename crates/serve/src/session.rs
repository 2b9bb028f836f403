//! One fleet session: an independent ABR player walking its own trace.

use abr::{AbrObservation, Player, QoeParams, TraceNetwork, Video};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use traces::Trace;

/// A single streaming session inside a fleet: an [`abr::Player`] plus a
/// [`abr::TraceNetwork`] cursor at the start of its own trace — exactly
/// the state `abr::run_session` builds for the single-session eval
/// path, so a 1-session fleet reproduces that path bit-for-bit
/// (regression-tested in `tests/fleet_equivalence.rs`). The video and
/// the trace are shared behind [`Arc`]s, so a clone (a shard snapshot)
/// copies only the session's own mutable state.
#[derive(Debug, Clone)]
pub struct Session {
    id: u64,
    player: Player,
    net: TraceNetwork,
    qoe_sum: f64,
    chunks: usize,
    /// Per-chunk QoE trajectory; recorded only when the engine runs
    /// with `record_chunks` (equivalence tests, small fleets).
    chunk_qoe: Option<Vec<f64>>,
    /// Set once the supervisor has quarantined this session (an invalid
    /// observation or poisoned policy output was detected mid-stream).
    quarantined: bool,
}

impl Session {
    /// New session `id` streaming the shared `video` over `trace` (moved
    /// in, not copied) from offset 0.
    pub fn new(
        id: u64,
        video: Arc<Video>,
        qoe: &QoeParams,
        trace: Trace,
        record_chunks: bool,
    ) -> Self {
        Session {
            id,
            player: Player::new(video, qoe.clone()),
            net: TraceNetwork::new(trace),
            qoe_sum: 0.0,
            chunks: 0,
            chunk_qoe: record_chunks.then(Vec::new),
            quarantined: false,
        }
    }

    /// Session identifier (equals its index in the fleet and the seed
    /// offset of its trace).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether every chunk of the video has been fetched.
    pub fn finished(&self) -> bool {
        self.player.finished()
    }

    /// Whether the supervisor has quarantined this session.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Mark the session quarantined: its QoE is no longer trusted and
    /// is excluded from fleet aggregation; a fallback policy drives the
    /// remaining chunks. Irreversible for the life of the session.
    pub fn quarantine(&mut self) {
        self.quarantined = true;
    }

    /// The observation the policy conditions on for the next chunk,
    /// written into `obs` ([`Player::observation_into`]: every field is
    /// overwritten, so one scratch serves a whole shard).
    pub fn observation_into(&self, obs: &mut AbrObservation) {
        self.player.observation_into(&self.net, obs)
    }

    /// Fetch the next chunk at `quality`; returns its QoE contribution.
    pub fn step(&mut self, quality: usize) -> f64 {
        let outcome = self.player.step(quality, &mut self.net);
        self.qoe_sum += outcome.qoe;
        self.chunks += 1;
        if let Some(traj) = &mut self.chunk_qoe {
            traj.push(outcome.qoe);
        }
        outcome.qoe
    }

    /// Per-chunk mean QoE so far (the paper's session metric).
    pub fn mean_qoe(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.qoe_sum / self.chunks as f64
        }
    }

    /// Consume the session into its result record.
    pub fn into_result(self) -> SessionResult {
        SessionResult {
            id: self.id,
            chunks: self.chunks,
            mean_qoe: if self.chunks == 0 { 0.0 } else { self.qoe_sum / self.chunks as f64 },
            chunk_qoe: self.chunk_qoe.unwrap_or_default(),
            quarantined: self.quarantined,
        }
    }
}

/// What one finished session contributes to the fleet summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// Session identifier (fleet index).
    pub id: u64,
    /// Chunks fetched (= policy decisions made).
    pub chunks: usize,
    /// Per-chunk mean QoE of the session.
    pub mean_qoe: f64,
    /// Per-chunk QoE trajectory; empty unless the engine ran with
    /// `record_chunks`.
    pub chunk_qoe: Vec<f64>,
    /// Whether the session was quarantined mid-stream; quarantined
    /// sessions complete under the fallback policy but their QoE is
    /// excluded from the fleet sketch.
    pub quarantined: bool,
}
