//! The adversary environment for adaptive video streaming (paper §3).
//!
//! Each adversary action is a choice of bandwidth in 0.8–4.8 Mbit/s for the
//! next chunk download. The adversary observes the protocol's reaction —
//! "the bitrate chosen by the protocol for the previous chunk, the client
//! buffer occupancy, the possible sizes of the next chunk, the number of
//! remaining chunks, and the throughput and download time for the last
//! downloaded video chunk" — with a history of the last 10 observations as
//! its state.
//!
//! Reward (Eq. 1 instantiated for ABR): `r_opt` is the highest possible QoE
//! over the last 4 network changes (computed exactly by
//! [`abr::windowed_optimal_qoe`]), `r_protocol` is the target's QoE over
//! the same window, and `p_smoothing` is the absolute difference between
//! the last two chosen bandwidths.

use abr::{AbrPolicy, Network, Player, QoeParams, Video};
use nn::ops::{scale_from_unit, scale_to_unit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Action, ActionSpace, Env, Snapshot, Step};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Features per history entry: bitrate, buffer, 6 chunk sizes, remaining,
/// throughput, download time.
pub const OBS_FIELDS: usize = 11;
/// History length (paper: "the history of the last 10 observations").
pub const OBS_HISTORY: usize = 10;
/// Total observation dimension.
pub const OBS_DIM: usize = OBS_FIELDS * OBS_HISTORY;

/// Bandwidth action range, Mbit/s (paper §3).
pub const BW_MIN_MBPS: f64 = 0.8;
pub const BW_MAX_MBPS: f64 = 4.8;

/// The policy acts in a normalized `[-1, 1]` space (the stable-baselines
/// convention the paper's PPO uses); the environment maps it affinely onto
/// the physical range and clips — "exploration and clipping done by PPO
/// will return the actions to the acceptable range".
pub fn bandwidth_from_action(raw: f64) -> f64 {
    scale_from_unit(raw, BW_MIN_MBPS, BW_MAX_MBPS)
}

/// Inverse of [`bandwidth_from_action`] (for tests and hand-built traces).
pub fn action_for_bandwidth(bw_mbps: f64) -> Action {
    Action::Continuous(vec![scale_to_unit(bw_mbps, BW_MIN_MBPS, BW_MAX_MBPS)])
}

/// Adversary environment configuration.
#[derive(Debug, Clone)]
pub struct AbrAdversaryConfig {
    /// Reward window: "the last 4 network changes".
    pub window: usize,
    /// Coefficient on the smoothing penalty `|bw_t − bw_{t−1}|`.
    pub smoothing_coef: f64,
    /// Request latency per chunk, ms (Pensieve's 80 ms link RTT).
    pub latency_ms: f64,
    /// QoE metric (the paper's `QoE_lin` by default).
    pub qoe: QoeParams,
}

impl Default for AbrAdversaryConfig {
    fn default() -> Self {
        AbrAdversaryConfig {
            window: 4,
            smoothing_coef: 1.0,
            latency_ms: 80.0,
            qoe: QoeParams::default(),
        }
    }
}

/// A per-chunk bandwidth schedule as an [`abr::Network`]: chunk `i`
/// downloads at `bws[i]`. This is both the adversary's live interface and
/// the replay mechanism for its recorded traces.
#[derive(Debug, Clone)]
pub struct ChunkNetwork {
    bws: Vec<f64>,
    latency_ms: f64,
    next: usize,
}

impl ChunkNetwork {
    /// A schedule may start empty (the live adversary pushes bandwidths as
    /// it acts); downloading from an empty schedule panics.
    pub fn new(bws: Vec<f64>, latency_ms: f64) -> Self {
        assert!(bws.iter().all(|&b| b > 0.0), "bandwidths must be positive");
        ChunkNetwork { bws, latency_ms, next: 0 }
    }

    /// Append the bandwidth for the next chunk (live adversary use).
    pub fn push(&mut self, bw_mbps: f64) {
        assert!(bw_mbps > 0.0);
        self.bws.push(bw_mbps);
    }

    /// Bandwidth that will serve the next download. Past the end of the
    /// schedule, the final bandwidth persists (a trace shorter than the
    /// video degrades gracefully). Panics on an empty schedule.
    pub fn upcoming_bandwidth(&self) -> f64 {
        *self
            .bws
            .get(self.next)
            .or(self.bws.last())
            .expect("no bandwidth scheduled before the first download")
    }

    pub fn schedule(&self) -> &[f64] {
        &self.bws
    }
}

impl Network for ChunkNetwork {
    fn download(&mut self, bytes: f64) -> f64 {
        let bw = self.upcoming_bandwidth();
        self.next += 1;
        bytes * 8.0 / (bw * 1e6)
    }

    fn latency_s(&self) -> f64 {
        self.latency_ms / 1000.0
    }

    fn advance(&mut self, _dt: f64) {}
}

/// Pre-chunk state snapshot for the windowed-optimum reward.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    buffer_before_s: f64,
    last_quality_before: Option<usize>,
    chunk_index: usize,
    bw_mbps: f64,
    protocol_qoe: f64,
}

/// The online ABR adversary environment (implements [`rl::Env`]).
///
/// Owns the target protocol, the video, and the streaming session. One
/// episode is one full video; one step is one chunk. `Clone` (for
/// `Clone` targets) yields an independent session, so the env can be
/// fanned out across [`exec`]-driven rollout workers.
#[derive(Debug, Clone)]
pub struct AbrAdversaryEnv<P: AbrPolicy> {
    target: P,
    /// Shared with every episode's player.
    video: Arc<Video>,
    cfg: AbrAdversaryConfig,
    player: Option<Player>,
    net: ChunkNetwork,
    history: VecDeque<[f64; OBS_FIELDS]>,
    window: VecDeque<WindowEntry>,
    last_bw: Option<f64>,
    /// Bandwidths chosen this episode (the adversarial trace).
    episode_bws: Vec<f64>,
    /// Per-chunk protocol QoE this episode.
    episode_qoe: Vec<f64>,
}

impl<P: AbrPolicy> AbrAdversaryEnv<P> {
    pub fn new(target: P, video: Video, cfg: AbrAdversaryConfig) -> Self {
        let latency = cfg.latency_ms;
        AbrAdversaryEnv {
            target,
            video: Arc::new(video),
            cfg,
            player: None,
            net: ChunkNetwork::new(Vec::new(), latency),
            history: VecDeque::with_capacity(OBS_HISTORY),
            window: VecDeque::new(),
            last_bw: None,
            episode_bws: Vec::new(),
            episode_qoe: Vec::new(),
        }
    }

    /// The bandwidth trace of the current/last episode.
    pub fn episode_trace(&self) -> &[f64] {
        &self.episode_bws
    }

    /// Per-chunk protocol QoE of the current/last episode.
    pub fn episode_qoe(&self) -> &[f64] {
        &self.episode_qoe
    }

    pub fn video(&self) -> &Video {
        &self.video
    }

    fn flat_observation(&self) -> Vec<f64> {
        let mut obs = vec![0.0; OBS_DIM];
        // most recent entry last, zero-padded at the front
        let offset = OBS_HISTORY - self.history.len();
        for (i, entry) in self.history.iter().enumerate() {
            obs[(offset + i) * OBS_FIELDS..(offset + i + 1) * OBS_FIELDS].copy_from_slice(entry);
        }
        obs
    }

    fn record_observation(&mut self) {
        let player = self.player.as_ref().expect("player exists");
        let o = player.observation(&self.net);
        let max_rate = *o.bitrates_mbps.last().expect("ladder");
        let mut e = [0.0; OBS_FIELDS];
        e[0] = o.last_quality.map(|q| o.bitrates_mbps[q] / max_rate).unwrap_or(0.0);
        e[1] = o.buffer_s / 10.0;
        for (k, s) in o.next_sizes.iter().take(6).enumerate() {
            e[2 + k] = s / 1e6;
        }
        e[8] = o.chunks_remaining as f64 / o.total_chunks.max(1) as f64;
        e[9] = o.throughput_mbps.last().copied().unwrap_or(0.0);
        e[10] = o.download_s.last().copied().unwrap_or(0.0) / 10.0;
        if self.history.len() == OBS_HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(e);
    }

    /// Eq. 1 over the last `window` chunks.
    fn window_reward(&self, smooth_penalty: f64) -> f64 {
        if self.window.is_empty() {
            return -smooth_penalty;
        }
        let first = self.window.front().expect("non-empty window");
        let bws: Vec<f64> = self.window.iter().map(|w| w.bw_mbps).collect();
        let r_opt = abr::windowed_optimal_qoe(
            &self.video,
            &self.cfg.qoe,
            first.chunk_index,
            &bws,
            self.cfg.latency_ms / 1000.0,
            first.buffer_before_s,
            first.last_quality_before,
        );
        let r_proto: f64 = self.window.iter().map(|w| w.protocol_qoe).sum();
        (r_opt - r_proto) / self.window.len() as f64 - smooth_penalty
    }
}

impl<P: AbrPolicy> Env for AbrAdversaryEnv<P> {
    fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    fn action_space(&self) -> ActionSpace {
        // normalized action space; see [`bandwidth_from_action`]
        ActionSpace::Continuous { low: vec![-1.0], high: vec![1.0] }
    }

    fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
        self.player = Some(Player::new(Arc::clone(&self.video), self.cfg.qoe.clone()));
        // empty schedule: the adversary supplies the bandwidth before each
        // download
        self.net = ChunkNetwork::new(Vec::new(), self.cfg.latency_ms);
        self.target.reset();
        self.history.clear();
        self.window.clear();
        self.last_bw = None;
        self.episode_bws.clear();
        self.episode_qoe.clear();
        self.record_observation();
        self.flat_observation()
    }

    fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
        self.advance(bandwidth_from_action(action.vector()[0]))
    }
}

impl<P: AbrPolicy> AbrAdversaryEnv<P> {
    /// One chunk download at the given (already clipped) bandwidth. Split
    /// out of [`Env::step`] so [`Snapshot::restore`] can replay recorded
    /// bandwidths bit-exactly, without a lossy action-space roundtrip.
    fn advance(&mut self, bw: f64) -> Step {
        self.net.push(bw);
        self.episode_bws.push(bw);

        let (outcome, snapshot) = {
            let player = self.player.as_mut().expect("reset() before step()");
            let snapshot = (player.buffer_s(), player.last_quality(), player.next_chunk());
            let obs = player.observation(&self.net);
            let q = self.target.select(&obs);
            (player.step(q, &mut self.net), snapshot)
        };
        self.episode_qoe.push(outcome.qoe);

        if self.window.len() == self.cfg.window {
            self.window.pop_front();
        }
        self.window.push_back(WindowEntry {
            buffer_before_s: snapshot.0,
            last_quality_before: snapshot.1,
            chunk_index: snapshot.2,
            bw_mbps: bw,
            protocol_qoe: outcome.qoe,
        });

        let smooth = self.cfg.smoothing_coef * self.last_bw.map(|p| (bw - p).abs()).unwrap_or(0.0);
        self.last_bw = Some(bw);
        let reward = self.window_reward(smooth);

        self.record_observation();
        let done = self.player.as_ref().expect("player").finished();
        Step { obs: self.flat_observation(), reward, done }
    }
}

/// Serialized mid-episode position: everything else (player, window,
/// history, target state) is a deterministic function of the replayed
/// bandwidths, since `reset` and `step` draw no randomness.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct AbrAdvSnap {
    started: bool,
    bws: Vec<f64>,
}

impl<P: AbrPolicy> Snapshot for AbrAdversaryEnv<P> {
    fn snapshot(&self) -> Value {
        AbrAdvSnap { started: self.player.is_some(), bws: self.episode_bws.clone() }.to_value()
    }

    fn restore(&mut self, v: &Value) -> Result<(), serde::Error> {
        let snap = AbrAdvSnap::from_value(v)?;
        // reset/step ignore the RNG, so a dummy stream is sufficient
        let mut rng = StdRng::seed_from_u64(0);
        if !snap.started {
            self.player = None;
            return Ok(());
        }
        self.reset(&mut rng);
        for &bw in &snap.bws {
            self.advance(bw);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr::BufferBased;
    use rand::SeedableRng;

    fn env() -> AbrAdversaryEnv<BufferBased> {
        AbrAdversaryEnv::new(
            BufferBased::pensieve_defaults(),
            Video::cbr(),
            AbrAdversaryConfig::default(),
        )
    }

    #[test]
    fn episode_is_one_video() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(0);
        let obs = e.reset(&mut rng);
        assert_eq!(obs.len(), OBS_DIM);
        let mut steps = 0;
        loop {
            let s = e.step(&action_for_bandwidth(2.0), &mut rng);
            steps += 1;
            if s.done {
                break;
            }
            assert!(steps <= 48);
        }
        assert_eq!(steps, 48);
        assert_eq!(e.episode_trace().len(), 48);
        assert_eq!(e.episode_qoe().len(), 48);
    }

    #[test]
    fn actions_are_clipped_to_paper_range() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(0);
        e.reset(&mut rng);
        e.step(&Action::Continuous(vec![99.0]), &mut rng);
        e.step(&Action::Continuous(vec![-5.0]), &mut rng);
        assert_eq!(e.episode_trace(), &[BW_MAX_MBPS, BW_MIN_MBPS]);
    }

    #[test]
    fn smoothing_penalizes_oscillation() {
        let mut rng = StdRng::seed_from_u64(0);
        // constant bandwidth: no smoothing penalty after the first step
        let mut e1 = env();
        e1.reset(&mut rng);
        let mut smooth_total = 0.0;
        for _ in 0..10 {
            smooth_total += e1.step(&action_for_bandwidth(2.0), &mut rng).reward;
        }
        // oscillating bandwidth: pays |Δbw| = 3.0 every step
        let mut e2 = env();
        e2.reset(&mut rng);
        let mut osc_total = 0.0;
        for i in 0..10 {
            let bw = if i % 2 == 0 { 1.0 } else { 4.0 };
            osc_total += e2.step(&action_for_bandwidth(bw), &mut rng).reward;
        }
        // oscillation may also hurt BB (raising r_opt − r_proto), but the
        // explicit penalty must make the *reward minus gap* clearly worse;
        // verify at least that the penalty term is present by magnitude
        assert!(
            osc_total < smooth_total + 15.0,
            "oscillation reward should carry the smoothing cost: {osc_total} vs {smooth_total}"
        );
    }

    #[test]
    fn reward_is_nonneg_gap_minus_smoothing() {
        // A protocol that plays optimally given the window cannot yield a
        // large positive reward; the gap term is bounded below by 0.
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(1);
        e.reset(&mut rng);
        let s = e.step(&action_for_bandwidth(4.8), &mut rng);
        // single chunk, constant bw, BB picks lowest quality first: gap can
        // be positive but finite; smoothing is zero on the first step
        assert!(s.reward > -0.5 && s.reward < 10.0, "reward {}", s.reward);
    }

    #[test]
    fn chunk_network_replays_schedule() {
        let mut net = ChunkNetwork::new(vec![1.0, 2.0, 4.0], 0.0);
        // 1 MB at 1 Mbit/s = 8 s; at 2 = 4 s; at 4 = 2 s; then sticks at 4
        assert!((net.download(1e6) - 8.0).abs() < 1e-9);
        assert!((net.download(1e6) - 4.0).abs() < 1e-9);
        assert!((net.download(1e6) - 2.0).abs() < 1e-9);
        assert!((net.download(1e6) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_restore_resumes_mid_episode_exactly() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(4);
        e.reset(&mut rng);
        for bw in [1.0, 4.5, 2.2, 0.9, 3.3] {
            e.step(&action_for_bandwidth(bw), &mut rng);
        }

        let snap = e.snapshot();
        let mut twin = env();
        twin.restore(&snap).unwrap();
        assert_eq!(twin.episode_trace(), e.episode_trace());
        assert_eq!(twin.episode_qoe(), e.episode_qoe());

        loop {
            let a = e.step(&action_for_bandwidth(2.0), &mut rng);
            let b = twin.step(&action_for_bandwidth(2.0), &mut rng);
            assert_eq!(a.obs, b.obs);
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
            assert_eq!(a.done, b.done);
            if a.done {
                break;
            }
        }
    }

    #[test]
    fn snapshot_of_unstarted_env_restores_to_unstarted() {
        let e = env();
        let snap = e.snapshot();
        let mut other = env();
        let mut rng = StdRng::seed_from_u64(0);
        other.reset(&mut rng);
        other.restore(&snap).unwrap();
        assert!(other.player.is_none());
    }

    #[test]
    fn observation_history_padded_then_rolls() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(0);
        let obs0 = e.reset(&mut rng);
        // only one entry recorded: everything before it must be zero
        assert!(obs0[..OBS_FIELDS * (OBS_HISTORY - 1)].iter().all(|&x| x == 0.0));
        for _ in 0..12 {
            e.step(&action_for_bandwidth(2.0), &mut rng);
        }
        let obs = e.flat_observation();
        // the remaining-chunks feature of the oldest entry is now non-zero
        assert!(obs[8] > 0.0, "history should be full after 12 steps");
    }
}
