//! The RL environment used to *train* Pensieve over a trace corpus.
//!
//! Each episode streams one full video over a trace sampled uniformly from
//! the corpus (with a random start offset, as the Pensieve simulator does);
//! each step downloads one chunk at the chosen quality and is rewarded with
//! the chunk's linear QoE. This is stage (1) of the paper's §2.3 pipeline;
//! stage (4) re-runs it with adversarial traces mixed into the corpus.

use crate::player::{Player, TraceNetwork};
use crate::protocols::pensieve::{pensieve_features, PENSIEVE_OBS_DIM};
use crate::qoe::QoeParams;
use crate::video::Video;
use rand::rngs::StdRng;
use rand::Rng;
use rl::{Action, ActionSpace, Env, Snapshot, Step};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use traces::Trace;

/// Pensieve training environment over a corpus of traces. `Clone` yields
/// an independent session over the same corpus, so training can fan the
/// env out across parallel rollout workers.
#[derive(Debug, Clone)]
pub struct AbrTrainEnv {
    corpus: Vec<Trace>,
    /// Shared with every episode's player.
    video: Arc<Video>,
    qoe: QoeParams,
    /// Scale factor applied to chunk QoE rewards (QoE per chunk is already
    /// O(1), so the default is 1.0).
    pub reward_scale: f64,
    player: Option<Player>,
    net: Option<TraceNetwork>,
    /// Episode replay log for [`Snapshot`]: which trace/offset the current
    /// episode started on, and the quality index of every step so far. The
    /// simulator is deterministic, so (trace, offset, actions) reconstructs
    /// the player and network exactly.
    ep: EpisodeLog,
}

/// Mid-episode position, serialized into training checkpoints.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct EpisodeLog {
    started: bool,
    trace_idx: usize,
    offset: f64,
    qualities: Vec<usize>,
}

impl AbrTrainEnv {
    /// Panics on an empty corpus.
    pub fn new(corpus: Vec<Trace>, video: Video, qoe: QoeParams) -> Self {
        assert!(!corpus.is_empty(), "training corpus must not be empty");
        for t in &corpus {
            t.validate();
        }
        AbrTrainEnv {
            corpus,
            video: Arc::new(video),
            qoe,
            reward_scale: 1.0,
            player: None,
            net: None,
            ep: EpisodeLog::default(),
        }
    }

    /// Replace the corpus (used by the adversarial-training pipeline when
    /// it injects adversarial traces mid-run).
    pub fn set_corpus(&mut self, corpus: Vec<Trace>) {
        assert!(!corpus.is_empty(), "training corpus must not be empty");
        self.corpus = corpus;
    }

    /// Current corpus (read-only).
    pub fn corpus(&self) -> &[Trace] {
        &self.corpus
    }

    pub fn video(&self) -> &Video {
        &self.video
    }

    fn observation(&self) -> Vec<f64> {
        let player = self.player.as_ref().expect("reset() before observation");
        let net = self.net.as_ref().expect("reset() before observation");
        pensieve_features(&player.observation(net))
    }
}

impl Env for AbrTrainEnv {
    fn obs_dim(&self) -> usize {
        PENSIEVE_OBS_DIM
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete { n: self.video.n_qualities() }
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let trace_idx = rng.gen_range(0..self.corpus.len());
        let trace = &self.corpus[trace_idx];
        let offset = rng.gen_range(0.0..trace.duration_s());
        self.ep = EpisodeLog { started: true, trace_idx, offset, qualities: Vec::new() };
        self.net = Some(TraceNetwork::starting_at(trace.clone(), offset));
        self.player = Some(Player::new(Arc::clone(&self.video), self.qoe.clone()));
        self.observation()
    }

    fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
        let player = self.player.as_mut().expect("reset() before step");
        let net = self.net.as_mut().expect("reset() before step");
        let quality = action.index().min(self.video.n_qualities() - 1);
        self.ep.qualities.push(quality);
        let outcome = player.step(quality, net);
        let done = player.finished();
        let obs = {
            let player = self.player.as_ref().unwrap();
            let net = self.net.as_ref().unwrap();
            pensieve_features(&player.observation(net))
        };
        Step { obs, reward: outcome.qoe * self.reward_scale, done }
    }
}

impl Snapshot for AbrTrainEnv {
    /// The episode log alone pins the full simulator state: the player and
    /// network are deterministic functions of (trace, offset, actions).
    fn snapshot(&self) -> Value {
        self.ep.to_value()
    }

    /// Rebuild the mid-episode player/network by replaying the recorded
    /// quality decisions against the recorded trace position.
    fn restore(&mut self, v: &Value) -> Result<(), serde::Error> {
        let ep = EpisodeLog::from_value(v)?;
        if !ep.started {
            self.player = None;
            self.net = None;
            self.ep = ep;
            return Ok(());
        }
        if ep.trace_idx >= self.corpus.len() {
            return Err(serde::Error::custom(format!(
                "snapshot trace index {} out of range for corpus of {} traces",
                ep.trace_idx,
                self.corpus.len()
            )));
        }
        let mut net = TraceNetwork::starting_at(self.corpus[ep.trace_idx].clone(), ep.offset);
        let mut player = Player::new(Arc::clone(&self.video), self.qoe.clone());
        for &q in &ep.qualities {
            player.step(q, &mut net);
        }
        self.net = Some(net);
        self.player = Some(player);
        self.ep = ep;
        Ok(())
    }
}

/// Train a Pensieve policy on `corpus` for `steps` environment steps;
/// returns the protocol wrapper plus the trainer (so training can be
/// *continued*, as the §2.3 pipeline requires).
pub fn train_pensieve(
    corpus: Vec<Trace>,
    video: Video,
    qoe: QoeParams,
    steps: usize,
    cfg: rl::PpoConfig,
) -> (crate::protocols::Pensieve, rl::Ppo, AbrTrainEnv) {
    let mut env = AbrTrainEnv::new(corpus, video, qoe);
    let mut ppo = rl::Ppo::new_categorical(PENSIEVE_OBS_DIM, 6, &[64, 32], cfg);
    ppo.train(&mut env, steps);
    let pensieve = crate::protocols::Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone());
    (pensieve, ppo, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traces::{Segment, Trace};

    fn tiny_corpus() -> Vec<Trace> {
        vec![
            Trace::new("a", vec![Segment::bw(300.0, 2.0, 40.0)]),
            Trace::new("b", vec![Segment::bw(300.0, 1.0, 40.0)]),
        ]
    }

    #[test]
    fn episode_lasts_one_video() {
        let mut env = AbrTrainEnv::new(tiny_corpus(), Video::cbr(), QoeParams::default());
        let mut rng = StdRng::seed_from_u64(0);
        let obs = env.reset(&mut rng);
        assert_eq!(obs.len(), PENSIEVE_OBS_DIM);
        let mut steps = 0;
        loop {
            let s = env.step(&Action::Discrete(1), &mut rng);
            steps += 1;
            if s.done {
                break;
            }
            assert!(steps < 100, "episode did not terminate");
        }
        assert_eq!(steps, 48);
    }

    #[test]
    fn rewards_are_chunk_qoe() {
        let mut env = AbrTrainEnv::new(
            vec![Trace::new("c", vec![Segment::bw(300.0, 10.0, 0.0)])],
            Video::cbr(),
            QoeParams::default(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        env.reset(&mut rng);
        env.step(&Action::Discrete(2), &mut rng);
        let s = env.step(&Action::Discrete(2), &mut rng);
        // steady 1.2 Mbit/s on a fat pipe: QoE = bitrate, no penalties
        assert!((s.reward - 1.2).abs() < 0.05, "reward {}", s.reward);
    }

    #[test]
    fn short_training_improves_reward() {
        let corpus: Vec<Trace> =
            (0..8).map(|i| traces::random_abr_trace(i, 80, 4.0, 40.0)).collect();
        let cfg = rl::PpoConfig {
            n_steps: 480,
            minibatch_size: 96,
            epochs: 4,
            lr: 1e-3,
            seed: 7,
            ..rl::PpoConfig::default()
        };
        let mut env = AbrTrainEnv::new(corpus, Video::cbr(), QoeParams::default());
        let mut ppo = rl::Ppo::new_categorical(PENSIEVE_OBS_DIM, 6, &[32, 16], cfg);
        let reports = ppo.train(&mut env, 12_000);
        let early = reports[0].mean_step_reward;
        let late = reports.last().unwrap().mean_step_reward;
        assert!(late > early, "training should improve QoE: {early} -> {late}");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_corpus_rejected() {
        AbrTrainEnv::new(vec![], Video::cbr(), QoeParams::default());
    }

    #[test]
    fn snapshot_restore_resumes_mid_episode_exactly() {
        let mut env = AbrTrainEnv::new(tiny_corpus(), Video::cbr(), QoeParams::default());
        let mut rng = StdRng::seed_from_u64(9);
        env.reset(&mut rng);
        for q in [0, 3, 1, 5, 2] {
            env.step(&Action::Discrete(q), &mut rng);
        }

        // Restore onto a pristine clone and step both in lockstep.
        let snap = env.snapshot();
        let mut twin = AbrTrainEnv::new(tiny_corpus(), Video::cbr(), QoeParams::default());
        twin.restore(&snap).unwrap();

        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        loop {
            let a = env.step(&Action::Discrete(2), &mut rng_a);
            let b = twin.step(&Action::Discrete(2), &mut rng_b);
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
        let env = AbrTrainEnv::new(tiny_corpus(), Video::cbr(), QoeParams::default());
        let snap = env.snapshot();
        let mut other = AbrTrainEnv::new(tiny_corpus(), Video::cbr(), QoeParams::default());
        let mut rng = StdRng::seed_from_u64(3);
        other.reset(&mut rng);
        other.restore(&snap).unwrap();
        assert!(other.player.is_none() && other.net.is_none());
    }

    #[test]
    fn snapshot_restore_rejects_out_of_range_trace() {
        let mut env = AbrTrainEnv::new(tiny_corpus(), Video::cbr(), QoeParams::default());
        let mut rng = StdRng::seed_from_u64(9);
        env.reset(&mut rng);
        let snap = env.snapshot();
        let mut small =
            AbrTrainEnv::new(vec![tiny_corpus().remove(0)], Video::cbr(), QoeParams::default());
        // Force the recorded index out of range for the smaller corpus.
        if env.ep.trace_idx == 0 {
            small.restore(&snap).unwrap(); // index 0 still fits
        }
        let mut ep = env.ep.clone();
        ep.trace_idx = 5;
        assert!(small.restore(&ep.to_value()).is_err());
    }
}
