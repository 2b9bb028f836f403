//! Adversarial *cross traffic* against a victim flow (multi-flow mode).
//!
//! [`cc_env`](crate::cc_env) gives the adversary the link itself — it warps
//! bandwidth, latency and loss under a single sender. This environment is
//! the competing-sender variant the multi-flow simulator enables: the link
//! is honest and fixed, and the adversary instead drives a *cross-traffic
//! sender* sharing the bottleneck with the victim. Every 30 ms it picks the
//! cross flow's pacing rate; its reward is the damage done to the victim —
//! throughput stolen beyond the fair share, plus queueing delay inflicted —
//! minus a cost on the rate it spends:
//!
//! ```text
//! r = (1 − 2·U_victim) + delay_coef · (queue_delay_ms / 100) − rate_cost · rate_norm
//! ```
//!
//! With two flows the victim's fair share is half the link, so `1 −
//! 2·U_victim` is zero when the victim holds its share and positive only
//! when the adversary suppresses it below that. The rate cost makes naive
//! flooding unprofitable: blasting at line rate pays `rate_cost` forever,
//! so the interesting policies are *pulsed* — the on/off bursts that
//! exploit a protocol's congestion response rather than raw displacement.
//! The AQM at the bottleneck is pluggable ([`QdiscKind`]), so the same
//! adversary can be trained against drop-tail, RED and DCTCP-style ECN
//! regimes.

use crate::cc_env::INTERVAL;
use netsim::{
    BitsPerSec, CongestionControl, LinkParams, MultiFlowSim, QdiscKind, RateHandle, SharedRateCc,
    SimConfig,
};
use nn::ops::{scale_from_unit, scale_to_unit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Action, ActionSpace, Env, Snapshot, Step};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Flow key of the victim (the protocol under attack).
pub const VICTIM_FLOW: u64 = 0;
/// Flow key of the adversary-driven cross-traffic sender.
pub const CROSS_FLOW: u64 = 1;

/// Configuration of the cross-traffic adversary environment.
#[derive(Debug, Clone)]
pub struct CrossTrafficConfig {
    /// Range of cross-traffic pacing rates the adversary may choose (Mbit/s).
    pub rate_mbps: (f64, f64),
    /// The fixed, honest bottleneck link both flows share.
    pub link: LinkParams,
    /// Queueing discipline at the bottleneck.
    pub qdisc: QdiscKind,
    /// Adversary decisions per episode.
    pub episode_steps: usize,
    /// How many consecutive 30 ms intervals each decision is held for.
    pub action_repeat: usize,
    /// Reward per unit of normalized queueing delay inflicted (delay in ms
    /// is divided by 100 before weighting, matching the observation scale).
    pub delay_coef: f64,
    /// Cost per unit of normalized cross-traffic rate spent.
    pub rate_cost: f64,
    /// Simulator configuration (seed is overridden per episode).
    pub sim: SimConfig,
}

impl Default for CrossTrafficConfig {
    fn default() -> Self {
        CrossTrafficConfig {
            rate_mbps: (0.0, 24.0),
            link: LinkParams::new(12.0, 20.0, 0.0),
            qdisc: QdiscKind::DropTail,
            episode_steps: 300,
            action_repeat: 1,
            delay_coef: 0.1,
            rate_cost: 0.05,
            sim: SimConfig::default(),
        }
    }
}

/// A recorded cross-traffic attack: the per-step rate schedule and what it
/// did to the victim.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrossTrace {
    pub rate_mbps: Vec<f64>,
    pub victim_utilization: Vec<f64>,
    pub cross_utilization: Vec<f64>,
    pub queue_delay_ms: Vec<f64>,
}

impl CrossTrace {
    pub fn len(&self) -> usize {
        self.rate_mbps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rate_mbps.is_empty()
    }
}

/// The online cross-traffic adversary environment.
///
/// A fresh victim protocol, cross sender and simulator are built per
/// episode from the supplied factory (shared behind an [`Arc`] so the
/// environment clones into rollout workers, mirroring
/// [`CcAdversaryEnv`](crate::cc_env::CcAdversaryEnv)).
pub struct CrossTrafficEnv {
    make_cc: Arc<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync>,
    cfg: CrossTrafficConfig,
    sim: Option<MultiFlowSim>,
    handle: Option<RateHandle>,
    step_count: usize,
    episode: u64,
    last_obs: [f64; 3],
    trace: CrossTrace,
    /// Raw policy actions this episode (one scalar per step): the replay
    /// log for [`Snapshot`] — the simulator is a deterministic function of
    /// (sim seed, episode, actions).
    ep_actions: Vec<f64>,
}

impl CrossTrafficEnv {
    pub fn new(
        make_cc: Box<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync>,
        cfg: CrossTrafficConfig,
    ) -> Self {
        CrossTrafficEnv {
            make_cc: Arc::from(make_cc),
            cfg,
            sim: None,
            handle: None,
            step_count: 0,
            episode: 0,
            last_obs: [0.0; 3],
            trace: CrossTrace::default(),
            ep_actions: Vec::new(),
        }
    }

    /// The recorded attack of the current/last episode.
    pub fn episode_trace(&self) -> &CrossTrace {
        &self.trace
    }

    /// Replace the simulator seed base (rollout workers decorrelate their
    /// clones with this before the first episode).
    pub fn set_sim_seed(&mut self, seed: u64) {
        self.cfg.sim.seed = seed;
    }

    /// The normalized `[-1, 1]` action that selects `rate_mbps` (for tests
    /// and hand-built schedules).
    pub fn action_for(&self, rate_mbps: f64) -> Action {
        Action::Continuous(vec![scale_to_unit(
            rate_mbps,
            self.cfg.rate_mbps.0,
            self.cfg.rate_mbps.1,
        )])
    }
}

/// Clones are independent environments sharing the victim factory, starting
/// before their first episode — the state a rollout worker wants.
impl Clone for CrossTrafficEnv {
    fn clone(&self) -> Self {
        CrossTrafficEnv {
            make_cc: Arc::clone(&self.make_cc),
            cfg: self.cfg.clone(),
            sim: None,
            handle: None,
            step_count: 0,
            episode: 0,
            last_obs: [0.0; 3],
            trace: CrossTrace::default(),
            ep_actions: Vec::new(),
        }
    }
}

impl Env for CrossTrafficEnv {
    fn obs_dim(&self) -> usize {
        3 // victim utilization, queueing delay, cross-flow utilization
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { low: vec![-1.0], high: vec![1.0] }
    }

    fn reset(&mut self, _rng: &mut StdRng) -> Vec<f64> {
        self.episode += 1;
        let sim_cfg = SimConfig { seed: self.cfg.sim.seed ^ self.episode, ..self.cfg.sim.clone() };
        let mut sim = MultiFlowSim::with_qdisc(self.cfg.link, sim_cfg, self.cfg.qdisc.build());
        sim.add_flow(VICTIM_FLOW, (self.make_cc)());
        let mid = (self.cfg.rate_mbps.0 + self.cfg.rate_mbps.1) / 2.0;
        // effectively window-unlimited: the cross sender is pure paced load
        let (cross, handle) = SharedRateCc::new(BitsPerSec::from_mbps(mid), 1e9);
        sim.add_flow(CROSS_FLOW, Box::new(cross));
        self.sim = Some(sim);
        self.handle = Some(handle);
        self.step_count = 0;
        self.last_obs = [0.0; 3];
        self.trace = CrossTrace::default();
        self.ep_actions.clear();
        vec![0.0, 0.0, 0.0]
    }

    fn step(&mut self, action: &Action, _rng: &mut StdRng) -> Step {
        self.ep_actions.extend_from_slice(action.vector());
        let (lo, hi) = self.cfg.rate_mbps;
        let rate_mbps = scale_from_unit(action.vector()[0], lo, hi);
        let rate_norm = (rate_mbps - lo) / (hi - lo).max(1e-9);
        self.handle
            .as_ref()
            .expect("reset() before step()")
            .set_rate(BitsPerSec::from_mbps(rate_mbps));
        let sim = self.sim.as_mut().expect("reset() before step()");

        let repeat = self.cfg.action_repeat.max(1);
        let (mut victim_sum, mut cross_sum, mut qd_sum) = (0.0, 0.0, 0.0);
        for _ in 0..repeat {
            let stats = sim.run_for(INTERVAL);
            let mut victim_util = 0.0;
            let mut cross_util = 0.0;
            for (key, s) in &stats {
                match *key {
                    VICTIM_FLOW => victim_util = s.utilization,
                    CROSS_FLOW => cross_util = s.utilization,
                    other => unreachable!("unexpected flow key {other}"),
                }
            }
            let qd = sim.queue_delay_ms();
            victim_sum += victim_util;
            cross_sum += cross_util;
            qd_sum += qd;
            self.trace.rate_mbps.push(rate_mbps);
            self.trace.victim_utilization.push(victim_util);
            self.trace.cross_utilization.push(cross_util);
            self.trace.queue_delay_ms.push(qd);
        }
        let victim_util = victim_sum / repeat as f64;
        let cross_util = cross_sum / repeat as f64;
        let qd = qd_sum / repeat as f64;

        let reward = (1.0 - 2.0 * victim_util) + self.cfg.delay_coef * (qd / 100.0)
            - self.cfg.rate_cost * rate_norm;

        self.last_obs = [victim_util, qd / 100.0, cross_util];
        self.step_count += 1;
        Step {
            obs: self.last_obs.to_vec(),
            reward,
            done: self.step_count >= self.cfg.episode_steps,
        }
    }

    /// Give each rollout-worker clone its own per-episode simulator seed
    /// sequence (same convention as the single-flow CC adversary).
    fn decorrelate(&mut self, stream_seed: u64) {
        let mixed = self.cfg.sim.seed ^ stream_seed;
        self.set_sim_seed(mixed);
    }
}

/// Serialized mid-episode position; the simulator is rebuilt by replaying
/// the recorded actions against the per-episode seed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CrossSnap {
    started: bool,
    sim_seed: u64,
    episode: u64,
    actions: Vec<f64>,
}

impl Snapshot for CrossTrafficEnv {
    fn snapshot(&self) -> Value {
        CrossSnap {
            started: self.sim.is_some(),
            sim_seed: self.cfg.sim.seed,
            episode: self.episode,
            actions: self.ep_actions.clone(),
        }
        .to_value()
    }

    fn restore(&mut self, v: &Value) -> Result<(), serde::Error> {
        let snap = CrossSnap::from_value(v)?;
        self.cfg.sim.seed = snap.sim_seed;
        self.episode = snap.episode;
        if !snap.started {
            self.sim = None;
            self.handle = None;
            self.step_count = 0;
            return Ok(());
        }
        if snap.episode == 0 {
            return Err(serde::Error::custom(
                "cross-traffic snapshot claims a started episode but its counter is 0",
            ));
        }
        // reset() advances the episode counter before seeding, so rewind by
        // one and let it rebuild the simulator with the recorded seed.
        self.episode = snap.episode - 1;
        let mut rng = StdRng::seed_from_u64(0); // reset/step ignore the RNG
        self.reset(&mut rng);
        for raw in snap.actions.clone() {
            self.step(&Action::Continuous(vec![raw]), &mut rng);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc::Cubic;
    use rand::SeedableRng;

    fn env(steps: usize) -> CrossTrafficEnv {
        CrossTrafficEnv::new(
            Box::new(|| Box::new(Cubic::new())),
            CrossTrafficConfig { episode_steps: steps, ..CrossTrafficConfig::default() },
        )
    }

    #[test]
    fn episode_length_and_trace_recorded() {
        let mut e = env(40);
        let mut rng = StdRng::seed_from_u64(0);
        e.reset(&mut rng);
        let mut n = 0;
        loop {
            let s = e.step(&e.action_for(6.0), &mut rng);
            n += 1;
            if s.done {
                break;
            }
            assert!(n <= 40);
        }
        assert_eq!(n, 40);
        assert_eq!(e.episode_trace().len(), 40);
        assert!(e.episode_trace().rate_mbps.iter().all(|r| (r - 6.0).abs() < 1e-9));
    }

    #[test]
    fn flooding_suppresses_the_victim() {
        // Cross traffic at full range rate vs. none: the victim must lose
        // a meaningful share of the link when flooded.
        let run = |rate: f64| {
            let mut e = env(200);
            let mut rng = StdRng::seed_from_u64(0);
            e.reset(&mut rng);
            for _ in 0..200 {
                e.step(&e.action_for(rate), &mut rng);
            }
            let t = e.episode_trace();
            nn::ops::mean(&t.victim_utilization[100..])
        };
        let idle = run(0.0);
        let flood = run(24.0);
        assert!(idle > 0.7, "unopposed victim should fill the link: {idle}");
        assert!(flood < idle - 0.3, "flooding must displace the victim: {idle} -> {flood}");
    }

    #[test]
    fn rate_cost_charges_the_adversary() {
        let mut e = env(10);
        let mut rng = StdRng::seed_from_u64(0);
        e.reset(&mut rng);
        // first step: victim barely started, so the utilization term is
        // near its maximum for both; the rate cost must separate them
        let r_hi = e.step(&e.action_for(24.0), &mut rng).reward;
        e.reset(&mut rng);
        let r_lo = e.step(&e.action_for(0.0), &mut rng).reward;
        assert!(r_lo > r_hi - 1.0, "sanity: rewards comparable early on: {r_lo} vs {r_hi}");
    }

    #[test]
    fn snapshot_restore_resumes_mid_episode_exactly() {
        let mut e = env(30);
        let mut rng = StdRng::seed_from_u64(3);
        e.reset(&mut rng);
        for _ in 0..30 {
            e.step(&e.action_for(18.0), &mut rng);
        }
        e.reset(&mut rng);
        for i in 0..7 {
            e.step(&e.action_for(3.0 * i as f64), &mut rng);
        }

        let snap = e.snapshot();
        let mut twin = env(30);
        twin.restore(&snap).unwrap();

        for i in 0..10 {
            let act = e.action_for(24.0 - 2.0 * i as f64);
            let a = e.step(&act, &mut rng);
            let b = twin.step(&act, &mut rng);
            assert_eq!(a.obs, b.obs, "step {i}");
            assert_eq!(a.reward.to_bits(), b.reward.to_bits(), "step {i}");
            assert_eq!(a.done, b.done, "step {i}");
        }
    }

    #[test]
    fn episodes_are_reproducible_by_seed_and_decorrelate_diverges() {
        let run = |stream: Option<u64>| {
            let mut e = env(60);
            if let Some(s) = stream {
                e.decorrelate(s);
            }
            let mut rng = StdRng::seed_from_u64(0);
            e.reset(&mut rng);
            let mut total = 0.0;
            for i in 0..60 {
                total += e.step(&e.action_for((i % 5) as f64 * 6.0), &mut rng).reward;
            }
            total
        };
        assert_eq!(run(None), run(None));
        assert_eq!(run(Some(7)), run(Some(7)));
    }

    #[test]
    fn runs_under_every_qdisc() {
        for kind in QdiscKind::ALL {
            let mut e = CrossTrafficEnv::new(
                Box::new(|| Box::new(Cubic::new())),
                CrossTrafficConfig {
                    episode_steps: 20,
                    qdisc: kind,
                    ..CrossTrafficConfig::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(1);
            e.reset(&mut rng);
            for _ in 0..20 {
                let s = e.step(&e.action_for(18.0), &mut rng);
                assert!(s.reward.is_finite(), "{kind:?}");
            }
        }
    }
}
