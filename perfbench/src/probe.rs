//! Timing wrappers the traced run places around the layers it attributes
//! time to: the protocol under attack (`AbrPolicy`, `CongestionControl`)
//! and the environment the trainer steps (`rl::Env` + `Snapshot`). Each
//! forwards every call unchanged, so a traced run trains bit-identically
//! to an untraced one; the report checks that through the digests.

use abr::{AbrObservation, AbrPolicy};
use netsim::{AckEvent, BitsPerSec, CongestionControl, Nanosecs};
use rand::rngs::StdRng;
use rl::{Action, ActionSpace, Env, Snapshot, Step};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("probe tally lock poisoned by a panicking rollout")
}

/// Cost of reading the clock around an empty region (median of many),
/// subtracted once per timed call from sums of very short calls.
pub fn clock_overhead_s() -> f64 {
    let mut v: Vec<f64> = (0..1001).map(|_| Instant::now().elapsed().as_secs_f64()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// An `AbrPolicy` whose `select` latencies are logged.
#[derive(Clone)]
pub struct TimedPolicy<P> {
    inner: P,
    micros: Arc<Mutex<Vec<f64>>>,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        TimedPolicy { inner, micros: Arc::default() }
    }

    /// Handle on the latency log (µs per `select`), shared by clones.
    pub fn log(&self) -> Arc<Mutex<Vec<f64>>> {
        Arc::clone(&self.micros)
    }
}

impl<P: AbrPolicy + Clone + Send + 'static> AbrPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        let t0 = Instant::now();
        let q = self.inner.select(obs);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        lock(&self.micros).push(us);
        q
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn clone_box(&self) -> Box<dyn AbrPolicy + Send> {
        Box::new(self.clone())
    }
}

/// What a congestion controller was asked to do, and how long it took.
#[derive(Debug, Default, Clone, Copy)]
pub struct CcTally {
    /// `on_ack` calls (one per ACK).
    pub acks: u64,
    /// `on_loss` calls.
    pub losses: u64,
    /// `on_rto` calls.
    pub rtos: u64,
    /// `pacing_rate` + `cwnd_packets` calls. These are O(1) getters,
    /// cheaper than the clock read that would time them, so they are
    /// counted, not timed; their time falls to the simulator.
    pub consults: u64,
    /// Seconds inside `on_ack`, `on_loss` and `on_rto`, clock cost included.
    pub secs: f64,
}

impl CcTally {
    /// Calls whose time is in `secs`.
    pub fn timed_calls(&self) -> u64 {
        self.acks + self.rtos + self.losses
    }

    fn add(&mut self, o: &CcTally) {
        self.acks += o.acks;
        self.losses += o.losses;
        self.rtos += o.rtos;
        self.consults += o.consults;
        self.secs += o.secs;
    }
}

/// A `CongestionControl` that tallies its callbacks locally and adds them
/// to the shared tally when the simulator drops it at the end of an
/// episode (so the hot path takes no lock).
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
    local: Cell<CcTally>,
    shared: Arc<Mutex<CcTally>>,
}

impl TimedCc {
    pub fn new(inner: Box<dyn CongestionControl>, shared: Arc<Mutex<CcTally>>) -> Self {
        TimedCc { inner, local: Cell::new(CcTally::default()), shared }
    }

    /// Charge the time since `t0` and one call's counts to the local tally.
    fn charge(&self, t0: Instant, count: impl FnOnce(&mut CcTally)) {
        let dt = t0.elapsed().as_secs_f64();
        let mut t = self.local.get();
        count(&mut t);
        t.secs += dt;
        self.local.set(t);
    }
}

impl Drop for TimedCc {
    fn drop(&mut self) {
        // never panic in drop: a poisoned tally only loses this episode
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(&self.local.get());
        }
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        let t0 = Instant::now();
        self.inner.on_ack(ack);
        self.charge(t0, |t| t.acks += 1);
    }

    fn on_loss(&mut self, lost: usize, now: Nanosecs) {
        let t0 = Instant::now();
        self.inner.on_loss(lost, now);
        self.charge(t0, |t| t.losses += 1);
    }

    fn on_rto(&mut self, now: Nanosecs) {
        let t0 = Instant::now();
        self.inner.on_rto(now);
        self.charge(t0, |t| t.rtos += 1);
    }

    fn pacing_rate(&self) -> BitsPerSec {
        let mut t = self.local.get();
        t.consults += 1;
        self.local.set(t);
        self.inner.pacing_rate()
    }

    fn cwnd_packets(&self) -> f64 {
        let mut t = self.local.get();
        t.consults += 1;
        self.local.set(t);
        self.inner.cwnd_packets()
    }
}

/// Environments that expose per-interval link utilization to the checks.
pub trait Utilization {
    /// Utilization of every interval of the current episode so far.
    fn utilization(&self) -> &[f64] {
        &[]
    }
}

impl<P: AbrPolicy> Utilization for adversary::AbrAdversaryEnv<P> {}

impl Utilization for abr::AbrTrainEnv {}

impl Utilization for adversary::CcAdversaryEnv {
    fn utilization(&self) -> &[f64] {
        &self.episode_trace().utilization
    }
}

/// Time and outcomes of an environment's `step`/`reset` calls.
#[derive(Debug, Clone)]
pub struct EnvTally {
    pub steps: u64,
    /// Seconds inside `step` and `reset`.
    pub secs: f64,
    /// Range of every interval utilization seen (`+inf`/`-inf` if none).
    pub util_min: f64,
    pub util_max: f64,
}

impl Default for EnvTally {
    fn default() -> Self {
        EnvTally { steps: 0, secs: 0.0, util_min: f64::INFINITY, util_max: f64::NEG_INFINITY }
    }
}

/// An `rl::Env` whose `step`/`reset` time, step count and interval
/// utilizations are recorded.
#[derive(Clone)]
pub struct TimedEnv<E> {
    inner: E,
    tally: Arc<Mutex<EnvTally>>,
    /// Utilization entries of the current episode already checked.
    seen: usize,
}

impl<E> TimedEnv<E> {
    pub fn new(inner: E) -> Self {
        TimedEnv { inner, tally: Arc::default(), seen: 0 }
    }

    pub fn tally(&self) -> EnvTally {
        lock(&self.tally).clone()
    }
}

impl<E: Env + Utilization> Env for TimedEnv<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let t0 = Instant::now();
        let obs = self.inner.reset(rng);
        lock(&self.tally).secs += t0.elapsed().as_secs_f64();
        self.seen = 0;
        obs
    }

    fn step(&mut self, action: &Action, rng: &mut StdRng) -> Step {
        let t0 = Instant::now();
        let step = self.inner.step(action, rng);
        let dt = t0.elapsed().as_secs_f64();
        let util = self.inner.utilization();
        let mut t = lock(&self.tally);
        t.steps += 1;
        t.secs += dt;
        for &u in &util[self.seen.min(util.len())..] {
            t.util_min = t.util_min.min(u);
            t.util_max = t.util_max.max(u);
        }
        self.seen = util.len();
        drop(t);
        step
    }

    fn decorrelate(&mut self, stream_seed: u64) {
        self.inner.decorrelate(stream_seed)
    }
}

impl<E: Snapshot> Snapshot for TimedEnv<E> {
    fn snapshot(&self) -> serde::Value {
        self.inner.snapshot()
    }

    fn restore(&mut self, v: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore(v)
    }
}
