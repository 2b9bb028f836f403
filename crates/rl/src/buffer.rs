//! Rollout storage and generalized advantage estimation.

use crate::env::Action;

/// One environment transition as stored during rollout collection.
#[derive(Debug, Clone)]
pub struct Transition {
    pub obs: Vec<f64>,
    pub action: Action,
    pub reward: f64,
    pub done: bool,
    /// log π(a|s) at collection time (for the PPO ratio).
    pub log_prob: f64,
    /// V(s) at collection time (for GAE).
    pub value: f64,
}

/// A batch of transitions collected under one policy snapshot.
#[derive(Debug, Clone, Default)]
pub struct RolloutBuffer {
    pub transitions: Vec<Transition>,
    /// Value of the observation *after* the final transition, for
    /// bootstrapping when the rollout ends mid-episode.
    pub last_value: f64,
    /// GAE advantages, filled by [`RolloutBuffer::compute_gae`].
    pub advantages: Vec<f64>,
    /// Discounted return targets (`advantage + value`).
    pub returns: Vec<f64>,
}

impl RolloutBuffer {
    pub fn with_capacity(n: usize) -> Self {
        RolloutBuffer {
            transitions: Vec::with_capacity(n),
            last_value: 0.0,
            advantages: Vec::new(),
            returns: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    pub fn clear(&mut self) {
        self.transitions.clear();
        self.advantages.clear();
        self.returns.clear();
        self.last_value = 0.0;
    }

    /// Compute GAE(λ) advantages and return targets in place.
    pub fn compute_gae(&mut self, gamma: f64, lambda: f64) {
        let (adv, ret) = gae(
            &self.transitions.iter().map(|t| t.reward).collect::<Vec<_>>(),
            &self.transitions.iter().map(|t| t.value).collect::<Vec<_>>(),
            &self.transitions.iter().map(|t| t.done).collect::<Vec<_>>(),
            self.last_value,
            gamma,
            lambda,
        );
        self.advantages = adv;
        self.returns = ret;
    }

    /// Normalize advantages to zero mean / unit std (PPO's standard trick).
    pub fn normalize_advantages(&mut self) {
        let m = nn::ops::mean(&self.advantages);
        let s = nn::ops::std_dev(&self.advantages).max(1e-8);
        for a in &mut self.advantages {
            *a = (*a - m) / s;
        }
    }

    /// Gather the observations of minibatch `indices` into one row-major
    /// batch matrix (row `s` holds the observation of `indices[s]`), the
    /// input format of `nn`'s batched forward/backward kernels.
    pub fn gather_obs(&self, indices: &[usize]) -> nn::Matrix {
        assert!(!indices.is_empty(), "gather_obs of an empty minibatch");
        let dim = self.transitions[indices[0]].obs.len();
        let mut data = Vec::with_capacity(indices.len() * dim);
        for &i in indices {
            let obs = &self.transitions[i].obs;
            assert_eq!(obs.len(), dim, "ragged observations in rollout buffer");
            data.extend_from_slice(obs);
        }
        nn::Matrix::from_vec(indices.len(), dim, data)
    }
}

/// Generalized advantage estimation.
///
/// `δ_t = r_t + γ·V(s_{t+1})·(1−done_t) − V(s_t)`,
/// `A_t = δ_t + γλ·(1−done_t)·A_{t+1}`; the value after the final
/// transition is `last_value`. Returns `(advantages, returns)` where
/// `returns[t] = advantages[t] + values[t]`.
pub fn gae(
    rewards: &[f64],
    values: &[f64],
    dones: &[bool],
    last_value: f64,
    gamma: f64,
    lambda: f64,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(rewards.len(), values.len());
    assert_eq!(rewards.len(), dones.len());
    let n = rewards.len();
    let mut adv = vec![0.0; n];
    let mut running = 0.0;
    for t in (0..n).rev() {
        let next_value = if t + 1 < n { values[t + 1] } else { last_value };
        let non_terminal = if dones[t] { 0.0 } else { 1.0 };
        let delta = rewards[t] + gamma * next_value * non_terminal - values[t];
        running = delta + gamma * lambda * non_terminal * running;
        adv[t] = running;
    }
    let ret: Vec<f64> = adv.iter().zip(values.iter()).map(|(a, v)| a + v).collect();
    (adv, ret)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gae_single_step_terminal() {
        // One terminal step: A = r − V(s).
        let (adv, ret) = gae(&[1.0], &[0.4], &[true], 99.0, 0.99, 0.95);
        assert!((adv[0] - 0.6).abs() < 1e-12);
        assert!((ret[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gae_bootstraps_nonterminal_tail() {
        let (adv, _) = gae(&[0.0], &[0.0], &[false], 1.0, 0.5, 1.0);
        // δ = 0 + 0.5·1 − 0 = 0.5
        assert!((adv[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gae_lambda_one_equals_discounted_returns() {
        // With λ=1, advantage = discounted return − value.
        let rewards = [1.0, 2.0, 3.0];
        let values = [0.5, 0.5, 0.5];
        let dones = [false, false, true];
        let gamma = 0.9;
        let (adv, ret) = gae(&rewards, &values, &dones, 0.0, gamma, 1.0);
        let g2 = 3.0;
        let g1 = 2.0 + gamma * g2;
        let g0 = 1.0 + gamma * g1;
        assert!((ret[0] - g0).abs() < 1e-12);
        assert!((ret[1] - g1).abs() < 1e-12);
        assert!((ret[2] - g2).abs() < 1e-12);
        assert!((adv[0] - (g0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn gae_resets_across_episode_boundary() {
        // done at t=0 must stop credit flowing from t=1's big reward.
        let (adv, _) = gae(&[0.0, 100.0], &[0.0, 0.0], &[true, true], 0.0, 0.99, 0.95);
        assert!(adv[0].abs() < 1e-12, "advantage leaked across done: {}", adv[0]);
        assert!((adv[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_gae_and_normalize() {
        let mut buf = RolloutBuffer::with_capacity(3);
        for (r, d) in [(1.0, false), (0.0, false), (2.0, true)] {
            buf.transitions.push(Transition {
                obs: vec![0.0],
                action: Action::Discrete(0),
                reward: r,
                done: d,
                log_prob: 0.0,
                value: 0.0,
            });
        }
        buf.compute_gae(0.99, 0.95);
        assert_eq!(buf.advantages.len(), 3);
        buf.normalize_advantages();
        let m = nn::ops::mean(&buf.advantages);
        let s = nn::ops::std_dev(&buf.advantages);
        assert!(m.abs() < 1e-9);
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn buffer_clear() {
        let mut buf = RolloutBuffer::with_capacity(1);
        buf.transitions.push(Transition {
            obs: vec![],
            action: Action::Discrete(0),
            reward: 1.0,
            done: true,
            log_prob: 0.0,
            value: 0.0,
        });
        buf.compute_gae(0.9, 0.9);
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.advantages.is_empty());
    }
}
