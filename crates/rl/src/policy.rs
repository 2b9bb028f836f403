//! Stochastic policy heads and the value baseline.

use crate::env::Action;
use nn::ops::{log_softmax, softmax};
use nn::{init, Activation, Mlp};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Common interface PPO needs from a policy.
pub trait PolicyHead {
    /// Sample an action and its log-probability.
    fn sample(&self, obs: &[f64], rng: &mut StdRng) -> (Action, f64);

    /// The mode of the action distribution (no exploration noise) — used for
    /// the paper's "deterministic actions" traces (Fig. 6).
    fn mode(&self, obs: &[f64]) -> Action;

    /// Log-probability of `action` under the current parameters.
    fn log_prob(&self, obs: &[f64], action: &Action) -> f64;

    /// Entropy of the action distribution at `obs`.
    fn entropy(&self, obs: &[f64]) -> f64;
}

/// Diagonal-Gaussian policy for continuous actions.
///
/// The mean comes from an MLP; the per-dimension log-standard-deviations are
/// free parameters independent of the state (the stable-baselines PPO
/// default the paper uses). Raw samples are unbounded; environments clip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianPolicy {
    pub mean_net: Mlp,
    pub log_std: Vec<f64>,
}

const LOG_STD_MIN: f64 = -5.0;
const LOG_STD_MAX: f64 = 2.0;
const HALF_LOG_2PI: f64 = 0.918_938_533_204_672_7; // 0.5 * ln(2π)

impl GaussianPolicy {
    /// New policy with hidden `sizes` (e.g. `&[obs, 32, 16, act]`) and an
    /// initial standard deviation `init_std` on every dimension.
    pub fn new(sizes: &[usize], init_std: f64, rng: &mut StdRng) -> Self {
        let act_dim = *sizes.last().expect("sizes non-empty");
        GaussianPolicy {
            mean_net: Mlp::new(sizes, Activation::Tanh, rng),
            log_std: vec![init_std.ln(); act_dim],
        }
    }

    /// Per-dimension standard deviations (log-stds clamped to the active
    /// range, then exponentiated). Pure function of `log_std`, so callers
    /// that hoist it out of per-sample loops get bit-identical results.
    pub fn stds(&self) -> Vec<f64> {
        self.log_std.iter().map(|l| l.clamp(LOG_STD_MIN, LOG_STD_MAX).exp()).collect()
    }

    /// Per-sample head math for the batched update path: given this
    /// sample's `mean` row (from a batched forward) and the hoisted `stds`,
    /// write `dL/dμ` into `dmean` and accumulate the log-std gradient.
    ///
    /// `dL/dμ = c_logp · (a − μ)/σ²` for the mean and
    /// `dL/dlogσ = c_logp · (z² − 1) + c_ent` for active log-stds, with
    /// the per-element operations of the per-sample gradient that the
    /// test module keeps as its oracle.
    #[allow(clippy::too_many_arguments)]
    pub fn dmean_row(
        &self,
        mean: &[f64],
        action: &[f64],
        stds: &[f64],
        c_logp: f64,
        c_ent: f64,
        dmean: &mut [f64],
        log_std_grad: &mut [f64],
    ) {
        for (d, (mu, (a, s))) in mean.iter().zip(action.iter().zip(stds.iter())).enumerate() {
            dmean[d] = c_logp * (a - mu) / (s * s);
        }
        for i in 0..self.log_std.len() {
            let z = (action[i] - mean[i]) / stds[i];
            let active = (LOG_STD_MIN..=LOG_STD_MAX).contains(&self.log_std[i]);
            if active {
                log_std_grad[i] += c_logp * (z * z - 1.0) + c_ent;
            }
        }
    }
}

impl PolicyHead for GaussianPolicy {
    fn sample(&self, obs: &[f64], rng: &mut StdRng) -> (Action, f64) {
        let mean = self.mean_net.forward(obs);
        let stds = self.stds();
        let mut a = Vec::with_capacity(mean.len());
        for (mu, s) in mean.iter().zip(stds.iter()) {
            a.push(mu + s * init::gaussian(rng));
        }
        let logp = gaussian_log_prob(&mean, &stds, &a);
        (Action::Continuous(a), logp)
    }

    fn mode(&self, obs: &[f64]) -> Action {
        Action::Continuous(self.mean_net.forward(obs))
    }

    fn log_prob(&self, obs: &[f64], action: &Action) -> f64 {
        let mean = self.mean_net.forward(obs);
        gaussian_log_prob(&mean, &self.stds(), action.vector())
    }

    fn entropy(&self, _obs: &[f64]) -> f64 {
        // H = Σ_i (log σ_i + ½ log 2πe); state-independent.
        self.stds().iter().map(|s| s.ln() + HALF_LOG_2PI + 0.5).sum()
    }
}

/// Log-density of a diagonal Gaussian, summed over dimensions in order.
/// Shared by sampling and the update (and the per-sample oracle in the
/// tests) so all produce the same bits from the same `(mean, stds, action)`.
pub(crate) fn gaussian_log_prob(mean: &[f64], stds: &[f64], a: &[f64]) -> f64 {
    mean.iter()
        .zip(stds.iter().zip(a.iter()))
        .map(|(mu, (s, ai))| {
            let z = (ai - mu) / s;
            -0.5 * z * z - s.ln() - HALF_LOG_2PI
        })
        .sum()
}

/// Softmax policy over `n` discrete actions, logits from an MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoricalPolicy {
    pub logits_net: Mlp,
}

impl CategoricalPolicy {
    /// New policy; the last entry of `sizes` is the number of actions.
    pub fn new(sizes: &[usize], rng: &mut StdRng) -> Self {
        CategoricalPolicy { logits_net: Mlp::new(sizes, Activation::Tanh, rng) }
    }

    pub fn n_actions(&self) -> usize {
        self.logits_net.output_dim()
    }

    /// Action probabilities at `obs`.
    pub fn probs(&self, obs: &[f64]) -> Vec<f64> {
        softmax(&self.logits_net.forward(obs))
    }

    /// [`PolicyHead::sample`] and [`PolicyHead::entropy`] at `obs` from one
    /// logits forward: both read the same `log_softmax` row, with the
    /// expressions of the separate calls, so the three results carry the
    /// same bits as `sample` followed by `entropy`.
    pub fn sample_with_entropy(&self, obs: &[f64], rng: &mut StdRng) -> (Action, f64, f64) {
        let lp = log_softmax(&self.logits_net.forward(obs));
        let (action, logp) = sample_log_probs(&lp, rng);
        (action, logp, entropy_of_log_probs(&lp))
    }

    /// Per-sample head math for the batched update path: given this
    /// sample's log-softmax row `logp` (from a batched forward), write
    /// `dL/d(logits)` into `dlogits`.
    ///
    /// `∂logπ(a)/∂l_j = δ_{ja} − p_j` and `∂H/∂l_j = −p_j(log p_j + H)`,
    /// with the per-element operations of the per-sample gradient that
    /// the test module keeps as its oracle.
    pub fn dlogits_row(
        &self,
        logp: &[f64],
        action: usize,
        c_logp: f64,
        c_ent: f64,
        dlogits: &mut [f64],
    ) {
        let p: Vec<f64> = logp.iter().map(|l| l.exp()).collect();
        let entropy: f64 = -p.iter().zip(logp.iter()).map(|(pi, li)| pi * li).sum::<f64>();
        for j in 0..logp.len() {
            let dlp = if j == action { 1.0 - p[j] } else { -p[j] };
            let dent = -p[j] * (logp[j] + entropy);
            dlogits[j] = c_logp * dlp + c_ent * dent;
        }
    }
}

/// Draw an action from log-probabilities `lp` by inverse CDF; returns it
/// with its log-probability.
fn sample_log_probs(lp: &[f64], rng: &mut StdRng) -> (Action, f64) {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let mut chosen = lp.len() - 1;
    for (i, l) in lp.iter().enumerate() {
        acc += l.exp();
        if u < acc {
            chosen = i;
            break;
        }
    }
    (Action::Discrete(chosen), lp[chosen])
}

/// Entropy `−Σ p log p` of the distribution with log-probabilities `lp`.
fn entropy_of_log_probs(lp: &[f64]) -> f64 {
    -lp.iter().map(|l| l.exp() * l).sum::<f64>()
}

impl PolicyHead for CategoricalPolicy {
    fn sample(&self, obs: &[f64], rng: &mut StdRng) -> (Action, f64) {
        sample_log_probs(&log_softmax(&self.logits_net.forward(obs)), rng)
    }

    fn mode(&self, obs: &[f64]) -> Action {
        let logits = self.logits_net.forward(obs);
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty logits");
        Action::Discrete(best)
    }

    fn log_prob(&self, obs: &[f64], action: &Action) -> f64 {
        log_softmax(&self.logits_net.forward(obs))[action.index()]
    }

    fn entropy(&self, obs: &[f64]) -> f64 {
        entropy_of_log_probs(&log_softmax(&self.logits_net.forward(obs)))
    }
}

/// State-value network `V(s)` used as the PPO baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueNet {
    pub net: Mlp,
}

impl ValueNet {
    /// `sizes` must end in 1.
    pub fn new(sizes: &[usize], rng: &mut StdRng) -> Self {
        assert_eq!(*sizes.last().unwrap(), 1, "value net must output a scalar");
        ValueNet { net: Mlp::new(sizes, Activation::Tanh, rng) }
    }

    pub fn value(&self, obs: &[f64]) -> f64 {
        self.net.forward(obs)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::MlpGrads;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    // The per-sample gradients: the oracle for the batched update's head
    // math (`dmean_row`, `dlogits_row`) and `nn::Mlp::grads_batch`, which
    // `ppo::oracle` runs whole trainings through, and the subject of the
    // finite-difference checks below.
    impl GaussianPolicy {
        /// Accumulate ∂L/∂θ given upstream coefficients:
        /// `L = c_logp · log π(a|s) + c_ent · H(π(·|s))`.
        ///
        /// Gradients w.r.t. the mean network go into `grads`; gradients w.r.t.
        /// the log-std vector are *added* into `log_std_grad`.
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn accumulate_grads(
            &self,
            obs: &[f64],
            action: &[f64],
            c_logp: f64,
            c_ent: f64,
            cache: &mut nn::Cache,
            grads: &mut MlpGrads,
            log_std_grad: &mut [f64],
        ) {
            let mean = self.mean_net.forward_cached(obs, cache);
            let stds = self.stds();
            // dL/dμ_i = c_logp * (a_i − μ_i)/σ_i²
            let dmean: Vec<f64> = mean
                .iter()
                .zip(action.iter().zip(stds.iter()))
                .map(|(mu, (a, s))| c_logp * (a - mu) / (s * s))
                .collect();
            self.mean_net.backward(cache, &dmean, grads);
            // dL/dlogσ_i = c_logp * (((a_i − μ_i)/σ_i)² − 1) + c_ent * 1
            for i in 0..self.log_std.len() {
                let z = (action[i] - mean[i]) / stds[i];
                // clamped log-stds have zero gradient outside the active range
                let active = (LOG_STD_MIN..=LOG_STD_MAX).contains(&self.log_std[i]);
                if active {
                    log_std_grad[i] += c_logp * (z * z - 1.0) + c_ent;
                }
            }
        }
    }

    impl CategoricalPolicy {
        /// Accumulate ∂L/∂θ for `L = c_logp · log π(a|s) + c_ent · H(π(·|s))`.
        pub(crate) fn accumulate_grads(
            &self,
            obs: &[f64],
            action: usize,
            c_logp: f64,
            c_ent: f64,
            cache: &mut nn::Cache,
            grads: &mut MlpGrads,
        ) {
            let logits = self.logits_net.forward_cached(obs, cache);
            let logp = log_softmax(&logits);
            let p: Vec<f64> = logp.iter().map(|l| l.exp()).collect();
            let entropy: f64 = -p.iter().zip(logp.iter()).map(|(pi, li)| pi * li).sum::<f64>();
            // ∂logπ(a)/∂l_j = δ_{ja} − p_j ;  ∂H/∂l_j = −p_j (log p_j + H)
            let dlogits: Vec<f64> = (0..logits.len())
                .map(|j| {
                    let dlp = if j == action { 1.0 - p[j] } else { -p[j] };
                    let dent = -p[j] * (logp[j] + entropy);
                    c_logp * dlp + c_ent * dent
                })
                .collect();
            self.logits_net.backward(cache, &dlogits, grads);
        }
    }

    impl ValueNet {
        /// Accumulate gradient of `c * V(s)` into `grads`.
        pub(crate) fn accumulate_grads(
            &self,
            obs: &[f64],
            c: f64,
            cache: &mut nn::Cache,
            grads: &mut MlpGrads,
        ) {
            self.net.forward_cached(obs, cache);
            self.net.backward(cache, &[c], grads);
        }
    }

    #[test]
    fn gaussian_logprob_matches_formula() {
        let mut r = rng(1);
        let p = GaussianPolicy::new(&[2, 4, 1], 0.5, &mut r);
        let obs = [0.3, -0.7];
        let mean = p.mean_net.forward(&obs)[0];
        let a = Action::Continuous(vec![mean + 0.5]); // one std away
        let lp = p.log_prob(&obs, &a);
        let expected = -0.5 - (0.5_f64).ln() - HALF_LOG_2PI;
        assert!((lp - expected).abs() < 1e-9, "lp={lp} expected={expected}");
    }

    #[test]
    fn gaussian_mode_is_mean() {
        let mut r = rng(2);
        let p = GaussianPolicy::new(&[3, 4, 2], 1.0, &mut r);
        let obs = [0.1, 0.2, 0.3];
        assert_eq!(p.mode(&obs).vector(), p.mean_net.forward(&obs).as_slice());
    }

    #[test]
    fn gaussian_sample_statistics() {
        let mut r = rng(3);
        let p = GaussianPolicy::new(&[1, 4, 1], 0.3, &mut r);
        let obs = [0.5];
        let mean = p.mean_net.forward(&obs)[0];
        let n = 5000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&obs, &mut r).0.vector()[0]).collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 0.02, "sample mean {m} vs {mean}");
        assert!((v.sqrt() - 0.3).abs() < 0.02, "sample std {}", v.sqrt());
    }

    #[test]
    fn gaussian_entropy_grows_with_std() {
        let mut r = rng(4);
        let small = GaussianPolicy::new(&[1, 2, 1], 0.1, &mut r);
        let big = GaussianPolicy::new(&[1, 2, 1], 1.0, &mut r);
        assert!(big.entropy(&[0.0]) > small.entropy(&[0.0]));
    }

    #[test]
    fn gaussian_grads_match_finite_differences() {
        let mut r = rng(5);
        let p = GaussianPolicy::new(&[2, 4, 2], 0.7, &mut r);
        let obs = [0.4, -0.2];
        let act = [0.9, -1.1];
        let action = Action::Continuous(act.to_vec());
        let mut cache = p.mean_net.new_cache();
        let mut grads = MlpGrads::zeros_like(&p.mean_net);
        let mut ls_grad = vec![0.0; 2];
        p.accumulate_grads(&obs, &act, 1.0, 0.0, &mut cache, &mut grads, &mut ls_grad);

        let h = 1e-6;
        // mean-net weight check
        let mut plus = p.clone();
        let v0 = plus.mean_net.layers()[0].w.get(0, 0);
        plus.mean_net.layers_mut()[0].w.set(0, 0, v0 + h);
        let mut minus = p.clone();
        minus.mean_net.layers_mut()[0].w.set(0, 0, v0 - h);
        let fd = (plus.log_prob(&obs, &action) - minus.log_prob(&obs, &action)) / (2.0 * h);
        assert!((fd - grads.w[0].get(0, 0)).abs() < 1e-5, "fd={fd}");

        // log-std check
        let mut plus = p.clone();
        plus.log_std[1] += h;
        let mut minus = p.clone();
        minus.log_std[1] -= h;
        let fd = (plus.log_prob(&obs, &action) - minus.log_prob(&obs, &action)) / (2.0 * h);
        assert!((fd - ls_grad[1]).abs() < 1e-5, "fd={fd} an={}", ls_grad[1]);
    }

    #[test]
    fn gaussian_entropy_grad_wrt_log_std() {
        let mut r = rng(6);
        let p = GaussianPolicy::new(&[1, 2, 1], 0.5, &mut r);
        let mut cache = p.mean_net.new_cache();
        let mut grads = MlpGrads::zeros_like(&p.mean_net);
        let mut ls_grad = vec![0.0; 1];
        p.accumulate_grads(&[0.0], &[0.0], 0.0, 1.0, &mut cache, &mut grads, &mut ls_grad);
        // dH/dlogσ = 1 exactly
        assert!((ls_grad[0] - 1.0).abs() < 1e-12);
        assert_eq!(grads.sq_norm(), 0.0, "entropy has no mean-net gradient");
    }

    #[test]
    fn categorical_probs_sum_to_one() {
        let mut r = rng(7);
        let p = CategoricalPolicy::new(&[3, 8, 6], &mut r);
        let probs = p.probs(&[0.2, 0.4, -0.1]);
        assert_eq!(probs.len(), 6);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let mut r = rng(8);
        let p = CategoricalPolicy::new(&[2, 6, 3], &mut r);
        let obs = [0.5, -0.5];
        let probs = p.probs(&obs);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[p.sample(&obs, &mut r).0.index()] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - probs[i]).abs() < 0.02, "action {i}: {freq} vs {}", probs[i]);
        }
    }

    #[test]
    fn categorical_mode_is_argmax() {
        let mut r = rng(9);
        let p = CategoricalPolicy::new(&[2, 6, 4], &mut r);
        let obs = [1.0, -1.0];
        let probs = p.probs(&obs);
        let argmax =
            probs.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(p.mode(&obs).index(), argmax);
    }

    #[test]
    fn categorical_grads_match_finite_differences() {
        let mut r = rng(10);
        let p = CategoricalPolicy::new(&[2, 5, 3], &mut r);
        let obs = [0.3, 0.8];
        let action = 1usize;
        let mut cache = p.logits_net.new_cache();
        let mut grads = MlpGrads::zeros_like(&p.logits_net);
        p.accumulate_grads(&obs, action, 1.0, 0.5, &mut cache, &mut grads);

        let h = 1e-6;
        let loss = |q: &CategoricalPolicy| -> f64 {
            q.log_prob(&obs, &Action::Discrete(action)) + 0.5 * q.entropy(&obs)
        };
        for &(li, rr, cc) in &[(0usize, 0usize, 0usize), (1, 2, 3), (1, 0, 1)] {
            let mut plus = p.clone();
            let v = plus.logits_net.layers()[li].w.get(rr, cc);
            plus.logits_net.layers_mut()[li].w.set(rr, cc, v + h);
            let mut minus = p.clone();
            minus.logits_net.layers_mut()[li].w.set(rr, cc, v - h);
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * h);
            let an = grads.w[li].get(rr, cc);
            assert!((fd - an).abs() < 1e-5, "layer {li} [{rr},{cc}]: fd={fd} an={an}");
        }
    }

    #[test]
    fn categorical_entropy_bounds() {
        let mut r = rng(11);
        let p = CategoricalPolicy::new(&[1, 4, 5], &mut r);
        let h = p.entropy(&[0.0]);
        assert!(h > 0.0 && h <= (5.0_f64).ln() + 1e-12);
    }

    #[test]
    fn value_net_grads_match_finite_differences() {
        let mut r = rng(12);
        let v = ValueNet::new(&[3, 6, 1], &mut r);
        let obs = [0.1, -0.4, 0.9];
        let mut cache = v.net.new_cache();
        let mut grads = MlpGrads::zeros_like(&v.net);
        v.accumulate_grads(&obs, 2.0, &mut cache, &mut grads);
        let h = 1e-6;
        let mut plus = v.clone();
        let w0 = plus.net.layers()[0].w.get(0, 0);
        plus.net.layers_mut()[0].w.set(0, 0, w0 + h);
        let mut minus = v.clone();
        minus.net.layers_mut()[0].w.set(0, 0, w0 - h);
        let fd = 2.0 * (plus.value(&obs) - minus.value(&obs)) / (2.0 * h);
        assert!((fd - grads.w[0].get(0, 0)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "value net must output a scalar")]
    fn value_net_shape_enforced() {
        let mut r = rng(13);
        let _ = ValueNet::new(&[3, 6, 2], &mut r);
    }
}
