//! First-order optimizers over `(Mlp, MlpGrads)` pairs.

use crate::matrix::Matrix;
use crate::mlp::{Mlp, MlpGrads};
use serde::{Deserialize, Serialize};

/// Plain stochastic gradient descent: `θ ← θ − lr · g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }

    /// Apply one descent step (`grads` holds dL/dθ for the loss to minimize).
    pub fn step(&self, net: &mut Mlp, grads: &MlpGrads) {
        for (li, layer) in net.layers_mut().iter_mut().enumerate() {
            layer.w.add_scaled(-self.lr, &grads.w[li]);
            for (b, g) in layer.b.iter_mut().zip(grads.b[li].iter()) {
                *b -= self.lr * g;
            }
        }
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
///
/// State is shaped like the network it was created for; do not reuse across
/// differently shaped networks. Serializable (moments included) so training
/// can checkpoint and resume bit-identically.
///
/// One [`Adam::step`] consumes a *summed* gradient buffer — whether that sum
/// came from a serial per-sample loop or [`crate::Mlp::grads_batch`] is
/// invisible to the optimizer, which is what lets the per-sample and
/// batched update paths stay bit-identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first-moment estimate.
    pub beta1: f64,
    /// Exponential decay for the second-moment estimate.
    pub beta2: f64,
    /// Denominator fuzz guarding against division by zero.
    pub eps: f64,
    t: u64,
    m: MlpGrads,
    v: MlpGrads,
}

impl Adam {
    /// Adam with standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(net: &Mlp, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: MlpGrads::zeros_like(net),
            v: MlpGrads::zeros_like(net),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one Adam step (`grads` holds dL/dθ for the loss to minimize).
    pub fn step(&mut self, net: &mut Mlp, grads: &MlpGrads) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (li, layer) in net.layers_mut().iter_mut().enumerate() {
            update_matrix(
                &mut layer.w,
                &grads.w[li],
                &mut self.m.w[li],
                &mut self.v.w[li],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                b1t,
                b2t,
            );
            for i in 0..layer.b.len() {
                let g = grads.b[li][i];
                let m = &mut self.m.b[li][i];
                let v = &mut self.v.b[li][i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                layer.b[i] -= self.lr * (*m / b1t) / ((*v / b2t).sqrt() + self.eps);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn update_matrix(
    w: &mut Matrix,
    g: &Matrix,
    m: &mut Matrix,
    v: &mut Matrix,
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    b1t: f64,
    b2t: f64,
) {
    let (wd, gd) = (w.as_mut_slice(), g.as_slice());
    let (md, vd) = (m.as_mut_slice(), v.as_mut_slice());
    for i in 0..wd.len() {
        md[i] = beta1 * md[i] + (1.0 - beta1) * gd[i];
        vd[i] = beta2 * vd[i] + (1.0 - beta2) * gd[i] * gd[i];
        wd[i] -= lr * (md[i] / b1t) / ((vd[i] / b2t).sqrt() + eps);
    }
}

/// Adam over a bare parameter vector (used for the Gaussian policy's
/// state-independent log-standard-deviations, which live outside any MLP).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamVec {
    /// Learning rate.
    pub lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamVec {
    /// Adam state for a parameter vector of length `len` with standard betas.
    pub fn new(len: usize, lr: f64) -> Self {
        AdamVec {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Apply one Adam step to `params` given `grads`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "AdamVec shape mismatch");
        assert_eq!(grads.len(), self.m.len(), "AdamVec grads mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            params[i] -= self.lr * (self.m[i] / b1t) / ((self.v[i] / b2t).sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::mlp::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Train y = sin-ish target from a fixed dataset; loss must fall a lot.
    fn regression_loss_after_training(use_adam: bool) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(123);
        let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, &mut rng);
        let data: Vec<(f64, f64)> = (0..64)
            .map(|i| {
                let x = -1.0 + 2.0 * i as f64 / 63.0;
                (x, (3.0 * x).sin() * 0.5)
            })
            .collect();
        let loss = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| {
                    let o = net.forward(&[*x])[0];
                    (o - y) * (o - y)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let initial = loss(&net);
        let mut adam = Adam::new(&net, 0.01);
        let sgd = Sgd::new(0.05);
        let mut grads = MlpGrads::zeros_like(&net);
        let mut cache = net.new_cache();
        for _ in 0..500 {
            grads.zero();
            for (x, y) in &data {
                let o = net.forward_cached(&[*x], &mut cache)[0];
                net.backward(&cache, &[2.0 * (o - y) / data.len() as f64], &mut grads);
            }
            if use_adam {
                adam.step(&mut net, &grads);
            } else {
                sgd.step(&mut net, &grads);
            }
        }
        (initial, loss(&net))
    }

    #[test]
    fn adam_fits_regression() {
        let (initial, fin) = regression_loss_after_training(true);
        assert!(fin < initial * 0.05, "initial {initial} final {fin}");
        assert!(fin < 0.005, "final {fin}");
    }

    #[test]
    fn sgd_reduces_loss() {
        let (initial, fin) = regression_loss_after_training(false);
        assert!(fin < initial * 0.5, "initial {initial} final {fin}");
    }

    #[test]
    fn adam_vec_minimizes_quadratic() {
        let mut opt = AdamVec::new(2, 0.1);
        let mut p = vec![5.0, -3.0];
        for _ in 0..500 {
            let g: Vec<f64> = p.iter().map(|x| 2.0 * x).collect();
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-2 && p[1].abs() < 1e-2, "{p:?}");
    }

    #[test]
    fn adam_step_counter() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::new(&[2, 2], Activation::Linear, &mut rng);
        let g = MlpGrads::zeros_like(&net);
        let mut adam = Adam::new(&net, 1e-3);
        assert_eq!(adam.steps(), 0);
        adam.step(&mut net, &g);
        adam.step(&mut net, &g);
        assert_eq!(adam.steps(), 2);
    }
}
