//! Multi-layer perceptrons with reverse-mode gradients.

use crate::kernel;
use crate::layer::{Activation, Dense};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Rows per tile of [`Mlp::forward_batch`]: a tile passes through every
/// layer before the next tile starts.
const ROW_TILE: usize = 64;

/// A feed-forward stack of [`Dense`] layers.
///
/// Hidden layers share one activation; the output layer is always linear so
/// policy/value heads can interpret raw outputs (logits, Gaussian means,
/// state values) and supply the loss gradient directly to [`Mlp::backward`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Forward-pass scratch space reused across calls to avoid per-step
/// allocation in the training hot loop.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Input fed to each layer (`inputs[0]` is the network input).
    inputs: Vec<Vec<f64>>,
    /// Pre-activations `z = W x + b` of each layer.
    preacts: Vec<Vec<f64>>,
}

/// Scratch space for batched forward/backward passes.
///
/// The batched analogue of [`Cache`]: one row-major matrix per layer, one
/// row per sample. Reused across minibatches to avoid reallocating in the
/// PPO update hot loop; [`Mlp::forward_batch_cached`] resizes it on demand
/// when the batch size changes.
#[derive(Debug, Clone, Default)]
pub struct BatchCache {
    /// Input rows fed to each layer (`inputs[0]` holds the network input).
    inputs: Vec<Matrix>,
    /// Pre-activation rows `z = W x + b` of each layer.
    preacts: Vec<Matrix>,
}

/// Gradient accumulator shaped like an [`Mlp`]. Serializable so optimizer
/// moments (which share this shape) can be checkpointed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpGrads {
    /// Weight gradients, one matrix per layer.
    pub w: Vec<Matrix>,
    /// Bias gradients, one vector per layer.
    pub b: Vec<Vec<f64>>,
}

impl Mlp {
    /// Build an MLP from layer sizes, e.g. `&[110, 32, 16, 1]`.
    ///
    /// `hidden_act` is used for every layer except the last, which is linear.
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], hidden_act: Activation, rng: &mut StdRng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() { Activation::Linear } else { hidden_act };
            layers.push(Dense::new(sizes[i], sizes[i + 1], act, rng));
        }
        Mlp { layers }
    }

    /// Input dimension of the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").inputs()
    }

    /// Output dimension of the last layer.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// The layer stack, input-first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layer stack (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// `true` iff every weight and bias is a finite number — the
    /// post-update divergence check in `rl`'s training guard.
    pub fn all_finite(&self) -> bool {
        self.layers.iter().all(|l| {
            l.w.as_slice().iter().all(|v| v.is_finite()) && l.b.iter().all(|v| v.is_finite())
        })
    }

    /// Allocate a per-sample cache sized for this network.
    pub fn new_cache(&self) -> Cache {
        Cache {
            inputs: self.layers.iter().map(|l| vec![0.0; l.inputs()]).collect(),
            preacts: self.layers.iter().map(|l| vec![0.0; l.outputs()]).collect(),
        }
    }

    /// Allocate a batched cache for `batch` samples.
    pub fn new_batch_cache(&self, batch: usize) -> BatchCache {
        BatchCache {
            inputs: self.layers.iter().map(|l| Matrix::zeros(batch, l.inputs())).collect(),
            preacts: self.layers.iter().map(|l| Matrix::zeros(batch, l.outputs())).collect(),
        }
    }

    /// Plain forward pass.
    ///
    /// Bit-identical to [`Mlp::forward_cached`]; it only skips recording
    /// the intermediates a backward pass would need.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "MLP input dimension mismatch");
        let (first, rest) = self.layers.split_first().expect("non-empty");
        rest.iter().fold(first.forward(x), |cur, layer| layer.forward(&cur))
    }

    /// Forward pass recording intermediates for a later [`Mlp::backward`].
    pub fn forward_cached(&self, x: &[f64], cache: &mut Cache) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "MLP input dimension mismatch");
        if cache.inputs.len() != self.layers.len() {
            *cache = self.new_cache();
        }
        let mut cur = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            cache.inputs[i].copy_from_slice(&cur);
            let mut a = vec![0.0; layer.outputs()];
            layer.forward_into(&cur, &mut cache.preacts[i], &mut a);
            cur = a;
        }
        cur
    }

    /// Reverse-mode pass: given `dL/d(output)`, accumulate parameter
    /// gradients into `grads` and return `dL/d(input)`.
    ///
    /// `cache` must come from the immediately preceding
    /// [`Mlp::forward_cached`] call on the same input.
    pub fn backward(&self, cache: &Cache, dl_dout: &[f64], grads: &mut MlpGrads) -> Vec<f64> {
        assert_eq!(dl_dout.len(), self.output_dim(), "gradient dimension mismatch");
        assert_eq!(grads.w.len(), self.layers.len(), "grads shape mismatch");
        if telemetry::enabled() {
            let params: usize = self.layers.iter().map(|l| l.w.rows() * l.w.cols()).sum();
            telemetry::counter_add("nn.flops", (2 * params) as u64);
        }
        let mut delta = dl_dout.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // delta currently holds dL/da for this layer; convert to dL/dz.
            for (d, z) in delta.iter_mut().zip(cache.preacts[i].iter()) {
                *d *= layer.act.derivative(*z);
            }
            grads.w[i].add_outer(1.0, &delta, &cache.inputs[i]);
            for (gb, d) in grads.b[i].iter_mut().zip(delta.iter()) {
                *gb += d;
            }
            let mut prev = vec![0.0; layer.inputs()];
            layer.w.matvec_t_add(&delta, &mut prev);
            delta = prev;
        }
        delta
    }

    /// Batched forward pass: each row of `x` is one sample, each row of the
    /// result is the matching network output.
    ///
    /// Bit-identical to calling [`Mlp::forward`] per row — see
    /// [`Mlp::forward_batch_cached`] for the determinism argument. Rows go
    /// through the whole network in tiles of 64, in two tile-sized scratch
    /// buffers, so a tile's activations stay in cache from one layer to
    /// the next and nothing batch-sized is allocated but the result.
    ///
    /// ```
    /// use nn::{Activation, Matrix, Mlp};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let net = Mlp::new(&[3, 8, 2], Activation::Tanh, &mut rng);
    /// let x = Matrix::from_fn(5, 3, |s, c| (s * 3 + c) as f64 * 0.1);
    /// let y = net.forward_batch(&x);
    /// assert_eq!((y.rows(), y.cols()), (5, 2));
    /// // every batched row matches the per-sample path, bit for bit
    /// for s in 0..5 {
    ///     assert_eq!(y.row(s), net.forward(x.row(s)).as_slice());
    /// }
    /// ```
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "MLP batch input dimension mismatch");
        let batch = x.rows();
        if telemetry::enabled() {
            let params: usize = self.layers.iter().map(|l| l.w.rows() * l.w.cols()).sum();
            telemetry::counter_add("nn.flops", (2 * batch * params) as u64);
        }
        let (n_in, n_out) = (self.input_dim(), self.output_dim());
        let widest_in = self.layers.iter().map(Dense::inputs).max().unwrap_or(0);
        let widest_out = self.layers.iter().map(Dense::outputs).max().unwrap_or(0);
        let mut panel = vec![0.0; kernel::PANEL_LANES * widest_in];
        let mut cur = vec![0.0; ROW_TILE * widest_out];
        let mut next = vec![0.0; ROW_TILE * widest_out];
        let mut out = Matrix::zeros(batch, n_out);
        let (last, hidden) = self.layers.split_last().expect("non-empty");
        let mut s0 = 0;
        while s0 < batch {
            let s1 = (s0 + ROW_TILE).min(batch);
            let rows = s1 - s0;
            let mut src = &x.as_slice()[s0 * n_in..s1 * n_in];
            for layer in hidden {
                let dst = &mut next[..rows * layer.outputs()];
                layer.forward_tile(src, dst, &mut panel);
                std::mem::swap(&mut cur, &mut next);
                src = &cur[..rows * layer.outputs()];
            }
            last.forward_tile(src, &mut out.as_mut_slice()[s0 * n_out..s1 * n_out], &mut panel);
            s0 = s1;
        }
        out
    }

    /// Batched forward pass recording intermediates for a later
    /// [`Mlp::grads_batch`].
    ///
    /// # Determinism
    ///
    /// Each sample row is pushed through the same per-element chains as
    /// the serial path ([`Dense::forward_batch_into`]'s packed product
    /// computes each element as [`Matrix::matvec_into`] does, then the
    /// scalar bias add and activation), so outputs are bit-identical to
    /// per-sample [`Mlp::forward_cached`] calls. Batching buys SIMD lanes
    /// across samples and removes the per-sample `Vec` allocations of the
    /// serial path — it never changes floating-point evaluation order
    /// within a sample.
    pub fn forward_batch_cached(&self, x: &Matrix, cache: &mut BatchCache) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "MLP batch input dimension mismatch");
        let batch = x.rows();
        if cache.inputs.len() != self.layers.len()
            || cache.inputs.first().map(|m| m.rows()) != Some(batch)
        {
            *cache = self.new_batch_cache(batch);
        }
        cache.inputs[0].as_mut_slice().copy_from_slice(x.as_slice());
        let mut out = Matrix::zeros(batch, self.output_dim());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // each layer writes its activations straight into the next
            // layer's cached input
            let (done, rest) = cache.inputs.split_at_mut(i + 1);
            let a = if i == last { &mut out } else { &mut rest[0] };
            layer.forward_batch_into(&done[i], &mut cache.preacts[i], a);
        }
        out
    }

    /// Batched reverse-mode pass: given per-sample output gradients (one row
    /// of `dl_dout` per sample), accumulate the summed parameter gradients
    /// into `grads`.
    ///
    /// `cache` must come from the immediately preceding
    /// [`Mlp::forward_batch_cached`] call on the same inputs. Unlike
    /// [`Mlp::backward`], no input gradient is returned: no training path
    /// needs it, and for input-heavy nets skipping the first layer's
    /// delta propagation removes a large share of the backward work.
    ///
    /// # Determinism
    ///
    /// Accumulation into each parameter element happens in sample order
    /// (sample 0, 1, 2, …), with the products and zero-coefficient skips
    /// of the [`Matrix::add_outer`] call the serial path makes per sample,
    /// and layers touch disjoint parameter elements — so the summed
    /// gradients are bit-identical to running [`Mlp::backward`] per sample
    /// into the same accumulator, despite floating-point addition being
    /// non-associative. The weight gradient runs one pass per gradient row
    /// that adds four samples at a time, with SIMD lanes across columns.
    /// Activation derivatives come from the stored activations
    /// ([`Activation::derivative_from_output`]), which produces the same
    /// bits as the serial z-based form without recomputing
    /// transcendentals.
    ///
    /// ```
    /// use nn::{Activation, Matrix, Mlp, MlpGrads};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let net = Mlp::new(&[3, 8, 2], Activation::Tanh, &mut rng);
    /// let x = Matrix::from_fn(4, 3, |s, c| (s + c) as f64 * 0.2);
    ///
    /// // forward with a reusable cache, then push a loss gradient back
    /// let mut cache = net.new_batch_cache(4);
    /// let y = net.forward_batch_cached(&x, &mut cache);
    /// let dl = Matrix::from_fn(4, 2, |s, c| y.get(s, c) - 0.5); // d/dy of ½Σ(y-0.5)²
    /// let mut grads = MlpGrads::zeros_like(&net);
    /// net.grads_batch(&cache, &dl, &mut grads);
    /// assert!(grads.sq_norm() > 0.0);
    /// ```
    pub fn grads_batch(&self, cache: &BatchCache, dl_dout: &Matrix, grads: &mut MlpGrads) {
        let batch = dl_dout.rows();
        assert_eq!(dl_dout.cols(), self.output_dim(), "batch gradient dimension mismatch");
        assert_eq!(grads.w.len(), self.layers.len(), "grads shape mismatch");
        assert_eq!(cache.inputs.len(), self.layers.len(), "batch cache shape mismatch");
        assert_eq!(cache.inputs[0].rows(), batch, "batch cache batch-size mismatch");
        if telemetry::enabled() {
            let params: usize = self.layers.iter().map(|l| l.w.rows() * l.w.cols()).sum();
            telemetry::counter_add("nn.flops", (2 * batch * params) as u64);
        }
        let mut delta = dl_dout.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // delta rows hold dL/da for this layer; convert to dL/dz. For
            // hidden layers the next layer's cached input *is* this
            // layer's activation output, giving the transcendental-free
            // derivative form.
            if i + 1 < self.layers.len() {
                for s in 0..batch {
                    let ar = cache.inputs[i + 1].row(s);
                    for (d, a) in delta.row_mut(s).iter_mut().zip(ar.iter()) {
                        *d *= layer.act.derivative_from_output(*a);
                    }
                }
            } else {
                for s in 0..batch {
                    let zs = cache.preacts[i].row(s);
                    for (d, z) in delta.row_mut(s).iter_mut().zip(zs.iter()) {
                        *d *= layer.act.derivative(*z);
                    }
                }
            }
            // Parameter accumulation in sample order keeps the per-element
            // addition sequence identical to the serial per-sample loop.
            kernel::add_outer_rows(
                grads.w[i].as_mut_slice(),
                layer.outputs(),
                layer.inputs(),
                delta.as_slice(),
                cache.inputs[i].as_slice(),
            );
            for s in 0..batch {
                for (gb, d) in grads.b[i].iter_mut().zip(delta.row(s).iter()) {
                    *gb += d;
                }
            }
            if i == 0 {
                break;
            }
            let mut prev = Matrix::zeros(batch, layer.inputs());
            layer.w.matmul_t_add_into(&delta, &mut prev);
            delta = prev;
        }
    }
}

impl MlpGrads {
    /// Zero gradients with the same shape as `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        MlpGrads {
            w: net.layers().iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect(),
            b: net.layers().iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Reset to zero in place.
    pub fn zero(&mut self) {
        for w in &mut self.w {
            w.fill_zero();
        }
        for b in &mut self.b {
            b.iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// Multiply every gradient by `alpha` (e.g. 1/batch).
    pub fn scale(&mut self, alpha: f64) {
        for w in &mut self.w {
            w.scale(alpha);
        }
        for b in &mut self.b {
            b.iter_mut().for_each(|v| *v *= alpha);
        }
    }

    /// Squared L2 norm of all gradients.
    pub fn sq_norm(&self) -> f64 {
        let w: f64 = self.w.iter().map(|m| m.sq_norm()).sum();
        let b: f64 = self.b.iter().flat_map(|v| v.iter()).map(|x| x * x).sum();
        w + b
    }

    /// Scale gradients down so the global L2 norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.sq_norm().sqrt();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference gradient check on a scalar loss L = Σ c_k y_k.
    fn grad_check(sizes: &[usize], act: Activation, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(sizes, act, &mut rng);
        let x: Vec<f64> = (0..sizes[0]).map(|i| (i as f64 * 0.37).sin()).collect();
        let coeffs: Vec<f64> = (0..*sizes.last().unwrap()).map(|i| 1.0 + 0.5 * i as f64).collect();
        let loss =
            |n: &Mlp| -> f64 { n.forward(&x).iter().zip(coeffs.iter()).map(|(y, c)| y * c).sum() };

        let mut cache = net.new_cache();
        net.forward_cached(&x, &mut cache);
        let mut grads = MlpGrads::zeros_like(&net);
        let dl_din = net.backward(&cache, &coeffs, &mut grads);

        let h = 1e-6;
        // check a spread of weight entries in every layer
        for li in 0..net.layers().len() {
            let (rows, cols) = (net.layers()[li].w.rows(), net.layers()[li].w.cols());
            for &(r, c) in &[(0, 0), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
                let mut plus = net.clone();
                let v = plus.layers_mut()[li].w.get(r, c);
                plus.layers_mut()[li].w.set(r, c, v + h);
                let mut minus = net.clone();
                minus.layers_mut()[li].w.set(r, c, v - h);
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * h);
                let an = grads.w[li].get(r, c);
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "layer {li} w[{r},{c}]: fd={fd} analytic={an}"
                );
            }
            // one bias entry
            let mut plus = net.clone();
            plus.layers_mut()[li].b[0] += h;
            let mut minus = net.clone();
            minus.layers_mut()[li].b[0] -= h;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * h);
            let an = grads.b[li][0];
            assert!((fd - an).abs() < 1e-4 * (1.0 + an.abs()), "layer {li} bias: fd={fd} an={an}");
        }
        // input gradient
        for i in 0..x.len().min(3) {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let lp: f64 = net.forward(&xp).iter().zip(&coeffs).map(|(y, c)| y * c).sum();
            let lm: f64 = net.forward(&xm).iter().zip(&coeffs).map(|(y, c)| y * c).sum();
            let fd = (lp - lm) / (2.0 * h);
            assert!((fd - dl_din[i]).abs() < 1e-4 * (1.0 + fd.abs()), "input grad {i}");
        }
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        grad_check(&[5, 8, 3], Activation::Tanh, 11);
    }

    #[test]
    fn gradients_match_finite_differences_deep() {
        grad_check(&[4, 16, 8, 2], Activation::Tanh, 12);
    }

    #[test]
    fn gradients_match_finite_differences_linear() {
        grad_check(&[3, 4, 2], Activation::Linear, 13);
    }

    #[test]
    fn grads_zero_and_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut rng);
        let mut g = MlpGrads::zeros_like(&net);
        let mut cache = net.new_cache();
        net.forward_cached(&[1.0, -1.0], &mut cache);
        net.backward(&cache, &[1.0], &mut g);
        assert!(g.sq_norm() > 0.0);
        g.scale(0.0);
        assert_eq!(g.sq_norm(), 0.0);
    }

    #[test]
    fn clip_global_norm_caps_norm() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut rng);
        let mut g = MlpGrads::zeros_like(&net);
        let mut cache = net.new_cache();
        net.forward_cached(&[5.0, -5.0], &mut cache);
        net.backward(&cache, &[100.0], &mut g);
        let pre = g.clip_global_norm(0.5);
        assert!(pre > 0.5);
        assert!((g.sq_norm().sqrt() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(77);
        let net = Mlp::new(&[6, 10, 4], Activation::Relu, &mut rng);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.3, -0.1, 0.9, 0.0, -2.0, 1.5];
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn forward_batch_bit_identical_to_per_sample() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = Mlp::new(&[6, 12, 5, 3], Activation::Tanh, &mut rng);
        let batch = 17;
        let x = Matrix::from_fn(batch, 6, |r, c| ((r * 7 + c) as f64 * 0.31).sin());
        let y = net.forward_batch(&x);
        assert_eq!(y.rows(), batch);
        assert_eq!(y.cols(), 3);
        for s in 0..batch {
            assert_eq!(y.row(s), net.forward(x.row(s)).as_slice(), "row {s}");
        }
    }

    #[test]
    fn grads_batch_bit_identical_to_serial_accumulation() {
        let mut rng = StdRng::seed_from_u64(22);
        let net = Mlp::new(&[5, 9, 4], Activation::Relu, &mut rng);
        let batch = 13;
        let x = Matrix::from_fn(batch, 5, |r, c| ((r * 3 + c) as f64 * 0.71).cos());
        let dl = Matrix::from_fn(batch, 4, |r, c| ((r + c * 2) as f64 * 0.13).sin());

        // serial: per-sample forward_cached + backward into one accumulator
        let mut serial = MlpGrads::zeros_like(&net);
        let mut cache = net.new_cache();
        for s in 0..batch {
            net.forward_cached(x.row(s), &mut cache);
            net.backward(&cache, dl.row(s), &mut serial);
        }

        // batched: one forward_batch_cached + grads_batch
        let mut batched = MlpGrads::zeros_like(&net);
        let mut bcache = net.new_batch_cache(batch);
        net.forward_batch_cached(&x, &mut bcache);
        net.grads_batch(&bcache, &dl, &mut batched);

        assert_eq!(serial, batched);
    }

    #[test]
    fn forward_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut rng);
        let x = [0.1, 0.2, 0.3];
        assert_eq!(net.forward(&x), net.forward(&x));
    }
}

#[cfg(test)]
mod kernel_timing {
    use super::*;
    use crate::layer::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;

    /// Not a correctness test: prints kernel timings for perf work.
    /// Run with `cargo test -p nn --release -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn batch_kernel_timings() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[110, 32, 16, 1], Activation::Tanh, &mut rng);
        let batch = 64;
        let x = Matrix::from_fn(batch, 110, |r, c| ((r * 31 + c) as f64 * 0.1).sin());
        let reps = 2000;

        let mut cache = net.new_cache();
        let mut grads = MlpGrads::zeros_like(&net);
        let t = Instant::now();
        for _ in 0..reps {
            for s in 0..batch {
                net.forward_cached(x.row(s), &mut cache);
                net.backward(&cache, &[1.0], &mut grads);
            }
        }
        println!("serial fwd+bwd: {:.2} us/batch", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

        let t = Instant::now();
        for _ in 0..reps {
            for s in 0..batch {
                std::hint::black_box(net.forward(x.row(s)));
            }
        }
        println!("serial fwd alloc: {:.2} us/batch", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

        let mut bcache = net.new_batch_cache(batch);
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(net.forward_batch_cached(&x, &mut bcache));
        }
        println!("batch fwd: {:.2} us/batch", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

        let dl = Matrix::from_fn(batch, 1, |_, _| 1.0);
        let t = Instant::now();
        for _ in 0..reps {
            net.forward_batch_cached(&x, &mut bcache);
            net.grads_batch(&bcache, &dl, &mut grads);
            std::hint::black_box(&grads);
        }
        println!("batch fwd+bwd: {:.2} us/batch", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

        let mut adam = crate::Adam::new(&net, 1e-3);
        let mut net2 = net.clone();
        let t = Instant::now();
        for _ in 0..reps {
            adam.step(&mut net2, &grads);
        }
        println!("adam step: {:.2} us/step", t.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
}
