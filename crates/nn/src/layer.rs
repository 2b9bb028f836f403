//! Fully connected layers and their activations.

use crate::init;
use crate::kernel;
use crate::matrix::Matrix;
use crate::ops;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Pointwise activation applied after a dense layer's affine transform.
///
/// Softmax is deliberately *not* an activation here: policy heads keep their
/// outputs as raw logits/means and apply softmax (or a Gaussian) in the RL
/// crate, where the loss gradient with respect to the raw outputs has a
/// simple closed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity — used for output layers.
    Linear,
    /// Hyperbolic tangent — default hidden activation for small policy nets.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Apply the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Linear => z,
            Activation::Tanh => z.tanh(),
            Activation::Relu => z.max(0.0),
        }
    }

    /// Derivative dσ(z)/dz expressed in terms of the pre-activation `z`.
    #[inline]
    pub fn derivative(self, z: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Derivative dσ(z)/dz expressed in terms of the *activation output*
    /// `a = σ(z)`.
    ///
    /// Bit-identical to [`Activation::derivative`] on the matching
    /// pre-activation: for tanh, `derivative` computes `1 − t·t` with
    /// `t = z.tanh()`, and `a` *is* that stored `t`; for ReLU, `z > 0 ⇔
    /// a > 0` (at `z == 0` both sides give derivative 0); linear is
    /// constant. The batched backward uses this form to avoid recomputing
    /// the transcendental for every element in the hot loop.
    #[inline]
    pub fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Tanh => 1.0 - a * a,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Apply the activation to a whole slice at once (vectorized form).
    ///
    /// Dispatches to the `*_into` kernels in [`crate::ops`], each of which
    /// applies the same scalar operation per element in order — so slice
    /// application is bit-identical to looping [`Activation::apply`].
    #[inline]
    pub fn apply_into(self, zs: &[f64], out: &mut [f64]) {
        match self {
            Activation::Linear => ops::linear_into(zs, out),
            Activation::Tanh => ops::tanh_into(zs, out),
            Activation::Relu => ops::relu_into(zs, out),
        }
    }
}

/// A dense layer: `y = σ(W x + b)` with `W: out × in`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `outputs × inputs`.
    pub w: Matrix,
    /// Bias vector, one entry per output.
    pub b: Vec<f64>,
    /// Activation applied after the affine transform.
    pub act: Activation,
}

impl Dense {
    /// New layer with orthogonal-ish (scaled Gaussian) init and zero biases.
    pub fn new(inputs: usize, outputs: usize, act: Activation, rng: &mut StdRng) -> Self {
        Dense { w: init::scaled_gaussian(outputs, inputs, rng), b: vec![0.0; outputs], act }
    }

    /// Input dimension (columns of `W`).
    pub fn inputs(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension (rows of `W`).
    pub fn outputs(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass writing the pre-activation into `z` and activation into `a`.
    pub fn forward_into(&self, x: &[f64], z: &mut [f64], a: &mut [f64]) {
        self.w.matvec_into(x, z);
        for (zi, bi) in z.iter_mut().zip(self.b.iter()) {
            *zi += bi;
        }
        for (ai, zi) in a.iter_mut().zip(z.iter()) {
            *ai = self.act.apply(*zi);
        }
    }

    /// Forward pass allocating the output.
    ///
    /// The same operations as [`Dense::forward_into`] — product, bias add,
    /// activation — computed in place, without keeping the pre-activation.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut a = vec![0.0; self.outputs()];
        self.w.matvec_into(x, &mut a);
        self.bias_act(&mut a);
        a
    }

    /// Forward pass over a tile of rows in place: `out.row(s) = σ(W
    /// x.row(s) + b)` for every row of the row-major `x`. `panel` is the
    /// packed product's scratch (`kernel::PANEL_LANES` values per input).
    pub(crate) fn forward_tile(&self, x: &[f64], out: &mut [f64], panel: &mut [f64]) {
        kernel::matmul_nt(self.w.as_slice(), self.outputs(), self.inputs(), x, out, panel);
        if self.outputs() > 0 {
            out.chunks_exact_mut(self.outputs()).for_each(|z| self.bias_act(z));
        }
    }

    /// `z ← σ(z + b)` elementwise: the bias add and activation of
    /// [`Dense::forward_into`] on one pre-activation row.
    fn bias_act(&self, z: &mut [f64]) {
        for (zi, bi) in z.iter_mut().zip(self.b.iter()) {
            *zi = self.act.apply(*zi + bi);
        }
    }

    /// Batched forward pass over row-major sample batches.
    ///
    /// Each row of `x` is one sample; the matching rows of `z` and `a`
    /// receive its pre-activation and activation. Every row goes through the
    /// exact kernels of [`Dense::forward_into`] (sequential dot products,
    /// then bias add, then activation), so the batched result is
    /// bit-identical to calling `forward_into` per sample — the batch form
    /// only amortizes layer traversal and eliminates per-sample allocation.
    pub fn forward_batch_into(&self, x: &Matrix, z: &mut Matrix, a: &mut Matrix) {
        let batch = x.rows();
        assert_eq!(x.cols(), self.inputs(), "forward_batch: input dim mismatch");
        assert_eq!(z.rows(), batch, "forward_batch: preact batch mismatch");
        assert_eq!(z.cols(), self.outputs(), "forward_batch: preact dim mismatch");
        assert_eq!(a.rows(), batch, "forward_batch: output batch mismatch");
        assert_eq!(a.cols(), self.outputs(), "forward_batch: output dim mismatch");
        // One packed matrix–matrix product for the whole batch (each
        // element the same sequential dot as the per-sample kernel), then
        // the per-sample bias add and activation.
        self.w.matmul_nt_into(x, z);
        for s in 0..batch {
            let zr = z.row_mut(s);
            for (zi, bi) in zr.iter_mut().zip(self.b.iter()) {
                *zi += bi;
            }
            self.act.apply_into(zr, a.row_mut(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn activations_and_derivatives() {
        for act in [Activation::Linear, Activation::Tanh, Activation::Relu] {
            // finite-difference check of the derivative at a few points
            for &z in &[-1.3, -0.2, 0.4, 2.0] {
                let h = 1e-6;
                let fd = (act.apply(z + h) - act.apply(z - h)) / (2.0 * h);
                assert!(
                    (fd - act.derivative(z)).abs() < 1e-5,
                    "{act:?} derivative mismatch at {z}"
                );
            }
        }
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative(-3.0), 0.0);
    }

    #[test]
    fn dense_forward_known_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 1, Activation::Linear, &mut rng);
        d.w = Matrix::from_vec(1, 2, vec![2.0, -1.0]);
        d.b = vec![0.5];
        let y = d.forward(&[3.0, 4.0]);
        assert!((y[0] - (6.0 - 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn dense_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dense::new(5, 3, Activation::Tanh, &mut rng);
        assert_eq!(d.inputs(), 5);
        assert_eq!(d.outputs(), 3);
        assert_eq!(d.forward(&[0.0; 5]).len(), 3);
    }

    #[test]
    fn tanh_layer_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Dense::new(4, 4, Activation::Tanh, &mut rng);
        for v in d.forward(&[10.0, -10.0, 5.0, -5.0]) {
            assert!(v.abs() <= 1.0);
        }
    }
}
