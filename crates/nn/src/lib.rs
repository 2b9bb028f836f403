//! Minimal dense neural networks for tiny reinforcement-learning policies.
//!
//! The adversaries and protocols in this workspace use multi-layer
//! perceptrons with at most two hidden layers and a few dozen neurons, per
//! the HotNets '19 paper ("Robustifying Network Protocols with Adversarial
//! Examples"). A full deep-learning framework would be overkill and would
//! drag in heavyweight dependencies, so this crate implements exactly what
//! is needed, deterministically and in pure Rust:
//!
//! * [`Matrix`] — a small row-major dense matrix with the handful of BLAS-1/2
//!   operations backprop requires.
//! * [`Dense`] / [`Mlp`] — fully connected layers with tanh/ReLU/linear
//!   activations, forward passes, and reverse-mode gradient computation.
//! * [`MlpGrads`] — a gradient buffer shaped like an [`Mlp`].
//! * [`Adam`] / [`Sgd`] — optimizers operating on `(Mlp, MlpGrads)` pairs.
//! * [`ops`] — free functions (softmax, log-sum-exp, clipping) shared by the
//!   RL crate's policy heads.
//!
//! Everything is `f64`: the networks are tiny, so precision is cheap and it
//! keeps finite-difference gradient checks tight.
//!
//! # Example
//!
//! ```
//! use nn::{Mlp, Activation, Adam, MlpGrads};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // 4 inputs -> 8 tanh -> 2 linear outputs
//! let mut net = Mlp::new(&[4, 8, 2], Activation::Tanh, &mut rng);
//! let y = net.forward(&[0.1, -0.2, 0.3, 0.0]);
//! assert_eq!(y.len(), 2);
//!
//! // One step of gradient descent on L = sum(y): dL/dy = [1, 1].
//! let mut grads = MlpGrads::zeros_like(&net);
//! let mut cache = net.new_cache();
//! net.forward_cached(&[0.1, -0.2, 0.3, 0.0], &mut cache);
//! net.backward(&cache, &[1.0, 1.0], &mut grads);
//! let mut adam = Adam::new(&net, 1e-3);
//! adam.step(&mut net, &grads);
//! ```
//!
//! # Batched kernels and determinism
//!
//! [`Mlp::forward_batch`] / [`Mlp::grads_batch`] process row-major sample
//! batches with every element computed by the exact scalar chain of the
//! serial path, so batched results are **bit-identical** to per-sample
//! loops. The kernels run those chains side by side in SIMD lanes —
//! samples packed into panels for the forward product, columns for the
//! weight gradient — on the SSE2 baseline, or on AVX2 when the running CPU
//! has it; lanes never split, reassociate or fuse a chain, so the path
//! taken never changes a bit. See `docs/PERF.md` at the workspace root
//! (§2, §3, §15) for the full performance model.

#![warn(missing_docs)]

pub mod init;
mod kernel;
pub mod layer;
pub mod matrix;
pub mod mlp;
pub mod ops;
pub mod optim;

pub use layer::{Activation, Dense};
pub use matrix::Matrix;
pub use mlp::{BatchCache, Cache, Mlp, MlpGrads};
pub use optim::{Adam, Sgd};
