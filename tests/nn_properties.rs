//! Property-based tests of the neural-network substrate: the analytic
//! gradients must match finite differences for *arbitrary* small
//! architectures, inputs, and seeds — the foundation everything else
//! (PPO, the adversaries, Pensieve) rests on.

use nn::{Activation, Matrix, Mlp, MlpGrads};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn loss(net: &Mlp, x: &[f64], coeffs: &[f64]) -> f64 {
    net.forward(x).iter().zip(coeffs.iter()).map(|(y, c)| y * c).sum()
}

/// One sample through `net` with the scalar forward chain the SIMD kernels
/// must reproduce, verbatim from `Matrix::matvec_into` before them: per
/// output, `acc += w * x` over ascending inputs from `0.0`, then the bias
/// add and the activation.
fn oracle_forward(net: &Mlp, x: &[f64]) -> Vec<f64> {
    let mut cur = x.to_vec();
    for layer in net.layers() {
        let cols = layer.inputs();
        let mut z = vec![0.0; layer.outputs()];
        for (r, o) in z.iter_mut().enumerate() {
            let row = &layer.w.as_slice()[r * cols..(r + 1) * cols];
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(cur.iter()) {
                acc += w * xi;
            }
            *o = acc;
        }
        for (zi, bi) in z.iter_mut().zip(layer.b.iter()) {
            *zi += bi;
        }
        cur = z.iter().map(|&zi| layer.act.apply(zi)).collect();
    }
    cur
}

/// Bit equality of two rows.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// dL/dW matches central finite differences on random nets/inputs.
    #[test]
    fn gradient_check_random_architectures(
        seed in 0_u64..10_000,
        n_in in 1_usize..131,
        n_hidden in 1_usize..131,
        n_out in 1_usize..8,
        use_relu in any::<bool>(),
        x_scale in 0.1_f64..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let act = if use_relu { Activation::Relu } else { Activation::Tanh };
        let net = Mlp::new(&[n_in, n_hidden, n_out], act, &mut rng);
        let x: Vec<f64> = (0..n_in).map(|i| x_scale * ((i as f64) + 0.37).sin()).collect();
        let coeffs: Vec<f64> = (0..n_out).map(|i| 1.0 - 0.4 * i as f64).collect();

        let mut cache = net.new_cache();
        net.forward_cached(&x, &mut cache);
        let mut grads = MlpGrads::zeros_like(&net);
        net.backward(&cache, &coeffs, &mut grads);

        let h = 1e-6;
        // spot-check one weight per layer (ReLU kinks make exact equality
        // impossible at z == 0; tolerate those rare cases with a loose bound)
        for li in 0..net.layers().len() {
            let mut plus = net.clone();
            let v = plus.layers()[li].w.get(0, 0);
            plus.layers_mut()[li].w.set(0, 0, v + h);
            let mut minus = net.clone();
            minus.layers_mut()[li].w.set(0, 0, v - h);
            let fd = (loss(&plus, &x, &coeffs) - loss(&minus, &x, &coeffs)) / (2.0 * h);
            let an = grads.w[li].get(0, 0);
            prop_assert!(
                (fd - an).abs() < 1e-4 * (1.0 + an.abs()) + 1e-6,
                "layer {li}: fd={fd} analytic={an}"
            );
        }
    }

    /// Forward passes are deterministic and serde round-trips exact.
    #[test]
    fn forward_deterministic_and_serializable(
        seed in 0_u64..10_000,
        dims in proptest::collection::vec(1_usize..131, 2..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&dims, Activation::Tanh, &mut rng);
        let x: Vec<f64> = (0..dims[0]).map(|i| (i as f64 * 0.7).cos()).collect();
        let y1 = net.forward(&x);
        let y2 = net.forward(&x);
        prop_assert_eq!(&y1, &y2);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(y1, back.forward(&x));
    }

    /// Gradient clipping: post-clip norm never exceeds the cap, direction
    /// is preserved (scaled, not truncated).
    #[test]
    fn clip_preserves_direction(
        seed in 0_u64..10_000,
        max_norm in 0.01_f64..5.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut rng);
        let mut g = MlpGrads::zeros_like(&net);
        let mut cache = net.new_cache();
        net.forward_cached(&[1.0, -2.0, 0.5], &mut cache);
        net.backward(&cache, &[3.0, -7.0], &mut g);
        let before: Vec<f64> = g.w[0].as_slice().to_vec();
        let pre_norm = g.sq_norm().sqrt();
        g.clip_global_norm(max_norm);
        let post_norm = g.sq_norm().sqrt();
        prop_assert!(post_norm <= max_norm + 1e-9);
        if pre_norm > max_norm {
            // scaled uniformly: ratios preserved
            let scale = post_norm / pre_norm;
            for (a, b) in before.iter().zip(g.w[0].as_slice()) {
                prop_assert!((a * scale - b).abs() < 1e-9);
            }
        }
    }

    /// Batched forward is bit-identical to per-sample forwards, and both
    /// to the scalar oracle chain, for arbitrary architectures, batch
    /// sizes, activations, and seeds — the invariant that lets PPO switch
    /// to matrix–matrix kernels without perturbing training trajectories.
    /// Widths up to 130 and batches up to 150 cross the SIMD lane panels,
    /// the four-row passes and the 64-row tile of the batched forward.
    #[test]
    fn forward_batch_bit_identical_to_per_sample(
        seed in 0_u64..10_000,
        dims in proptest::collection::vec(1_usize..131, 2..5),
        batch in 1_usize..151,
        use_relu in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let act = if use_relu { Activation::Relu } else { Activation::Tanh };
        let net = Mlp::new(&dims, act, &mut rng);
        let n_in = dims[0];
        let mut data = Vec::with_capacity(batch * n_in);
        for s in 0..batch {
            for i in 0..n_in {
                data.push(((s * 31 + i) as f64 * 0.37).sin() * 2.0);
            }
        }
        let x = Matrix::from_vec(batch, n_in, data);
        let y = net.forward_batch(&x);
        let mut cache = net.new_batch_cache(batch);
        let y_cached = net.forward_batch_cached(&x, &mut cache);
        for s in 0..batch {
            // bit equality, not approximate
            let want = bits(&oracle_forward(&net, x.row(s)));
            prop_assert_eq!(bits(y.row(s)), want.clone());
            prop_assert_eq!(bits(y_cached.row(s)), want.clone());
            prop_assert_eq!(bits(&net.forward(x.row(s))), want);
        }
    }

    /// Batched backward accumulates gradients bit-identically to the
    /// serial per-sample forward/backward loop over the same samples in
    /// the same order.
    #[test]
    fn grads_batch_bit_identical_to_serial_loop(
        seed in 0_u64..10_000,
        dims in proptest::collection::vec(1_usize..131, 2..5),
        batch in 1_usize..151,
        use_relu in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let act = if use_relu { Activation::Relu } else { Activation::Tanh };
        let net = Mlp::new(&dims, act, &mut rng);
        let (n_in, n_out) = (dims[0], *dims.last().unwrap());
        let mut xdata = Vec::with_capacity(batch * n_in);
        let mut ddata = Vec::with_capacity(batch * n_out);
        for s in 0..batch {
            for i in 0..n_in {
                xdata.push(((s * 13 + i) as f64 * 0.53).cos());
            }
            for o in 0..n_out {
                ddata.push(((s * 7 + o) as f64 * 0.91).sin());
            }
        }
        let x = Matrix::from_vec(batch, n_in, xdata);
        let dl = Matrix::from_vec(batch, n_out, ddata);

        let mut serial = MlpGrads::zeros_like(&net);
        let mut cache = net.new_cache();
        for s in 0..batch {
            net.forward_cached(x.row(s), &mut cache);
            net.backward(&cache, dl.row(s), &mut serial);
        }

        let mut batched = MlpGrads::zeros_like(&net);
        let mut bcache = net.new_batch_cache(batch);
        net.forward_batch_cached(&x, &mut bcache);
        net.grads_batch(&bcache, &dl, &mut batched);

        prop_assert_eq!(serial, batched);
    }

    /// softmax/log_softmax agree and are shift-invariant.
    #[test]
    fn softmax_shift_invariance(
        xs in proptest::collection::vec(-30.0_f64..30.0, 1..10),
        shift in -100.0_f64..100.0,
    ) {
        let p1 = nn::ops::softmax(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let p2 = nn::ops::softmax(&shifted);
        for (a, b) in p1.iter().zip(p2.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        prop_assert!((p1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// percentile is bounded by min/max and monotone in p.
    #[test]
    fn percentile_monotone(
        xs in proptest::collection::vec(-100.0_f64..100.0, 1..50),
        p1 in 0.0_f64..100.0,
        p2 in 0.0_f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = nn::ops::percentile(&xs, lo);
        let b = nn::ops::percentile(&xs, hi);
        prop_assert!(a <= b + 1e-12);
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= mn - 1e-12 && b <= mx + 1e-12);
    }
}
