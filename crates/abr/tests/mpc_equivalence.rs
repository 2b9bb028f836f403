//! The MPC lookahead's equivalence contract.
//!
//! `Mpc` searches quality sequences depth-first and skips subtrees that an
//! exact floating-point bound rules out. [`FlatMpc`] below is the search
//! it replaced, kept verbatim as the oracle: it re-simulates every one of
//! the `n_q^horizon` sequences on its own and keeps the first maximum in
//! odometer order (`combo[0]` fastest). The two must pick the same quality
//! for every observation, including exact score ties (dyadic ladders),
//! non-finite inputs, negative and infinite penalties, every horizon and
//! ladder size, and whole sessions that exercise the robust discount.

use abr::player::BUFFER_CAP_S;
use abr::{qoe_chunk, AbrObservation, AbrPolicy, FixedConditions, Mpc, Player, QoeParams, Video};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Robust MPC with the exhaustive odometer search, as it shipped before
/// the branch-and-bound rewrite.
#[derive(Debug, Clone)]
struct FlatMpc {
    horizon: usize,
    window: usize,
    qoe: QoeParams,
    errors: Vec<f64>,
    last_prediction: Option<f64>,
}

impl FlatMpc {
    /// The oracle for a fresh `mpc` (same horizon, window and QoE).
    fn like(mpc: &Mpc) -> Self {
        FlatMpc {
            horizon: mpc.horizon,
            window: mpc.window,
            qoe: mpc.qoe.clone(),
            errors: Vec::new(),
            last_prediction: None,
        }
    }

    /// Harmonic-mean prediction discounted by the max error over the last
    /// 5 predictions: `pred / (1 + max_err)`.
    fn predict_throughput(&mut self, obs: &AbrObservation) -> Option<f64> {
        let hm = obs.harmonic_mean_throughput(self.window)?;
        // update the error history with the realized throughput of the
        // chunk the previous prediction was for
        if let (Some(pred), Some(actual)) = (self.last_prediction, obs.last_throughput()) {
            let err = ((pred - actual) / actual.max(1e-9)).abs();
            self.errors.push(err);
            if self.errors.len() > 5 {
                self.errors.remove(0);
            }
        }
        let max_err = self.errors.iter().copied().fold(0.0, f64::max);
        let robust = hm / (1.0 + max_err);
        self.last_prediction = Some(hm);
        Some(robust)
    }

    /// Exhaustive search over quality sequences of length `horizon`
    /// starting from the observed state; returns the best first action.
    fn best_first_action(&self, obs: &AbrObservation, predicted_mbps: f64) -> usize {
        let n_q = obs.n_qualities;
        let horizon = self.horizon.min(obs.chunks_remaining);
        if horizon == 0 {
            return 0;
        }
        let mut best_q = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        // iterative odometer over n_q^horizon combinations
        let mut combo = vec![0usize; horizon];
        loop {
            let score = self.rollout_score(obs, predicted_mbps, &combo);
            if score > best_score {
                best_score = score;
                best_q = combo[0];
            }
            // increment odometer
            let mut i = 0;
            loop {
                combo[i] += 1;
                if combo[i] < n_q {
                    break;
                }
                combo[i] = 0;
                i += 1;
                if i == horizon {
                    return best_q;
                }
            }
        }
    }

    /// Simulate the buffer forward under a fixed quality sequence at the
    /// predicted (constant) throughput, accumulating QoE.
    fn rollout_score(&self, obs: &AbrObservation, predicted_mbps: f64, combo: &[usize]) -> f64 {
        let mut buffer = obs.buffer_s;
        let mut prev = obs.last_quality.map(|q| obs.bitrates_mbps[q]);
        let mut total = 0.0;
        let chunk_seconds = 4.0; // lookahead model uses nominal durations
        for (k, &q) in combo.iter().enumerate() {
            // sizes are only known exactly for the next chunk; later chunks
            // use the nominal bitrate×duration (as the original MPC does
            // when sizes are unavailable)
            let size_bytes = if k == 0 {
                obs.next_sizes[q]
            } else {
                obs.bitrates_mbps[q] * 1e6 / 8.0 * chunk_seconds
            };
            let dl = size_bytes * 8.0 / (predicted_mbps.max(1e-6) * 1e6);
            let rebuf = (dl - buffer).max(0.0);
            buffer = (buffer - dl).max(0.0) + chunk_seconds;
            buffer = buffer.min(BUFFER_CAP_S);
            let r = obs.bitrates_mbps[q];
            total += qoe_chunk(&self.qoe, r, prev, rebuf);
            prev = Some(r);
        }
        total
    }
}

impl AbrPolicy for FlatMpc {
    fn name(&self) -> &str {
        "flat-mpc"
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        match self.predict_throughput(obs) {
            Some(pred) => self.best_first_action(obs, pred),
            None => 0, // first chunk: start at the lowest quality
        }
    }

    fn reset(&mut self) {
        self.errors.clear();
        self.last_prediction = None;
    }

    fn clone_box(&self) -> Box<dyn AbrPolicy + Send> {
        Box::new(self.clone())
    }
}

/// Largest `n_q^horizon` a random decision may search, so the oracle
/// stays fast in debug builds; larger draws lose horizon until they fit.
const MAX_SEQUENCES: usize = 50_000;

/// A bitrate ladder of 1–8 rungs (Mbit/s, ascending). Dyadic ladders keep
/// the lookahead's arithmetic exact, so distinct sequences really tie.
fn ladder(rng: &mut StdRng) -> Vec<f64> {
    let n = rng.gen_range(1..=8_usize);
    match rng.gen_range(0..4) {
        0 => (1..=n).map(|k| k as f64 * 0.5).collect(),
        1 => (0..n).map(|k| 0.25 * (1_u64 << k) as f64).collect(),
        2 => vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3][..n.min(6)].to_vec(),
        _ => {
            let mut r = 0.0;
            (0..n)
                .map(|_| {
                    r += rng.gen_range(0.1..1.5);
                    r
                })
                .collect()
        }
    }
}

fn qoe(rng: &mut StdRng) -> QoeParams {
    let base = QoeParams::default();
    match rng.gen_range(0..7) {
        0 => base,
        1 => QoeParams::rebuffer_only(),
        2 => QoeParams { rebuffer_penalty: 0.0, smoothness_penalty: 0.0, ..base },
        3 => QoeParams { smoothness_penalty: -rng.gen_range(0.1..2.0), ..base },
        4 => QoeParams { rebuffer_penalty: -rng.gen_range(0.1..5.0), ..base },
        5 => QoeParams { smoothness_penalty: 0.0, ..base },
        _ => QoeParams {
            quality_weight: rng.gen_range(0.0..2.0),
            rebuffer_penalty: rng.gen_range(0.0..10.0),
            smoothness_penalty: rng.gen_range(0.0..3.0),
        },
    }
}

/// A fresh MPC (no prediction history) with this horizon and objective.
fn fresh_mpc(horizon: usize, qoe: QoeParams) -> Mpc {
    let mut mpc = Mpc::default();
    mpc.horizon = horizon;
    mpc.qoe = qoe;
    mpc
}

/// A fresh MPC and one observation to decide on.
fn random_decision(seed: u64) -> (Mpc, AbrObservation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let bitrates_mbps = ladder(&mut rng);
    let n_q = bitrates_mbps.len();
    let jitter = rng.gen_bool(0.5);
    let next_sizes = bitrates_mbps
        .iter()
        .map(|r| r * 1e6 / 8.0 * 4.0 * if jitter { rng.gen_range(0.85..1.15) } else { 1.0 })
        .collect();
    let buffer_s = match rng.gen_range(0..4) {
        0 => 0.0,
        1 => BUFFER_CAP_S,
        2 => rng.gen_range(0..=60_u32) as f64,
        _ => rng.gen_range(0.0..BUFFER_CAP_S),
    };
    let dyadic_throughput = rng.gen_bool(0.5);
    let throughput_mbps = (0..rng.gen_range(1..=8))
        .map(|_| {
            if dyadic_throughput {
                rng.gen_range(1..=24_u32) as f64 * 0.25
            } else {
                rng.gen_range(0.3..6.0)
            }
        })
        .collect();
    let last_quality = if rng.gen_bool(0.25) { None } else { Some(rng.gen_range(0..n_q)) };
    let chunks_remaining = rng.gen_range(1..=7_usize);
    let mut horizon = rng.gen_range(0..=6_usize);
    while n_q.pow(horizon.min(chunks_remaining) as u32) > MAX_SEQUENCES {
        horizon -= 1;
    }
    let mpc = fresh_mpc(horizon, qoe(&mut rng));
    let obs = AbrObservation {
        last_quality,
        buffer_s,
        throughput_mbps,
        download_s: vec![],
        next_sizes,
        chunk_index: 48 - chunks_remaining,
        chunks_remaining,
        total_chunks: 48,
        n_qualities: n_q,
        bitrates_mbps,
    };
    (mpc, obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6000))]

    #[test]
    fn single_decisions_match_the_exhaustive_search(seed in any::<u64>()) {
        let (mut mpc, obs) = random_decision(seed);
        let mut flat = FlatMpc::like(&mpc);
        let (got, expected) = (mpc.select(&obs), flat.select(&obs));
        prop_assert!(
            got == expected,
            "picked {got}, exhaustive search picks {expected}: horizon {}, {:?}, {obs:?}",
            mpc.horizon,
            mpc.qoe
        );
    }
}

/// An observation on the Pensieve ladder with this buffer, previous
/// quality and throughput history.
fn pensieve_obs(
    buffer_s: f64,
    last_quality: Option<usize>,
    throughput_mbps: Vec<f64>,
) -> AbrObservation {
    let bitrates_mbps = vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3];
    AbrObservation {
        last_quality,
        buffer_s,
        throughput_mbps,
        download_s: vec![],
        next_sizes: bitrates_mbps.iter().map(|r| r * 1e6 / 8.0 * 4.0).collect(),
        chunk_index: 10,
        chunks_remaining: 38,
        total_chunks: 48,
        n_qualities: 6,
        bitrates_mbps,
    }
}

#[test]
fn non_finite_inputs_match_the_exhaustive_search() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let base = QoeParams::default();
    let qoes = [
        base.clone(),
        QoeParams { rebuffer_penalty: inf, ..base.clone() },
        QoeParams { rebuffer_penalty: -inf, ..base.clone() },
        QoeParams { rebuffer_penalty: nan, ..base.clone() },
        QoeParams { smoothness_penalty: inf, ..base.clone() },
        QoeParams { smoothness_penalty: -inf, ..base.clone() },
        QoeParams { smoothness_penalty: nan, ..base.clone() },
        QoeParams { quality_weight: nan, ..base.clone() },
        QoeParams { quality_weight: inf, ..base.clone() },
    ];
    // Each history sequence runs on a fresh pair. The first drives the
    // robust prediction to ∞, then 0 (an infinite error discounts a finite
    // mean), then NaN (∞ / ∞); a zero or a NaN sample predicts 1e-9, below
    // the lookahead's 1e-6 floor.
    let sequences: [&[(Vec<f64>, f64)]; 3] = [
        &[(vec![inf], inf), (vec![1.0], 0.0), (vec![inf; 5], nan)],
        &[(vec![0.0], 1e-9)],
        &[(vec![nan, nan], 1e-9)],
    ];
    let mut decisions = 0;
    for qoe in &qoes {
        for last_quality in [None, Some(0), Some(3), Some(5)] {
            for buffer_s in [nan, 0.0, 17.0, BUFFER_CAP_S, inf] {
                for sequence in sequences {
                    let mut mpc = fresh_mpc(5, qoe.clone());
                    let mut flat = FlatMpc::like(&mpc);
                    for (history, meant) in sequence {
                        let obs = pensieve_obs(buffer_s, last_quality, history.clone());
                        let expected = flat.select(&obs);
                        assert_eq!(
                            mpc.select(&obs),
                            expected,
                            "{qoe:?}, last quality {last_quality:?}, buffer {buffer_s}, \
                             history {history:?}"
                        );
                        // the oracle's own state confirms which prediction ran
                        let max_err = flat.errors.iter().copied().fold(0.0, f64::max);
                        let predicted = flat.last_prediction.unwrap() / (1.0 + max_err);
                        assert!(
                            (predicted.is_nan() && meant.is_nan())
                                || predicted == *meant
                                || (predicted - meant).abs() <= 1e-12 * meant.abs(),
                            "history {history:?} predicted {predicted}, meant {meant}"
                        );
                        decisions += 1;
                    }
                }
            }
        }
    }
    assert_eq!(decisions, 9 * 4 * 5 * 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn whole_sessions_pick_the_same_quality_at_every_chunk(
        seed in any::<u64>(),
        vbr in any::<bool>(),
    ) {
        let video = if vbr { Video::synthetic(seed) } else { Video::cbr() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mpc = Mpc::default();
        let mut flat = FlatMpc::like(&mpc);
        let mut player = Player::new(video.clone(), QoeParams::default());
        let mut net = FixedConditions::new(2.0, 80.0);
        while !player.finished() {
            // the §3 adversary's action space: 0.8–4.8 Mbit/s per chunk
            net.bandwidth_mbps = rng.gen_range(0.8..4.8);
            let obs = player.observation(&net);
            let q = mpc.select(&obs);
            let expected = flat.select(&obs);
            prop_assert!(
                q == expected,
                "chunk {}: picked {q}, exhaustive search picks {expected}",
                obs.chunk_index
            );
            player.step(q, &mut net);
        }
    }
}
