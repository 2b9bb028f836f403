//! Robust model-predictive control (MPC) ABR — a reimplementation of
//! Yin et al. (SIGCOMM '15), the "MPC" the paper targets with its adversary.
//!
//! MPC predicts throughput with the harmonic mean of the last 5 samples,
//! discounted by the maximum recent prediction error ("robust MPC"), and
//! picks the bitrate sequence over a 5-chunk horizon that maximizes total
//! linear QoE, simulating the buffer forward. The search is an exact
//! branch and bound: its decisions are those of exhaustive search.

use super::AbrPolicy;
use crate::obs::AbrObservation;
use crate::player::BUFFER_CAP_S;
use crate::qoe::{qoe_chunk, QoeParams};
use crate::video::CHUNK_SECONDS;

/// Robust MPC.
#[derive(Debug, Clone)]
pub struct Mpc {
    /// Lookahead horizon in chunks (5 in the original).
    pub horizon: usize,
    /// Throughput samples feeding the harmonic-mean predictor.
    pub window: usize,
    /// QoE objective being optimized (same as the evaluation metric).
    pub qoe: QoeParams,
    /// Relative errors `|pred − actual| / actual` of the last 5
    /// predictions, for the robustness discount.
    errors: Vec<f64>,
    last_prediction: Option<f64>,
}

impl Default for Mpc {
    fn default() -> Self {
        Mpc {
            horizon: 5,
            window: 5,
            qoe: QoeParams::default(),
            errors: Vec::new(),
            last_prediction: None,
        }
    }
}

impl Mpc {
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

    /// The first quality of the best `horizon`-chunk quality sequence
    /// (capped at the chunks remaining) from the observed state, at the
    /// predicted constant throughput. Exact: the same decision as scoring
    /// every sequence and keeping the first maximum in odometer order
    /// (`combo[0]` fastest); see [`Lookahead`].
    fn best_first_action(&self, obs: &AbrObservation, predicted_mbps: f64) -> usize {
        let horizon = self.horizon.min(obs.chunks_remaining);
        if horizon == 0 {
            return 0;
        }
        let search = Lookahead::new(&self.qoe, obs, predicted_mbps, horizon);
        let prev = obs.last_quality.map(|q| obs.bitrates_mbps[q]);
        let mut best = Incumbent { score: f64::NEG_INFINITY, path: vec![0; horizon] };
        search.descend(0, obs.buffer_s, prev, 0.0, &mut vec![0; horizon], &mut best);
        best.path[0]
    }
}

/// One decision's depth-first branch-and-bound search over quality
/// sequences.
///
/// Each prefix is simulated once, and its children inherit its buffer,
/// previous bitrate and running QoE. Three rules keep the decision
/// identical to scoring each sequence on its own and keeping the first
/// maximum in odometer order:
///
/// * **Same arithmetic per sequence.** A score comes from the same f64
///   operations in the same order as a standalone rollout: the buffer
///   simulated forward at the predicted throughput and [`qoe_chunk`] per
///   chunk, summed from 0.0. Only the download times, which every
///   sequence shares, are computed once, with the same expressions.
/// * **Same tie-break.** Equal scores go to the lower odometer index
///   `Σ combo[i]·n_qⁱ`, compared digit by digit from the last chunk so it
///   cannot overflow, and the incumbent starts at (−∞, index 0).
/// * **A sound bound.** A prefix with running score `t` and `k` chunks
///   left is skipped only if `t + g + … + g` (`k` sequential adds, `g` the
///   largest `quality_weight · r`) is strictly below the incumbent.
///   Rounded add, subtract and multiply are monotone, and with
///   non-negative penalties no chunk scores above its quality term, so
///   each skipped sequence scores below the incumbent or is NaN: none can
///   win or tie. With a negative or NaN penalty there is no bound, and a
///   NaN bound never prunes.
struct Lookahead<'a> {
    qoe: &'a QoeParams,
    /// Bitrates (Mbit/s) of the `n_q` qualities.
    rates: &'a [f64],
    horizon: usize,
    /// Download time of the next chunk per quality (its size is known).
    first_dl: Vec<f64>,
    /// Download time of a later chunk per quality (nominal size).
    later_dl: Vec<f64>,
    /// `g`, if the penalties make it a bound on every chunk's score.
    cap: Option<f64>,
}

/// Best sequence so far.
struct Incumbent {
    score: f64,
    path: Vec<usize>,
}

impl<'a> Lookahead<'a> {
    fn new(
        qoe: &'a QoeParams,
        obs: &'a AbrObservation,
        predicted_mbps: f64,
        horizon: usize,
    ) -> Self {
        let rates = &obs.bitrates_mbps[..obs.n_qualities];
        let throughput_bps = predicted_mbps.max(1e-6) * 1e6;
        // sizes are only known exactly for the next chunk; later chunks use
        // the nominal bitrate×duration (as the original MPC does when sizes
        // are unavailable)
        let first_dl = obs.next_sizes[..rates.len()].iter().map(|s| s * 8.0 / throughput_bps);
        let later_dl = rates.iter().map(|r| r * 1e6 / 8.0 * CHUNK_SECONDS * 8.0 / throughput_bps);
        let cap = (qoe.rebuffer_penalty >= 0.0 && qoe.smoothness_penalty >= 0.0).then(|| {
            rates.iter().map(|r| qoe.quality_weight * r).fold(f64::NEG_INFINITY, f64::max)
        });
        Lookahead {
            qoe,
            rates,
            horizon,
            first_dl: first_dl.collect(),
            later_dl: later_dl.collect(),
            cap,
        }
    }

    /// Extend the prefix `path[..depth]` (buffer `buffer`, previous
    /// bitrate `prev`, running score `total`) by every quality.
    fn descend(
        &self,
        depth: usize,
        buffer: f64,
        prev: Option<f64>,
        total: f64,
        path: &mut [usize],
        best: &mut Incumbent,
    ) {
        let dl = if depth == 0 { &self.first_dl } else { &self.later_dl };
        let last = depth + 1 == self.horizon;
        for (q, &r) in self.rates.iter().enumerate() {
            let rebuf = (dl[q] - buffer).max(0.0);
            let score = total + qoe_chunk(self.qoe, r, prev, rebuf);
            path[depth] = q;
            if last {
                best.offer(score, path);
            } else if !self.pruned(score, depth + 1, best.score) {
                let buffer = ((buffer - dl[q]).max(0.0) + CHUNK_SECONDS).min(BUFFER_CAP_S);
                self.descend(depth + 1, buffer, Some(r), score, path, best);
            }
        }
    }

    /// Whether no sequence extending a `chosen`-chunk prefix that scores
    /// `score` can reach `incumbent`.
    fn pruned(&self, score: f64, chosen: usize, incumbent: f64) -> bool {
        let Some(cap) = self.cap else { return false };
        let mut bound = score;
        for _ in chosen..self.horizon {
            bound += cap;
        }
        bound < incumbent
    }
}

impl Incumbent {
    /// Keep `path` if it scores higher, or as high with a lower odometer
    /// index.
    fn offer(&mut self, score: f64, path: &[usize]) {
        let earlier = || path.iter().rev().lt(self.path.iter().rev());
        if score > self.score || (score == self.score && earlier()) {
            self.score = score;
            self.path.copy_from_slice(path);
        }
    }
}

impl AbrPolicy for Mpc {
    fn name(&self) -> &str {
        "mpc"
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

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(tps: Vec<f64>, buffer_s: f64, last_quality: Option<usize>) -> AbrObservation {
        let bitrates = vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3];
        let sizes: Vec<f64> = bitrates.iter().map(|b: &f64| b * 1e6 / 8.0 * 4.0).collect();
        AbrObservation {
            last_quality,
            buffer_s,
            throughput_mbps: tps,
            download_s: vec![],
            next_sizes: sizes,
            chunk_index: 5,
            chunks_remaining: 43,
            total_chunks: 48,
            n_qualities: 6,
            bitrates_mbps: bitrates,
        }
    }

    #[test]
    fn first_chunk_is_conservative() {
        let mut m = Mpc::default();
        assert_eq!(m.select(&obs(vec![], 0.0, None)), 0);
    }

    #[test]
    fn rich_network_high_quality() {
        let mut m = Mpc::default();
        let q = m.select(&obs(vec![10.0; 5], 20.0, Some(5)));
        assert_eq!(q, 5);
    }

    #[test]
    fn poor_network_low_quality() {
        let mut m = Mpc::default();
        let q = m.select(&obs(vec![0.4; 5], 2.0, Some(0)));
        assert_eq!(q, 0);
    }

    #[test]
    fn smoothness_weight_tempers_switches() {
        // with the default smoothness weight the switch cost is amortized
        // over the horizon, but a heavy weight must hold the quality down
        let mut default_mpc = Mpc::default();
        let q_default = default_mpc.select(&obs(vec![4.0; 5], 8.0, Some(0)));
        let mut smooth_mpc = Mpc {
            qoe: QoeParams { smoothness_penalty: 20.0, ..QoeParams::default() },
            ..Mpc::default()
        };
        let q_smooth = smooth_mpc.select(&obs(vec![4.0; 5], 8.0, Some(0)));
        assert!(q_default > 0, "bandwidth is ample, quality should rise");
        assert!(
            q_smooth < q_default,
            "heavy smoothness weight must temper the switch: {q_smooth} vs {q_default}"
        );
    }

    #[test]
    fn robustness_discount_reacts_to_errors() {
        let mut m = Mpc::default();
        // feed a history where predictions will have been badly wrong
        let mut o = obs(vec![4.0, 0.4, 4.0, 0.4, 4.0], 6.0, Some(2));
        let q_jittery = m.select(&o);
        let mut m2 = Mpc::default();
        o.throughput_mbps = vec![2.0; 5];
        let q_stable = m2.select(&o);
        assert!(q_jittery <= q_stable, "jittery history must not embolden MPC");
    }

    #[test]
    fn horizon_clamps_at_video_end() {
        let mut m = Mpc::default();
        let mut o = obs(vec![2.0; 5], 10.0, Some(2));
        o.chunks_remaining = 1;
        let q = m.select(&o); // must not panic, single-chunk horizon
        assert!(q < 6);
    }
}
