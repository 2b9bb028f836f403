//! Offline-optimal QoE.
//!
//! Two uses, both from the paper:
//!
//! * [`windowed_optimal_qoe`] — "the highest possible QoE over the last 4
//!   network changes": the exact optimum over a short horizon, used as
//!   `r_opt` in the adversary's reward (Eq. 1). An exact branch and bound
//!   over every quality schedule of the window.
//! * [`optimal_qoe_dp`] — the full-trace "Offline Optimum" plotted in
//!   Fig. 3, computed by DP over (chunk, discretized buffer, last quality).
//!
//! Both take the per-chunk bandwidth view: `bw[i]` is the bandwidth in
//! effect while chunk `i` downloads. For the adversary's traces this is
//! exact (the adversary sets one bandwidth per chunk); for dataset traces
//! [`chunk_bandwidths_from_trace`] produces the approximation.

use crate::player::BUFFER_CAP_S;
use crate::qoe::{qoe_chunk, QoeParams};
use crate::video::Video;

/// Buffer quantum for the full-trace DP (seconds).
const DP_BUFFER_STEP: f64 = 0.2;

/// Time to fetch chunk `chunk` at quality `q` over `bw_mbps`, request
/// latency included.
fn download_s(video: &Video, chunk: usize, q: usize, bw_mbps: f64, latency_s: f64) -> f64 {
    latency_s + video.size_bytes(chunk, q) * 8.0 / (bw_mbps.max(1e-9) * 1e6)
}

/// The buffer after a download of `dl` seconds, which drains it, adds one
/// chunk of playback, and is capped.
fn buffer_after(video: &Video, buffer: f64, dl: f64) -> f64 {
    ((buffer - dl).max(0.0) + video.chunk_seconds()).min(BUFFER_CAP_S)
}

/// Simulate fetching chunk `i` at quality `q` with `buffer` seconds
/// buffered; returns `(chunk QoE, new buffer)`.
#[allow(clippy::too_many_arguments)]
fn chunk_transition(
    video: &Video,
    qoe: &QoeParams,
    chunk: usize,
    q: usize,
    prev_q: Option<usize>,
    buffer: f64,
    bw_mbps: f64,
    latency_s: f64,
) -> (f64, f64) {
    let dl = download_s(video, chunk, q, bw_mbps, latency_s);
    let rebuf = (dl - buffer).max(0.0);
    let r = video.bitrate_mbps(q);
    let prev = prev_q.map(|p| video.bitrate_mbps(p));
    (qoe_chunk(qoe, r, prev, rebuf), buffer_after(video, buffer, dl))
}

/// Exact optimal total QoE for chunks `start..start + bw.len()` given the
/// starting buffer and previous quality (the paper's window is 4 chunks).
///
/// Returns the maximum achievable *total* QoE over the window: the value
/// of the recursion `best(chunk, buffer, prev) = max over q of
/// (chunk QoE + best(chunk + 1, new buffer, q))`, with `0.0` past the
/// window and the maxima taken with [`f64::max`] from `−∞`, bit for bit.
/// The search is a depth-first branch and bound that simulates each
/// prefix of a quality schedule once and skips subtrees that cannot reach
/// the best schedule found so far. Why that is the recursion's value:
///
/// * **Same sums.** Rounding is monotone, so `a + max(x, y) = max(a + x,
///   a + y)`, and the nested maxima equal the maximum, over every
///   schedule, of its right-folded score `c₀ + (c₁ + (… + (c_{n−1} +
///   0.0)))`. A complete schedule is scored in that association, from the
///   same chunk scores ([`qoe_chunk`], with the download times computed
///   once per call by the same expression). Only the value is returned,
///   so the visit order is free and there is no tie-break.
/// * **No signed zero to choose.** The innermost `+ 0.0` turns a `−0.0`
///   chunk score into `+0.0`, and a sum is `−0.0` only when both terms
///   are, so no schedule scores `−0.0` and `f64::max` never has to pick
///   between zeros.
/// * **NaN.** `f64::max` skips NaN, so a NaN schedule never wins in
///   either form; a subtree whose schedules are all NaN gives its parent
///   `−∞` or NaN, neither of which moves a maximum.
/// * **A sound bound.** With non-negative penalties, `rebuf ≥ 0` and
///   `|r − prev| ≥ 0`, so every chunk scores at most `fl(quality_weight ·
///   r) ≤ g` (the largest over the ladder) or NaN, and monotone rounding
///   carries that through the fold: no completion of a prefix `c₀ … c_d`
///   scores above `c₀ + (… + (c_d + (g + (… + (g + 0.0)))))`. A subtree is
///   skipped only when that bound is strictly below the incumbent. With a
///   negative or NaN penalty there is no bound, and a NaN bound never
///   prunes.
///
/// Panics when the window runs past the video's last chunk.
#[allow(clippy::too_many_arguments)]
pub fn windowed_optimal_qoe(
    video: &Video,
    qoe: &QoeParams,
    start_chunk: usize,
    bw_per_chunk: &[f64],
    latency_s: f64,
    start_buffer_s: f64,
    prev_quality: Option<usize>,
) -> f64 {
    assert!(start_chunk + bw_per_chunk.len() <= video.n_chunks(), "window exceeds video");
    let n = bw_per_chunk.len();
    if n == 0 {
        return 0.0;
    }
    let n_q = video.n_qualities();
    let rates: Vec<f64> = (0..n_q).map(|q| video.bitrate_mbps(q)).collect();
    let mut dl = Vec::with_capacity(n * n_q);
    for (k, &bw) in bw_per_chunk.iter().enumerate() {
        dl.extend((0..n_q).map(|q| download_s(video, start_chunk + k, q, bw, latency_s)));
    }
    let caps = (qoe.rebuffer_penalty >= 0.0 && qoe.smoothness_penalty >= 0.0).then(|| {
        let g = rates.iter().map(|r| qoe.quality_weight * r).fold(f64::NEG_INFINITY, f64::max);
        let mut caps = vec![0.0; n];
        for k in 1..n {
            caps[k] = g + caps[k - 1];
        }
        caps
    });
    let mut search = WindowSearch {
        video,
        qoe,
        rates: &rates,
        dl: &dl,
        caps,
        scores: vec![0.0; n],
        best: f64::NEG_INFINITY,
    };
    search.descend(0, start_buffer_s, prev_quality.map(|p| video.bitrate_mbps(p)));
    search.best
}

/// One [`windowed_optimal_qoe`] call's branch and bound.
struct WindowSearch<'a> {
    video: &'a Video,
    qoe: &'a QoeParams,
    /// Bitrates (Mbit/s) of the qualities.
    rates: &'a [f64],
    /// Download time of window chunk `k` at quality `q`, at `k·n_q + q`.
    dl: &'a [f64],
    /// `caps[k]` = `g + (g + … + (g + 0.0))` with `k` terms, if the
    /// penalties make `g` a bound on every chunk's score.
    caps: Option<Vec<f64>>,
    /// Chunk scores of the current prefix.
    scores: Vec<f64>,
    /// Best complete schedule's score so far.
    best: f64,
}

impl WindowSearch<'_> {
    /// Extend the prefix of `depth` chunks (buffer `buffer`, previous
    /// bitrate `prev`) by every quality, the highest first.
    fn descend(&mut self, depth: usize, buffer: f64, prev: Option<f64>) {
        let n_q = self.rates.len();
        let last = depth + 1 == self.scores.len();
        for q in (0..n_q).rev() {
            let dl = self.dl[depth * n_q + q];
            let r = self.rates[q];
            self.scores[depth] = qoe_chunk(self.qoe, r, prev, (dl - buffer).max(0.0));
            if last {
                let total = self.scores.iter().rev().fold(0.0, |rest, &c| c + rest);
                self.best = self.best.max(total);
            } else if !self.pruned(depth) {
                self.descend(depth + 1, buffer_after(self.video, buffer, dl), Some(r));
            }
        }
    }

    /// Whether no schedule extending the prefix `scores[..=depth]` can
    /// reach the incumbent.
    fn pruned(&self, depth: usize) -> bool {
        let Some(caps) = &self.caps else { return false };
        let rest = caps[self.scores.len() - 1 - depth];
        let bound = self.scores[..=depth].iter().rev().fold(rest, |rest, &c| c + rest);
        bound < self.best
    }
}

/// Full-trace offline optimum: the best total QoE and the quality schedule
/// achieving it, by backward DP over (chunk, buffer bucket, last quality).
///
/// `bw_per_chunk.len()` must equal `video.n_chunks()`. The buffer is
/// discretized to `DP_BUFFER_STEP`-second buckets (floor — pessimistic, so
/// the returned value is a lower bound that is tight in practice).
pub fn optimal_qoe_dp(
    video: &Video,
    qoe: &QoeParams,
    bw_per_chunk: &[f64],
    latency_s: f64,
) -> (f64, Vec<usize>) {
    let n = video.n_chunks();
    assert_eq!(bw_per_chunk.len(), n, "need one bandwidth per chunk");
    let n_q = video.n_qualities();
    let n_buf = (BUFFER_CAP_S / DP_BUFFER_STEP) as usize + 1;
    let bucket = |b: f64| -> usize { ((b / DP_BUFFER_STEP) as usize).min(n_buf - 1) };
    // prev-quality axis: 0 = none, 1..=n_q = quality q−1
    let n_prev = n_q + 1;
    let idx = |buf: usize, prev: usize| buf * n_prev + prev;

    // value[s] = best QoE from chunk i to the end given state s at chunk i
    let mut value = vec![0.0_f64; n_buf * n_prev];
    let mut choice = vec![vec![0_u8; n_buf * n_prev]; n];
    for i in (0..n).rev() {
        let mut next_value = vec![f64::NEG_INFINITY; n_buf * n_prev];
        for buf_b in 0..n_buf {
            let buffer = buf_b as f64 * DP_BUFFER_STEP;
            for prev in 0..n_prev {
                let prev_q = if prev == 0 { None } else { Some(prev - 1) };
                let mut best = f64::NEG_INFINITY;
                let mut best_q = 0u8;
                for q in 0..n_q {
                    let (chunk_qoe, new_buffer) = chunk_transition(
                        video,
                        qoe,
                        i,
                        q,
                        prev_q,
                        buffer,
                        bw_per_chunk[i],
                        latency_s,
                    );
                    let future = value[idx(bucket(new_buffer), q + 1)];
                    let total = chunk_qoe + future;
                    if total > best {
                        best = total;
                        best_q = q as u8;
                    }
                }
                next_value[idx(buf_b, prev)] = best;
                choice[i][idx(buf_b, prev)] = best_q;
            }
        }
        value = next_value;
    }

    // forward pass to extract the schedule (using exact buffer dynamics)
    let mut schedule = Vec::with_capacity(n);
    let mut buffer = 0.0;
    let mut prev = 0usize;
    let mut total = 0.0;
    for i in 0..n {
        let q = choice[i][idx(bucket(buffer), prev)] as usize;
        let prev_q = if prev == 0 { None } else { Some(prev - 1) };
        let (chunk_qoe, nb) =
            chunk_transition(video, qoe, i, q, prev_q, buffer, bw_per_chunk[i], latency_s);
        total += chunk_qoe;
        buffer = nb;
        prev = q + 1;
        schedule.push(q);
    }
    (total, schedule)
}

/// Approximate the per-chunk bandwidth a dataset trace offers: walk the
/// trace in playback-paced time (each chunk slot spans `chunk_seconds`)
/// and average the bandwidth over each slot.
pub fn chunk_bandwidths_from_trace(trace: &traces::Trace, video: &Video) -> Vec<f64> {
    let dt = video.chunk_seconds();
    (0..video.n_chunks())
        .map(|i| {
            // average over 8 samples inside the slot
            let t0 = i as f64 * dt;
            let samples = 8;
            (0..samples)
                .map(|k| trace.bandwidth_at(t0 + (k as f64 + 0.5) / samples as f64 * dt))
                .sum::<f64>()
                / samples as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::player::{FixedConditions, Player};
    use crate::protocols::{AbrPolicy, BufferBased};

    #[test]
    fn windowed_optimum_beats_any_fixed_choice() {
        let video = Video::cbr();
        let qoe = QoeParams::default();
        let bw = [2.0, 0.9, 3.0, 1.5];
        let opt = windowed_optimal_qoe(&video, &qoe, 0, &bw, 0.04, 5.0, Some(2));
        for q in 0..video.n_qualities() {
            // greedy constant-quality rollout
            let mut buffer = 5.0;
            let mut prev = Some(2);
            let mut total = 0.0;
            for (k, &b) in bw.iter().enumerate() {
                let (cq, nb) = chunk_transition(&video, &qoe, k, q, prev, buffer, b, 0.04);
                total += cq;
                buffer = nb;
                prev = Some(q);
            }
            assert!(opt >= total - 1e-9, "optimum {opt} beaten by constant quality {q}: {total}");
        }
    }

    #[test]
    fn windowed_optimum_positive_on_decent_network() {
        let video = Video::cbr();
        let qoe = QoeParams::default();
        let opt = windowed_optimal_qoe(&video, &qoe, 0, &[2.0; 4], 0.04, 4.0, None);
        assert!(opt > 4.0, "4 chunks at 2 Mbit/s should yield QoE > 4, got {opt}");
    }

    #[test]
    fn full_dp_beats_bb() {
        let video = Video::cbr();
        let qoe = QoeParams::default();
        let bw: Vec<f64> = (0..48).map(|i| if i % 7 < 4 { 3.0 } else { 1.0 }).collect();
        let (opt, schedule) = optimal_qoe_dp(&video, &qoe, &bw, 0.04);
        assert_eq!(schedule.len(), 48);

        // BB on the same per-chunk bandwidths
        let mut bb = BufferBased::pensieve_defaults();
        let mut player = Player::new(video.clone(), qoe.clone());
        let mut total_bb = 0.0;
        let mut i = 0;
        while !player.finished() {
            let mut net = FixedConditions::new(bw[i], 40.0);
            let obs = player.observation(&net);
            let q = bb.select(&obs);
            total_bb += player.step(q, &mut net).qoe;
            i += 1;
        }
        assert!(opt > total_bb, "offline optimum ({opt}) must beat BB ({total_bb})");
    }

    #[test]
    fn dp_schedule_achieves_reported_value() {
        let video = Video::cbr();
        let qoe = QoeParams::default();
        let bw = vec![2.5; 48];
        let (opt, schedule) = optimal_qoe_dp(&video, &qoe, &bw, 0.04);
        // replay the schedule exactly
        let mut buffer = 0.0;
        let mut prev: Option<usize> = None;
        let mut total = 0.0;
        for (i, &q) in schedule.iter().enumerate() {
            let (cq, nb) = chunk_transition(&video, &qoe, i, q, prev, buffer, bw[i], 0.04);
            total += cq;
            buffer = nb;
            prev = Some(q);
        }
        assert!((total - opt).abs() < 1e-9, "schedule value {total} != reported {opt}");
    }

    #[test]
    fn dp_on_constant_fat_pipe_streams_top_quality() {
        let video = Video::cbr();
        let qoe = QoeParams::default();
        let (_, schedule) = optimal_qoe_dp(&video, &qoe, &vec![20.0; 48], 0.01);
        // after warmup the optimum must stream at the top bitrate
        assert!(schedule[8..].iter().all(|&q| q == 5), "{schedule:?}");
    }

    #[test]
    fn chunk_bandwidths_sample_trace() {
        use traces::{Segment, Trace};
        let video = Video::cbr();
        let t = Trace::new("t", vec![Segment::bw(96.0, 1.0, 40.0), Segment::bw(96.0, 3.0, 40.0)]);
        let bws = chunk_bandwidths_from_trace(&t, &video);
        assert_eq!(bws.len(), 48);
        assert!((bws[0] - 1.0).abs() < 1e-9);
        assert!((bws[30] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_matches_dp_on_short_video() {
        // a 4-chunk video: the exact windowed optimum and the full DP must agree
        let bitrates = vec![300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0];
        let sizes: Vec<Vec<f64>> =
            (0..4).map(|_| bitrates.iter().map(|b| b * 1000.0 / 8.0 * 4.0).collect()).collect();
        let video = Video::new(bitrates, sizes, 4.0);
        let qoe = QoeParams::default();
        let bw = [1.2, 2.0, 0.9, 3.5];
        let exact = windowed_optimal_qoe(&video, &qoe, 0, &bw, 0.04, 0.0, None);
        let (dp, _) = optimal_qoe_dp(&video, &qoe, &bw, 0.04);
        // DP discretizes the buffer, so allow a small pessimism gap
        assert!((exact - dp).abs() < 0.3, "exact {exact} vs dp {dp}");
        assert!(dp <= exact + 1e-9, "dp must not exceed the exact optimum");
    }
}
