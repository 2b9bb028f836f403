//! Offline-optimal QoE via dynamic programming.
//!
//! Two uses, both from the paper:
//!
//! * [`windowed_optimal_qoe`] — "the highest possible QoE over the last 4
//!   network changes": the exact optimum over a short horizon, used as
//!   `r_opt` in the adversary's reward (Eq. 1). Exhaustive search, exact.
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
    let dl = latency_s + video.size_bytes(chunk, q) * 8.0 / (bw_mbps.max(1e-9) * 1e6);
    let rebuf = (dl - buffer).max(0.0);
    let new_buffer = ((buffer - dl).max(0.0) + video.chunk_seconds()).min(BUFFER_CAP_S);
    let r = video.bitrate_mbps(q);
    let prev = prev_q.map(|p| video.bitrate_mbps(p));
    (qoe_chunk(qoe, r, prev, rebuf), new_buffer)
}

/// Exact optimal total QoE for chunks `start..start + bw.len()` given the
/// starting buffer and previous quality, by exhaustive search (the horizon
/// is small — the paper uses 4).
///
/// Returns the maximum achievable *total* QoE over the window.
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
    fn recurse(
        video: &Video,
        qoe: &QoeParams,
        chunk: usize,
        bw: &[f64],
        latency_s: f64,
        buffer: f64,
        prev_q: Option<usize>,
    ) -> f64 {
        if bw.is_empty() {
            return 0.0;
        }
        let mut best = f64::NEG_INFINITY;
        for q in 0..video.n_qualities() {
            let (chunk_qoe, new_buffer) =
                chunk_transition(video, qoe, chunk, q, prev_q, buffer, bw[0], latency_s);
            let rest = recurse(video, qoe, chunk + 1, &bw[1..], latency_s, new_buffer, Some(q));
            best = best.max(chunk_qoe + rest);
        }
        best
    }
    recurse(video, qoe, start_chunk, bw_per_chunk, latency_s, start_buffer_s, prev_quality)
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
        // a 4-chunk video: windowed exhaustive and full DP must agree
        let bitrates = vec![300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0];
        let sizes: Vec<Vec<f64>> =
            (0..4).map(|_| bitrates.iter().map(|b| b * 1000.0 / 8.0 * 4.0).collect()).collect();
        let video = Video::new(bitrates, sizes, 4.0);
        let qoe = QoeParams::default();
        let bw = [1.2, 2.0, 0.9, 3.5];
        let exhaustive = windowed_optimal_qoe(&video, &qoe, 0, &bw, 0.04, 0.0, None);
        let (dp, _) = optimal_qoe_dp(&video, &qoe, &bw, 0.04);
        // DP discretizes the buffer, so allow a small pessimism gap
        assert!((exhaustive - dp).abs() < 0.3, "exhaustive {exhaustive} vs dp {dp}");
        assert!(dp <= exhaustive + 1e-9, "dp must not exceed the exact optimum");
    }
}
