//! The windowed optimum's equivalence contract.
//!
//! `windowed_optimal_qoe` (the `r_opt` of the adversary's reward, Eq. 1)
//! searches quality schedules depth-first and skips subtrees that an exact
//! floating-point bound rules out. [`recursive_optimum`] below is the
//! recursion it replaced, kept verbatim as the oracle: it re-simulates
//! every one of the `n_q^window` schedules and takes the maxima with
//! `f64::max`. The two must return the same bits for every window,
//! including non-finite bandwidths, latencies and buffers, negative, NaN
//! and infinite penalties, signed-zero quality weights, and every window
//! of whole adversary-like episodes.

use abr::player::BUFFER_CAP_S;
use abr::{
    qoe_chunk, windowed_optimal_qoe, AbrPolicy, BufferBased, FixedConditions, Mpc, Player,
    QoeParams, Video,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// starting buffer and previous quality, by exhaustive search, as it
/// shipped before the branch-and-bound rewrite.
#[allow(clippy::too_many_arguments)]
fn recursive_optimum(
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

/// One call's inputs.
#[derive(Debug)]
struct Window {
    vbr_seed: Option<u64>,
    qoe: QoeParams,
    start: usize,
    bws: Vec<f64>,
    latency_s: f64,
    buffer_s: f64,
    prev: Option<usize>,
}

impl Window {
    fn video(&self) -> Video {
        self.vbr_seed.map_or_else(Video::cbr, Video::synthetic)
    }

    /// `Err` with both values when the search and the oracle differ.
    fn check_on(&self, video: &Video) -> Result<(), String> {
        let (start, bws, lat, buf) = (self.start, &self.bws, self.latency_s, self.buffer_s);
        let got = windowed_optimal_qoe(video, &self.qoe, start, bws, lat, buf, self.prev);
        let expected = recursive_optimum(video, &self.qoe, start, bws, lat, buf, self.prev);
        if got.to_bits() == expected.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "search {got:e} ({:#x}), recursion {expected:e} ({:#x}): {self:?}",
                got.to_bits(),
                expected.to_bits()
            ))
        }
    }

    fn check(&self) -> Result<(), String> {
        self.check_on(&self.video())
    }
}

/// One of `values`, uniformly.
fn pick(rng: &mut StdRng, values: &[f64]) -> f64 {
    values[rng.gen_range(0..values.len())]
}

/// One of `specials` with probability `p_special`, else `usual`.
fn sometimes(rng: &mut StdRng, p_special: f64, specials: &[f64], usual: f64) -> f64 {
    if rng.gen_bool(p_special) {
        pick(rng, specials)
    } else {
        usual
    }
}

fn qoe(rng: &mut StdRng) -> QoeParams {
    let base = QoeParams::default();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    match rng.gen_range(0..12) {
        0 | 1 => base,
        2 => QoeParams::rebuffer_only(),
        3 => QoeParams { quality_weight: 0.0, rebuffer_penalty: 0.0, smoothness_penalty: 0.0 },
        4 => QoeParams { smoothness_penalty: -rng.gen_range(0.1..2.0), ..base },
        5 => QoeParams { rebuffer_penalty: -rng.gen_range(0.1..5.0), ..base },
        6 => QoeParams { rebuffer_penalty: pick(rng, &[nan, inf, -inf]), ..base },
        7 => QoeParams { smoothness_penalty: pick(rng, &[nan, inf, -inf]), ..base },
        8 => QoeParams { quality_weight: pick(rng, &[nan, inf, -inf]), ..base },
        9 => QoeParams { quality_weight: pick(rng, &[0.0, -0.0]), ..base },
        10 => QoeParams { smoothness_penalty: 0.0, ..base },
        _ => QoeParams {
            quality_weight: rng.gen_range(-1.0..2.0),
            rebuffer_penalty: rng.gen_range(0.0..10.0),
            smoothness_penalty: rng.gen_range(0.0..3.0),
        },
    }
}

/// A random window: 0–6 chunks (mostly 1–4) at a random start chunk of a
/// CBR or VBR video, with occasional zero, negative and non-finite
/// inputs.
fn random_window(seed: u64) -> Window {
    let mut rng = StdRng::seed_from_u64(seed);
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let vbr_seed = rng.gen_bool(0.5).then(|| rng.gen());
    let len = [0_usize, 1, 2, 3, 4, 4, 4, 4, 5, 6][rng.gen_range(0..10_usize)];
    let start = rng.gen_range(0..=48_usize - len);
    let dyadic = rng.gen_bool(0.25);
    let bws = (0..len)
        .map(|_| {
            let usual = if dyadic {
                rng.gen_range(1..=24_u32) as f64 * 0.25
            } else {
                rng.gen_range(0.3..6.0)
            };
            sometimes(&mut rng, 0.05, &[0.0, -0.0, -1.5, 1e-12, nan, inf, -inf], usual)
        })
        .collect();
    let usual_latency = if rng.gen_bool(0.5) { 0.08 } else { rng.gen_range(0.0..0.2) };
    let latency_s = sometimes(&mut rng, 0.05, &[0.0, -0.5, nan, inf, -inf], usual_latency);
    let usual_buffer = match rng.gen_range(0..4) {
        0 => 0.0,
        1 => BUFFER_CAP_S,
        2 => rng.gen_range(0..=60_u32) as f64,
        _ => rng.gen_range(0.0..BUFFER_CAP_S),
    };
    let buffer_s = sometimes(&mut rng, 0.05, &[-2.0, nan, inf, -inf], usual_buffer);
    let prev = rng.gen_bool(0.75).then(|| rng.gen_range(0..6_usize));
    Window { vbr_seed, qoe: qoe(&mut rng), start, bws, latency_s, buffer_s, prev }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn random_windows_match_the_recursion(seed in any::<u64>()) {
        let result = random_window(seed).check();
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// Windows built for a negative rebuffer penalty, under which the bound
/// must be off: the quality term is 0, so every schedule's score is its
/// smoothness cost against a rebuffering reward, and the best schedule
/// rebuffers as much as the smoothness penalty allows. Random windows
/// rarely show a bound left on here, since a top-down search meets the
/// schedule that rebuffers most first; a short buffer and a previous
/// quality to switch away from make the best schedule pay for its
/// switches before it rebuffers.
#[test]
fn negative_rebuffer_penalty_windows_match_the_recursion() {
    let mut rng = StdRng::seed_from_u64(0x4e9_4eb0f);
    for case in 0..5000 {
        let len = rng.gen_range(2..=5_usize);
        let w = Window {
            vbr_seed: rng.gen_bool(0.5).then(|| rng.gen()),
            qoe: QoeParams {
                quality_weight: 0.0,
                rebuffer_penalty: -rng.gen_range(0.1..4.3),
                smoothness_penalty: rng.gen_range(0.5..3.0),
            },
            start: rng.gen_range(0..=48 - len),
            bws: (0..len).map(|_| rng.gen_range(0.3..3.0)).collect(),
            latency_s: 0.08,
            buffer_s: rng.gen_range(0.0..10.0),
            prev: Some(rng.gen_range(0..6_usize)),
        };
        if let Err(e) = w.check() {
            panic!("case {case}: {e}");
        }
    }
}

#[test]
fn non_finite_inputs_match_the_recursion() {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let base = QoeParams::default();
    let qoes = [
        base.clone(),
        QoeParams::rebuffer_only(),
        QoeParams { quality_weight: 0.0, rebuffer_penalty: 0.0, smoothness_penalty: 0.0 },
        QoeParams { quality_weight: -0.0, ..base.clone() },
        QoeParams { quality_weight: -0.0, ..QoeParams::rebuffer_only() },
        QoeParams { quality_weight: nan, ..base.clone() },
        QoeParams { quality_weight: inf, ..base.clone() },
        QoeParams { quality_weight: -inf, ..base.clone() },
        QoeParams { rebuffer_penalty: nan, ..base.clone() },
        QoeParams { rebuffer_penalty: inf, ..base.clone() },
        QoeParams { rebuffer_penalty: -inf, ..base.clone() },
        QoeParams { smoothness_penalty: nan, ..base.clone() },
        QoeParams { smoothness_penalty: inf, ..base.clone() },
        QoeParams { smoothness_penalty: -inf, ..base.clone() },
    ];
    let bw_sets: [&[f64]; 7] = [
        &[2.0, 0.9, 3.1],
        &[0.0, 2.0, 2.0],
        &[2.0, -1.0, 1.0],
        &[nan, 2.0, 2.0],
        &[2.0, inf, 1.0],
        &[1.0, 1.0, -inf],
        &[1e-12, 4.8, 0.8],
    ];
    let mut calls = 0;
    for (name, video) in [("cbr", Video::cbr()), ("vbr", Video::synthetic(11))] {
        for qoe in &qoes {
            for bws in bw_sets {
                for latency_s in [0.08, 0.0, -0.5, nan, inf] {
                    for buffer_s in [nan, 0.0, 17.0, BUFFER_CAP_S, inf, -inf, -3.0] {
                        for prev in [None, Some(0), Some(5)] {
                            let w = Window {
                                vbr_seed: None,
                                qoe: qoe.clone(),
                                start: 20,
                                bws: bws.to_vec(),
                                latency_s,
                                buffer_s,
                                prev,
                            };
                            if let Err(e) = w.check_on(&video) {
                                panic!("{name}: {e}");
                            }
                            calls += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(calls, 2 * 14 * 7 * 5 * 7 * 3);
}

#[test]
fn empty_and_whole_range_windows_match_the_recursion() {
    let video = Video::synthetic(3);
    let qoe = QoeParams::default();
    for start in [0, 17, 48] {
        let got = windowed_optimal_qoe(&video, &qoe, start, &[], 0.08, 5.0, Some(2));
        assert_eq!(got.to_bits(), 0.0_f64.to_bits(), "empty window at {start}");
    }
    // the window may end exactly at the last chunk
    let w = Window {
        vbr_seed: Some(3),
        qoe,
        start: 44,
        bws: vec![1.0, 2.5, 0.9, 4.0],
        latency_s: 0.08,
        buffer_s: 9.0,
        prev: None,
    };
    w.check().unwrap();
}

#[test]
#[should_panic(expected = "window exceeds video")]
fn windows_past_the_video_panic() {
    windowed_optimal_qoe(&Video::cbr(), &QoeParams::default(), 46, &[2.0; 3], 0.08, 5.0, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every Eq. 1 window of one episode of the §3 adversary's loop: a
    /// target streams the video while the bandwidth of each chunk is drawn
    /// from the adversary's 0.8–4.8 Mbit/s range, and each window of the
    /// last 1–4 chunks starts from the buffer and previous quality before
    /// its first chunk.
    #[test]
    fn every_window_of_adversary_like_episodes_matches_the_recursion(
        seed in any::<u64>(),
        vbr in any::<bool>(),
        mpc in any::<bool>(),
        rebuffer_only in any::<bool>(),
    ) {
        let video = if vbr { Video::synthetic(seed) } else { Video::cbr() };
        let qoe = if rebuffer_only { QoeParams::rebuffer_only() } else { QoeParams::default() };
        let mut target: Box<dyn AbrPolicy> =
            if mpc { Box::new(Mpc::default()) } else { Box::new(BufferBased::pensieve_defaults()) };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut player = Player::new(video.clone(), QoeParams::default());
        let mut net = FixedConditions::new(2.0, 80.0);
        // (buffer, previous quality, chunk, bandwidth) before each chunk
        let mut before = Vec::new();
        while !player.finished() {
            net.bandwidth_mbps = rng.gen_range(0.8..4.8);
            before.push((player.buffer_s(), player.last_quality(), player.next_chunk(), net.bandwidth_mbps));
            let obs = player.observation(&net);
            let q = target.select(&obs);
            player.step(q, &mut net);
        }
        for end in 1..=before.len() {
            let window = &before[end.saturating_sub(4)..end];
            let (buffer_s, prev, start, _) = window[0];
            let w = Window {
                vbr_seed: None,
                qoe: qoe.clone(),
                start,
                bws: window.iter().map(|e| e.3).collect(),
                latency_s: 0.08,
                buffer_s,
                prev,
            };
            let result = w.check_on(&video);
            prop_assert!(result.is_ok(), "window ending at chunk {end}: {}", result.unwrap_err());
        }
    }
}
