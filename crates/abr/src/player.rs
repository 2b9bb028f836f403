//! The streaming client: buffer dynamics, rebuffering, and chunk accounting.
//!
//! The state-transition equations are those of the Pensieve simulator:
//!
//! ```text
//! download_time = latency + size / bandwidth          (integrated over the trace)
//! rebuffer      = max(0, download_time − buffer)
//! buffer        = max(buffer − download_time, 0) + chunk_seconds
//! if buffer > BUFFER_CAP: sleep buffer − BUFFER_CAP (network idles, trace advances)
//! ```

use crate::obs::{AbrObservation, HISTORY_LEN};
use crate::qoe::{qoe_chunk, QoeParams};
use crate::video::Video;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use traces::{Trace, TraceCursor};

/// Maximum client buffer in seconds (Pensieve's 60 s cap).
pub const BUFFER_CAP_S: f64 = 60.0;

/// The network as the player sees it: byte downloads that take time, plus
/// idle waiting.
pub trait Network {
    /// Download `bytes` starting now; returns elapsed seconds (excluding
    /// the request latency, which the caller adds via [`Network::latency_s`]).
    fn download(&mut self, bytes: f64) -> f64;
    /// One-way request latency in seconds.
    fn latency_s(&self) -> f64;
    /// Let `dt` seconds of wall-clock pass without transferring (buffer-full
    /// sleeps).
    fn advance(&mut self, dt: f64);
}

/// Replay of a recorded [`traces::Trace`].
#[derive(Debug, Clone)]
pub struct TraceNetwork {
    cursor: TraceCursor,
}

impl TraceNetwork {
    /// Replay `trace` from its start. An owned [`Trace`] moves in and an
    /// `Arc<Trace>` is shared; neither is copied.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        TraceNetwork { cursor: TraceCursor::new(trace) }
    }

    /// Start `offset_s` seconds into the trace (Pensieve randomizes this
    /// per training episode).
    pub fn starting_at(trace: impl Into<Arc<Trace>>, offset_s: f64) -> Self {
        TraceNetwork { cursor: TraceCursor::starting_at(trace, offset_s) }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.cursor.elapsed_s()
    }
}

impl Network for TraceNetwork {
    fn download(&mut self, bytes: f64) -> f64 {
        self.cursor.download(bytes)
    }

    fn latency_s(&self) -> f64 {
        self.cursor.latency_ms() / 1000.0
    }

    fn advance(&mut self, dt: f64) {
        self.cursor.advance_time(dt);
    }
}

/// Constant conditions until changed — the adversary's per-chunk knob: it
/// sets the bandwidth before each chunk request (§3: "each action of the
/// adversary is a choice of bandwidth in the range of 0.8–4.8 Mbps").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedConditions {
    pub bandwidth_mbps: f64,
    pub latency_ms: f64,
}

impl FixedConditions {
    pub fn new(bandwidth_mbps: f64, latency_ms: f64) -> Self {
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        FixedConditions { bandwidth_mbps, latency_ms }
    }
}

impl Network for FixedConditions {
    fn download(&mut self, bytes: f64) -> f64 {
        bytes * 8.0 / (self.bandwidth_mbps * 1e6)
    }

    fn latency_s(&self) -> f64 {
        self.latency_ms / 1000.0
    }

    fn advance(&mut self, _dt: f64) {}
}

/// What happened while fetching one chunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChunkOutcome {
    pub chunk_index: usize,
    pub quality: usize,
    pub bitrate_mbps: f64,
    pub size_bytes: f64,
    /// Total fetch time including latency, seconds.
    pub download_s: f64,
    /// Stall caused by this chunk, seconds.
    pub rebuffer_s: f64,
    /// Buffer-full idle time after this chunk, seconds.
    pub sleep_s: f64,
    /// Measured goodput `size / download_time` in Mbit/s.
    pub throughput_mbps: f64,
    /// Buffer level after the chunk was added, seconds.
    pub buffer_after_s: f64,
    /// QoE contribution of this chunk.
    pub qoe: f64,
}

/// A streaming session in progress. The video model is shared (an
/// [`Arc`]), so sessions inside long-lived training environments and
/// fleets hold one chunk-size table between them, and cloning a player
/// (a fleet snapshot) copies only the session's own state, heap-free.
#[derive(Debug, Clone)]
pub struct Player {
    video: Arc<Video>,
    qoe_params: QoeParams,
    next_chunk: usize,
    buffer_s: f64,
    last_quality: Option<usize>,
    /// Wall-clock seconds since the session started.
    time_s: f64,
    total_rebuffer_s: f64,
    /// Throughput (Mbit/s) and download time (s) of the last `hist_len`
    /// chunks, oldest first: the windows an observation shows, and nothing
    /// reads further back.
    throughput_hist: [f64; HISTORY_LEN],
    download_hist: [f64; HISTORY_LEN],
    hist_len: usize,
}

impl Player {
    /// A session before its first chunk. An owned [`Video`] moves in and
    /// an `Arc<Video>` is shared; neither is copied.
    pub fn new(video: impl Into<Arc<Video>>, qoe_params: QoeParams) -> Self {
        Player {
            video: video.into(),
            qoe_params,
            next_chunk: 0,
            buffer_s: 0.0,
            last_quality: None,
            time_s: 0.0,
            total_rebuffer_s: 0.0,
            throughput_hist: [0.0; HISTORY_LEN],
            download_hist: [0.0; HISTORY_LEN],
            hist_len: 0,
        }
    }

    pub fn finished(&self) -> bool {
        self.next_chunk >= self.video.n_chunks()
    }

    pub fn buffer_s(&self) -> f64 {
        self.buffer_s
    }

    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    pub fn total_rebuffer_s(&self) -> f64 {
        self.total_rebuffer_s
    }

    pub fn next_chunk(&self) -> usize {
        self.next_chunk
    }

    pub fn last_quality(&self) -> Option<usize> {
        self.last_quality
    }

    pub fn video(&self) -> &Video {
        &self.video
    }

    /// The observation a protocol conditions on before choosing the next
    /// chunk's quality.
    pub fn observation(&self, net: &dyn Network) -> AbrObservation {
        let mut obs = AbrObservation::default();
        self.observation_into(net, &mut obs);
        obs
    }

    /// [`Player::observation`] written into `obs`. Every field is
    /// overwritten and the vectors keep their capacity, so one scratch
    /// observation serves any number of sessions and chunks without a heap
    /// allocation once its buffers have grown.
    pub fn observation_into(&self, _net: &dyn Network, obs: &mut AbrObservation) {
        // destructured so that a field added to the observation cannot be
        // left stale here
        let AbrObservation {
            last_quality,
            buffer_s,
            throughput_mbps,
            download_s,
            next_sizes,
            chunk_index,
            chunks_remaining,
            total_chunks,
            n_qualities,
            bitrates_mbps,
        } = obs;
        let video = &*self.video;
        *last_quality = self.last_quality;
        *buffer_s = self.buffer_s;
        throughput_mbps.clear();
        throughput_mbps.extend_from_slice(&self.throughput_hist[..self.hist_len]);
        download_s.clear();
        download_s.extend_from_slice(&self.download_hist[..self.hist_len]);
        next_sizes.clear();
        if self.finished() {
            next_sizes.resize(video.n_qualities(), 0.0);
        } else {
            next_sizes.extend_from_slice(video.sizes_of(self.next_chunk));
        }
        *chunk_index = self.next_chunk;
        *chunks_remaining = video.n_chunks() - self.next_chunk;
        *total_chunks = video.n_chunks();
        *n_qualities = video.n_qualities();
        bitrates_mbps.clear();
        bitrates_mbps.extend((0..video.n_qualities()).map(|q| video.bitrate_mbps(q)));
    }

    /// Append one chunk's samples to the history windows, dropping the
    /// oldest once they are full.
    fn push_history(&mut self, throughput_mbps: f64, download_s: f64) {
        if self.hist_len == HISTORY_LEN {
            self.throughput_hist.copy_within(1.., 0);
            self.download_hist.copy_within(1.., 0);
            self.hist_len -= 1;
        }
        self.throughput_hist[self.hist_len] = throughput_mbps;
        self.download_hist[self.hist_len] = download_s;
        self.hist_len += 1;
    }

    /// Fetch the next chunk at `quality` over `net`.
    ///
    /// Panics if the session is finished or `quality` is out of range.
    pub fn step(&mut self, quality: usize, net: &mut dyn Network) -> ChunkOutcome {
        assert!(!self.finished(), "session already finished");
        assert!(quality < self.video.n_qualities(), "quality {quality} out of range");
        let chunk = self.next_chunk;
        let size = self.video.size_bytes(chunk, quality);
        let latency = net.latency_s();
        net.advance(latency);
        let transfer = net.download(size);
        let dl = latency + transfer;

        let rebuffer = (dl - self.buffer_s).max(0.0);
        self.buffer_s = (self.buffer_s - dl).max(0.0) + self.video.chunk_seconds();
        let mut sleep = 0.0;
        if self.buffer_s > BUFFER_CAP_S {
            sleep = self.buffer_s - BUFFER_CAP_S;
            net.advance(sleep);
            self.buffer_s = BUFFER_CAP_S;
        }
        self.time_s += dl + sleep;
        self.total_rebuffer_s += rebuffer;

        let bitrate = self.video.bitrate_mbps(quality);
        let prev_bitrate = self.last_quality.map(|q| self.video.bitrate_mbps(q));
        let qoe = qoe_chunk(&self.qoe_params, bitrate, prev_bitrate, rebuffer);

        let throughput = size * 8.0 / dl.max(1e-9) / 1e6;
        self.push_history(throughput, dl);
        self.last_quality = Some(quality);
        self.next_chunk += 1;

        ChunkOutcome {
            chunk_index: chunk,
            quality,
            bitrate_mbps: bitrate,
            size_bytes: size,
            download_s: dl,
            rebuffer_s: rebuffer,
            sleep_s: sleep,
            throughput_mbps: throughput,
            buffer_after_s: self.buffer_s,
            qoe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use traces::{Segment, Trace};

    fn video() -> Video {
        Video::cbr()
    }

    #[test]
    fn fast_network_fills_buffer() {
        let v = video();
        let mut net = FixedConditions::new(100.0, 0.0);
        let mut p = Player::new(v.clone(), QoeParams::default());
        let o = p.step(0, &mut net);
        // 150 kB over 100 Mbit/s ≈ 12 ms — no rebuffering after chunk 1
        assert!(o.download_s < 0.1);
        assert!(
            (o.rebuffer_s - o.download_s).abs() < 1e-12,
            "first chunk always stalls by dl time"
        );
        assert!((p.buffer_s() - 4.0).abs() < 0.1);
    }

    #[test]
    fn slow_network_rebuffers() {
        let v = video();
        let mut net = FixedConditions::new(0.3, 0.0);
        let mut p = Player::new(v.clone(), QoeParams::default());
        p.step(0, &mut net); // 300 kbit/s chunk at 0.3 Mbit/s: dl = 4 s
        let o = p.step(5, &mut net); // 4.3 Mbit/s chunk: dl ≈ 57 s ≫ buffer 4 s
        assert!(o.rebuffer_s > 50.0, "rebuffer {}", o.rebuffer_s);
        assert!(o.qoe < -200.0, "heavy stall must crater QoE, got {}", o.qoe);
    }

    #[test]
    fn buffer_caps_and_sleeps() {
        let v = video();
        let mut net = FixedConditions::new(1000.0, 0.0);
        let mut p = Player::new(v.clone(), QoeParams::default());
        let mut slept = 0.0;
        for _ in 0..20 {
            slept += p.step(0, &mut net).sleep_s;
        }
        assert!(p.buffer_s() <= BUFFER_CAP_S + 1e-9);
        assert!(slept > 0.0, "a fast network must hit the buffer cap and sleep");
    }

    #[test]
    fn throughput_measured_correctly() {
        let v = video();
        let mut net = FixedConditions::new(2.0, 0.0);
        let mut p = Player::new(v.clone(), QoeParams::default());
        let o = p.step(2, &mut net); // 1.2 Mbit/s × 4 s = 600 kB at 2 Mbit/s -> 2.4 s
        assert!((o.download_s - 2.4).abs() < 1e-9);
        assert!((o.throughput_mbps - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_adds_to_download_time() {
        let v = video();
        let mut no_lat = FixedConditions::new(2.0, 0.0);
        let mut with_lat = FixedConditions::new(2.0, 500.0);
        let mut p1 = Player::new(v.clone(), QoeParams::default());
        let mut p2 = Player::new(v.clone(), QoeParams::default());
        let a = p1.step(0, &mut no_lat);
        let b = p2.step(0, &mut with_lat);
        assert!((b.download_s - a.download_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn session_runs_to_completion() {
        let v = video();
        let t = Trace::new("t", vec![Segment::bw(10.0, 3.0, 40.0)]);
        let mut net = TraceNetwork::new(t);
        let mut p = Player::new(v.clone(), QoeParams::default());
        let mut n = 0;
        while !p.finished() {
            p.step(2, &mut net);
            n += 1;
        }
        assert_eq!(n, 48);
    }

    #[test]
    fn observation_reflects_history() {
        let v = video();
        let mut net = FixedConditions::new(2.0, 0.0);
        let mut p = Player::new(v.clone(), QoeParams::default());
        for _ in 0..12 {
            p.step(1, &mut net);
        }
        let o = p.observation(&net);
        assert_eq!(o.throughput_mbps.len(), HISTORY_LEN);
        assert_eq!(o.download_s.len(), HISTORY_LEN);
        assert_eq!(o.chunk_index, 12);
        assert_eq!(o.chunks_remaining, 36);
        assert_eq!(o.last_quality, Some(1));
        assert_eq!(o.next_sizes.len(), 6);
    }

    #[test]
    #[should_panic(expected = "quality 9 out of range")]
    fn invalid_quality_rejected() {
        let v = video();
        let mut net = FixedConditions::new(2.0, 0.0);
        let mut p = Player::new(v.clone(), QoeParams::default());
        p.step(9, &mut net);
    }

    #[test]
    fn trace_network_time_advances_during_sleep() {
        let t = Trace::new("t", vec![Segment::bw(5.0, 8.0, 0.0), Segment::bw(5.0, 1.0, 0.0)]);
        let mut net = TraceNetwork::new(t);
        net.advance(6.0);
        // one megabit at the second segment's 1 Mbit/s, not the first's 8
        assert_eq!(net.download(125_000.0), 1.0);
    }

    /// Every field of an observation, as bits.
    type ObsBits = (Option<usize>, u64, [Vec<u64>; 4], [usize; 4]);

    fn obs_bits(o: &AbrObservation) -> ObsBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (
            o.last_quality,
            o.buffer_s.to_bits(),
            [
                bits(&o.throughput_mbps),
                bits(&o.download_s),
                bits(&o.next_sizes),
                bits(&o.bitrates_mbps),
            ],
            [o.chunk_index, o.chunks_remaining, o.total_chunks, o.n_qualities],
        )
    }

    fn outcome_bits(o: &ChunkOutcome) -> (usize, usize, [u64; 8]) {
        let f = [
            o.bitrate_mbps,
            o.size_bytes,
            o.download_s,
            o.rebuffer_s,
            o.sleep_s,
            o.throughput_mbps,
            o.buffer_after_s,
            o.qoe,
        ];
        (o.chunk_index, o.quality, f.map(f64::to_bits))
    }

    /// A scratch observation full of garbage: NaN everywhere, vectors of
    /// the wrong lengths, counts off the video.
    fn dirty_scratch(rng: &mut StdRng) -> AbrObservation {
        let mut junk = || vec![f64::NAN; rng.gen_range(0..20usize)];
        AbrObservation {
            last_quality: Some(99),
            buffer_s: f64::NAN,
            throughput_mbps: junk(),
            download_s: junk(),
            next_sizes: junk(),
            chunk_index: 7_777,
            chunks_remaining: 0,
            total_chunks: 1,
            n_qualities: 40,
            bitrates_mbps: junk(),
        }
    }

    /// Play `chunks` random chunks on a player and on the pre-change
    /// player side by side; before every chunk and after the last, the
    /// observation written into one reused, initially dirty scratch (and
    /// the allocating wrapper's) must equal the oracle's bit for bit, and
    /// so must every chunk's outcome.
    fn check_against_oracle(seed: u64, chunks: usize) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let video = if seed.is_multiple_of(2) { Video::cbr() } else { Video::synthetic(seed) };
        let mut player = Player::new(video.clone(), QoeParams::default());
        let mut legacy = oracle::Player::new(&video, QoeParams::default());
        let mut scratch = dirty_scratch(&mut rng);
        for chunk in 0..=chunks {
            let mut net =
                FixedConditions::new(rng.gen_range(0.05..12.0), rng.gen_range(0.0..300.0));
            let want = obs_bits(&legacy.observation(&net));
            player.observation_into(&net, &mut scratch);
            prop_assert!(obs_bits(&scratch) == want, "chunk {chunk}: the scratch differs");
            prop_assert!(obs_bits(&player.observation(&net)) == want, "chunk {chunk}: wrapper");
            if chunk == chunks {
                break;
            }
            let q = rng.gen_range(0..video.n_qualities());
            let got = player.step(q, &mut net);
            prop_assert_eq!(outcome_bits(&got), outcome_bits(&legacy.step(q, &mut net)));
        }
        prop_assert_eq!(player.finished(), legacy.finished());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Histories of 0–48 chunks (the whole video): the fixed windows
        /// show what the pre-change player's full histories showed.
        #[test]
        fn observation_into_matches_the_legacy_player(
            seed in 0u64..1_000_000,
            chunks in 0usize..=48,
        ) {
            check_against_oracle(seed, chunks)?;
        }
    }

    /// A finished player offers zero-byte next chunks at every quality.
    #[test]
    fn finished_player_matches_the_legacy_player() {
        for seed in [3, 8] {
            check_against_oracle(seed, 48).unwrap();
        }
    }
}
