//! The observation and feature bodies as they were before a player kept
//! its history in two fixed windows, shared its video and wrote into a
//! reused scratch, and before Pensieve's features were written in place.
//! Test code only: the in-place bodies must match these bit for bit
//! (`player::tests`, `protocols::pensieve::tests`).
//!
//! [`Player`] is the pre-change struct, constructor, `finished`,
//! `observation` and `step`, and [`pensieve_features`] the pre-change
//! function, each verbatim.

use crate::obs::{AbrObservation, HISTORY_LEN};
use crate::player::{ChunkOutcome, Network, BUFFER_CAP_S};
use crate::protocols::pensieve::PENSIEVE_OBS_DIM;
use crate::qoe::{qoe_chunk, QoeParams};
use crate::video::Video;

/// A streaming session in progress. Owns a copy of the video model so the
/// session can live inside long-lived training environments.
#[derive(Debug, Clone)]
pub struct Player {
    video: Video,
    qoe_params: QoeParams,
    next_chunk: usize,
    buffer_s: f64,
    last_quality: Option<usize>,
    /// Wall-clock seconds since the session started.
    time_s: f64,
    total_rebuffer_s: f64,
    throughput_hist: Vec<f64>,
    download_hist: Vec<f64>,
}

impl Player {
    pub fn new(video: &Video, qoe_params: QoeParams) -> Self {
        Player {
            video: video.clone(),
            qoe_params,
            next_chunk: 0,
            buffer_s: 0.0,
            last_quality: None,
            time_s: 0.0,
            total_rebuffer_s: 0.0,
            throughput_hist: Vec::new(),
            download_hist: Vec::new(),
        }
    }

    pub fn finished(&self) -> bool {
        self.next_chunk >= self.video.n_chunks()
    }

    /// The observation a protocol conditions on before choosing the next
    /// chunk's quality.
    pub fn observation(&self, _net: &dyn Network) -> AbrObservation {
        let hist_from = self.throughput_hist.len().saturating_sub(HISTORY_LEN);
        AbrObservation {
            last_quality: self.last_quality,
            buffer_s: self.buffer_s,
            throughput_mbps: self.throughput_hist[hist_from..].to_vec(),
            download_s: self.download_hist[self.download_hist.len().saturating_sub(HISTORY_LEN)..]
                .to_vec(),
            next_sizes: if self.finished() {
                vec![0.0; self.video.n_qualities()]
            } else {
                self.video.sizes_of(self.next_chunk).to_vec()
            },
            chunk_index: self.next_chunk,
            chunks_remaining: self.video.n_chunks() - self.next_chunk,
            total_chunks: self.video.n_chunks(),
            n_qualities: self.video.n_qualities(),
            bitrates_mbps: (0..self.video.n_qualities())
                .map(|q| self.video.bitrate_mbps(q))
                .collect(),
        }
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
        self.throughput_hist.push(throughput);
        self.download_hist.push(dl);
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

/// Flatten an [`AbrObservation`] into Pensieve's normalized feature vector.
///
/// Normalizations follow the Pensieve reference implementation: bitrate by
/// the max bitrate, buffer by 10 s, throughput in Mbit/s, download time by
/// 10 s, sizes in MB, remaining chunks by the total.
pub fn pensieve_features(obs: &AbrObservation) -> Vec<f64> {
    let max_rate = *obs.bitrates_mbps.last().expect("non-empty ladder");
    let mut f = Vec::with_capacity(PENSIEVE_OBS_DIM);
    f.push(match obs.last_quality {
        Some(q) => obs.bitrates_mbps[q] / max_rate,
        None => 0.0,
    });
    f.push(obs.buffer_s / 10.0);
    // histories are padded with zeros on the left (older-than-known)
    let mut tp = vec![0.0; HISTORY_LEN - obs.throughput_mbps.len().min(HISTORY_LEN)];
    tp.extend(obs.throughput_mbps.iter().rev().take(HISTORY_LEN).rev());
    f.extend(tp);
    let mut dl = vec![0.0; HISTORY_LEN - obs.download_s.len().min(HISTORY_LEN)];
    dl.extend(obs.download_s.iter().rev().take(HISTORY_LEN).rev().map(|d| d / 10.0));
    f.extend(dl);
    // next-chunk sizes in MB; ladders other than 6 levels are padded/truncated
    let mut sizes: Vec<f64> = obs.next_sizes.iter().map(|s| s / 1e6).collect();
    sizes.resize(6, 0.0);
    f.extend_from_slice(&sizes[..6]);
    f.push(obs.chunks_remaining as f64 / obs.total_chunks.max(1) as f64);
    debug_assert_eq!(f.len(), PENSIEVE_OBS_DIM);
    f
}
