//! The observation an ABR protocol sees before choosing the next chunk's
//! bitrate — the same information the Pensieve agent consumes.

/// Length of the throughput / download-time history windows (Pensieve
/// uses the last 8 chunks).
pub const HISTORY_LEN: usize = 8;

/// Everything an ABR protocol may condition on when selecting the quality
/// of the next chunk. The default is an empty scratch for
/// [`crate::Player::observation_into`].
#[derive(Debug, Clone, Default)]
pub struct AbrObservation {
    /// Quality index of the previously downloaded chunk (`None` before the
    /// first chunk).
    pub last_quality: Option<usize>,
    /// Client playback buffer in seconds.
    pub buffer_s: f64,
    /// Measured throughput (Mbit/s) of the last up-to-[`HISTORY_LEN`]
    /// chunks, most recent last.
    pub throughput_mbps: Vec<f64>,
    /// Download time (s) of the last up-to-[`HISTORY_LEN`] chunks,
    /// most recent last.
    pub download_s: Vec<f64>,
    /// Sizes (bytes) of the next chunk at each quality.
    pub next_sizes: Vec<f64>,
    /// Index of the chunk about to be requested.
    pub chunk_index: usize,
    /// Chunks remaining, including the one about to be requested.
    pub chunks_remaining: usize,
    /// Total number of chunks in the video.
    pub total_chunks: usize,
    /// Number of quality levels.
    pub n_qualities: usize,
    /// Bitrates in Mbit/s, ascending.
    pub bitrates_mbps: Vec<f64>,
}

impl AbrObservation {
    /// Most recent throughput sample, if any.
    pub fn last_throughput(&self) -> Option<f64> {
        self.throughput_mbps.last().copied()
    }

    /// Harmonic mean of the last `k` throughput samples — the classic
    /// robust predictor used by rate-based ABR and MPC.
    pub fn harmonic_mean_throughput(&self, k: usize) -> Option<f64> {
        let n = self.throughput_mbps.len();
        if n == 0 {
            return None;
        }
        let take = k.min(n);
        let slice = &self.throughput_mbps[n - take..];
        let denom: f64 = slice.iter().map(|t| 1.0 / t.max(1e-9)).sum();
        Some(take as f64 / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(tps: Vec<f64>) -> AbrObservation {
        AbrObservation {
            last_quality: None,
            buffer_s: 0.0,
            throughput_mbps: tps,
            download_s: vec![],
            next_sizes: vec![],
            chunk_index: 0,
            chunks_remaining: 48,
            total_chunks: 48,
            n_qualities: 6,
            bitrates_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
        }
    }

    #[test]
    fn harmonic_mean_basics() {
        let o = obs(vec![1.0, 1.0, 1.0]);
        assert!((o.harmonic_mean_throughput(5).unwrap() - 1.0).abs() < 1e-12);
        let o = obs(vec![1.0, 3.0]);
        // HM(1,3) = 2 / (1 + 1/3) = 1.5
        assert!((o.harmonic_mean_throughput(5).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_uses_most_recent_k() {
        let o = obs(vec![100.0, 2.0, 2.0]);
        assert!((o.harmonic_mean_throughput(2).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_history() {
        let o = obs(vec![]);
        assert!(o.harmonic_mean_throughput(5).is_none());
        assert!(o.last_throughput().is_none());
    }
}
