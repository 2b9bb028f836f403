//! The video model: bitrate ladder and per-chunk sizes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The Pensieve bitrate ladder (kbit/s). The paper's QoE uses these in
/// Mbit/s as the per-chunk quality term.
pub const PENSIEVE_BITRATES_KBPS: [f64; 6] = [300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0];

/// Number of chunks and chunk duration of the Pensieve test video
/// ("EnvivoDash3": 48 four-second chunks, ~192 s).
pub const PENSIEVE_N_CHUNKS: usize = 48;
pub const CHUNK_SECONDS: f64 = 4.0;

/// A video as the ABR simulator sees it: for each chunk index and quality
/// level, the encoded size in bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Video {
    /// Bitrates in kbit/s, ascending.
    bitrates_kbps: Vec<f64>,
    /// `sizes[chunk][quality]` in bytes.
    sizes: Vec<Vec<f64>>,
    /// Chunk playback duration in seconds.
    chunk_seconds: f64,
}

impl Video {
    /// Construct from explicit sizes. Panics on inconsistent shapes or
    /// non-ascending bitrates.
    pub fn new(bitrates_kbps: Vec<f64>, sizes: Vec<Vec<f64>>, chunk_seconds: f64) -> Self {
        assert!(!bitrates_kbps.is_empty(), "need at least one bitrate");
        assert!(
            bitrates_kbps.windows(2).all(|w| w[0] < w[1]),
            "bitrates must be strictly ascending"
        );
        assert!(!sizes.is_empty(), "need at least one chunk");
        for (i, row) in sizes.iter().enumerate() {
            assert_eq!(row.len(), bitrates_kbps.len(), "chunk {i} has wrong quality count");
            assert!(row.iter().all(|&b| b > 0.0), "chunk {i} has a non-positive size");
        }
        assert!(chunk_seconds > 0.0);
        Video { bitrates_kbps, sizes, chunk_seconds }
    }

    /// A constant-bitrate video: every chunk's size is exactly
    /// `bitrate × chunk_seconds`.
    pub fn cbr() -> Self {
        let sizes = (0..PENSIEVE_N_CHUNKS)
            .map(|_| {
                PENSIEVE_BITRATES_KBPS
                    .iter()
                    .map(|kbps| kbps * 1000.0 / 8.0 * CHUNK_SECONDS)
                    .collect()
            })
            .collect();
        Video::new(PENSIEVE_BITRATES_KBPS.to_vec(), sizes, CHUNK_SECONDS)
    }

    /// A VBR video: chunk sizes jitter ±15 % around the nominal encoding
    /// rate, deterministically from `seed` — mimicking the real MPEG-DASH
    /// chunk-size variation of the Pensieve test video.
    pub fn synthetic(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51de_0000_0000_0000);
        let sizes = (0..PENSIEVE_N_CHUNKS)
            .map(|_| {
                PENSIEVE_BITRATES_KBPS
                    .iter()
                    .map(|kbps| {
                        let jitter = rng.gen_range(0.85..1.15);
                        kbps * 1000.0 / 8.0 * CHUNK_SECONDS * jitter
                    })
                    .collect()
            })
            .collect();
        Video::new(PENSIEVE_BITRATES_KBPS.to_vec(), sizes, CHUNK_SECONDS)
    }

    pub fn n_chunks(&self) -> usize {
        self.sizes.len()
    }

    pub fn n_qualities(&self) -> usize {
        self.bitrates_kbps.len()
    }

    pub fn chunk_seconds(&self) -> f64 {
        self.chunk_seconds
    }

    /// Bitrate of quality level `q` in kbit/s.
    pub fn bitrate_kbps(&self, q: usize) -> f64 {
        self.bitrates_kbps[q]
    }

    /// Bitrate of quality level `q` in Mbit/s (the QoE quality term).
    pub fn bitrate_mbps(&self, q: usize) -> f64 {
        self.bitrates_kbps[q] / 1000.0
    }

    /// Size of chunk `i` at quality `q`, in bytes.
    pub fn size_bytes(&self, chunk: usize, q: usize) -> f64 {
        self.sizes[chunk][q]
    }

    /// Sizes of chunk `i` at every quality, in bytes.
    pub fn sizes_of(&self, chunk: usize) -> &[f64] {
        &self.sizes[chunk]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_sizes_match_bitrates() {
        let v = Video::cbr();
        assert_eq!(v.n_chunks(), 48);
        assert_eq!(v.n_qualities(), 6);
        // 300 kbit/s × 4 s = 150 000 bytes
        assert!((v.size_bytes(0, 0) - 150_000.0).abs() < 1e-9);
        assert!((v.size_bytes(10, 5) - 2_150_000.0).abs() < 1e-9);
    }

    #[test]
    fn synthetic_is_deterministic_and_jittered() {
        let a = Video::synthetic(1);
        let b = Video::synthetic(1);
        let c = Video::synthetic(2);
        assert_eq!(a.size_bytes(3, 2), b.size_bytes(3, 2));
        assert_ne!(a.size_bytes(3, 2), c.size_bytes(3, 2));
        // jitter bounded by ±15 %
        for i in 0..a.n_chunks() {
            for q in 0..a.n_qualities() {
                let nominal = a.bitrate_kbps(q) * 1000.0 / 8.0 * CHUNK_SECONDS;
                let ratio = a.size_bytes(i, q) / nominal;
                assert!((0.85..=1.15).contains(&ratio), "ratio {ratio}");
            }
        }
    }

    #[test]
    fn bitrate_units() {
        let v = Video::cbr();
        assert_eq!(v.bitrate_kbps(5), 4300.0);
        assert!((v.bitrate_mbps(5) - 4.3).abs() < 1e-12);
    }

    /// The fleet's spool fingerprints and the bench pipeline's cache keys
    /// hash a video's JSON, so its form is pinned (FNV-1a of the JSON).
    #[test]
    fn json_form_is_pinned() {
        for (video, pin) in
            [(Video::cbr(), 0xafc9_dd0e_df31_2dc9u64), (Video::synthetic(7), 0xce88_11b4_3ea0_a6df)]
        {
            let json = serde_json::to_string(&video).unwrap();
            assert_eq!(rl::ckpt::fnv1a64(json.as_bytes()), pin);
            let back: Video = serde_json::from_str(&json).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_bitrates() {
        Video::new(vec![2.0, 1.0], vec![vec![1.0, 1.0]], 4.0);
    }

    #[test]
    #[should_panic(expected = "wrong quality count")]
    fn rejects_ragged_sizes() {
        Video::new(vec![1.0, 2.0], vec![vec![1.0]], 4.0);
    }
}
