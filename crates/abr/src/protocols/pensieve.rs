//! Pensieve (Mao et al., SIGCOMM '17): RL-driven ABR.
//!
//! The policy consumes Pensieve's state features — last bitrate, buffer,
//! throughput and download-time histories, next-chunk sizes, chunks
//! remaining — and emits a distribution over the six bitrates. The paper's
//! pre-trained A3C model is substituted by a policy with the same features
//! trained with this workspace's PPO (see DESIGN.md §5); training lives in
//! [`crate::env::AbrTrainEnv`].

use super::AbrPolicy;
use crate::obs::{AbrObservation, HISTORY_LEN};
use rl::{PolicyKind, RunningMeanStd};
use serde::{Deserialize, Serialize};

/// Dimension of the flattened Pensieve feature vector:
/// 1 (last bitrate) + 1 (buffer) + 8 (throughput) + 8 (download time)
/// + 6 (next sizes) + 1 (chunks remaining).
pub const PENSIEVE_OBS_DIM: usize = 1 + 1 + HISTORY_LEN + HISTORY_LEN + 6 + 1;

/// Flatten an [`AbrObservation`] into Pensieve's normalized feature vector.
///
/// Normalizations follow the Pensieve reference implementation: bitrate by
/// the max bitrate, buffer by 10 s, throughput in Mbit/s, download time by
/// 10 s, sizes in MB, remaining chunks by the total.
pub fn pensieve_features(obs: &AbrObservation) -> Vec<f64> {
    let mut f = vec![0.0; PENSIEVE_OBS_DIM];
    pensieve_features_into(obs, &mut f);
    f
}

/// [`pensieve_features`] written into `f` (a row of a feature matrix, say),
/// overwriting all [`PENSIEVE_OBS_DIM`] entries. Panics if `f` has another
/// length.
pub fn pensieve_features_into(obs: &AbrObservation, f: &mut [f64]) {
    assert_eq!(f.len(), PENSIEVE_OBS_DIM, "Pensieve feature row length");
    let max_rate = *obs.bitrates_mbps.last().expect("non-empty ladder");
    f[0] = match obs.last_quality {
        Some(q) => obs.bitrates_mbps[q] / max_rate,
        None => 0.0,
    };
    f[1] = obs.buffer_s / 10.0;
    let (tp, rest) = f[2..].split_at_mut(HISTORY_LEN);
    let (dl, rest) = rest.split_at_mut(HISTORY_LEN);
    let (sizes, remaining) = rest.split_at_mut(6);
    history_into(tp, &obs.throughput_mbps, |t| t);
    history_into(dl, &obs.download_s, |d| d / 10.0);
    // next-chunk sizes in MB; ladders other than 6 levels are padded/truncated
    sizes.fill(0.0);
    for (mb, bytes) in sizes.iter_mut().zip(&obs.next_sizes) {
        *mb = bytes / 1e6;
    }
    remaining[0] = obs.chunks_remaining as f64 / obs.total_chunks.max(1) as f64;
}

/// The last [`HISTORY_LEN`] samples of `samples`, scaled, right-aligned in
/// `window`; older-than-known entries on the left are zero.
fn history_into(window: &mut [f64], samples: &[f64], scale: impl Fn(f64) -> f64) {
    let known = samples.len().min(HISTORY_LEN);
    let (padding, recent) = window.split_at_mut(HISTORY_LEN - known);
    padding.fill(0.0);
    for (w, &x) in recent.iter_mut().zip(&samples[samples.len() - known..]) {
        *w = scale(x);
    }
}

/// A trained Pensieve model acting as a deterministic ABR protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pensieve {
    /// The trained policy (categorical over bitrates).
    pub policy: PolicyKind,
    /// Frozen observation statistics from training, if any.
    pub obs_norm: Option<RunningMeanStd>,
}

impl Pensieve {
    /// Wrap a policy trained by [`crate::env::AbrTrainEnv`] + PPO.
    ///
    /// `obs_norm` must be the trainer's statistics (they are frozen here so
    /// evaluation does not drift them).
    pub fn new(policy: PolicyKind, mut obs_norm: Option<RunningMeanStd>) -> Self {
        if let Some(n) = &mut obs_norm {
            n.updating = false;
        }
        Pensieve { policy, obs_norm }
    }
}

impl AbrPolicy for Pensieve {
    fn name(&self) -> &str {
        "pensieve"
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        let raw = pensieve_features(obs);
        let feat = match &self.obs_norm {
            Some(n) => n.normalize(&raw),
            None => raw,
        };
        self.policy.mode(&feat).index().min(obs.n_qualities - 1)
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn AbrPolicy + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rl::CategoricalPolicy;

    fn obs() -> AbrObservation {
        AbrObservation {
            last_quality: Some(2),
            buffer_s: 20.0,
            throughput_mbps: vec![1.0, 2.0, 3.0],
            download_s: vec![4.0, 2.0, 1.0],
            next_sizes: vec![150_000.0, 375_000.0, 600_000.0, 925_000.0, 1_425_000.0, 2_150_000.0],
            chunk_index: 3,
            chunks_remaining: 45,
            total_chunks: 48,
            n_qualities: 6,
            bitrates_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
        }
    }

    #[test]
    fn feature_vector_shape_and_padding() {
        let f = pensieve_features(&obs());
        assert_eq!(f.len(), PENSIEVE_OBS_DIM);
        // last bitrate normalized
        assert!((f[0] - 1.2 / 4.3).abs() < 1e-12);
        // buffer / 10
        assert!((f[1] - 2.0).abs() < 1e-12);
        // throughput history: 5 zero-pads then 1,2,3
        assert_eq!(&f[2..10], &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        // download history scaled by 10
        assert_eq!(&f[10..18], &[0.0, 0.0, 0.0, 0.0, 0.0, 0.4, 0.2, 0.1]);
        // sizes in MB
        assert!((f[18] - 0.15).abs() < 1e-12);
        // remaining fraction
        assert!((f[24] - 45.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn first_chunk_features() {
        let mut o = obs();
        o.last_quality = None;
        o.throughput_mbps.clear();
        o.download_s.clear();
        let f = pensieve_features(&o);
        assert_eq!(f[0], 0.0);
        assert!(f[2..18].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pensieve_protocol_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let policy =
            PolicyKind::Categorical(CategoricalPolicy::new(&[PENSIEVE_OBS_DIM, 16, 6], &mut rng));
        let mut p = Pensieve::new(policy, None);
        let a = p.select(&obs());
        let b = p.select(&obs());
        assert_eq!(a, b);
        assert!(a < 6);
    }

    #[test]
    fn obs_norm_is_frozen() {
        let mut rng = StdRng::seed_from_u64(4);
        let policy =
            PolicyKind::Categorical(CategoricalPolicy::new(&[PENSIEVE_OBS_DIM, 16, 6], &mut rng));
        let mut norm = RunningMeanStd::new(PENSIEVE_OBS_DIM);
        norm.observe(&[1.0; PENSIEVE_OBS_DIM]);
        norm.observe(&[-1.0; PENSIEVE_OBS_DIM]);
        let p = Pensieve::new(policy, Some(norm));
        assert!(!p.obs_norm.as_ref().unwrap().updating);
    }

    /// An observation with histories of 0–12 samples, a ladder of 1–8
    /// rungs and 0–9 next sizes: shorter and longer than the feature
    /// vector's windows.
    fn random_obs(rng: &mut StdRng) -> AbrObservation {
        let mut samples = |hi: f64| -> Vec<f64> {
            let n = rng.gen_range(0..13usize);
            (0..n).map(|_| rng.gen_range(0.0..hi)).collect()
        };
        let throughput_mbps = samples(20.0);
        let download_s = samples(40.0);
        let n_qualities = rng.gen_range(1..9usize);
        let mut rate = 0.0;
        let bitrates_mbps: Vec<f64> = (0..n_qualities)
            .map(|_| {
                rate += rng.gen_range(0.1..2.0);
                rate
            })
            .collect();
        let total_chunks = rng.gen_range(0..60usize);
        AbrObservation {
            last_quality: rng.gen_bool(0.8).then(|| rng.gen_range(0..n_qualities)),
            buffer_s: rng.gen_range(0.0..60.0),
            throughput_mbps,
            download_s,
            next_sizes: (0..rng.gen_range(0..10usize)).map(|_| rng.gen_range(1e4..3e6)).collect(),
            chunk_index: rng.gen_range(0..50usize),
            chunks_remaining: rng.gen_range(0..=total_chunks),
            total_chunks,
            n_qualities,
            bitrates_mbps,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Written into a NaN-filled matrix row, the features equal the
        /// pre-change function's bit for bit; so does the wrapper.
        #[test]
        fn features_into_match_the_legacy_features(seed in 0u64..1_000_000, row in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let obs = random_obs(&mut rng);
            let want: Vec<u64> = oracle::pensieve_features(&obs).iter().map(|x| x.to_bits()).collect();
            let mut matrix = vec![f64::NAN; 3 * PENSIEVE_OBS_DIM];
            let cols = row * PENSIEVE_OBS_DIM..(row + 1) * PENSIEVE_OBS_DIM;
            pensieve_features_into(&obs, &mut matrix[cols.clone()]);
            let got: Vec<u64> = matrix[cols].iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got, &want);
            let wrapped: Vec<u64> = pensieve_features(&obs).iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&wrapped, &want);
        }
    }
}
