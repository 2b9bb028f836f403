//! Running mean/variance statistics for observation normalization.

use serde::{Deserialize, Serialize};

/// Welford-style running mean and variance over vectors.
///
/// Policies train much more reliably when observations are roughly
/// zero-mean/unit-variance; this mirrors stable-baselines' `VecNormalize`.
/// Updating can be frozen (e.g. during evaluation) so a trained policy sees
/// the same normalization it was trained with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunningMeanStd {
    mean: Vec<f64>,
    /// Sum of squared deviations (Welford's M2).
    m2: Vec<f64>,
    count: f64,
    /// When false, `observe` is a no-op.
    pub updating: bool,
}

impl RunningMeanStd {
    pub fn new(dim: usize) -> Self {
        RunningMeanStd { mean: vec![0.0; dim], m2: vec![0.0; dim], count: 0.0, updating: true }
    }

    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    pub fn count(&self) -> f64 {
        self.count
    }

    /// Fold one observation into the statistics.
    pub fn observe(&mut self, x: &[f64]) {
        if !self.updating {
            return;
        }
        assert_eq!(x.len(), self.mean.len(), "RunningMeanStd dimension mismatch");
        self.count += 1.0;
        for (i, xi) in x.iter().enumerate() {
            let delta = xi - self.mean[i];
            self.mean[i] += delta / self.count;
            let delta2 = xi - self.mean[i];
            self.m2[i] += delta * delta2;
        }
    }

    /// Per-dimension standard deviation (1.0 until two samples are seen).
    pub fn std(&self) -> Vec<f64> {
        self.m2
            .iter()
            .map(|m2| if self.count > 1.0 { (m2 / self.count).sqrt().max(1e-6) } else { 1.0 })
            .collect()
    }

    /// Normalize `x` to `(x − mean) / std`, clipping to ±10.
    pub fn normalize(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "RunningMeanStd dimension mismatch");
        let mut z = x.to_vec();
        self.normalize_rows(&mut z);
        z
    }

    /// [`RunningMeanStd::normalize`] applied in place to every row of a
    /// row-major matrix whose rows are [`RunningMeanStd::dim`] wide; the
    /// per-dimension `std` is computed once for all rows.
    pub fn normalize_rows(&self, rows: &mut [f64]) {
        if rows.is_empty() {
            return;
        }
        let dim = self.mean.len();
        assert!(rows.len().is_multiple_of(dim), "RunningMeanStd dimension mismatch");
        let std = self.std();
        for row in rows.chunks_exact_mut(dim) {
            for ((v, mean), std) in row.iter_mut().zip(&self.mean).zip(&std) {
                *v = ((*v - mean) / std).clamp(-10.0, 10.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn converges_to_sample_statistics() {
        let mut rms = RunningMeanStd::new(1);
        // deterministic data with mean 5, std 2 (values 3 and 7 alternating)
        for i in 0..1000 {
            rms.observe(&[if i % 2 == 0 { 3.0 } else { 7.0 }]);
        }
        let std = rms.std();
        assert!((rms.mean[0] - 5.0).abs() < 1e-9);
        assert!((std[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_centers_data() {
        let mut rms = RunningMeanStd::new(2);
        for i in 0..100 {
            rms.observe(&[i as f64, 10.0 * i as f64]);
        }
        let z = rms.normalize(&[49.5, 495.0]);
        assert!(z[0].abs() < 1e-9);
        assert!(z[1].abs() < 1e-9);
    }

    #[test]
    fn frozen_stats_do_not_move() {
        let mut rms = RunningMeanStd::new(1);
        rms.observe(&[1.0]);
        rms.observe(&[3.0]);
        rms.updating = false;
        let before = rms.mean.clone();
        rms.observe(&[100.0]);
        assert_eq!(rms.mean, before);
    }

    #[test]
    fn clips_extreme_values() {
        let mut rms = RunningMeanStd::new(1);
        rms.observe(&[0.0]);
        rms.observe(&[1.0]);
        let z = rms.normalize(&[1e9]);
        assert_eq!(z[0], 10.0);
    }

    #[test]
    fn unit_std_before_enough_samples() {
        let rms = RunningMeanStd::new(3);
        assert_eq!(rms.std(), vec![1.0, 1.0, 1.0]);
    }

    /// `normalize` as it was before it wrapped `normalize_rows` (verbatim
    /// body), the oracle of the property below.
    fn legacy_normalize(rms: &RunningMeanStd, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), rms.mean.len(), "RunningMeanStd dimension mismatch");
        let std = rms.std();
        x.iter().enumerate().map(|(i, v)| ((v - rms.mean[i]) / std[i]).clamp(-10.0, 10.0)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Normalizing a matrix in one call equals normalizing each of its
        /// rows on its own (`normalize`, and the pre-change body), bit for
        /// bit, with statistics from 0–40 observations (so `std` is 1, or
        /// real and per-dimension).
        #[test]
        fn matrix_normalization_matches_rows(
            seed in 0u64..1_000_000,
            dim in 1usize..30,
            rows in 0usize..12,
            seen in 0usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sample = |scale: f64| -> Vec<f64> {
                (0..dim).map(|d| rng.gen_range(-scale..scale) * (1 + d % 7) as f64).collect()
            };
            let mut rms = RunningMeanStd::new(dim);
            for _ in 0..seen {
                rms.observe(&sample(3.0));
            }
            let data: Vec<Vec<f64>> = (0..rows).map(|_| sample(40.0)).collect();
            let mut matrix = data.concat();
            rms.normalize_rows(&mut matrix);
            for (r, row) in data.iter().enumerate() {
                let want: Vec<u64> =
                    legacy_normalize(&rms, row).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u64> =
                    matrix[r * dim..(r + 1) * dim].iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&got, &want);
                let wrapped: Vec<u64> = rms.normalize(row).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&wrapped, &want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn ragged_matrix_rejected() {
        RunningMeanStd::new(3).normalize_rows(&mut [0.0; 7]);
    }
}
