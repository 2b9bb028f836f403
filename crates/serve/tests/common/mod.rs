//! The Pensieve every fleet suite serves. `fleet_equivalence.rs` and
//! `supervised_equivalence.rs` include this module, and so does the root
//! suite's recorded fleet (`tests/fleet_pins.rs`, by path).

use abr::protocols::pensieve::PENSIEVE_OBS_DIM;
use abr::Pensieve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An untrained (random-weight) but fully deterministic Pensieve: the
/// equivalence contracts are about execution paths, not model quality.
///
/// Its observation normalizer holds real statistics. A fresh trainer's
/// normalizer has count 0, so it is the identity (mean 0, std 1) and a
/// path that skipped normalization would still match. This one has
/// observed 256 seeded feature vectors, whose per-feature spreads differ,
/// and is frozen by [`Pensieve::new`].
pub fn test_pensieve() -> Pensieve {
    let ppo = rl::Ppo::new_categorical(
        PENSIEVE_OBS_DIM,
        6,
        &[16],
        rl::PpoConfig { seed: 17, ..rl::PpoConfig::default() },
    );
    let mut norm = rl::RunningMeanStd::new(PENSIEVE_OBS_DIM);
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..256 {
        let x: Vec<f64> =
            (0..PENSIEVE_OBS_DIM).map(|d| rng.gen_range(0.0..1.0 + (d % 5) as f64)).collect();
        norm.observe(&x);
    }
    Pensieve::new(ppo.policy.clone(), Some(norm))
}
