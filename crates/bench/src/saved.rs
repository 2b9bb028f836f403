//! A trained policy in a form that can be rolled out anywhere; fig5 and
//! fig6 share one (the CC adversary) through a cached pipeline unit and
//! record it as `results/cc_adversary_<scale>.json`.

use rl::{PolicyKind, RunningMeanStd};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// A trained policy with its frozen observation statistics — everything
/// needed to roll it out (the optimizer state is deliberately dropped).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedPolicy {
    pub policy: PolicyKind,
    pub obs_norm: Option<RunningMeanStd>,
    /// Provenance notes (target protocol, training steps, seed, scale).
    pub meta: String,
}

impl SavedPolicy {
    pub fn from_ppo(ppo: &rl::Ppo, meta: impl Into<String>) -> Self {
        let mut obs_norm = ppo.obs_norm.clone();
        if let Some(n) = &mut obs_norm {
            n.updating = false;
        }
        SavedPolicy { policy: ppo.policy.clone(), obs_norm, meta: meta.into() }
    }

    /// Write the policy as plain JSON, atomically — an output for
    /// inspection and external tooling; nothing in the workspace reads it.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        rl::ckpt::write_atomic(path.as_ref(), &[json.as_bytes()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_actions() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = PolicyKind::Gaussian(rl::GaussianPolicy::new(&[2, 4, 3], 0.5, &mut rng));
        let saved = SavedPolicy { policy, obs_norm: None, meta: "test".into() };
        let dir = std::env::temp_dir().join("saved-policy-test");
        let path = dir.join("p.json");
        saved.save(&path).unwrap();
        let back: SavedPolicy =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let obs = [0.3, -0.7];
        assert_eq!(saved.policy.mode(&obs), back.policy.mode(&obs));
        assert_eq!(back.meta, "test");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_norm_on_save() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = rl::PpoConfig { n_steps: 8, minibatch_size: 8, epochs: 1, ..Default::default() };
        let ppo = rl::Ppo::new_gaussian(2, 1, &[4], 0.5, cfg);
        let saved = SavedPolicy::from_ppo(&ppo, "m");
        assert!(!saved.obs_norm.as_ref().unwrap().updating);
        let _ = &mut rng;
    }
}
