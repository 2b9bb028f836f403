//! The generational self-play loop.
//!
//! One *generation* is one turn of the arms race:
//!
//! 1. **Adversary leg** — train a fresh PPO adversary against the current
//!    protocol checkpoint (paper §2.3 stage 2, repeated every generation
//!    instead of once).
//! 2. **Harvest** — roll the adversary into `traces_per_gen` reproducible
//!    traces and measure each one's *damage*: the held-out benign
//!    baseline QoE minus the protocol's QoE on that trace.
//! 3. **Pool pass** — re-score the surviving pool against the current
//!    protocol, evict traces the protocol has beaten for
//!    `evict_patience` consecutive generations, then insert the new
//!    harvest (deduplicated by content hash) and persist the pool.
//! 4. **Protocol leg** — resume protocol training on the benign corpus
//!    plus the pool's damage-weighted training mix.
//! 5. **Evaluate** — run the protocol over the fixed held-out benign and
//!    adversarial fleets ([`serve::run_fleet`]) and append one row to
//!    the robustness trajectory.
//!
//! Generation 0 is the seed: an initial protocol leg on the benign corpus
//! alone, then the same fleet evaluation.
//!
//! # Kill + resume
//!
//! Every leg checkpoints through `rl::ckpt`, the pool and the arena state
//! file use the same checksummed atomic envelope, and all inter-leg
//! computation (harvest, scoring, evaluation) is deterministic. Killing
//! the process at *any* point and re-invoking [`run_arena`] with the same
//! config therefore completes bit-identically to an uninterrupted run:
//! finished legs fast-forward from their checkpoints, the in-flight leg
//! resumes mid-iteration, and the pool's per-generation guards make the
//! re-run of an interrupted generation's pool pass a byte-exact redo
//! (regression-tested in `tests/kill_resume.rs`).
//!
//! Each generation's protocol leg starts at an episode boundary (the
//! trainer's in-flight episode continuation is cleared before the corpus
//! changes). This is a deliberate semantic: an episode must never
//! straddle two different corpora, because resuming such an episode after
//! a crash would replay it against the wrong trace.

use crate::pool::TracePool;
use abr::env::AbrTrainEnv;
use abr::protocols::pensieve::PENSIEVE_OBS_DIM;
use abr::{Pensieve, Video};
use adversary::robustify::eval_pensieve;
use adversary::{
    try_abr_traces_to_corpus, try_generate_abr_traces_with, try_train_abr_adversary,
    AbrAdversaryConfig, AbrAdversaryEnv, AdversaryTrainConfig,
};
use rl::ckpt::{load_train_checkpoint, Loaded};
use rl::{Checkpointer, Ppo, PpoConfig, TrainError};
use serde::{Deserialize, Serialize};
use serve::{run_fleet, FleetConfig, FleetPolicy};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use traces::{fcc_like, hsdpa_like, GenConfig, Trace, TraceFamily, TraceStream};

/// Per-generation seed mixer (golden-ratio increment, as in
/// `exec::split_seed`) so every generation's adversary and harvest get
/// decorrelated but reproducible randomness.
fn gen_seed(base: u64, g: u64) -> u64 {
    base ^ g.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Knobs of one arena run. The run is a pure function of this value:
/// same config + same (possibly partial) `dir` contents → same result.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Adversarial generations to run *after* generation 0 (the initial
    /// benign-only leg). The trajectory ends with `generations + 1` rows.
    pub generations: u64,
    /// Protocol training steps for generation 0.
    pub initial_steps: usize,
    /// Protocol training steps per adversarial generation.
    pub steps_per_gen: usize,
    /// Protocol (Pensieve) PPO settings; the seed is overridden by
    /// [`ArenaConfig::seed`].
    pub protocol_ppo: PpoConfig,
    /// Adversary training budget and PPO settings (the per-generation
    /// seed is derived from the configured one).
    pub adversary: AdversaryTrainConfig,
    /// Adversary environment settings (QoE weights, latency, window).
    pub adv_env: AbrAdversaryConfig,
    /// Traces harvested from each generation's adversary.
    pub traces_per_gen: usize,
    /// Benign training corpus size (alternating FCC-like / HSDPA-like).
    pub benign_traces: usize,
    /// Held-out benign traces used for the damage baseline.
    pub heldout_benign: usize,
    /// Damage at or below which a pooled trace counts as *beaten* this
    /// generation.
    pub evict_damage: f64,
    /// Consecutive beaten generations before a pooled trace is evicted.
    pub evict_patience: u64,
    /// Cap on distinct pool traces mixed into each protocol leg.
    pub max_pool_mix: usize,
    /// Held-out fleet size for the per-generation evaluation.
    pub fleet_sessions: usize,
    /// Fleet worker shards (the summary is shard-count invariant).
    pub fleet_shards: usize,
    /// Master seed: corpus generation, protocol trainer, adversary and
    /// harvest seeds all derive from it.
    pub seed: u64,
    /// Working directory: checkpoints, the pool file, the arena state
    /// file and `trajectory.csv` all live here. Delete it to start over.
    pub dir: PathBuf,
    /// Iterations between checkpoint writes in every training leg.
    pub checkpoint_every: usize,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        ArenaConfig {
            generations: 3,
            initial_steps: 12_000,
            steps_per_gen: 6_000,
            protocol_ppo: PpoConfig {
                n_steps: 1920,
                minibatch_size: 96,
                epochs: 5,
                lr: 3e-4,
                ent_coef: 0.01,
                ..PpoConfig::default()
            },
            adversary: AdversaryTrainConfig::default(),
            adv_env: AbrAdversaryConfig::default(),
            traces_per_gen: 16,
            benign_traces: 8,
            heldout_benign: 8,
            evict_damage: 0.05,
            evict_patience: 1,
            max_pool_mix: 16,
            fleet_sessions: 256,
            fleet_shards: 4,
            seed: 0,
            dir: PathBuf::from("results/arena"),
            checkpoint_every: 5,
        }
    }
}

/// One row of the robustness trajectory: the protocol's held-out fleet
/// performance and the pool's shape at the end of a generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRow {
    /// Generation index (0 = initial benign-only training).
    pub generation: u64,
    /// Fleet mean QoE on the held-out benign stream.
    pub benign_mean_qoe: f64,
    /// Fleet 5th-percentile QoE on the held-out benign stream.
    pub benign_p5_qoe: f64,
    /// Fleet mean QoE on the held-out adversarial stream.
    pub adv_mean_qoe: f64,
    /// Fleet 5th-percentile QoE on the held-out adversarial stream.
    pub adv_p5_qoe: f64,
    /// Live pool entries after this generation's pool pass.
    pub pool_size: u64,
    /// Mean damage over live pool entries.
    pub pool_mean_damage: f64,
    /// Lifetime evictions (monotone across generations).
    pub pool_evicted_total: u64,
}

/// CSV header matching [`GenerationRow`]'s `Display` output.
pub const TRAJECTORY_HEADER: &str = "generation,benign_mean_qoe,benign_p5_qoe,\
adv_mean_qoe,adv_p5_qoe,pool_size,pool_mean_damage,pool_evicted_total";

impl fmt::Display for GenerationRow {
    /// One CSV row. `f64`s print via `{}` (shortest round-trip form), so
    /// equal values always produce equal bytes — the trajectory file is
    /// byte-comparable across resumed runs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{},{},{},{},{},{},{}",
            self.generation,
            self.benign_mean_qoe,
            self.benign_p5_qoe,
            self.adv_mean_qoe,
            self.adv_p5_qoe,
            self.pool_size,
            self.pool_mean_damage,
            self.pool_evicted_total
        )
    }
}

/// The arena's own durable state: the completed trajectory rows. Stored
/// in `dir/arena.state` with the same checksummed envelope as every
/// other checkpoint; `rows.len()` is the resume cursor.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ArenaState {
    rows: Vec<GenerationRow>,
}

/// What a completed arena run hands back.
pub struct ArenaOutcome {
    /// The full robustness trajectory, one row per generation.
    pub rows: Vec<GenerationRow>,
    /// The final pool (also persisted in `dir/pool.ckpt`).
    pub pool: TracePool,
    /// The final robustified protocol.
    pub model: Pensieve,
}

/// Why an arena run failed.
#[derive(Debug)]
pub enum ArenaError {
    /// A training leg failed (divergence, worker loss, checkpoint I/O).
    Train(TrainError),
    /// Pool persistence failed.
    Pool(TrainError),
    /// Harvested traces failed validation (e.g. a diverged adversary
    /// emitting non-physical bandwidths).
    Trace(String),
    /// Arena state or trajectory I/O failed.
    Io(String),
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Train(e) => write!(f, "arena training leg failed: {e}"),
            ArenaError::Pool(e) => write!(f, "arena pool failure: {e}"),
            ArenaError::Trace(msg) => write!(f, "arena harvest rejected: {msg}"),
            ArenaError::Io(msg) => write!(f, "arena I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ArenaError {}

impl From<TrainError> for ArenaError {
    fn from(e: TrainError) -> Self {
        ArenaError::Train(e)
    }
}

impl From<exec::ExecError> for ArenaError {
    fn from(e: exec::ExecError) -> Self {
        ArenaError::Train(TrainError::Worker(e))
    }
}

/// Load `dir/arena.state`, quarantining a corrupt file. When the state
/// is quarantined the pool file is quarantined alongside it: the pair is
/// one consistent snapshot, and restarting from generation 0 with the
/// finished training checkpoints still on disk fast-forwards
/// deterministically to the same bytes.
fn load_state_or_quarantine(state_path: &Path, pool_path: &Path) -> Result<ArenaState, ArenaError> {
    let loaded = rl::ckpt::load_or_quarantine("state", state_path, Ok)
        .map_err(|e| ArenaError::Io(e.to_string()))?;
    Ok(match loaded {
        Loaded::Value(state) => state,
        Loaded::Missing => ArenaState::default(),
        Loaded::Quarantined(_) => {
            if pool_path.exists() {
                rl::ckpt::quarantine("pool", pool_path, "its arena state is rotten");
            }
            ArenaState::default()
        }
    })
}

fn save_state(path: &Path, state: &ArenaState) -> Result<(), ArenaError> {
    rl::ckpt::save("state", path, state).map_err(|e| ArenaError::Io(e.to_string()))
}

/// Render the full trajectory CSV (header + one line per row).
pub fn trajectory_csv(rows: &[GenerationRow]) -> String {
    let mut out = String::from(TRAJECTORY_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

/// The benign training corpus: `n` traces alternating the FCC-like and
/// HSDPA-like families, seeded from `base` (offset by `salt` so the
/// training and held-out corpora never share a trace).
fn benign_corpus(n: usize, base: u64, salt: u64) -> Vec<Trace> {
    (0..n)
        .map(|i| {
            let seed = base.wrapping_add(salt).wrapping_add(i as u64);
            if i % 2 == 0 {
                fcc_like(seed, &GenConfig::default())
            } else {
                hsdpa_like(seed, &GenConfig::default())
            }
        })
        .collect()
}

fn new_protocol_trainer(cfg: &ArenaConfig) -> Ppo {
    let ppo_cfg = PpoConfig { seed: cfg.seed, ..cfg.protocol_ppo.clone() };
    Ppo::new_categorical(PENSIEVE_OBS_DIM, 6, &[64, 32], ppo_cfg)
}

/// Evaluate `model` on both held-out fleets, returning the finished row.
fn evaluate_generation(
    cfg: &ArenaConfig,
    model: Pensieve,
    g: u64,
    pool: &TracePool,
) -> GenerationRow {
    let mut fleet_cfg = FleetConfig::new(cfg.fleet_sessions, cfg.fleet_shards);
    fleet_cfg.qoe = cfg.adv_env.qoe.clone();
    let policy = FleetPolicy::batched(model);
    // fixed held-out fleets: seeds are part of the evaluation definition,
    // shared with bench's fleet_eval, so trajectories are comparable
    // across runs and configs
    let benign = run_fleet(
        &fleet_cfg,
        &policy,
        &TraceStream::new(TraceFamily::BenignMix, 9001, GenConfig::default()),
    );
    let adv = run_fleet(
        &fleet_cfg,
        &policy,
        &TraceStream::new(TraceFamily::AdversarialLike, 9002, GenConfig::default()),
    );
    GenerationRow {
        generation: g,
        benign_mean_qoe: benign.mean_qoe,
        benign_p5_qoe: benign.p5_qoe,
        adv_mean_qoe: adv.mean_qoe,
        adv_p5_qoe: adv.p5_qoe,
        pool_size: pool.len() as u64,
        pool_mean_damage: pool.mean_damage(),
        pool_evicted_total: pool.evicted_total,
    }
}

/// Run (or resume) the arena described by `cfg`. See the module docs for
/// the per-generation sequence and the kill+resume contract.
pub fn run_arena(cfg: &ArenaConfig) -> Result<ArenaOutcome, ArenaError> {
    assert!(cfg.heldout_benign > 0, "heldout_benign must be positive");
    assert!(cfg.benign_traces > 0, "benign_traces must be positive");
    assert!(cfg.traces_per_gen > 0, "traces_per_gen must be positive");
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| ArenaError::Io(format!("create {}: {e}", cfg.dir.display())))?;
    let state_path = cfg.dir.join("arena.state");
    let pool_path = cfg.dir.join("pool.ckpt");
    let csv_path = cfg.dir.join("trajectory.csv");

    let video = Video::cbr();
    let qoe = cfg.adv_env.qoe.clone();
    let benign = benign_corpus(cfg.benign_traces, cfg.seed, 0);
    let heldout = benign_corpus(cfg.heldout_benign, cfg.seed, 1000);

    let mut state = load_state_or_quarantine(&state_path, &pool_path)?;
    let mut pool = TracePool::load_or_quarantine(&pool_path).map_err(ArenaError::Pool)?;
    let done = state.rows.len() as u64;

    let mut ppo = new_protocol_trainer(cfg);
    if done > 0 {
        // fast-forward the trainer to the end of the last completed
        // generation's protocol leg
        let ck_path = cfg.dir.join(format!("protocol-gen{}.ckpt", done - 1));
        let tc = load_train_checkpoint(&ck_path)?;
        ppo.restore_train_state(&tc.state)?;
    }

    for g in done..=cfg.generations {
        let _span = telemetry::span!("arena.generation");
        telemetry::counter_add("arena.generations", 1);
        if g == 0 {
            let mut env = AbrTrainEnv::new(benign.clone(), video.clone(), qoe.clone());
            let ck = Checkpointer::new(cfg.dir.join("protocol-gen0.ckpt"), cfg.checkpoint_every);
            ppo.train_checkpointed(&mut env, cfg.initial_steps, &ck)?;
        } else {
            // ---- adversary leg: fresh adversary vs the current protocol
            let target = Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone());
            let mut adv_env =
                AbrAdversaryEnv::new(target.clone(), video.clone(), cfg.adv_env.clone());
            let mut adv_cfg = cfg.adversary.clone();
            adv_cfg.checkpoint_path = Some(cfg.dir.join(format!("adversary-gen{g}.ckpt")));
            adv_cfg.checkpoint_every = cfg.checkpoint_every;
            adv_cfg.ppo.seed = gen_seed(cfg.adversary.ppo.seed, g);
            let (adversary, _) = try_train_abr_adversary(&mut adv_env, &adv_cfg)?;

            // ---- harvest + damage scoring against the current protocol
            let raw = try_generate_abr_traces_with(
                &mut adv_env,
                &adversary.policy,
                adversary.obs_norm.as_ref(),
                cfg.traces_per_gen,
                false,
                gen_seed(cfg.seed, g),
            )?;
            let harvest = try_abr_traces_to_corpus(
                &raw,
                &video,
                cfg.adv_env.latency_ms,
                &format!("arena-gen{g}"),
            )
            .map_err(ArenaError::Trace)?;
            let baseline = nn::ops::mean(&eval_pensieve(&target, &heldout, &video, &qoe));
            let harvest_damage: Vec<f64> = eval_pensieve(&target, &harvest, &video, &qoe)
                .into_iter()
                .map(|q| baseline - q)
                .collect();

            // ---- pool pass: rescore survivors, evict the beaten, insert
            // the harvest, persist. The order matters for resume: evicting
            // *before* inserting means a redone pass cannot evict a trace
            // this generation just added, so the redo lands on identical
            // bytes.
            let stale: Vec<Trace> = pool
                .entries()
                .iter()
                .filter(|e| e.scored_gen < g)
                .map(|e| e.trace.clone())
                .collect();
            let rescored: HashMap<u64, f64> = stale
                .iter()
                .map(Trace::content_hash)
                .zip(eval_pensieve(&target, &stale, &video, &qoe).into_iter().map(|q| baseline - q))
                .collect();
            pool.rescore(g, |t| rescored[&t.content_hash()]);
            let evicted = pool.evict(g, cfg.evict_damage, cfg.evict_patience);
            if !evicted.is_empty() {
                eprintln!(
                    "[arena] gen {g}: evicted {} beaten trace(s): {evicted:?}",
                    evicted.len()
                );
            }
            for (t, d) in harvest.into_iter().zip(harvest_damage) {
                pool.insert(t, d, g);
            }
            pool.try_save(&pool_path).map_err(ArenaError::Pool)?;

            // ---- protocol leg: benign corpus + damage-weighted pool mix
            let mix = pool.training_mix(cfg.max_pool_mix);
            telemetry::counter_add("arena.pool.hit", mix.len() as u64);
            telemetry::gauge_set("arena.pool.size", pool.len() as f64);
            let mut corpus = benign.clone();
            corpus.extend(mix);
            // start the leg at an episode boundary: drop the in-flight
            // episode continuation so no episode straddles two corpora
            // (see module docs — this is also what keeps a resumed leg's
            // environment snapshot valid)
            let mut st = ppo.to_train_state();
            st.cur_obs = None;
            st.ret_acc = 0.0;
            ppo.restore_train_state(&st)?;
            let mut env = AbrTrainEnv::new(corpus, video.clone(), qoe.clone());
            let ck = Checkpointer::new(
                cfg.dir.join(format!("protocol-gen{g}.ckpt")),
                cfg.checkpoint_every,
            );
            ppo.train_checkpointed(&mut env, cfg.steps_per_gen, &ck)?;
        }

        // ---- held-out fleet evaluation + durable trajectory row
        let model = Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone());
        let row = evaluate_generation(cfg, model, g, &pool);
        eprintln!(
            "[arena] gen {g}: benign p5 {:.3}, adversarial p5 {:.3}, pool {} (mean damage {:.3})",
            row.benign_p5_qoe, row.adv_p5_qoe, row.pool_size, row.pool_mean_damage
        );
        state.rows.push(row);
        save_state(&state_path, &state)?;
        std::fs::write(&csv_path, trajectory_csv(&state.rows))
            .map_err(|e| ArenaError::Io(format!("write {}: {e}", csv_path.display())))?;
    }

    // cover the no-work resume (everything already done): the trajectory
    // file must still reflect the full state
    std::fs::write(&csv_path, trajectory_csv(&state.rows))
        .map_err(|e| ArenaError::Io(format!("write {}: {e}", csv_path.display())))?;
    let model = Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone());
    Ok(ArenaOutcome { rows: state.rows, pool, model })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_csv_is_deterministic_text() {
        let rows = vec![
            GenerationRow {
                generation: 0,
                benign_mean_qoe: 1.25,
                benign_p5_qoe: 0.5,
                adv_mean_qoe: 0.75,
                adv_p5_qoe: -0.125,
                pool_size: 0,
                pool_mean_damage: 0.0,
                pool_evicted_total: 0,
            },
            GenerationRow {
                generation: 1,
                benign_mean_qoe: 1.3,
                benign_p5_qoe: 0.55,
                adv_mean_qoe: 0.9,
                adv_p5_qoe: 0.1,
                pool_size: 7,
                pool_mean_damage: 0.3333333333333333,
                pool_evicted_total: 2,
            },
        ];
        let csv = trajectory_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), TRAJECTORY_HEADER);
        assert_eq!(lines.next().unwrap(), "0,1.25,0.5,0.75,-0.125,0,0,0");
        assert_eq!(lines.next().unwrap(), "1,1.3,0.55,0.9,0.1,7,0.3333333333333333,2");
        assert_eq!(csv, trajectory_csv(&rows), "pure function of the rows");
    }

    #[test]
    fn state_file_roundtrips_and_quarantines_with_pool() {
        let dir = std::env::temp_dir().join("advnet-arena-state-test");
        std::fs::create_dir_all(&dir).unwrap();
        let state_path = dir.join("arena.state");
        let pool_path = dir.join("pool.ckpt");
        for p in [&state_path, &pool_path] {
            std::fs::remove_file(p).ok();
            let mut q = p.as_os_str().to_owned();
            q.push(".quarantined");
            std::fs::remove_file(PathBuf::from(q)).ok();
        }

        // missing file: fresh state
        assert!(load_state_or_quarantine(&state_path, &pool_path).unwrap().rows.is_empty());

        let state = ArenaState {
            rows: vec![GenerationRow {
                generation: 0,
                benign_mean_qoe: 1.0,
                benign_p5_qoe: 0.25,
                adv_mean_qoe: 0.5,
                adv_p5_qoe: -0.5,
                pool_size: 3,
                pool_mean_damage: 0.125,
                pool_evicted_total: 1,
            }],
        };
        save_state(&state_path, &state).unwrap();
        let back = load_state_or_quarantine(&state_path, &pool_path).unwrap();
        assert_eq!(back.rows, state.rows);

        // corrupt state drags the pool file into quarantine with it
        TracePool::new().try_save(&pool_path).unwrap();
        fault::corrupt_file(&state_path).unwrap();
        let rebuilt = load_state_or_quarantine(&state_path, &pool_path).unwrap();
        assert!(rebuilt.rows.is_empty());
        assert!(!state_path.exists());
        assert!(!pool_path.exists());
        let mut q = pool_path.as_os_str().to_owned();
        q.push(".quarantined");
        assert!(PathBuf::from(q).exists(), "pool quarantined alongside the state");
    }
}
