//! Crash-safe training: checkpoint files, structured training errors, and
//! the environment-snapshot interface.
//!
//! # Checkpoint file format
//!
//! A checkpoint is a single UTF-8 file:
//!
//! ```text
//! ADVNET-CKPT v1 fnv1a=<16 hex digits> len=<body bytes>\n
//! <JSON body>
//! ```
//!
//! The header carries an FNV-1a 64 checksum and the exact byte length of
//! the body, so truncated or bit-flipped files are rejected as
//! [`TrainError::Corrupt`] instead of being half-loaded. Writes go through
//! a temporary file in the same directory, `fsync`, then an atomic rename —
//! a crash mid-write leaves either the old checkpoint or the new one,
//! never a torn file.
//!
//! # The one durable-state path
//!
//! Every file the workspace must survive a crash with goes through
//! [`save`] / [`load`] in this envelope, named by a *kind*: `ckpt`
//! (training checkpoints), `cache` (bench pipeline units), `pool` (the
//! arena trace pool), `state` (the arena state) and `spool` (finished
//! serve shards). The kind names the fault points `<kind>.write` and
//! `<kind>.read`. State that can be rebuilt loads through
//! [`load_or_quarantine`], which moves a corrupt or refused file to
//! `<file>.quarantined`, counts it as `rl.ckpt.quarantine.<kind>` and
//! warns; training checkpoints never quarantine, a corrupt one is an
//! error.
//!
//! JSON keeps `f64` values bit-exact (the in-tree `serde_json` round-trips
//! the shortest representation losslessly), which is what makes resuming
//! from a checkpoint bit-identical to an uninterrupted run.

use crate::ppo::{PpoConfig, TrainReport};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Capture and restore environment state for mid-training checkpoints.
///
/// Implementations must restore **bit-identically**: stepping a restored
/// environment must produce exactly the trajectory the original would
/// have produced. Environments whose internals are expensive to serialize
/// can record their reset parameters plus the actions taken since and
/// replay them on restore (the adversary environments do this).
pub trait Snapshot {
    /// Serialize enough state to reconstruct `self` exactly.
    fn snapshot(&self) -> Value;

    /// Restore from a value produced by [`Snapshot::snapshot`]. `self` is
    /// a fresh clone of the environment the snapshot was taken from.
    fn restore(&mut self, v: &Value) -> Result<(), serde::Error>;
}

/// Everything [`crate::Ppo`] needs to continue training exactly where it
/// stopped: nets, optimizer moments, RNG stream, normalizer statistics,
/// and the iteration/step counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainState {
    pub cfg: PpoConfig,
    pub policy: crate::ppo::PolicyKind,
    pub value: crate::policy::ValueNet,
    pub opt_policy: nn::Adam,
    pub opt_value: nn::Adam,
    pub opt_log_std: Option<nn::optim::AdamVec>,
    pub obs_norm: Option<crate::normalize::RunningMeanStd>,
    /// Raw xoshiro256++ state of the trainer RNG (always 4 words).
    pub rng: Vec<u64>,
    pub cur_obs: Option<Vec<f64>>,
    pub ret_acc: f64,
    pub ret_stats: crate::normalize::RunningMeanStd,
    pub total_steps: usize,
    pub iteration: usize,
    /// Divergence-guard learning-rate backoff factor currently in effect.
    pub lr_scale: f64,
    /// Divergence-guard trips so far.
    pub guard_trips: usize,
}

/// Per-worker environment slot state for vectorized training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotState {
    /// The slot environment's [`Snapshot::snapshot`] value.
    pub env: Value,
    /// Raw xoshiro256++ state of the slot RNG (always 4 words).
    pub rng: Vec<u64>,
    pub cur_obs: Option<Vec<f64>>,
    pub ret_acc: f64,
}

/// On-disk checkpoint: trainer state plus everything the training loop
/// itself carries (environment snapshots, accumulated reports, and the
/// step budget of the interrupted call).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    pub state: TrainState,
    /// Serial-path environment snapshot (`n_envs == 1`), else `None`.
    pub env: Option<Value>,
    /// Vectorized-path slot snapshots (`n_envs > 1`), else empty.
    pub slots: Vec<SlotState>,
    /// Reports for all completed iterations of the interrupted call.
    pub reports: Vec<TrainReport>,
    /// `total_steps` when the checkpointed call began.
    pub start_steps: usize,
    /// Step budget of the checkpointed call.
    pub target_steps: usize,
}

/// Structured account of a divergence-guard trip: what went non-finite,
/// when, and what the guard did about it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// Training iteration the trip happened in.
    pub iteration: usize,
    /// Cumulative trips including this one.
    pub trips: usize,
    /// Learning-rate scale in effect after this trip's backoff.
    pub lr_scale: f64,
    /// What was detected (non-finite losses, gradients, or weights).
    pub reason: String,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence at iteration {}: {} (trip {}, lr scale now {:.3e})",
            self.iteration, self.reason, self.trips, self.lr_scale
        )
    }
}

/// Why training (or checkpoint I/O) failed.
#[derive(Debug)]
pub enum TrainError {
    /// The divergence guard tripped more than `guard_max_trips` times.
    Diverged(DivergenceReport),
    /// A rollout worker panicked past its retry budget.
    Worker(exec::ExecError),
    /// Filesystem failure reading or writing a checkpoint.
    Io(String),
    /// A checkpoint file failed format or checksum validation.
    Corrupt(String),
    /// A checkpoint does not match this trainer (config or shape drift).
    Mismatch(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged(r) => write!(f, "training diverged: {r}"),
            TrainError::Worker(e) => write!(f, "rollout worker failed: {e}"),
            TrainError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            TrainError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            TrainError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<exec::ExecError> for TrainError {
    fn from(e: exec::ExecError) -> Self {
        TrainError::Worker(e)
    }
}

/// FNV-1a 64, the envelope checksum (one definition, in `telemetry`).
pub use telemetry::fnv1a64;

const MAGIC: &str = "ADVNET-CKPT";
const VERSION: &str = "v1";

/// Write `parts`, back to back, to `path` atomically: a temporary file
/// beside it, `fsync`, then a rename over `path` (parent directories are
/// created). A crash leaves either the old file or the new one, never a
/// torn one. Taking parts spares a large body a copy behind its header.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    for part in parts {
        f.write_all(part)?;
    }
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// Atomically write a checkpoint body in the `ADVNET-CKPT v1` envelope.
pub fn write_checkpoint_file(path: &Path, body: &str) -> Result<(), TrainError> {
    telemetry::counter_add("rl.ckpt.writes", 1);
    let _span = telemetry::span!("train.ckpt.write");
    let header =
        format!("{MAGIC} {VERSION} fnv1a={:016x} len={}\n", fnv1a64(body.as_bytes()), body.len());
    write_atomic(path, &[header.as_bytes(), body.as_bytes()])
        .map_err(|e| TrainError::Io(format!("write checkpoint {}: {e}", path.display())))
}

/// Read and validate a checkpoint file, returning the JSON body.
///
/// Rejects text that is not UTF-8, wrong magic/version, truncated
/// bodies (length mismatch), and corrupted bodies (checksum mismatch) as
/// [`TrainError::Corrupt`]; only a failed read is [`TrainError::Io`].
pub fn read_checkpoint_file(path: &Path) -> Result<String, TrainError> {
    telemetry::counter_add("rl.ckpt.reads", 1);
    let bytes = std::fs::read(path)
        .map_err(|e| TrainError::Io(format!("read checkpoint {}: {e}", path.display())))?;
    let corrupt = |why: String| TrainError::Corrupt(format!("{}: {why}", path.display()));
    let text = String::from_utf8(bytes).map_err(|_| corrupt("not UTF-8 text".into()))?;
    let (header, body) =
        text.split_once('\n').ok_or_else(|| corrupt("missing checkpoint header line".into()))?;
    let mut tokens = header.split(' ');
    if tokens.next() != Some(MAGIC) {
        return Err(corrupt(format!("not a checkpoint file (missing `{MAGIC}` magic)")));
    }
    match tokens.next() {
        Some(VERSION) => {}
        Some(v) => return Err(corrupt(format!("unsupported checkpoint version `{v}`"))),
        None => return Err(corrupt("missing checkpoint version".into())),
    }
    let mut sum = None;
    let mut len = None;
    for tok in tokens {
        if let Some(hex) = tok.strip_prefix("fnv1a=") {
            // only the writer's own spelling: a case-flipped digit is rot
            let canonical = hex.len() == 16
                && hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
            sum = if canonical { u64::from_str_radix(hex, 16).ok() } else { None };
        } else if let Some(n) = tok.strip_prefix("len=") {
            len = n.parse::<usize>().ok();
        }
    }
    let sum = sum.ok_or_else(|| corrupt("missing or malformed fnv1a= checksum".into()))?;
    let len = len.ok_or_else(|| corrupt("missing or malformed len= field".into()))?;
    if body.len() != len {
        return Err(corrupt(format!(
            "truncated or padded checkpoint: body is {} bytes, header declares {len}",
            body.len()
        )));
    }
    let actual = fnv1a64(body.as_bytes());
    if actual != sum {
        return Err(corrupt(format!(
            "checksum mismatch: body hashes to {actual:016x}, header declares {sum:016x}"
        )));
    }
    Ok(body.to_string())
}

/// Seal `value` as JSON in the envelope and write it atomically — the
/// one write path for every durable file. `kind` names the file's
/// owner (`ckpt`, `cache`, `pool`, `state`, `spool`) and its fault point
/// `<kind>.write`: `panic` kills before the write (the previous file
/// survives byte-identical), `corrupt` flips a bit in the file just
/// written, `stall` sleeps `stall_ms` first.
pub fn save<T: Serialize>(kind: &str, path: &Path, value: &T) -> Result<(), TrainError> {
    let injection = fault::check(&format!("{kind}.write"));
    if let Some(fault::Injection::Stall(d)) = injection {
        std::thread::sleep(d);
    }
    let body = serde_json::to_string(value)
        .map_err(|e| TrainError::Io(format!("serialize {kind} {}: {e}", path.display())))?;
    write_checkpoint_file(path, &body)?;
    if injection == Some(fault::Injection::Corrupt) {
        fault::corrupt_file(path)
            .map_err(|e| TrainError::Io(format!("corrupt injection on {}: {e}", path.display())))?;
        eprintln!("[{kind}] fault-plan: corrupted {} on disk", path.display());
    }
    Ok(())
}

/// Read, verify and deserialize a file written by [`save`]: `Ok(None)`
/// when nothing is at `path`, [`TrainError::Corrupt`] when the file fails
/// the envelope check or does not deserialize as `T` — never a value —
/// and [`TrainError::Io`] when it cannot be read. Fault point
/// `<kind>.read`, hit only when the file exists: `panic` kills the load,
/// `corrupt` makes it fail as rot, `stall` sleeps `stall_ms` first.
pub fn load<T: Deserialize>(kind: &str, path: &Path) -> Result<Option<T>, TrainError> {
    if !path.exists() {
        return Ok(None);
    }
    match fault::check(&format!("{kind}.read")) {
        Some(fault::Injection::Corrupt) => {
            return Err(TrainError::Corrupt(format!(
                "{}: fault-plan injected {kind} read corruption",
                path.display()
            )))
        }
        Some(fault::Injection::Stall(d)) => std::thread::sleep(d),
        _ => {}
    }
    let body = read_checkpoint_file(path)?;
    serde_json::from_str(&body)
        .map(Some)
        .map_err(|e| TrainError::Corrupt(format!("{}: invalid {kind} body: {e}", path.display())))
}

/// What [`load_or_quarantine`] found at a path.
#[derive(Debug)]
pub enum Loaded<T> {
    /// Nothing was there.
    Missing,
    /// A sound file whose value `accept` took.
    Value(T),
    /// The file was rotten or refused, and now sits at
    /// `<file>.quarantined`; the reason.
    Quarantined(String),
}

/// [`load`] for state that can be rebuilt: a corrupt file, or one that
/// `accept` refuses (a cache entry for another key, a spool for other
/// inputs), is moved aside by [`quarantine`] instead of being returned or
/// raised. `accept` maps the stored value to what the caller keeps. Only
/// a failed read still errors.
pub fn load_or_quarantine<T: Deserialize, U>(
    kind: &str,
    path: &Path,
    accept: impl FnOnce(T) -> Result<U, String>,
) -> Result<Loaded<U>, TrainError> {
    let why = match load(kind, path) {
        Ok(None) => return Ok(Loaded::Missing),
        Ok(Some(stored)) => match accept(stored) {
            Ok(value) => return Ok(Loaded::Value(value)),
            Err(why) => why,
        },
        Err(TrainError::Corrupt(why)) => why,
        Err(e) => return Err(e),
    };
    quarantine(kind, path, &why);
    Ok(Loaded::Quarantined(why))
}

/// Move a rotten `kind` file aside to `<file>.quarantined` (deleting it
/// if the rename fails), count it as `rl.ckpt.quarantine.<kind>` and warn
/// on stderr. The evidence is kept; the caller rebuilds or recomputes.
pub fn quarantine(kind: &str, path: &Path, why: &str) {
    let mut aside = path.as_os_str().to_owned();
    aside.push(".quarantined");
    if std::fs::rename(path, &aside).is_err() {
        std::fs::remove_file(path).ok();
    }
    telemetry::counter_add(&format!("rl.ckpt.quarantine.{kind}"), 1);
    eprintln!("[{kind}] warning: {why}; quarantined as {}", Path::new(&aside).display());
}

/// Save a [`TrainCheckpoint`] through [`save`] (kind `ckpt`).
pub fn save_train_checkpoint(path: &Path, ckpt: &TrainCheckpoint) -> Result<(), TrainError> {
    save("ckpt", path, ckpt)
}

/// Load a [`TrainCheckpoint`] through [`load`] (kind `ckpt`). A corrupt
/// checkpoint is a [`TrainError::Corrupt`], never quarantined: training
/// state is not rebuilt behind the caller's back.
pub fn load_train_checkpoint(path: &Path) -> Result<TrainCheckpoint, TrainError> {
    load("ckpt", path)?
        .ok_or_else(|| TrainError::Io(format!("read checkpoint {}: no such file", path.display())))
}

/// Periodic-checkpoint policy for [`crate::Ppo::train_checkpointed`].
/// Crashes are injected through the fault plan: `panic@ppo.iter:<n>`
/// fires after iteration `n`'s update, before its checkpoint is written.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    /// Checkpoint file location (also the auto-resume source).
    pub path: PathBuf,
    /// Write a checkpoint every this many iterations (≥ 1).
    pub every: usize,
}

impl Checkpointer {
    /// Checkpoint to `path` every `every` iterations.
    ///
    /// (Re)loads the fault plan from the environment, so a checkpointed
    /// training run picks up an `ADVNET_FAULT_PLAN` set after process
    /// start (the crash-safety tests rely on this). The reload keeps the
    /// plan's per-point hit counters while the plan is unchanged and
    /// resets them when it changed; a malformed plan panics here rather
    /// than silently skipping its injections.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        if let Err(e) = fault::reload_from_env() {
            panic!("{e}");
        }
        Checkpointer { path: path.into(), every: every.max(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("advnet-ckpt-file-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn file_roundtrip() {
        let path = tmp_path("roundtrip.ckpt");
        write_checkpoint_file(&path, r#"{"hello":1}"#).unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), r#"{"hello":1}"#);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_body_is_rejected() {
        let path = tmp_path("truncated.ckpt");
        write_checkpoint_file(&path, r#"{"a":[1,2,3,4,5]}"#).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 4]).unwrap();
        match read_checkpoint_file(&path) {
            Err(TrainError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_is_rejected() {
        let path = tmp_path("flipped.ckpt");
        write_checkpoint_file(&path, r#"{"a":1234}"#).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replace("1234", "1235");
        assert_ne!(text, flipped);
        std::fs::write(&path, flipped).unwrap();
        match read_checkpoint_file(&path) {
            Err(TrainError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let path = tmp_path("magic.ckpt");
        std::fs::write(&path, "NOT-A-CKPT v1 fnv1a=0 len=0\n").unwrap();
        assert!(matches!(read_checkpoint_file(&path), Err(TrainError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let path = tmp_path("never-written.ckpt");
        assert!(matches!(read_checkpoint_file(&path), Err(TrainError::Io(_))));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
