//! Crash-resumable evaluation pipeline for the experiment binaries.
//!
//! Long bench runs (hours at `FULL=1`) die for mundane reasons — OOM
//! kills, preempted CI runners, injected faults. The pipeline splits a
//! run into **units** keyed by *what they compute* (trace-set hash ×
//! protocol × config — the workspace-wide evaluation cache key from the
//! roadmap) and persists every finished unit as a checksummed entry
//! under `results/cache/` through [`rl::ckpt`]'s durable-state path
//! (kind `cache`: the `ADVNET-CKPT` envelope, atomic tmp+fsync+rename).
//! A re-run after a crash replays cached units byte-identically and
//! computes only what is missing; a corrupt entry, or one stored under
//! another key, is quarantined (renamed to `*.quarantined`) and
//! recomputed — it is never served and never panics the run.
//!
//! Every pipeline writes a completion manifest
//! (`results/cache/<name>_<scale>.manifest.json`) with per-unit status
//! and cache-hit / recompute / quarantine counts, so partial progress
//! is visible even when a run aborts between units.
//!
//! Fault points (see the `fault` crate):
//!
//! * `bench.unit` fires at every unit boundary *outside* the retry
//!   guard — `panic@bench.unit:2` kills the process at the second unit,
//!   which is how the kill+resume tests chop a run in half;
//! * `cache.write` / `cache.read` are [`rl::ckpt`]'s points for this
//!   kind (`corrupt@cache.write:1` rots the first entry on disk,
//!   `corrupt@cache.read:1` makes the first lookup of an existing entry
//!   behave as if it had rotted).
//!
//! Unit compute closures must be **restartable**: they run again from
//! scratch after a retry or on a fresh process, so they should build
//! their own environments/RNGs from the key's inputs rather than mutate
//! ambient state.

use crate::{results_dir, Scale};
use rl::ckpt::{fnv1a64, Loaded};
use serde::{Deserialize, Serialize};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Identity of one unit of work: which traces, which protocol, which
/// configuration. Two units with equal keys must compute the same value
/// (everything else — worker counts, schedulers, restarts — is excluded
/// by construction).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// FNV-1a 64 over the serialized trace inputs.
    pub trace_hash: u64,
    /// Protocol (or stage) name; becomes part of the on-disk file name.
    pub protocol: String,
    /// FNV-1a 64 over the serialized evaluation config.
    pub config_hash: u64,
}

impl UnitKey {
    /// Hash any serializable value (stable across runs: serialization is
    /// deterministic and floats round-trip bit-exactly).
    pub fn hash_of<T: Serialize>(v: &T) -> u64 {
        let json = serde_json::to_string(v).expect("unit-key inputs serialize");
        fnv1a64(json.as_bytes())
    }

    /// The canonical constructor: `(traces, protocol, config)`.
    pub fn of<T: Serialize, C: Serialize>(traces: &T, protocol: &str, config: &C) -> UnitKey {
        UnitKey {
            trace_hash: UnitKey::hash_of(traces),
            protocol: protocol.to_string(),
            config_hash: UnitKey::hash_of(config),
        }
    }

    /// Canonical constructor for units keyed by a set of
    /// [`traces::Trace`]s: the trace hash is FNV-1a 64 over each trace's
    /// [`traces::Trace::content_hash`] (little-endian, in order). The key
    /// therefore sees exactly the network conditions — renaming a trace
    /// does not invalidate the cache; editing or reordering one does.
    /// Prefer this over [`UnitKey::of`] whenever the inputs are traces:
    /// it skips the full JSON serialization and shares one hash
    /// discipline with the arena's pool deduplication.
    pub fn of_trace_set<C: Serialize>(
        traces: &[traces::Trace],
        protocol: &str,
        config: &C,
    ) -> UnitKey {
        let mut bytes = Vec::with_capacity(traces.len() * 8);
        for t in traces {
            bytes.extend_from_slice(&t.content_hash().to_le_bytes());
        }
        UnitKey {
            trace_hash: fnv1a64(&bytes),
            protocol: protocol.to_string(),
            config_hash: UnitKey::hash_of(config),
        }
    }

    /// Filesystem-safe identifier; the cache entry lives at
    /// `results/cache/units/<id>.unit`.
    pub fn id(&self) -> String {
        let proto: String = self
            .protocol
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        format!("{proto}-{:016x}-{:016x}", self.config_hash, self.trace_hash)
    }
}

/// On-disk cache entry: the unit's id plus its value as JSON text. The
/// value is double-encoded so the envelope stays a fixed, simple shape
/// and the payload round-trips byte-exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    key: String,
    value: String,
}

/// Per-unit outcome recorded in the manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitRecord {
    /// [`UnitKey::id`] of the unit.
    pub id: String,
    /// Human-readable label ("replay mpc on pensieve_targeted").
    pub label: String,
    /// "cached", "computed", "recomputed" (after a quarantine), or
    /// "failed" (retries exhausted; the run carries on without it).
    pub status: String,
    /// Compute attempts (0 for a pure cache hit).
    pub attempts: usize,
    /// Failure or quarantine detail, empty otherwise.
    pub message: String,
}

/// Completion manifest for one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    pub pipeline: String,
    pub scale: String,
    /// True iff no unit failed.
    pub complete: bool,
    pub cache_hits: usize,
    pub computed: usize,
    pub quarantined: usize,
    pub failed: usize,
    pub units: Vec<UnitRecord>,
}

impl Manifest {
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Manifest> {
        let json = fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// A resumable evaluation pipeline: hand it units, get cached values
/// back where possible, and a [`Manifest`] at the end.
pub struct Pipeline {
    name: String,
    scale_tag: String,
    units_dir: PathBuf,
    manifest_path: PathBuf,
    backoff: fault::Backoff,
    cache_hits: usize,
    computed: usize,
    quarantined: usize,
    units: Vec<UnitRecord>,
}

impl Pipeline {
    /// Standard constructor: cache under `results/cache/`, one immediate
    /// retry per unit. Also (re)arms the fault plan from the environment
    /// so `ADVNET_FAULT_PLAN` works for pure-eval binaries; a malformed
    /// plan fails loudly here rather than silently skipping injections.
    pub fn new(name: &str, scale: Scale) -> Pipeline {
        match fault::reload_from_env() {
            Ok(Some(plan)) => eprintln!("[{name}] fault plan armed: {plan}"),
            Ok(None) => {}
            Err(e) => panic!("invalid {}: {e}", fault::PLAN_ENV),
        }
        Pipeline::new_at(results_dir().join("cache"), name, scale.tag())
    }

    /// Test/embedding constructor with an explicit cache directory (no
    /// env access, no fault-plan reload).
    pub fn new_at(cache_dir: PathBuf, name: &str, scale_tag: &str) -> Pipeline {
        let units_dir = cache_dir.join("units");
        fs::create_dir_all(&units_dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", units_dir.display()));
        let manifest_path = cache_dir.join(format!("{name}_{scale_tag}.manifest.json"));
        Pipeline {
            name: name.to_string(),
            scale_tag: scale_tag.to_string(),
            units_dir,
            manifest_path,
            backoff: fault::Backoff::none(1),
            cache_hits: 0,
            computed: 0,
            quarantined: 0,
            units: Vec::new(),
        }
    }

    /// Replace the per-unit retry policy (default: one immediate retry).
    pub fn with_backoff(mut self, backoff: fault::Backoff) -> Pipeline {
        self.backoff = backoff;
        self
    }

    /// Where [`finish`](Self::finish) writes the manifest.
    pub fn manifest_path(&self) -> &Path {
        &self.manifest_path
    }

    /// Run (or replay) one unit. Returns `None` only when `compute`
    /// panicked on every allowed attempt; the failure is recorded in the
    /// manifest and the pipeline carries on, so a run yields partial
    /// results instead of nothing.
    pub fn unit<T, F>(&mut self, label: &str, key: &UnitKey, mut compute: F) -> Option<T>
    where
        T: Serialize + Deserialize,
        F: FnMut() -> T,
    {
        let id = key.id();
        // Outside the retry guard on purpose: `panic@bench.unit:<n>`
        // must kill the run at a unit boundary, not be retried away.
        let _ = fault::check("bench.unit");
        let path = self.units_dir.join(format!("{id}.unit"));

        let cached = rl::ckpt::load_or_quarantine("cache", &path, |entry: Entry| {
            if entry.key != id {
                return Err(format!(
                    "cache entry key mismatch: expected {id}, found {}",
                    entry.key
                ));
            }
            serde_json::from_str::<T>(&entry.value)
                .map_err(|e| format!("invalid cached value: {e}"))
        });
        let quarantined_because = match cached {
            Ok(Loaded::Value(v)) => {
                self.cache_hits += 1;
                telemetry::counter_add("bench.cache.hit", 1);
                self.push_record(&id, label, "cached", 0, String::new());
                eprintln!("[{}] unit {id} ({label}): cache hit", self.name);
                return Some(v);
            }
            Ok(Loaded::Missing) => None,
            Ok(Loaded::Quarantined(why)) => {
                self.quarantined += 1;
                Some(why)
            }
            Err(e) => {
                eprintln!("[{}] warning: unit {id} ({label}): {e}; recomputing", self.name);
                None
            }
        };

        telemetry::counter_add("bench.cache.miss", 1);
        let _span = telemetry::span!("bench.unit");
        let t_unit = telemetry::enabled().then(std::time::Instant::now);
        let mut attempts = 0usize;
        let value = loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(&mut compute)) {
                Ok(v) => break v,
                Err(payload) => {
                    let msg = panic_msg(payload.as_ref());
                    if attempts > self.backoff.retries {
                        eprintln!(
                            "[{}] error: unit {id} ({label}) failed after {attempts} attempt(s): {msg}",
                            self.name
                        );
                        self.push_record(&id, label, "failed", attempts, msg);
                        return None;
                    }
                    telemetry::counter_add("bench.unit.retry", 1);
                    eprintln!(
                        "[{}] warning: unit {id} ({label}) attempt {attempts} panicked: {msg}; retrying",
                        self.name
                    );
                    self.backoff.pause(attempts);
                }
            }
        };

        if let Some(t0) = t_unit {
            telemetry::observe("bench.unit.wall_s", t0.elapsed().as_secs_f64());
        }
        self.write_cached(&path, &id, &value);
        self.computed += 1;
        match quarantined_because {
            Some(why) => self.push_record(&id, label, "recomputed", attempts, why),
            None => self.push_record(&id, label, "computed", attempts, String::new()),
        }
        Some(value)
    }

    /// Early-exit helper for binaries: a `None` unit result becomes a
    /// clean non-zero exit pointing at the partial results, instead of
    /// an `unwrap` panic.
    pub fn require<T>(value: Option<T>, what: &str) -> T {
        value.unwrap_or_else(|| {
            eprintln!(
                "fatal: {what} failed after retries; completed units stay cached under results/cache/ — rerun to resume"
            );
            std::process::exit(2);
        })
    }

    /// Write the manifest (atomically) and return it.
    pub fn finish(self) -> Manifest {
        let failed = self.units.iter().filter(|u| u.status == "failed").count();
        let manifest = Manifest {
            pipeline: self.name.clone(),
            scale: self.scale_tag.clone(),
            complete: failed == 0,
            cache_hits: self.cache_hits,
            computed: self.computed,
            quarantined: self.quarantined,
            failed,
            units: self.units,
        };
        let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
        if let Err(e) = rl::ckpt::write_atomic(&self.manifest_path, &[json.as_bytes()]) {
            eprintln!(
                "[{}] warning: could not write manifest {}: {e}",
                self.name,
                self.manifest_path.display()
            );
        }
        eprintln!(
            "[{}] {} unit(s): {} cached, {} computed, {} quarantined, {} failed — manifest {}",
            self.name,
            manifest.units.len(),
            manifest.cache_hits,
            manifest.computed,
            manifest.quarantined,
            manifest.failed,
            self.manifest_path.display()
        );
        // with ADVNET_TELEMETRY=on, also flush the process-wide metric
        // registry as a checksummed run manifest under results/runs/
        let config = [
            ("pipeline".to_string(), manifest.pipeline.clone()),
            ("scale".to_string(), manifest.scale.clone()),
        ];
        match telemetry::write_manifest_default(None, &config) {
            Ok(Some(path)) => {
                eprintln!("[{}] telemetry run manifest {}", manifest.pipeline, path.display());
            }
            Ok(None) => {}
            Err(e) => eprintln!(
                "[{}] warning: could not write telemetry run manifest: {e}",
                manifest.pipeline
            ),
        }
        manifest
    }

    fn push_record(
        &mut self,
        id: &str,
        label: &str,
        status: &str,
        attempts: usize,
        message: String,
    ) {
        self.units.push(UnitRecord {
            id: id.to_string(),
            label: label.to_string(),
            status: status.to_string(),
            attempts,
            message,
        });
    }

    /// Persist a computed value. A failure here only costs the *cache*
    /// (the value is still returned to the caller), so it warns instead
    /// of erroring.
    fn write_cached<T: Serialize>(&self, path: &Path, id: &str, value: &T) {
        let entry = match serde_json::to_string(value) {
            Ok(value) => Entry { key: id.to_string(), value },
            Err(e) => {
                eprintln!("[{}] warning: unit {id} value does not serialize: {e}", self.name);
                return;
            }
        };
        if let Err(e) = rl::ckpt::save("cache", path, &entry) {
            eprintln!("[{}] warning: could not cache unit {id}: {e}", self.name);
        }
    }
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

pub mod smoke {
    //! A minutes-scale end-to-end exercise of the pipeline, shared by
    //! the `pipeline_smoke` binary, the workspace resume tests, and the
    //! CI fault matrix: a tiny vectorized adversary training (so worker
    //! heartbeats and the watchdog have a real rollout path to guard),
    //! trace generation, and per-protocol replays — all as cached units,
    //! ending in a deterministic CSV. Same inputs ⇒ byte-identical CSV,
    //! interrupted or not.

    use super::{Manifest, Pipeline, UnitKey};
    use crate::{results_dir, Scale};
    use abr::{AbrPolicy, BufferBased, Mpc, RateBased, Video};
    use adversary::{
        generate_abr_traces_with, random_abr_traces, replay_abr_trace, try_train_abr_adversary,
        AbrAdversaryConfig, AbrAdversaryEnv, AbrTrace, AdversaryTrainConfig,
    };
    use std::path::PathBuf;

    /// What a smoke run produced.
    pub struct Outcome {
        pub csv: PathBuf,
        pub manifest: Manifest,
    }

    /// Run the smoke pipeline: one training+generation unit plus one
    /// replay unit per protocol (bb, rate, mpc) over `n_random` random
    /// traces and 2 adversarial ones. Writes
    /// `results/pipeline_smoke.csv` with one `(protocol, trace, qoe)`
    /// row per replay.
    pub fn run(n_random: usize, seed: u64) -> Result<Outcome, String> {
        let pipe = Pipeline::new("pipeline_smoke", Scale::Reduced);
        let csv = results_dir().join("pipeline_smoke.csv");
        run_at(pipe, csv, n_random, seed)
    }

    /// [`run`] with an explicit pipeline and CSV path (for tests that
    /// need isolated cache directories).
    pub fn run_at(
        mut pipe: Pipeline,
        csv: PathBuf,
        n_random: usize,
        seed: u64,
    ) -> Result<Outcome, String> {
        let video = Video::cbr();
        let adv_cfg = AbrAdversaryConfig::default();

        // Two 96-step iterations over two vectorized envs: enough to run
        // the heartbeat/watchdog rollout path without taking minutes.
        let train = AdversaryTrainConfig {
            total_steps: 2 * 96,
            ppo: rl::PpoConfig {
                n_steps: 96,
                minibatch_size: 48,
                epochs: 2,
                n_envs: 2,
                seed: 11,
                ..rl::PpoConfig::default()
            },
            init_std: 0.6,
            checkpoint_path: None,
            checkpoint_every: 1,
        };
        let train_key =
            UnitKey::of(&(n_random, seed, train.total_steps), "smoke-adv-bb", &"train+gen v1");
        let adv_traces: Vec<AbrTrace> = Pipeline::require(
            pipe.unit("adversary train + trace gen", &train_key, || {
                let mut env = AbrAdversaryEnv::new(
                    BufferBased::pensieve_defaults(),
                    video.clone(),
                    adv_cfg.clone(),
                );
                let (adv, _) = try_train_abr_adversary(&mut env, &train)
                    .unwrap_or_else(|e| panic!("smoke adversary training failed: {e}"));
                generate_abr_traces_with(
                    &mut env,
                    &adv.policy,
                    adv.obs_norm.as_ref(),
                    2,
                    false,
                    seed,
                )
            }),
            "smoke adversary training unit",
        );

        let mut all: Vec<AbrTrace> = adv_traces;
        all.extend(random_abr_traces(n_random, video.n_chunks(), seed));

        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for pname in ["bb", "rate", "mpc"] {
            let key = UnitKey::of(&all, pname, &"replay v1");
            let qoe: Vec<f64> = Pipeline::require(
                pipe.unit(&format!("replay {pname}"), &key, || {
                    all.iter()
                        .map(|t| {
                            let mut proto: Box<dyn AbrPolicy> = match pname {
                                "bb" => Box::new(BufferBased::pensieve_defaults()),
                                "rate" => Box::new(RateBased::default()),
                                _ => Box::new(Mpc::default()),
                            };
                            replay_abr_trace(t, proto.as_mut(), &video, &adv_cfg)
                        })
                        .collect()
                }),
                "smoke replay unit",
            );
            for (i, q) in qoe.iter().enumerate() {
                rows.push((pname.to_string(), i as f64, *q));
            }
        }

        traces::io::write_csv_series(&csv, "protocol,trace,qoe", &rows)
            .map_err(|e| e.to_string())?;
        let manifest = pipe.finish();
        Ok(Outcome { csv, manifest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("advnet-pipeline-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn unit_id_is_stable_and_filesystem_safe() {
        let key = UnitKey::of(&vec![vec![1.0f64, 2.0]], "mpc/targeted v1", &(48usize, 80.0f64));
        let id = key.id();
        assert_eq!(id, key.id(), "id is a pure function of the key");
        assert!(id.starts_with("mpc-targeted-v1-"), "{id}");
        assert!(id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'), "{id}");
        // order of traces matters (it changes what the unit computes)…
        let swapped = UnitKey::of(&vec![vec![2.0f64, 1.0]], "mpc/targeted v1", &(48usize, 80.0f64));
        assert_ne!(swapped.id(), id);
        // …but the protocol string round-trips into distinct ids
        let other = UnitKey::of(&vec![vec![1.0f64, 2.0]], "bb", &(48usize, 80.0f64));
        assert_ne!(other.id(), id);
    }

    #[test]
    fn trace_set_keys_see_content_not_names() {
        let mk = |name: &str, bw: f64| {
            traces::Trace::new(name, vec![traces::Segment::bw(4.0, bw, 80.0)])
        };
        let a = UnitKey::of_trace_set(&[mk("x", 1.0), mk("y", 2.0)], "eval", &"v1");
        // renaming traces must hit the same cache entry…
        let renamed = UnitKey::of_trace_set(&[mk("p", 1.0), mk("q", 2.0)], "eval", &"v1");
        assert_eq!(a, renamed);
        // …while changing conditions, order, or config must miss
        let edited = UnitKey::of_trace_set(&[mk("x", 1.0), mk("y", 2.5)], "eval", &"v1");
        assert_ne!(a, edited);
        let reordered = UnitKey::of_trace_set(&[mk("y", 2.0), mk("x", 1.0)], "eval", &"v1");
        assert_ne!(a, reordered);
        let reconfigured = UnitKey::of_trace_set(&[mk("x", 1.0), mk("y", 2.0)], "eval", &"v2");
        assert_ne!(a, reconfigured);
    }

    #[test]
    fn second_run_hits_the_cache_with_identical_value() {
        let cache = tmp_cache("hit");
        let key = UnitKey::of(&vec![1.0f64, 2.0], "proto", &"cfg");
        let mut computes = 0;
        let mut run = |cache: PathBuf| {
            let mut pipe = Pipeline::new_at(cache, "t", "reduced");
            let v: Vec<f64> = pipe
                .unit("unit under test", &key, || {
                    computes += 1;
                    // an awkward mantissa + negative zero: bit-exactness
                    // or bust
                    vec![1.5, f64::from_bits(0x3FF5_5555_5555_5555), -0.0]
                })
                .unwrap();
            (v, pipe.finish())
        };
        let (v1, m1) = run(cache.clone());
        let (v2, m2) = run(cache.clone());
        assert_eq!(computes, 1, "second run must not recompute");
        assert_eq!(
            v1.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            v2.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "cached value is bit-identical"
        );
        assert_eq!((m1.computed, m1.cache_hits), (1, 0));
        assert_eq!((m2.computed, m2.cache_hits), (0, 1));
        assert!(m1.complete && m2.complete);
        std::fs::remove_dir_all(&cache).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recomputed() {
        let cache = tmp_cache("quarantine");
        let key = UnitKey::of(&[9.0f64], "p", &"c");
        let path = cache.join("units").join(format!("{}.unit", key.id()));

        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let _ = pipe.unit("first", &key, || vec![3.25f64]).unwrap();
        pipe.finish();
        fault::corrupt_file(&path).unwrap();

        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let v: Vec<f64> = pipe.unit("second", &key, || vec![3.25f64]).unwrap();
        let m = pipe.finish();
        assert_eq!(v, vec![3.25]);
        assert_eq!(m.quarantined, 1);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.computed, 1);
        assert_eq!(m.units[0].status, "recomputed");
        assert!(path.with_extension("unit.quarantined").exists(), "original moved aside");
        // the recomputed entry is valid again
        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let _: Vec<f64> = pipe.unit("third", &key, || panic!("must not recompute")).unwrap();
        assert_eq!(pipe.finish().cache_hits, 1);
        std::fs::remove_dir_all(&cache).ok();
    }

    #[test]
    fn manifest_records_why_a_unit_was_recomputed() {
        let cache = tmp_cache("reason");
        let key = UnitKey::of(&[4.0f64], "p", &"c");
        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let _ = pipe.unit("first", &key, || 1.0f64).unwrap();
        pipe.finish();
        fault::corrupt_file(&cache.join("units").join(format!("{}.unit", key.id()))).unwrap();
        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let _ = pipe.unit("second", &key, || 1.0f64).unwrap();
        let m = pipe.finish();
        assert_eq!(m.units[0].status, "recomputed");
        assert!(m.units[0].message.contains("checksum mismatch"), "{}", m.units[0].message);
        std::fs::remove_dir_all(&cache).ok();
    }

    #[test]
    fn key_mismatch_is_treated_as_corruption() {
        let cache = tmp_cache("mismatch");
        let a = UnitKey::of(&[1.0f64], "p", &"c");
        let b = UnitKey::of(&[2.0f64], "p", &"c");
        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let _ = pipe.unit("a", &a, || 1.0f64).unwrap();
        pipe.finish();
        // splice a's entry into b's slot: checksum passes, key does not
        let units = cache.join("units");
        std::fs::copy(
            units.join(format!("{}.unit", a.id())),
            units.join(format!("{}.unit", b.id())),
        )
        .unwrap();
        let mut pipe = Pipeline::new_at(cache.clone(), "t", "reduced");
        let v: f64 = pipe.unit("b", &b, || 2.0f64).unwrap();
        let m = pipe.finish();
        assert_eq!(v, 2.0, "never serves another unit's value");
        assert_eq!(m.quarantined, 1);
        std::fs::remove_dir_all(&cache).ok();
    }

    #[test]
    fn exhausted_retries_yield_partial_results_and_a_manifest() {
        let cache = tmp_cache("fail");
        let mut pipe =
            Pipeline::new_at(cache.clone(), "t", "reduced").with_backoff(fault::Backoff::none(1));
        let good = pipe.unit("good", &UnitKey::of(&[1.0f64], "ok", &"c"), || 7usize);
        let mut tries = 0;
        let bad: Option<usize> = pipe.unit("bad", &UnitKey::of(&[2.0f64], "boom", &"c"), || {
            tries += 1;
            panic!("always fails");
        });
        assert_eq!(good, Some(7));
        assert_eq!(bad, None);
        assert_eq!(tries, 2, "initial attempt + one retry");
        let m = pipe.finish();
        assert!(!m.complete);
        assert_eq!(m.failed, 1);
        assert_eq!(m.units[1].status, "failed");
        assert!(m.units[1].message.contains("always fails"));
        let back = Manifest::load(cache.join("t_reduced.manifest.json")).unwrap();
        assert_eq!(back.failed, 1);
        assert_eq!(back.units.len(), 2);
        std::fs::remove_dir_all(&cache).ok();
    }
}
