//! The persistent adversarial trace pool.
//!
//! Every generation of the arena harvests traces from a freshly trained
//! adversary; the pool is where they accumulate across generations —
//! deduplicated by [`traces::Trace::content_hash`], scored by **measured
//! damage** (held-out QoE drop vs the benign baseline, re-measured
//! against the current protocol every generation), and evicted once the
//! protocol has stopped losing to them for `patience` consecutive
//! generations. The pool is the arena's long-term memory: an attack
//! discovered in generation 2 keeps pressuring the protocol in
//! generation 9 until it is genuinely defeated, exactly the "maintained
//! corpus of adversarial scenarios" idea from CCLab (PAPERS.md).
//!
//! # Determinism and resume-idempotence
//!
//! The arena's kill+resume contract (resume is bit-identical to an
//! uninterrupted run) leans on three properties of this type:
//!
//! * **Canonical order** — entries are kept sorted by content hash, so
//!   the serialized pool is a pure function of its *set* of entries,
//!   never of insertion order.
//! * **Commutative same-generation merges** — duplicate inserts within
//!   one generation merge damage with `max`, which is order-invariant
//!   (property-tested in `tests/pool_properties.rs`).
//! * **Per-generation guards** — re-scoring ([`TracePool::rescore`])
//!   and the eviction sweep ([`TracePool::evict`]) are keyed by
//!   generation number and skip work already recorded for that
//!   generation, so a resumed process can blindly repeat the whole
//!   per-generation sequence and land on the same bytes.
//!
//! # File format
//!
//! The pool persists through [`rl::ckpt`]'s durable-state path (kind
//! `pool`): the `ADVNET-CKPT v1` envelope (FNV-1a 64 checksum + body
//! length header) via an atomic tmp+fsync+rename, so a crash mid-write
//! leaves the previous pool intact and bit rot is detected on load. A
//! corrupt pool file is **quarantined** (renamed to `<file>.quarantined`)
//! and the pool rebuilt empty — the same discipline `bench::pipeline`
//! applies to its cache entries — because the arena can always
//! re-harvest; what it must never do is trust a rotten score table.
//!
//! Fault points (see the `fault` crate): `pool.write` fires *before*
//! the write (`panic@pool.write:2` kills the run mid-generation 2 with
//! the old pool intact; `corrupt@pool.write:1` rots the file after a
//! successful write), `pool.read` fires on load of an existing file
//! (`corrupt@pool.read:1` makes the first load behave as if the file
//! had rotted).

use rl::ckpt::{Loaded, TrainError};
use serde::{Deserialize, Serialize};
use std::path::Path;
use traces::Trace;

/// One pooled adversarial trace with its damage bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolEntry {
    /// The adversarial trace itself (corpus form, replayable anywhere).
    pub trace: Trace,
    /// [`Trace::content_hash`] — the dedup key and canonical sort key.
    pub hash: u64,
    /// Generation that first added this trace.
    pub born_gen: u64,
    /// Most recent measured damage: held-out benign-baseline QoE minus
    /// QoE on this trace, against the *current* protocol. Positive means
    /// the protocol still loses to it.
    pub damage: f64,
    /// Highest damage ever measured for this trace (how bad the attack
    /// was at its peak — survives re-scoring, useful for reporting).
    pub peak_damage: f64,
    /// Consecutive generations with `damage <= evict threshold`. Reset
    /// to zero whenever the trace draws blood again.
    pub beaten_streak: u64,
    /// Generation of the last damage measurement (insert or re-score).
    pub scored_gen: u64,
}

/// The persistent pool. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePool {
    /// Entries sorted by `hash` ascending (canonical order).
    entries: Vec<PoolEntry>,
    /// Lifetime eviction count (monotone; survives save/load).
    pub evicted_total: u64,
    /// Last generation whose eviction sweep ran (resume guard).
    last_evict_gen: u64,
}

impl Default for TracePool {
    fn default() -> Self {
        TracePool::new()
    }
}

impl TracePool {
    /// The empty pool.
    pub fn new() -> TracePool {
        TracePool { entries: Vec::new(), evicted_total: 0, last_evict_gen: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the pool has no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live entries in canonical (hash-ascending) order.
    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// Mean damage over live entries (0.0 for an empty pool).
    pub fn mean_damage(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.damage).sum::<f64>() / self.entries.len() as f64
    }

    /// Add a harvested trace with its measured damage, deduplicating by
    /// content hash. Returns `true` when the trace is new.
    ///
    /// A duplicate from an earlier generation gets its damage *replaced*
    /// (this generation's measurement supersedes a stale one) and its
    /// `scored_gen` bumped; further duplicates within the same
    /// generation merge with `max`, so the result is independent of the
    /// order the harvest batch arrives in.
    pub fn insert(&mut self, trace: Trace, damage: f64, gen: u64) -> bool {
        let hash = trace.content_hash();
        match self.entries.binary_search_by(|e| e.hash.cmp(&hash)) {
            Ok(i) => {
                let e = &mut self.entries[i];
                e.damage = if e.scored_gen == gen { e.damage.max(damage) } else { damage };
                e.scored_gen = gen;
                e.peak_damage = e.peak_damage.max(e.damage);
                telemetry::counter_add("arena.pool.dedup", 1);
                false
            }
            Err(i) => {
                self.entries.insert(
                    i,
                    PoolEntry {
                        trace,
                        hash,
                        born_gen: gen,
                        damage,
                        peak_damage: damage,
                        beaten_streak: 0,
                        scored_gen: gen,
                    },
                );
                telemetry::counter_add("arena.pool.insert", 1);
                true
            }
        }
    }

    /// Re-measure every entry not yet scored this generation against the
    /// current protocol. Entries already carrying a generation-`gen`
    /// score (inserted or re-scored before a crash) are skipped, which
    /// is what makes a resumed generation repeat to identical bytes.
    pub fn rescore(&mut self, gen: u64, mut scorer: impl FnMut(&Trace) -> f64) {
        for e in &mut self.entries {
            if e.scored_gen < gen {
                e.damage = scorer(&e.trace);
                e.scored_gen = gen;
                e.peak_damage = e.peak_damage.max(e.damage);
            }
        }
    }

    /// Run generation `gen`'s eviction sweep: every entry whose current
    /// damage is at or below `evict_damage` extends its beaten streak
    /// (others reset to zero), and entries beaten for `patience`
    /// consecutive generations are evicted. Returns the evicted traces'
    /// names. Runs at most once per generation (resume guard); the
    /// arena calls it after [`TracePool::rescore`] and *before*
    /// inserting the new harvest, so a trace gets at least one full
    /// generation of protocol training against it before it can be
    /// judged defeated.
    pub fn evict(&mut self, gen: u64, evict_damage: f64, patience: u64) -> Vec<String> {
        if self.last_evict_gen >= gen {
            return Vec::new();
        }
        self.last_evict_gen = gen;
        let patience = patience.max(1);
        for e in &mut self.entries {
            if e.damage <= evict_damage {
                e.beaten_streak += 1;
            } else {
                e.beaten_streak = 0;
            }
        }
        let mut evicted = Vec::new();
        self.entries.retain(|e| {
            if e.beaten_streak >= patience {
                evicted.push(e.trace.name.clone());
                false
            } else {
                true
            }
        });
        if !evicted.is_empty() {
            self.evicted_total += evicted.len() as u64;
            telemetry::counter_add("arena.pool.evict", evicted.len() as u64);
        }
        evicted
    }

    /// The damage-weighted training mix: up to `max_traces` live traces,
    /// strongest attacks first, each duplicated 1–3× in proportion to
    /// its damage relative to the pool's current worst (so protocol
    /// training spends more episodes on the traces that still hurt
    /// most). Entries that no longer draw blood (`damage <= 0`)
    /// contribute nothing. Deterministic: ties in damage break by
    /// content hash.
    pub fn training_mix(&self, max_traces: usize) -> Vec<Trace> {
        let mut live: Vec<&PoolEntry> = self.entries.iter().filter(|e| e.damage > 0.0).collect();
        live.sort_by(|a, b| {
            b.damage
                .partial_cmp(&a.damage)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.hash.cmp(&b.hash))
        });
        live.truncate(max_traces);
        let max_damage = live.first().map(|e| e.damage).unwrap_or(0.0);
        let mut mix = Vec::new();
        for e in live {
            let copies = if max_damage > 0.0 {
                1 + (2.0 * e.damage / max_damage).floor().min(2.0) as usize
            } else {
                1
            };
            for _ in 0..copies {
                mix.push(e.trace.clone());
            }
        }
        mix
    }

    /// Serialize and atomically write the pool ([`rl::ckpt::save`], kind
    /// `pool`). `panic@pool.write:<n>` crashes before the nth write (the
    /// previous pool file survives), `corrupt@pool.write:<n>` bit-flips
    /// the freshly written file — which [`TracePool::load_or_quarantine`]
    /// must then reject and quarantine.
    pub fn try_save(&self, path: &Path) -> Result<(), TrainError> {
        rl::ckpt::save("pool", path, self)
    }

    /// Read and validate a pool file. `Ok(None)` when the file does not
    /// exist (a fresh arena); [`TrainError::Corrupt`] when it exists but
    /// fails checksum/format validation (or `corrupt@pool.read:<n>` fired).
    pub fn try_load(path: &Path) -> Result<Option<TracePool>, TrainError> {
        rl::ckpt::load("pool", path)
    }

    /// [`TracePool::try_load`], but a corrupt file is moved aside to
    /// `<file>.quarantined` and an empty pool returned so the arena can
    /// rebuild. Only genuine I/O failures (permissions, disappearing
    /// directories) still error.
    pub fn load_or_quarantine(path: &Path) -> Result<TracePool, TrainError> {
        Ok(match rl::ckpt::load_or_quarantine("pool", path, Ok)? {
            Loaded::Value(pool) => pool,
            Loaded::Missing | Loaded::Quarantined(_) => TracePool::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use traces::Segment;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("advnet-arena-pool-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trace(tag: u64, bw: f64) -> Trace {
        Trace::new(
            format!("t-{tag}"),
            vec![Segment::bw(4.0, bw, 80.0), Segment::bw(4.0, bw + 0.25, 80.0)],
        )
    }

    #[test]
    fn insert_dedups_by_content_not_name() {
        let mut pool = TracePool::new();
        assert!(pool.insert(trace(0, 1.0), 0.5, 1));
        // same segments, different name: a duplicate
        let mut same = trace(0, 1.0);
        same.name = "renamed".into();
        assert!(!pool.insert(same, 0.7, 1));
        assert_eq!(pool.len(), 1);
        // same-generation merge keeps the max damage
        assert_eq!(pool.entries()[0].damage, 0.7);
        assert_eq!(pool.entries()[0].peak_damage, 0.7);
        // a later generation's measurement replaces, not maxes
        assert!(!pool.insert(trace(0, 1.0), 0.2, 2));
        assert_eq!(pool.entries()[0].damage, 0.2);
        assert_eq!(pool.entries()[0].peak_damage, 0.7, "peak survives re-measurement");
        assert_eq!(pool.entries()[0].born_gen, 1);
    }

    #[test]
    fn entries_stay_in_canonical_hash_order() {
        let mut pool = TracePool::new();
        for (i, bw) in [3.0, 1.0, 2.5, 0.9].iter().enumerate() {
            pool.insert(trace(i as u64, *bw), 0.1, 1);
        }
        let hashes: Vec<u64> = pool.entries().iter().map(|e| e.hash).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        assert_eq!(hashes, sorted);
    }

    #[test]
    fn rescore_skips_entries_already_scored_this_generation() {
        let mut pool = TracePool::new();
        pool.insert(trace(0, 1.0), 0.5, 1);
        pool.insert(trace(1, 2.0), 0.8, 2);
        let mut scored = Vec::new();
        pool.rescore(2, |t| {
            scored.push(t.name.clone());
            0.1
        });
        assert_eq!(scored, vec!["t-0"], "gen-2 entry must not be re-scored in gen 2");
        assert_eq!(pool.entries()[0].damage.max(pool.entries()[1].damage), 0.8);
        // repeating the same generation's rescore is a no-op
        pool.rescore(2, |_| panic!("everything already scored"));
    }

    #[test]
    fn eviction_needs_patience_and_runs_once_per_generation() {
        let mut pool = TracePool::new();
        pool.insert(trace(0, 1.0), 0.9, 1); // still biting
        let beaten = trace(1, 2.0);
        pool.insert(beaten, 0.01, 1);
        // patience 2: first beaten generation only builds streak
        assert!(pool.evict(2, 0.05, 2).is_empty());
        // same generation again: guarded no-op, streaks unchanged
        assert!(pool.evict(2, 0.05, 2).is_empty());
        assert_eq!(pool.len(), 2);
        // second consecutive beaten generation: evicted
        let evicted = pool.evict(3, 0.05, 2);
        assert_eq!(evicted, vec!["t-1".to_string()]);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.evicted_total, 1);
        // drawing blood resets the streak
        let mut pool2 = TracePool::new();
        pool2.insert(trace(0, 1.0), 0.01, 1);
        pool2.evict(2, 0.05, 2);
        pool2.entries.iter_mut().for_each(|e| e.damage = 0.9);
        pool2.evict(3, 0.05, 2); // streak resets here
        pool2.entries.iter_mut().for_each(|e| e.damage = 0.01);
        assert!(pool2.evict(4, 0.05, 2).is_empty(), "streak restarted from zero");
        assert_eq!(pool2.len(), 1);
    }

    #[test]
    fn training_mix_weights_by_damage_and_is_deterministic() {
        let mut pool = TracePool::new();
        pool.insert(trace(0, 1.0), 1.0, 1); // worst attack: 3 copies
        pool.insert(trace(1, 2.0), 0.5, 1); // half as bad: 2 copies
        pool.insert(trace(2, 3.0), 0.1, 1); // mild: 1 copy
        pool.insert(trace(3, 4.0), -0.2, 1); // protocol wins: excluded
        let mix = pool.training_mix(8);
        assert_eq!(mix.len(), 3 + 2 + 1);
        assert_eq!(mix[0].name, "t-0");
        let mix2 = pool.training_mix(8);
        assert_eq!(mix, mix2);
        // the cap limits distinct traces, strongest first
        let capped = pool.training_mix(1);
        assert!(capped.iter().all(|t| t.name == "t-0"));
        assert!(pool.training_mix(0).is_empty());
    }

    #[test]
    fn save_load_roundtrip_is_byte_identical() {
        let path = tmp("roundtrip.pool");
        std::fs::remove_file(&path).ok();
        let mut pool = TracePool::new();
        pool.insert(trace(0, 1.37), 0.123456789, 1);
        pool.insert(trace(1, 2.81), -0.5, 2);
        pool.evict(3, 0.0, 1);
        pool.try_save(&path).unwrap();
        let bytes1 = std::fs::read(&path).unwrap();
        let back = TracePool::try_load(&path).unwrap().expect("file exists");
        assert_eq!(back, pool);
        back.try_save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes1, "load∘save is the identity on bytes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_loads_as_fresh_pool() {
        let path = tmp("never-written.pool");
        assert!(TracePool::try_load(&path).unwrap().is_none());
        assert!(TracePool::load_or_quarantine(&path).unwrap().is_empty());
    }

    #[test]
    fn corrupt_pool_is_quarantined_and_rebuilt() {
        let path = tmp("corrupt.pool");
        std::fs::remove_file(&path).ok();
        let qpath = tmp("corrupt.pool.quarantined");
        std::fs::remove_file(&qpath).ok();
        let mut pool = TracePool::new();
        pool.insert(trace(0, 1.0), 0.4, 1);
        pool.try_save(&path).unwrap();
        fault::corrupt_file(&path).unwrap();
        assert!(matches!(TracePool::try_load(&path), Err(TrainError::Corrupt(_))));
        let rebuilt = TracePool::load_or_quarantine(&path).unwrap();
        assert!(rebuilt.is_empty());
        assert!(qpath.exists(), "rotten file moved aside for post-mortem");
        assert!(!path.exists());
        std::fs::remove_file(&qpath).ok();
    }
}
