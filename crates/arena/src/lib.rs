//! Generational self-play robustification.
//!
//! The paper robustifies a protocol *once*: train it, train one adversary
//! against it, inject that adversary's traces, resume training (§2.3).
//! This crate closes the loop and keeps it running — the roadmap's
//! "adversarial training at scale, continuously": an **arena** where a
//! fresh adversary is trained against every new protocol checkpoint and
//! the protocol keeps training against everything any adversary has ever
//! found that still hurts it.
//!
//! * [`pool`] — the persistent adversarial trace pool: content-hash
//!   deduplicated, scored by measured damage against the *current*
//!   protocol, evicted once the protocol has stopped losing, persisted in
//!   the workspace's checksummed atomic checkpoint envelope.
//! * [`engine`] — the generational loop itself: adversary leg → harvest
//!   and damage scoring → pool pass → protocol leg → held-out fleet
//!   evaluation ([`serve::run_fleet`]), one trajectory row per
//!   generation, kill+resumable at any point with a bit-identical result.
//!
//! Run it from the bench crate: `cargo run --release -p adv-bench --bin
//! arena_run` (knobs via `ARENA_*` environment variables). Fault points
//! `pool.write` / `pool.read` make the pool's crash and corruption paths
//! testable with `ADVNET_FAULT_PLAN`; telemetry emits `arena.generation`
//! spans and `arena.pool.*` counters. See DESIGN.md §14.

#![warn(missing_docs)]

pub mod engine;
pub mod pool;

pub use engine::{
    run_arena, trajectory_csv, ArenaConfig, ArenaError, ArenaOutcome, GenerationRow,
    TRAJECTORY_HEADER,
};
pub use pool::{PoolEntry, TracePool};
