//! The one durable-state path, `rl::ckpt::{save, load,
//! load_or_quarantine}`, run once per kind of file that goes through it:
//! `ckpt` (training checkpoints), `cache` (bench pipeline units), `pool`
//! (the arena trace pool), `state` (the arena state) and `spool` (serve
//! shard spools).
//!
//! Each kind has a pinned fixture under `tests/fixtures/`, written by the
//! code before this path existed — by each consumer's own writer, except
//! the arena state, whose writer is private: its fixture is that body
//! shape sealed by the old `write_checkpoint_file` — so the suite also
//! proves that files already on disk keep loading. For every kind:
//!
//! * each of the 8 bits flipped at every byte offset, and truncation at
//!   every length, load as `Corrupt` — never as a value;
//! * wrong magic and a `v2` header are `Corrupt`;
//! * a missing file is `None`, not `Corrupt`;
//! * `panic@<kind>.write` leaves the previous file byte-identical;
//! * `corrupt@<kind>.write` and `corrupt@<kind>.read` end with the
//!   original moved to `<file>.quarantined` and counted;
//! * a value refused by `accept` is quarantined the same way.

use rl::ckpt::{self, Loaded};
use rl::TrainError;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The fault registry and telemetry are process-global, and fault hit
/// counts are per point name: every test runs under this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn fixture(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}

fn scratch(kind: &str, test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("advnet-durable-state-{}", std::process::id()))
        .join(format!("{kind}-{test}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn aside(path: &Path) -> PathBuf {
    let mut q = path.as_os_str().to_owned();
    q.push(".quarantined");
    PathBuf::from(q)
}

fn with_plan<R>(plan: &str, f: impl FnOnce() -> R) -> R {
    fault::install(fault::FaultPlan::parse(plan).expect("valid plan"));
    let out = catch_unwind(AssertUnwindSafe(f));
    fault::clear();
    out.unwrap_or_else(|p| std::panic::resume_unwind(p))
}

fn expect_corrupt(kind: &str, path: &Path, what: &str) {
    match ckpt::load::<Value>(kind, path) {
        Err(TrainError::Corrupt(_)) => {}
        Err(e) => panic!("{kind}: {what}: expected Corrupt, got {e}"),
        Ok(v) => panic!("{kind}: {what}: expected Corrupt, got a value: {v:?}"),
    }
}

fn every_bit_flip_is_corrupt(kind: &str, file: &str) {
    let bytes = fixture(file);
    let path = scratch(kind, "flip").join(file);
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[i] ^= 1 << bit;
            std::fs::write(&path, &damaged).unwrap();
            expect_corrupt(kind, &path, &format!("bit {bit} flipped at byte {i}"));
        }
    }
}

fn every_truncation_is_corrupt(kind: &str, file: &str) {
    let bytes = fixture(file);
    let path = scratch(kind, "truncate").join(file);
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        expect_corrupt(kind, &path, &format!("truncated to {len} bytes"));
    }
}

fn wrong_magic_and_version_are_corrupt(kind: &str, file: &str) {
    let text = String::from_utf8(fixture(file)).unwrap();
    let path = scratch(kind, "header").join(file);
    assert!(text.starts_with("ADVNET-CKPT v1 "), "{kind}: fixture is a v1 envelope");
    for (what, damaged) in [
        ("wrong magic", text.replacen("ADVNET-CKPT", "ADVNET-CKPX", 1)),
        ("v2 header", text.replacen("ADVNET-CKPT v1 ", "ADVNET-CKPT v2 ", 1)),
    ] {
        std::fs::write(&path, damaged).unwrap();
        expect_corrupt(kind, &path, what);
    }
}

fn missing_file_is_none(kind: &str, file: &str) {
    let path = scratch(kind, "missing").join(file);
    assert!(matches!(ckpt::load::<Value>(kind, &path), Ok(None)), "{kind}: missing is None");
    assert!(matches!(
        ckpt::load_or_quarantine(kind, &path, Ok::<Value, String>),
        Ok(Loaded::Missing)
    ));
    assert!(!aside(&path).exists(), "{kind}: nothing to quarantine");
}

fn fixture_loads_and_roundtrips(kind: &str, file: &str) {
    let path = scratch(kind, "fixture").join(file);
    std::fs::write(&path, fixture(file)).unwrap();
    let value = ckpt::load::<Value>(kind, &path).unwrap().expect("fixture present");
    let again = path.with_extension("again");
    ckpt::save(kind, &again, &value).unwrap();
    let back = ckpt::load::<Value>(kind, &again).unwrap().expect("just saved");
    assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&value).unwrap());
}

fn panic_at_write_keeps_the_previous_file(kind: &str, file: &str) {
    let bytes = fixture(file);
    let path = scratch(kind, "panic-write").join(file);
    std::fs::write(&path, &bytes).unwrap();
    let crashed = with_plan(&format!("panic@{kind}.write:1"), || {
        catch_unwind(AssertUnwindSafe(|| ckpt::save(kind, &path, &Value::Null)))
    });
    assert!(crashed.is_err(), "{kind}: the injected panic must fire");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "{kind}: previous file untouched");
}

fn load_or_quarantine_moves_aside(kind: &str, path: &Path, original: &[u8], counter: u64) {
    let found = ckpt::load_or_quarantine(kind, path, Ok::<Value, String>).unwrap();
    assert!(
        matches!(found, Loaded::Quarantined(_)),
        "{kind}: expected a quarantine, got {found:?}"
    );
    assert!(!path.exists(), "{kind}: the rotten file left its place");
    assert_eq!(std::fs::read(aside(path)).unwrap(), original, "{kind}: evidence kept aside");
    assert_eq!(telemetry::counter_get(&format!("rl.ckpt.quarantine.{kind}")), counter);
}

fn corrupt_at_write_is_quarantined(kind: &str, file: &str) {
    let path = scratch(kind, "corrupt-write").join(file);
    std::fs::write(&path, fixture(file)).unwrap();
    let value = ckpt::load::<Value>(kind, &path).unwrap().expect("fixture present");
    with_plan(&format!("corrupt@{kind}.write:1"), || ckpt::save(kind, &path, &value)).unwrap();
    let rotten = std::fs::read(&path).unwrap();
    expect_corrupt(kind, &path, "corrupted on write");
    telemetry::set_enabled(true);
    telemetry::reset();
    load_or_quarantine_moves_aside(kind, &path, &rotten, 1);
    telemetry::set_enabled(false);
}

fn corrupt_at_read_is_quarantined(kind: &str, file: &str) {
    let bytes = fixture(file);
    let path = scratch(kind, "corrupt-read").join(file);
    std::fs::write(&path, &bytes).unwrap();
    with_plan(&format!("corrupt@{kind}.read:1"), || expect_corrupt(kind, &path, "read fault"));
    telemetry::set_enabled(true);
    telemetry::reset();
    with_plan(&format!("corrupt@{kind}.read:1"), || {
        load_or_quarantine_moves_aside(kind, &path, &bytes, 1)
    });
    telemetry::set_enabled(false);
}

fn stall_at_read_delays_but_loads(kind: &str, file: &str) {
    let path = scratch(kind, "stall-read").join(file);
    std::fs::write(&path, fixture(file)).unwrap();
    let t0 = Instant::now();
    let v =
        with_plan(&format!("stall@{kind}.read:1,stall_ms=50"), || ckpt::load::<Value>(kind, &path));
    assert!(matches!(v, Ok(Some(_))), "{kind}: a stall is not a fault of the file");
    assert!(t0.elapsed() >= Duration::from_millis(50));
}

fn refused_value_is_quarantined(kind: &str, file: &str) {
    let bytes = fixture(file);
    let path = scratch(kind, "refused").join(file);
    std::fs::write(&path, &bytes).unwrap();
    let found = ckpt::load_or_quarantine(kind, &path, |_: Value| {
        Err::<Value, _>("stored under another key".to_string())
    })
    .unwrap();
    match found {
        Loaded::Quarantined(why) => assert_eq!(why, "stored under another key"),
        other => panic!("{kind}: expected a quarantine, got {other:?}"),
    }
    assert!(!path.exists());
    assert_eq!(std::fs::read(aside(&path)).unwrap(), bytes);
}

/// One module of tests per kind, so each kind's run reads as its own
/// block in the test output.
macro_rules! durable_kind {
    ($module:ident, $kind:literal, $file:literal) => {
        mod $module {
            use super::*;

            fn run(check: fn(&str, &str)) {
                let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
                fault::clear();
                check($kind, $file);
            }

            #[test]
            fn every_bit_flip_is_corrupt() {
                run(super::every_bit_flip_is_corrupt);
            }
            #[test]
            fn every_truncation_is_corrupt() {
                run(super::every_truncation_is_corrupt);
            }
            #[test]
            fn wrong_magic_and_version_are_corrupt() {
                run(super::wrong_magic_and_version_are_corrupt);
            }
            #[test]
            fn missing_file_is_none() {
                run(super::missing_file_is_none);
            }
            #[test]
            fn fixture_loads_and_roundtrips() {
                run(super::fixture_loads_and_roundtrips);
            }
            #[test]
            fn panic_at_write_keeps_the_previous_file() {
                run(super::panic_at_write_keeps_the_previous_file);
            }
            #[test]
            fn corrupt_at_write_is_quarantined() {
                run(super::corrupt_at_write_is_quarantined);
            }
            #[test]
            fn corrupt_at_read_is_quarantined() {
                run(super::corrupt_at_read_is_quarantined);
            }
            #[test]
            fn stall_at_read_delays_but_loads() {
                run(super::stall_at_read_delays_but_loads);
            }
            #[test]
            fn refused_value_is_quarantined() {
                run(super::refused_value_is_quarantined);
            }
        }
    };
}

durable_kind!(ckpt_kind, "ckpt", "ckpt.ckpt");
durable_kind!(cache_kind, "cache", "cache.unit");
durable_kind!(pool_kind, "pool", "pool.ckpt");
durable_kind!(state_kind, "state", "arena.state");
durable_kind!(spool_kind, "spool", "spool.ckpt");

/// The consumers read their fixtures as their own types, not just as
/// JSON: a checkpoint written before this path resumes a trainer.
#[test]
fn ckpt_fixture_resumes_a_trainer() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let path = scratch("ckpt", "typed").join("ckpt.ckpt");
    std::fs::write(&path, fixture("ckpt.ckpt")).unwrap();
    let ckpt = rl::load_train_checkpoint(&path).expect("typed load");
    let ppo = rl::Ppo::resume_from(&path).expect("resume");
    assert_eq!(ppo.total_steps(), ckpt.state.total_steps);
}

/// Training checkpoints are never quarantined: rot is an error the
/// caller sees, and the file stays where it is.
#[test]
fn corrupt_training_checkpoint_is_an_error_not_a_quarantine() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let path = scratch("ckpt", "no-quarantine").join("ckpt.ckpt");
    let mut bytes = fixture("ckpt.ckpt");
    let last = bytes.len() - 2;
    bytes[last] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(rl::load_train_checkpoint(&path), Err(TrainError::Corrupt(_))));
    assert!(matches!(rl::Ppo::resume_from(&path), Err(TrainError::Corrupt(_))));
    with_plan("corrupt@ckpt.read:1", || {
        let mut clean = bytes.clone();
        clean[last] ^= 1;
        std::fs::write(&path, &clean).unwrap();
        assert!(matches!(rl::load_train_checkpoint(&path), Err(TrainError::Corrupt(_))));
    });
    assert!(path.exists() && !aside(&path).exists(), "a checkpoint is never moved aside");
}
