//! The observable contract of the `exec` engine that callers and the perf
//! tooling read, checked through its public API:
//!
//! * telemetry names and meanings — `exec.items` counts the items handed
//!   to `par_map`; every slot fan-out is one `exec.slots` span and one
//!   `exec.slot.busy_s` / `exec.slot.idle_s` observation per slot;
//!   `exec.retry.item` / `exec.retry.slot` count rollbacks and
//!   `exec.watchdog.cancel` counts slots the watchdog cancelled — and with
//!   telemetry off nothing is recorded at all;
//! * a fan-out with one slot, one item or one worker runs on the caller's
//!   thread;
//! * a real nested fan-out (adversarial trace generation started from
//!   inside a `par_map` worker) returns exactly what the same call returns
//!   at top level.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use abr::{BufferBased, Video};
use adversary::{AbrAdversaryConfig, AbrAdversaryEnv};
use exec::{ExecErrorKind, Heartbeat, WatchdogConfig};
use fault::Backoff;

/// Telemetry state is process-global, and any fan-out records into it
/// while another test is recording, so every test here holds this lock.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with telemetry recording into an empty registry; return its
/// result and what it recorded.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, telemetry::Snapshot) {
    telemetry::set_enabled(true);
    telemetry::reset();
    let out = f();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    (out, snap)
}

fn counter(snap: &telemetry::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn here() -> ThreadId {
    std::thread::current().id()
}

#[test]
fn par_map_counts_its_items_under_exec_items() {
    let _serial = serial();
    for workers in [1, 3] {
        let (out, snap) = recorded(|| {
            let a = exec::par_map((0..37u64).collect(), workers, |i, x| x + i as u64);
            let b = exec::par_map(Vec::<u64>::new(), workers, |_, x| x);
            let c = exec::par_map(vec![5u64], workers, |_, x| x);
            (a, b, c)
        });
        assert_eq!(out.0, (0..37u64).map(|x| 2 * x).collect::<Vec<_>>());
        assert!(out.1.is_empty());
        assert_eq!(out.2, [5]);
        assert_eq!(counter(&snap, "exec.items"), 38, "{workers} workers");
        assert!(!snap.spans.contains_key("exec.slots"), "par_map is not a slot fan-out");
    }
}

#[test]
fn slot_fan_outs_record_one_span_and_one_observation_per_slot() {
    let _serial = serial();
    let ((three, one), snap) = recorded(|| {
        let mut slots = vec![1u64, 2, 3];
        let three = exec::run_on_slots_watchdog(&mut slots, &Backoff::none(0), None, |w, s, hb| {
            hb.beat();
            *s += w as u64;
            *s
        })
        .unwrap();
        let mut single = vec![7u64];
        let one = exec::run_on_slots_watchdog(&mut single, &Backoff::none(1), None, |_, s, _| *s)
            .unwrap();
        (three, one)
    });
    assert_eq!(three.results, [1, 3, 5]);
    assert_eq!(one.results, [7]);
    assert_eq!(snap.spans["exec.slots"].count, 2);
    let busy = &snap.hists["exec.slot.busy_s"];
    let idle = &snap.hists["exec.slot.idle_s"];
    assert_eq!((busy.count, idle.count), (4, 4));
    // busy time is each slot's wall time; the slowest slot of each fan-out
    // idles for exactly zero
    let walls: f64 = three.stats.iter().chain(&one.stats).map(|s| s.wall_s).sum();
    assert!((busy.sum - walls).abs() <= 1e-12 * walls.max(1e-9), "{} vs {walls}", busy.sum);
    assert_eq!(idle.min, 0.0);
    assert!(idle.zero_or_neg >= 2, "one zero per fan-out, got {}", idle.zero_or_neg);
    assert_eq!(counter(&snap, "exec.retry.slot"), 0);
}

#[test]
fn nothing_is_recorded_with_telemetry_off() {
    let _serial = serial();
    telemetry::set_enabled(false);
    telemetry::reset();
    let tripped = AtomicBool::new(false);
    exec::par_map((0..10u32).collect(), 2, |_, x| x);
    exec::try_par_map((0..10u32).collect(), 2, &Backoff::none(1), |_, x| {
        assert!(x != 4 || tripped.swap(true, Ordering::SeqCst), "transient");
        x
    })
    .unwrap();
    let mut slots = vec![0u8; 2];
    exec::run_on_slots_watchdog(&mut slots, &Backoff::none(0), None, |w, _, _| w).unwrap();
    let snap = telemetry::snapshot();
    assert!(snap.counters.is_empty(), "{:?}", snap.counters);
    assert!(snap.hists.is_empty() && snap.spans.is_empty());
}

#[test]
fn item_retries_count_under_exec_retry_item() {
    let _serial = serial();
    // items 1, 5 and 9 each fail their first attempt only
    let fired: Vec<AtomicBool> = (0..12).map(|_| AtomicBool::new(false)).collect();
    let (out, snap) = recorded(|| {
        exec::try_par_map((0..12usize).collect(), 3, &Backoff::none(2), |_, x| {
            assert!(x % 4 != 1 || fired[x].swap(true, Ordering::SeqCst), "transient on {x}");
            x * 3
        })
    });
    assert_eq!(out.unwrap(), (0..12).map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(counter(&snap, "exec.retry.item"), 3);

    // an item that always fails is retried up to the budget, then reported
    let (out, snap) = recorded(|| {
        exec::try_par_map((0..8usize).collect(), 2, &Backoff::none(2), |_, x| {
            assert!(x != 3, "always fails");
            x
        })
    });
    let err = out.unwrap_err();
    assert_eq!((err.kind, err.index, err.attempts), (ExecErrorKind::ItemPanicked, 3, 3));
    assert_eq!(counter(&snap, "exec.retry.item"), 2);
}

#[test]
fn slot_retries_count_under_exec_retry_slot_and_in_attempts() {
    let _serial = serial();
    let run_with = |retries: usize| {
        let tripped = AtomicBool::new(false);
        recorded(|| {
            let mut slots: Vec<u32> = (0..4).collect();
            let run = exec::run_on_slots_watchdog(
                &mut slots,
                &Backoff::none(retries),
                None,
                |w, s, _| {
                    *s += 10;
                    assert!(w != 2 || tripped.swap(true, Ordering::SeqCst), "transient");
                    *s
                },
            );
            (run, slots)
        })
    };

    let ((run, slots), snap) = run_with(1);
    let run = run.unwrap();
    assert_eq!(run.results, [10, 11, 12, 13], "the retried slot was rolled back first");
    assert_eq!(slots, [10, 11, 12, 13]);
    let attempts: Vec<usize> = run.stats.iter().map(|s| s.attempts).collect();
    assert_eq!(attempts, [1, 1, 2, 1]);
    assert_eq!(counter(&snap, "exec.retry.slot"), 1);

    // with no retry budget the panic becomes an error and nothing is retried
    let ((run, _), snap) = run_with(0);
    let err = run.unwrap_err();
    assert_eq!((err.kind, err.index, err.attempts), (ExecErrorKind::WorkerPanicked, 2, 1));
    assert_eq!(counter(&snap, "exec.retry.slot"), 0);
}

#[test]
fn watchdog_cancellations_are_counted() {
    let _serial = serial();
    let job_plain = |w: usize, slot: &mut Vec<u32>, hb: &Heartbeat| {
        for step in 0..5u32 {
            hb.beat();
            slot.push(w as u32 * 100 + step);
        }
        slot.iter().sum::<u32>()
    };
    let mut ref_slots: Vec<Vec<u32>> = (0..3).map(|w| vec![w]).collect();
    let reference =
        exec::run_on_slots_watchdog(&mut ref_slots, &Backoff::none(1), None, job_plain).unwrap();

    // slot 1 stalls without beating on its first attempt
    let stalls = AtomicUsize::new(0);
    let cfg = WatchdogConfig::with_timeout_ms(50);
    let ((run, slots), snap) = recorded(|| {
        let mut slots: Vec<Vec<u32>> = (0..3).map(|w| vec![w]).collect();
        let run =
            exec::run_on_slots_watchdog(&mut slots, &Backoff::none(2), Some(&cfg), |w, s, hb| {
                if w == 1 && stalls.fetch_add(1, Ordering::SeqCst) == 0 {
                    hb.stall_for(Duration::from_secs(10));
                }
                job_plain(w, s, hb)
            })
            .unwrap();
        (run, slots)
    });
    assert_eq!(run.results, reference.results);
    assert_eq!(slots, ref_slots);
    assert!(run.stats[1].attempts >= 2, "the stalled slot was re-run");
    let cancels = counter(&snap, "exec.watchdog.cancel");
    let retries: usize = run.stats.iter().map(|s| s.attempts - 1).sum();
    assert!(cancels >= 1);
    assert_eq!(counter(&snap, "exec.retry.slot"), retries as u64);
    assert!(cancels >= retries as u64, "every re-run here follows a cancellation");
}

#[test]
fn single_slot_item_or_worker_fan_outs_run_on_the_callers_thread() {
    let _serial = serial();
    let me = here();
    for retries in [0, 1] {
        let mut one = vec![0u8];
        let run =
            exec::run_on_slots_watchdog(&mut one, &Backoff::none(retries), None, |_, _, _| here())
                .unwrap();
        assert_eq!(run.results, [me], "retries {retries}");
    }
    assert!(exec::par_map(vec![(); 6], 1, |_, _| here()).iter().all(|id| *id == me));
    assert_eq!(exec::par_map(vec![()], 4, |_, _| here()), [me]);
    let ids = exec::try_par_map(vec![(); 6], 1, &Backoff::none(1), |_, _| here()).unwrap();
    assert!(ids.iter().all(|id| *id == me));

    // several slots each get a worker thread of their own
    let mut three = vec![0u8; 3];
    let run =
        exec::run_on_slots_watchdog(&mut three, &Backoff::none(0), None, |_, _, _| here()).unwrap();
    assert!(run.results.iter().all(|id| *id != me));
    assert!(run.results[0] != run.results[1] && run.results[1] != run.results[2]);
}

#[test]
fn nested_trace_generation_matches_top_level() {
    let _serial = serial();
    let env = AbrAdversaryEnv::new(
        BufferBased::pensieve_defaults(),
        Video::cbr(),
        AbrAdversaryConfig::default(),
    );
    let cfg = rl::PpoConfig { seed: 11, ..rl::PpoConfig::default() };
    let ppo = rl::Ppo::new_gaussian(adversary::abr_env::OBS_DIM, 1, &[8, 4], 0.8, cfg);
    let (policy, obs_norm) = (&ppo.policy, ppo.obs_norm.as_ref());
    let generate = |seed: u64| {
        adversary::try_generate_abr_traces_with(&mut env.clone(), policy, obs_norm, 3, false, seed)
            .unwrap()
    };
    let bits = |sets: &[Vec<Vec<f64>>]| -> Vec<u64> {
        sets.iter().flatten().flatten().map(|x| x.to_bits()).collect()
    };

    let top: Vec<_> = (0..4).map(generate).collect();
    let nested = exec::par_map((0..4u64).collect(), 2, |_, seed| generate(seed));
    assert_eq!(bits(&nested), bits(&top));
    assert_eq!(top.iter().map(Vec::len).sum::<usize>(), 12);
    assert!(top.iter().flatten().all(|trace| !trace.is_empty()));
}
