//! Deterministic parallel execution engine.
//!
//! Everything in this crate obeys one contract: **the result of a parallel
//! run is a pure function of its inputs — never of thread scheduling.**
//! That is what lets `rl::Ppo::train_vec` collect rollouts on N threads and
//! still train bit-for-bit reproducibly, and lets the bench binaries replay
//! trace sets in parallel while writing byte-identical CSVs.
//!
//! Every fan-out runs on scoped threads (`std::thread::scope`) spawned for
//! that call and joined before it returns. Callers fan out coarsely — once
//! per training iteration, fleet run, figure unit or trace batch — so
//! the spawn-and-join cost is noise next to the work (`docs/PERF.md` §4).
//! A fan-out started from inside an exec worker runs inline on that
//! worker, so nested fan-outs never oversubscribe the cores.
//!
//! The entry points:
//!
//! * [`par_map`] — an order-preserving parallel map over an item list.
//!   Workers claim *chunks* of items in ascending order (so an expensive
//!   tail doesn't stall a fixed shard, without paying a synchronized claim
//!   per item), and the outputs are reassembled in input order.
//! * [`try_par_map`] — [`par_map`] with per-item panic isolation and
//!   retry, reporting an exhausted item as an [`ExecError`].
//! * [`run_on_slots_watchdog`] — one worker per slot for stateful jobs
//!   (e.g. one cloned environment per worker), with rollback-and-retry and
//!   optional heartbeat supervision. Results come back in slot order `0..n`,
//!   with per-slot wall-clock and attempts in [`WorkerStats`].
//!
//! Randomness is decorrelated across workers with [`split_seed`], a
//! SplitMix64-style mixer: worker `w` seeds its own `StdRng` from
//! `split_seed(seed, w)`, so streams are independent of each other and of
//! how many workers run elsewhere.
//!
//! Fault isolation is built on the workspace-wide [`fault::Backoff`]
//! policy, and [`run_on_slots_watchdog`] adds per-slot heartbeats with a
//! monitor thread that cancels a stalled slot and re-runs it under the
//! same deterministic rollback-and-retry path a panicked slot takes.
//! Fault points `exec.worker.<w>` (per slot attempt) and `exec.item`
//! (per item attempt) let `ADVNET_FAULT_PLAN` inject panics and stalls
//! right where the retry machinery must absorb them.
//!
//! Pure `std` — no runtime dependencies and no `unsafe`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Which entry point a failed job was running under (see [`ExecError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecErrorKind {
    /// A stateful worker slot ([`run_on_slots_watchdog`]) panicked.
    WorkerPanicked,
    /// An item-level job ([`try_par_map`]) panicked.
    ItemPanicked,
}

/// Structured failure report from a fault-isolated parallel run.
///
/// Instead of poisoning the whole fan-out via `resume_unwind`, the
/// fault-isolated entry points ([`try_par_map`], [`run_on_slots_watchdog`])
/// catch each worker panic, retry on a fresh clone up to the caller's
/// budget, and surface the first (lowest-index) exhausted failure as one of
/// these. The merge of the surviving results stays deterministic — results
/// are ordered by input index / slot, never by scheduling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecError {
    /// Which entry point the failed job was running under.
    pub kind: ExecErrorKind,
    /// Worker slot index or item index, depending on `kind`.
    pub index: usize,
    /// Attempts made (1 initial + retries) before giving up.
    pub attempts: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            ExecErrorKind::WorkerPanicked => "worker slot",
            ExecErrorKind::ItemPanicked => "item",
        };
        write!(
            f,
            "{what} {} panicked after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for ExecError {}

/// Best-effort extraction of a panic payload into readable text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// `true` on threads an exec fan-out spawned; fan-outs started there
    /// run inline instead of spawning a second layer of workers.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Spawn one exec worker on `scope`, marked so nested fan-outs run inline.
fn spawn_worker<'scope, R: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    work: impl FnOnce() -> R + Send + 'scope,
) -> ScopedJoinHandle<'scope, R> {
    scope.spawn(move || {
        IN_WORKER.set(true);
        work()
    })
}

/// Join a worker, re-raising on the caller's thread a panic that escaped it.
fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Per-slot execution record from one [`run_on_slots_watchdog`] call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker slot index in `0..n_workers`.
    pub worker: usize,
    /// Wall-clock seconds this worker's job took.
    pub wall_s: f64,
    /// Attempts the job took on this slot: `1 + rollbacks` — a fleet
    /// supervisor reads this to account shard retries without threading
    /// its own counters.
    pub attempts: usize,
}

/// Result bundle of [`run_on_slots_watchdog`]: per-slot results in slot
/// order.
#[derive(Debug, Clone)]
pub struct WorkerRun<R> {
    /// One result per worker, indexed by slot.
    pub results: Vec<R>,
    /// Per-worker wall-clock stats, same order as `results`.
    pub stats: Vec<WorkerStats>,
}

/// Derive an independent RNG seed for stream `stream` from a base seed.
///
/// SplitMix64 finalizer over `seed + golden_ratio * (stream + 1)`: nearby
/// seeds and nearby stream ids both map to uncorrelated outputs, unlike the
/// `seed ^ stream` folk scheme where streams of seed `s` and seed `s ^ 1`
/// collide pairwise.
///
/// ```
/// // streams are decorrelated and asymmetric in (seed, stream)
/// assert_ne!(exec::split_seed(2, 3), exec::split_seed(3, 2));
/// ```
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker count to use when the caller does not specify one: the
/// `EXEC_WORKERS` environment variable if set, else the machine's available
/// parallelism.
pub fn default_workers() -> usize {
    if let Ok(s) = std::env::var("EXEC_WORKERS") {
        if let Ok(n) = s.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `job(i, item)` over `items` on up to `n_workers` scoped threads and
/// return the outputs in input order, or the error of the lowest failing
/// index.
///
/// Workers claim chunks (about four per worker) in ascending order and stop
/// at their first error. Every chunk below a failing one has therefore been
/// claimed, so the lowest failing item is always reached and the reported
/// error does not depend on scheduling. Runs inline with one worker or
/// item, and on an exec worker thread.
fn fan_out<T, U, E, F>(items: Vec<T>, n_workers: usize, job: F) -> Result<Vec<U>, E>
where
    T: Send,
    U: Send,
    E: Send,
    F: Fn(usize, T) -> Result<U, E> + Sync,
{
    let n_items = items.len();
    let workers = if IN_WORKER.get() { 1 } else { n_workers.min(n_items) };
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| job(i, item)).collect();
    }
    let chunk = n_items.div_ceil(workers * 4);
    let mut items = items.into_iter();
    let chunks: Vec<Vec<T>> =
        (0..n_items.div_ceil(chunk)).map(|_| items.by_ref().take(chunk).collect()).collect();
    let queue = Mutex::new(chunks.into_iter().enumerate());
    let claim = || queue.lock().expect("exec chunk queue poisoned").next();
    let work = || {
        let mut done = Vec::new();
        while let Some((c, chunk_items)) = claim() {
            let mut out = Vec::with_capacity(chunk_items.len());
            for (j, item) in chunk_items.into_iter().enumerate() {
                let i = c * chunk + j;
                match job(i, item) {
                    Ok(u) => out.push(u),
                    Err(e) => return (done, Some((i, e))),
                }
            }
            done.push((c, out));
        }
        (done, None)
    };
    let mut done = Vec::new();
    let mut first_err: Option<(usize, E)> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| spawn_worker(scope, work)).collect();
        for handle in handles {
            let (chunks_done, err) = join(handle);
            done.extend(chunks_done);
            if let Some((i, e)) = err {
                if first_err.as_ref().is_none_or(|(lowest, _)| i < *lowest) {
                    first_err = Some((i, e));
                }
            }
        }
    });
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    done.sort_unstable_by_key(|(c, _)| *c);
    Ok(done.into_iter().flat_map(|(_, out)| out).collect())
}

/// Parallel map preserving input order.
///
/// Applies `f` to every item on up to `n_workers` threads and returns the
/// outputs in input order. `f` receives `(input_index, item)`; use the
/// index with [`split_seed`] when per-item randomness is needed. With
/// `n_workers <= 1`, one item, or when called from an exec worker,
/// everything runs inline on the caller's thread — the serial path and the
/// parallel path produce identical output.
///
/// Work is distributed in chunks of several items claimed in ascending
/// order: cheaper than a per-item claim, while still letting an idle
/// worker take the tail of a straggler's range. Outputs are reassembled by
/// input index, so the merge cannot depend on scheduling.
///
/// A panic in `f` propagates to the caller after all workers stop; when
/// several items panic, the lowest index's payload is re-thrown.
pub fn par_map<T, U, F>(items: Vec<T>, n_workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    telemetry::counter_add("exec.items", items.len() as u64);
    fan_out(items, n_workers, |i, item| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)))
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Fault-isolated [`par_map`]: every job runs under `catch_unwind`, a
/// panicked item is retried on a fresh clone of its input up to
/// `backoff.retries` extra times (pausing `backoff.delay(attempt)` between
/// attempts), and an exhausted item surfaces as a structured [`ExecError`]
/// instead of unwinding through the caller.
///
/// Output order and values are identical to [`par_map`] when nothing
/// panics; the lowest-index exhausted failure wins when several items fail
/// (deterministic regardless of scheduling). Note a *deterministic* panic
/// will re-fire on every retry — the retry budget buys recovery from
/// transient faults, not from buggy jobs.
///
/// Each attempt registers the `exec.item` fault point, so a plan such as
/// `ADVNET_FAULT_PLAN=panic@exec.item:3` crashes the third item attempt of
/// the process and must be absorbed by this very retry path.
pub fn try_par_map<T, U, F>(
    items: Vec<T>,
    n_workers: usize,
    backoff: &fault::Backoff,
    f: F,
) -> Result<Vec<U>, ExecError>
where
    T: Clone + Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    fan_out(items, n_workers, |i, item| {
        let backup = if backoff.retries > 0 { Some(item.clone()) } else { None };
        let mut cur = item;
        let mut attempts = 0;
        loop {
            attempts += 1;
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fault::active() {
                    // Only panic injections are meaningful for stateless
                    // items; a panic inside check() lands in this
                    // catch_unwind and exercises the retry path.
                    let _ = fault::check("exec.item");
                }
                f(i, cur)
            })) {
                Ok(u) => return Ok(u),
                Err(payload) => {
                    if attempts > backoff.retries {
                        return Err(ExecError {
                            kind: ExecErrorKind::ItemPanicked,
                            index: i,
                            attempts,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                    telemetry::counter_add("exec.retry.item", 1);
                    cur = backup.as_ref().expect("backup exists when retries > 0").clone();
                    backoff.pause(attempts);
                }
            }
        }
    })
}

/// Per-slot utilization telemetry for one fan-out: every slot's wall time
/// goes into the `exec.slot.busy_s` histogram and its idle tail relative
/// to the slowest slot into `exec.slot.idle_s` (straggler imbalance).
/// Observational only; no-op when telemetry is disabled.
fn record_slot_stats(stats: &[WorkerStats]) {
    if !telemetry::enabled() || stats.is_empty() {
        return;
    }
    let max = stats.iter().map(|s| s.wall_s).fold(0.0_f64, f64::max);
    for s in stats {
        telemetry::observe("exec.slot.busy_s", s.wall_s);
        telemetry::observe("exec.slot.idle_s", max - s.wall_s);
    }
}

/// Watchdog settings for [`run_on_slots_watchdog`]: a slot whose last
/// heartbeat is older than `timeout` is cancelled and re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A slot is considered stalled when its last heartbeat is older
    /// than this.
    pub timeout: Duration,
    /// How often the monitor thread scans the slots.
    pub poll: Duration,
}

impl WatchdogConfig {
    /// A timeout with a poll interval of one tenth of it (at least 1 ms).
    pub fn with_timeout_ms(ms: u64) -> WatchdogConfig {
        WatchdogConfig {
            timeout: Duration::from_millis(ms.max(1)),
            poll: Duration::from_millis((ms / 10).max(1)),
        }
    }

    /// Read `ADVNET_WATCHDOG_MS` (0 or unset = no watchdog).
    pub fn from_env() -> Option<WatchdogConfig> {
        let ms: u64 = std::env::var("ADVNET_WATCHDOG_MS").ok()?.trim().parse().ok()?;
        (ms > 0).then(|| WatchdogConfig::with_timeout_ms(ms))
    }
}

/// Per-slot liveness record shared between a worker and the monitor.
struct SlotMon {
    /// Milliseconds since the run's epoch at the last heartbeat.
    last_beat_ms: AtomicU64,
    /// Set by the monitor; observed (and cleared) at the slot's next
    /// heartbeat, which panics into the retry path.
    cancelled: AtomicBool,
    /// Set once the slot's job has finished (ok or exhausted).
    done: AtomicBool,
}

impl SlotMon {
    fn new() -> SlotMon {
        SlotMon {
            last_beat_ms: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }
}

/// Liveness handle passed to every [`run_on_slots_watchdog`] job.
///
/// Call [`beat`](Heartbeat::beat) at natural progress boundaries (e.g.
/// once per environment step). A beat is one atomic store; when the
/// monitor has flagged the slot as stalled, the beat panics instead —
/// landing in the slot's `catch_unwind`, which rolls the slot back and
/// re-runs it deterministically. A job that loops without ever beating
/// can be *flagged* but never *interrupted* (threads cannot be killed),
/// so heartbeat placement is part of the job's contract.
pub struct Heartbeat<'a> {
    mon: &'a SlotMon,
    epoch: Instant,
    worker: usize,
}

impl Heartbeat<'_> {
    /// Record progress; panics into the retry path if the watchdog
    /// cancelled this slot.
    pub fn beat(&self) {
        if self.mon.cancelled.swap(false, Ordering::SeqCst) {
            panic!("[watchdog] worker {} cancelled: heartbeat older than timeout", self.worker);
        }
        self.mon.last_beat_ms.store(self.epoch.elapsed().as_millis() as u64, Ordering::SeqCst);
    }

    /// Block for `d` *without* heartbeating, while still honouring
    /// cancellation — this is how `stall@exec.worker.<w>` faults simulate
    /// a wedged slot that the watchdog can actually recover.
    pub fn stall_for(&self, d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            if self.mon.cancelled.swap(false, Ordering::SeqCst) {
                panic!("[watchdog] worker {} cancelled: heartbeat older than timeout", self.worker);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Run `job(worker, &mut slots[worker], heartbeat)` once per slot, each on
/// its own thread, returning results in slot order plus per-slot stats.
///
/// Each worker gets exclusive `&mut` access to its own slot (a cloned
/// environment, an RNG, carried observations…), which persists across
/// calls. Used by `rl::Ppo::train_vec`, where slot `w` holds environment
/// clone `w` and its `split_seed`-derived RNG stream, and by the serving
/// fleet, where slot `w` is a session shard. With one slot, or when called
/// from an exec worker, the slots run inline on the caller's thread.
///
/// Each slot's job runs under `catch_unwind`; a panicked slot is rolled
/// back to a clone taken before the attempt and retried up to
/// `backoff.retries` extra times (pausing `backoff.delay(attempt)`
/// between attempts). The deterministic slot-order merge is unchanged,
/// and a slot that exhausts its budget surfaces as a structured
/// [`ExecError`] (lowest slot index wins when several fail) instead of
/// poisoning the whole fan-out.
///
/// When `watchdog` is `Some`, a monitor thread scans every slot's
/// [`Heartbeat`] each `poll` and cancels any slot whose last beat is
/// older than `timeout`; the cancelled slot panics at its next beat (or
/// mid-[`stall_for`](Heartbeat::stall_for)) and re-runs under the same
/// rollback path — so a stalled slot completes with the same merged
/// result as a stall-free run, provided the job beats and is
/// deterministic. The monitor runs on a scoped thread of its own (one per
/// call, not per attempt), so supervision works even when the slot jobs
/// execute inline.
///
/// Every attempt registers the `exec.worker.<w>` fault point:
/// `panic@exec.worker.1:2` crashes slot 1's second attempt, and
/// `stall@exec.worker.2:1` makes slot 2 hang for the plan's `stall_ms`
/// without beating — the scenario the watchdog exists to recover.
///
/// With `backoff.retries == 0` no backup clones are taken — the call only
/// converts panics into errors. Retries recover *transient* faults only; a
/// deterministic panic recurs on the restored clone.
pub fn run_on_slots_watchdog<S, R, F>(
    slots: &mut [S],
    backoff: &fault::Backoff,
    watchdog: Option<&WatchdogConfig>,
    job: F,
) -> Result<WorkerRun<R>, ExecError>
where
    S: Clone + Send,
    R: Send,
    F: Fn(usize, &mut S, &Heartbeat) -> R + Sync,
{
    let _span = telemetry::span!("exec.slots");
    let epoch = Instant::now();
    let n = slots.len();
    let mons: Vec<SlotMon> = (0..n).map(|_| SlotMon::new()).collect();
    let run_one = |w: usize, slot: &mut S, mon: &SlotMon| -> Result<(R, f64, usize), ExecError> {
        let t0 = Instant::now();
        let backup = if backoff.retries > 0 { Some(slot.clone()) } else { None };
        let mut attempts = 0;
        loop {
            attempts += 1;
            // arm this attempt: fresh beat, no pending cancellation
            mon.cancelled.store(false, Ordering::SeqCst);
            mon.last_beat_ms.store(epoch.elapsed().as_millis() as u64, Ordering::SeqCst);
            let hb = Heartbeat { mon, epoch, worker: w };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fault::active() {
                    // Panic fires inside check(); Nan/Corrupt have no
                    // meaning for a worker slot and are ignored.
                    if let Some(fault::Injection::Stall(d)) =
                        fault::check(&format!("exec.worker.{w}"))
                    {
                        hb.stall_for(d)
                    }
                }
                job(w, &mut *slot, &hb)
            }));
            match outcome {
                Ok(r) => {
                    mon.done.store(true, Ordering::SeqCst);
                    return Ok((r, t0.elapsed().as_secs_f64(), attempts));
                }
                Err(payload) => {
                    if attempts > backoff.retries {
                        mon.done.store(true, Ordering::SeqCst);
                        return Err(ExecError {
                            kind: ExecErrorKind::WorkerPanicked,
                            index: w,
                            attempts,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                    // roll the slot back to its pre-attempt state
                    telemetry::counter_add("exec.retry.slot", 1);
                    *slot = backup.as_ref().expect("backup exists when retries > 0").clone();
                    backoff.pause(attempts);
                }
            }
        }
    };
    let run_one = &run_one;
    let inline = n <= 1 || IN_WORKER.get();
    let outcomes: Vec<Result<(R, f64, usize), ExecError>> = std::thread::scope(|scope| {
        if let Some(cfg) = watchdog {
            let mons = &mons;
            scope.spawn(move || {
                let timeout_ms = cfg.timeout.as_millis() as u64;
                loop {
                    if mons.iter().all(|m| m.done.load(Ordering::SeqCst)) {
                        break;
                    }
                    let now = epoch.elapsed().as_millis() as u64;
                    for m in mons {
                        if m.done.load(Ordering::SeqCst) || m.cancelled.load(Ordering::SeqCst) {
                            continue;
                        }
                        if now.saturating_sub(m.last_beat_ms.load(Ordering::SeqCst)) > timeout_ms {
                            telemetry::counter_add("exec.watchdog.cancel", 1);
                            m.cancelled.store(true, Ordering::SeqCst);
                        }
                    }
                    std::thread::sleep(cfg.poll);
                }
            });
        }
        let jobs = slots.iter_mut().zip(&mons).enumerate();
        if inline {
            jobs.map(|(w, (slot, mon))| run_one(w, slot, mon)).collect()
        } else {
            let handles: Vec<_> = jobs
                .map(|(w, (slot, mon))| spawn_worker(scope, move || run_one(w, slot, mon)))
                .collect();
            handles.into_iter().map(join).collect()
        }
    });
    let mut run = WorkerRun {
        results: Vec::with_capacity(outcomes.len()),
        stats: Vec::with_capacity(outcomes.len()),
    };
    for (w, outcome) in outcomes.into_iter().enumerate() {
        let (result, wall_s, attempts) = outcome?;
        run.results.push(result);
        run.stats.push(WorkerStats { worker: w, wall_s, attempts });
    }
    record_slot_stats(&run.stats);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(items, 8, |i, x| {
            // stagger so late indices often finish first
            std::thread::sleep(std::time::Duration::from_micros(((100 - i) % 7) as u64 * 50));
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial() {
        let f = |i: usize, x: u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let items: Vec<u64> = (0..57).map(|x| x * 13).collect();
        let serial = par_map(items.clone(), 1, f);
        for workers in [2, 3, 8, 64] {
            assert_eq!(par_map(items.clone(), workers, f), serial, "{workers} workers");
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        assert_eq!(par_map(Vec::<u32>::new(), 4, |_, x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![5], 4, |_, x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_propagates_panics() {
        for workers in [1, 2, 4] {
            let result = std::panic::catch_unwind(|| {
                par_map((0..16).collect::<Vec<usize>>(), workers, |_, x| {
                    if x == 5 {
                        // the higher index panics first in time; the
                        // re-thrown payload must still be the lower one's
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    assert!(x != 5 && x != 11, "boom on {x}");
                    x
                })
            });
            let payload = result.unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert_eq!(msg, "boom on 5", "{workers} workers");
        }
    }

    #[test]
    fn nested_fan_out_runs_inline_on_its_worker() {
        let outer = par_map((0..4).collect::<Vec<usize>>(), 2, |_, x| {
            let me = std::thread::current().id();
            let inner = par_map((0..3).collect::<Vec<usize>>(), 3, |_, y| {
                (std::thread::current().id(), x * 10 + y)
            });
            let mut slots: Vec<usize> = vec![x; 3];
            let run =
                run_on_slots_watchdog(&mut slots, &fault::Backoff::none(0), None, |w, s, _| {
                    (std::thread::current().id(), *s + w)
                })
                .unwrap();
            assert!(
                inner.iter().chain(&run.results).all(|(id, _)| *id == me),
                "nested fan-out left its worker thread"
            );
            inner.iter().chain(&run.results).map(|(_, v)| v).sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|x| (30 * x + 3) + (3 * x + 3)).collect();
        assert_eq!(outer, expect);
    }

    #[test]
    fn try_par_map_matches_par_map_without_faults() {
        let f = |i: usize, x: u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let items: Vec<u64> = (0..57).map(|x| x * 13).collect();
        let plain = par_map(items.clone(), 4, f);
        for workers in [1, 3, 8] {
            assert_eq!(
                try_par_map(items.clone(), workers, &fault::Backoff::none(1), f).unwrap(),
                plain
            );
        }
    }

    #[test]
    fn try_par_map_retries_transient_panic() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let tripped = AtomicBool::new(false);
        let f = |_i: usize, x: usize| {
            if x == 7 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("transient fault on {x}");
            }
            x * 2
        };
        let out =
            try_par_map((0..16).collect::<Vec<usize>>(), 4, &fault::Backoff::none(1), f).unwrap();
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
        assert!(tripped.load(Ordering::SeqCst), "the fault should have fired once");
    }

    #[test]
    fn try_par_map_reports_exhausted_item() {
        let err =
            try_par_map((0..8).collect::<Vec<usize>>(), 2, &fault::Backoff::none(2), |_, x| {
                assert!(x < 5, "always fails");
                x
            })
            .unwrap_err();
        assert_eq!(err.kind, ExecErrorKind::ItemPanicked);
        assert_eq!(err.index, 5, "the lowest failing item is reported");
        assert_eq!(err.attempts, 3);
        assert!(err.message.contains("always fails"), "{}", err.message);
        assert!(err.to_string().contains("item 5"));
    }

    #[test]
    fn slots_come_back_in_order_and_keep_their_mutations() {
        for retries in [0, 1] {
            let backoff = fault::Backoff::none(retries);
            let mut slots: Vec<Vec<u32>> = (0..5).map(|w| vec![w]).collect();
            let run = run_on_slots_watchdog(&mut slots, &backoff, None, |w, slot, _hb| {
                std::thread::sleep(std::time::Duration::from_micros((5 - w) as u64 * 100));
                slot.push(w as u32 + 10);
                slot.iter().sum::<u32>()
            })
            .unwrap();
            assert_eq!(run.results, vec![10, 12, 14, 16, 18], "retries {retries}");
            for (w, s) in run.stats.iter().enumerate() {
                assert_eq!((s.worker, s.attempts), (w, 1));
                assert!(s.wall_s >= 0.0);
            }
            // slot mutations persist for the next call
            assert_eq!(slots[3], vec![3, 13]);
            let run2 =
                run_on_slots_watchdog(&mut slots, &backoff, None, |_, slot, _| slot.len()).unwrap();
            assert_eq!(run2.results, vec![2; 5]);
        }
    }

    #[test]
    fn retry_restores_slot_and_recovers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let tripped = AtomicBool::new(false);
        let job = |w: usize, slot: &mut Vec<u32>, _hb: &Heartbeat| {
            slot.push(99); // poison the slot state...
            if w == 2 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("transient fault mid-mutation");
            }
            slot.pop(); // ...and undo it on the non-panicking path
            slot.push(w as u32);
            slot.len()
        };
        let mut slots: Vec<Vec<u32>> = (0..4).map(|_| vec![0]).collect();
        let run = run_on_slots_watchdog(&mut slots, &fault::Backoff::none(1), None, job).unwrap();
        // the retried slot must have been rolled back before the rerun:
        // every slot ends as [0, w], never carrying the poisoned 99
        assert_eq!(run.results, vec![2; 4]);
        assert_eq!(run.stats[2].attempts, 2);
        for (w, s) in slots.iter().enumerate() {
            assert_eq!(s, &vec![0, w as u32], "slot {w} state");
        }
    }

    #[test]
    fn exhausted_slot_reports_lowest_index() {
        for (retries, attempts) in [(0, 1), (1, 2)] {
            let mut slots: Vec<u32> = (0..4).collect();
            let err = run_on_slots_watchdog(
                &mut slots,
                &fault::Backoff::none(retries),
                None,
                |w, _slot: &mut u32, _hb| {
                    assert!(w != 1 && w != 3, "slot always dies");
                    w
                },
            )
            .unwrap_err();
            assert_eq!(err.kind, ExecErrorKind::WorkerPanicked);
            assert_eq!(err.index, 1, "retries {retries}");
            assert_eq!(err.attempts, attempts);
        }
    }

    #[test]
    fn split_seed_decorrelates_streams() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64_u64 {
            for stream in 0..8 {
                assert!(seen.insert(split_seed(seed, stream)), "collision at {seed}/{stream}");
            }
        }
        // the folk `seed ^ stream` scheme collides here; split_seed must not
        assert_ne!(split_seed(2, 3), split_seed(3, 2));
        assert_ne!(split_seed(0, 1), split_seed(1, 0));
    }

    #[test]
    fn watchdog_recovers_a_stalled_slot_with_identical_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Reference: stall-free run.
        let job_plain = |w: usize, slot: &mut Vec<u32>, hb: &Heartbeat| {
            for step in 0..5u32 {
                hb.beat();
                slot.push(w as u32 * 100 + step);
            }
            slot.iter().sum::<u32>()
        };
        let mut ref_slots: Vec<Vec<u32>> = (0..3).map(|w| vec![w]).collect();
        let reference =
            run_on_slots_watchdog(&mut ref_slots, &fault::Backoff::none(1), None, job_plain)
                .unwrap();

        // Same job, but slot 1 stalls (no beats) on its first attempt.
        let stalls = AtomicUsize::new(0);
        let job = |w: usize, slot: &mut Vec<u32>, hb: &Heartbeat| {
            if w == 1 && stalls.fetch_add(1, Ordering::SeqCst) == 0 {
                // far longer than the timeout; only cancellation ends it
                hb.stall_for(Duration::from_secs(10));
            }
            job_plain(w, slot, hb)
        };
        let cfg = WatchdogConfig::with_timeout_ms(50);
        let mut slots: Vec<Vec<u32>> = (0..3).map(|w| vec![w]).collect();
        let t0 = Instant::now();
        let run =
            run_on_slots_watchdog(&mut slots, &fault::Backoff::none(1), Some(&cfg), job).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "stall must be cancelled, not waited out");
        assert_eq!(stalls.load(Ordering::SeqCst), 2, "slot 1 ran twice: stalled, then retried");
        assert_eq!(run.results, reference.results, "recovered run must merge identically");
        assert_eq!(slots, ref_slots, "slot state must match a stall-free run");
    }

    #[test]
    fn watchdog_cancelled_slot_leaves_later_runs_clean() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One stalled-then-cancelled attempt must not leak into later
        // fan-outs: follow-up runs over the same slots complete with
        // first-attempt stats and identical results.
        let stalls = AtomicUsize::new(0);
        let job = |w: usize, slot: &mut u64, hb: &Heartbeat| {
            if w == 1 && stalls.fetch_add(1, Ordering::SeqCst) == 0 {
                hb.stall_for(Duration::from_secs(10));
            }
            hb.beat();
            *slot += 1;
            w as u64 + *slot
        };
        let cfg = WatchdogConfig::with_timeout_ms(40);
        let mut slots: Vec<u64> = vec![10, 20, 30];
        let first =
            run_on_slots_watchdog(&mut slots, &fault::Backoff::none(2), Some(&cfg), job).unwrap();
        assert_eq!(first.results, vec![11, 22, 33]);
        assert_eq!(first.stats[1].attempts, 2, "slot 1 was cancelled once, then re-run");
        // Re-run the same fan-out (now stall-free) twice.
        for round in 0..2u64 {
            let again =
                run_on_slots_watchdog(&mut slots, &fault::Backoff::none(2), Some(&cfg), job)
                    .unwrap();
            let bump = round + 2;
            assert_eq!(again.results, vec![10 + bump, 21 + bump, 32 + bump], "round {round}");
            assert!(again.stats.iter().all(|s| s.attempts == 1), "round {round} stall-free");
        }
    }

    #[test]
    fn watchdog_exhausted_stall_surfaces_as_exec_error() {
        let cfg = WatchdogConfig::with_timeout_ms(30);
        let mut slots: Vec<u32> = (0..2).collect();
        let err = run_on_slots_watchdog(
            &mut slots,
            &fault::Backoff::none(1),
            Some(&cfg),
            |w, _slot, hb: &Heartbeat| {
                if w == 1 {
                    hb.stall_for(Duration::from_secs(10)); // stalls every attempt
                }
                w
            },
        )
        .unwrap_err();
        assert_eq!(err.kind, ExecErrorKind::WorkerPanicked);
        assert_eq!(err.index, 1);
        assert_eq!(err.attempts, 2);
        assert!(err.message.contains("[watchdog]"), "{}", err.message);
    }

    #[test]
    fn fault_plan_stall_on_worker_point_is_recovered_by_watchdog() {
        // Serialized with other fault-plan tests via the fault crate's own
        // global registry; exec has only this one plan-installing test.
        fault::install(fault::FaultPlan::parse("stall@exec.worker.1:1,stall_ms=5000").unwrap());
        let cfg = WatchdogConfig::with_timeout_ms(40);
        let job = |w: usize, slot: &mut u64, hb: &Heartbeat| {
            hb.beat();
            *slot += 1;
            w as u64 + *slot
        };
        let mut slots: Vec<u64> = vec![10, 20, 30];
        let t0 = Instant::now();
        let run = run_on_slots_watchdog(&mut slots, &fault::Backoff::none(2), Some(&cfg), job);
        fault::clear();
        let run = run.unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "injected stall must be cut short");
        assert_eq!(run.results, vec![11, 22, 33]);
        assert_eq!(slots, vec![11, 21, 31], "rolled-back slot re-ran exactly once");
    }

    #[test]
    fn watchdog_config_from_env() {
        std::env::set_var("ADVNET_WATCHDOG_MS", "250");
        assert_eq!(
            WatchdogConfig::from_env(),
            Some(WatchdogConfig {
                timeout: Duration::from_millis(250),
                poll: Duration::from_millis(25)
            })
        );
        std::env::set_var("ADVNET_WATCHDOG_MS", "0");
        assert_eq!(WatchdogConfig::from_env(), None);
        std::env::remove_var("ADVNET_WATCHDOG_MS");
        assert_eq!(WatchdogConfig::from_env(), None);
    }

    #[test]
    fn default_workers_env_override() {
        std::env::set_var("EXEC_WORKERS", "3");
        assert_eq!(default_workers(), 3);
        std::env::set_var("EXEC_WORKERS", "0");
        assert_eq!(default_workers(), 1);
        std::env::remove_var("EXEC_WORKERS");
        assert!(default_workers() >= 1);
    }
}
