//! Process-wide observability for the adversarial-networking stack:
//! counters, gauges, log2-bucketed histograms, nesting span timers, a
//! JSONL event sink, and an atomic, checksummed **run manifest**
//! (`results/runs/<run-id>.json`).
//!
//! Design constraints (see DESIGN.md §12):
//!
//! * **Zero dependencies.** This crate sits below `fault` and `nn` in the
//!   workspace graph, so it uses `std` only and hand-writes its JSON.
//! * **Deterministic-safe.** Wall-clock time is *observational only*: no
//!   recorded value is ever read back into simulation or training, so
//!   `ADVNET_TELEMETRY=on` cannot change a `TrainState` bit or a result
//!   CSV byte (regression-tested in `tests/telemetry_equivalence.rs`).
//! * **Near-zero cost when off.** Every recording entry point starts with
//!   a single relaxed atomic load ([`enabled`]) and returns immediately
//!   when telemetry is disabled; `Instant::now()` is never called while
//!   disabled.
//!
//! Enable with `ADVNET_TELEMETRY=on` (or `1`/`true`). Optionally set
//! `ADVNET_RUN_ID` to name the manifest and `ADVNET_TELEMETRY_EVENTS` to
//! a file path to stream span/guard events as JSON lines.
//!
//! Metric names are dot-separated and prefixed by the owning crate
//! (`rl.`, `exec.`, `bench.`, `fault.`, `nn.`); span names are prefixed
//! by phase group (`train.`, `exec.`, `sim.`, `bench.`) — the
//! `telemetry-report` binary aggregates regressions per phase group.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable that switches telemetry on (`on`/`1`/`true`).
pub const ENV_ENABLED: &str = "ADVNET_TELEMETRY";
/// Environment variable naming the run (manifest file stem); defaults to
/// `<unix-seconds>-<pid>` when unset.
pub const ENV_RUN_ID: &str = "ADVNET_RUN_ID";
/// Environment variable pointing the JSONL event sink at a file path.
pub const ENV_EVENTS: &str = "ADVNET_TELEMETRY_EVENTS";
/// Schema tag embedded in every run manifest.
pub const MANIFEST_SCHEMA: &str = "advnet-telemetry-v1";

// 0 = uninitialised, 1 = off, 2 = on
static ENABLED: AtomicU8 = AtomicU8::new(0);
// 0 = uninitialised, 1 = no sink, 2 = sink active
static SINK_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is recording. The steady-state cost is one relaxed
/// atomic load; the first call reads [`ENV_ENABLED`] once.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Read [`ENV_ENABLED`] and latch the on/off state; returns the result.
/// Calling it again re-reads the environment (used by tests and by
/// binaries that want an explicit arm point).
pub fn init_from_env() -> bool {
    let on = matches!(std::env::var(ENV_ENABLED).as_deref(), Ok("on") | Ok("1") | Ok("true"));
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Programmatically switch telemetry on or off (tests, equivalence
/// harnesses). Overrides whatever the environment said.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

/// Aggregate statistics of one log2-bucketed histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest observed value (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    /// Observations that were zero, negative or non-finite (no log2 bucket).
    pub zero_or_neg: u64,
    /// `floor(log2(v))` bucket → count, for positive finite observations.
    pub buckets: BTreeMap<i32, u64>,
}

impl HistStat {
    fn new() -> Self {
        HistStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zero_or_neg: 0,
            buckets: BTreeMap::new(),
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if v.is_finite() && v > 0.0 {
            let b = (v.log2().floor() as i32).clamp(-128, 128);
            *self.buckets.entry(b).or_insert(0) += 1;
        } else {
            self.zero_or_neg += 1;
        }
    }
}

/// Aggregate statistics of one named span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Number of completed spans under this name.
    pub count: u64,
    /// Total wall time across them, seconds.
    pub total_s: f64,
    /// Shortest single span, seconds.
    pub min_s: f64,
    /// Longest single span, seconds.
    pub max_s: f64,
}

impl SpanStat {
    fn new() -> Self {
        SpanStat { count: 0, total_s: 0.0, min_s: f64::INFINITY, max_s: f64::NEG_INFINITY }
    }

    fn record(&mut self, secs: f64) {
        self.count += 1;
        self.total_s += secs;
        if secs < self.min_s {
            self.min_s = secs;
        }
        if secs > self.max_s {
            self.max_s = secs;
        }
    }
}

#[derive(Debug)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistStat>,
    spans: BTreeMap<String, SpanStat>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // a worker that panicked (e.g. under fault injection) never holds this
    // lock across the panic — recording functions are self-contained — so a
    // poisoned lock still guards consistent data
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Add `n` to the named monotonic counter. No-op when disabled.
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    match reg.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            reg.counters.insert(name.to_string(), n);
        }
    }
}

/// Current value of a counter (0 when absent). Mostly for tests and CI
/// assertions; always readable even when recording is disabled.
pub fn counter_get(name: &str) -> u64 {
    registry().counters.get(name).copied().unwrap_or(0)
}

/// Set the named gauge to `v` (last write wins). No-op when disabled.
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    registry().gauges.insert(name.to_string(), v);
}

/// Record one observation into the named log2-bucketed histogram.
/// No-op when disabled.
pub fn observe(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    match reg.hists.get_mut(name) {
        Some(h) => h.observe(v),
        None => {
            let mut h = HistStat::new();
            h.observe(v);
            reg.hists.insert(name.to_string(), h);
        }
    }
}

/// Record a completed span of `secs` seconds under `name` at nesting
/// `depth` (1 = outermost). Usually called by [`Span`]'s `Drop`, not
/// directly. No-op when disabled.
pub fn record_span(name: &str, secs: f64, depth: u32) {
    if !enabled() {
        return;
    }
    {
        let mut reg = registry();
        match reg.spans.get_mut(name) {
            Some(s) => s.record(secs),
            None => {
                let mut s = SpanStat::new();
                s.record(secs);
                reg.spans.insert(name.to_string(), s);
            }
        }
    }
    if SINK_STATE.load(Ordering::Relaxed) == 2 {
        sink_line(&format!(
            "{{\"ev\":\"span\",\"name\":{},\"wall_s\":{},\"depth\":{}}}",
            json_str(name),
            json_f64(secs),
            depth
        ));
    }
}

/// Drain every metric and forget the event-sink binding. Tests only: real
/// runs accumulate for the whole process and flush via [`write_manifest`].
pub fn reset() {
    let mut reg = registry();
    reg.counters.clear();
    reg.gauges.clear();
    reg.hists.clear();
    reg.spans.clear();
    SINK_STATE.store(0, Ordering::Relaxed);
    *sink().lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Point-in-time copy of the whole registry, with every map in
/// deterministic (lexicographic) key order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Log2-bucketed histograms.
    pub hists: BTreeMap<String, HistStat>,
    /// Span timing aggregates.
    pub spans: BTreeMap<String, SpanStat>,
}

/// Copy the current registry contents.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        counters: reg.counters.clone(),
        gauges: reg.gauges.clone(),
        hists: reg.hists.clone(),
        spans: reg.spans.clone(),
    }
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII wall-clock timer for one named region; records into the span
/// registry (and the JSONL sink, when bound) on drop. Create via
/// [`span!`]. When telemetry is disabled the constructor returns an inert
/// guard without reading the clock.
#[must_use = "a span records on drop; binding it to _ discards the timing immediately"]
pub struct Span {
    inner: Option<(&'static str, Instant)>,
}

impl Span {
    /// Start timing `name` (no-op guard when telemetry is disabled).
    pub fn enter(name: &'static str) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        DEPTH.with(|d| d.set(d.get() + 1));
        Span { inner: Some((name, Instant::now())) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.inner.take() {
            let secs = t0.elapsed().as_secs_f64();
            let depth = DEPTH.with(|d| {
                let v = d.get();
                d.set(v.saturating_sub(1));
                v
            });
            record_span(name, secs, depth);
        }
    }
}

/// Time the enclosing scope: `let _t = telemetry::span!("train.update");`
/// Spans nest — an inner span started while an outer one is live records
/// at depth + 1 in the event sink.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

// ---------------------------------------------------------------------------
// JSONL event sink
// ---------------------------------------------------------------------------

fn sink() -> &'static Mutex<Option<std::io::BufWriter<std::fs::File>>> {
    static SINK: Mutex<Option<std::io::BufWriter<std::fs::File>>> = Mutex::new(None);
    &SINK
}

fn sink_active() -> bool {
    match SINK_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let state = match std::env::var(ENV_EVENTS) {
                Ok(path) if !path.is_empty() => match std::fs::File::create(&path) {
                    Ok(f) => {
                        *sink().lock().unwrap_or_else(|e| e.into_inner()) =
                            Some(std::io::BufWriter::new(f));
                        2
                    }
                    Err(_) => 1,
                },
                _ => 1,
            };
            SINK_STATE.store(state, Ordering::Relaxed);
            state == 2
        }
    }
}

fn sink_line(line: &str) {
    let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Emit a structured event line `{"ev":name,"detail":detail}` to the
/// JSONL sink (when `ADVNET_TELEMETRY_EVENTS` is bound) and bump the
/// `event.<name>` counter. This replaces ad-hoc stderr warnings so stderr
/// stays reserved for fatal errors. No-op when disabled.
pub fn event(name: &str, detail: &str) {
    if !enabled() {
        return;
    }
    counter_add(&format!("event.{name}"), 1);
    if sink_active() {
        sink_line(&format!("{{\"ev\":{},\"detail\":{}}}", json_str(name), json_str(detail)));
    }
}

// ---------------------------------------------------------------------------
// provenance
// ---------------------------------------------------------------------------

/// Where a run happened: enough to attribute benchmark numbers to a host
/// and a commit. All fields are best-effort (`"unknown"` on failure) and
/// purely observational.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Git commit hash (`GITHUB_SHA`, else `git rev-parse HEAD` with
    /// `+dirty` appended when a tracked file differs from that commit).
    pub commit: String,
    /// Host name (`HOSTNAME`, else `/etc/hostname`).
    pub hostname: String,
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// `rustc --version` of the toolchain on PATH.
    pub rustc: String,
    /// `<os>-<arch>` of the build target.
    pub os: String,
    /// [`libm_fingerprint`] of the process: which libm variant computed
    /// every `exp`, `ln` and `cos` of the run.
    pub libm: String,
}

/// The functions [`libm_fingerprint`] probes, and their inputs as bits:
/// two ordinary values each, then two where glibc's FMA build and its
/// plain build (the one `GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA` selects)
/// return different bits.
const LIBM_FNS: [fn(f64) -> f64; 5] = [f64::exp, f64::ln, f64::cos, f64::tanh, f64::exp_m1];
const LIBM_INPUTS: [[u64; 4]; 5] = [
    [0x3fe0000000000000, 0xc014000000000000, 0x400b70f00f01a5cc, 0xbfeb0fbb07ed4c56],
    [0x3fd3333333333333, 0x4024000000000000, 0x3fec870e6750f350, 0x3fe5c5ece2b573b4],
    [0x3ff0000000000000, 0x400921fb54442d18, 0xc0227798471bb7d4, 0x3ff51d20fc93f93a],
    [0x3fe0000000000000, 0xc004000000000000, 0xbfbe6ec4a40676a0, 0x3fc30f9c7cffacd8],
    [0x3fb999999999999a, 0xc008000000000000, 0xbfcd63025abd6010, 0x3ff109c2bac55554],
];

/// FNV-1a of the bits the host's libm returns for `f64::{exp, ln, cos,
/// tanh, exp_m1}` over fixed inputs, as 16 lower-case hex digits.
///
/// Two runs whose fingerprints differ may differ in every result that
/// goes through those functions: glibc, for one, picks an FMA-compiled
/// build of them when the CPU has FMA.
pub fn libm_fingerprint() -> String {
    let mut bytes = Vec::with_capacity(LIBM_FNS.len() * 4 * 8);
    for (f, inputs) in LIBM_FNS.into_iter().zip(LIBM_INPUTS) {
        for x in inputs {
            // opaque, so the compiler cannot fold the call with its own libm
            let y = f(std::hint::black_box(f64::from_bits(x)));
            bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        }
    }
    format!("{:016x}", fnv1a64(&bytes))
}

fn cmd_line(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).current_dir(dir).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// The commit checked out in the git work tree at `dir`, with `+dirty`
/// appended when `git status --porcelain --untracked-files=no` lists a
/// change; `None` outside a work tree.
fn git_commit(dir: &Path) -> Option<String> {
    let head = cmd_line(dir, "git", &["rev-parse", "HEAD"])?;
    Some(match cmd_line(dir, "git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(_) => format!("{head}+dirty"),
        None => head,
    })
}

/// Collect [`Provenance`] for the current process (spawns `git`/`rustc`;
/// call once per run, at manifest-write time).
pub fn provenance() -> Provenance {
    let here = Path::new(".");
    let commit = std::env::var("GITHUB_SHA")
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| git_commit(here))
        .unwrap_or_else(|| "unknown".to_string());
    let hostname = std::env::var("HOSTNAME")
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rustc = cmd_line(here, "rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    Provenance {
        commit,
        hostname,
        cores,
        rustc,
        os: format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH),
        libm: libm_fingerprint(),
    }
}

// ---------------------------------------------------------------------------
// run manifest
// ---------------------------------------------------------------------------

/// Identity and configuration of one run, stamped into the manifest.
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// File stem of the manifest (`results/runs/<run_id>.json`).
    pub run_id: String,
    /// Seed driving the run, when one exists.
    pub seed: Option<u64>,
    /// Free-form `key = value` configuration pairs (sorted on render).
    pub config: Vec<(String, String)>,
}

/// The run id: `ADVNET_RUN_ID` if set, else `<unix-seconds>-<pid>`.
/// Wall-clock here is observational (a file name), never simulation input.
pub fn run_id_from_env() -> String {
    if let Ok(id) = std::env::var(ENV_RUN_ID) {
        if !id.is_empty() {
            return sanitize_id(&id);
        }
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("{secs}-{}", std::process::id())
}

fn sanitize_id(id: &str) -> String {
    id.chars()
        .map(
            |c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' { c } else { '-' },
        )
        .collect()
}

/// FNV-1a 64-bit hash — the workspace's one definition: `rl::ckpt`
/// re-exports it for its checkpoint envelopes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}") // shortest round-trip form, matches the serde_json stub
    } else {
        "null".to_string() // JSON has no NaN/Inf
    }
}

/// Render the manifest *body* (the part the checksum covers) from an
/// explicit snapshot and provenance. Key order is fully deterministic:
/// every map is a `BTreeMap` and `config` is sorted by key. Exposed so
/// tests can prove byte-identical rendering across insertion orders.
pub fn render_body(meta: &RunMeta, prov: &Provenance, snap: &Snapshot) -> String {
    let mut cfg: Vec<(String, String)> = meta.config.clone();
    cfg.sort();
    let mut b = String::with_capacity(4096);
    b.push_str("{\"schema\":");
    b.push_str(&json_str(MANIFEST_SCHEMA));
    b.push_str(",\"run_id\":");
    b.push_str(&json_str(&meta.run_id));
    b.push_str(",\"seed\":");
    match meta.seed {
        Some(s) => b.push_str(&s.to_string()),
        None => b.push_str("null"),
    }
    b.push_str(",\"config\":{");
    for (i, (k, v)) in cfg.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        b.push_str(&json_str(k));
        b.push(':');
        b.push_str(&json_str(v));
    }
    b.push_str("},\"provenance\":{\"commit\":");
    b.push_str(&json_str(&prov.commit));
    b.push_str(",\"hostname\":");
    b.push_str(&json_str(&prov.hostname));
    b.push_str(",\"cores\":");
    b.push_str(&prov.cores.to_string());
    b.push_str(",\"rustc\":");
    b.push_str(&json_str(&prov.rustc));
    b.push_str(",\"os\":");
    b.push_str(&json_str(&prov.os));
    b.push_str(",\"libm\":");
    b.push_str(&json_str(&prov.libm));
    b.push_str("},\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        b.push_str(&json_str(k));
        b.push(':');
        b.push_str(&v.to_string());
    }
    b.push_str("},\"gauges\":{");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        b.push_str(&json_str(k));
        b.push(':');
        b.push_str(&json_f64(*v));
    }
    b.push_str("},\"histograms\":{");
    for (i, (k, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        b.push_str(&json_str(k));
        b.push_str(":{\"count\":");
        b.push_str(&h.count.to_string());
        b.push_str(",\"sum\":");
        b.push_str(&json_f64(h.sum));
        b.push_str(",\"min\":");
        b.push_str(&json_f64(h.min));
        b.push_str(",\"max\":");
        b.push_str(&json_f64(h.max));
        b.push_str(",\"zero_or_neg\":");
        b.push_str(&h.zero_or_neg.to_string());
        b.push_str(",\"buckets\":{");
        for (j, (bi, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                b.push(',');
            }
            b.push_str(&json_str(&bi.to_string()));
            b.push(':');
            b.push_str(&c.to_string());
        }
        b.push_str("}}");
    }
    b.push_str("},\"spans\":{");
    for (i, (k, s)) in snap.spans.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        b.push_str(&json_str(k));
        b.push_str(":{\"count\":");
        b.push_str(&s.count.to_string());
        b.push_str(",\"total_s\":");
        b.push_str(&json_f64(s.total_s));
        b.push_str(",\"min_s\":");
        b.push_str(&json_f64(s.min_s));
        b.push_str(",\"max_s\":");
        b.push_str(&json_f64(s.max_s));
        b.push('}');
    }
    b.push_str("}}");
    b
}

/// Wrap a rendered body in the checksum envelope. The file stays a single
/// valid JSON document: `{"fnv1a":"<16 hex>","manifest":<body>}` where
/// the hash covers exactly the `<body>` bytes.
pub fn seal_body(body: &str) -> String {
    format!("{{\"fnv1a\":\"{:016x}\",\"manifest\":{body}}}", fnv1a64(body.as_bytes()))
}

/// Verify a sealed manifest and return the inner body string, or a
/// description of why it is invalid (truncation, bit rot, wrong format).
pub fn manifest_body(text: &str) -> Result<&str, String> {
    const PREFIX: &str = "{\"fnv1a\":\"";
    const MID: &str = "\",\"manifest\":";
    let rest = text
        .strip_prefix(PREFIX)
        .ok_or_else(|| "not a sealed telemetry manifest (missing fnv1a envelope)".to_string())?;
    if rest.len() < 16 + MID.len() + 1 {
        return Err("manifest truncated".to_string());
    }
    // Exactly the writer's 16 lower-case hex digits: `from_str_radix`
    // alone would accept a case-flipped letter (a one-bit flip), and
    // `get` refuses a byte 16 inside a multi-byte character.
    let hex = rest
        .get(..16)
        .filter(|h| h.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)))
        .ok_or_else(|| "malformed checksum".to_string())?;
    let want = u64::from_str_radix(hex, 16).map_err(|_| "malformed checksum".to_string())?;
    let rest = &rest[16..];
    let body_and_close =
        rest.strip_prefix(MID).ok_or_else(|| "malformed envelope after checksum".to_string())?;
    let body = body_and_close
        .strip_suffix('}')
        .ok_or_else(|| "manifest missing closing brace".to_string())?;
    let got = fnv1a64(body.as_bytes());
    if got != want {
        return Err(format!("checksum mismatch: header {want:016x}, body hashes to {got:016x}"));
    }
    Ok(body)
}

/// Atomically write the sealed manifest for the current registry state to
/// `<dir>/<run_id>.json` (tmp file + fsync + rename, the `rl::ckpt`
/// discipline) and return the final path.
pub fn write_manifest(dir: &Path, meta: &RunMeta) -> std::io::Result<PathBuf> {
    let body = render_body(meta, &provenance(), &snapshot());
    let sealed = seal_body(&body);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", sanitize_id(&meta.run_id)));
    let tmp = dir.join(format!(".{}.json.tmp-{}", sanitize_id(&meta.run_id), std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(sealed.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    // flush any pending event lines alongside the manifest
    sink_line("");
    Ok(path)
}

/// [`write_manifest`] into `$RESULTS_DIR/runs` (default `results/runs`),
/// with the run id from [`run_id_from_env`]. The standard exit hook for
/// binaries; returns `Ok(None)` without touching the filesystem when
/// telemetry is disabled.
pub fn write_manifest_default(
    seed: Option<u64>,
    config: &[(String, String)],
) -> std::io::Result<Option<PathBuf>> {
    if !enabled() {
        return Ok(None);
    }
    let base = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let dir = Path::new(&base).join("runs");
    let meta = RunMeta { run_id: run_id_from_env(), seed, config: config.to_vec() };
    write_manifest(&dir, &meta).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    // the registry and enabled flag are process globals: serialize tests
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        counter_add("x", 3);
        observe("h", 1.0);
        gauge_set("g", 2.0);
        let _s = span!("s");
        drop(_s);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_histograms_and_spans_accumulate() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter_add("a.b", 2);
        counter_add("a.b", 3);
        observe("h", 0.5);
        observe("h", 3.0);
        observe("h", 0.0);
        {
            let _s = span!("t.x");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = snapshot();
        assert_eq!(snap.counters["a.b"], 5);
        let h = &snap.hists["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.zero_or_neg, 1);
        assert_eq!(h.buckets[&-1], 1); // 0.5 → bucket -1
        assert_eq!(h.buckets[&1], 1); // 3.0 → bucket 1
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 3.0);
        let s = &snap.spans["t.x"];
        assert_eq!(s.count, 1);
        assert!(s.total_s > 0.0);
        set_enabled(false);
        reset();
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // same vectors rl::ckpt verifies against
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn libm_fingerprint_is_16_hex_digits_and_stable() {
        let fp = libm_fingerprint();
        println!("libm fingerprint: {fp}");
        assert_eq!(fp.len(), 16, "{fp}");
        assert!(fp.chars().all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c)), "{fp}");
        assert_eq!(libm_fingerprint(), fp);
        assert_eq!(provenance().libm, fp);
    }

    /// The fingerprint this test binary prints when run with `env`.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn child_fingerprint(env: &[(&str, &str)]) -> String {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::libm_fingerprint_is_16_hex_digits_and_stable"])
            .args(["--nocapture", "--test-threads=1"])
            .envs(env.iter().copied())
            .output()
            .unwrap();
        assert!(out.status.success(), "child test failed");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // the harness prints the test's name on the same line
        let fp =
            stdout.split("libm fingerprint: ").nth(1).and_then(|t| t.split_whitespace().next());
        fp.unwrap_or_else(|| panic!("no fingerprint in {stdout}")).to_string()
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn libm_fingerprint_tells_glibcs_fma_build_from_its_plain_one() {
        if !std::arch::is_x86_feature_detected!("fma") {
            return; // glibc runs its plain build anyway
        }
        let here = libm_fingerprint();
        assert_eq!(child_fingerprint(&[]), here);
        let hidden = child_fingerprint(&[("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-FMA")]);
        if std::env::var("GLIBC_TUNABLES").map_or(true, |t| !t.contains("-FMA")) {
            assert_ne!(hidden, here, "hiding FMA from glibc left the fingerprint unchanged");
        }
    }

    #[test]
    fn seal_and_verify_round_trip() {
        let body = r#"{"schema":"advnet-telemetry-v1","x":1}"#;
        let sealed = seal_body(body);
        assert_eq!(manifest_body(&sealed).unwrap(), body);
        // flip one byte in the body → rejected
        let corrupted = sealed.replace("\"x\":1", "\"x\":2");
        assert!(manifest_body(&corrupted).unwrap_err().contains("checksum mismatch"));
        assert!(manifest_body("{\"other\":1}").is_err());
    }

    #[test]
    fn render_is_deterministic_across_insertion_orders() {
        let _g = lock();
        let prov = Provenance {
            commit: "c".into(),
            hostname: "h".into(),
            cores: 4,
            rustc: "r".into(),
            os: "o".into(),
            libm: "l".into(),
        };
        let meta = RunMeta {
            run_id: "t".into(),
            seed: Some(7),
            config: vec![("b".into(), "2".into()), ("a".into(), "1".into())],
        };
        set_enabled(true);
        reset();
        counter_add("z", 1);
        counter_add("a", 2);
        observe("m", 1.5);
        let s1 = render_body(&meta, &prov, &snapshot());
        reset();
        counter_add("a", 2);
        observe("m", 1.5);
        counter_add("z", 1);
        let s2 = render_body(&meta, &prov, &snapshot());
        assert_eq!(s1, s2);
        assert!(s1.contains("\"seed\":7"));
        assert!(s1.contains("\"config\":{\"a\":\"1\",\"b\":\"2\"}"));
        set_enabled(false);
        reset();
    }

    #[test]
    fn manifest_file_write_and_verify() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter_add("k", 9);
        let dir =
            std::env::temp_dir().join(format!("advnet-telemetry-test-{}", std::process::id()));
        let meta = RunMeta { run_id: "unit/../test".into(), seed: None, config: vec![] };
        let path = write_manifest(&dir, &meta).unwrap();
        // run id is sanitized into a flat file name
        assert_eq!(path.parent().unwrap(), dir.as_path());
        let text = std::fs::read_to_string(&path).unwrap();
        let body = manifest_body(text.trim_end()).unwrap();
        assert!(body.contains("\"k\":9"));
        assert!(body.contains(MANIFEST_SCHEMA));
        std::fs::remove_dir_all(&dir).ok();
        set_enabled(false);
        reset();
    }

    #[test]
    fn git_commit_is_marked_dirty_only_when_a_tracked_file_changed() {
        let dir = std::env::temp_dir().join(format!("advnet-telemetry-git-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let ok = std::process::Command::new("git")
                .current_dir(&dir)
                .args(["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .unwrap()
                .status
                .success();
            assert!(ok, "git {args:?}");
        };
        assert_eq!(git_commit(&dir), None, "not a work tree yet");
        git(&["init", "-q"]);
        std::fs::write(dir.join("a.txt"), "one").unwrap();
        git(&["add", "a.txt"]);
        git(&["commit", "-q", "-m", "first"]);
        let head = cmd_line(&dir, "git", &["rev-parse", "HEAD"]).unwrap();
        assert_eq!(git_commit(&dir), Some(head.clone()), "clean tree");
        std::fs::write(dir.join("untracked.txt"), "x").unwrap();
        assert_eq!(git_commit(&dir), Some(head.clone()), "untracked files do not count");
        std::fs::write(dir.join("a.txt"), "two").unwrap();
        assert_eq!(git_commit(&dir), Some(format!("{head}+dirty")), "modified tracked file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_escaping_and_floats() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
