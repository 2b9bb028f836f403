//! The worker's JSON report, plus the small statistics and digest helpers
//! every workload shares.

use serde::{Serialize, Value};
use std::time::Instant;

/// A JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    /// A number; non-finite values become `null`, as JSON has no spelling
    /// for them.
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.0.push((key.to_string(), if v.is_finite() { Value::F64(v) } else { Value::Null }));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.0.push((key.to_string(), Value::U64(v)));
        self
    }

    pub fn text(mut self, key: &str, v: &str) -> Self {
        self.0.push((key.to_string(), Value::Str(v.to_string())));
        self
    }

    pub fn opt_text(mut self, key: &str, v: Option<&str>) -> Self {
        let v = v.map(|s| Value::Str(s.to_string())).unwrap_or(Value::Null);
        self.0.push((key.to_string(), v));
        self
    }

    pub fn nums(mut self, key: &str, vs: &[f64]) -> Self {
        self.0.push((key.to_string(), Value::Array(vs.iter().map(|v| v.to_value()).collect())));
        self
    }

    pub fn obj(mut self, key: &str, o: Obj) -> Self {
        self.0.push((key.to_string(), o.into_value()));
        self
    }

    pub fn objs(mut self, key: &str, os: Vec<Obj>) -> Self {
        self.0.push((key.to_string(), Value::Array(os.into_iter().map(Obj::into_value).collect())));
        self
    }

    pub fn into_value(self) -> Value {
        Value::Object(self.0)
    }
}

/// Digests are printed as fixed-width hex so the checker compares strings.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// FNV-1a 64 of a value's JSON form (the workspace's own checksum).
pub fn digest_of<T: serde::Serialize + ?Sized>(v: &T) -> u64 {
    let json = serde_json::to_string(v).expect("tree-shaped data serializes");
    rl::ckpt::fnv1a64(json.as_bytes())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
