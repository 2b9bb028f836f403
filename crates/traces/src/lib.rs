//! Network traces: the common data format of the adversarial framework.
//!
//! A *trace* is a time-ordered list of network conditions — bandwidth,
//! latency, loss — exactly as the paper defines it ("a time-ordered list of
//! network conditions like bandwidth, latency and loss rate"). Traces are
//! what the adversary outputs, what protocols are replayed against, and what
//! training corpora are made of.
//!
//! The paper trains and tests on two public datasets we cannot ship:
//! the FCC "Measuring Broadband America" traces and the Norway 3G/HSDPA
//! commute traces. [`gen`] provides synthetic generators reproducing their
//! gross statistics (see DESIGN.md §5 for the substitution argument);
//! [`io`] reads/writes trace sets as JSON so generated corpora and
//! adversarial traces can be persisted and replayed.

pub mod cursor;
pub mod gen;
pub mod io;
pub mod stats;

pub use cursor::TraceCursor;
pub use gen::{
    adversarial_like, fcc_like, hsdpa_like, random_abr_trace, random_cc_trace, GenConfig,
    TraceFamily, TraceStream,
};
pub use stats::TraceStats;

use serde::{Deserialize, Serialize};

/// FNV-1a 64 offset basis (the same constants as `telemetry::fnv1a64`,
/// which `rl::ckpt` re-exports; kept local so `traces` stays a leaf crate).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Feed `bytes` into a running FNV-1a 64 state.
fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One piecewise-constant span of network conditions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// How long these conditions hold, in seconds.
    pub duration_s: f64,
    /// Link bandwidth in Mbit/s.
    pub bandwidth_mbps: f64,
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
    /// Independent random loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

impl Segment {
    /// Constant-conditions segment with zero loss, convenience for ABR
    /// traces where only bandwidth varies.
    pub fn bw(duration_s: f64, bandwidth_mbps: f64, latency_ms: f64) -> Self {
        Segment { duration_s, bandwidth_mbps, latency_ms, loss_rate: 0.0 }
    }
}

/// A named time-ordered list of [`Segment`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub name: String,
    pub segments: Vec<Segment>,
}

impl Trace {
    pub fn new(name: impl Into<String>, segments: Vec<Segment>) -> Self {
        let t = Trace { name: name.into(), segments };
        t.validate();
        t
    }

    /// Total duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.iter().map(|s| s.duration_s).sum()
    }

    /// Panics if any segment is non-physical (negative duration/bandwidth,
    /// loss outside `[0, 1]`). See [`Trace::try_validate`] for the
    /// non-panicking variant used when loading untrusted files.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }

    /// Check every segment for physical plausibility, returning a
    /// descriptive error naming the trace and offending segment. Rejects
    /// empty traces, non-finite values anywhere, non-positive durations
    /// and bandwidths, negative latencies, and loss outside `[0, 1]`.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err(format!("trace {:?} has no segments", self.name));
        }
        let seg_err = |i: usize, what: &str, v: f64| {
            Err(format!("trace {:?} segment {i}: {what} ({v})", self.name))
        };
        for (i, s) in self.segments.iter().enumerate() {
            if !s.duration_s.is_finite() {
                return seg_err(i, "non-finite duration", s.duration_s);
            }
            if s.duration_s <= 0.0 {
                return seg_err(i, "non-positive duration", s.duration_s);
            }
            if !s.bandwidth_mbps.is_finite() {
                return seg_err(i, "non-finite bandwidth", s.bandwidth_mbps);
            }
            if s.bandwidth_mbps <= 0.0 {
                return seg_err(i, "non-positive bandwidth", s.bandwidth_mbps);
            }
            if !s.latency_ms.is_finite() {
                return seg_err(i, "non-finite latency", s.latency_ms);
            }
            if s.latency_ms < 0.0 {
                return seg_err(i, "negative latency", s.latency_ms);
            }
            if !s.loss_rate.is_finite() {
                return seg_err(i, "non-finite loss rate", s.loss_rate);
            }
            if !(0.0..=1.0).contains(&s.loss_rate) {
                return seg_err(i, "loss outside [0,1]", s.loss_rate);
            }
        }
        Ok(())
    }

    /// Stable FNV-1a 64 hash of the trace **content**: every segment's
    /// four fields as little-endian `f64` bit patterns, in order. The
    /// name is deliberately excluded — two traces describing identical
    /// network conditions hash equally no matter what they were called,
    /// which is what pool deduplication and evaluation-cache keys want.
    ///
    /// Same algorithm and constants as the telemetry manifest / `rl::ckpt`
    /// checksums (FNV-1a 64), so one hash discipline covers the whole
    /// workspace; stable across runs, hosts, and compiler versions
    /// because it is defined on the `f64` bit patterns, never on any
    /// serialized text form.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for s in &self.segments {
            for v in [s.duration_s, s.bandwidth_mbps, s.latency_ms, s.loss_rate] {
                h = fnv1a64_update(h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The bandwidth in effect at time `t` seconds from the start. Times
    /// past the end wrap around (traces are replayed cyclically, as in the
    /// Pensieve simulator).
    pub fn bandwidth_at(&self, t: f64) -> f64 {
        let total = self.duration_s();
        let mut t = t % total;
        if t < 0.0 {
            t += total;
        }
        for s in &self.segments {
            if t < s.duration_s {
                return s.bandwidth_mbps;
            }
            t -= s.duration_s;
        }
        self.segments.last().expect("validated non-empty").bandwidth_mbps
    }

    /// Mean bandwidth weighted by segment duration.
    pub fn mean_bandwidth(&self) -> f64 {
        let total = self.duration_s();
        self.segments.iter().map(|s| s.bandwidth_mbps * s.duration_s).sum::<f64>() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Trace {
        Trace::new("t", vec![Segment::bw(2.0, 1.0, 40.0), Segment::bw(3.0, 4.0, 40.0)])
    }

    #[test]
    fn duration_and_mean() {
        let t = simple();
        assert!((t.duration_s() - 5.0).abs() < 1e-12);
        assert!((t.mean_bandwidth() - (2.0 * 1.0 + 3.0 * 4.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_lookup_and_wrap() {
        let t = simple();
        assert_eq!(t.bandwidth_at(0.0), 1.0);
        assert_eq!(t.bandwidth_at(1.99), 1.0);
        assert_eq!(t.bandwidth_at(2.01), 4.0);
        assert_eq!(t.bandwidth_at(5.5), 1.0, "wraps cyclically");
    }

    #[test]
    #[should_panic(expected = "non-positive bandwidth")]
    fn validation_rejects_zero_bandwidth() {
        Trace::new("bad", vec![Segment::bw(1.0, 0.0, 0.0)]);
    }

    #[test]
    fn try_validate_names_the_offending_segment() {
        let t = Trace {
            name: "n".into(),
            segments: vec![Segment::bw(1.0, 2.0, 10.0), Segment::bw(1.0, f64::NAN, 10.0)],
        };
        let msg = t.try_validate().unwrap_err();
        assert!(msg.contains("segment 1"), "{msg}");
        assert!(msg.contains("non-finite bandwidth"), "{msg}");

        let t = Trace { name: "n".into(), segments: vec![] };
        assert!(t.try_validate().unwrap_err().contains("no segments"));

        let t = Trace {
            name: "n".into(),
            segments: vec![Segment {
                duration_s: f64::INFINITY,
                bandwidth_mbps: 1.0,
                latency_ms: 0.0,
                loss_rate: 0.0,
            }],
        };
        assert!(t.try_validate().unwrap_err().contains("non-finite duration"));

        let t = Trace { name: "n".into(), segments: vec![Segment::bw(1.0, -3.0, 10.0)] };
        assert!(t.try_validate().unwrap_err().contains("non-positive bandwidth"));

        assert!(simple().try_validate().is_ok());
    }

    #[test]
    fn content_hash_ignores_names_and_sees_every_field() {
        let a = simple();
        let mut renamed = a.clone();
        renamed.name = "completely-different".into();
        assert_eq!(a.content_hash(), renamed.content_hash(), "name must not affect the hash");
        assert_eq!(a.content_hash(), a.content_hash(), "pure function of the segments");

        // every field perturbation must change the hash
        for field in 0..4 {
            let mut t = a.clone();
            let s = &mut t.segments[1];
            match field {
                0 => s.duration_s += 0.5,
                1 => s.bandwidth_mbps += 0.5,
                2 => s.latency_ms += 0.5,
                _ => s.loss_rate += 0.5,
            }
            assert_ne!(a.content_hash(), t.content_hash(), "field {field} not hashed");
        }
        // segment order matters (it changes what the trace describes)
        let mut swapped = a.clone();
        swapped.segments.swap(0, 1);
        assert_ne!(a.content_hash(), swapped.content_hash());
    }

    #[test]
    fn content_hash_uses_fnv1a64_over_bit_patterns() {
        // Cross-check against the published FNV-1a 64 algorithm applied
        // to the little-endian f64 bit patterns by hand.
        let t = Trace::new("x", vec![Segment::bw(1.0, 2.0, 3.0)]);
        let mut bytes = Vec::new();
        for v in [1.0f64, 2.0, 3.0, 0.0] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(t.content_hash(), fnv1a64_update(FNV_OFFSET, &bytes));
        // and the FNV-1a reference vectors for the helper itself
        assert_eq!(fnv1a64_update(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_update(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_update(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    #[should_panic(expected = "loss outside")]
    fn validation_rejects_bad_loss() {
        Trace::new(
            "bad",
            vec![Segment { duration_s: 1.0, bandwidth_mbps: 1.0, latency_ms: 0.0, loss_rate: 1.5 }],
        );
    }
}
