//! A cursor that walks a trace in wall-clock order, integrating downloads
//! over piecewise-constant bandwidth. This is the mechanism the ABR player
//! uses to compute chunk download times when replaying dataset traces
//! (exactly as the Pensieve simulator walks its bandwidth files).

use crate::Trace;
use std::sync::Arc;

/// Position within a (cyclically replayed) trace.
///
/// The cursor holds its trace behind an [`Arc`], so stateful sessions —
/// e.g. an RL training environment that replays a corpus — need no
/// self-referential borrows, and cloning a cursor (a fleet snapshot)
/// copies only its position.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<Trace>,
    /// Current segment index.
    idx: usize,
    /// Seconds already consumed inside the current segment.
    offset_s: f64,
    /// Total wall-clock seconds advanced since construction.
    elapsed_s: f64,
}

impl TraceCursor {
    /// Cursor at the start of the trace. An owned [`Trace`] moves in; an
    /// `Arc<Trace>` is shared, not copied.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        let trace = trace.into();
        trace.validate();
        TraceCursor { trace, idx: 0, offset_s: 0.0, elapsed_s: 0.0 }
    }

    /// Cursor starting `start_s` seconds into the trace (wrapping), as the
    /// Pensieve simulator does when it picks a random starting point.
    pub fn starting_at(trace: impl Into<Arc<Trace>>, start_s: f64) -> Self {
        let trace = trace.into();
        let dur = trace.duration_s().max(f64::MIN_POSITIVE);
        let mut c = Self::new(trace);
        c.advance_time(start_s.rem_euclid(dur));
        c.elapsed_s = 0.0;
        c
    }

    /// Bandwidth (Mbit/s) at the cursor.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.trace.segments[self.idx].bandwidth_mbps
    }

    /// One-way latency (ms) at the cursor.
    pub fn latency_ms(&self) -> f64 {
        self.trace.segments[self.idx].latency_ms
    }

    /// Loss rate at the cursor.
    pub fn loss_rate(&self) -> f64 {
        self.trace.segments[self.idx].loss_rate
    }

    /// Total seconds advanced so far.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Seconds remaining in the current segment.
    fn remaining_in_segment(&self) -> f64 {
        self.trace.segments[self.idx].duration_s - self.offset_s
    }

    fn step_segment(&mut self) {
        self.idx = (self.idx + 1) % self.trace.segments.len();
        self.offset_s = 0.0;
    }

    /// Advance the cursor by `dt` wall-clock seconds (e.g. playback sleep).
    pub fn advance_time(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot advance time backwards");
        let mut left = dt;
        self.elapsed_s += dt;
        loop {
            let rem = self.remaining_in_segment();
            if left < rem {
                self.offset_s += left;
                return;
            }
            left -= rem;
            self.step_segment();
        }
    }

    /// Download `bytes` at the trace's bandwidth starting now; advances the
    /// cursor by the transfer duration and returns that duration in seconds.
    pub fn download(&mut self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "cannot download negative bytes");
        let mut remaining_bits = bytes * 8.0;
        let mut time = 0.0;
        while remaining_bits > 0.0 {
            let rate_bps = self.bandwidth_mbps() * 1e6;
            let rem_s = self.remaining_in_segment();
            let capacity_bits = rate_bps * rem_s;
            if remaining_bits <= capacity_bits {
                let dt = remaining_bits / rate_bps;
                self.offset_s += dt;
                time += dt;
                self.elapsed_s += dt;
                remaining_bits = 0.0;
            } else {
                remaining_bits -= capacity_bits;
                time += rem_s;
                self.elapsed_s += rem_s;
                self.step_segment();
            }
        }
        time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Segment;

    fn trace() -> Trace {
        // 2 s at 8 Mbit/s, then 2 s at 2 Mbit/s
        Trace::new("t", vec![Segment::bw(2.0, 8.0, 40.0), Segment::bw(2.0, 2.0, 40.0)])
    }

    #[test]
    fn download_within_one_segment() {
        let t = trace();
        let mut c = TraceCursor::new(t);
        // 1 MB = 8 Mbit at 8 Mbit/s -> 1 s
        let dt = c.download(1_000_000.0);
        assert!((dt - 1.0).abs() < 1e-9);
        assert_eq!(c.bandwidth_mbps(), 8.0);
    }

    #[test]
    fn download_spans_segments() {
        let t = trace();
        let mut c = TraceCursor::new(t);
        // 3 MB = 24 Mbit: 16 Mbit in first 2 s, remaining 8 Mbit at 2 Mbit/s -> 4 s. Total 6 s
        // (wraps after segment 2: 2 s at 2 Mbit/s gives 4 Mbit, rest at 8 again)
        // 24 = 16 (2 s @8) + 4 (2 s @2) + 4 (0.5 s @8) -> 4.5 s
        let dt = c.download(3_000_000.0);
        assert!((dt - 4.5).abs() < 1e-9, "dt = {dt}");
        assert_eq!(c.bandwidth_mbps(), 8.0);
    }

    #[test]
    fn advance_time_wraps() {
        let t = trace();
        let mut c = TraceCursor::new(t);
        c.advance_time(3.0);
        assert_eq!(c.bandwidth_mbps(), 2.0);
        c.advance_time(1.0);
        assert_eq!(c.bandwidth_mbps(), 8.0, "wrapped to the first segment");
        assert!((c.elapsed_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn starting_offset() {
        let t = trace();
        let c = TraceCursor::starting_at(t.clone(), 2.5);
        assert_eq!(c.bandwidth_mbps(), 2.0);
        assert_eq!(c.elapsed_s(), 0.0, "elapsed time is measured from the start point");
        let c2 = TraceCursor::starting_at(t, 6.5); // wraps: 6.5 mod 4 = 2.5
        assert_eq!(c2.bandwidth_mbps(), 2.0);
    }

    #[test]
    fn a_shared_trace_is_not_copied() {
        let t = Arc::new(trace());
        let c = TraceCursor::starting_at(Arc::clone(&t), 1.0);
        let snapshot = c.clone();
        assert_eq!(Arc::strong_count(&t), 3, "the cursor and its clone share the trace");
        drop((c, snapshot));
        assert_eq!(Arc::strong_count(&t), 1);
    }

    #[test]
    fn zero_byte_download_is_instant() {
        let t = trace();
        let mut c = TraceCursor::new(t);
        assert_eq!(c.download(0.0), 0.0);
    }

    #[test]
    fn download_equals_ideal_time_on_constant_trace() {
        let t = Trace::new("c", vec![Segment::bw(100.0, 3.0, 0.0)]);
        let mut c = TraceCursor::new(t);
        let dt = c.download(750_000.0); // 6 Mbit at 3 Mbit/s
        assert!((dt - 2.0).abs() < 1e-9);
    }
}
