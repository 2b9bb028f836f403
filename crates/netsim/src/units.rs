//! Typed simulation units: [`Bytes`], [`Nanosecs`] and [`BitsPerSec`].
//!
//! The original simulator let raw `f64` seconds and bit-rates leak through
//! the `CongestionControl` trait into `cc` and `adversary`, where a
//! milliseconds value passed as seconds (or Mbit/s as bit/s) compiles
//! silently. These newtypes make the unit part of the type:
//!
//! * [`Bytes`] — a byte count (`u64`) with **checked** arithmetic: `+`/`-`
//!   panic on wrap instead of producing a silently huge inflight counter.
//! * [`Nanosecs`] — a duration or timestamp in integer nanoseconds,
//!   interchangeable with the crate's [`Time`] alias but not
//!   with bare integers; also checked.
//! * [`BitsPerSec`] — a rate, validated finite and non-negative at
//!   construction so a NaN pacing rate fails at the boundary rather than
//!   propagating through pacing-gap arithmetic.
//!
//! Conversion formulas are bit-for-bit identical to the `f64` expressions
//! the legacy engine used (same operation order), so moving a code path
//! onto typed units never perturbs a trajectory — the single-flow
//! equivalence suite relies on this.

use crate::{to_secs, Time, SEC};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A byte count with checked arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    #[inline]
    pub const fn new(n: u64) -> Bytes {
        Bytes(n)
    }

    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub fn checked_add(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_add(rhs.0).map(Bytes)
    }

    #[inline]
    pub fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_sub(rhs.0).map(Bytes)
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        self.checked_add(rhs).expect("byte count overflow")
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        self.checked_sub(rhs).expect("byte count underflow")
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

/// A timestamp or duration in integer nanoseconds, with checked arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanosecs(Time);

impl Nanosecs {
    pub const ZERO: Nanosecs = Nanosecs(0);

    #[inline]
    pub const fn new(ns: Time) -> Nanosecs {
        Nanosecs(ns)
    }

    #[inline]
    pub const fn get(self) -> Time {
        self.0
    }

    /// Same rounding as [`crate::from_secs`].
    #[inline]
    pub fn from_secs_f64(s: f64) -> Nanosecs {
        Nanosecs((s * SEC as f64).round() as Time)
    }

    /// Same division as [`crate::to_secs`].
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        to_secs(self.0)
    }

    #[inline]
    pub fn checked_add(self, rhs: Nanosecs) -> Option<Nanosecs> {
        self.0.checked_add(rhs.0).map(Nanosecs)
    }

    #[inline]
    pub fn checked_sub(self, rhs: Nanosecs) -> Option<Nanosecs> {
        self.0.checked_sub(rhs.0).map(Nanosecs)
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Nanosecs) -> Nanosecs {
        Nanosecs(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanosecs {
    type Output = Nanosecs;
    #[inline]
    fn add(self, rhs: Nanosecs) -> Nanosecs {
        self.checked_add(rhs).expect("time overflow")
    }
}

impl AddAssign for Nanosecs {
    #[inline]
    fn add_assign(&mut self, rhs: Nanosecs) {
        *self = *self + rhs;
    }
}

impl Sub for Nanosecs {
    type Output = Nanosecs;
    #[inline]
    fn sub(self, rhs: Nanosecs) -> Nanosecs {
        self.checked_sub(rhs).expect("time underflow")
    }
}

impl fmt::Display for Nanosecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

/// A bit-rate, validated finite and non-negative at construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitsPerSec(f64);

impl BitsPerSec {
    pub const ZERO: BitsPerSec = BitsPerSec(0.0);

    #[inline]
    pub fn from_bps(bps: f64) -> BitsPerSec {
        assert!(bps.is_finite() && bps >= 0.0, "rate must be finite and non-negative: {bps}");
        BitsPerSec(bps)
    }

    #[inline]
    pub fn from_mbps(mbps: f64) -> BitsPerSec {
        BitsPerSec::from_bps(mbps * 1e6)
    }

    #[inline]
    pub fn bps(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Time to put `bytes` on the wire at this rate — the same expression
    /// (and therefore the same `f64` rounding) as the legacy serialization
    /// and pacing-gap computations.
    #[inline]
    pub fn time_to_send(self, bytes: Bytes) -> Nanosecs {
        Nanosecs(((bytes.get() as f64 * 8.0 / self.0) * SEC as f64).round() as Time)
    }
}

impl fmt::Display for BitsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} Mbit/s", self.mbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MS;

    #[test]
    fn bytes_checked_arithmetic() {
        let a = Bytes::new(1500);
        assert_eq!((a + Bytes::new(500)).get(), 2000);
        assert_eq!((a - Bytes::new(1500)), Bytes::ZERO);
        assert_eq!(Bytes::new(3).saturating_sub(Bytes::new(10)), Bytes::ZERO);
        assert!(Bytes::new(u64::MAX).checked_add(Bytes::new(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "byte count underflow")]
    fn bytes_underflow_panics() {
        let _ = Bytes::new(1) - Bytes::new(2);
    }

    #[test]
    fn nanosecs_second_conversions_match_free_functions() {
        let t = Nanosecs::from_secs_f64(1.5);
        assert_eq!(t.get(), crate::from_secs(1.5));
        assert_eq!(t.as_secs_f64().to_bits(), crate::to_secs(t.get()).to_bits());
    }

    #[test]
    #[should_panic(expected = "time overflow")]
    fn nanosecs_overflow_panics() {
        let _ = Nanosecs::new(u64::MAX) + Nanosecs::new(1);
    }

    #[test]
    fn rate_construction_and_conversions() {
        let r = BitsPerSec::from_mbps(12.0);
        assert_eq!(r.bps(), 12e6);
        assert_eq!(r.mbps(), 12.0);
        // 1500 B at 12 Mbit/s = exactly 1 ms, same as LinkParams
        assert_eq!(r.time_to_send(Bytes::new(1500)).get(), MS);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rate_rejected() {
        let _ = BitsPerSec::from_bps(f64::NAN);
    }

    #[test]
    fn time_to_send_matches_legacy_pacing_gap_expression() {
        // the legacy pacer computed
        //   (size as f64 * 8.0 / pacing * SEC as f64).round() as Time
        // bit-identical operation order is the contract here
        for (size, pacing) in [(1500_u64, 997_331.7_f64), (64, 1e3), (9000, 23.7e6)] {
            let legacy = (size as f64 * 8.0 / pacing * SEC as f64).round() as Time;
            let typed = BitsPerSec::from_bps(pacing).time_to_send(Bytes::new(size)).get();
            assert_eq!(legacy, typed, "size {size} pacing {pacing}");
        }
    }
}
