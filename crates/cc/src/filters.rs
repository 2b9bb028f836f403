//! Windowed max/min filters — the estimators at the heart of BBR.
//!
//! BBR's exploitable weakness (per the paper) is precisely that these
//! filters are updated by *infrequent probing*: BtlBw is a windowed
//! maximum over ~10 round trips, RTprop a windowed minimum over 10
//! seconds. An adversary that degrades the link only while the filters are
//! sampling leaves BBR with a stale, pessimistic model for the next ten
//! seconds.

use std::collections::VecDeque;

/// Maximum over a sliding window keyed by an arbitrary monotone axis
/// (round count for BtlBw).
#[derive(Debug, Clone, Default)]
pub struct WindowedMax {
    /// Monotone-decreasing values with their keys.
    samples: VecDeque<(f64, f64)>,
    window: f64,
}

impl WindowedMax {
    /// `window` in key units (e.g. 10 rounds).
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0);
        WindowedMax { samples: VecDeque::new(), window }
    }

    /// Insert `(key, value)`; keys must be non-decreasing.
    pub fn update(&mut self, key: f64, value: f64) {
        while let Some(&(_, back)) = self.samples.back() {
            if back <= value {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((key, value));
        self.expire(key);
    }

    fn expire(&mut self, now_key: f64) {
        while let Some(&(k, _)) = self.samples.front() {
            if k < now_key - self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current windowed maximum (None before any sample).
    pub fn get(&self) -> Option<f64> {
        self.samples.front().map(|&(_, v)| v)
    }
}

/// Minimum over a sliding window (time axis for RTprop).
#[derive(Debug, Clone, Default)]
pub struct WindowedMin {
    samples: VecDeque<(f64, f64)>,
    window: f64,
}

impl WindowedMin {
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0);
        WindowedMin { samples: VecDeque::new(), window }
    }

    pub fn update(&mut self, key: f64, value: f64) {
        while let Some(&(_, back)) = self.samples.back() {
            if back >= value {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((key, value));
        self.expire(key);
    }

    fn expire(&mut self, now_key: f64) {
        while let Some(&(k, _)) = self.samples.front() {
            if k < now_key - self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    pub fn get(&self) -> Option<f64> {
        self.samples.front().map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_tracks_peak_until_expiry() {
        let mut f = WindowedMax::new(10.0);
        f.update(0.0, 5.0);
        f.update(1.0, 9.0);
        f.update(2.0, 3.0);
        assert_eq!(f.get(), Some(9.0));
        // peak expires once the window slides past key 1.0
        f.update(11.5, 4.0);
        assert_eq!(f.get(), Some(4.0));
    }

    #[test]
    fn min_tracks_floor_until_expiry() {
        let mut f = WindowedMin::new(10.0);
        f.update(0.0, 0.050);
        f.update(1.0, 0.020);
        f.update(2.0, 0.080);
        assert_eq!(f.get(), Some(0.020));
        f.update(12.0, 0.060);
        assert_eq!(f.get(), Some(0.060));
    }

    #[test]
    fn empty_filters_return_none() {
        assert_eq!(WindowedMax::new(1.0).get(), None);
        assert_eq!(WindowedMin::new(1.0).get(), None);
    }

    #[test]
    fn max_monotone_queue_bounded() {
        let mut f = WindowedMax::new(100.0);
        for i in 0..1000 {
            f.update(i as f64, (i % 7) as f64);
        }
        // monotone deque can hold at most the distinct descending run
        assert!(f.samples.len() <= 8);
        assert_eq!(f.get(), Some(6.0));
    }
}
