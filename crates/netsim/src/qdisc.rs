//! Pluggable queue disciplines for the shared bottleneck.
//!
//! The multi-flow engine consults a [`QDisc`] before every enqueue. The
//! discipline sees only the instantaneous backlog, the configured
//! capacity and the arriving packet's size, and returns a [`Verdict`]:
//!
//! * [`DropTail`] — FIFO drop-tail, byte-for-byte the legacy single-flow
//!   behavior (drop iff `backlog + size > capacity`). Never consults the
//!   RNG, so wiring it through the qdisc layer cannot perturb legacy
//!   trajectories.
//! * [`Red`] — RED-style probabilistic early drop: an EWMA of the backlog
//!   maps linearly from 0 at `min_th` to `max_p` at `max_th` (hard drop
//!   above `max_th` or on physical overflow).
//! * [`DctcpEcn`] — DCTCP-style marking: arrivals are ECN-marked whenever
//!   the instantaneous backlog exceeds the step threshold `K`; the mark is
//!   echoed on the ACK (`AckEvent::ecn`) so ECN-aware controllers can
//!   react without losing the packet.
//!
//! Disciplines draw randomness only from the engine's dedicated qdisc RNG
//! stream, never from the per-flow loss RNGs — AQM randomization cannot
//! shift any flow's iid loss draws.

use rand::rngs::StdRng;
use rand::Rng;

/// What the discipline decided for one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Enqueue unmodified.
    Enqueue,
    /// Enqueue with the ECN Congestion-Experienced bit set.
    Mark,
    /// Drop at the bottleneck (counted as an overflow loss).
    Drop,
}

/// A queue discipline at the shared bottleneck.
///
/// `admit` is called once per arriving packet *before* it is enqueued,
/// with the pre-arrival backlog. Implementations must be deterministic
/// given their own state and the supplied RNG.
pub trait QDisc: Send {
    /// Short name ("droptail", "red", "dctcp") for labels and CSVs.
    fn name(&self) -> &'static str;

    /// Decide the fate of a `pkt_bytes`-sized arrival given the current
    /// backlog and configured capacity (both bytes).
    fn admit(
        &mut self,
        queue_bytes: usize,
        capacity_bytes: usize,
        pkt_bytes: usize,
        rng: &mut StdRng,
    ) -> Verdict;
}

/// FIFO drop-tail: the legacy behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropTail;

impl DropTail {
    pub fn new() -> DropTail {
        DropTail
    }
}

impl QDisc for DropTail {
    fn name(&self) -> &'static str {
        "droptail"
    }

    fn admit(
        &mut self,
        queue_bytes: usize,
        capacity_bytes: usize,
        pkt_bytes: usize,
        _rng: &mut StdRng,
    ) -> Verdict {
        // exact legacy comparison (Queue::push)
        if queue_bytes + pkt_bytes > capacity_bytes {
            Verdict::Drop
        } else {
            Verdict::Enqueue
        }
    }
}

/// RED-style probabilistic early drop (Floyd & Jacobson 1993, simplified:
/// no idle-time compensation, byte-mode thresholds as capacity fractions).
#[derive(Debug, Clone)]
pub struct Red {
    /// EWMA weight for the average-backlog estimate.
    pub weight: f64,
    /// Lower threshold as a fraction of capacity: below it, never drop.
    pub min_frac: f64,
    /// Upper threshold as a fraction of capacity: above it, always drop.
    pub max_frac: f64,
    /// Drop probability at the upper threshold.
    pub max_p: f64,
    avg_bytes: f64,
}

impl Red {
    pub fn new() -> Red {
        Red { weight: 0.002, min_frac: 0.15, max_frac: 0.5, max_p: 0.1, avg_bytes: 0.0 }
    }
}

impl Default for Red {
    fn default() -> Self {
        Red::new()
    }
}

impl QDisc for Red {
    fn name(&self) -> &'static str {
        "red"
    }

    fn admit(
        &mut self,
        queue_bytes: usize,
        capacity_bytes: usize,
        pkt_bytes: usize,
        rng: &mut StdRng,
    ) -> Verdict {
        if queue_bytes + pkt_bytes > capacity_bytes {
            return Verdict::Drop; // physical overflow
        }
        self.avg_bytes = (1.0 - self.weight) * self.avg_bytes + self.weight * queue_bytes as f64;
        let min_th = self.min_frac * capacity_bytes as f64;
        let max_th = self.max_frac * capacity_bytes as f64;
        if self.avg_bytes < min_th {
            Verdict::Enqueue
        } else if self.avg_bytes >= max_th {
            Verdict::Drop
        } else {
            let p = self.max_p * (self.avg_bytes - min_th) / (max_th - min_th);
            if rng.gen::<f64>() < p {
                Verdict::Drop
            } else {
                Verdict::Enqueue
            }
        }
    }
}

/// DCTCP-style ECN marking (Alizadeh et al. 2010): a single step threshold
/// `K`; arrivals with the instantaneous backlog at or above it are marked.
#[derive(Debug, Clone)]
pub struct DctcpEcn {
    /// Marking threshold `K` as a fraction of capacity.
    pub k_frac: f64,
}

impl DctcpEcn {
    pub fn new() -> DctcpEcn {
        DctcpEcn { k_frac: 0.2 }
    }
}

impl Default for DctcpEcn {
    fn default() -> Self {
        DctcpEcn::new()
    }
}

impl QDisc for DctcpEcn {
    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn admit(
        &mut self,
        queue_bytes: usize,
        capacity_bytes: usize,
        pkt_bytes: usize,
        _rng: &mut StdRng,
    ) -> Verdict {
        if queue_bytes + pkt_bytes > capacity_bytes {
            Verdict::Drop // ECN marks congestion, but a full queue still drops
        } else if queue_bytes as f64 >= self.k_frac * capacity_bytes as f64 {
            Verdict::Mark
        } else {
            Verdict::Enqueue
        }
    }
}

/// The built-in disciplines, nameable from CLI/env strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QdiscKind {
    DropTail,
    Red,
    DctcpEcn,
}

impl QdiscKind {
    pub const ALL: [QdiscKind; 3] = [QdiscKind::DropTail, QdiscKind::Red, QdiscKind::DctcpEcn];

    pub fn parse(s: &str) -> Result<QdiscKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "droptail" | "fifo" => Ok(QdiscKind::DropTail),
            "red" => Ok(QdiscKind::Red),
            "dctcp" | "ecn" => Ok(QdiscKind::DctcpEcn),
            other => Err(format!("unknown qdisc {other:?} (expected droptail|red|dctcp)")),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            QdiscKind::DropTail => "droptail",
            QdiscKind::Red => "red",
            QdiscKind::DctcpEcn => "dctcp",
        }
    }

    pub fn build(&self) -> Box<dyn QDisc> {
        match self {
            QdiscKind::DropTail => Box::new(DropTail::new()),
            QdiscKind::Red => Box::new(Red::new()),
            QdiscKind::DctcpEcn => Box::new(DctcpEcn::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn droptail_matches_legacy_comparison() {
        let mut q = DropTail::new();
        let mut r = rng();
        assert_eq!(q.admit(0, 3000, 1500, &mut r), Verdict::Enqueue);
        assert_eq!(q.admit(1500, 3000, 1500, &mut r), Verdict::Enqueue, "exactly full fits");
        assert_eq!(q.admit(1501, 3000, 1500, &mut r), Verdict::Drop);
    }

    #[test]
    fn red_never_drops_below_min_threshold() {
        let mut q = Red::new();
        let mut r = rng();
        for _ in 0..1000 {
            assert_eq!(q.admit(0, 150_000, 1500, &mut r), Verdict::Enqueue);
        }
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let mut q = Red::new();
        let mut r = rng();
        // drive the EWMA up to ~40% of capacity (between 15% and 50%)
        let backlog = 60_000;
        let mut drops = 0;
        for _ in 0..20_000 {
            if q.admit(backlog, 150_000, 1500, &mut r) == Verdict::Drop {
                drops += 1;
            }
        }
        assert!(drops > 0, "RED must early-drop with a standing queue");
        assert!(drops < 10_000, "but only probabilistically: {drops}/20000");
    }

    #[test]
    fn red_always_drops_on_overflow() {
        let mut q = Red::new();
        let mut r = rng();
        assert_eq!(q.admit(150_000, 150_000, 1500, &mut r), Verdict::Drop);
    }

    #[test]
    fn dctcp_marks_above_threshold_and_drops_on_overflow() {
        let mut q = DctcpEcn::new();
        let mut r = rng();
        assert_eq!(q.admit(0, 150_000, 1500, &mut r), Verdict::Enqueue);
        assert_eq!(q.admit(29_999, 150_000, 1500, &mut r), Verdict::Enqueue);
        assert_eq!(q.admit(30_000, 150_000, 1500, &mut r), Verdict::Mark, "K = 20% of capacity");
        assert_eq!(q.admit(149_000, 150_000, 1500, &mut r), Verdict::Drop);
    }

    #[test]
    fn kind_parse_and_labels_roundtrip() {
        for kind in QdiscKind::ALL {
            assert_eq!(QdiscKind::parse(kind.label()).unwrap(), kind);
            assert_eq!(kind.build().name(), kind.label());
        }
        assert_eq!(QdiscKind::parse("ECN").unwrap(), QdiscKind::DctcpEcn);
        assert!(QdiscKind::parse("codel").is_err());
    }
}
