//! The rewrite's equivalence contract, protocol by protocol.
//!
//! [`FlowSim`] is now a thin wrapper over a 1-flow `MultiFlowSim`; the
//! engine it replaced is preserved verbatim in
//! `crates/netsim/tests/oracle/reference.rs`, included below. For
//! every shipped protocol, over random adversarial link schedules, the two
//! must produce *bit-identical* trajectories — same interval statistics,
//! same smoothed RTT, same clock, packet for packet. Any divergence means
//! the multi-flow generalization changed single-flow semantics, which is
//! exactly the regression this suite exists to catch.
//!
//! Three suites:
//!
//! * Table-1 schedules — the adversary's own action box, where timeouts
//!   are rare.
//! * RTO-forcing schedules — blackouts, near-zero bandwidth, a deep queue
//!   and an `srtt` collapse followed by a blackout. A collapse shrinks the
//!   RTO, so a later arming's deadline lands *before* checks already
//!   queued; an engine that fires that arming late diverges here.
//! * Grid-aligned schedules — every bandwidth, latency and fixed sender
//!   rate is a whole number of nanoseconds per packet, so one flow's
//!   sends, ACKs and timer deadlines coincide. Same-instant events are
//!   ordered by per-flow event seq, so an engine that lets the wrong
//!   same-instant arming act, or renumbers a timer, diverges here.
//!
//! The last two wrap every sender in an [`RtoCounter`], compare the two
//! engines' timeout counts after every interval, and assert that timeouts
//! fired at all.

// The oracle is shared with another suite; neither drives all of it.
#[allow(dead_code)]
#[path = "../../netsim/tests/oracle/reference.rs"]
mod reference;

use cc::{Bbr, Copa, Cubic, Reno, Vivace};
use netsim::{
    AckEvent, BitsPerSec, CongestionControl, FixedRateCc, FlowSim, IntervalStats, LinkParams,
    Nanosecs, SimConfig, MS,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::RefFlowSim;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn make(protocol: usize) -> (&'static str, Box<dyn CongestionControl>) {
    match protocol {
        0 => ("bbr", Box::new(Bbr::new())),
        1 => ("cubic", Box::new(Cubic::new())),
        2 => ("reno", Box::new(Reno::new())),
        3 => ("copa", Box::new(Copa::new())),
        _ => ("vivace", Box::new(Vivace::new())),
    }
}

/// Bit-exact signature of one interval (floats as bits).
fn sig(s: &IntervalStats) -> Vec<u64> {
    vec![
        s.duration_s.to_bits(),
        s.delivered_bytes,
        s.capacity_bytes.to_bits(),
        s.utilization.to_bits(),
        s.throughput_mbps.to_bits(),
        s.avg_rtt_ms.to_bits(),
        s.avg_queue_delay_ms.to_bits(),
        s.packets_sent,
        s.packets_delivered,
        s.packets_lost_random,
        s.packets_lost_overflow,
    ]
}

/// Forwards every call to `inner` and counts `on_rto`.
struct RtoCounter {
    inner: Box<dyn CongestionControl>,
    rtos: Arc<AtomicU64>,
}

impl CongestionControl for RtoCounter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_ack(&mut self, ack: &AckEvent) {
        self.inner.on_ack(ack)
    }
    fn on_loss(&mut self, lost: usize, now: Nanosecs) {
        self.inner.on_loss(lost, now)
    }
    fn on_rto(&mut self, now: Nanosecs) {
        self.rtos.fetch_add(1, Ordering::Relaxed);
        self.inner.on_rto(now)
    }
    fn pacing_rate(&self) -> BitsPerSec {
        self.inner.pacing_rate()
    }
    fn cwnd_packets(&self) -> f64 {
        self.inner.cwnd_packets()
    }
}

/// The engine under test and the reference, driven in lockstep over one
/// link schedule, each sender behind an [`RtoCounter`].
struct Lockstep {
    new_sim: FlowSim,
    ref_sim: RefFlowSim,
    new_rtos: Arc<AtomicU64>,
    ref_rtos: Arc<AtomicU64>,
}

impl Lockstep {
    fn new(sender: impl Fn() -> Box<dyn CongestionControl>, seed: u64) -> Lockstep {
        let (new_rtos, ref_rtos) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let start = LinkParams::new(12.0, 30.0, 0.0);
        let counted = |rtos: &Arc<AtomicU64>| -> Box<dyn CongestionControl> {
            Box::new(RtoCounter { inner: sender(), rtos: Arc::clone(rtos) })
        };
        Lockstep {
            new_sim: FlowSim::new(counted(&new_rtos), start, cfg.clone()),
            ref_sim: RefFlowSim::new(counted(&ref_rtos), start, cfg),
            new_rtos,
            ref_rtos,
        }
    }

    /// Hold `p` for `intervals` 30 ms intervals; both engines must agree
    /// after every one.
    fn hold(&mut self, p: LinkParams, intervals: usize) -> Result<(), TestCaseError> {
        self.new_sim.set_link(p);
        self.ref_sim.set_link(p);
        for _ in 0..intervals {
            let a = self.new_sim.run_for(30 * MS);
            let b = self.ref_sim.run_for(30 * MS);
            prop_assert_eq!(sig(&a), sig(&b));
            prop_assert_eq!(self.new_sim.srtt_s().to_bits(), self.ref_sim.srtt_s().to_bits());
            prop_assert_eq!(self.new_sim.now(), self.ref_sim.now());
            prop_assert_eq!(self.new_sim.inflight_bytes(), self.ref_sim.inflight_bytes());
            prop_assert_eq!(self.new_sim.queue_bytes(), self.ref_sim.queue_bytes());
            prop_assert_eq!(self.rtos(), self.ref_rtos.load(Ordering::Relaxed));
        }
        Ok(())
    }

    /// Timeouts the engine under test has fired so far.
    fn rtos(&self) -> u64 {
        self.new_rtos.load(Ordering::Relaxed)
    }
}

/// Timeouts fired over all cases of each lockstep suite; each suite
/// asserts its own total is positive, i.e. it exercised live timers.
static RTO_FORCING_RTOS: AtomicU64 = AtomicU64::new(0);
static GRID_ALIGNED_RTOS: AtomicU64 = AtomicU64::new(0);

/// One RTO-forcing schedule segment from a kind and four unit draws, as
/// `(link, intervals held)` pairs (a collapse is two).
fn rto_forcing_segment(kind: usize, a: f64, b: f64, c: f64, h: f64) -> Vec<(LinkParams, usize)> {
    let table1 = LinkParams::new(6.0 + 18.0 * a, 15.0 + 45.0 * b, 0.10 * c);
    // a blackout: loss 0.5–1.0 held 0.3–1.8 s (10–60 intervals)
    let blackout =
        |bw: f64, lat: f64| (LinkParams::new(bw, lat, 0.5 + 0.5 * c), 10 + (50.0 * h) as usize);
    match kind {
        0 => vec![(table1, 5 + (15.0 * h) as usize)],
        1 => vec![blackout(table1.bandwidth_mbps, table1.latency_ms)],
        2 => vec![(
            LinkParams::new(0.02 + 0.48 * a, 15.0 + 45.0 * b, 0.10 * c),
            5 + (35.0 * h) as usize,
        )],
        3 => vec![(LinkParams::new(6.0, 60.0, 0.0), 10 + (30.0 * h) as usize)],
        _ => {
            vec![(LinkParams::new(24.0, 15.0, 0.0), 2 + (10.0 * a) as usize), blackout(24.0, 15.0)]
        }
    }
}

/// Grid values: 1500-byte serialization at each bandwidth, each latency
/// and each fixed sender's pacing gap is a whole number of nanoseconds.
const GRID_BW_MBPS: [f64; 6] = [0.048, 0.096, 0.5, 6.0, 12.0, 24.0];
const GRID_LATENCY_MS: [f64; 7] = [0.0, 5.0, 15.0, 20.0, 30.0, 60.0, 125.0];
const GRID_LOSS: [f64; 3] = [0.0, 0.05, 1.0];
const GRID_RATE_BPS: [f64; 6] = [48e3, 96e3, 1.5e6, 6e6, 12e6, 24e6];
const GRID_CWND: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 8.0, 64.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_protocol_is_bit_identical_to_the_legacy_engine(
        protocol in 0_usize..5,
        seed in 0_u64..10_000,
        segs in proptest::collection::vec(
            (6.0_f64..24.0, 15.0_f64..60.0, 0.0_f64..0.10), 2..8),
    ) {
        let (_name, cc_new) = make(protocol);
        let (_, cc_ref) = make(protocol);
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let start = LinkParams::new(12.0, 30.0, 0.0);
        let mut new_sim = FlowSim::new(cc_new, start, cfg.clone());
        let mut ref_sim = RefFlowSim::new(cc_ref, start, cfg);
        for &(bw, lat, loss) in segs.iter() {
            let p = LinkParams::new(bw, lat, loss);
            new_sim.set_link(p);
            ref_sim.set_link(p);
            // hold each adversary segment for 10 paper-granularity intervals
            for _ in 0..10 {
                let a = new_sim.run_for(30 * MS);
                let b = ref_sim.run_for(30 * MS);
                prop_assert_eq!(sig(&a), sig(&b));
                prop_assert_eq!(new_sim.srtt_s().to_bits(), ref_sim.srtt_s().to_bits());
                prop_assert_eq!(new_sim.now(), ref_sim.now());
                prop_assert_eq!(new_sim.inflight_bytes(), ref_sim.inflight_bytes());
                prop_assert_eq!(new_sim.queue_bytes(), ref_sim.queue_bytes());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    fn rto_forcing_cases(
        protocol in 0_usize..5,
        seed in 0_u64..10_000,
        segs in proptest::collection::vec(
            (0_usize..5, 0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 2..8),
    ) {
        let mut sims = Lockstep::new(|| make(protocol).1, seed);
        for &(kind, a, b, c, h) in &segs {
            for (p, intervals) in rto_forcing_segment(kind, a, b, c, h) {
                sims.hold(p, intervals)?;
            }
        }
        RTO_FORCING_RTOS.fetch_add(sims.rtos(), Ordering::Relaxed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    fn grid_aligned_cases(
        sender in 0_usize..10,
        rate_i in 0_usize..6,
        cwnd_i in 0_usize..6,
        seed in 0_u64..10_000,
        segs in proptest::collection::vec((0_usize..6, 0_usize..7, 0_usize..3, 1_usize..41), 1..6),
    ) {
        // half the cases run a protocol, half a grid-paced fixed sender
        let mut sims = Lockstep::new(
            || match sender {
                0..=4 => make(sender).1,
                _ => Box::new(FixedRateCc { rate_bps: GRID_RATE_BPS[rate_i], cwnd: GRID_CWND[cwnd_i] }),
            },
            seed,
        );
        for &(bw, lat, loss, intervals) in &segs {
            let p = LinkParams::new(GRID_BW_MBPS[bw], GRID_LATENCY_MS[lat], GRID_LOSS[loss]);
            sims.hold(p, intervals)?;
        }
        GRID_ALIGNED_RTOS.fetch_add(sims.rtos(), Ordering::Relaxed);
    }
}

#[test]
fn rto_forcing_schedules_are_bit_identical_to_the_legacy_engine() {
    rto_forcing_cases();
    let rtos = RTO_FORCING_RTOS.load(Ordering::Relaxed);
    assert!(rtos > 0, "the RTO-forcing suite fired no timeouts");
}

#[test]
fn grid_aligned_schedules_are_bit_identical_to_the_legacy_engine() {
    grid_aligned_cases();
    let rtos = GRID_ALIGNED_RTOS.load(Ordering::Relaxed);
    assert!(rtos > 0, "the grid-aligned suite fired no timeouts");
}
