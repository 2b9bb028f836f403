//! Property tests for the multi-flow engine's determinism contracts.
//!
//! * N-flow runs are invariant under flow *registration order*: the engine
//!   keys every per-flow decision (event ordering, RNG streams) off the
//!   flow key, never off insertion history.
//! * The legacy single-flow wrapper ([`FlowSim`]) is bit-identical to the
//!   pre-rewrite reference engine kept in `tests/oracle/reference.rs`
//!   (included below as `reference`) — here with the fixed-rate sender;
//!   `crates/cc/tests/single_flow_equivalence.rs` covers the real
//!   protocols.
//! * There is no N-flow reference engine, so two fixed 4-flow scenarios
//!   are pinned to FNV-1a digests of their trajectories under each qdisc:
//!   a mixed-protocol one, recorded before the engine's hot path was
//!   rewritten, and a grid-aligned one whose flows' events coincide,
//!   recorded before the engine's event heap was replaced. Only the second
//!   tells apart engines that order same-instant events of different flows
//!   differently.

// The oracle is shared with another suite; neither drives all of it.
#[allow(dead_code)]
#[path = "oracle/reference.rs"]
mod reference;

use cc::{Bbr, Copa, Reno};
use netsim::{
    AckEvent, BitsPerSec, CongestionControl, FixedRateCc, FlowSim, IntervalStats, LinkParams,
    MultiFlowSim, Nanosecs, QdiscKind, SimConfig, MS,
};
use proptest::prelude::*;
use reference::RefFlowSim;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Register the same flows in forward and (rotated) shuffled order:
    /// every per-flow trajectory must match bit for bit, under every
    /// queueing discipline.
    #[test]
    fn flow_registration_order_is_irrelevant(
        seed in 0_u64..10_000,
        rot in 0_usize..4,
        rates in proptest::collection::vec(2.0_f64..14.0, 2..5),
        qdisc_i in 0_usize..3,
    ) {
        let qdisc = QdiscKind::ALL[qdisc_i];
        let params = LinkParams::new(16.0, 25.0, 0.01);
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let run = |order: Vec<usize>| {
            let mut sim = MultiFlowSim::with_qdisc(params, cfg.clone(), qdisc.build());
            for &i in &order {
                sim.add_flow(
                    i as u64,
                    Box::new(FixedRateCc { rate_bps: rates[i] * 1e6, cwnd: 64.0 }),
                );
            }
            let mut sigs = Vec::new();
            for _ in 0..10 {
                let stats = sim.run_for(30 * MS);
                for (key, s) in &stats {
                    sigs.push((*key, sig(s)));
                }
            }
            sigs.push((u64::MAX, vec![sim.queue_bytes() as u64, sim.total_events()]));
            sigs
        };
        let n = rates.len();
        let forward: Vec<usize> = (0..n).collect();
        let rotated: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        prop_assert_eq!(run(forward), run(rotated));
    }

    /// A 1-flow instance of the new engine (via the [`FlowSim`] wrapper)
    /// reproduces the legacy engine bit for bit with the fixed-rate sender
    /// over adversarially varying links.
    #[test]
    fn single_flow_wrapper_matches_reference(
        seed in 0_u64..10_000,
        rate_mbps in 1.0_f64..30.0,
        cwnd in 4.0_f64..256.0,
        segs in proptest::collection::vec(
            (6.0_f64..24.0, 15.0_f64..60.0, 0.0_f64..0.08), 2..8),
    ) {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let start = LinkParams::new(12.0, 30.0, 0.0);
        let mut new_sim = FlowSim::new(
            Box::new(FixedRateCc { rate_bps: rate_mbps * 1e6, cwnd }),
            start,
            cfg.clone(),
        );
        let mut ref_sim = RefFlowSim::new(
            Box::new(FixedRateCc { rate_bps: rate_mbps * 1e6, cwnd }),
            start,
            cfg,
        );
        for &(bw, lat, loss) in segs.iter() {
            let p = LinkParams::new(bw, lat, loss);
            new_sim.set_link(p);
            ref_sim.set_link(p);
            for _ in 0..5 {
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

/// The pinned schedule: `(bandwidth Mbit/s, latency ms, loss, 30 ms
/// intervals held)`.
const PINNED_SCHEDULE: [(f64, f64, f64, usize); 8] = [
    (12.0, 30.0, 0.0, 30),  // warm-up
    (6.0, 60.0, 0.0, 50),   // deep queue: srtt grows
    (24.0, 15.0, 0.0, 20),  // srtt collapse ...
    (24.0, 15.0, 1.0, 40),  // ... then a blackout
    (10.0, 40.0, 0.05, 30), // lossy Table-1 link
    (0.1, 30.0, 0.0, 30),   // near-zero bandwidth
    (12.0, 30.0, 0.8, 30),  // partial blackout
    (18.0, 20.0, 0.01, 30), // recovery
];

/// Digests of the pinned scenario under `QdiscKind::ALL`, in order.
const PINNED_DIGESTS: [u64; 3] =
    [0xc30b_2249_4958_755b, 0x3b8a_4e40_0d30_6422, 0x94fb_bb71_4ac7_5049];

/// Run the pinned 4-flow scenario — BBR, Reno, Copa and a cwnd-4 fixed
/// sender, none of which calls into the platform libm — and return the
/// FNV-1a digest of every per-flow interval signature, srtt and in-flight
/// count plus the queue backlog, with the number of timeouts fired.
fn pinned_scenario(qdisc: QdiscKind) -> (u64, u64) {
    let rtos = Arc::new(AtomicU64::new(0));
    let cfg = SimConfig { seed: 17, ..SimConfig::default() };
    let mut sim = MultiFlowSim::with_qdisc(LinkParams::new(12.0, 30.0, 0.0), cfg, qdisc.build());
    let senders: [Box<dyn CongestionControl>; 4] = [
        Box::new(Bbr::new()),
        Box::new(Reno::new()),
        Box::new(Copa::new()),
        Box::new(FixedRateCc { rate_bps: 3e6, cwnd: 4.0 }),
    ];
    for (key, inner) in senders.into_iter().enumerate() {
        sim.add_flow(key as u64, Box::new(RtoCounter { inner, rtos: Arc::clone(&rtos) }));
    }
    (digest_schedule(&mut sim, &PINNED_SCHEDULE), rtos.load(Ordering::Relaxed))
}

/// Drive `sim` through `schedule` and return the FNV-1a digest of every
/// per-flow interval signature, srtt and in-flight count plus the queue
/// backlog.
fn digest_schedule(sim: &mut MultiFlowSim, schedule: &[(f64, f64, f64, usize)]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for b in word.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &(bw, lat, loss, intervals) in schedule {
        sim.set_link(LinkParams::new(bw, lat, loss));
        for _ in 0..intervals {
            for (key, s) in sim.run_for(30 * MS) {
                feed(key);
                sig(&s).into_iter().for_each(&mut feed);
                feed(sim.flow_srtt_s(key).to_bits());
                feed(sim.flow_inflight_bytes(key) as u64);
            }
            feed(sim.queue_bytes() as u64);
        }
    }
    digest
}

#[test]
fn pinned_four_flow_trajectories_match_their_recorded_digests() {
    for (qdisc, want) in QdiscKind::ALL.into_iter().zip(PINNED_DIGESTS) {
        let (digest, rtos) = pinned_scenario(qdisc);
        assert!(rtos > 0, "{}: the pinned scenario fired no timeouts", qdisc.label());
        assert_eq!(
            digest,
            want,
            "{}: trajectory digest {digest:#018x} ({rtos} RTOs)",
            qdisc.label()
        );
    }
}

/// The grid-aligned schedule: every bandwidth serializes a 1 500 B packet
/// in a whole number of milliseconds or half-milliseconds and every latency
/// is whole milliseconds, so sends, service completions and ACKs of
/// different flows land on the same nanosecond.
const GRID_SCHEDULE: [(f64, f64, f64, usize); 6] = [
    (12.0, 20.0, 0.0, 40),  // 1 ms per packet, 2 ms per fixed send
    (6.0, 20.0, 0.0, 30),   // 2 ms per packet: the fixed senders alone fill it
    (24.0, 10.0, 0.0, 30),  // 0.5 ms per packet, shorter RTT
    (12.0, 20.0, 1.0, 30),  // blackout: every flow times out
    (12.0, 40.0, 0.02, 30), // lossy, longer RTT
    (12.0, 20.0, 0.0, 30),  // recovery
];

/// Digests of the grid-aligned scenario under `QdiscKind::ALL`, in order.
/// None of its senders reacts to ECN, so DCTCP's marks leave its
/// trajectory equal to drop-tail's.
const GRID_DIGESTS: [u64; 3] =
    [0x95fa_cd6a_b855_7b55, 0xdb78_6dcf_d116_6339, 0x95fa_cd6a_b855_7b55];

/// Run the grid-aligned 4-flow scenario — three fixed senders at 6 Mbit/s
/// (one 1 500 B packet every 2 ms, different windows) and one BBR on a
/// 12 Mbit/s, 20 ms link — and return the digest of its trajectories with
/// the number of timeouts fired.
fn grid_scenario(qdisc: QdiscKind) -> (u64, u64) {
    let rtos = Arc::new(AtomicU64::new(0));
    let cfg = SimConfig { seed: 23, ..SimConfig::default() };
    let mut sim = MultiFlowSim::with_qdisc(LinkParams::new(12.0, 20.0, 0.0), cfg, qdisc.build());
    let senders: [Box<dyn CongestionControl>; 4] = [
        Box::new(FixedRateCc { rate_bps: 6e6, cwnd: 1e9 }),
        Box::new(FixedRateCc { rate_bps: 6e6, cwnd: 32.0 }),
        Box::new(FixedRateCc { rate_bps: 6e6, cwnd: 8.0 }),
        Box::new(Bbr::new()),
    ];
    for (key, inner) in senders.into_iter().enumerate() {
        sim.add_flow(key as u64, Box::new(RtoCounter { inner, rtos: Arc::clone(&rtos) }));
    }
    (digest_schedule(&mut sim, &GRID_SCHEDULE), rtos.load(Ordering::Relaxed))
}

#[test]
fn pinned_grid_aligned_trajectories_match_their_recorded_digests() {
    for (qdisc, want) in QdiscKind::ALL.into_iter().zip(GRID_DIGESTS) {
        let (digest, rtos) = grid_scenario(qdisc);
        assert!(rtos > 0, "{}: the grid-aligned scenario fired no timeouts", qdisc.label());
        assert_eq!(
            digest,
            want,
            "{}: trajectory digest {digest:#018x} ({rtos} RTOs)",
            qdisc.label()
        );
    }
}
