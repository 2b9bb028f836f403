//! Verbatim transcription of the pre-multi-flow `FlowSim` event loop.
//!
//! This file exists for one purpose: the single-flow equivalence suites
//! (`crates/cc/tests/single_flow_equivalence.rs` and
//! `crates/netsim/tests/multiflow_properties.rs`, which both include it with
//! `#[path]`) pin the multi-flow engine's 1-flow trajectories bit-for-bit
//! against the engine `netsim` shipped before the rewrite. [`RefFlowSim`]
//! is that old engine, kept byte-for-byte in its f64 operation order, only
//! re-expressed against the current [`CongestionControl`] trait (the
//! typed-unit conversions at the boundary are value-identical by
//! construction — see `units.rs` tests). It is test code only: nothing in
//! `netsim` compiles it.
//!
//! Its event queue, [`EventQueue`], is the legacy one too: a binary heap
//! keyed by `(time, insertion id)` so that simultaneous events fire in
//! insertion order.
//!
//! Do not "improve" this file. Any behavioral change here silently
//! weakens the equivalence contract to "new engine == new reference".

use netsim::link::{LinkParams, Packet, Queue};
use netsim::sim::{AckEvent, CongestionControl, IntervalStats, SimConfig};
use netsim::units::{BitsPerSec, Bytes, Nanosecs};
use netsim::{to_secs, Time, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

#[derive(Debug, Default, Clone, Copy)]
struct Accumulators {
    delivered_bytes: u64,
    packets_delivered: u64,
    packets_sent: u64,
    lost_random: u64,
    lost_overflow: u64,
    rtt_sum_s: f64,
    rtt_samples: u64,
    sojourn_sum_s: f64,
    sojourn_samples: u64,
}

/// The legacy single-flow, single-bottleneck simulator (reference oracle).
pub struct RefFlowSim {
    now: Time,
    events: EventQueue,
    params: LinkParams,
    queue: Queue,
    serving: Option<Packet>,
    cc: Box<dyn CongestionControl>,
    cfg: SimConfig,
    rng: StdRng,

    next_seq: u64,
    outstanding: BTreeMap<u64, Packet>,
    inflight_bytes: usize,
    delivered_bytes: u64,
    acked_bytes: u64,
    next_send_time: Time,
    send_scheduled: bool,
    srtt_s: f64,
    last_progress: Time,
    rto_armed_at: Time,
    last_ack_arrival: Time,

    acc: Accumulators,
}

impl RefFlowSim {
    pub fn new(cc: Box<dyn CongestionControl>, params: LinkParams, cfg: SimConfig) -> Self {
        params.validate();
        let mut sim = RefFlowSim {
            now: 0,
            events: EventQueue::new(),
            queue: Queue::new(cfg.queue_capacity_bytes),
            serving: None,
            cc,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            params,
            next_seq: 0,
            outstanding: BTreeMap::new(),
            inflight_bytes: 0,
            delivered_bytes: 0,
            acked_bytes: 0,
            next_send_time: 0,
            send_scheduled: false,
            srtt_s: 0.0,
            last_progress: 0,
            rto_armed_at: 0,
            last_ack_arrival: 0,
            acc: Accumulators::default(),
        };
        sim.schedule_send();
        sim
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn srtt_s(&self) -> f64 {
        self.srtt_s
    }

    pub fn inflight_bytes(&self) -> usize {
        self.inflight_bytes
    }

    pub fn queue_bytes(&self) -> usize {
        self.queue.bytes()
    }

    pub fn set_link(&mut self, params: LinkParams) {
        params.validate();
        self.params = params;
    }

    pub fn run_for(&mut self, dt: Time) -> IntervalStats {
        let end = self.now + dt;
        self.acc = Accumulators::default();
        while let Some(t) = self.events.peek_time() {
            if t > end {
                break;
            }
            let (t, kind) = self.events.pop().expect("peeked event exists");
            debug_assert!(t >= self.now, "time must not go backwards");
            self.now = t;
            self.handle(kind);
        }
        self.now = end;
        let dt_s = to_secs(dt);
        let capacity = self.params.bandwidth_mbps * 1e6 / 8.0 * dt_s;
        let a = self.acc;
        IntervalStats {
            duration_s: dt_s,
            delivered_bytes: a.delivered_bytes,
            capacity_bytes: capacity,
            utilization: (a.delivered_bytes as f64 / capacity.max(1.0)).min(1.0),
            throughput_mbps: a.delivered_bytes as f64 * 8.0 / dt_s.max(1e-9) / 1e6,
            avg_rtt_ms: if a.rtt_samples > 0 {
                a.rtt_sum_s / a.rtt_samples as f64 * 1e3
            } else {
                0.0
            },
            avg_queue_delay_ms: if a.sojourn_samples > 0 {
                a.sojourn_sum_s / a.sojourn_samples as f64 * 1e3
            } else {
                0.0
            },
            packets_sent: a.packets_sent,
            packets_delivered: a.packets_delivered,
            packets_lost_random: a.lost_random,
            packets_lost_overflow: a.lost_overflow,
        }
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::SendReady => {
                self.send_scheduled = false;
                self.try_send();
            }
            EventKind::ServiceComplete => self.service_complete(),
            EventKind::AckArrival { seq, delivered } => self.ack_arrival(seq, delivered),
            EventKind::RtoCheck { armed_at } => self.rto_check(armed_at),
        }
    }

    fn schedule_send(&mut self) {
        if self.send_scheduled {
            return;
        }
        if (self.outstanding.len() as f64) < self.cc.cwnd_packets() {
            let at = self.next_send_time.max(self.now);
            self.events.push(at, EventKind::SendReady);
            self.send_scheduled = true;
        }
    }

    fn try_send(&mut self) {
        if (self.outstanding.len() as f64) >= self.cc.cwnd_packets() {
            return; // cwnd-limited: ACKs will restart sending
        }
        let size = self.cfg.packet_bytes;
        let pkt = Packet {
            flow: 0,
            seq: self.next_seq,
            size_bytes: size,
            sent_at: self.now,
            delivered_at_send: self.acked_bytes,
            ecn: false,
        };
        self.next_seq += 1;
        self.outstanding.insert(pkt.seq, pkt);
        self.inflight_bytes += size;
        self.acc.packets_sent += 1;
        self.arm_rto();

        // iid random loss at link ingress
        if self.rng.gen::<f64>() < self.params.loss_rate {
            self.acc.lost_random += 1;
        } else if self.queue.push(pkt) {
            if self.serving.is_none() {
                self.start_service();
            }
        } else {
            self.acc.lost_overflow += 1;
        }

        // pace the next transmission
        let pacing = self.cc.pacing_rate().bps().max(1e3);
        let gap = (size as f64 * 8.0 / pacing * SEC as f64).round() as Time;
        self.next_send_time = self.now + gap.max(1);
        self.schedule_send();
    }

    fn start_service(&mut self) {
        debug_assert!(self.serving.is_none());
        if let Some(pkt) = self.queue.pop() {
            let done = self.now + self.params.serialization_time(pkt.size_bytes);
            self.serving = Some(pkt);
            self.events.push(done, EventKind::ServiceComplete);
        }
    }

    fn service_complete(&mut self) {
        let pkt = self.serving.take().expect("service completion without a packet");
        self.delivered_bytes += pkt.size_bytes as u64;
        self.acc.delivered_bytes += pkt.size_bytes as u64;
        self.acc.packets_delivered += 1;
        self.acc.sojourn_sum_s += to_secs(self.now - pkt.sent_at);
        self.acc.sojourn_samples += 1;
        let ack_at = (self.now + 2 * self.params.propagation()).max(self.last_ack_arrival + 1);
        self.last_ack_arrival = ack_at;
        self.events
            .push(ack_at, EventKind::AckArrival { seq: pkt.seq, delivered: self.delivered_bytes });
        if !self.queue.is_empty() {
            self.start_service();
        }
    }

    fn ack_arrival(&mut self, seq: u64, _delivered: u64) {
        let Some(pkt) = self.outstanding.remove(&seq) else {
            return; // already declared lost via dup-ACK or RTO
        };
        self.inflight_bytes = self.inflight_bytes.saturating_sub(pkt.size_bytes);
        self.acked_bytes += pkt.size_bytes as u64;
        self.last_progress = self.now;

        let rtt_s = to_secs(self.now - pkt.sent_at);
        self.srtt_s = if self.srtt_s == 0.0 { rtt_s } else { 0.875 * self.srtt_s + 0.125 * rtt_s };
        self.acc.rtt_sum_s += rtt_s;
        self.acc.rtt_samples += 1;

        let rack_cutoff = pkt.sent_at.saturating_sub((0.5 * self.srtt_s * SEC as f64) as Time);
        let lost: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(s, p)| **s < seq.saturating_sub(3) || (**s < seq && p.sent_at < rack_cutoff))
            .map(|(s, _)| *s)
            .collect();
        for s in &lost {
            if let Some(p) = self.outstanding.remove(s) {
                self.inflight_bytes = self.inflight_bytes.saturating_sub(p.size_bytes);
            }
        }

        let span_s = to_secs(self.now - pkt.sent_at).max(1e-9);
        let ack = AckEvent {
            now: Nanosecs::new(self.now),
            rtt: Nanosecs::new(self.now - pkt.sent_at),
            delivery_rate: BitsPerSec::from_bps(
                (self.acked_bytes - pkt.delivered_at_send) as f64 * 8.0 / span_s,
            ),
            newly_acked: Bytes::new(pkt.size_bytes as u64),
            inflight: Bytes::new(self.inflight_bytes as u64),
            delivered: Bytes::new(self.acked_bytes),
            delivered_at_send: Bytes::new(pkt.delivered_at_send),
            ecn: false,
        };
        self.cc.on_ack(&ack);
        if !lost.is_empty() {
            self.cc.on_loss(lost.len(), Nanosecs::new(self.now));
        }
        self.arm_rto();
        self.schedule_send();
    }

    fn rto_duration(&self) -> Time {
        let rto_s = (4.0 * self.srtt_s).max(self.cfg.min_rto_s);
        (rto_s * SEC as f64) as Time
    }

    fn arm_rto(&mut self) {
        if self.outstanding.is_empty() {
            return;
        }
        self.rto_armed_at = self.now;
        self.events
            .push(self.now + self.rto_duration(), EventKind::RtoCheck { armed_at: self.now });
    }

    fn rto_check(&mut self, armed_at: Time) {
        if armed_at != self.rto_armed_at {
            return; // a newer arming superseded this timer
        }
        if self.outstanding.is_empty() || self.last_progress > armed_at {
            return; // progress since arming
        }
        self.outstanding.clear();
        self.inflight_bytes = 0;
        self.cc.on_rto(Nanosecs::new(self.now));
        self.next_send_time = self.now;
        self.schedule_send();
    }
}

/// What can happen inside the flow simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The pacer allows the sender to transmit its next packet.
    SendReady,
    /// The bottleneck finished serializing the packet at the queue head.
    ServiceComplete,
    /// An ACK for `seq` reaches the sender, carrying the receiver's
    /// cumulative delivered-byte counter at packet arrival.
    AckArrival { seq: u64, delivered: u64 },
    /// Retransmission-timeout check; `armed_at` identifies the arming so
    /// stale timers can be ignored.
    RtoCheck { armed_at: Time },
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Time, u64, EventKindOrd)>>,
    next_id: u64,
}

/// Internal ordered wrapper (BinaryHeap needs Ord; EventKind carries data
/// that should not affect ordering beyond the id tiebreak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventKindOrd(EventKind);

impl PartialOrd for EventKindOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKindOrd {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        // ties broken by the insertion id in the tuple before this field
        std::cmp::Ordering::Equal
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        self.heap.push(Reverse((at, self.next_id, EventKindOrd(kind))));
        self.next_id += 1;
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        self.heap.pop().map(|Reverse((t, _, k))| (t, k.0))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, EventKind::SendReady);
        q.push(10, EventKind::ServiceComplete);
        q.push(20, EventKind::AckArrival { seq: 1, delivered: 0 });
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert_eq!(q.pop().unwrap().0, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::AckArrival { seq: 1, delivered: 0 });
        q.push(5, EventKind::AckArrival { seq: 2, delivered: 0 });
        q.push(5, EventKind::AckArrival { seq: 3, delivered: 0 });
        let seqs: Vec<u64> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                EventKind::AckArrival { seq, .. } => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3], "same-time events must pop in insertion order");
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(7, EventKind::SendReady);
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
    }
}
