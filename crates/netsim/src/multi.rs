//! The multi-flow engine: N senders sharing one bottleneck.
//!
//! Each flow owns its congestion controller, its sequence space, its loss
//! RNG and its RTO machinery; the bottleneck (queue + serializer + qdisc)
//! is shared. Determinism contract (DESIGN.md §16):
//!
//! * Every event is keyed `(time, flow key, per-flow event seq)`, and the
//!   least pending key is handled next — tie-breaks never depend on global
//!   insertion order, so results are invariant under flow-registration
//!   order.
//! * Flow `k`'s loss RNG is seeded `cfg.seed ^ k·φ64` (flow 0 gets
//!   exactly `cfg.seed`, preserving legacy draws); the qdisc has its own
//!   stream, so RED randomization cannot shift any flow's loss draws.
//! * With one flow and the [`DropTail`] qdisc the
//!   engine replays the legacy `FlowSim` trajectories bit-for-bit — the
//!   handlers below are line-by-line transcriptions of `reference.rs`
//!   with flow state indirected; keep them in sync.
//!
//! Hot path (DESIGN.md §16, docs/PERF.md §14): each event does only work
//! that can change the trajectory, and the trajectory is still the one the
//! reference produces.
//!
//! * No event heap. Each source of events keeps its pending events in
//!   key order by construction, so the least key among the sources' heads
//!   is the least pending key:
//!   - per flow, one `SendReady` slot (a flow has at most one pending
//!     send), a FIFO of ACK arrivals (a flow's ACK times strictly increase,
//!     and so do their seqs) and the stack of queued RTO checks (earliest
//!     last, below);
//!   - for the link, one `ServiceComplete` slot, keyed under the served
//!     packet's flow and a seq of that flow.
//!
//!   The next event is found by a linear scan over the flows' heads; every
//!   caller runs at most a handful of flows.
//! * In-flight packets live in a seq-indexed ring (`InFlight`), not a
//!   map: seqs are contiguous per flow.
//! * The per-ACK loss scan visits only the packets below the ACKed seq;
//!   both clauses of its filter already require that.
//! * One live RTO arming per flow. Every arming still reserves one event
//!   seq, but a check is queued only when it is earlier than every check
//!   of the flow already queued (see `MultiFlowSim::arm_rto`), instead of
//!   one event per send and per ACK that almost always fired as a no-op.
//!
//! Observability: the engine counts `netsim.events` (events handled),
//! `netsim.drops` (bottleneck drops: overflow + AQM early drops) and
//! `netsim.ecn_marks`, flushed to `telemetry` once per [`MultiFlowSim::run_for`]
//! under a `netsim.run` span. Fault points `netsim.event` (per handled event:
//! panic/stall) and `netsim.enqueue` (per admission: corrupt = forced
//! drop, stall) let chaos schedules reach the simulator. Superseded RTO
//! armings are never queued, so neither `netsim.events` nor the hit counts
//! of `netsim.event` include them.

use crate::link::{LinkParams, Packet, Queue};
use crate::qdisc::{DropTail, QDisc, Verdict};
use crate::sim::{AckEvent, CongestionControl, IntervalStats, SimConfig};
use crate::units::{BitsPerSec, Bytes, Nanosecs};
use crate::{to_secs, Time, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Golden-ratio mixing constant for per-flow RNG streams (flow 0 maps to
/// the bare seed, preserving the legacy single-flow loss sequence).
const FLOW_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Separate stream for qdisc randomness (RED drop draws).
const QDISC_SEED_MIX: u64 = 0xA076_1D64_78BD_642F;

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

/// A flow's in-flight packets, indexed by seq.
///
/// Seqs are contiguous per flow (`next_seq` grows by one per send), so
/// slot `i` holds seq `base + i`, and a slot is emptied when its packet is
/// acked or declared lost. Front holes are popped after every removal, so
/// the front slot is occupied whenever the ring is non-empty.
struct InFlight {
    slots: VecDeque<Option<Packet>>,
    /// Seq of `slots[0]`; re-anchored by the first insert into an empty
    /// ring (after an RTO clear, or once every packet is gone).
    base: u64,
    /// Occupied slots: the packet count the cwnd comparisons use.
    len: usize,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight { slots: VecDeque::new(), base: 0, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add the flow's newest packet (`seq` one past the last inserted).
    fn insert(&mut self, pkt: Packet) {
        if self.slots.is_empty() {
            self.base = pkt.seq;
        }
        debug_assert_eq!(pkt.seq, self.base + self.slots.len() as u64, "seqs are contiguous");
        self.slots.push_back(Some(pkt));
        self.len += 1;
    }

    fn slot(&mut self, seq: u64) -> Option<&mut Option<Packet>> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(i)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Packet> {
        self.slot(seq)?.as_mut()
    }

    fn remove(&mut self, seq: u64) -> Option<Packet> {
        let pkt = self.slot(seq)?.take()?;
        self.len -= 1;
        self.pop_front_holes();
        Some(pkt)
    }

    /// Remove the packets below `seq` that `lost(seq, packet)` selects,
    /// visiting them in ascending seq order; returns how many packets and
    /// bytes were removed.
    fn remove_below(
        &mut self,
        seq: u64,
        mut lost: impl FnMut(u64, &Packet) -> bool,
    ) -> (usize, usize) {
        let base = self.base;
        let below = seq.saturating_sub(base).min(self.slots.len() as u64) as usize;
        let (mut count, mut bytes) = (0, 0);
        for (i, slot) in self.slots.iter_mut().take(below).enumerate() {
            if slot.as_ref().is_some_and(|p| lost(base + i as u64, p)) {
                bytes += slot.take().map_or(0, |p| p.size_bytes);
                count += 1;
            }
        }
        self.len -= count;
        self.pop_front_holes();
        (count, bytes)
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    fn pop_front_holes(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// An RTO arming: when it was armed, and the key `(deadline, event seq)`
/// its check fires at.
#[derive(Debug, Clone, Copy)]
struct RtoArming {
    armed_at: Time,
    key: (Time, u64),
}

/// An ACK on its way back to the sender: its key `(arrival, event seq)`
/// and the seq of the packet it acknowledges.
#[derive(Debug, Clone, Copy)]
struct PendingAck {
    key: (Time, u64),
    seq: u64,
}

/// The packet on the wire, and the key `(completion, event seq of the
/// packet's flow)` its `ServiceComplete` fires at.
struct Serving {
    pkt: Packet,
    key: (Time, u64),
}

/// Where the next event comes from: a flow's (by index) send slot, ACK
/// FIFO or RTO stack, or the link's service slot.
#[derive(Debug, Clone, Copy)]
enum Source {
    Send(usize),
    Ack(usize),
    Rto(usize),
    Service,
}

/// One sender: congestion controller plus all per-flow transport state.
struct FlowState {
    key: u64,
    cc: Box<dyn CongestionControl>,
    rng: StdRng,
    /// Monotone per-flow event counter — the same-instant tie-break key.
    event_seq: u64,

    next_seq: u64,
    outstanding: InFlight,
    inflight_bytes: usize,
    acked_bytes: u64,
    next_send_time: Time,
    /// Key of the flow's pending `SendReady`, if any.
    send: Option<(Time, u64)>,
    srtt_s: f64,
    last_progress: Time,
    /// The arming whose check can still time the flow out, if any.
    rto_live: Option<RtoArming>,
    /// The flow's queued RTO checks, earliest last.
    rto_queued: Vec<RtoArming>,
    /// The flow's ACKs in flight, earliest first.
    acks: VecDeque<PendingAck>,
    /// FIFO return path per flow: ACKs never overtake each other.
    last_ack_arrival: Time,

    acc: Accumulators,
}

impl FlowState {
    fn new(key: u64, cc: Box<dyn CongestionControl>, rng: StdRng) -> FlowState {
        FlowState {
            key,
            cc,
            rng,
            event_seq: 0,
            next_seq: 0,
            outstanding: InFlight::new(),
            inflight_bytes: 0,
            acked_bytes: 0,
            next_send_time: 0,
            send: None,
            srtt_s: 0.0,
            last_progress: 0,
            rto_live: None,
            rto_queued: Vec::new(),
            acks: VecDeque::new(),
            last_ack_arrival: 0,
            acc: Accumulators::default(),
        }
    }

    /// Key `(at, seq)` for a new event of this flow, reserving its next
    /// event seq.
    fn reserve(&mut self, at: Time) -> (Time, u64) {
        let seq = self.event_seq;
        self.event_seq += 1;
        (at, seq)
    }
}

/// N flows crossing one bottleneck with a pluggable queue discipline.
pub struct MultiFlowSim {
    now: Time,
    params: LinkParams,
    queue: Queue,
    serving: Option<Serving>,
    qdisc: Box<dyn QDisc>,
    qdisc_rng: StdRng,
    cfg: SimConfig,
    /// Sorted by key, so a scan in index order visits ascending keys.
    flows: Vec<FlowState>,

    // monotone counters (telemetry flushes per-run deltas)
    total_events: u64,
    total_drops: u64,
    total_ecn_marks: u64,
}

impl MultiFlowSim {
    /// A drop-tail bottleneck — the legacy discipline.
    pub fn new(params: LinkParams, cfg: SimConfig) -> Self {
        Self::with_qdisc(params, cfg, Box::new(DropTail::new()))
    }

    pub fn with_qdisc(params: LinkParams, cfg: SimConfig, qdisc: Box<dyn QDisc>) -> Self {
        params.validate();
        cfg.validate();
        let qdisc_rng = StdRng::seed_from_u64(cfg.seed ^ QDISC_SEED_MIX);
        MultiFlowSim {
            now: 0,
            queue: Queue::new(cfg.queue_capacity_bytes),
            serving: None,
            qdisc,
            qdisc_rng,
            cfg,
            params,
            flows: Vec::new(),
            total_events: 0,
            total_drops: 0,
            total_ecn_marks: 0,
        }
    }

    /// Register a sender under `key` (must be unique). The flow starts
    /// sending at the current simulation time.
    pub fn add_flow(&mut self, key: u64, cc: Box<dyn CongestionControl>) {
        let pos = match self.flows.binary_search_by_key(&key, |f| f.key) {
            Ok(_) => panic!("duplicate flow key {key}"),
            Err(pos) => pos,
        };
        let rng = StdRng::seed_from_u64(self.cfg.seed ^ key.wrapping_mul(FLOW_SEED_MIX));
        let mut f = FlowState::new(key, cc, rng);
        f.next_send_time = self.now;
        Self::schedule_send(&mut f, self.now);
        self.flows.insert(pos, f);
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn params(&self) -> LinkParams {
        self.params
    }

    pub fn set_link(&mut self, params: LinkParams) {
        params.validate();
        self.params = params;
    }

    pub fn queue_bytes(&self) -> usize {
        self.queue.bytes()
    }

    /// Instantaneous queuing delay in ms (backlog over drain rate).
    pub fn queue_delay_ms(&self) -> f64 {
        self.queue.bytes() as f64 * 8.0 / (self.params.bandwidth_mbps * 1e6) * 1e3
    }

    pub fn flow_srtt_s(&self, key: u64) -> f64 {
        self.flows[self.flow_index(key)].srtt_s
    }

    pub fn flow_inflight_bytes(&self, key: u64) -> usize {
        self.flows[self.flow_index(key)].inflight_bytes
    }

    /// Inspect a flow's congestion controller.
    pub fn cc(&self, key: u64) -> &dyn CongestionControl {
        self.flows[self.flow_index(key)].cc.as_ref()
    }

    /// Events handled since construction. Superseded RTO armings are never
    /// queued, so they are not counted.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Bottleneck drops (overflow + AQM early drops) since construction.
    pub fn total_drops(&self) -> u64 {
        self.total_drops
    }

    /// ECN CE marks applied since construction.
    pub fn total_ecn_marks(&self) -> u64 {
        self.total_ecn_marks
    }

    fn flow_index(&self, key: u64) -> usize {
        self.flows.binary_search_by_key(&key, |f| f.key).expect("unknown flow key")
    }

    /// Advance all flows by `dt`; returns `(key, stats)` per flow,
    /// ascending by key. Per-flow `capacity_bytes`/`utilization` are
    /// against the full link capacity (so utilizations sum to ≤ 1 and
    /// flow 0's stats match the legacy single-flow numbers exactly).
    pub fn run_for(&mut self, dt: Time) -> Vec<(u64, IntervalStats)> {
        let _span = telemetry::span!("netsim.run");
        let end = self.now + dt;
        for f in &mut self.flows {
            f.acc = Accumulators::default();
        }
        let (ev0, dr0, ecn0) = (self.total_events, self.total_drops, self.total_ecn_marks);
        while let Some((t, source)) = self.next_event() {
            if t > end {
                break;
            }
            debug_assert!(t >= self.now, "time must not go backwards");
            self.now = t;
            self.total_events += 1;
            // Fault point `netsim.event`: panic fires inside check(); a
            // stall sleeps the simulation thread; NaN/corrupt have no
            // meaning for an event and are ignored.
            if fault::active() {
                if let Some(fault::Injection::Stall(d)) = fault::check("netsim.event") {
                    std::thread::sleep(d);
                }
            }
            match source {
                Source::Send(idx) => {
                    self.flows[idx].send = None;
                    self.try_send(idx);
                }
                Source::Ack(idx) => {
                    let ack = self.flows[idx].acks.pop_front().expect("the ACK FIFO's head");
                    self.ack_arrival(idx, ack.seq);
                }
                Source::Rto(idx) => self.rto_check(idx),
                Source::Service => self.service_complete(),
            }
        }
        self.now = end;

        if telemetry::enabled() {
            let events = self.total_events - ev0;
            let drops = self.total_drops - dr0;
            let marks = self.total_ecn_marks - ecn0;
            if events > 0 {
                telemetry::counter_add("netsim.events", events);
            }
            if drops > 0 {
                telemetry::counter_add("netsim.drops", drops);
            }
            if marks > 0 {
                telemetry::counter_add("netsim.ecn_marks", marks);
            }
        }

        let dt_s = to_secs(dt);
        let capacity = self.params.bandwidth_mbps * 1e6 / 8.0 * dt_s;
        self.flows
            .iter()
            .map(|f| {
                let a = f.acc;
                let stats = IntervalStats {
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
                };
                (f.key, stats)
            })
            .collect()
    }

    /// The pending event with the least key `(time, flow key, event seq)`
    /// and its time. Each source keeps its events in key order, so only
    /// the heads compete; keys are unique, so the winner is too.
    fn next_event(&self) -> Option<(Time, Source)> {
        let mut best: Option<((Time, u64, u64), Source)> = None;
        let mut offer = |key: (Time, u64, u64), source: Source| {
            if best.is_none_or(|(least, _)| key < least) {
                best = Some((key, source));
            }
        };
        if let Some(s) = &self.serving {
            offer((s.key.0, s.pkt.flow, s.key.1), Source::Service);
        }
        for (idx, f) in self.flows.iter().enumerate() {
            if let Some((t, seq)) = f.send {
                offer((t, f.key, seq), Source::Send(idx));
            }
            if let Some(&PendingAck { key: (t, seq), .. }) = f.acks.front() {
                offer((t, f.key, seq), Source::Ack(idx));
            }
            if let Some(&RtoArming { key: (t, seq), .. }) = f.rto_queued.last() {
                offer((t, f.key, seq), Source::Rto(idx));
            }
        }
        best.map(|((t, _, _), source)| (t, source))
    }

    fn schedule_send(f: &mut FlowState, now: Time) {
        if f.send.is_some() {
            return;
        }
        if (f.outstanding.len() as f64) < f.cc.cwnd_packets() {
            let at = f.next_send_time.max(now);
            f.send = Some(f.reserve(at));
        }
    }

    /// Arm the flow's RTO timer (on every send and every ACK).
    ///
    /// The reference pushes one `RtoCheck` per arming and lets every check
    /// but the one it can act on pop as a no-op. Here the flow keeps only
    /// the arming that can act, live, and queues checks so that it pops at
    /// the key the reference's check would have popped at:
    ///
    /// 1. Every arming reserves one event seq, as a push would, and a check
    ///    is always queued under its arming's reserved seq — so the
    ///    `(time, flow, seq)` order of every other event is unchanged.
    /// 2. Of the armings made at one instant, the one with the earliest key
    ///    stays live: in the reference it pops first and decides, and the
    ///    later ones then pop as no-ops. (This needs RTOs of at least 1 ns,
    ///    so that every arming of the instant precedes that pop.)
    ///
    /// Queue invariant: while an arming is live, some queued check of the
    /// flow has a key at or before it. A live arming is queued only when it
    /// is earlier than every queued check, so `rto_queued` is sorted and its
    /// last entry is the flow's next check to fire; when a superseded check
    /// fires, [`Self::rto_check`] re-queues the live arming if needed.
    fn arm_rto(f: &mut FlowState, now: Time, min_rto_s: f64) {
        if f.outstanding.is_empty() {
            return;
        }
        let rto_s = (4.0 * f.srtt_s).max(min_rto_s);
        let dur = (rto_s * SEC as f64) as Time;
        let key = f.reserve(now + dur);
        f.rto_live = match f.rto_live {
            Some(live) if live.armed_at == now && live.key < key => Some(live),
            _ => Some(RtoArming { armed_at: now, key }),
        };
        Self::queue_live_rto(f);
    }

    /// Queue the live arming's check unless a queued check of the flow
    /// already fires at or before it.
    fn queue_live_rto(f: &mut FlowState) {
        let Some(live) = f.rto_live else {
            return;
        };
        if f.rto_queued.last().is_some_and(|next| next.key <= live.key) {
            return;
        }
        f.rto_queued.push(live);
    }

    fn try_send(&mut self, idx: usize) {
        let now = self.now;
        let size = self.cfg.packet_bytes;
        let min_rto_s = self.cfg.min_rto_s;
        let loss_rate = self.params.loss_rate;
        let mut enqueued = false;
        {
            let f = &mut self.flows[idx];
            if (f.outstanding.len() as f64) >= f.cc.cwnd_packets() {
                return; // cwnd-limited: ACKs will restart sending
            }
            let mut pkt = Packet {
                flow: f.key,
                seq: f.next_seq,
                size_bytes: size,
                sent_at: now,
                delivered_at_send: f.acked_bytes,
                ecn: false,
            };
            f.next_seq += 1;
            f.outstanding.insert(pkt);
            f.inflight_bytes += size;
            f.acc.packets_sent += 1;
            Self::arm_rto(f, now, min_rto_s);

            // iid random loss at link ingress (per-flow RNG stream)
            if f.rng.gen::<f64>() < loss_rate {
                f.acc.lost_random += 1;
            } else {
                // Fault point `netsim.enqueue`: corrupt = force-drop this
                // admission (counted as overflow); stall sleeps; NaN has no
                // meaning here and is ignored.
                let mut forced_drop = false;
                if fault::active() {
                    match fault::check("netsim.enqueue") {
                        Some(fault::Injection::Corrupt) => forced_drop = true,
                        Some(fault::Injection::Stall(d)) => std::thread::sleep(d),
                        _ => {}
                    }
                }
                let verdict = if forced_drop {
                    Verdict::Drop
                } else {
                    self.qdisc.admit(
                        self.queue.bytes(),
                        self.queue.capacity_bytes,
                        size,
                        &mut self.qdisc_rng,
                    )
                };
                match verdict {
                    Verdict::Drop => {
                        self.queue.total_dropped_overflow += 1;
                        f.acc.lost_overflow += 1;
                        self.total_drops += 1;
                    }
                    Verdict::Mark | Verdict::Enqueue => {
                        if verdict == Verdict::Mark {
                            pkt.ecn = true;
                            self.total_ecn_marks += 1;
                            // the ACK echoes the mark: update the sender's
                            // in-flight copy too
                            if let Some(p) = f.outstanding.get_mut(pkt.seq) {
                                p.ecn = true;
                            }
                        }
                        let pushed = self.queue.push(pkt);
                        debug_assert!(pushed, "qdisc admitted past capacity");
                        enqueued = pushed;
                    }
                }
            }
        }
        if enqueued && self.serving.is_none() {
            self.start_service();
        }

        // pace the next transmission
        let f = &mut self.flows[idx];
        let pacing = f.cc.pacing_rate().bps().max(1e3);
        let gap = (size as f64 * 8.0 / pacing * SEC as f64).round() as Time;
        f.next_send_time = now + gap.max(1);
        Self::schedule_send(f, now);
    }

    fn start_service(&mut self) {
        debug_assert!(self.serving.is_none());
        if let Some(pkt) = self.queue.pop() {
            let done = self.now + self.params.serialization_time(pkt.size_bytes);
            let idx = self.flow_index(pkt.flow);
            let key = self.flows[idx].reserve(done);
            self.serving = Some(Serving { pkt, key });
        }
    }

    fn service_complete(&mut self) {
        let Serving { pkt, .. } = self.serving.take().expect("service completion without a packet");
        let idx = self.flow_index(pkt.flow);
        {
            let f = &mut self.flows[idx];
            f.acc.delivered_bytes += pkt.size_bytes as u64;
            f.acc.packets_delivered += 1;
            f.acc.sojourn_sum_s += to_secs(self.now - pkt.sent_at);
            f.acc.sojourn_samples += 1;
            let ack_at = (self.now + 2 * self.params.propagation()).max(f.last_ack_arrival + 1);
            f.last_ack_arrival = ack_at;
            let key = f.reserve(ack_at);
            debug_assert!(f.acks.back().is_none_or(|last| last.key < key), "ACKs stay in order");
            f.acks.push_back(PendingAck { key, seq: pkt.seq });
        }
        if !self.queue.is_empty() {
            self.start_service();
        }
    }

    fn ack_arrival(&mut self, idx: usize, seq: u64) {
        let now = self.now;
        let min_rto_s = self.cfg.min_rto_s;
        let f = &mut self.flows[idx];
        let Some(pkt) = f.outstanding.remove(seq) else {
            return; // already declared lost via dup-ACK or RTO
        };
        f.inflight_bytes = f.inflight_bytes.saturating_sub(pkt.size_bytes);
        f.acked_bytes += pkt.size_bytes as u64;
        f.last_progress = now;

        let rtt_s = to_secs(now - pkt.sent_at);
        f.srtt_s = if f.srtt_s == 0.0 { rtt_s } else { 0.875 * f.srtt_s + 0.125 * rtt_s };
        f.acc.rtt_sum_s += rtt_s;
        f.acc.rtt_samples += 1;

        // loss detection on each ACK: dup-ACK style (3-packet reorder
        // window) plus RACK-style time threshold — per flow, since the
        // FIFO bottleneck preserves each flow's internal order. Both
        // clauses require `s < seq`, so only the packets below `seq` are
        // visited, in the reference's ascending order.
        let rack_cutoff = pkt.sent_at.saturating_sub((0.5 * f.srtt_s * SEC as f64) as Time);
        let (lost, lost_bytes) = f.outstanding.remove_below(seq, |s, p| {
            s < seq.saturating_sub(3) || (s < seq && p.sent_at < rack_cutoff)
        });
        f.inflight_bytes = f.inflight_bytes.saturating_sub(lost_bytes);

        let span_s = to_secs(now - pkt.sent_at).max(1e-9);
        let ack = AckEvent {
            now: Nanosecs::new(now),
            rtt: Nanosecs::new(now - pkt.sent_at),
            delivery_rate: BitsPerSec::from_bps(
                (f.acked_bytes - pkt.delivered_at_send) as f64 * 8.0 / span_s,
            ),
            newly_acked: Bytes::new(pkt.size_bytes as u64),
            inflight: Bytes::new(f.inflight_bytes as u64),
            delivered: Bytes::new(f.acked_bytes),
            delivered_at_send: Bytes::new(pkt.delivered_at_send),
            ecn: pkt.ecn,
        };
        f.cc.on_ack(&ack);
        if lost > 0 {
            f.cc.on_loss(lost, Nanosecs::new(now));
        }
        Self::arm_rto(f, now, min_rto_s);
        Self::schedule_send(f, now);
    }

    fn rto_check(&mut self, idx: usize) {
        let now = self.now;
        let f = &mut self.flows[idx];
        let check = f.rto_queued.pop().expect("the RTO stack's top");
        debug_assert_eq!(check.key.0, now, "RTO checks fire in queued order");
        match f.rto_live {
            Some(live) if live.key == check.key => f.rto_live = None,
            _ => {
                // a newer arming superseded this timer
                Self::queue_live_rto(f);
                return;
            }
        }
        if f.outstanding.is_empty() || f.last_progress > check.armed_at {
            return; // progress since arming
        }
        // timeout: everything outstanding is presumed lost
        f.outstanding.clear();
        f.inflight_bytes = 0;
        f.cc.on_rto(Nanosecs::new(now));
        f.next_send_time = now;
        Self::schedule_send(f, now);
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when all shares are equal,
/// `1/n` when one flow takes everything. Empty input → 0; all-zero → 1
/// (nobody got anything, which is perfectly fair).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// A fixed-window sender whose pacing rate is set externally through a
/// [`RateHandle`] — the adversary's cross-traffic knob. The handle is
/// `Send + Sync + Clone`, so the environment can keep it after moving the
/// controller into the simulator.
pub struct SharedRateCc {
    rate_bits: Arc<AtomicU64>,
    cwnd: f64,
}

/// Externally sets/reads a [`SharedRateCc`]'s pacing rate.
#[derive(Clone)]
pub struct RateHandle {
    rate_bits: Arc<AtomicU64>,
}

impl RateHandle {
    /// Set the pacing rate (validated finite and non-negative).
    pub fn set_rate(&self, rate: BitsPerSec) {
        self.rate_bits.store(rate.bps().to_bits(), Ordering::Relaxed);
    }

    pub fn rate_bps(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }
}

impl SharedRateCc {
    pub fn new(initial: BitsPerSec, cwnd: f64) -> (SharedRateCc, RateHandle) {
        let rate_bits = Arc::new(AtomicU64::new(initial.bps().to_bits()));
        let handle = RateHandle { rate_bits: Arc::clone(&rate_bits) };
        (SharedRateCc { rate_bits, cwnd }, handle)
    }
}

impl CongestionControl for SharedRateCc {
    fn name(&self) -> &str {
        "xrate"
    }
    fn on_ack(&mut self, _ack: &AckEvent) {}
    fn on_loss(&mut self, _lost: usize, _now: Nanosecs) {}
    fn on_rto(&mut self, _now: Nanosecs) {}
    fn pacing_rate(&self) -> BitsPerSec {
        BitsPerSec::from_bps(f64::from_bits(self.rate_bits.load(Ordering::Relaxed)))
    }
    fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdisc::{DctcpEcn, QdiscKind, Red};
    use crate::sim::FixedRateCc;
    use crate::MTU_BYTES;

    fn fixed(rate_mbps: f64) -> Box<dyn CongestionControl> {
        Box::new(FixedRateCc { rate_bps: rate_mbps * 1e6, cwnd: 1e9 })
    }

    #[test]
    fn two_equal_senders_saturate_the_link() {
        // Under drop-tail, two perfectly synchronized paced senders can
        // phase-lock (the classic drop-tail phase effect): one flow's
        // packets always hit a full queue. Only the aggregate is asserted
        // here; fairness is checked under RED below, which randomizes
        // drops precisely to break such synchronization.
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
        sim.add_flow(0, fixed(12.0));
        sim.add_flow(1, fixed(12.0));
        sim.run_for(crate::SEC);
        let stats = sim.run_for(5 * crate::SEC);
        assert_eq!(stats.len(), 2);
        let total: f64 = stats.iter().map(|(_, s)| s.throughput_mbps).sum();
        assert!((total - 12.0).abs() < 0.5, "link saturated: {total}");
    }

    #[test]
    fn red_breaks_phase_lock_between_equal_senders() {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(12.0, 20.0, 0.0),
            SimConfig::default(),
            Box::new(Red::new()),
        );
        sim.add_flow(0, fixed(12.0));
        sim.add_flow(1, fixed(12.0));
        sim.run_for(crate::SEC);
        let stats = sim.run_for(5 * crate::SEC);
        let shares: Vec<f64> = stats.iter().map(|(_, s)| s.throughput_mbps).collect();
        let jain = jain_index(&shares);
        assert!(jain > 0.9, "RED must desynchronize equal senders: jain {jain} shares {shares:?}");
    }

    #[test]
    fn results_invariant_under_registration_order() {
        let run = |keys: &[u64]| {
            let mut sim =
                MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.02), SimConfig::default());
            for &k in keys {
                sim.add_flow(k, fixed(6.0 + k as f64));
            }
            sim.run_for(3 * crate::SEC)
                .into_iter()
                .map(|(k, s)| (k, s.delivered_bytes, s.packets_lost_random))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 0, 1]));
        assert_eq!(run(&[0, 1, 2]), run(&[1, 2, 0]));
    }

    #[test]
    fn dctcp_marks_under_overload_and_echoes_on_acks() {
        struct EcnCounter {
            inner: FixedRateCc,
            marked_acks: Arc<AtomicU64>,
        }
        impl CongestionControl for EcnCounter {
            fn name(&self) -> &str {
                "ecn-counter"
            }
            fn on_ack(&mut self, ack: &AckEvent) {
                if ack.ecn {
                    self.marked_acks.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn on_loss(&mut self, _: usize, _: Nanosecs) {}
            fn on_rto(&mut self, _: Nanosecs) {}
            fn pacing_rate(&self) -> BitsPerSec {
                self.inner.pacing_rate()
            }
            fn cwnd_packets(&self) -> f64 {
                self.inner.cwnd_packets()
            }
        }
        let marked = Arc::new(AtomicU64::new(0));
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(6.0, 10.0, 0.0),
            SimConfig::default(),
            Box::new(DctcpEcn::new()),
        );
        sim.add_flow(
            0,
            Box::new(EcnCounter {
                inner: FixedRateCc { rate_bps: 24e6, cwnd: 1e9 },
                marked_acks: Arc::clone(&marked),
            }),
        );
        sim.run_for(3 * crate::SEC);
        assert!(sim.total_ecn_marks() > 0, "4x overload must cross the DCTCP threshold");
        assert!(
            marked.load(Ordering::Relaxed) > 0,
            "CE marks must be echoed to the sender on ACKs"
        );
    }

    #[test]
    fn red_drops_early_under_standing_queue() {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(6.0, 10.0, 0.0),
            SimConfig::default(),
            Box::new(Red::new()),
        );
        sim.add_flow(0, fixed(24.0));
        let stats = sim.run_for(5 * crate::SEC);
        assert!(sim.total_drops() > 0, "RED must drop under 4x overload");
        assert!(stats[0].1.packets_lost_overflow > 0);
        // RED keeps the average queue between its thresholds, well below
        // the 150 kB physical capacity
        assert!(
            sim.queue_bytes() < 100 * MTU_BYTES,
            "RED must not sustain a full queue: {} B",
            sim.queue_bytes()
        );
    }

    #[test]
    fn shared_rate_handle_changes_rate_live() {
        let (cc, handle) = SharedRateCc::new(BitsPerSec::from_mbps(2.0), 1e9);
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 10.0, 0.0), SimConfig::default());
        sim.add_flow(0, Box::new(cc));
        sim.run_for(crate::SEC);
        let slow = sim.run_for(2 * crate::SEC);
        handle.set_rate(BitsPerSec::from_bps(10e6));
        sim.run_for(crate::SEC);
        let fast = sim.run_for(2 * crate::SEC);
        assert!((slow[0].1.throughput_mbps - 2.0).abs() < 0.3, "{}", slow[0].1.throughput_mbps);
        assert!((fast[0].1.throughput_mbps - 10.0).abs() < 0.5, "{}", fast[0].1.throughput_mbps);
        assert_eq!(handle.rate_bps(), 10e6);
    }

    #[test]
    fn events_counter_is_nonzero_after_a_run() {
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
        sim.add_flow(0, fixed(6.0));
        sim.run_for(crate::SEC);
        assert!(sim.total_events() > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate flow key")]
    fn duplicate_flow_key_rejected() {
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
        sim.add_flow(3, fixed(6.0));
        sim.add_flow(3, fixed(6.0));
    }

    #[test]
    fn jain_index_basics() {
        assert_eq!(jain_index(&[]), 0.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_qdisc_kinds_run_a_contest() {
        for kind in QdiscKind::ALL {
            let mut sim = MultiFlowSim::with_qdisc(
                LinkParams::new(12.0, 20.0, 0.0),
                SimConfig::default(),
                kind.build(),
            );
            sim.add_flow(0, fixed(8.0));
            sim.add_flow(1, fixed(8.0));
            let stats = sim.run_for(2 * crate::SEC);
            let total: f64 = stats.iter().map(|(_, s)| s.throughput_mbps).sum();
            assert!(total > 8.0, "{}: link must carry traffic, got {total}", kind.label());
        }
    }
}
