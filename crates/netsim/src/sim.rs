//! The congestion-control interface and the legacy single-flow API.
//!
//! [`CongestionControl`] and [`AckEvent`] now speak typed units
//! ([`Bytes`], [`Nanosecs`], [`BitsPerSec`]) instead of loose `f64`s; the
//! `*_s`/`*_bps` accessor methods return exactly the values the old field
//! accesses did (same `f64` conversions), so protocol arithmetic is
//! untouched by the migration.
//!
//! [`FlowSim`] — the original single-flow simulator API — is a thin
//! wrapper over a 1-flow [`MultiFlowSim`]
//! with the drop-tail qdisc. The equivalence contract: its trajectories
//! are bit-identical to the pre-rewrite engine, which survives verbatim
//! as the test-only engine in `tests/oracle/reference.rs` and is
//! property-tested against this wrapper for all five CC protocols in
//! `crates/cc/tests/single_flow_equivalence.rs`.

use crate::link::LinkParams;
use crate::multi::MultiFlowSim;
use crate::units::{BitsPerSec, Bytes, Nanosecs};
use crate::{Time, MTU_BYTES, SEC};

/// Everything a congestion-control algorithm learns from one ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Simulation time of the ACK's arrival at the sender.
    pub now: Nanosecs,
    /// Round-trip time of the acked packet.
    pub rtt: Nanosecs,
    /// BBR-style delivery-rate sample: bytes delivered between this
    /// packet's send and its ACK, over that wall-clock span.
    pub delivery_rate: BitsPerSec,
    /// Bytes newly acknowledged by this ACK.
    pub newly_acked: Bytes,
    /// Bytes still in flight after this ACK.
    pub inflight: Bytes,
    /// Sender's cumulative acknowledged-byte counter (Linux
    /// `tp->delivered`), used for round tracking.
    pub delivered: Bytes,
    /// Cumulative delivered bytes when the acked packet was sent (for
    /// round tracking).
    pub delivered_at_send: Bytes,
    /// ECN Congestion-Experienced echo: the acked packet was marked by an
    /// ECN-capable queue discipline. Always `false` under drop-tail.
    pub ecn: bool,
}

impl AckEvent {
    /// Build from the raw `f64`/integer values the old struct carried
    /// (positional order matches the old field order; `ecn` = false).
    /// Mostly useful in protocol unit tests.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        now_s: f64,
        rtt_s: f64,
        delivery_rate_bps: f64,
        newly_acked_bytes: usize,
        inflight_bytes: usize,
        delivered_bytes: u64,
        delivered_at_send: u64,
    ) -> AckEvent {
        AckEvent {
            now: Nanosecs::from_secs_f64(now_s),
            rtt: Nanosecs::from_secs_f64(rtt_s),
            delivery_rate: BitsPerSec::from_bps(delivery_rate_bps),
            newly_acked: Bytes::new(newly_acked_bytes as u64),
            inflight: Bytes::new(inflight_bytes as u64),
            delivered: Bytes::new(delivered_bytes),
            delivered_at_send: Bytes::new(delivered_at_send),
            ecn: false,
        }
    }

    /// Arrival time in seconds (what the old `now_s` field held).
    #[inline]
    pub fn now_s(&self) -> f64 {
        self.now.as_secs_f64()
    }

    /// RTT in seconds (what the old `rtt_s` field held).
    #[inline]
    pub fn rtt_s(&self) -> f64 {
        self.rtt.as_secs_f64()
    }

    /// Delivery-rate sample in bits/s.
    #[inline]
    pub fn delivery_rate_bps(&self) -> f64 {
        self.delivery_rate.bps()
    }

    #[inline]
    pub fn newly_acked_bytes(&self) -> usize {
        self.newly_acked.as_usize()
    }

    #[inline]
    pub fn inflight_bytes(&self) -> usize {
        self.inflight.as_usize()
    }
}

/// A congestion-control algorithm as the simulator drives it.
///
/// Implementations are pure state machines: the simulator calls the `on_*`
/// notifications and consults [`CongestionControl::pacing_rate`] /
/// [`CongestionControl::cwnd_packets`] before each transmission. `Send` is
/// a supertrait so simulators (and the adversary environments that own
/// them) can move across `exec` rollout worker threads.
pub trait CongestionControl: Send {
    /// Short protocol name ("bbr", "cubic", "reno").
    fn name(&self) -> &str;

    /// An ACK arrived.
    fn on_ack(&mut self, ack: &AckEvent);

    /// `lost` packets were declared lost via duplicate-ACK detection.
    fn on_loss(&mut self, lost: usize, now: Nanosecs);

    /// Retransmission timeout fired: everything in flight was lost.
    fn on_rto(&mut self, now: Nanosecs);

    /// Current pacing rate.
    fn pacing_rate(&self) -> BitsPerSec;

    /// Current congestion window in packets.
    fn cwnd_packets(&self) -> f64;
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Drop-tail queue capacity in bytes. Default: 150 kB (≈100 packets,
    /// between one and two BDPs across the Table 1 parameter ranges).
    pub queue_capacity_bytes: usize,
    /// Packet size in bytes.
    pub packet_bytes: usize,
    /// RNG seed for loss draws.
    pub seed: u64,
    /// Minimum retransmission timeout, seconds.
    pub min_rto_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_capacity_bytes: 100 * MTU_BYTES,
            packet_bytes: MTU_BYTES,
            seed: 0,
            min_rto_s: 0.25,
        }
    }
}

impl SimConfig {
    /// Result-typed construction: reject degenerate queue/packet sizes and
    /// non-finite timeouts at the boundary.
    pub fn try_new(
        queue_capacity_bytes: usize,
        packet_bytes: usize,
        seed: u64,
        min_rto_s: f64,
    ) -> Result<SimConfig, String> {
        let cfg = SimConfig { queue_capacity_bytes, packet_bytes, seed, min_rto_s };
        cfg.try_validate()?;
        Ok(cfg)
    }

    /// Fallible validation for callers that handle bad input.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.packet_bytes == 0 {
            return Err("packet size must be positive".to_string());
        }
        if self.queue_capacity_bytes < self.packet_bytes {
            return Err(format!(
                "queue capacity {} smaller than one packet ({})",
                self.queue_capacity_bytes, self.packet_bytes
            ));
        }
        if self.queue_capacity_bytes < MTU_BYTES {
            return Err(format!(
                "queue must hold at least one MTU ({MTU_BYTES} B): {}",
                self.queue_capacity_bytes
            ));
        }
        if !self.min_rto_s.is_finite() || self.min_rto_s <= 0.0 {
            return Err(format!("min RTO must be finite and positive: {}", self.min_rto_s));
        }
        // the engines arm RTOs in whole nanoseconds, truncating; a zero
        // timeout would expire at its own arming instant forever
        if (self.min_rto_s * SEC as f64) as Time == 0 {
            return Err(format!("min RTO must be at least 1 ns: {}", self.min_rto_s));
        }
        Ok(())
    }

    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// Per-interval link statistics — the adversary's observations.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntervalStats {
    pub duration_s: f64,
    /// Bytes handed to the receiver during the interval.
    pub delivered_bytes: u64,
    /// `bandwidth × duration` — what the link could have carried.
    pub capacity_bytes: f64,
    /// `delivered / capacity`, clamped to `[0, 1]`.
    pub utilization: f64,
    /// Achieved throughput in Mbit/s.
    pub throughput_mbps: f64,
    /// Mean RTT of ACKs in the interval, ms (0 when no ACKs).
    pub avg_rtt_ms: f64,
    /// Mean sojourn time at the bottleneck (queueing + serialization), ms.
    pub avg_queue_delay_ms: f64,
    pub packets_sent: u64,
    pub packets_delivered: u64,
    pub packets_lost_random: u64,
    pub packets_lost_overflow: u64,
}

/// The single-flow, single-bottleneck simulator: a 1-flow
/// [`MultiFlowSim`] behind the original API.
pub struct FlowSim {
    inner: MultiFlowSim,
}

impl FlowSim {
    pub fn new(cc: Box<dyn CongestionControl>, params: LinkParams, cfg: SimConfig) -> Self {
        let mut inner = MultiFlowSim::new(params, cfg);
        inner.add_flow(0, cc);
        FlowSim { inner }
    }

    pub fn now(&self) -> Time {
        self.inner.now()
    }

    pub fn params(&self) -> LinkParams {
        self.inner.params()
    }

    /// Smoothed RTT estimate in seconds (0 before the first ACK).
    pub fn srtt_s(&self) -> f64 {
        self.inner.flow_srtt_s(0)
    }

    /// Bytes currently unacknowledged.
    pub fn inflight_bytes(&self) -> usize {
        self.inner.flow_inflight_bytes(0)
    }

    /// Instantaneous queue backlog in bytes.
    pub fn queue_bytes(&self) -> usize {
        self.inner.queue_bytes()
    }

    /// Instantaneous queuing delay in ms: backlog divided by the current
    /// drain rate — one of the two adversary inputs in the paper.
    pub fn queue_delay_ms(&self) -> f64 {
        self.inner.queue_delay_ms()
    }

    /// Change the link parameters (takes effect for future serializations,
    /// propagations, and loss draws; the packet currently being serialized
    /// keeps its scheduled completion, as in any event-based emulator).
    pub fn set_link(&mut self, params: LinkParams) {
        self.inner.set_link(params);
    }

    /// Access the congestion controller (for inspection in tests/benches).
    pub fn cc(&self) -> &dyn CongestionControl {
        self.inner.cc(0)
    }

    /// Advance the simulation by `dt` and return what happened.
    pub fn run_for(&mut self, dt: Time) -> IntervalStats {
        let stats = self.inner.run_for(dt);
        debug_assert_eq!(stats.len(), 1);
        stats.into_iter().next().expect("wrapper owns exactly one flow").1
    }
}

/// A trivial fixed-rate congestion controller, useful for testing the link
/// and as an oracle sender at exactly the link rate.
#[derive(Debug, Clone)]
pub struct FixedRateCc {
    /// Pacing rate, bits/s.
    pub rate_bps: f64,
    /// Window in packets.
    pub cwnd: f64,
}

impl CongestionControl for FixedRateCc {
    fn name(&self) -> &str {
        "fixed"
    }
    fn on_ack(&mut self, _ack: &AckEvent) {}
    fn on_loss(&mut self, _lost: usize, _now: Nanosecs) {}
    fn on_rto(&mut self, _now: Nanosecs) {}
    fn pacing_rate(&self) -> BitsPerSec {
        BitsPerSec::from_bps(self.rate_bps)
    }
    fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MTU_BYTES;

    fn sim(rate_mbps: f64, cwnd: f64, params: LinkParams, seed: u64) -> FlowSim {
        FlowSim::new(
            Box::new(FixedRateCc { rate_bps: rate_mbps * 1e6, cwnd }),
            params,
            SimConfig { seed, ..SimConfig::default() },
        )
    }

    #[test]
    fn paced_sender_matches_link_rate() {
        let params = LinkParams::new(12.0, 20.0, 0.0);
        let mut s = sim(12.0, 1e9, params, 0);
        s.run_for(SEC); // warmup
        let stats = s.run_for(5 * SEC);
        assert!(
            (stats.utilization - 1.0).abs() < 0.02,
            "sender at link rate must saturate: {}",
            stats.utilization
        );
        assert!((stats.throughput_mbps - 12.0).abs() < 0.5, "{}", stats.throughput_mbps);
    }

    #[test]
    fn slow_sender_underutilizes() {
        let params = LinkParams::new(12.0, 20.0, 0.0);
        let mut s = sim(6.0, 1e9, params, 0);
        s.run_for(SEC);
        let stats = s.run_for(5 * SEC);
        assert!((stats.utilization - 0.5).abs() < 0.03, "{}", stats.utilization);
    }

    #[test]
    fn rtt_equals_two_propagations_plus_serialization_when_unqueued() {
        let params = LinkParams::new(12.0, 30.0, 0.0);
        // very slow sender: no queueing
        let mut s = sim(1.0, 1e9, params, 0);
        s.run_for(SEC);
        let stats = s.run_for(2 * SEC);
        // 60 ms propagation + 1 ms serialization
        assert!((stats.avg_rtt_ms - 61.0).abs() < 1.0, "{}", stats.avg_rtt_ms);
    }

    #[test]
    fn overload_fills_queue_and_drops() {
        let params = LinkParams::new(6.0, 10.0, 0.0);
        let mut s = sim(24.0, 1e9, params, 0);
        s.run_for(SEC);
        let stats = s.run_for(2 * SEC);
        assert!(stats.packets_lost_overflow > 0, "4x overload must overflow the queue");
        assert!(stats.utilization > 0.98, "but the link stays saturated");
        assert!(
            stats.avg_queue_delay_ms > 100.0,
            "standing queue of 150 kB at 6 Mbit/s is 200 ms: {}",
            stats.avg_queue_delay_ms
        );
    }

    #[test]
    fn random_loss_rate_is_honoured() {
        let params = LinkParams::new(12.0, 10.0, 0.10);
        let mut s = sim(10.0, 1e9, params, 42);
        s.run_for(SEC);
        let stats = s.run_for(10 * SEC);
        let loss = stats.packets_lost_random as f64 / stats.packets_sent as f64;
        assert!((loss - 0.10).abs() < 0.02, "measured loss {loss}");
    }

    #[test]
    fn bandwidth_change_takes_effect() {
        let mut s = sim(24.0, 1e9, LinkParams::new(24.0, 10.0, 0.0), 0);
        s.run_for(SEC);
        let before = s.run_for(2 * SEC);
        s.set_link(LinkParams::new(6.0, 10.0, 0.0));
        s.run_for(SEC); // settle
        let after = s.run_for(2 * SEC);
        assert!(before.throughput_mbps > 20.0, "{}", before.throughput_mbps);
        assert!((after.throughput_mbps - 6.0).abs() < 0.5, "after cut: {}", after.throughput_mbps);
    }

    #[test]
    fn cwnd_limits_inflight() {
        let params = LinkParams::new(12.0, 50.0, 0.0);
        let mut s = sim(100.0, 4.0, params, 0);
        s.run_for(SEC);
        assert!(
            s.inflight_bytes() <= 4 * MTU_BYTES,
            "inflight {} exceeds 4-packet cwnd",
            s.inflight_bytes()
        );
        let stats = s.run_for(2 * SEC);
        // 4 pkts per RTT (~101 ms) ≈ 0.47 Mbit/s
        assert!(stats.throughput_mbps < 1.0, "{}", stats.throughput_mbps);
    }

    #[test]
    fn rto_recovers_from_total_loss() {
        // 100% loss for a while, then clean: the flow must resume
        let mut s = sim(12.0, 10.0, LinkParams::new(12.0, 10.0, 1.0), 7);
        let black = s.run_for(2 * SEC);
        assert_eq!(black.packets_delivered, 0);
        s.set_link(LinkParams::new(12.0, 10.0, 0.0));
        let recovered = s.run_for(3 * SEC);
        assert!(
            recovered.packets_delivered > 100,
            "flow must recover after blackout: {} delivered",
            recovered.packets_delivered
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = sim(10.0, 1e9, LinkParams::new(12.0, 20.0, 0.05), seed);
            let st = s.run_for(5 * SEC);
            (st.delivered_bytes, st.packets_lost_random)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1);
    }

    #[test]
    fn queue_delay_probe_is_instantaneous() {
        let params = LinkParams::new(6.0, 10.0, 0.0);
        let mut s = sim(24.0, 1e9, params, 0);
        s.run_for(2 * SEC);
        // queue is full (150 kB at 6 Mbit/s = 200 ms)
        assert!(s.queue_delay_ms() > 150.0, "{}", s.queue_delay_ms());
    }

    #[test]
    fn acks_never_reorder_across_latency_drops() {
        // deliver packets under high latency, then slam latency down: the
        // FIFO return path must keep ACK arrival order = delivery order,
        // otherwise loss detection fires spuriously (a bug this test pins)
        let mut s = sim(24.0, 1e9, LinkParams::new(24.0, 60.0, 0.0), 0);
        s.run_for(SEC);
        s.set_link(LinkParams::new(24.0, 15.0, 0.0));
        let stats = s.run_for(2 * SEC);
        // no loss configured → nothing may be lost, spuriously or otherwise
        assert_eq!(stats.packets_lost_random, 0);
        assert_eq!(stats.packets_lost_overflow, 0);
        // and the flow keeps running at full rate
        assert!(stats.utilization > 0.9, "{}", stats.utilization);
    }

    #[test]
    fn queue_capacity_is_configurable() {
        let tiny = SimConfig { queue_capacity_bytes: 5 * MTU_BYTES, ..SimConfig::default() };
        let mut s = FlowSim::new(
            Box::new(FixedRateCc { rate_bps: 24e6, cwnd: 1e9 }),
            LinkParams::new(6.0, 10.0, 0.0),
            tiny,
        );
        s.run_for(SEC);
        let stats = s.run_for(SEC);
        assert!(stats.packets_lost_overflow > 0);
        // a 5-packet queue at 6 Mbit/s drains in 10 ms: sojourn stays small
        assert!(
            stats.avg_queue_delay_ms < 15.0,
            "tiny queue must bound delay: {}",
            stats.avg_queue_delay_ms
        );
    }

    #[test]
    fn zero_latency_link_works() {
        let mut s = sim(12.0, 1e9, LinkParams::new(12.0, 0.0, 0.0), 0);
        s.run_for(SEC);
        let stats = s.run_for(SEC);
        assert!(stats.utilization > 0.95);
        // RTT is pure serialization (1 ms per packet at 12 Mbit/s)
        assert!(stats.avg_rtt_ms < 5.0, "{}", stats.avg_rtt_ms);
    }

    #[test]
    fn utilization_counts_only_delivered() {
        let mut s = sim(24.0, 1e9, LinkParams::new(12.0, 10.0, 0.5), 1);
        s.run_for(SEC);
        let stats = s.run_for(4 * SEC);
        assert!(stats.utilization < 1.0);
        assert!(stats.packets_lost_random > 0);
    }

    #[test]
    fn sim_config_try_new_rejects_bad_values() {
        assert!(SimConfig::try_new(150_000, 1500, 0, 0.25).is_ok());
        assert!(SimConfig::try_new(150_000, 0, 0, 0.25).is_err(), "zero packet");
        assert!(SimConfig::try_new(1000, 1500, 0, 0.25).is_err(), "queue < packet");
        assert!(SimConfig::try_new(1400, 1400, 0, 0.25).is_err(), "queue < MTU");
        assert!(SimConfig::try_new(150_000, 1500, 0, 0.0).is_err(), "zero RTO");
        assert!(SimConfig::try_new(150_000, 1500, 0, f64::NAN).is_err(), "NaN RTO");
        assert!(SimConfig::try_new(150_000, 1500, 0, f64::INFINITY).is_err(), "inf RTO");
        assert!(SimConfig::try_new(150_000, 1500, 0, 1e-12).is_err(), "RTO truncates to 0 ns");
        assert!(SimConfig::try_new(150_000, 1500, 0, 1e-9).is_ok(), "1 ns RTO");
    }

    #[test]
    fn ack_event_accessors_match_raw_values() {
        let ack = AckEvent::from_raw(2.5, 0.04, 12e6, 1500, 4500, 90_000, 60_000);
        assert_eq!(ack.now_s(), 2.5);
        assert_eq!(ack.rtt_s(), 0.04);
        assert_eq!(ack.delivery_rate_bps(), 12e6);
        assert_eq!(ack.newly_acked_bytes(), 1500);
        assert_eq!(ack.inflight_bytes(), 4500);
        assert_eq!(ack.delivered.get(), 90_000);
        assert_eq!(ack.delivered_at_send.get(), 60_000);
        assert!(!ack.ecn);
    }
}
