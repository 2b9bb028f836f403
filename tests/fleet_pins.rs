//! A recorded fleet run. The serve suites' batched Pensieve, whose
//! normalizer holds real statistics (`crates/serve/tests/common/mod.rs`),
//! serves 200 sessions of an HSDPA-like stream on 2 shards. The fleet's
//! decision count, the bits of its mean and 5th-percentile QoE, and an
//! FNV-1a digest over every session's mean-QoE bits are pinned to values
//! recorded before the fleet's lanes stopped copying the video and the
//! trace into every session.
//!
//! The serve equivalence suites compare the fleet against
//! `abr::run_session`. Both sides step an `abr::Player`, so those suites
//! cannot see a fault in the player itself, nor one that both paths
//! share; these pins can.
//!
//! libm: the stream's generator (`traces::hsdpa_like`) calls no `exp` or
//! `ln`, every `tanh` of the forward is `nn::math::tanh`, and the greedy
//! action needs no `exp`. The policy's initial weights, though, come from
//! `nn::init`'s Box–Muller, which calls the host libm's `ln` and `cos`.
//! So, like the recorded runs of `crates/rl/tests/update_equivalence.rs`,
//! these pins hold on hosts whose glibc picks the same builds of those two
//! functions (`telemetry::provenance()` stamps a libm fingerprint).

#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

use serve::{run_fleet, FleetConfig, FleetPolicy};
use traces::{GenConfig, TraceFamily, TraceStream};

#[test]
fn batched_fleet_matches_the_recorded_run() {
    let stream = TraceStream::new(TraceFamily::HsdpaLike, 25, GenConfig::default());
    let policy = FleetPolicy::batched(common::test_pensieve());
    let s = run_fleet(&FleetConfig::new(200, 2), &policy, &stream);
    let session_bits: Vec<u8> =
        s.per_session.iter().flat_map(|r| r.mean_qoe.to_bits().to_le_bytes()).collect();
    let got =
        (s.decisions, s.mean_qoe.to_bits(), s.p5_qoe.to_bits(), rl::ckpt::fnv1a64(&session_bits));
    assert_eq!(s.quarantined, 0);
    assert_eq!(got, (9600, 0xc007_4165_c98d_a4d4, 0xc025_b420_f5a2_2e55, 0xb8e0_e82d_8a7a_deb1));
}
