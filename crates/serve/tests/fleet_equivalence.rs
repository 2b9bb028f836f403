//! The fleet engine's two load-bearing equivalence contracts
//! (DESIGN.md §13):
//!
//! 1. **Single-session parity** — a 1-session fleet reproduces the
//!    single-session [`abr::run_session`] eval path *bit-for-bit*, per
//!    chunk, for every policy kind (BB, stateful MPC, and batched
//!    Pensieve inference).
//! 2. **Shard invariance** — the shard count changes wall-clock only:
//!    every per-session trajectory and the serialized aggregation
//!    sketch are identical for 1, 2 and 4 shards.

mod common;

use abr::{AbrPolicy, BufferBased, Mpc, QoeParams, TraceNetwork, Video};
use common::test_pensieve;
use serve::{run_fleet, FleetConfig, FleetPolicy};
use traces::{GenConfig, TraceFamily, TraceStream};

/// Per-chunk QoE of the reference single-session path.
fn reference_chunk_qoe(policy: &mut dyn AbrPolicy, stream: &TraceStream, id: u64) -> Vec<f64> {
    let video = Video::cbr();
    let qoe = QoeParams::default();
    let mut net = TraceNetwork::new(stream.nth_trace(id));
    abr::run_session(&video, policy, &mut net, &qoe).iter().map(|o| o.qoe).collect()
}

fn one_session_fleet(policy: &FleetPolicy, stream: &TraceStream) -> Vec<f64> {
    let cfg = FleetConfig { record_chunks: true, ..FleetConfig::new(1, 1) };
    let summary = run_fleet(&cfg, policy, stream);
    summary.per_session[0].chunk_qoe.clone()
}

#[test]
fn one_session_fleet_matches_run_session_bit_for_bit() {
    let stream = TraceStream::new(TraceFamily::BenignMix, 77, GenConfig::default());

    let cases: Vec<(&str, Box<dyn AbrPolicy>, FleetPolicy)> = vec![
        (
            "bb",
            Box::new(BufferBased::pensieve_defaults()),
            FleetPolicy::per_session(|_id| Box::new(BufferBased::pensieve_defaults()) as _),
        ),
        (
            "mpc",
            Box::new(Mpc::default()),
            FleetPolicy::per_session(|_id| Box::new(Mpc::default()) as _),
        ),
        ("pensieve", Box::new(test_pensieve()), FleetPolicy::batched(test_pensieve())),
    ];
    for (name, mut reference, fleet_policy) in cases {
        let want = reference_chunk_qoe(reference.as_mut(), &stream, 0);
        let got = one_session_fleet(&fleet_policy, &stream);
        assert_eq!(want.len(), got.len(), "{name}: chunk counts differ");
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{name}: chunk {i} QoE differs ({w} vs {g})");
        }
    }
}

#[test]
fn shard_count_changes_nothing_but_speed() {
    let stream = TraceStream::new(TraceFamily::AdversarialLike, 321, GenConfig::default());
    let policies: Vec<(&str, FleetPolicy)> = vec![
        ("bb", FleetPolicy::per_session(|_id| Box::new(BufferBased::pensieve_defaults()) as _)),
        ("pensieve", FleetPolicy::batched(test_pensieve())),
    ];
    for (name, policy) in policies {
        let run = |shards: usize| {
            let cfg = FleetConfig { record_chunks: true, ..FleetConfig::new(12, shards) };
            run_fleet(&cfg, &policy, &stream)
        };
        let reference = run(1);
        for shards in [2, 4] {
            let other = run(shards);
            assert_eq!(other.shards, shards);
            assert_eq!(
                reference.per_session, other.per_session,
                "{name}: {shards} shards changed a trajectory"
            );
            assert_eq!(
                serde_json::to_string(&reference.sketch).expect("sketch serializes"),
                serde_json::to_string(&other.sketch).expect("sketch serializes"),
                "{name}: {shards} shards changed the aggregation sketch bytes"
            );
            assert_eq!(reference.decisions, other.decisions);
        }
    }
}
