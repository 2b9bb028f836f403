//! Bit-transparency of the robustness layer (DESIGN.md §15): a fleet
//! run with supervision fully **armed** — watchdog on, snapshot
//! rollback budgeted, observation/action validation and quarantine
//! live — but never **triggered** must be byte-identical to the
//! unsupervised reference, for every shard count and snapshot
//! granularity. Safety that isn't free of side effects when idle would
//! silently change the paper's numbers.

mod common;

use abr::{AbrPolicy, BufferBased, Mpc, QoeParams, TraceNetwork, Video};
use common::test_pensieve;
use proptest::prelude::*;
use serve::{try_run_fleet, FleetConfig, FleetPolicy, SupervisorConfig};
use traces::{GenConfig, TraceFamily, TraceStream};

/// Per-chunk QoE of the reference single-session path.
fn reference_chunk_qoe(policy: &mut dyn AbrPolicy, stream: &TraceStream, id: u64) -> Vec<f64> {
    let video = Video::cbr();
    let qoe = QoeParams::default();
    let mut net = TraceNetwork::new(stream.nth_trace(id));
    abr::run_session(&video, policy, &mut net, &qoe).iter().map(|o| o.qoe).collect()
}

/// A supervisor with everything armed: a watchdog far above any real
/// tick time (so it never fires), a retry budget, rollback snapshots
/// every `snapshot_ticks`, no spool.
fn armed(snapshot_ticks: usize) -> SupervisorConfig {
    // explicit fast poll: the monitor thread is joined at run end, so
    // the default poll (timeout/10) would add seconds of idle wait
    let watchdog = exec::WatchdogConfig {
        timeout: std::time::Duration::from_secs(60),
        poll: std::time::Duration::from_millis(2),
    };
    SupervisorConfig {
        backoff: fault::Backoff::none(2),
        watchdog: Some(watchdog),
        snapshot_ticks,
        spool_dir: None,
    }
}

fn family(idx: usize) -> TraceFamily {
    match idx % 3 {
        0 => TraceFamily::BenignMix,
        1 => TraceFamily::FccLike,
        _ => TraceFamily::AdversarialLike,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Armed supervision reproduces the reference `abr::run_session`
    /// trajectory of every session, bit for bit, regardless of shard
    /// count or snapshot granularity.
    #[test]
    fn armed_supervision_is_bit_transparent(
        sessions in 2usize..8,
        seed in 0u64..1_000,
        snapshot_ticks in 1usize..20,
        family_idx in 0usize..3,
    ) {
        let stream = TraceStream::new(family(family_idx), seed, GenConfig::default());
        let policy =
            FleetPolicy::per_session(|_id| Box::new(BufferBased::pensieve_defaults()) as _);

        // reference: the plain single-session eval path, per session
        let reference: Vec<Vec<f64>> = (0..sessions as u64)
            .map(|id| {
                let mut bb = BufferBased::pensieve_defaults();
                reference_chunk_qoe(&mut bb, &stream, id)
            })
            .collect();

        let mut sketches: Vec<String> = Vec::new();
        for shards in [1usize, 2, 4] {
            let cfg = FleetConfig { record_chunks: true, ..FleetConfig::new(sessions, shards) };
            let summary = try_run_fleet(&cfg, &policy, &stream, &armed(snapshot_ticks))
                .expect("armed-but-untriggered fleet must complete");
            prop_assert_eq!(summary.quarantined, 0);
            prop_assert_eq!(summary.fallbacks, 0);
            prop_assert_eq!(summary.shard_retries, 0);
            prop_assert_eq!(summary.completed, sessions);
            for (id, want) in reference.iter().enumerate() {
                let got = &summary.per_session[id].chunk_qoe;
                prop_assert_eq!(want.len(), got.len());
                for (w, g) in want.iter().zip(got) {
                    prop_assert_eq!(w.to_bits(), g.to_bits());
                }
            }
            sketches.push(serde_json::to_string(&summary.sketch).expect("sketch serializes"));
        }
        // shard count must not change a single aggregation byte
        prop_assert_eq!(&sketches[1], &sketches[0]);
        prop_assert_eq!(&sketches[2], &sketches[0]);
    }
}

/// The batched-Pensieve and stateful-MPC paths through the supervised
/// engine stay bit-identical to their references (fixed case: the
/// proptest above covers the combinatorics on the cheap BB path).
#[test]
fn armed_supervision_is_transparent_for_batched_and_stateful_policies() {
    let stream = TraceStream::new(TraceFamily::BenignMix, 77, GenConfig::default());
    let cases: Vec<(&str, Box<dyn AbrPolicy>, FleetPolicy)> = vec![
        ("pensieve", Box::new(test_pensieve()), FleetPolicy::batched(test_pensieve())),
        (
            "mpc",
            Box::new(Mpc::default()),
            FleetPolicy::per_session(|_id| Box::new(Mpc::default()) as _),
        ),
    ];
    for (name, mut reference, fleet_policy) in cases {
        let want: Vec<Vec<f64>> =
            (0..6u64).map(|id| reference_chunk_qoe(reference.as_mut(), &stream, id)).collect();
        for shards in [1usize, 3] {
            let cfg = FleetConfig { record_chunks: true, ..FleetConfig::new(6, shards) };
            let summary =
                try_run_fleet(&cfg, &fleet_policy, &stream, &armed(5)).expect("fleet completes");
            assert_eq!(summary.quarantined, 0, "{name}: spurious quarantine");
            for (id, want) in want.iter().enumerate() {
                let got = &summary.per_session[id].chunk_qoe;
                assert_eq!(want.len(), got.len(), "{name} session {id}: chunk counts differ");
                for (i, (w, g)) in want.iter().zip(got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "{name} session {id} chunk {i}: {w} vs {g}"
                    );
                }
            }
        }
    }
}
