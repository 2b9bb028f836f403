//! The per-phase serve spans are observational: a batched fleet served
//! with telemetry on makes the same decisions as one served with it off,
//! and records every phase once per tick (or per window) of every shard.
//! The only test in its binary, because telemetry is process-global.

mod common;

use serve::{run_fleet, FleetConfig, FleetPolicy};
use traces::{GenConfig, TraceFamily, TraceStream};

#[test]
fn tick_spans_are_recorded_and_change_nothing() {
    let stream = TraceStream::new(TraceFamily::BenignMix, 5, GenConfig::default());
    let policy = FleetPolicy::batched(common::test_pensieve());
    let cfg = FleetConfig { record_chunks: true, ..FleetConfig::new(8, 2) };
    let ticks = cfg.video.n_chunks() as u64;

    telemetry::set_enabled(false);
    let off = run_fleet(&cfg, &policy, &stream);
    telemetry::reset();
    telemetry::set_enabled(true);
    let on = run_fleet(&cfg, &policy, &stream);
    let spans = telemetry::snapshot().spans;
    telemetry::set_enabled(false);

    assert_eq!(off.per_session, on.per_session);
    assert_eq!(
        serde_json::to_string(&off.sketch).unwrap(),
        serde_json::to_string(&on.sketch).unwrap()
    );
    for name in ["serve.tick.features", "serve.tick.forward", "serve.tick.step"] {
        assert_eq!(spans.get(name).map(|s| s.count), Some(2 * ticks), "{name}");
    }
    // 48 ticks in 12-tick windows: each of the 2 shards takes and
    // releases 4 snapshots
    assert_eq!(spans.get("serve.snapshot").map(|s| s.count), Some(2 * 4 * 2));
    assert_eq!(spans.get("serve.fleet").map(|s| s.count), Some(1));
}
