//! Concurrency properties of the telemetry registry: N threads hammering
//! counters and histograms must lose nothing (exact totals — counters are
//! integers and integer-valued f64 sums are associative, so thread
//! interleaving cannot perturb a single bit), and rendering a snapshot
//! must not depend on the order metrics were first touched.

use proptest::prelude::*;
use std::sync::Barrier;

/// Process-global registry ⇒ serialize every test case.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Totals are exact under contention: `threads × per_thread × delta`
    /// for the counter, `threads × per_thread` observations with an exact
    /// integer sum for the histogram.
    #[test]
    fn hammered_counters_and_histograms_are_exact(
        threads in 1_usize..6,
        per_thread in 1_usize..300,
        delta in 1_u64..9,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        telemetry::set_enabled(true);
        telemetry::reset();

        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..per_thread {
                        telemetry::counter_add("prop.counter", delta);
                        telemetry::observe("prop.hist", delta as f64);
                    }
                });
            }
        });

        let snap = telemetry::snapshot();
        let n = (threads * per_thread) as u64;
        prop_assert_eq!(snap.counters["prop.counter"], n * delta);
        let h = &snap.hists["prop.hist"];
        prop_assert_eq!(h.count, n);
        // integer-valued f64 additions are exact and order-independent
        prop_assert_eq!(h.sum, (n * delta) as f64);
        prop_assert_eq!(h.min, delta as f64);
        prop_assert_eq!(h.max, delta as f64);
        let bucket = (delta as f64).log2().floor() as i32;
        prop_assert_eq!(h.buckets[&bucket], n);

        telemetry::set_enabled(false);
        telemetry::reset();
    }

    /// The manifest body is byte-identical no matter which order (or from
    /// how many threads) the same metrics were first created.
    #[test]
    fn manifest_render_order_is_deterministic(
        name_ids in collection::vec(0_u64..60, 1..12),
        seed in 0_u64..1000,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let names: Vec<String> =
            name_ids.iter().map(|id| format!("grp{}.metric{id}", id % 7)).collect();
        let prov = telemetry::Provenance {
            commit: "deadbeef".into(),
            hostname: "prop-host".into(),
            cores: 8,
            rustc: "rustc test".into(),
            os: "test-os".into(),
            libm: "0123456789abcdef".into(),
        };
        let meta = telemetry::RunMeta {
            run_id: format!("prop-{seed}"),
            seed: Some(seed),
            config: vec![("case".into(), "determinism".into())],
        };

        // pass 1: insertion in given order, single thread
        telemetry::set_enabled(true);
        telemetry::reset();
        for (i, n) in names.iter().enumerate() {
            telemetry::counter_add(n, i as u64 + 1);
            telemetry::observe(n, (i + 1) as f64);
        }
        let body_a = telemetry::render_body(&meta, &prov, &telemetry::snapshot());

        // pass 2: reversed insertion order, touched from spawned threads
        telemetry::reset();
        std::thread::scope(|s| {
            for (i, n) in names.iter().enumerate().rev() {
                s.spawn(move || {
                    telemetry::counter_add(n, i as u64 + 1);
                    telemetry::observe(n, (i + 1) as f64);
                }).join().unwrap();
            }
        });
        let body_b = telemetry::render_body(&meta, &prov, &telemetry::snapshot());

        prop_assert_eq!(&body_a, &body_b);
        // and the sealed envelope round-trips through verification
        let sealed = telemetry::seal_body(&body_a);
        prop_assert_eq!(telemetry::manifest_body(&sealed).unwrap(), body_a.as_str());

        telemetry::set_enabled(false);
        telemetry::reset();
    }
}
