//! Property-based tests (proptest) of core invariants across the
//! workspace: QoE algebra, player dynamics, trace cursors, the offline
//! optimum, the packet simulator, and the policy heads.

use abr::{qoe_chunk, windowed_optimal_qoe, FixedConditions, Player, QoeParams, Video};
use proptest::prelude::*;
use traces::{Segment, Trace, TraceCursor};

proptest! {
    /// QoE is monotone: more rebuffering never increases it.
    #[test]
    fn qoe_monotone_in_rebuffer(
        bitrate in 0.3_f64..4.3,
        prev in 0.3_f64..4.3,
        r1 in 0.0_f64..30.0,
        extra in 0.0_f64..30.0,
    ) {
        let p = QoeParams::default();
        let a = qoe_chunk(&p, bitrate, Some(prev), r1);
        let b = qoe_chunk(&p, bitrate, Some(prev), r1 + extra);
        prop_assert!(b <= a + 1e-12);
    }

    /// QoE switching penalty is symmetric and zero at no-switch.
    #[test]
    fn qoe_switch_symmetry(a in 0.3_f64..4.3, b in 0.3_f64..4.3) {
        let p = QoeParams::default();
        let ab = qoe_chunk(&p, a, Some(b), 0.0) - a;
        let ba = qoe_chunk(&p, b, Some(a), 0.0) - b;
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((qoe_chunk(&p, a, Some(a), 0.0) - a).abs() < 1e-12);
    }

    /// The player conserves time: wall clock equals the sum of per-chunk
    /// download and sleep times; buffer stays within [0, cap].
    #[test]
    fn player_time_conservation(
        bw in 0.5_f64..20.0,
        latency_ms in 0.0_f64..500.0,
        quality in 0_usize..6,
    ) {
        let mut net = FixedConditions::new(bw, latency_ms);
        let mut player = Player::new(Video::cbr(), QoeParams::default());
        let mut total = 0.0;
        while !player.finished() {
            let o = player.step(quality, &mut net);
            total += o.download_s + o.sleep_s;
            prop_assert!(player.buffer_s() >= 0.0);
            prop_assert!(player.buffer_s() <= abr::player::BUFFER_CAP_S + 1e-9);
            prop_assert!(o.rebuffer_s >= 0.0);
        }
        prop_assert!((player.time_s() - total).abs() < 1e-6);
    }

    /// An observation written into one reused scratch shows exactly the
    /// last 8 chunks' throughput and download time, oldest first, and the
    /// next chunk's sizes (zeros once the video is over), whatever the
    /// scratch held before.
    #[test]
    fn observation_shows_the_last_eight_chunks(
        bw in 0.2_f64..10.0,
        latency_ms in 0.0_f64..300.0,
        q_seed in 0_usize..1_000,
        vbr_seed in 0_u64..1_000,
    ) {
        let video = Video::synthetic(vbr_seed);
        let mut net = FixedConditions::new(bw, latency_ms);
        let mut player = Player::new(video.clone(), QoeParams::default());
        let mut scratch = abr::AbrObservation {
            throughput_mbps: vec![f64::NAN; 11],
            next_sizes: vec![f64::NAN; 3],
            ..Default::default()
        };
        let (mut tps, mut dls) = (Vec::new(), Vec::new());
        for chunk in 0..=video.n_chunks() {
            player.observation_into(&net, &mut scratch);
            let from = tps.len().saturating_sub(abr::HISTORY_LEN);
            prop_assert_eq!(&scratch.throughput_mbps, &tps[from..].to_vec());
            prop_assert_eq!(&scratch.download_s, &dls[from..].to_vec());
            let sizes = if chunk < video.n_chunks() {
                video.sizes_of(chunk).to_vec()
            } else {
                vec![0.0; video.n_qualities()]
            };
            prop_assert_eq!(&scratch.next_sizes, &sizes);
            prop_assert_eq!(scratch.chunks_remaining, video.n_chunks() - chunk);
            if chunk < video.n_chunks() {
                // a bandwidth ramp, so that every chunk's samples differ
                net.bandwidth_mbps = bw * (1.0 + chunk as f64 / 8.0);
                let o = player.step((q_seed + chunk * 7) % video.n_qualities(), &mut net);
                tps.push(o.throughput_mbps);
                dls.push(o.download_s);
            }
        }
    }

    /// Download time through a trace cursor equals bytes/рate integrated:
    /// total transferred bits == integral of bandwidth over busy time.
    #[test]
    fn cursor_download_conserves_bits(
        bw1 in 0.5_f64..10.0,
        bw2 in 0.5_f64..10.0,
        dur1 in 0.5_f64..5.0,
        dur2 in 0.5_f64..5.0,
        bytes in 1_000.0_f64..5_000_000.0,
    ) {
        let t = Trace::new("p", vec![Segment::bw(dur1, bw1, 0.0), Segment::bw(dur2, bw2, 0.0)]);
        let mut c = TraceCursor::new(t.clone());
        let dt = c.download(bytes);
        // integrate bandwidth over [0, dt) with the cyclic trace
        let steps = 20_000;
        let mut bits = 0.0;
        for k in 0..steps {
            let tm = (k as f64 + 0.5) / steps as f64 * dt;
            bits += t.bandwidth_at(tm) * 1e6 * (dt / steps as f64);
        }
        let expect = bytes * 8.0;
        prop_assert!(
            (bits - expect).abs() / expect < 0.01,
            "transferred {expect} bits but integral says {bits}"
        );
    }

    /// The windowed optimum dominates any constant-quality plan on the
    /// same window (optimality), and never goes below the all-lowest plan.
    /// The window starts at any chunk of a CBR or a VBR video, so a search
    /// that read another chunk's sizes would lose to a plan.
    #[test]
    fn windowed_optimum_dominates(
        bw in proptest::collection::vec(0.8_f64..4.8, 4),
        buffer in 0.0_f64..30.0,
        prev_q in 0_usize..6,
        start in 0_usize..=44,
        vbr in any::<bool>(),
        video_seed in any::<u64>(),
    ) {
        let video = if vbr { Video::synthetic(video_seed) } else { Video::cbr() };
        let qoe = QoeParams::default();
        let opt = windowed_optimal_qoe(&video, &qoe, start, &bw, 0.08, buffer, Some(prev_q));
        for q in 0..6 {
            // constant-quality rollout
            let mut buf = buffer;
            let mut prev = Some(prev_q);
            let mut total = 0.0;
            for (k, b) in bw.iter().enumerate() {
                let size = video.size_bytes(start + k, q);
                let dl = 0.08 + size * 8.0 / (b * 1e6);
                let rebuf = (dl - buf).max(0.0);
                buf = (buf - dl).max(0.0) + video.chunk_seconds();
                buf = buf.min(abr::player::BUFFER_CAP_S);
                total += qoe_chunk(&qoe, video.bitrate_mbps(q),
                    prev.map(|p| video.bitrate_mbps(p)), rebuf);
                prev = Some(q);
            }
            prop_assert!(opt >= total - 1e-9, "q={q}: opt {opt} < const plan {total}");
        }
    }

    /// Trace stats are sane for arbitrary valid traces.
    #[test]
    fn trace_stats_bounds(
        segs in proptest::collection::vec((0.1_f64..10.0, 0.1_f64..50.0, 0.0_f64..200.0, 0.0_f64..0.5), 1..20)
    ) {
        let t = Trace::new(
            "s",
            segs.iter()
                .map(|&(d, b, l, p)| Segment { duration_s: d, bandwidth_mbps: b, latency_ms: l, loss_rate: p })
                .collect(),
        );
        let st = traces::TraceStats::of(&t);
        prop_assert!(st.min_bandwidth <= st.mean_bandwidth + 1e-12);
        prop_assert!(st.mean_bandwidth <= st.max_bandwidth + 1e-12);
        prop_assert!(st.std_bandwidth >= 0.0);
        prop_assert!((0.0..=0.5).contains(&st.mean_loss));
        prop_assert!(st.duration_s > 0.0);
    }

    /// JSON round-trips preserve traces exactly.
    #[test]
    fn trace_json_roundtrip(
        segs in proptest::collection::vec((0.1_f64..10.0, 0.1_f64..50.0, 0.0_f64..200.0, 0.0_f64..1.0), 1..10)
    ) {
        let t = Trace::new(
            "rt",
            segs.iter()
                .map(|&(d, b, l, p)| Segment { duration_s: d, bandwidth_mbps: b, latency_ms: l, loss_rate: p })
                .collect(),
        );
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Categorical policies put probability exactly 1 across actions and
    /// log-probs agree with probabilities, for random nets and inputs.
    #[test]
    fn categorical_policy_consistency(
        seed in 0_u64..1000,
        obs in proptest::collection::vec(-3.0_f64..3.0, 4),
    ) {
        use rand::SeedableRng;
        use rl::PolicyHead;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = rl::CategoricalPolicy::new(&[4, 8, 5], &mut rng);
        let probs = p.probs(&obs);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (i, pr) in probs.iter().enumerate() {
            let lp = p.log_prob(&obs, &rl::Action::Discrete(i));
            prop_assert!((lp.exp() - pr).abs() < 1e-9);
        }
        let h = p.entropy(&obs);
        prop_assert!(h >= -1e-12 && h <= (5.0_f64).ln() + 1e-9);
    }

    /// Gaussian log-probs integrate (via sampling) to a proper density:
    /// mode has the highest density of any sampled point.
    #[test]
    fn gaussian_mode_maximizes_density(
        seed in 0_u64..500,
        obs in proptest::collection::vec(-2.0_f64..2.0, 3),
    ) {
        use rand::SeedableRng;
        use rl::PolicyHead;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = rl::GaussianPolicy::new(&[3, 6, 2], 0.5, &mut rng);
        let mode = p.mode(&obs);
        let lp_mode = p.log_prob(&obs, &mode);
        for _ in 0..16 {
            let (a, lp) = p.sample(&obs, &mut rng);
            prop_assert!(lp <= lp_mode + 1e-9, "sample {a:?} denser than mode");
        }
    }

    /// GAE with γ=λ=1 and zero values reduces to reward-to-go.
    #[test]
    fn gae_reduces_to_reward_to_go(
        rewards in proptest::collection::vec(-5.0_f64..5.0, 1..30)
    ) {
        let n = rewards.len();
        let values = vec![0.0; n];
        let mut dones = vec![false; n];
        dones[n - 1] = true;
        let (adv, ret) = rl::gae(&rewards, &values, &dones, 0.0, 1.0, 1.0);
        let mut suffix = 0.0;
        for i in (0..n).rev() {
            suffix += rewards[i];
            prop_assert!((adv[i] - suffix).abs() < 1e-9);
            prop_assert!((ret[i] - suffix).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The packet simulator never creates bytes: delivered ≤ sent, and a
    /// sender at any rate cannot exceed capacity on a clean link.
    #[test]
    fn netsim_conservation(
        bw in 6.0_f64..24.0,
        lat in 15.0_f64..60.0,
        rate in 1.0_f64..40.0,
    ) {
        use netsim::{FlowSim, LinkParams, SimConfig, SEC};
        let mut sim = FlowSim::new(
            Box::new(netsim::sim::FixedRateCc { rate_bps: rate * 1e6, cwnd: 1e9 }),
            LinkParams::new(bw, lat, 0.0),
            SimConfig::default(),
        );
        sim.run_for(SEC);
        let st = sim.run_for(3 * SEC);
        prop_assert!(st.packets_delivered <= st.packets_sent + 200,
            "delivered {} > sent {} (+inflight margin)", st.packets_delivered, st.packets_sent);
        prop_assert!(st.utilization <= 1.0 + 1e-9);
        prop_assert!(st.throughput_mbps <= bw * 1.02 + 0.1);
    }
}
