//! Criterion micro-benchmarks of the simulators — the substrate the
//! training loops hammer: packet-level link simulation, ABR chunk
//! simulation, the MPC lookahead, and the offline-optimal DP.

use abr::{
    optimal_qoe_dp, run_session, AbrObservation, AbrPolicy, BufferBased, Mpc, QoeParams, Video,
};
use cc::Bbr;
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::{FlowSim, LinkParams, SimConfig, MS, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_netsim(c: &mut Criterion) {
    c.bench_function("netsim_bbr_1s_12mbps", |b| {
        b.iter_batched(
            || {
                FlowSim::new(
                    Box::new(Bbr::new()),
                    LinkParams::new(12.0, 25.0, 0.0),
                    SimConfig::default(),
                )
            },
            |mut sim| black_box(sim.run_for(SEC)),
            criterion::BatchSize::SmallInput,
        )
    });

    c.bench_function("netsim_bbr_30ms_interval", |b| {
        let mut sim = FlowSim::new(
            Box::new(Bbr::new()),
            LinkParams::new(12.0, 25.0, 0.0),
            SimConfig::default(),
        );
        sim.run_for(2 * SEC);
        b.iter(|| black_box(sim.run_for(30 * MS)))
    });

    // the CC adversary's regime (`bbr_train_env`): 100 seeded random
    // Table-1 links (loss 0–10 %), each held for 10 × 30 ms, so the flow
    // keeps losing packets and re-converging — unlike the lossless
    // constant links above
    let links: Vec<LinkParams> = {
        let mut rng = StdRng::seed_from_u64(0x7ab1e1);
        (0..100)
            .map(|_| {
                LinkParams::new(
                    rng.gen_range(6.0..24.0),
                    rng.gen_range(15.0..60.0),
                    rng.gen_range(0.0..0.10),
                )
            })
            .collect()
    };
    c.bench_function("netsim_bbr_30s_table1_300ms", |b| {
        b.iter(|| {
            let mut sim = FlowSim::new(Box::new(Bbr::new()), links[0], SimConfig::default());
            for &p in &links {
                sim.set_link(p);
                for _ in 0..10 {
                    black_box(sim.run_for(30 * MS));
                }
            }
        })
    });
}

fn bench_abr(c: &mut Criterion) {
    let video = Video::cbr();
    let qoe = QoeParams::default();

    c.bench_function("abr_session_bb_48_chunks", |b| {
        b.iter(|| {
            let mut bb = BufferBased::pensieve_defaults();
            let mut net = abr::FixedConditions::new(2.5, 80.0);
            black_box(run_session(&video, &mut bb, &mut net, &qoe))
        })
    });

    c.bench_function("abr_session_mpc_48_chunks", |b| {
        b.iter(|| {
            let mut mpc = Mpc::default();
            let mut net = abr::FixedConditions::new(2.5, 80.0);
            black_box(run_session(&video, &mut mpc, &mut net, &qoe))
        })
    });

    let bw: Vec<f64> = (0..48).map(|i| 1.0 + 0.07 * (i % 30) as f64).collect();
    c.bench_function("abr_offline_optimal_dp", |b| {
        b.iter(|| black_box(optimal_qoe_dp(&video, &qoe, &bw, 0.08)))
    });

    c.bench_function("abr_windowed_optimum_4", |b| {
        b.iter(|| {
            black_box(abr::windowed_optimal_qoe(
                &video,
                &qoe,
                10,
                &[2.0, 1.1, 3.4, 0.9],
                0.08,
                12.0,
                Some(3),
            ))
        })
    });

    // protocol decision latency: matters because the MPC lookahead is the
    // bottleneck of adversary training against MPC. Its bounded search
    // costs more in some states than in others, so time a fixed, seeded
    // set of decisions taken from MPC sessions (time per set; divide by
    // the count in the name for the mean decision)
    let decisions = mpc_decision_set(&video, &qoe);
    c.bench_function(&format!("mpc_decision_set_{}", decisions.len()), |b| {
        b.iter(|| {
            for (mpc, obs) in &decisions {
                black_box(mpc.clone().select(obs));
            }
        })
    });
}

/// Every decision of `MPC_SESSIONS` seeded MPC sessions whose per-chunk
/// bandwidth is uniform in 0.8–4.8 Mbit/s (the §3 adversary's action
/// range): the protocol state before each decision and what it observed.
fn mpc_decision_set(video: &Video, qoe: &QoeParams) -> Vec<(Mpc, AbrObservation)> {
    const MPC_SESSIONS: usize = 5;
    let mut rng = StdRng::seed_from_u64(0x3c_0de);
    let mut decisions = Vec::new();
    for _ in 0..MPC_SESSIONS {
        let mut mpc = Mpc::default();
        let mut net = abr::FixedConditions::new(2.5, 80.0);
        let mut player = abr::Player::new(video, qoe.clone());
        while !player.finished() {
            net.bandwidth_mbps = rng.gen_range(0.8..4.8);
            let obs = player.observation(&net);
            decisions.push((mpc.clone(), obs.clone()));
            player.step(mpc.select(&obs), &mut net);
        }
    }
    decisions
}

criterion_group!(benches, bench_netsim, bench_abr);
criterion_main!(benches);
