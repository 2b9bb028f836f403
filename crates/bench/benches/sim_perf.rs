//! Criterion micro-benchmarks of the simulators — the substrate the
//! training loops hammer: packet-level link simulation, ABR chunk
//! simulation, the MPC lookahead, and the offline-optimal DP.
//!
//! Besides the Criterion timings, the benchmark times each netsim row five
//! times, interleaved, and writes the medians and quartiles of its wall
//! time per call and of the events handled per second to
//! `results/BENCH_sim.json` — the numbers quoted in `docs/PERF.md`. The
//! single-flow rows drive a 1-flow `MultiFlowSim` (what `FlowSim` wraps),
//! so that `MultiFlowSim::total_events` counts their events.

use abr::{
    optimal_qoe_dp, run_session, AbrObservation, AbrPolicy, BufferBased, Mpc, QoeParams, Video,
};
use adv_bench::{results_dir, Spread};
use cc::{Bbr, Copa, Cubic};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::{LinkParams, MultiFlowSim, SimConfig, MS, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;

/// A 1-flow BBR simulator on `params`.
fn bbr_sim(params: LinkParams) -> MultiFlowSim {
    let mut sim = MultiFlowSim::new(params, SimConfig::default());
    sim.add_flow(0, Box::new(Bbr::new()));
    sim
}

/// The CC adversary's regime (`bbr_train_env`): 100 seeded random Table-1
/// links (loss 0–10 %), each held for 10 × 30 ms, so the flow keeps losing
/// packets and re-converging — unlike the lossless constant links of the
/// other rows.
fn table1_links() -> Vec<LinkParams> {
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
}

/// One BBR flow through every link of [`table1_links`].
fn run_table1(links: &[LinkParams]) -> MultiFlowSim {
    let mut sim = bbr_sim(links[0]);
    for &p in links {
        sim.set_link(p);
        for _ in 0..10 {
            black_box(sim.run_for(30 * MS));
        }
    }
    sim
}

/// `contest_matrix`'s default mix cell — BBR, Cubic and Copa on a
/// 24 Mbit/s, 20 ms link, seed 7 — at drop-tail, run for 10 s.
fn run_contest() -> MultiFlowSim {
    let cfg = SimConfig { seed: 7, ..SimConfig::default() };
    let mut sim = MultiFlowSim::new(LinkParams::new(24.0, 20.0, 0.0), cfg);
    sim.add_flow(0, Box::new(Bbr::new()));
    sim.add_flow(1, Box::new(Cubic::new()));
    sim.add_flow(2, Box::new(Copa::new()));
    black_box(sim.run_for(10 * SEC));
    sim
}

/// A steady-state BBR flow on a lossless 12 Mbit/s, 25 ms link, after a
/// 2 s warm-up.
fn warmed_bbr_sim() -> MultiFlowSim {
    let mut sim = bbr_sim(LinkParams::new(12.0, 25.0, 0.0));
    sim.run_for(2 * SEC);
    sim
}

fn bench_netsim(c: &mut Criterion) {
    c.bench_function("netsim_bbr_1s_12mbps", |b| {
        b.iter_batched(
            || bbr_sim(LinkParams::new(12.0, 25.0, 0.0)),
            |mut sim| black_box(sim.run_for(SEC)),
            criterion::BatchSize::SmallInput,
        )
    });

    c.bench_function("netsim_bbr_30ms_interval", |b| {
        let mut sim = warmed_bbr_sim();
        b.iter(|| black_box(sim.run_for(30 * MS)))
    });

    let links = table1_links();
    c.bench_function("netsim_bbr_30s_table1_300ms", |b| b.iter(|| run_table1(&links)));

    c.bench_function("netsim_contest_bbr_cubic_copa_10s", |b| b.iter(run_contest));
}

#[derive(Debug, Clone, Serialize)]
struct NetsimRow {
    /// The Criterion benchmark of the same work.
    name: String,
    /// Milliseconds per call, one value per run.
    ms_per_call: Spread,
    /// Events handled per second of wall time, one value per run.
    events_per_s: Spread,
    /// Events handled per call, averaged over every call of every run.
    events_per_call: f64,
}

#[derive(Debug, Clone, Serialize)]
struct SimBenchReport {
    /// Git commit the numbers were measured at (provenance).
    commit: String,
    /// Host the numbers were measured on (provenance).
    hostname: String,
    /// Physical parallelism of that host (provenance).
    cores: usize,
    /// Toolchain that compiled the benchmark (provenance).
    rustc: String,
    /// Which libm variant the host ran (provenance,
    /// `telemetry::libm_fingerprint`).
    libm: String,
    rows: Vec<NetsimRow>,
}

/// Independent runs behind every committed row.
const RUNS: usize = 5;

/// One run of a row: calls `f` (which returns the events it handled) for
/// about 0.5 s; returns the calls, the events and the wall seconds.
fn time_calls(f: &mut dyn FnMut() -> u64) -> (u64, u64, f64) {
    let t = std::time::Instant::now();
    let (mut calls, mut events) = (0u64, 0u64);
    while t.elapsed().as_secs_f64() < 0.5 {
        events += f();
        calls += 1;
    }
    (calls, events, t.elapsed().as_secs_f64())
}

/// A named netsim workload that returns the events one call handled.
type Row<'a> = (&'static str, Box<dyn FnMut() -> u64 + 'a>);

/// The Criterion rows of [`bench_netsim`], each timed [`RUNS`] times,
/// written to `results/BENCH_sim.json`.
fn bench_netsim_spread(_c: &mut Criterion) {
    let links = table1_links();
    let mut interval_sim = warmed_bbr_sim();
    let mut rows: Vec<Row> = vec![
        (
            "netsim_bbr_1s_12mbps",
            Box::new(|| {
                let mut sim = bbr_sim(LinkParams::new(12.0, 25.0, 0.0));
                black_box(sim.run_for(SEC));
                sim.total_events()
            }),
        ),
        (
            "netsim_bbr_30ms_interval",
            Box::new(|| {
                let before = interval_sim.total_events();
                black_box(interval_sim.run_for(30 * MS));
                interval_sim.total_events() - before
            }),
        ),
        ("netsim_bbr_30s_table1_300ms", Box::new(|| run_table1(&links).total_events())),
        ("netsim_contest_bbr_cubic_copa_10s", Box::new(|| run_contest().total_events())),
    ];
    let mut samples = vec![Vec::new(); rows.len()];
    // runs interleave the rows, so host drift lands on all of them
    for _ in 0..RUNS {
        for ((_, f), runs) in rows.iter_mut().zip(&mut samples) {
            runs.push(time_calls(f.as_mut()));
        }
    }
    let rows: Vec<NetsimRow> = rows
        .iter()
        .zip(samples)
        .map(|((name, _), runs)| {
            let ms = runs.iter().map(|&(calls, _, wall)| wall * 1e3 / calls as f64).collect();
            let eps = runs.iter().map(|&(_, events, wall)| events as f64 / wall).collect();
            let (calls, events) =
                runs.iter().fold((0, 0), |(c, e), &(calls, events, _)| (c + calls, e + events));
            let row = NetsimRow {
                name: name.to_string(),
                ms_per_call: Spread::of(ms),
                events_per_s: Spread::of(eps),
                events_per_call: events as f64 / calls as f64,
            };
            eprintln!(
                "[sim_perf] {}: median {:.3} ms/call (Q1 {:.3}, Q3 {:.3}), {:.2} M events/s \
                 (Q1 {:.2}, Q3 {:.2})",
                row.name,
                row.ms_per_call.median,
                row.ms_per_call.q1,
                row.ms_per_call.q3,
                row.events_per_s.median / 1e6,
                row.events_per_s.q1 / 1e6,
                row.events_per_s.q3 / 1e6,
            );
            row
        })
        .collect();
    let prov = telemetry::provenance();
    let report = SimBenchReport {
        commit: prov.commit,
        hostname: prov.hostname,
        cores: prov.cores,
        rustc: prov.rustc,
        libm: prov.libm,
        rows,
    };
    let path = results_dir().join("BENCH_sim.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            std::fs::write(&path, json).expect("write BENCH_sim.json");
            eprintln!("[sim_perf] wrote {}", path.display());
        }
        Err(e) => eprintln!("[sim_perf] could not serialize report: {e}"),
    }
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
        let mut player = abr::Player::new(video.clone(), qoe.clone());
        while !player.finished() {
            net.bandwidth_mbps = rng.gen_range(0.8..4.8);
            let obs = player.observation(&net);
            decisions.push((mpc.clone(), obs.clone()));
            player.step(mpc.select(&obs), &mut net);
        }
    }
    decisions
}

criterion_group!(benches, bench_netsim, bench_abr, bench_netsim_spread);
criterion_main!(benches);
