//! Figure 2: the QoE ratio (mean / 95th percentile / max) of the
//! *non-target* protocol over the *target* protocol on targeted and random
//! traces. The paper reports: MPC achieves up to 1.38× Pensieve's QoE on
//! Pensieve-targeting traces, Pensieve up to 2.55× MPC's on MPC-targeting
//! traces, and in >75 % of targeted traces the target does worse.
//!
//! Run: `cargo run -p adv-bench --release --bin fig2`. Writes
//! `results/fig2.csv` with `pair,statistic,value` rows.

use adv_bench::abr_eval;
use adv_bench::{banner, results_dir, Scale};
use adversary::RatioSummary;

fn main() {
    let scale = Scale::from_env();
    banner(&format!("Figure 2 — QoE ratios ({} scale)", scale.tag()));
    let data = abr_eval::run(scale);

    // (label, trace set, target protocol, other protocol)
    let pairs = [
        ("Pensieve/MPC on MPC traces", "mpc_targeted", "mpc", "pensieve"),
        ("MPC/Pensieve on Pensieve traces", "pensieve_targeted", "pensieve", "mpc"),
        ("Pensieve/MPC on random traces", "random", "mpc", "pensieve"),
        ("MPC/Pensieve on random traces", "random", "pensieve", "mpc"),
    ];

    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    println!("{:>34} {:>8} {:>8} {:>8} {:>14}", "pair", "mean", "p95", "max", "target-worse %");
    for (label, set_name, target, other) in pairs {
        let set = data.set(set_name);
        let s = RatioSummary::compute(&set.qoe[target], &set.qoe[other]);
        println!(
            "{label:>34} {:>8.3} {:>8.3} {:>8.3} {:>13.1}%",
            s.mean,
            s.p95,
            s.max,
            100.0 * s.target_worse_frac
        );
        for (stat, v) in [
            ("mean", s.mean),
            ("p95", s.p95),
            ("max", s.max),
            ("target_worse_frac", s.target_worse_frac),
        ] {
            rows.push((format!("{label}|{stat}"), 0.0, v));
        }
    }
    let path = results_dir().join("fig2.csv");
    if let Err(e) = traces::io::write_csv_series(&path, "pair_stat,x,value", &rows) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
    println!("(paper reference: 2.55x max Pensieve/MPC on MPC traces, 1.38x MPC/Pensieve on Pensieve traces, >75% target-worse on targeted sets, weaker effects on random)");
}
