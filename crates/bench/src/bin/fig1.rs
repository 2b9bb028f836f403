//! Figure 1: per-video QoE CDFs of Pensieve, MPC and BB on
//! (a) traces from the adversary trained against MPC,
//! (b) traces from the adversary trained against Pensieve,
//! (c) random traces.
//!
//! Run: `cargo run -p adv-bench --release --bin fig1` (`FULL=1` for paper
//! scale). Writes `results/fig1{a,b,c}.csv` with `protocol,qoe,cdf` rows.

use adv_bench::abr_eval;
use adv_bench::{banner, results_dir, Scale};
use adversary::qoe_cdf;

fn main() {
    let scale = Scale::from_env();
    banner(&format!("Figure 1 — QoE CDFs ({} scale)", scale.tag()));
    let data = abr_eval::run(scale);

    for (sub, set_name) in [("a", "mpc_targeted"), ("b", "pensieve_targeted"), ("c", "random")] {
        let set = data.set(set_name);
        banner(&format!("Fig. 1{sub}: {set_name} ({} traces)", set.traces.len()));
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        // a protocol with no replayed traces renders as NaN instead of
        // panicking the whole figure
        let pct = |xs: &[f64], p: f64| nn::ops::try_percentile(xs, p).unwrap_or(f64::NAN);
        println!("{:>10} {:>10} {:>10} {:>10} {:>10}", "protocol", "mean", "p25", "median", "p75");
        for (proto, qoe) in &set.qoe {
            println!(
                "{:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                proto,
                nn::ops::mean(qoe),
                pct(qoe, 25.0),
                pct(qoe, 50.0),
                pct(qoe, 75.0),
            );
            for (x, f) in qoe_cdf(qoe) {
                rows.push((proto.clone(), x, f));
            }
        }
        let path = results_dir().join(format!("fig1{sub}.csv"));
        if let Err(e) = traces::io::write_csv_series(&path, "protocol,qoe,cdf", &rows) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }

    // the paper's qualitative checks
    banner("Shape checks vs. the paper");
    let mpc_set = data.set("mpc_targeted");
    let pen_set = data.set("pensieve_targeted");
    let mpc_on_own = nn::ops::mean(&mpc_set.qoe["mpc"]);
    let pen_on_mpc_traces = nn::ops::mean(&mpc_set.qoe["pensieve"]);
    let pen_on_own = nn::ops::mean(&pen_set.qoe["pensieve"]);
    let mpc_on_pen_traces = nn::ops::mean(&pen_set.qoe["mpc"]);
    println!("targeted MPC QoE {mpc_on_own:.3} vs bystander Pensieve {pen_on_mpc_traces:.3} (paper: target suffers most)");
    println!("targeted Pensieve QoE {pen_on_own:.3} vs bystander MPC {mpc_on_pen_traces:.3}");
}
