//! Worker of the repository benchmark. Runs one seeded workload through
//! the workspace crates' public APIs and prints one JSON report line:
//! repetition timings, set-up timings, the raw values the output checks
//! compare and, in traced mode, the per-layer metrics.
//!
//! `run.py` in this directory is the benchmark's entry point: it builds
//! this binary, pins the environment, checks the report and prints the
//! benchmark's result line. Run directly:
//!
//! ```text
//! advnet-perfbench --workload <name> --seed <n> --seconds <s> --work-dir <dir> [--traced] [--tiny]
//! ```

mod attack;
mod fleet;
mod probe;
mod report;

use report::{peak_rss_kb, Obj};
use std::path::PathBuf;

pub const WORKLOADS: [&str; 3] = ["abr-attack-mpc", "cc-attack-bbr", "fleet-pensieve"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Minimum length of the timed body; repetitions run until it passes.
    pub seconds: f64,
    /// Also run traced repetitions and report per-layer metrics.
    pub traced: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
    /// Scratch directory for checkpoints.
    pub work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut work_dir) = (None, None, None, None);
        let (mut traced, mut tiny) = (false, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
                "--traced" => traced = true,
                "--tiny" => tiny = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("--seconds must be a non-negative number, got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced,
            tiny,
            work_dir: work_dir.ok_or("--work-dir is required")?,
        })
    }
}

/// Every seed a workload uses, derived from the one workload seed.
pub struct Seeds {
    /// PPO trainer (exploration, minibatch shuffles, initial weights).
    pub ppo: u64,
    /// Packet simulator (loss draws; episode seeds derive from it).
    pub sim: u64,
    /// Fleet session traces (`TraceStream` base seed).
    pub traces: u64,
    /// Pensieve training corpus.
    pub corpus: u64,
    /// Rows of the replayed batched forward.
    pub features: u64,
}

impl From<u64> for Seeds {
    fn from(seed: u64) -> Seeds {
        let s = |stream| exec::split_seed(seed, stream);
        Seeds { ppo: s(0), sim: s(1), traces: s(2), corpus: s(3), features: s(4) }
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("advnet-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("advnet-perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    telemetry::set_enabled(false);
    let body = match args.workload.as_str() {
        "abr-attack-mpc" => attack::run(attack::Target::Mpc, &args),
        "cc-attack-bbr" => attack::run(attack::Target::Bbr, &args),
        _ => fleet::run(&args),
    };
    let out = Obj::new()
        .text("workload", &args.workload)
        .int("seed", args.seed)
        .obj("result", body)
        .int("peak_rss_kb", peak_rss_kb());
    println!("{}", serde_json::to_string(&out.into_value()).expect("report serializes"));
}
