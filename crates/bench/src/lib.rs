//! Shared infrastructure for the experiment binaries (one per paper
//! table/figure) and the Criterion micro-benchmarks.
//!
//! Every binary:
//! * runs at a **reduced scale by default** (minutes, not hours) and at the
//!   paper's scale with `FULL=1`;
//! * prints the same rows/series the paper reports;
//! * writes CSV (and JSON caches of expensive artifacts) under `results/`.

pub mod abr_eval;
pub mod cc_adv;
pub mod pipeline;
pub mod saved;

use serde::Serialize;
use std::path::PathBuf;

/// Experiment scale, selected by the `FULL` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: tens of thousands of adversary steps, tens of traces.
    Reduced,
    /// The paper's scale: ~600 k adversary steps, 200 traces.
    Full,
}

impl Scale {
    pub fn from_env() -> Scale {
        match std::env::var("FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Scale::Full,
            _ => Scale::Reduced,
        }
    }

    /// Adversary training steps (paper: 600 k).
    pub fn adversary_steps(self) -> usize {
        match self {
            Scale::Reduced => 90_000,
            Scale::Full => 600_000,
        }
    }

    /// Pensieve training steps.
    pub fn pensieve_steps(self) -> usize {
        match self {
            Scale::Reduced => 360_000,
            Scale::Full => 600_000,
        }
    }

    /// Traces per evaluation set (paper: 200).
    pub fn n_traces(self) -> usize {
        match self {
            Scale::Reduced => 60,
            Scale::Full => 200,
        }
    }

    /// Training corpus size for Fig. 4.
    pub fn corpus_size(self) -> usize {
        match self {
            Scale::Reduced => 40,
            Scale::Full => 120,
        }
    }

    pub fn tag(self) -> &'static str {
        match self {
            Scale::Reduced => "reduced",
            Scale::Full => "full",
        }
    }
}

/// `results/` at the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("RESULTS_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => PathBuf::from("results"),
    };
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create results dir {}: {e}", dir.display()));
    dir
}

/// Median and quartiles of repeated measurements of one quantity, as the
/// benchmarks commit them.
#[derive(Debug, Clone, Serialize)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub runs: usize,
}

impl Spread {
    /// The spread of `xs` (panics when empty or NaN, like
    /// [`nn::ops::percentile`]).
    pub fn of(xs: Vec<f64>) -> Spread {
        let at = |p: f64| nn::ops::percentile(&xs, p);
        Spread { median: at(50.0), q1: at(25.0), q3: at(75.0), runs: xs.len() }
    }
}

/// Print a section header to stdout.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a float series compactly for stdout tables.
pub fn fmt_row(name: &str, values: &[f64]) -> String {
    let mut s = format!("{name:>28}");
    for v in values {
        s.push_str(&format!(" {v:>8.3}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_convention() {
        // from_env reads the live environment; test the mapping directly
        assert_eq!(Scale::Reduced.n_traces(), 60);
        assert_eq!(Scale::Full.n_traces(), 200);
        assert_eq!(Scale::Full.adversary_steps(), 600_000);
        assert!(Scale::Reduced.adversary_steps() < Scale::Full.adversary_steps());
    }

    #[test]
    fn fmt_row_aligns() {
        let r = fmt_row("mean", &[1.0, 2.5]);
        assert!(r.contains("mean"));
        assert!(r.contains("1.000"));
        assert!(r.contains("2.500"));
    }
}
