//! Compare every built-in ABR protocol across three synthetic network
//! corpora: FCC-broadband-like, Norway-3G-like, and random traces spanning
//! the adversary's action space.
//!
//! ```sh
//! cargo run --release --example abr_showdown
//! ```

use abr::{
    mean_qoe, run_session, AbrPolicy, BufferBased, Mpc, QoeParams, RateBased, TraceNetwork, Video,
};
use traces::{fcc_like, hsdpa_like, GenConfig, Trace};

fn protocols() -> Vec<Box<dyn AbrPolicy>> {
    vec![
        Box::new(BufferBased::pensieve_defaults()),
        Box::new(RateBased::default()),
        Box::new(Mpc::default()),
    ]
}

fn eval_corpus(name: &str, corpus: &[Trace], video: &Video, qoe: &QoeParams) {
    println!("\n--- {name} ({} traces) ---", corpus.len());
    println!("{:>8} {:>8} {:>8} {:>8} {:>10}", "proto", "mean", "p5", "median", "rebuf s/vid");
    for mut proto in protocols() {
        let mut qoes = Vec::new();
        let mut rebuf = 0.0;
        for t in corpus {
            let mut net = TraceNetwork::new(t.clone());
            let outcomes = run_session(video, proto.as_mut(), &mut net, qoe);
            qoes.push(mean_qoe(&outcomes));
            rebuf += outcomes.iter().map(|o| o.rebuffer_s).sum::<f64>();
        }
        println!(
            "{:>8} {:>8.3} {:>8.3} {:>8.3} {:>10.2}",
            proto.name(),
            nn::ops::mean(&qoes),
            nn::ops::percentile(&qoes, 5.0),
            nn::ops::percentile(&qoes, 50.0),
            rebuf / corpus.len() as f64,
        );
    }
}

fn main() {
    println!("== ABR protocol showdown over synthetic corpora ==");
    let video = Video::cbr();
    let qoe = QoeParams::default();
    let cfg = GenConfig::default();

    let broadband: Vec<Trace> = (0..40).map(|i| fcc_like(i, &cfg)).collect();
    let mobile: Vec<Trace> = (0..40).map(|i| hsdpa_like(i, &cfg)).collect();
    let random: Vec<Trace> = (0..40).map(|i| traces::random_abr_trace(i, 80, 4.0, 80.0)).collect();

    eval_corpus("FCC-broadband-like", &broadband, &video, &qoe);
    eval_corpus("Norway-3G-like", &mobile, &video, &qoe);
    eval_corpus("random (adversary action space)", &random, &video, &qoe);

    println!("\nNote: BB ignores throughput and pays in smoothness; MPC's lookahead");
    println!("usually wins, which is why the paper needs an *adversary* — not random");
    println!("traces — to expose conditions where MPC loses to others (Figs. 1-2).");
}
