//! Chunk-level adaptive-bitrate (ABR) video streaming simulator.
//!
//! This reproduces the simulator the paper trains and tests against (the
//! Pensieve simulator of Mao et al., SIGCOMM '17): a client repeatedly
//! downloads 4-second video chunks at one of six bitrates over a
//! time-varying network, balancing bitrate, rebuffering and smoothness.
//!
//! * [`video::Video`] — the bitrate ladder and per-chunk sizes.
//! * [`player::Player`] — buffer/rebuffer dynamics of a streaming session.
//! * [`qoe`] — the linear QoE metric of MPC (Yin et al., SIGCOMM '15), the
//!   reward both the protocols and the adversary reason about.
//! * [`protocols`] — Buffer-Based (BB), rate-based, robust MPC, and the
//!   RL-driven Pensieve policy.
//! * [`optimal`] — offline optima: the exact windowed optimum (the `r_opt`
//!   of the adversary's reward, Eq. 1) and the full-trace dynamic program
//!   (Fig. 3's "Offline Optimum").
//! * [`mod@env`] — the [`rl::Env`] used to *train* Pensieve over a trace corpus.
//!
//! The network is abstracted by [`player::Network`], implemented for both
//! dataset traces ([`traces::TraceCursor`]) and the adversary's per-chunk
//! bandwidth choice ([`player::FixedConditions`]).

pub mod env;
pub mod obs;
pub mod optimal;
#[cfg(test)]
mod oracle;
pub mod player;
pub mod protocols;
pub mod qoe;
pub mod video;

pub use env::AbrTrainEnv;
pub use obs::{AbrObservation, HISTORY_LEN};
pub use optimal::{chunk_bandwidths_from_trace, optimal_qoe_dp, windowed_optimal_qoe};
pub use player::{ChunkOutcome, FixedConditions, Network, Player, TraceNetwork};
pub use protocols::{AbrPolicy, Bola, BufferBased, Mpc, Pensieve, RateBased};
pub use qoe::{qoe_chunk, QoeParams};
pub use video::Video;

/// Run a full video session: `policy` streams `video` over `net`,
/// returning the per-chunk outcomes.
pub fn run_session(
    video: &Video,
    policy: &mut dyn AbrPolicy,
    net: &mut dyn Network,
    qoe: &QoeParams,
) -> Vec<ChunkOutcome> {
    let mut player = Player::new(video.clone(), qoe.clone());
    policy.reset();
    let mut outcomes = Vec::with_capacity(video.n_chunks());
    while !player.finished() {
        let obs = player.observation(net);
        let quality = policy.select(&obs);
        outcomes.push(player.step(quality, net));
    }
    outcomes
}

/// Total QoE of a session divided by the number of chunks — the per-chunk
/// mean QoE reported throughout the paper's Figs. 1–4.
pub fn mean_qoe(outcomes: &[ChunkOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().map(|o| o.qoe).sum::<f64>() / outcomes.len() as f64
}
