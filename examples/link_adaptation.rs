//! Closed-loop link adaptation: a long-running link whose channel
//! changes mid-stream; the adaptation controller watches pilot BER and
//! ECC corrected-flip counts (paper §II-C) and triggers demapper
//! retraining automatically.
//!
//! ```sh
//! cargo run --release --example link_adaptation
//! ```

use hybridem::comm::channel::{Channel, ChannelChain};
use hybridem::comm::demapper::Demapper;
use hybridem::comm::ecc::{ConvCode, Viterbi};
use hybridem::comm::metrics::count_bit_errors;
use hybridem::core::adapt::{AdaptThresholds, AdaptationController, Recommendation};
use hybridem::core::config::SystemConfig;
use hybridem::core::pipeline::HybridPipeline;
use hybridem::mathkit::rng::{Rng64, Xoshiro256pp};

fn main() {
    let mut cfg = SystemConfig::paper_default();
    cfg.snr_db = 8.0;
    cfg.retrain_steps = 1200;
    let es_n0 = cfg.es_n0_db();

    println!("== closed-loop adaptation demo ==");
    let mut pipe = HybridPipeline::new(cfg);
    let _ = pipe.e2e_train();
    let _ = pipe.extract_centroids();

    let mut controller = AdaptationController::new(AdaptThresholds::default());
    let code = ConvCode::new();
    let viterbi = Viterbi::new();
    let mut rng = Xoshiro256pp::seed_from_u64(2024);

    // The channel drifts: epochs of (phase offset, label).
    let epochs: [(f32, &str); 3] = [
        (0.0, "clean AWGN"),
        (std::f32::consts::FRAC_PI_4, "π/4 phase jump"),
        (0.6, "further drift to 0.6 rad"),
    ];

    for (theta, label) in epochs {
        println!("\n--- channel epoch: {label} (θ = {theta:.3} rad) ---");
        let mut channel = ChannelChain::phase_then_awgn(theta, es_n0);
        // Stream frames until the controller is satisfied or retrains.
        for frame in 0..40 {
            let (pilot_tx, pilot_rx, corrected, code_bits) =
                transmit_frame(&pipe, &mut channel, &code, &viterbi, &mut rng);
            controller.observe_pilot_errors(
                count_bit_errors(&pilot_tx, &pilot_rx),
                pilot_tx.len() as u64,
            );
            controller.observe_ecc(corrected, code_bits);

            if controller.recommendation() == Recommendation::Retrain {
                let pilot_ber = hybridem::comm::metrics::count_bit_errors(&pilot_tx, &pilot_rx)
                    as f64
                    / pilot_tx.len() as f64;
                println!(
                    "  frame {frame:2}: RETRAIN triggered (pilot BER ≈ {pilot_ber:.3}, \
                     ECC flips {corrected}/{code_bits})"
                );
                let mut live = ChannelChain::phase_then_awgn(theta, es_n0);
                let rt = pipe.retrain(&mut live);
                println!(
                    "  retrained: loss {:.3} → {:.3}; centroids re-extracted",
                    rt.initial_loss, rt.final_loss
                );
                controller.reset_after_retrain();
            } else if frame % 10 == 0 {
                println!("  frame {frame:2}: healthy={}", controller.is_healthy());
            }
        }
    }
    println!(
        "\ncontroller triggered {} retrains across {} channel epochs",
        controller.retrains_triggered(),
        epochs.len()
    );
}

/// Transmits one frame: a pilot block (known bits) plus a
/// convolutionally-coded payload; returns pilot tx/rx bits and the
/// ECC's corrected-flip statistics.
fn transmit_frame(
    pipe: &HybridPipeline,
    channel: &mut dyn Channel,
    code: &ConvCode,
    viterbi: &Viterbi,
    rng: &mut Xoshiro256pp,
) -> (Vec<u8>, Vec<u8>, u64, u64) {
    let constellation = pipe.constellation();
    let hybrid = pipe.hybrid_demapper().expect("deployed");
    let m = constellation.bits_per_symbol();

    // Pilot block: 128 known symbols.
    let mut pilot_tx_bits = Vec::with_capacity(128 * m);
    let mut pilot_syms = Vec::with_capacity(128);
    for _ in 0..128 {
        let u = (rng.next_u64() >> (64 - m)) as usize;
        for k in 0..m {
            pilot_tx_bits.push(((u >> (m - 1 - k)) & 1) as u8);
        }
        pilot_syms.push(constellation.point(u));
    }
    channel.transmit(&mut pilot_syms, rng);
    let mut pilot_rx_bits = vec![0u8; 128 * m];
    hybrid.hard_decide_block(&pilot_syms, &mut pilot_rx_bits);

    // Payload: 128 data bits, rate-1/2 convolutional code, soft decode.
    let mut payload = vec![0u8; 128];
    rng.fill_bits(&mut payload);
    let coded = code.encode(&payload);
    // Pack code bits into symbols (pad with zeros to a whole symbol).
    let mut syms = Vec::with_capacity(coded.len().div_ceil(m));
    let mut chunk = Vec::with_capacity(m);
    for &b in &coded {
        chunk.push(b);
        if chunk.len() == m {
            syms.push(constellation.point(hybridem::comm::bits::pack_bits(&chunk)));
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        while chunk.len() < m {
            chunk.push(0);
        }
        syms.push(constellation.point(hybridem::comm::bits::pack_bits(&chunk)));
    }
    channel.transmit(&mut syms, rng);
    let outcome = viterbi.decode_demapped(code, hybrid, &syms, coded.len());
    (
        pilot_tx_bits,
        pilot_rx_bits,
        outcome.corrected,
        coded.len() as u64,
    )
}
