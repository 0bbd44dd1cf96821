//! Integration: the Table-1 adaptation loop — π/4 phase offset breaks
//! the receivers, monitored pilots trigger a retrain, retraining
//! restores performance near the baseline.

use hybridem::comm::channel::{Channel, ChannelChain};
use hybridem::comm::demapper::Demapper;
use hybridem::comm::metrics::count_bit_errors;
use hybridem::core::adapt::{AdaptThresholds, AdaptationController, Recommendation};
use hybridem::core::config::SystemConfig;
use hybridem::core::pipeline::HybridPipeline;
use hybridem::mathkit::rng::{Rng64, Xoshiro256pp};

fn trained(snr_db: f64) -> HybridPipeline {
    let mut cfg = SystemConfig::fast_test().at_snr(snr_db);
    cfg.e2e_steps = 2500;
    cfg.batch_size = 256;
    cfg.retrain_steps = 800;
    cfg.grid_n = 96;
    let mut pipe = HybridPipeline::new(cfg);
    let _ = pipe.e2e_train();
    let _ = pipe.extract_centroids();
    pipe
}

/// Sends pilot frames through the channel, returns the (errors, bits)
/// of the pipeline's hybrid demapper's hard decisions.
fn pilot_round(
    pipe: &HybridPipeline,
    channel: &mut dyn Channel,
    rng: &mut Xoshiro256pp,
    n_symbols: usize,
) -> (u64, u64) {
    let constellation = pipe.constellation();
    let hybrid = pipe.hybrid_demapper().unwrap();
    let m = constellation.bits_per_symbol();
    let mut tx = Vec::with_capacity(n_symbols * m);
    let mut syms = Vec::with_capacity(n_symbols);
    for _ in 0..n_symbols {
        let u = (rng.next_u64() >> (64 - m)) as usize;
        for k in 0..m {
            tx.push(((u >> (m - 1 - k)) & 1) as u8);
        }
        syms.push(constellation.point(u));
    }
    channel.transmit(&mut syms, rng);
    let mut rx = vec![0u8; n_symbols * m];
    hybrid.hard_decide_block(&syms, &mut rx);
    (count_bit_errors(&tx, &rx), tx.len() as u64)
}

#[test]
fn table1_loop_detect_retrain_recover() {
    let theta = std::f32::consts::FRAC_PI_4;
    let mut pipe = trained(8.0);
    let es = pipe.config().es_n0_db();
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let mut controller = AdaptationController::new(AdaptThresholds::default());

    // Healthy channel: no trigger.
    let mut clean = ChannelChain::phase_then_awgn(0.0, es);
    for _ in 0..4 {
        let (errors, bits) = pilot_round(&pipe, &mut clean, &mut rng, 512);
        controller.observe_pilot_errors(errors, bits);
    }
    assert_eq!(controller.recommendation(), Recommendation::Continue);
    assert!(controller.is_healthy());

    // Phase jump: trigger within a few pilot rounds.
    controller.reset_after_retrain(); // clear healthy history
    let mut rotated = ChannelChain::phase_then_awgn(theta, es);
    let mut triggered = false;
    for _ in 0..8 {
        let (errors, bits) = pilot_round(&pipe, &mut rotated, &mut rng, 512);
        controller.observe_pilot_errors(errors, bits);
        if controller.recommendation() == Recommendation::Retrain {
            triggered = true;
            break;
        }
    }
    assert!(triggered, "π/4 offset must trigger a retrain");

    // Retrain and verify recovery (Table 1's after-retraining rows).
    let before = pipe.evaluate_three(&rotated, 60_000, 7)[2].ber;
    let mut live = ChannelChain::phase_then_awgn(theta, es);
    let report = pipe.retrain(&mut live);
    assert!(report.final_loss < report.initial_loss * 0.5);
    let after = pipe.evaluate_three(&rotated, 60_000, 8)[2].ber;
    assert!(
        after < before * 0.25,
        "hybrid BER must recover: {before} → {after}"
    );
    // Post-retrain pilots look healthy again.
    controller.reset_after_retrain();
    let mut live = ChannelChain::phase_then_awgn(theta, es);
    for _ in 0..4 {
        let (errors, bits) = pilot_round(&pipe, &mut live, &mut rng, 512);
        controller.observe_pilot_errors(errors, bits);
    }
    assert_eq!(controller.recommendation(), Recommendation::Continue);
}

#[test]
fn fig3_regions_rotate_with_retraining() {
    let theta = std::f32::consts::FRAC_PI_4;
    let mut pipe = trained(8.0);
    let es = pipe.config().es_n0_db();
    let before = pipe.extraction_report().unwrap().clone();

    let mut live = ChannelChain::phase_then_awgn(theta, es);
    let _ = pipe.retrain(&mut live);
    let after = pipe.extraction_report().unwrap();

    // Mean angular displacement of confident centroids ≈ θ.
    let mut rot = 0.0f64;
    let mut n = 0;
    for (b, a) in before.centroids.iter().zip(&after.centroids) {
        if b.abs() > 0.4 && a.abs() > 0.4 {
            let mut d = (a.arg() - b.arg()) as f64;
            while d > std::f64::consts::PI {
                d -= 2.0 * std::f64::consts::PI;
            }
            while d < -std::f64::consts::PI {
                d += 2.0 * std::f64::consts::PI;
            }
            rot += d;
            n += 1;
        }
    }
    let mean = rot / n as f64;
    assert!(
        (mean - std::f64::consts::FRAC_PI_4).abs() < 0.2,
        "centroids should rotate by ≈π/4, got {mean:.3} rad over {n} centroids"
    );
}
