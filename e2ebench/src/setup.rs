//! The set-up every workload starts from: the paper's hybrid system
//! trained end to end at its operating point, its centroids extracted
//! and checked.

use hybridem_core::config::SystemConfig;
use hybridem_core::pipeline::HybridPipeline;
use std::time::Instant;

/// The paper's operating point (Eb/N0, dB).
pub const SNR_DB: f64 = 8.0;

/// The trained system. Its training seed is part of the system's
/// configuration, not of the workload input: every `--seed` serves the
/// same trained demapper, so seeds vary only the traffic.
pub struct Trained {
    /// Trained pipeline with centroids extracted.
    pub pipe: HybridPipeline,
    /// Wall time of E2E training alone (s).
    pub train_s: f64,
}

/// The system configuration at the operating point with the given E2E
/// training budget (the drift runtime's short-run settings).
pub fn config(e2e_steps: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default().at_snr(SNR_DB);
    cfg.e2e_steps = e2e_steps;
    cfg.retrain_steps = 400;
    cfg.grid_n = 96;
    cfg
}

/// Trains and extracts. Fails unless extraction finds one centroid per
/// label with no label's decision region missing.
pub fn train(e2e_steps: usize) -> Result<Trained, String> {
    let mut pipe = HybridPipeline::new(config(e2e_steps));
    let t = Instant::now();
    pipe.e2e_train();
    let train_s = t.elapsed().as_secs_f64();
    let report = pipe.extract_centroids();
    let labels = pipe.config().num_symbols();
    if report.centroids.len() != labels || !report.missing_labels.is_empty() {
        return Err(format!(
            "extraction found {} centroids for {labels} labels, missing {:?}",
            report.centroids.len(),
            report.missing_labels
        ));
    }
    Ok(Trained { pipe, train_s })
}
