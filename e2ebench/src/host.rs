//! Host fingerprint and process memory, printed with every result.

use hybridem_mathkit::simd::LaneWidth;

/// What a result needs to be compared against another host's.
pub struct Fingerprint {
    /// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu_model: String,
    /// Available parallelism.
    pub nproc: usize,
    /// 32-bit lanes the SIMD kernels dispatch at.
    pub simd_lanes: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Short git revision, or `"unknown"` outside a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Probes the current host.
    pub fn probe() -> Self {
        Self {
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            nproc: nproc(),
            simd_lanes: LaneWidth::detect().lanes(),
            rustc: env!("E2EBENCH_RUSTC"),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One printable line.
    pub fn line(&self) -> String {
        format!(
            "host cpu=\"{}\" nproc={} simd_lanes={} rustc=\"{}\" git_rev={}",
            self.cpu_model, self.nproc, self.simd_lanes, self.rustc, self.git_rev
        )
    }
}

/// Available parallelism (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Asks git only when the working directory is itself a checkout, so
/// the lookup never wanders into an enclosing repository.
fn git_rev() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
