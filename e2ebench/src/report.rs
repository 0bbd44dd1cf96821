//! Metric names, the measured window, the digest and the result line.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End to end: what it measures. Per layer: the end-to-end metric
    /// and workload it should move, or `none:` and what it is.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [Metric; 6] = [
    m(
        "frames_per_s",
        "1/s",
        "higher",
        "frames completed per second of time inside the system's calls",
    ),
    m(
        "symbols_per_s",
        "1/s",
        "higher",
        "symbols completed per second of time inside the system's calls",
    ),
    m(
        "frame_p50_us",
        "us",
        "lower",
        "median frame latency: its submit+serve round (serve-*) or its step (links)",
    ),
    m(
        "frame_p90_us",
        "us",
        "lower",
        "p90 frame latency, same definition; trigger frames excluded",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "AE training, extraction, compile, session or link open; median of 3",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "peak resident memory through set-up and the fixed-work prefix",
    ),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: [Metric; 32] = [
    m(
        "parallel.pool_run_us",
        "us",
        "lower",
        "frame_p50_us on serve-deploy",
    ),
    m(
        "parallel.steals_per_round",
        "count",
        "lower",
        "frame_p90_us on serve-deploy",
    ),
    m(
        "server.submit_ns_per_frame",
        "ns",
        "lower",
        "frame_p50_us on serve-deploy (small share)",
    ),
    m(
        "server.round_self_us",
        "us",
        "lower",
        "frames_per_s on serve-deploy",
    ),
    m(
        "server.chunks_per_round",
        "count",
        "higher",
        "frame_p50_us on serve-deploy",
    ),
    m(
        "server.churn_us",
        "us",
        "lower",
        "frame_p90_us on serve-deploy",
    ),
    m(
        "server.switch_us",
        "us",
        "lower",
        "frame_p90_us on serve-deploy",
    ),
    m(
        "server.allocs_per_frame",
        "count",
        "lower",
        "frames_per_s on serve-deploy",
    ),
    m(
        "channel.transmit_ns_per_sym",
        "ns",
        "lower",
        "frames_per_s on serve-deploy, frame_p50_us on equalize-isi",
    ),
    m(
        "demap.maxlog_ns_per_sym",
        "ns",
        "lower",
        "frames_per_s on serve-deploy (small share), frame_p50_us on equalize-isi",
    ),
    m(
        "demap.hybrid_ns_per_sym",
        "ns",
        "lower",
        "frames_per_s on serve-deploy",
    ),
    m(
        "demap.graph_ns_per_sym",
        "ns",
        "lower",
        "frames_per_s on serve-deploy",
    ),
    m(
        "ecc.viterbi_us_per_frame",
        "us",
        "lower",
        "frames_per_s on serve-deploy",
    ),
    m(
        "equalizer.equalize_ns_per_sym",
        "ns",
        "lower",
        "frame_p50_us on equalize-isi",
    ),
    m(
        "equalizer.dd_frames_frac",
        "ratio",
        "higher",
        "the digest's bit errors on equalize-isi",
    ),
    m(
        "retrain.run_ms",
        "ms",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "retrain.step_us",
        "us",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "extraction.extract_ms",
        "ms",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "deploy.calibrate_ms",
        "ms",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "deploy.compile_ms",
        "ms",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "runtime.step_self_us",
        "us",
        "lower",
        "frame_p50_us on adapt-drift",
    ),
    m(
        "runtime.adapt_p50_ms",
        "ms",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "runtime.adapt_p90_ms",
        "ms",
        "lower",
        "frames_per_s on adapt-drift",
    ),
    m(
        "runtime.triggers",
        "count",
        "lower",
        "none: simulated, must not move under a speed-only change",
    ),
    m(
        "runtime.swaps",
        "count",
        "higher",
        "none: simulated, must not move under a speed-only change",
    ),
    m(
        "runtime.swap_ratio",
        "ratio",
        "higher",
        "none: useful swaps per trigger, simulated",
    ),
    m(
        "runtime.sim_time_s",
        "s",
        "lower",
        "none: simulated retrain time, must not move under a speed-only change",
    ),
    m(
        "runtime.latency_frames",
        "frames",
        "lower",
        "none: simulated swap latency, must not move under a speed-only change",
    ),
    m(
        "setup.e2e_train_s",
        "s",
        "lower",
        "setup_s on every workload",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none: traced against untraced frame_p50_us",
    ),
    m(
        "bench.frames_traced",
        "count",
        "higher",
        "none: frames measured in the traced half",
    ),
    m(
        "bench.self_us",
        "us",
        "lower",
        "none: the benchmark's own time per traced round or frame",
    ),
];

/// Busy time after which a workload closes a throughput block of its
/// window.
pub const BLOCK_NS: u64 = 250_000_000;

/// Consecutive latency samples per latency block.
pub const LATENCY_BLOCK: usize = 100;

/// The tail percentile of a latency block: the highest with ten
/// samples beyond it in [`LATENCY_BLOCK`] samples.
pub const TAIL_Q: f64 = 0.9;

/// Share of the block figures dropped at each end before the rest are
/// averaged: it removes the blocks a stall of the host hit.
pub const TRIM: f64 = 0.1;

/// What one measured window produced. Throughput is read per block of
/// about [`BLOCK_NS`] busy time (a serve workload's rounds, a link
/// workload's whole passes), latency per block of [`LATENCY_BLOCK`]
/// consecutive samples. Each timing is the [`TRIM`]med mean over
/// blocks of the block's figure.
///
/// A small shared host switches between a fast and a slow state about
/// 1.45× apart, for a fraction of the window that differs from run to
/// run. A median over blocks jumps between the two states as that
/// fraction passes one half; a trimmed mean moves in proportion to it,
/// and its trim still drops the few blocks a stall hit.
#[derive(Default)]
pub struct Window {
    /// Frames completed.
    pub frames: u64,
    /// Symbols completed.
    pub symbols: u64,
    /// Time spent inside the timed calls into the system (ns).
    pub busy_ns: u64,
    /// Latency of each ordinary frame (ns): its serving round on the
    /// serve workloads, its `step` on the link workloads.
    pub frame_ns: Vec<u64>,
    /// Latency of each adaptation-trigger `step` (ns).
    pub adapt_ns: Vec<u64>,
    blocks: Vec<Block>,
    open: Block,
}

#[derive(Clone, Copy, Default)]
struct Block {
    frames: u64,
    symbols: u64,
    busy_ns: u64,
}

impl Window {
    /// Adds one timed call: `frames` frames of `symbols` symbols in
    /// `busy_ns`. `ordinary` marks a frame latency sample; otherwise it
    /// is an adaptation sample.
    pub fn add(
        &mut self,
        frames: u64,
        symbols: u64,
        busy_ns: u64,
        latency_ns: u64,
        ordinary: bool,
    ) {
        self.frames += frames;
        self.symbols += symbols;
        self.busy_ns += busy_ns;
        self.open.frames += frames;
        self.open.symbols += symbols;
        self.open.busy_ns += busy_ns;
        if ordinary {
            self.frame_ns.push(latency_ns);
        } else {
            self.adapt_ns.push(latency_ns);
        }
    }

    /// Busy time of the open block.
    pub fn block_busy_ns(&self) -> u64 {
        self.open.busy_ns
    }

    /// Closes the open block (a no-op when it is empty).
    pub fn close_block(&mut self) {
        if self.open.frames > 0 {
            self.blocks.push(std::mem::take(&mut self.open));
        }
    }

    /// Throughput blocks closed so far.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Latency blocks of the window.
    pub fn latency_blocks(&self) -> usize {
        self.frame_ns.len() / LATENCY_BLOCK
    }

    fn per_block(&self, count: impl Fn(&Block) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| count(b) as f64 / (b.busy_ns as f64 * 1e-9))
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            stats::trimmed_mean(&rates, TRIM)
        }
    }

    /// Trimmed mean over blocks of frames per second of busy time.
    pub fn frames_per_s(&self) -> f64 {
        self.per_block(|b| b.frames)
    }

    /// Trimmed mean over blocks of symbols per second of busy time.
    pub fn symbols_per_s(&self) -> f64 {
        self.per_block(|b| b.symbols)
    }

    /// Quantile `q` of every latency block (µs).
    pub fn block_quantiles(&self, q: f64) -> Vec<f64> {
        self.frame_ns
            .chunks_exact(LATENCY_BLOCK)
            .map(|c| stats::quantile(&scaled(c, 1e-3), q))
            .collect()
    }

    fn latency_us(&self, q: f64) -> Option<f64> {
        let v = self.block_quantiles(q);
        (!v.is_empty()).then(|| stats::trimmed_mean(&v, TRIM))
    }

    /// Trimmed mean over latency blocks of the block's median frame
    /// latency (µs); `None` below one block.
    pub fn frame_p50_us(&self) -> Option<f64> {
        self.latency_us(0.5)
    }

    /// Trimmed mean over latency blocks of the block's [`TAIL_Q`]
    /// latency (µs); `None` below one block.
    pub fn frame_tail_us(&self) -> Option<f64> {
        self.latency_us(TAIL_Q)
    }

    /// Sorted ordinary-frame latencies in µs.
    pub fn frame_us(&self) -> Vec<f64> {
        sorted(scaled(&self.frame_ns, 1e-3))
    }

    /// Sorted trigger-frame latencies in ms.
    pub fn adapt_ms(&self) -> Vec<f64> {
        sorted(scaled(&self.adapt_ns, 1e-6))
    }
}

fn scaled(ns: &[u64], scale: f64) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 * scale).collect()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Frames attempted and failed over the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Frames offered to the system.
    pub attempted: u64,
    /// Frames shed, dropped or failed.
    pub failed: u64,
}

/// The deterministic outcome of a workload's fixed-work prefix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    fields: Vec<(&'static str, String)>,
}

impl Digest {
    /// Appends a field.
    pub fn push(&mut self, key: &'static str, value: impl ToString) {
        self.fields.push((key, value.to_string()));
    }

    /// The fields as `key=value` pairs, in insertion order.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.fields {
            let _ = write!(s, " {k}={v}");
        }
        s.trim_start().to_string()
    }

    /// 64-bit FNV-1a hash of [`Digest::text`].
    pub fn hash(&self) -> u64 {
        self.text().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The metrics of the result line: (name, unit, value).
pub type Reported = Vec<(&'static str, &'static str, f64)>;

/// Latency summary line: median and the tail the sample count
/// supports, with the count.
pub fn latency_line(what: &str, unit: &str, sorted: &[f64]) -> String {
    if sorted.is_empty() {
        return format!("{what}: no samples");
    }
    let mut s = format!(
        "{what}: n={} p50={:.3} {unit}",
        sorted.len(),
        stats::quantile_sorted(sorted, 0.5)
    );
    if let Some(q) = stats::tail_quantile(sorted.len()).filter(|&q| q > 0.5) {
        let _ = write!(
            s,
            " {}={:.3} {unit}",
            stats::label(q),
            stats::quantile_sorted(sorted, q)
        );
    }
    s
}

/// The result object printed as the last line of standard output.
pub fn result_json(counts: Counts, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        counts.attempted, counts.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    s.push_str("}}");
    s
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<[String; 3]> {
        doc.field(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                ["name", "unit", "better"]
                    .map(|k| m.field(k).unwrap().as_str().unwrap().to_string())
            })
            .collect()
    }

    fn printed(list: &[Metric]) -> Vec<[String; 3]> {
        list.iter()
            .map(|m| [m.name, m.unit, m.better].map(str::to_string))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), printed(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), printed(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        assert!(!workloads.is_empty());
        for w in workloads {
            assert!(crate::WORKLOADS.contains(&w), "{w} is not a workload");
        }
    }

    #[test]
    fn result_line_parses_with_every_metric() {
        let metrics: Vec<(&str, &str, f64)> =
            END_TO_END.iter().map(|m| (m.name, m.unit, 1.25)).collect();
        let line = result_json(
            Counts {
                attempted: 10,
                failed: 1,
            },
            &metrics,
        );
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.field("attempted").unwrap(), &Json::Int(10));
        let m = doc.field("metrics").unwrap();
        for metric in END_TO_END {
            let entry = m.field(metric.name).unwrap();
            assert_eq!(entry.field("unit").unwrap().as_str().unwrap(), metric.unit);
        }
    }

    #[test]
    fn window_throughput_is_a_trimmed_mean_over_blocks() {
        let mut w = Window::default();
        // Ten blocks: eight at 1 ms per frame, one at 0.5 ms and one
        // stalled at 20 ms. The trim drops the fastest and the slowest.
        let mut per_frame = vec![1_000_000; 8];
        per_frame.extend([500_000, 20_000_000]);
        for busy in per_frame {
            for _ in 0..10 {
                w.add(1, 8, busy, busy, true);
            }
            w.close_block();
        }
        w.close_block();
        assert_eq!(w.blocks(), 10);
        let fps = w.frames_per_s();
        assert!((fps - 1000.0).abs() < 1e-9, "trimmed mean: {fps}");
        assert!((w.symbols_per_s() - 8.0 * fps).abs() < 1e-9);
        assert_eq!(w.frames, 100);
        let mut short = Window::default();
        short.add(1, 1, 1, 1, true);
        assert_eq!(short.frame_p50_us(), None, "one sample makes no block");
        assert_eq!(short.frame_tail_us(), None);
    }

    #[test]
    fn latency_is_the_trimmed_mean_of_block_quantiles() {
        assert_eq!(stats::tail_quantile(LATENCY_BLOCK), Some(TAIL_Q));
        let mut w = Window::default();
        // Block b holds 1..=100 µs scaled by b + 1: its p50 is
        // 50 (b + 1) µs and its p90 90 (b + 1) µs.
        for block in 0..10u64 {
            for i in 1..=LATENCY_BLOCK as u64 {
                w.add(1, 1, i, i * 1000 * (block + 1), true);
            }
        }
        assert_eq!(w.latency_blocks(), 10);
        assert_eq!(w.block_quantiles(TAIL_Q)[2], 270.0);
        // The trim drops blocks 0 and 9; blocks 1..=8 average 5.5 × the
        // first block.
        assert_eq!(w.frame_p50_us(), Some(275.0));
        assert_eq!(w.frame_tail_us(), Some(495.0));
    }

    #[test]
    fn digest_hash_follows_text() {
        let mut a = Digest::default();
        a.push("frames", 10);
        a.push("errors", 3);
        let mut b = a.clone();
        assert_eq!(a.hash(), b.hash());
        b.push("shed", 0);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.text(), "frames=10 errors=3");
    }
}
