//! Property-based tests of the FPGA substrate: fold invariance,
//! quantisation fidelity, timing and resource monotonicity.

use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::Demapper;
use hybridem_fixed::{QFormat, Rounding};
use hybridem_fpga::demapper_accel::{SoftDemapperAccel, SoftDemapperConfig};
use hybridem_fpga::mvau::{Folding, HwActivation, Mvau, MvauConfig};
use hybridem_fpga::pipeline::{ExecutionMode, PipelineTiming, StageTiming};
use hybridem_fpga::power::PowerModel;
use hybridem_fpga::resources::ResourceUsage;
use hybridem_fpga::sigmoid_lut::SigmoidLut;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use proptest::prelude::*;

fn random_dense(out_dim: usize, in_dim: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut w = Matrix::zeros(out_dim, in_dim);
    for v in w.as_mut_slice() {
        *v = rng.normal_f32() * 0.4;
    }
    let mut b = Matrix::zeros(1, out_dim);
    for v in b.as_mut_slice() {
        *v = rng.normal_f32() * 0.2;
    }
    (w, b)
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn accel_block_bit_exact_with_per_symbol_process(
        len in 0usize..33,
        theta in -3.2f32..3.2,
        sigma in 0.05f32..0.5,
        seed in any::<u64>(),
    ) {
        // The fixed-point block kernel equals a per-symbol `process`
        // loop exactly — integer arithmetic end to end — including on
        // rotated centroid sets.
        let centroids = Constellation::qam_gray(16).rotated(theta);
        let accel = SoftDemapperAccel::new(
            SoftDemapperConfig::paper_default(),
            centroids.points(),
            sigma,
        );
        let m = accel.bits_per_symbol();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let ys: Vec<_> = (0..len)
            .map(|_| hybridem_mathkit::complex::C32::new(rng.normal_f32(), rng.normal_f32()))
            .collect();
        let mut raw_block = vec![0i64; len * m];
        accel.process_block(&ys, &mut raw_block);
        let mut f32_block = vec![0f32; len * m];
        accel.demap_block(&ys, &mut f32_block);
        let mut f32_single = vec![0f32; m];
        for (s, &y) in ys.iter().enumerate() {
            prop_assert_eq!(&raw_block[s * m..(s + 1) * m], &accel.process(y)[..]);
            accel.llrs_f32(y, &mut f32_single);
            for k in 0..m {
                prop_assert_eq!(f32_block[s * m + k].to_bits(), f32_single[k].to_bits());
            }
        }
    }

    #[test]
    fn mvau_fold_invariance_random_layers(
        in_pow in 1usize..5, out_pow in 1usize..5, seed in any::<u64>()
    ) {
        let in_dim = 1 << in_pow;
        let out_dim = 1 << out_pow;
        let fmt = QFormat::signed(8, 6);
        let (w, b) = random_dense(out_dim, in_dim, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 1);
        let input: Vec<i64> = (0..in_dim)
            .map(|_| fmt.raw_from_f64(rng.normal_f64() * 0.5, Rounding::Nearest))
            .collect();

        let reference = {
            let cfg = MvauConfig::full_parallel(in_dim, out_dim, fmt, fmt, fmt, false);
            Mvau::from_dense(cfg, &w, &b, HwActivation::Relu).process(&input)
        };
        for &simd in &divisors(in_dim) {
            for &pe in &divisors(out_dim) {
                let cfg = MvauConfig {
                    in_dim, out_dim, folding: Folding::new(pe, simd),
                    weight_format: fmt, in_format: fmt, out_format: fmt,
                    writable_weights: false,
                };
                let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
                prop_assert_eq!(m.process(&input), reference.clone(),
                    "simd={} pe={}", simd, pe);
            }
        }
    }

    #[test]
    fn mvau_matches_float_within_quantisation_bound(seed in any::<u64>()) {
        let fmt = QFormat::signed(10, 7);
        let (w, b) = random_dense(8, 8, seed);
        let cfg = MvauConfig::full_parallel(8, 8, fmt, fmt, QFormat::signed(12, 8), false);
        let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Linear);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 2);
        let xs: Vec<f64> = (0..8).map(|_| rng.normal_f64() * 0.5).collect();
        let raw: Vec<i64> = xs.iter().map(|&x| fmt.raw_from_f64(x, Rounding::Nearest)).collect();
        let out = m.process(&raw);
        // Float reference on the quantised weights/inputs.
        let wq = m.effective_weights();
        for o in 0..8 {
            let mut acc = b[(0, o)] as f64;
            // Bias is quantised to the accumulator format: allow its lsb.
            for i in 0..8 {
                acc += wq[(o, i)] as f64 * fmt.f64_from_raw(raw[i]);
            }
            let got = QFormat::signed(12, 8).f64_from_raw(out[o]);
            let tol = QFormat::signed(12, 8).resolution()
                + m.config().acc_format().resolution();
            prop_assert!((got - acc).abs() <= tol + 1e-9,
                "output {}: {} vs {}", o, got, acc);
        }
    }

    #[test]
    fn dsp_ii_product_is_constant(in_pow in 2usize..5, out_pow in 2usize..5) {
        // DSP × II = MAC count for every folding: the resource/time
        // trade-off is exact.
        let in_dim = 1 << in_pow;
        let out_dim = 1 << out_pow;
        let fmt = QFormat::signed(8, 6);
        let (w, b) = random_dense(out_dim, in_dim, 3);
        let macs = (in_dim * out_dim) as u64;
        for &simd in &divisors(in_dim) {
            for &pe in &divisors(out_dim) {
                let cfg = MvauConfig {
                    in_dim, out_dim, folding: Folding::new(pe, simd),
                    weight_format: fmt, in_format: fmt, out_format: fmt,
                    writable_weights: false,
                };
                let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
                prop_assert_eq!(m.resources().dsp * m.config().ii_cycles(), macs);
            }
        }
    }

    #[test]
    fn pipeline_simulation_matches_analysis(
        stages in proptest::collection::vec((1u64..6, 1u64..12), 1..6),
        iterative in any::<bool>(),
    ) {
        let stages: Vec<StageTiming> = stages
            .into_iter()
            .map(|(ii, extra)| StageTiming { ii, depth: ii + extra })
            .collect();
        let mode = if iterative { ExecutionMode::Iterative } else { ExecutionMode::Pipelined };
        let p = PipelineTiming::new(stages, mode, 100.0);
        let trace = p.simulate(64);
        prop_assert_eq!(trace.latency_cycles, p.total_depth_cycles());
        prop_assert_eq!(trace.ii_cycles, p.ii_cycles());
        // Completion times strictly increase.
        for w in trace.finish_cycles.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn power_monotone_in_resources(lut in 0u64..50_000, ff in 0u64..50_000,
                                   dsp in 0u64..360, bram in 0.0f64..200.0) {
        let m = PowerModel::default();
        let base = ResourceUsage { lut, ff, dsp, bram36: bram };
        let p0 = m.power_w(&base, 150.0, 1.0);
        let bigger = ResourceUsage { lut: lut + 100, ff, dsp, bram36: bram };
        prop_assert!(m.power_w(&bigger, 150.0, 1.0) > p0);
        prop_assert!(p0 >= m.static_w);
        // Energy scales inversely with throughput.
        let e1 = m.energy_per_symbol_j(&base, 150.0, 1.0, 1e7);
        let e2 = m.energy_per_symbol_j(&base, 150.0, 1.0, 2e7);
        prop_assert!((e1 / e2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_lut_error_bound_random_configs(addr in 5u32..12, range in 2.0f64..12.0) {
        let lut = SigmoidLut::new(addr, range, QFormat::unsigned(10, 10));
        let bound = lut.error_bound();
        let mut x = -range * 1.5;
        while x < range * 1.5 {
            let approx = lut.out_format.f64_from_raw(lut.lookup_f64(x));
            let exact = hybridem_mathkit::special::sigmoid(x);
            prop_assert!((approx - exact).abs() <= bound,
                "x={}: {} vs {} bound {}", x, approx, exact, bound);
            x += range / 37.0;
        }
    }

    #[test]
    fn relu_mvau_outputs_nonnegative(seed in any::<u64>()) {
        let fmt = QFormat::signed(8, 5);
        let (w, b) = random_dense(6, 4, seed);
        let cfg = MvauConfig::full_parallel(4, 6, fmt, fmt, fmt, false);
        let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 3);
        let input: Vec<i64> = (0..4)
            .map(|_| fmt.raw_from_f64(rng.normal_f64(), Rounding::Nearest))
            .collect();
        for &o in &m.process(&input) {
            prop_assert!(o >= 0);
        }
    }
}

proptest! {
    // Width × format sweep of the SIMD fast path: few cases, each
    // re-run at every supported lane width (the kernel is
    // deterministic per (width, input)).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn mvau_block_bit_exact_at_every_lane_width_and_weight_width(seed in any::<u64>()) {
        // The SIMD MAC kernel's contract (DESIGN.md §11): the i32
        // fast path — symbol-lane MACs plus the branchless
        // activation epilogue — is bit-identical to the per-symbol
        // scalar pass at every supported lane width, for W4/W6/W8
        // formats, ReLU and linear (rounding-cast) epilogues, and
        // block lengths covering empty input, zero-padded partial
        // vectors (1, 7), one full tile (256) and a multi-tile stream
        // with a trailing remainder (4097, W8 only to bound
        // debug-build time).
        use hybridem_fpga::mvau::MvauScratch;
        use hybridem_mathkit::simd::LaneWidth;
        let combos = [
            (QFormat::signed(4, 2), HwActivation::Relu),
            (QFormat::signed(6, 4), HwActivation::Linear),
            (QFormat::signed(8, 6), HwActivation::Relu),
            (QFormat::signed(8, 6), HwActivation::Linear),
        ];
        for (fmt, act) in combos {
            let (w, b) = random_dense(16, 16, seed ^ u64::from(fmt.total_bits));
            let cfg = MvauConfig::full_parallel(16, 16, fmt, fmt, fmt, false);
            let m = Mvau::from_dense(cfg, &w, &b, act);
            prop_assert!(m.has_fast_path(), "pinned shapes must stay on the fast path");
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 99);
            let full_len = if fmt.total_bits == 8 { 4097 } else { 256 };
            let inputs: Vec<i64> = (0..full_len * 16)
                .map(|_| fmt.raw_from_f64(rng.normal_f64() * 0.5, Rounding::Nearest))
                .collect();
            let mut scratch = MvauScratch::new();
            for &n in &[0usize, 1, 7, 256, full_len] {
                let tile = &inputs[..n * 16];
                let mut reference = vec![0i64; n * 16];
                for (sym, slot) in tile.chunks_exact(16).zip(reference.chunks_exact_mut(16)) {
                    m.process_into(sym, slot);
                }
                for width in LaneWidth::supported() {
                    let mut got = vec![0i64; n * 16];
                    m.process_block_into_at(width, tile, &mut got, &mut scratch);
                    prop_assert_eq!(&got, &reference,
                        "n {} width {:?} fmt W{}", n, width, fmt.total_bits);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mvau_block_bit_exact_at_odd_shapes(
        in_dim in 1usize..20,
        out_dim in 1usize..20,
        bits in 3u32..12,
        linear in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Shapes that leave partial neuron blocks (out_dim not a
        // multiple of 4), odd fan-ins and partial vectors at every lane
        // width, with formats on the fast path.
        use hybridem_comm::demapper::BLOCK_TILE;
        use hybridem_fpga::mvau::MvauScratch;
        use hybridem_mathkit::simd::LaneWidth;
        let fmt = QFormat::signed(bits, bits / 2);
        let act = if linear { HwActivation::Linear } else { HwActivation::Relu };
        let (w, b) = random_dense(out_dim, in_dim, seed);
        let cfg = MvauConfig::full_parallel(in_dim, out_dim, fmt, fmt, fmt, false);
        let m = Mvau::from_dense(cfg, &w, &b, act);
        prop_assert!(m.has_fast_path());
        let n = 2 * BLOCK_TILE + 19;
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 5);
        let inputs: Vec<i64> = (0..n * in_dim)
            .map(|_| fmt.raw_from_f64(rng.normal_f64() * 2.0, Rounding::Nearest))
            .collect();
        let mut reference = vec![0i64; n * out_dim];
        for (sym, slot) in inputs.chunks_exact(in_dim).zip(reference.chunks_exact_mut(out_dim)) {
            m.process_into(sym, slot);
        }
        let mut scratch = MvauScratch::new();
        for width in LaneWidth::supported() {
            let mut got = vec![0i64; n * out_dim];
            m.process_block_into_at(width, &inputs, &mut got, &mut scratch);
            prop_assert_eq!(&got, &reference, "{}x{} width {:?}", in_dim, out_dim, width);
        }
    }
}

/// The graphs the fused-kernel property covers: all layers on the
/// fast path, a sigmoid output layer, accumulators wider than 30 bits
/// everywhere, a fast → wide → fast mix, and odd layer widths on the
/// fast path (partial neuron blocks).
fn kernel_graphs(seed: u64) -> Vec<(&'static str, hybridem_fpga::graph::QuantizedGraph)> {
    use hybridem_fixed::QuantSpec;
    use hybridem_fpga::graph::compile;
    use hybridem_nn::model::MlpSpec;
    let q = |fmt: QFormat| QuantSpec {
        format: fmt,
        rounding: Rounding::Nearest,
    };
    let s = QFormat::signed;
    let logits = MlpSpec::paper_demapper_logits().build(&mut Xoshiro256pp::seed_from_u64(seed));
    let odd = MlpSpec {
        dims: vec![2, 5, 7, 3],
        ..MlpSpec::paper_demapper_logits()
    }
    .build(&mut Xoshiro256pp::seed_from_u64(seed ^ 2));
    let sigmoid = MlpSpec::paper_demapper().build(&mut Xoshiro256pp::seed_from_u64(seed ^ 1));
    vec![
        (
            "fast",
            compile(&logits, &[q(s(8, 5)), q(s(8, 4)), q(s(8, 4)), q(s(8, 3))]),
        ),
        (
            "sigmoid",
            compile(
                &sigmoid,
                &[
                    q(s(8, 5)),
                    q(s(8, 4)),
                    q(s(8, 4)),
                    q(QFormat::unsigned(8, 8)),
                ],
            ),
        ),
        (
            "wide",
            compile(
                &logits,
                &[q(s(16, 10)), q(s(16, 12)), q(s(16, 12)), q(s(16, 8))],
            ),
        ),
        (
            "mixed",
            compile(
                &logits,
                &[q(s(8, 5)), q(s(16, 10)), q(s(16, 10)), q(s(8, 3))],
            ),
        ),
        (
            "odd",
            compile(&odd, &[q(s(8, 5)), q(s(8, 4)), q(s(8, 4)), q(s(8, 3))]),
        ),
    ]
}

/// Scalar reference of one sample: `raw_from_f64` input quantisation,
/// a per-symbol `Mvau::process_into` chain, and the output semantic
/// for the LLR.
fn graph_reference(g: &hybridem_fpga::graph::QuantizedGraph, y: C32) -> (Vec<i64>, Vec<f32>) {
    use hybridem_fpga::graph::GraphOutput;
    let f = g.input_format();
    let mut x = vec![
        f.raw_from_f64(y.re as f64, Rounding::Nearest),
        f.raw_from_f64(y.im as f64, Rounding::Nearest),
    ];
    for m in g.mvaus() {
        let mut out = vec![0i64; m.config().out_dim];
        m.process_into(&x, &mut out);
        x = out;
    }
    let llrs = x
        .iter()
        .map(|&r| {
            let v = g.output_format().f64_from_raw(r);
            match g.output_kind() {
                GraphOutput::Logits => -v as f32,
                GraphOutput::Probabilities => {
                    let p = v.clamp(1e-3, 1.0 - 1e-3);
                    -hybridem_mathkit::special::logit(p) as f32
                }
            }
        })
        .collect();
    (x, llrs)
}

/// Receiver samples with the edge cases of input quantisation mixed
/// in: NaN, ±∞, ±0, subnormals, huge magnitudes and exact `k + 0.5`
/// ties of the input format.
fn edge_samples(n: usize, frac_bits: u32, seed: u64) -> Vec<C32> {
    const SPECIAL: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        1e30,
        -1e30,
        f32::MAX,
    ];
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let lsb = (-(frac_bits as f32)).exp2();
    let one = |rng: &mut Xoshiro256pp| match rng.next_u64() % 4 {
        0 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
        1 => ((rng.next_u64() % 600) as f32 - 300.0 + 0.5) * lsb,
        _ => rng.normal_f32() * 1.5,
    };
    (0..n)
        .map(|_| C32::new(one(&mut rng), one(&mut rng)))
        .collect()
}

proptest! {
    // Few cases, each sweeping every graph, lane width and block
    // length (up to one 32,768-symbol server chunk).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn graph_block_paths_bit_exact_with_scalar_reference(
        seed in any::<u64>(),
        pe in 1usize..6,
        simd in 1usize..4,
    ) {
        // The fused, symbol-lane executor (DESIGN.md §9, §11.2) against
        // a per-symbol `Mvau::process_into` chain: raw outputs at every
        // supported lane width, LLRs through `demap_block` and the
        // per-symbol `llrs`, at every folding the case draws.
        use hybridem_comm::demapper::{Demapper, BLOCK_TILE};
        use hybridem_fpga::graph::GraphScratch;
        use hybridem_mathkit::simd::LaneWidth;
        const SERVER_CHUNK: usize = 32_768;
        for (name, g) in kernel_graphs(seed) {
            let fast: Vec<bool> = g.mvaus().iter().map(|m| m.has_fast_path()).collect();
            match name {
                "fast" | "odd" => prop_assert!(fast.iter().all(|&f| f)),
                "sigmoid" => prop_assert_eq!(fast.clone(), vec![true, true, false]),
                "wide" => prop_assert!(g.mvaus().iter().all(|m| {
                    !m.has_fast_path() && m.config().acc_format().total_bits > 30
                })),
                _ => prop_assert_eq!(fast.clone(), vec![true, false, true]),
            }
            let g = g.with_folding(Folding::new(pe, simd));
            // One server chunk on the serving graph; the others stop
            // after a few tiles to bound debug-build time.
            let longest = if name == "fast" { SERVER_CHUNK } else { 3 * BLOCK_TILE + 5 };
            let ys = edge_samples(longest, g.input_format().frac_bits, seed ^ 7);
            let (raw_ref, llr_ref): (Vec<Vec<i64>>, Vec<Vec<f32>>) =
                ys.iter().map(|&y| graph_reference(&g, y)).unzip();
            let raw_ref: Vec<i64> = raw_ref.concat();
            let llr_ref: Vec<u32> = llr_ref.concat().iter().map(|l| l.to_bits()).collect();
            let m = g.output_dim();

            let mut scratch = GraphScratch::new();
            let mut raw = Vec::new();
            for width in LaneWidth::supported() {
                let lanes = width.lanes();
                for n in [0, 1, lanes - 1, lanes + 1, BLOCK_TILE - 1, BLOCK_TILE + 1,
                          3 * BLOCK_TILE + 5, longest] {
                    g.process_block_raw_at(width, &ys[..n], &mut raw, &mut scratch);
                    prop_assert!(raw == raw_ref[..n * m],
                        "{} graph, width {:?}, n {}: raw outputs differ", name, width, n);
                }
            }
            for n in [0, 1, 7, BLOCK_TILE + 1, longest] {
                let mut llrs = vec![0f32; n * m];
                g.demap_block(&ys[..n], &mut llrs);
                let bits: Vec<u32> = llrs.iter().map(|l| l.to_bits()).collect();
                prop_assert!(bits == llr_ref[..n * m], "{} graph, n {}: LLRs differ", name, n);
            }
            let mut single = vec![0f32; m];
            for (s, &y) in ys.iter().enumerate().take(64) {
                g.llrs(y, &mut single);
                let bits: Vec<u32> = single.iter().map(|l| l.to_bits()).collect();
                prop_assert_eq!(&bits[..], &llr_ref[s * m..(s + 1) * m]);
            }
        }
    }
}
