//! The FINN-style Matrix-Vector-Activation Unit (MVAU).
//!
//! One MVAU implements one dense layer in hardware. Parallelism is
//! described FINN-style by two folding factors:
//!
//! - `simd` — how many of the `in_dim` inputs are multiplied per cycle;
//! - `pe`   — how many of the `out_dim` neurons are computed in
//!   parallel ("processing elements").
//!
//! One input vector therefore occupies the unit for
//! `II = (in_dim/simd) · (out_dim/pe)` cycles — the paper's "degree of
//! parallelism (DOP) … trade-off between latency and power".
//!
//! The numeric path is bit-exact fixed point: weights and activations
//! are quantised ([`hybridem_fixed`]), products and accumulations are
//! exact (the accumulator format carries ⌈log₂ fan-in⌉ guard bits), and
//! only the final activation cast narrows. Because integer addition is
//! associative, the result is independent of the folding — asserted by
//! tests, and the reason `process` can compute in natural order.

use crate::resources::{self, ResourceUsage};
use crate::sigmoid_lut::SigmoidLut;
use hybridem_fixed::{QFormat, QuantSpec, Quantizer, Rounding};
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::simd::{self, LaneWidth, Simd, SimdKernel};

/// Hardware activation function of an MVAU.
#[derive(Clone, Debug)]
pub enum HwActivation {
    /// max(0, x), then cast to the output format.
    Relu,
    /// Sigmoid via lookup table.
    Sigmoid(SigmoidLut),
    /// Cast only.
    Linear,
}

/// Why a [`Folding`] cannot be applied to a layer shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FoldingError {
    /// `pe` and `simd` must both be ≥ 1.
    ZeroFactor,
    /// `pe` must divide the output neuron count.
    PeDoesNotDivide {
        /// Requested output-side parallelism.
        pe: usize,
        /// Layer output dimension it fails to divide.
        out_dim: usize,
    },
    /// `simd` must divide the input feature count.
    SimdDoesNotDivide {
        /// Requested input-side parallelism.
        simd: usize,
        /// Layer input dimension it fails to divide.
        in_dim: usize,
    },
}

impl std::fmt::Display for FoldingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldingError::ZeroFactor => {
                write!(f, "folding factors must be >= 1 (pe and simd)")
            }
            FoldingError::PeDoesNotDivide { pe, out_dim } => {
                write!(f, "pe={pe} must divide out_dim={out_dim}")
            }
            FoldingError::SimdDoesNotDivide { simd, in_dim } => {
                write!(f, "simd={simd} must divide in_dim={in_dim}")
            }
        }
    }
}

impl std::error::Error for FoldingError {}

/// FINN-style folding factors of the hardware cost model
/// (DESIGN.md §11.3).
///
/// `pe` output neurons and `simd` input features are processed per
/// cycle, so one input occupies the unit for
/// `(in_dim/simd)·(out_dim/pe)` cycles and the resource model
/// replicates multipliers `pe·simd` times. The software block kernel
/// does not read the folding (its lanes run across symbols), so its
/// results, asserted by tests, and its speed are the same at every
/// folding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Folding {
    /// Output-side parallelism (processing elements); must divide the
    /// layer's `out_dim`.
    pub pe: usize,
    /// Input-side parallelism (multiplier lanes per PE); must divide
    /// the layer's `in_dim`.
    pub simd: usize,
}

impl Folding {
    /// Folding with explicit factors.
    pub fn new(pe: usize, simd: usize) -> Self {
        Self { pe, simd }
    }

    /// Fully unfolded: every MAC in parallel, II = 1.
    pub fn full(in_dim: usize, out_dim: usize) -> Self {
        Self {
            pe: out_dim,
            simd: in_dim,
        }
    }

    /// Fully folded: one MAC per cycle, minimal resources.
    pub fn unit() -> Self {
        Self { pe: 1, simd: 1 }
    }

    /// Checks this folding against a layer shape, with a clear error
    /// instead of a panic — the validation the consistency tests and
    /// sweep drivers rely on.
    pub fn validate_for(&self, in_dim: usize, out_dim: usize) -> Result<(), FoldingError> {
        if self.pe == 0 || self.simd == 0 {
            return Err(FoldingError::ZeroFactor);
        }
        if !out_dim.is_multiple_of(self.pe) {
            return Err(FoldingError::PeDoesNotDivide {
                pe: self.pe,
                out_dim,
            });
        }
        if !in_dim.is_multiple_of(self.simd) {
            return Err(FoldingError::SimdDoesNotDivide {
                simd: self.simd,
                in_dim,
            });
        }
        Ok(())
    }

    /// The nearest valid folding for a layer shape: each factor is
    /// reduced to the largest divisor of its dimension that does not
    /// exceed the request. Used when one uniform folding is applied
    /// across layers of different shapes (`fpga::graph`).
    pub fn fit_to(&self, in_dim: usize, out_dim: usize) -> Self {
        fn largest_divisor_at_most(n: usize, cap: usize) -> usize {
            let cap = cap.clamp(1, n.max(1));
            (1..=cap).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1)
        }
        Self {
            pe: largest_divisor_at_most(out_dim, self.pe),
            simd: largest_divisor_at_most(in_dim, self.simd),
        }
    }

    /// Initiation interval of a layer under this folding.
    pub fn ii_cycles(&self, in_dim: usize, out_dim: usize) -> u64 {
        ((in_dim / self.simd) * (out_dim / self.pe)) as u64
    }
}

/// Static configuration of an MVAU.
#[derive(Clone, Debug)]
pub struct MvauConfig {
    /// Input feature count.
    pub in_dim: usize,
    /// Output neuron count.
    pub out_dim: usize,
    /// Folding factors (PE × SIMD parallelism) — consumed by the
    /// resource/latency model only.
    pub folding: Folding,
    /// Weight quantisation format.
    pub weight_format: QFormat,
    /// Input activation format.
    pub in_format: QFormat,
    /// Output activation format.
    pub out_format: QFormat,
    /// Weight memories writable at runtime (required for on-chip
    /// retraining; forces BRAM mapping per PE).
    pub writable_weights: bool,
}

impl MvauConfig {
    /// Validates the folding factors.
    ///
    /// # Panics
    /// Panics with the [`FoldingError`] message when the folding does
    /// not divide the layer shape.
    pub fn validate(&self) {
        if let Err(e) = self.folding.validate_for(self.in_dim, self.out_dim) {
            panic!("invalid MVAU folding: {e}");
        }
    }

    /// Output-side parallelism.
    pub fn pe(&self) -> usize {
        self.folding.pe
    }

    /// Input-side parallelism.
    pub fn simd(&self) -> usize {
        self.folding.simd
    }

    /// Fully-unfolded configuration (simd = in, pe = out): one result
    /// per cycle, maximal resources — the paper's inference design.
    pub fn full_parallel(
        in_dim: usize,
        out_dim: usize,
        weight_format: QFormat,
        in_format: QFormat,
        out_format: QFormat,
        writable_weights: bool,
    ) -> Self {
        Self {
            in_dim,
            out_dim,
            folding: Folding::full(in_dim, out_dim),
            weight_format,
            in_format,
            out_format,
            writable_weights,
        }
    }

    /// Initiation interval in cycles.
    pub fn ii_cycles(&self) -> u64 {
        self.folding.ii_cycles(self.in_dim, self.out_dim)
    }

    /// Pipeline depth in cycles: the input fold drains through the
    /// multiplier stage (`in_dim/simd` beats interleaved with the
    /// output fold — bounded below by II), plus the SIMD adder tree,
    /// with the activation folded into the final tree level.
    /// For the fully-unfolded case this is `1 + ⌈log₂ in_dim⌉`.
    pub fn depth_cycles(&self) -> u64 {
        self.ii_cycles() + ceil_log2(self.simd()) as u64
    }

    /// Exact accumulator format.
    pub fn acc_format(&self) -> QFormat {
        self.in_format.accumulator(&self.weight_format, self.in_dim)
    }
}

fn ceil_log2(n: usize) -> u32 {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()).max(1)
}

/// Feature-major tile planes for the block executor
/// ([`Mvau::process_block_into`] and the fused
/// `QuantizedGraph` executor). Feature `i` of tile symbol `s` sits at
/// `plane[i * TILE + s]`, so every plane is sized by the widest layer
/// times one tile, never by the block. `i32` planes carry layers on
/// the fast path, `i64` planes the wide fallback; each pair ping-pongs
/// between a layer's input and its output. After one warm-up block the
/// buffers are at their high-water mark and the executor allocates
/// nothing (asserted by the fpga crate's counting-allocator test).
pub struct MvauScratch {
    x32: Vec<i32>,
    y32: Vec<i32>,
    x64: Vec<i64>,
    y64: Vec<i64>,
}

impl MvauScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            x32: Vec::new(),
            y32: Vec::new(),
            x64: Vec::new(),
            y64: Vec::new(),
        }
    }

    /// Grows the planes `layers` need; a no-op once warm.
    fn reserve_for(&mut self, layers: &[Mvau]) {
        fn grow<T: Copy + Default>(plane: &mut Vec<T>, len: usize) {
            if plane.len() < len {
                plane.resize(len, T::default());
            }
        }
        let widest = layers
            .iter()
            .map(|m| m.cfg.in_dim.max(m.cfg.out_dim))
            .max()
            .unwrap_or(0);
        let len = widest * TILE;
        if layers.iter().any(|m| m.fast.is_some()) {
            grow(&mut self.x32, len);
            grow(&mut self.y32, len);
        }
        if layers.iter().any(|m| m.fast.is_none()) {
            grow(&mut self.x64, len);
            grow(&mut self.y64, len);
        }
    }
}

impl Default for MvauScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Symbols per tile: every layer of a block runs over one tile before
/// the next tile starts, so one tile's activations stay in the scratch
/// planes (the comm-side demapper tiling constant, so both halves of
/// the receiver stream in the same granularity).
pub(crate) const TILE: usize = hybridem_comm::demapper::BLOCK_TILE;

// A tile padded to whole vectors never exceeds the planes.
const _: () = assert!(TILE.is_multiple_of(simd::MAX_LANES));

/// The activation + cast of the 32-bit fast path, reduced to pure
/// integer shift/clamp lane arithmetic. Bit-identical to the `Fx`
/// reference: `ReluShr` is saturate → max(0,·) → `Rounding::Truncate`
/// right shift → output saturation, `LinearShr` is saturate →
/// `Rounding::Nearest` right shift (ties away from zero) → output
/// saturation — exactly [`Mvau::apply_activation`] term for term for
/// formats whose fraction bits do not grow across the cast.
#[derive(Clone, Copy, Debug)]
enum FastEpilogue {
    /// ReLU then truncating cast, dropping `shift` fraction bits.
    ReluShr {
        /// `acc_frac − out_frac`.
        shift: u32,
    },
    /// Linear (cast-only) with round-to-nearest, ties away from zero.
    LinearShr {
        /// `acc_frac − out_frac`.
        shift: u32,
    },
}

/// Precomputed 32-bit fast path: present when every accumulation
/// provably fits an `i32` (the accumulator format's guard bits plus
/// one headroom bit stay under 31 bits), the output raw range fits an
/// `i32`, and the activation reduces to [`FastEpilogue`] integer
/// arithmetic. The block kernel then runs 32-bit SIMD MACs with
/// results identical to the 64-bit `Fx` path: exact integer
/// arithmetic is exact at any width that never overflows.
#[derive(Clone, Debug)]
struct FastPlan {
    /// `i32` weights transposed to `in_dim × out_dim`: at feature `i`,
    /// the weights of a block of consecutive neurons are one
    /// contiguous slice, each broadcast across a vector of symbols.
    wcols: Vec<i32>,
    /// `i32` copy of the biases (accumulator-format raw values).
    bias32: Vec<i32>,
    epilogue: FastEpilogue,
    /// Accumulator saturation bounds (`acc_format` range).
    acc_lo: i32,
    acc_hi: i32,
    /// Output saturation bounds (`out_format` range).
    out_lo: i32,
    out_hi: i32,
}

/// Neurons that share one input-vector load in the symbol-lane kernel:
/// independent accumulators that hide the MAC latency and stay in
/// registers.
const NEURON_BLOCK: usize = 4;

/// [`FastEpilogue`] modes, as const parameters so each layer's
/// vector loop is specialised and branch-free.
const RELU_SHR: u8 = 0;
const CAST: u8 = 1;
const ROUND_SHR: u8 = 2;

/// A fast layer's epilogue constants, splatted once per tile so the
/// vector loop keeps them in registers.
#[derive(Clone, Copy)]
struct EpilogueLanes<const N: usize> {
    acc_lo: Simd<i32, N>,
    acc_hi: Simd<i32, N>,
    out_lo: Simd<i32, N>,
    out_hi: Simd<i32, N>,
    shift: u32,
}

impl<const N: usize> EpilogueLanes<N> {
    /// Saturate → activation → cast → output saturation on one
    /// accumulator vector (`max` then `min` is the clamp).
    #[inline(always)]
    fn apply<const MODE: u8>(self, acc: Simd<i32, N>) -> Simd<i32, N> {
        let a = acc.max(self.acc_lo).min(self.acc_hi);
        let a = match MODE {
            RELU_SHR => a.relu().shr(self.shift),
            ROUND_SHR => a.round_shr_nearest(self.shift),
            _ => a,
        };
        a.max(self.out_lo).min(self.out_hi)
    }
}

impl FastPlan {
    /// One fast layer over one tile, lanes across symbols: the
    /// epilogue mode is resolved once per layer, then
    /// [`FastPlan::run_mode`] runs the MACs.
    #[inline(always)]
    fn run_tile<const N: usize>(
        &self,
        shape: (usize, usize),
        x: &[i32],
        y: &mut [i32],
        lanes: usize,
    ) {
        let ep = |shift| EpilogueLanes::<N> {
            acc_lo: Simd::<i32, N>::splat(self.acc_lo),
            acc_hi: Simd::<i32, N>::splat(self.acc_hi),
            out_lo: Simd::<i32, N>::splat(self.out_lo),
            out_hi: Simd::<i32, N>::splat(self.out_hi),
            shift,
        };
        match self.epilogue {
            FastEpilogue::ReluShr { shift } => {
                self.run_mode::<N, RELU_SHR>(shape, ep(shift), x, y, lanes)
            }
            FastEpilogue::LinearShr { shift: 0 } => {
                self.run_mode::<N, CAST>(shape, ep(0), x, y, lanes)
            }
            FastEpilogue::LinearShr { shift } => {
                self.run_mode::<N, ROUND_SHR>(shape, ep(shift), x, y, lanes)
            }
        }
    }

    /// The MAC loops of [`FastPlan::run_tile`]: neurons in blocks of
    /// [`NEURON_BLOCK`] that share each input-vector load, then the
    /// remaining neurons one at a time.
    #[inline(always)]
    fn run_mode<const N: usize, const MODE: u8>(
        &self,
        (in_dim, out_dim): (usize, usize),
        ep: EpilogueLanes<N>,
        x: &[i32],
        y: &mut [i32],
        lanes: usize,
    ) {
        let x = &x[..in_dim * TILE];
        let blocked = out_dim - out_dim % NEURON_BLOCK;
        for o in (0..blocked).step_by(NEURON_BLOCK) {
            self.neurons::<N, NEURON_BLOCK, MODE>(out_dim, o, ep, x, y, lanes);
        }
        for o in blocked..out_dim {
            self.neurons::<N, 1, MODE>(out_dim, o, ep, x, y, lanes);
        }
    }

    /// Neurons `o..o + P` over the tile: for each vector of `N`
    /// symbols, the accumulators start at the broadcast bias and take
    /// one broadcast-weight MAC per input feature, in ascending fan-in
    /// order, before the epilogue stores them into the neurons' output
    /// planes. `lanes` is the tile length rounded up to whole vectors;
    /// the padding lanes hold in-range values and are never read back.
    #[inline(always)]
    fn neurons<const N: usize, const P: usize, const MODE: u8>(
        &self,
        out_dim: usize,
        o: usize,
        ep: EpilogueLanes<N>,
        x: &[i32],
        y: &mut [i32],
        lanes: usize,
    ) {
        let bias: [Simd<i32, N>; P] =
            std::array::from_fn(|p| Simd::<i32, N>::splat(self.bias32[o + p]));
        let wcols = &self.wcols[..];
        for v in (0..lanes).step_by(N) {
            let mut acc = bias;
            let mut w_at = o;
            for xp in x.chunks_exact(TILE) {
                let xv = Simd::<i32, N>::load(&xp[v..]);
                let w: &[i32; P] = wcols[w_at..w_at + P].try_into().unwrap();
                for (a, &w) in acc.iter_mut().zip(w) {
                    *a = a.mul_add(Simd::<i32, N>::splat(w), xv);
                }
                w_at += out_dim;
            }
            for (p, a) in acc.iter().enumerate() {
                ep.apply::<MODE>(*a).store(&mut y[(o + p) * TILE + v..]);
            }
        }
    }
}

/// An integer plane element: `i32` on the fast path, `i64` on the
/// wide path.
pub(crate) trait PlaneInt: Copy {
    /// Narrows (or keeps) an in-range raw value.
    fn from_raw(raw: i64) -> Self;
    /// Widens back to the 64-bit raw-value world.
    fn raw(self) -> i64;
    /// Quantises a real value (`i32` planes only ever hold formats
    /// narrow enough for [`Quantizer::raw_i32`]).
    fn quantize(q: &Quantizer, v: f64) -> Self;
}

impl PlaneInt for i32 {
    #[inline(always)]
    fn from_raw(raw: i64) -> Self {
        raw as i32
    }
    #[inline(always)]
    fn raw(self) -> i64 {
        self as i64
    }
    #[inline(always)]
    fn quantize(q: &Quantizer, v: f64) -> Self {
        q.raw_i32(v)
    }
}

impl PlaneInt for i64 {
    #[inline(always)]
    fn from_raw(raw: i64) -> Self {
        raw
    }
    #[inline(always)]
    fn raw(self) -> i64 {
        self
    }
    #[inline(always)]
    fn quantize(q: &Quantizer, v: f64) -> Self {
        q.raw(v)
    }
}

/// Where a tile executor's inputs come from and where its outputs go.
/// Planes are feature-major with stride [`TILE`]; `start` is the
/// tile's first symbol within the block and `nt ≤ TILE` its length.
pub(crate) trait TileIo {
    /// Writes the tile's `nt` input symbols into the first `nt` lanes
    /// of each input feature's plane.
    fn fill<T: PlaneInt>(&mut self, start: usize, nt: usize, plane: &mut [T]);
    /// Reads the tile's `nt` output symbols from the last layer's
    /// planes.
    fn drain<T: PlaneInt>(&mut self, start: usize, nt: usize, plane: &[T]);
}

/// Runs `n` symbols through the layer chain `layers`, one tile at a
/// time, at lane width `width`: `io` fills each tile's input planes,
/// every layer runs on the tile, and `io` drains the last plane.
/// Results equal a per-symbol [`Mvau::process_into`] chain exactly.
pub(crate) fn run_tiles<IO: TileIo>(
    width: LaneWidth,
    layers: &[Mvau],
    n: usize,
    scratch: &mut MvauScratch,
    io: IO,
) {
    scratch.reserve_for(layers);
    simd::dispatch_at(
        width,
        TileKernel {
            layers,
            n,
            scratch,
            io,
        },
    );
}

/// The tile-fused, symbol-lane block kernel, width-generic and
/// dispatched once per block at the probed [`simd::LaneWidth`]. Fast
/// layers run [`FastPlan::run_tile`] on `i32` planes; layers without a
/// fast plan (sigmoid LUTs, fraction-growing casts, accumulators wider
/// than 30 bits) run [`Mvau::wide_tile`] on `i64` planes of the same
/// tile, with one narrowing or widening copy where the plane type
/// changes.
struct TileKernel<'a, IO> {
    layers: &'a [Mvau],
    n: usize,
    scratch: &'a mut MvauScratch,
    io: IO,
}

impl<IO: TileIo> SimdKernel for TileKernel<'_, IO> {
    type Output = ();

    // Always inlined into the dispatch trampoline, so the whole body
    // compiles with the trampoline's target features.
    #[inline(always)]
    fn run<const N: usize>(self) {
        let TileKernel {
            layers,
            n,
            scratch,
            mut io,
        } = self;
        let MvauScratch { x32, y32, x64, y64 } = scratch;
        for start in (0..n).step_by(TILE) {
            let nt = TILE.min(n - start);
            let lanes = nt.next_multiple_of(N);
            // Which plane type holds the current activations.
            let mut wide = layers[0].fast.is_none();
            if wide {
                io.fill(start, nt, &mut x64[..]);
            } else {
                io.fill(start, nt, &mut x32[..]);
                zero_padding(x32, layers[0].cfg.in_dim, nt, lanes);
            }
            for m in layers {
                let (in_dim, out_dim) = (m.cfg.in_dim, m.cfg.out_dim);
                match &m.fast {
                    Some(plan) => {
                        if wide {
                            copy_planes(&x64[..], &mut x32[..], in_dim, nt);
                            zero_padding(x32, in_dim, nt, lanes);
                            wide = false;
                        }
                        plan.run_tile::<N>((in_dim, out_dim), x32, y32, lanes);
                        std::mem::swap(x32, y32);
                    }
                    None => {
                        if !wide {
                            copy_planes(&x32[..], &mut x64[..], in_dim, nt);
                            wide = true;
                        }
                        m.wide_tile(x64, y64, nt);
                        std::mem::swap(x64, y64);
                    }
                }
            }
            if wide {
                io.drain(start, nt, &x64[..]);
            } else {
                io.drain(start, nt, &x32[..]);
            }
        }
    }
}

/// Zeroes lanes `nt..lanes` of the first `rows` planes: the fast
/// kernel computes whole vectors, and zero is in range for every
/// format, so the padding lanes can never overflow.
#[inline(always)]
fn zero_padding(plane: &mut [i32], rows: usize, nt: usize, lanes: usize) {
    for r in 0..rows {
        plane[r * TILE + nt..r * TILE + lanes].fill(0);
    }
}

/// Copies the first `nt` lanes of `rows` planes across plane types.
#[inline(always)]
fn copy_planes<S: PlaneInt, D: PlaneInt>(src: &[S], dst: &mut [D], rows: usize, nt: usize) {
    for r in 0..rows {
        let row = r * TILE..r * TILE + nt;
        for (d, &s) in dst[row.clone()].iter_mut().zip(&src[row]) {
            *d = D::from_raw(s.raw());
        }
    }
}

/// [`TileIo`] over symbol-major raw buffers: `n · in_dim` inputs in,
/// `n · out_dim` outputs out. (`take(TILE)` shows the compiler that
/// every plane index is in bounds.)
struct SymbolMajor<'a> {
    inputs: &'a [i64],
    out: &'a mut [i64],
    in_dim: usize,
    out_dim: usize,
}

impl TileIo for SymbolMajor<'_> {
    #[inline(always)]
    fn fill<T: PlaneInt>(&mut self, start: usize, nt: usize, plane: &mut [T]) {
        let d = self.in_dim;
        let syms = self.inputs[start * d..(start + nt) * d].chunks_exact(d);
        for (s, sym) in syms.enumerate().take(TILE) {
            for (row, &x) in plane.chunks_exact_mut(TILE).zip(sym) {
                row[s] = T::from_raw(x);
            }
        }
    }

    #[inline(always)]
    fn drain<T: PlaneInt>(&mut self, start: usize, nt: usize, plane: &[T]) {
        let d = self.out_dim;
        let syms = self.out[start * d..(start + nt) * d].chunks_exact_mut(d);
        for (s, sym) in syms.enumerate().take(TILE) {
            for (slot, row) in sym.iter_mut().zip(plane.chunks_exact(TILE)) {
                *slot = row[s].raw();
            }
        }
    }
}

/// A configured MVAU holding quantised weights.
#[derive(Clone, Debug)]
pub struct Mvau {
    cfg: MvauConfig,
    activation: HwActivation,
    /// Raw weights, `out_dim × in_dim` row-major, in `weight_format`.
    weights: Vec<i64>,
    /// Raw biases in the accumulator format.
    biases: Vec<i64>,
    /// 32-bit SIMD fast path when the formats allow it.
    fast: Option<FastPlan>,
}

impl Mvau {
    /// Quantises a dense layer (`weight`: `out × in`, `bias`: `1 × out`)
    /// into hardware form.
    pub fn from_dense(
        cfg: MvauConfig,
        weight: &Matrix<f32>,
        bias: &Matrix<f32>,
        activation: HwActivation,
    ) -> Self {
        cfg.validate();
        assert_eq!(weight.shape(), (cfg.out_dim, cfg.in_dim), "weight shape");
        assert_eq!(bias.cols(), cfg.out_dim, "bias length");
        let wspec = QuantSpec {
            format: cfg.weight_format,
            rounding: Rounding::Nearest,
        };
        let weights: Vec<i64> = weight
            .as_slice()
            .iter()
            .map(|&w| wspec.quantize(w))
            .collect();
        let acc = cfg.acc_format();
        let biases: Vec<i64> = bias
            .as_slice()
            .iter()
            .map(|&b| acc.raw_from_f64(b as f64, Rounding::Nearest))
            .collect();
        // |bias| ≤ acc_max and |Σ products| ≤ acc_max (the accumulator
        // format's guard bits cover the worst case), so every partial
        // sum is bounded by 2·acc_max < 2^(acc_bits+1): one extra bit
        // of headroom suffices.
        // (acc_bits + 1 headroom bits must fit the 31 value bits of i32)
        let epilogue = match &activation {
            HwActivation::Relu if cfg.out_format.frac_bits <= acc.frac_bits => {
                Some(FastEpilogue::ReluShr {
                    shift: acc.frac_bits - cfg.out_format.frac_bits,
                })
            }
            HwActivation::Linear if cfg.out_format.frac_bits <= acc.frac_bits => {
                Some(FastEpilogue::LinearShr {
                    shift: acc.frac_bits - cfg.out_format.frac_bits,
                })
            }
            // Sigmoid LUTs and fraction-growing casts stay on the
            // 64-bit Fx path.
            _ => None,
        };
        let fast = match epilogue {
            Some(epilogue) if acc.total_bits < 31 && cfg.out_format.total_bits < 31 => {
                let mut wcols = vec![0i32; cfg.in_dim * cfg.out_dim];
                for o in 0..cfg.out_dim {
                    for i in 0..cfg.in_dim {
                        wcols[i * cfg.out_dim + o] = weights[o * cfg.in_dim + i] as i32;
                    }
                }
                Some(FastPlan {
                    wcols,
                    bias32: biases.iter().map(|&b| b as i32).collect(),
                    epilogue,
                    acc_lo: acc.raw_min() as i32,
                    acc_hi: acc.raw_max() as i32,
                    out_lo: cfg.out_format.raw_min() as i32,
                    out_hi: cfg.out_format.raw_max() as i32,
                })
            }
            _ => None,
        };
        Self {
            cfg,
            activation,
            weights,
            biases,
            fast,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MvauConfig {
        &self.cfg
    }

    /// Whether the i32 SIMD fast path is active for this layer (narrow
    /// enough formats and a shift-expressible activation cast).
    pub fn has_fast_path(&self) -> bool {
        self.fast.is_some()
    }

    /// The same quantised layer under a different folding. Results are
    /// bit-identical (folding only reshapes the hardware schedule, which
    /// the resource/latency model reads).
    pub fn refold(&self, folding: Folding) -> Result<Mvau, FoldingError> {
        folding.validate_for(self.cfg.in_dim, self.cfg.out_dim)?;
        let mut m = self.clone();
        m.cfg.folding = folding;
        Ok(m)
    }

    /// The quantised weights as dequantised f32s (`out × in`) — what
    /// the rest of the system "sees" after deployment.
    pub fn effective_weights(&self) -> Matrix<f32> {
        let mut m = Matrix::zeros(self.cfg.out_dim, self.cfg.in_dim);
        for (slot, &raw) in m.as_mut_slice().iter_mut().zip(&self.weights) {
            *slot = self.cfg.weight_format.f64_from_raw(raw) as f32;
        }
        m
    }

    /// Bit-exact forward pass for one input vector (raw values in
    /// `in_format`). Fold-invariant by integer associativity. Legacy
    /// allocating entry point — routes through
    /// [`Mvau::process_into`]; hot paths should call that or
    /// [`Mvau::process_block_into`] directly.
    pub fn process(&self, input_raw: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; self.cfg.out_dim];
        self.process_into(input_raw, &mut out);
        out
    }

    /// Allocation-free per-symbol forward pass writing raw outputs
    /// into `out` (`out_dim` values in `out_format`).
    pub fn process_into(&self, input_raw: &[i64], out: &mut [i64]) {
        assert_eq!(input_raw.len(), self.cfg.in_dim, "input width");
        assert_eq!(out.len(), self.cfg.out_dim, "output width");
        let acc_fmt = self.cfg.acc_format();
        let prod_frac = self.cfg.in_format.frac_bits + self.cfg.weight_format.frac_bits;
        debug_assert_eq!(acc_fmt.frac_bits, prod_frac);
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.cfg.in_dim..(o + 1) * self.cfg.in_dim];
            let mut acc: i64 = self.biases[o];
            for (&w, &x) in row.iter().zip(input_raw) {
                acc += w * x;
            }
            // Saturate into the accumulator format (guard bits make
            // overflow impossible for worst-case inputs, but keep the
            // hardware semantics explicit).
            let (acc, _) = acc_fmt.saturate(acc);
            *slot = self.apply_activation(acc, acc_fmt);
        }
    }

    /// Bit-exact block forward pass: `inputs` holds `n · in_dim` raw
    /// values symbol-major, `out` receives `n · out_dim` raw outputs
    /// symbol-major. Results equal a [`Mvau::process`] loop exactly —
    /// integer arithmetic that never overflows, every `(symbol,
    /// neuron)` accumulation in ascending fan-in order — but the
    /// kernel is the single-layer case of the tile-fused, symbol-lane
    /// executor: each tile is transposed to feature-major planes, every
    /// broadcast weight multiplies a vector of symbols, and nothing
    /// allocates once `scratch` is warm.
    pub fn process_block_into(&self, inputs: &[i64], out: &mut [i64], scratch: &mut MvauScratch) {
        self.process_block_into_at(LaneWidth::detect(), inputs, out, scratch);
    }

    /// [`Mvau::process_block_into`] pinned to an explicit
    /// [`LaneWidth`] — the hook the property tests use to prove the
    /// kernel bit-exact at every supported width. Results never depend
    /// on `width`; hot paths should use [`Mvau::process_block_into`],
    /// which dispatches at the probed width.
    pub fn process_block_into_at(
        &self,
        width: LaneWidth,
        inputs: &[i64],
        out: &mut [i64],
        scratch: &mut MvauScratch,
    ) {
        let in_dim = self.cfg.in_dim;
        let out_dim = self.cfg.out_dim;
        assert!(
            inputs.len().is_multiple_of(in_dim),
            "block input length must be a multiple of in_dim"
        );
        let n = inputs.len() / in_dim;
        assert_eq!(out.len(), n * out_dim, "block output buffer size");
        let io = SymbolMajor {
            inputs,
            out,
            in_dim,
            out_dim,
        };
        run_tiles(width, std::slice::from_ref(self), n, scratch, io);
    }

    /// The wide fallback on one tile of `i64` planes: 64-bit MACs in
    /// ascending fan-in order, then [`Mvau::apply_activation`]'s `Fx`
    /// arithmetic (sigmoid LUTs, fraction-growing casts, accumulators
    /// wider than 30 bits), each neuron's output plane doubling as its
    /// accumulator.
    #[inline(always)]
    fn wide_tile(&self, x: &[i64], y: &mut [i64], nt: usize) {
        let in_dim = self.cfg.in_dim;
        let acc_fmt = self.cfg.acc_format();
        for o in 0..self.cfg.out_dim {
            let row = &self.weights[o * in_dim..(o + 1) * in_dim];
            let acc = &mut y[o * TILE..o * TILE + nt];
            acc.fill(self.biases[o]);
            for (i, &w) in row.iter().enumerate() {
                for (a, &xv) in acc.iter_mut().zip(&x[i * TILE..i * TILE + nt]) {
                    *a += w * xv;
                }
            }
            for a in acc.iter_mut() {
                *a = acc_fmt.saturate(*a).0;
            }
            self.activate_plane(acc_fmt, acc);
        }
    }

    fn apply_activation(&self, acc_raw: i64, acc_fmt: QFormat) -> i64 {
        match &self.activation {
            HwActivation::Relu => {
                let clamped = acc_raw.max(0);
                hybridem_fixed::Fx::from_raw(clamped, acc_fmt)
                    .cast(self.cfg.out_format, Rounding::Truncate)
                    .raw()
            }
            HwActivation::Linear => hybridem_fixed::Fx::from_raw(acc_raw, acc_fmt)
                .cast(self.cfg.out_format, Rounding::Nearest)
                .raw(),
            HwActivation::Sigmoid(lut) => lut.lookup(acc_raw, acc_fmt),
        }
    }

    /// [`Mvau::apply_activation`] in place over a plane of saturated
    /// accumulators, with the activation dispatch hoisted out of the
    /// loop (the same `Fx` operations, branch for branch).
    fn activate_plane(&self, acc_fmt: QFormat, plane: &mut [i64]) {
        match &self.activation {
            HwActivation::Relu => {
                for a in plane.iter_mut() {
                    *a = hybridem_fixed::Fx::from_raw((*a).max(0), acc_fmt)
                        .cast(self.cfg.out_format, Rounding::Truncate)
                        .raw();
                }
            }
            HwActivation::Linear => {
                for a in plane.iter_mut() {
                    *a = hybridem_fixed::Fx::from_raw(*a, acc_fmt)
                        .cast(self.cfg.out_format, Rounding::Nearest)
                        .raw();
                }
            }
            HwActivation::Sigmoid(lut) => {
                for a in plane.iter_mut() {
                    *a = lut.lookup(*a, acc_fmt);
                }
            }
        }
    }

    /// Structural resource estimate.
    pub fn resources(&self) -> ResourceUsage {
        let cfg = &self.cfg;
        let acc = cfg.acc_format();
        let mut r = ResourceUsage::zero();
        // PE × SIMD multiplier lanes: the multiplier itself plus the
        // per-lane weight-fetch/accumulate interface logic FINN MVAUs
        // spend around each DSP (~6 LUTs per lane after synthesis).
        r += (resources::multiplier(cfg.in_format.total_bits, cfg.weight_format.total_bits)
            + ResourceUsage {
                lut: 6,
                ..Default::default()
            })
        .times((cfg.pe() * cfg.simd()) as u64);
        // Per-PE SIMD adder tree at accumulator width.
        r += resources::reduction_tree(cfg.simd(), resources::adder(acc.total_bits))
            .times(cfg.pe() as u64);
        // Per-PE fold accumulator (register + adder) when input folds.
        if cfg.simd() < cfg.in_dim {
            r += (resources::adder(acc.total_bits) + resources::register(acc.total_bits))
                .times(cfg.pe() as u64);
        }
        // Weight memory: per-PE partitions. Writable memories (needed by
        // on-chip retraining) are forced to BRAM with half-BRAM minimum
        // granularity per PE — the FINN weight-streamer layout.
        let bits_per_pe =
            (cfg.in_dim * cfg.out_dim / cfg.pe()) as u64 * cfg.weight_format.total_bits as u64;
        if cfg.writable_weights {
            let per_pe = (bits_per_pe as f64 / 18_432.0).ceil().max(1.0) * 0.5;
            r += ResourceUsage {
                bram36: per_pe * cfg.pe() as f64,
                ..Default::default()
            };
        } else {
            r += resources::memory(
                bits_per_pe,
                cfg.weight_format.total_bits * cfg.simd() as u32,
            )
            .times(cfg.pe() as u64);
        }
        // Activation units per PE.
        match &self.activation {
            HwActivation::Relu => {
                r += resources::comparator(acc.total_bits).times(cfg.pe() as u64);
                r += resources::mux2(cfg.out_format.total_bits).times(cfg.pe() as u64);
            }
            HwActivation::Sigmoid(lut) => {
                r += lut.resources().times(cfg.pe() as u64);
            }
            HwActivation::Linear => {}
        }
        // Output registers and fold-control counters.
        r += resources::register(cfg.out_format.total_bits).times(cfg.pe() as u64);
        r += ResourceUsage {
            lut: 40 + 8 * (ceil_log2(cfg.ii_cycles().max(2) as usize) as u64),
            ff: 24,
            ..Default::default()
        };
        r
    }

    /// Combinational critical path (ns) when the unit is *not*
    /// pipelined: multiplier, full adder tree, activation step —
    /// inflated by a routing/congestion factor.
    pub fn critical_path_ns(&self) -> f64 {
        use crate::resources::delay_ns::*;
        let mult = if self
            .cfg
            .weight_format
            .total_bits
            .min(self.cfg.in_format.total_bits)
            >= resources::DSP_MULT_THRESHOLD
        {
            DSP_MULT
        } else {
            LUT_MULT
        };
        let tree = ceil_log2(self.cfg.in_dim) as f64 * ADD_LEVEL;
        let act = LUT_STEP;
        mult + tree + act + REG_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt8_6() -> QFormat {
        QFormat::signed(8, 6)
    }

    fn make_mvau(simd: usize, pe: usize, act: HwActivation) -> Mvau {
        let w = Matrix::from_rows(&[&[0.5f32, -0.25, 0.75, 0.125], &[-0.5, 0.5, -0.125, 0.25]]);
        let b = Matrix::from_rows(&[&[0.1f32, -0.2]]);
        let cfg = MvauConfig {
            in_dim: 4,
            out_dim: 2,
            folding: Folding::new(pe, simd),
            weight_format: fmt8_6(),
            in_format: fmt8_6(),
            out_format: fmt8_6(),
            writable_weights: false,
        };
        Mvau::from_dense(cfg, &w, &b, act)
    }

    #[test]
    fn process_matches_reference_float() {
        let mvau = make_mvau(4, 2, HwActivation::Linear);
        let in_fmt = fmt8_6();
        let xs = [0.9f32, -0.4, 0.2, 0.7];
        let raw: Vec<i64> = xs
            .iter()
            .map(|&x| in_fmt.raw_from_f64(x as f64, Rounding::Nearest))
            .collect();
        let out = mvau.process(&raw);
        // Reference: exact dot product of the *quantised* values.
        let wq = mvau.effective_weights();
        for o in 0..2 {
            let mut acc = mvau.config().acc_format().f64_from_raw(mvau.biases[o]);
            for i in 0..4 {
                acc += wq[(o, i)] as f64 * in_fmt.f64_from_raw(raw[i]);
            }
            let got = fmt8_6().f64_from_raw(out[o]);
            assert!(
                (got - acc).abs() <= fmt8_6().resolution() + 1e-9,
                "output {o}: {got} vs {acc}"
            );
        }
    }

    #[test]
    fn folding_does_not_change_results() {
        let input: Vec<i64> = vec![30, -20, 5, 63];
        let reference = make_mvau(4, 2, HwActivation::Relu).process(&input);
        for (simd, pe) in [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2)] {
            let folded = make_mvau(simd, pe, HwActivation::Relu);
            assert_eq!(folded.process(&input), reference, "simd={simd} pe={pe}");
        }
    }

    #[test]
    fn block_kernel_bit_exact_with_per_symbol() {
        for (simd, pe, act) in [
            (4, 2, HwActivation::Relu),
            (2, 1, HwActivation::Linear),
            (
                1,
                2,
                HwActivation::Sigmoid(SigmoidLut::new(8, 8.0, QFormat::unsigned(8, 8))),
            ),
        ] {
            let mvau = make_mvau(simd, pe, act);
            let mut scratch = MvauScratch::new();
            for n in [0usize, 1, 3, 300, 1024] {
                let inputs: Vec<i64> = (0..n * 4).map(|i| ((i * 13) % 127) as i64 - 63).collect();
                let mut block = vec![0i64; n * 2];
                mvau.process_block_into(&inputs, &mut block, &mut scratch);
                for s in 0..n {
                    let single = mvau.process(&inputs[s * 4..(s + 1) * 4]);
                    assert_eq!(&block[s * 2..(s + 1) * 2], &single[..], "symbol {s} n={n}");
                }
            }
        }
    }

    #[test]
    fn relu_clamps_in_fixed_point() {
        let mvau = make_mvau(4, 2, HwActivation::Relu);
        // Strongly negative input drives output 1 negative pre-ReLU.
        let in_fmt = fmt8_6();
        let raw: Vec<i64> = [1.0f32, -1.0, 1.0, -1.0]
            .iter()
            .map(|&x| in_fmt.raw_from_f64(x as f64, Rounding::Nearest))
            .collect();
        let out = mvau.process(&raw);
        assert!(
            out.iter().all(|&o| o >= 0),
            "ReLU output must be non-negative"
        );
    }

    #[test]
    fn ii_and_depth_formulas() {
        let full = MvauConfig::full_parallel(16, 16, fmt8_6(), fmt8_6(), fmt8_6(), false);
        assert_eq!(full.ii_cycles(), 1);
        assert_eq!(full.depth_cycles(), 1 + 4);
        let folded = MvauConfig {
            folding: Folding::new(4, 4),
            ..full
        };
        assert_eq!(folded.ii_cycles(), 16);
        assert!(folded.depth_cycles() >= folded.ii_cycles());
    }

    #[test]
    fn paper_demapper_full_parallel_uses_352_dsp() {
        // The calibration anchor: 2→16, 16→16, 16→4 fully unfolded.
        let dims = [(2usize, 16usize), (16, 16), (16, 4)];
        let mut dsp = 0u64;
        for (i, o) in dims {
            let cfg = MvauConfig::full_parallel(i, o, fmt8_6(), fmt8_6(), fmt8_6(), true);
            let w = Matrix::zeros(o, i);
            let b = Matrix::zeros(1, o);
            let m = Mvau::from_dense(cfg, &w, &b, HwActivation::Relu);
            dsp += m.resources().dsp;
        }
        assert_eq!(dsp, 352);
    }

    #[test]
    fn folding_trades_dsp_for_time() {
        let mk = |simd, pe| {
            let cfg = MvauConfig {
                in_dim: 16,
                out_dim: 16,
                folding: Folding::new(pe, simd),
                weight_format: fmt8_6(),
                in_format: fmt8_6(),
                out_format: fmt8_6(),
                writable_weights: false,
            };
            let m = Mvau::from_dense(
                cfg,
                &Matrix::zeros(16, 16),
                &Matrix::zeros(1, 16),
                HwActivation::Relu,
            );
            (m.resources().dsp, m.config().ii_cycles())
        };
        let (dsp_full, ii_full) = mk(16, 16);
        let (dsp_half, ii_half) = mk(8, 8);
        let (dsp_min, ii_min) = mk(1, 1);
        assert_eq!(dsp_full, 256);
        assert_eq!(dsp_half, 64);
        assert_eq!(dsp_min, 1);
        assert_eq!(ii_full, 1);
        assert_eq!(ii_half, 4);
        assert_eq!(ii_min, 256);
        // DSP × II ≈ constant (the MAC count).
        assert_eq!(dsp_full * ii_full, 256);
        assert_eq!(dsp_half * ii_half, 256);
        assert_eq!(dsp_min * ii_min, 256);
    }

    #[test]
    fn writable_weights_force_bram() {
        let mk = |writable| {
            let cfg = MvauConfig {
                in_dim: 16,
                out_dim: 16,
                folding: Folding::full(16, 16),
                weight_format: fmt8_6(),
                in_format: fmt8_6(),
                out_format: fmt8_6(),
                writable_weights: writable,
            };
            Mvau::from_dense(
                cfg,
                &Matrix::zeros(16, 16),
                &Matrix::zeros(1, 16),
                HwActivation::Relu,
            )
            .resources()
        };
        let ro = mk(false);
        let rw = mk(true);
        assert_eq!(
            ro.bram36, 0.0,
            "256 small weights fit LUTRAM when read-only"
        );
        assert_eq!(rw.bram36, 8.0, "16 PEs × half-BRAM when runtime-writable");
    }

    #[test]
    fn critical_path_grows_with_fan_in() {
        let small = make_mvau(4, 2, HwActivation::Linear);
        let cfg = MvauConfig::full_parallel(64, 4, fmt8_6(), fmt8_6(), fmt8_6(), false);
        let big = Mvau::from_dense(
            cfg,
            &Matrix::zeros(4, 64),
            &Matrix::zeros(1, 4),
            HwActivation::Linear,
        );
        assert!(big.critical_path_ns() > small.critical_path_ns());
    }

    #[test]
    fn sigmoid_activation_outputs_probabilities() {
        let lut = SigmoidLut::new(8, 8.0, QFormat::unsigned(8, 8));
        let mvau = make_mvau(4, 2, HwActivation::Sigmoid(lut));
        let out = mvau.process(&[63, 63, 63, 63]);
        let f = QFormat::unsigned(8, 8);
        for &o in &out {
            let p = f.f64_from_raw(o);
            assert!((0.0..=1.0).contains(&p), "sigmoid output {p} out of range");
        }
    }
}
