//! The link frame stage: one pilot-prefixed frame recipe for every
//! link driver (DESIGN.md §10).
//!
//! The adaptation loop of the paper monitors the channel either with
//! known pilot symbols or with the flips an outer code corrects
//! (§II-C). A frame is therefore a known pilot prefix followed by a
//! payload that is either uniform symbols ([`Monitor::Pilot`]) or a
//! rate-1/2 convolutional codeword ([`Monitor::Ecc`]). A [`Framer`]
//! owns one link's transmit side — its RNG stream, its scripted
//! channel, the code and the reused frame buffers — and scores the
//! LLRs the receiver hands back. The serving fabric
//! (`core::server`) and the online link (`core::runtime`) both drive
//! their frames through it, so the two cannot drift apart.

use crate::bits::pack_bits;
use crate::channel::Channel;
use crate::constellation::Constellation;
use crate::ecc::{ConvCode, Viterbi};
use crate::metrics::BitwiseMiEstimator;
use crate::trajectory::{Trajectory, TrajectoryChannel};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};

/// Which degradation evidence a link's frames carry (paper §II-C
/// proposes both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monitor {
    /// Pilot-BER monitoring: the known pilot prefix of every frame is
    /// compared against its hard decisions.
    Pilot,
    /// ECC monitoring: the payload carries a rate-1/2 convolutional
    /// codeword and the Viterbi decoder's corrected-flip count is the
    /// quality metric (no pilot overhead needed for detection).
    Ecc,
}

/// Hard-decision bit counts of one frame, split at the pilot boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameScore {
    /// Pilot bits transmitted.
    pub pilot_bits: u64,
    /// Pilot bit errors.
    pub pilot_errors: u64,
    /// Payload bits transmitted.
    pub payload_bits: u64,
    /// Payload bit errors (raw demapped decisions, before any ECC).
    pub payload_errors: u64,
}

/// One link's frame stage: builds each frame (pilots, payload,
/// mapping, channel) into a reused buffer and scores the receiver's
/// LLRs against what was sent. Allocates nothing per frame under
/// pilot monitoring; under ECC monitoring the encoder and the Viterbi
/// decoder allocate internally.
pub struct Framer {
    pilot_symbols: usize,
    bits_per_symbol: usize,
    monitor: Monitor,
    rng: Xoshiro256pp,
    channel: TrajectoryChannel,
    code: ConvCode,
    viterbi: Viterbi,
    tx_syms: Vec<usize>,
    tx_bits: Vec<u8>,
    info: Vec<u8>,
    block: Vec<C32>,
}

impl Framer {
    /// Frame stage of one link: `frame_symbols` symbols per frame, of
    /// which the first `pilot_symbols` are pilots, over a
    /// `bits_per_symbol`-bit constellation. Pilots, payload and channel
    /// noise all draw from `Xoshiro256pp::stream(seed, 0)`.
    ///
    /// # Panics
    /// Panics on an empty frame, more pilots than symbols, more than 16
    /// bits per symbol, or — under ECC monitoring — a payload capacity
    /// that is odd or does not exceed the code's tail.
    pub fn new(
        trajectory: Trajectory,
        seed: u64,
        frame_symbols: usize,
        pilot_symbols: usize,
        bits_per_symbol: usize,
        monitor: Monitor,
    ) -> Self {
        let (n, m) = (frame_symbols, bits_per_symbol);
        assert!(n > 0, "frame length must be positive");
        assert!(pilot_symbols <= n, "pilots cannot exceed the frame");
        assert!(m <= 16, "bits per symbol > 16 unsupported");
        let payload_bits = (n - pilot_symbols) * m;
        let info_len = match monitor {
            Monitor::Pilot => 0,
            Monitor::Ecc => {
                assert!(
                    payload_bits.is_multiple_of(2) && payload_bits / 2 > ConvCode::TAIL,
                    "ECC monitoring needs an even payload capacity above the tail"
                );
                payload_bits / 2 - ConvCode::TAIL
            }
        };
        Self {
            pilot_symbols,
            bits_per_symbol: m,
            monitor,
            rng: Xoshiro256pp::stream(seed, 0),
            channel: TrajectoryChannel::new(trajectory, n),
            code: ConvCode::new(),
            viterbi: Viterbi::new(),
            tx_syms: vec![0; n],
            tx_bits: vec![0; n * m],
            info: vec![0; info_len],
            block: vec![C32::zero(); n],
        }
    }

    /// Builds the next frame and sends it through the channel: pilot
    /// symbols, then the payload (uniform symbols, or the codeword of
    /// uniform information bits under ECC monitoring), mapped through
    /// `constellation`. The received samples are then in
    /// [`Framer::received`].
    pub fn transmit(&mut self, constellation: &Constellation) {
        let m = self.bits_per_symbol;
        debug_assert_eq!(constellation.bits_per_symbol(), m);
        // Uniform draws cover the pilots and, without a code, the
        // payload: one run of draws in symbol order.
        let uniform = match self.monitor {
            Monitor::Pilot => self.tx_syms.len(),
            Monitor::Ecc => self.pilot_symbols,
        };
        for s in &mut self.tx_syms[..uniform] {
            *s = (self.rng.next_u64() >> (64 - m)) as usize;
        }
        if self.monitor == Monitor::Ecc {
            self.rng.fill_bits(&mut self.info);
            let coded = self.code.encode(&self.info);
            for (s, chunk) in self.tx_syms[uniform..].iter_mut().zip(coded.chunks(m)) {
                *s = pack_bits(chunk);
            }
        }
        for ((&u, y), bits) in self
            .tx_syms
            .iter()
            .zip(&mut self.block)
            .zip(self.tx_bits.chunks_mut(m))
        {
            *y = constellation.point(u);
            for (k, b) in bits.iter_mut().enumerate() {
                *b = constellation.bit(u, k);
            }
        }
        self.channel.transmit(&mut self.block, &mut self.rng);
    }

    /// The last frame's channel output.
    pub fn received(&self) -> &[C32] {
        &self.block
    }

    /// The last frame's channel output, for receivers that equalize in
    /// place.
    pub fn received_mut(&mut self) -> &mut [C32] {
        &mut self.block
    }

    /// Symbol indices of the last frame's pilot prefix.
    pub fn pilots(&self) -> &[usize] {
        &self.tx_syms[..self.pilot_symbols]
    }

    /// Symbols per frame.
    pub fn frame_symbols(&self) -> usize {
        self.block.len()
    }

    /// The evidence this link's frames carry.
    pub fn monitor(&self) -> Monitor {
        self.monitor
    }

    /// The playback channel (frame position, current state).
    pub fn channel(&self) -> &TrajectoryChannel {
        &self.channel
    }

    fn split(&self) -> usize {
        self.pilot_symbols * self.bits_per_symbol
    }

    /// Counts the last frame's hard-decision errors (`l < 0` decides
    /// bit 1) in `llrs`, the symbol-major LLRs of the whole frame.
    pub fn score(&self, llrs: &[f32]) -> FrameScore {
        debug_assert_eq!(llrs.len(), self.tx_bits.len());
        let errors = |tx: &[u8], llrs: &[f32]| {
            tx.iter()
                .zip(llrs)
                .filter(|&(&b, &l)| u8::from(l < 0.0) != b)
                .count() as u64
        };
        let split = self.split();
        FrameScore {
            pilot_bits: split as u64,
            pilot_errors: errors(&self.tx_bits[..split], &llrs[..split]),
            payload_bits: (self.tx_bits.len() - split) as u64,
            payload_errors: errors(&self.tx_bits[split..], &llrs[split..]),
        }
    }

    /// Soft-decodes the payload LLRs of the last frame and returns the
    /// channel bits the Viterbi decoder corrected. Meaningful only
    /// under [`Monitor::Ecc`], where the payload is a codeword.
    pub fn ecc_corrected(&self, llrs: &[f32]) -> u64 {
        debug_assert_eq!(self.monitor, Monitor::Ecc);
        self.viterbi
            .decode_soft(&self.code, &llrs[self.split()..])
            .corrected
    }

    /// Bitwise mutual information of the last frame's payload LLRs.
    pub fn payload_mi(&self, llrs: &[f32]) -> f64 {
        let split = self.split();
        let mut mi = BitwiseMiEstimator::new();
        for (&b, &l) in self.tx_bits[split..].iter().zip(&llrs[split..]) {
            mi.push(b, l);
        }
        mi.mi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demapper::{Demapper, MaxLogMap};
    use crate::trajectory::ChannelState;

    fn framer(es_n0_db: f64, seed: u64, pilots: usize, monitor: Monitor) -> Framer {
        let traj = Trajectory::constant("t", ChannelState::clean(es_n0_db), 4);
        Framer::new(traj, seed, 64, pilots, 4, monitor)
    }

    fn demap(f: &Framer, sigma: f32) -> Vec<f32> {
        let mut llrs = vec![0.0; f.frame_symbols() * 4];
        MaxLogMap::new(Constellation::qam_gray(16), sigma).demap_block(f.received(), &mut llrs);
        llrs
    }

    #[test]
    fn clean_frames_score_without_errors() {
        let qam = Constellation::qam_gray(16);
        for monitor in [Monitor::Pilot, Monitor::Ecc] {
            let mut f = framer(f64::INFINITY, 3, 16, monitor);
            f.transmit(&qam);
            let llrs = demap(&f, 0.1);
            let score = f.score(&llrs);
            assert_eq!(
                score,
                FrameScore {
                    pilot_bits: 64,
                    pilot_errors: 0,
                    payload_bits: 192,
                    payload_errors: 0,
                }
            );
            assert!(f.payload_mi(&llrs) > 0.999);
            if monitor == Monitor::Ecc {
                assert_eq!(f.ecc_corrected(&llrs), 0);
            }
        }
    }

    #[test]
    fn frames_replay_per_seed_and_pilots_change_per_frame() {
        let qam = Constellation::qam_gray(16);
        let frames = |seed| {
            let mut f = framer(8.0, seed, 16, Monitor::Pilot);
            (0..2)
                .map(|_| {
                    f.transmit(&qam);
                    (f.pilots().to_vec(), f.received().to_vec())
                })
                .collect::<Vec<_>>()
        };
        let a = frames(7);
        assert_eq!(a, frames(7));
        assert_ne!(a, frames(8));
        assert_ne!(a[0].0, a[1].0, "each frame draws fresh pilots");
    }

    #[test]
    fn noisy_scores_count_every_flipped_decision() {
        let qam = Constellation::qam_gray(16);
        let mut f = framer(4.0, 5, 32, Monitor::Pilot);
        f.transmit(&qam);
        let mut llrs = demap(&f, 0.4);
        let noisy = f.score(&llrs);
        assert!(
            noisy.pilot_errors + noisy.payload_errors > 0,
            "4 dB flips bits"
        );
        // Flipping every LLR turns each right decision wrong and back.
        llrs.iter_mut().for_each(|l| *l = -*l);
        let flipped = f.score(&llrs);
        assert_eq!(flipped.pilot_errors, 128 - noisy.pilot_errors);
        assert_eq!(flipped.payload_errors, 128 - noisy.payload_errors);
    }

    #[test]
    #[should_panic(expected = "pilots cannot exceed the frame")]
    fn too_many_pilots_rejected() {
        let _ = framer(8.0, 0, 65, Monitor::Pilot);
    }

    #[test]
    #[should_panic(expected = "even payload capacity above the tail")]
    fn ecc_without_payload_rejected() {
        let _ = framer(8.0, 0, 64, Monitor::Ecc);
    }
}
