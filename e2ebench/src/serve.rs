//! The serve workloads: a closed loop over a [`LinkServer`] in which
//! every session has exactly one frame outstanding. A round submits one
//! frame per session, serves it, then applies the round's churn
//! (close + reopen) and backend switches.

use crate::report::{Counts, Digest, Metrics, Window, BLOCK_NS};
use crate::setup::Trained;
use crate::trace::Tracer;
use hybridem_comm::channel::Channel;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_comm::ecc::{ConvCode, Viterbi};
use hybridem_comm::trajectory::{ChannelState, Trajectory, TrajectoryChannel};
use hybridem_core::runtime::Monitor;
use hybridem_core::server::{
    Admit, AggregateReport, BackendId, LinkServer, ServerCfg, SessionCfg, SessionId, SessionStats,
};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::{Rng64, SplitMix64, Xoshiro256pp};
use hybridem_parallel::StealPool;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shape of one serve workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Sessions, each with one outstanding frame per round.
    pub sessions: usize,
    /// Symbols per frame.
    pub frame_symbols: usize,
    /// Pilot symbols per frame.
    pub pilot_symbols: usize,
    /// Links gathered into one demap call.
    pub batch_links: usize,
    /// `true`: the trained line-up (hybrid, graph, Gray max-log) at the
    /// operating point with ECC, churn and switching; `false`: one
    /// Gray max-log backend on a noiseless channel.
    pub deploy: bool,
    /// Rounds of the deterministic prefix the digest covers.
    pub prefix_rounds: u64,
}

impl ServeSpec {
    /// `serve-short`: 1024 sessions of 8-symbol frames.
    pub const SHORT: ServeSpec = ServeSpec {
        sessions: 1024,
        frame_symbols: 8,
        pilot_symbols: 2,
        batch_links: 256,
        deploy: false,
        prefix_rounds: 256,
    };

    /// `serve-deploy`: 384 sessions of 256-symbol frames.
    pub const DEPLOY: ServeSpec = ServeSpec {
        sessions: 384,
        frame_symbols: 256,
        pilot_symbols: 64,
        batch_links: 256,
        deploy: true,
        prefix_rounds: 48,
    };
}

/// One in this many sessions is ECC-monitored (deploy).
const ECC_EVERY: usize = 8;
/// Per round, one in this many sessions is closed and reopened, and as
/// many switch between the hybrid and graph backends (deploy).
const CHURN_DIV: usize = 64;

/// Tolerated BER excess of a learned backend over Gray-QAM max-log:
/// `ber ≤ BAND_RATIO · maxlog + BAND_ABS`.
const BAND_RATIO: f64 = 1.5;
const BAND_ABS: f64 = 2e-3;

struct Backend {
    id: BackendId,
    name: &'static str,
    constellation: Constellation,
    demapper: Arc<dyn Demapper>,
}

struct Tracked {
    id: SessionId,
    backend: usize,
    ecc: bool,
    /// Counters already attributed to a backend.
    seen: SessionStats,
}

/// A serve workload, set up and ready to run rounds.
pub struct Serve {
    spec: ServeSpec,
    seed: u64,
    server: LinkServer,
    backends: Vec<Backend>,
    trajectory: Trajectory,
    sessions: Vec<Tracked>,
    /// Counters attributed per backend (switches and closes move a
    /// session's counters to the backend that served them).
    per_backend: Vec<SessionStats>,
    opened: u64,
    rounds: u64,
    churn_cursor: usize,
    switch_cursor: usize,
    replay: Option<Replay>,
}

fn sub(a: &SessionStats, b: &SessionStats) -> SessionStats {
    SessionStats {
        submitted_frames: a.submitted_frames - b.submitted_frames,
        frames: a.frames - b.frames,
        payload_bits: a.payload_bits - b.payload_bits,
        payload_bit_errors: a.payload_bit_errors - b.payload_bit_errors,
        pilot_bits: a.pilot_bits - b.pilot_bits,
        pilot_bit_errors: a.pilot_bit_errors - b.pilot_bit_errors,
        ecc_corrected: a.ecc_corrected - b.ecc_corrected,
        shed_frames: a.shed_frames - b.shed_frames,
        dropped_frames: a.dropped_frames - b.dropped_frames,
    }
}

impl Serve {
    /// Builds the server, registers the backends and opens every
    /// session. `trained` supplies the learned backends (deploy only).
    pub fn new(spec: ServeSpec, seed: u64, workers: usize, trained: &Trained) -> Self {
        let cfg = trained.pipe.config();
        let sigma = cfg.sigma();
        let qam = Constellation::qam_gray(cfg.num_symbols());
        let mut server = LinkServer::new(ServerCfg {
            workers,
            // Closed loop: one frame in flight per session, so a second
            // submit before the round serves the first would be shed.
            queue_cap: 1,
            batch_links: spec.batch_links,
        });
        let mut backends = Vec::new();
        let mut register = |name, constellation: Constellation, demapper: Arc<dyn Demapper>| {
            let id = server.register_backend(constellation.clone(), demapper.clone());
            backends.push(Backend {
                id,
                name,
                constellation,
                demapper,
            });
        };
        let trajectory = if spec.deploy {
            let pipe = &trained.pipe;
            let learned = pipe.constellation();
            let hybrid = pipe
                .hybrid_demapper()
                .expect("trained pipeline is extracted");
            let hybrid = hybridem_core::hybrid::HybridDemapper::from_centroids(
                hybrid.centroids().clone(),
                sigma,
            );
            let model = pipe.ann_demapper().model();
            let boundaries =
                hybridem_core::qat::calibrate_boundaries(&learned, model, sigma, 8, 1024, cfg.seed);
            let graph = hybridem_fpga::graph::compile(model, &boundaries);
            register("hybrid", learned.clone(), Arc::new(hybrid));
            register("graph", learned, Arc::new(graph));
            register("maxlog", qam.clone(), Arc::new(MaxLogMap::new(qam, sigma)));
            Trajectory::constant("awgn", ChannelState::clean(cfg.es_n0_db()), 1)
        } else {
            register("maxlog", qam.clone(), Arc::new(MaxLogMap::new(qam, sigma)));
            Trajectory::constant("clean", ChannelState::clean(f64::INFINITY), 1)
        };
        let mut serve = Self {
            spec,
            seed,
            server,
            per_backend: vec![SessionStats::default(); backends.len()],
            backends,
            trajectory,
            sessions: Vec::with_capacity(spec.sessions),
            opened: 0,
            rounds: 0,
            churn_cursor: 0,
            switch_cursor: 0,
            replay: None,
        };
        for i in 0..spec.sessions {
            let backend = i % serve.backends.len();
            let ecc = spec.deploy && i % ECC_EVERY == 0;
            let id = serve.open(backend, ecc);
            serve.sessions.push(Tracked {
                id,
                backend,
                ecc,
                seen: SessionStats::default(),
            });
        }
        serve
    }

    fn open(&mut self, backend: usize, ecc: bool) -> SessionId {
        let mut cfg = SessionCfg::new(
            self.backends[backend].id,
            self.trajectory.clone(),
            SplitMix64::derive(self.seed, self.opened),
        );
        cfg.frame_symbols = self.spec.frame_symbols;
        cfg.pilot_symbols = self.spec.pilot_symbols;
        cfg.monitor = if ecc { Monitor::Ecc } else { Monitor::Pilot };
        self.opened += 1;
        self.server.open_session(cfg)
    }

    fn attribute(&mut self, k: usize, now: SessionStats) {
        let s = &mut self.sessions[k];
        self.per_backend[s.backend].merge(&sub(&now, &s.seen));
        s.seen = now;
    }

    /// One closed-loop round. Returns (submit+serve ns, whole round ns,
    /// frames served).
    fn round(&mut self, tracer: Option<&mut Tracer>) -> Result<(u64, u64, u64), String> {
        let allocs0 = crate::alloc::allocations();
        let t0 = Instant::now();
        for s in &self.sessions {
            let admit = self.server.submit(s.id, 1).map_err(|e| e.to_string())?;
            if admit != Admit::Accepted {
                return Err("closed-loop submit was shed".to_string());
            }
        }
        let t1 = Instant::now();
        let served = self.server.serve_round();
        let t2 = Instant::now();
        let allocs = crate::alloc::allocations() - allocs0;
        let n = self.sessions.len();
        if served != n as u64 {
            return Err(format!("round served {served} of {n} frames"));
        }
        if self.spec.deploy {
            for _ in 0..n / CHURN_DIV {
                let k = self.churn_cursor % n;
                self.churn_cursor += 1;
                let closed = self
                    .server
                    .close_session(self.sessions[k].id)
                    .map_err(|e| e.to_string())?;
                self.attribute(k, closed);
                let (backend, ecc) = (self.sessions[k].backend, self.sessions[k].ecc);
                self.sessions[k].id = self.open(backend, ecc);
                self.sessions[k].seen = SessionStats::default();
            }
        }
        let t3 = Instant::now();
        if self.spec.deploy {
            // Only the hybrid (0) and graph (1) backends share a
            // constellation, so only their sessions switch.
            let mut left = n / CHURN_DIV;
            while left > 0 {
                let k = self.switch_cursor % n;
                self.switch_cursor += 1;
                if self.sessions[k].backend > 1 {
                    continue;
                }
                left -= 1;
                let id = self.sessions[k].id;
                let now = self.server.session_stats(id).map_err(|e| e.to_string())?;
                self.attribute(k, now);
                let to = 1 - self.sessions[k].backend;
                self.server
                    .switch_backend(id, self.backends[to].id)
                    .map_err(|e| e.to_string())?;
                self.sessions[k].backend = to;
            }
        }
        let t4 = Instant::now();
        if let Some(tr) = tracer {
            let r = self.rounds;
            let root = tr.record("round", tr.at(t0), tr.at(t4), None, r);
            tr.record("server.submit", tr.at(t0), tr.at(t1), Some(root), r);
            tr.record("server.serve_round", tr.at(t1), tr.at(t2), Some(root), r);
            tr.record("server.churn", tr.at(t2), tr.at(t3), Some(root), r);
            tr.record("server.switch", tr.at(t3), tr.at(t4), Some(root), r);
            if self.replay.is_none() {
                self.replay = Some(Replay::new(self));
            }
            let replay = self.replay.as_mut().expect("just created");
            replay.allocs += allocs;
            replay.run(&self.sessions, &self.backends, self.spec, tr, root, r);
            let end = tr.now();
            tr.set_end(root, end);
        }
        self.rounds += 1;
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        Ok((ns(t0, t2), ns(t0, t4), served))
    }

    /// The fixed rounds the digest covers (they also warm the server
    /// up), then the correctness gate on their outcome.
    pub fn prefix(&mut self) -> Result<Digest, String> {
        let (agg, digest) = self.run_prefix()?;
        self.check_backends(&agg)?;
        Ok(digest)
    }

    fn run_prefix(&mut self) -> Result<(AggregateReport, Digest), String> {
        for _ in 0..self.spec.prefix_rounds {
            self.round(None)?;
        }
        let agg = self.checked_aggregate()?;
        for k in 0..self.sessions.len() {
            let now = self
                .server
                .session_stats(self.sessions[k].id)
                .map_err(|e| e.to_string())?;
            self.attribute(k, now);
        }
        let mut d = Digest::default();
        d.push("rounds", self.spec.prefix_rounds);
        d.push("frames", agg.frames);
        d.push("payload_bits", agg.payload_bits);
        d.push("payload_bit_errors", agg.payload_bit_errors);
        d.push("pilot_bit_errors", agg.pilot_bit_errors);
        d.push("ecc_corrected", agg.ecc_corrected);
        d.push("shed", agg.shed_frames);
        d.push("dropped", agg.dropped_frames);
        d.push("pending", agg.pending_frames);
        d.push("sessions_closed", agg.sessions_closed);
        for (b, st) in self.backends.iter().zip(&self.per_backend) {
            d.push(
                b.name,
                format!("{}/{}", st.payload_bit_errors, st.payload_bits),
            );
        }
        Ok((agg, d))
    }

    fn checked_aggregate(&mut self) -> Result<AggregateReport, String> {
        let agg = self.server.aggregate();
        agg.validate().map_err(|e| format!("aggregate: {e}"))?;
        Ok(agg)
    }

    /// Noiseless serving is error-free; on the deploy line-up every
    /// learned backend stays within the stated band of Gray max-log.
    fn check_backends(&self, agg: &AggregateReport) -> Result<(), String> {
        if !self.spec.deploy {
            if agg.payload_bit_errors + agg.pilot_bit_errors != 0 {
                return Err(format!(
                    "noiseless serving made {} payload and {} pilot bit errors",
                    agg.payload_bit_errors, agg.pilot_bit_errors
                ));
            }
            return Ok(());
        }
        let maxlog = self.per_backend[2].ber();
        if maxlog <= 0.0 {
            return Err("Gray max-log shows no errors at the operating point".to_string());
        }
        for (b, st) in self.backends.iter().zip(&self.per_backend).take(2) {
            let limit = BAND_RATIO * maxlog + BAND_ABS;
            if st.payload_bits == 0 || st.ber() > limit {
                return Err(format!(
                    "{} BER {:.3e} outside the band {limit:.3e} of Gray max-log {maxlog:.3e}",
                    b.name,
                    st.ber()
                ));
            }
        }
        Ok(())
    }

    /// Human-readable per-backend BER lines.
    pub fn notes(&self) -> Vec<String> {
        self.backends
            .iter()
            .zip(&self.per_backend)
            .map(|(b, st)| {
                format!(
                    "backend {}: payload BER {:.4e} over {} bits (prefix)",
                    b.name,
                    st.ber(),
                    st.payload_bits
                )
            })
            .collect()
    }

    /// Runs rounds until `deadline` has passed and the window holds at
    /// least `min_rounds` rounds.
    pub fn measure(
        &mut self,
        deadline: Instant,
        min_rounds: usize,
        w: &mut Window,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let sym = self.spec.frame_symbols as u64;
        loop {
            let (latency, busy, frames) = self.round(tracer.as_deref_mut())?;
            w.add(frames, frames * sym, busy, latency, true);
            if w.block_busy_ns() >= BLOCK_NS {
                w.close_block();
            }
            if w.frame_ns.len() >= min_rounds && Instant::now() >= deadline {
                w.close_block();
                return Ok(());
            }
        }
    }

    /// Frame conservation over the whole run.
    pub fn finish(&mut self) -> Result<Counts, String> {
        let agg = self.checked_aggregate()?;
        Ok(Counts {
            attempted: agg.submitted_frames,
            failed: agg.shed_frames + agg.dropped_frames + agg.pending_frames,
        })
    }

    /// Per-layer metrics of a traced window.
    pub fn layers(&self, tr: &Tracer, w: &Window, m: &mut Metrics) {
        let rounds = w.frame_ns.len().max(1) as f64;
        let frames = w.frames.max(1) as f64;
        let mean_us = |name: &str| tr.total(name).0 as f64 * 1e-3 / rounds;
        let Some(rp) = &self.replay else { return };
        m.insert("parallel.pool_run_us", mean_us("replay.pool"));
        m.insert(
            "parallel.steals_per_round",
            (self.server.steal_count() - rp.steals0) as f64 / rounds,
        );
        m.insert(
            "server.submit_ns_per_frame",
            tr.total("server.submit").0 as f64 / frames,
        );
        m.insert(
            "server.round_self_us",
            mean_us("server.serve_round") - mean_us("replay.dataplane"),
        );
        m.insert("server.chunks_per_round", rp.chunks as f64 / rounds);
        m.insert("server.churn_us", mean_us("server.churn"));
        m.insert("server.switch_us", mean_us("server.switch"));
        m.insert("server.allocs_per_frame", rp.allocs as f64 / frames);
        m.insert(
            "bench.self_us",
            tr.total_self("round").0 as f64 * 1e-3 / rounds,
        );
        let per_sym = |name: &str| {
            let (ns, _) = tr.total(name);
            let syms = rp.symbols.get(name).copied().unwrap_or(0);
            if syms == 0 {
                0.0
            } else {
                ns as f64 / syms as f64
            }
        };
        m.insert("channel.transmit_ns_per_sym", per_sym("replay.channel"));
        m.insert("demap.maxlog_ns_per_sym", per_sym("replay.demap.maxlog"));
        m.insert("demap.hybrid_ns_per_sym", per_sym("replay.demap.hybrid"));
        m.insert("demap.graph_ns_per_sym", per_sym("replay.demap.graph"));
        let (vit_ns, _) = tr.total("replay.viterbi");
        m.insert(
            "ecc.viterbi_us_per_frame",
            if rp.ecc_frames == 0 {
                0.0
            } else {
                vit_ns as f64 * 1e-3 / rp.ecc_frames as f64
            },
        );
    }
}

/// Re-runs a traced round's data plane from outside the server: the
/// same chunks (same backend grouping and batch width) on a pool of
/// the same size, each chunk transmitting its frames through the
/// session trajectory, demapping them in one block call and decoding
/// its ECC frames. The serving round minus this replay is the server's
/// own time (planning, locks, frame construction, gather/scatter,
/// monitors).
struct Replay {
    pool: StealPool,
    /// Per-chunk scratch, locked only by the chunk's own task.
    slots: Vec<Mutex<ChunkSlot>>,
    plan: Vec<(usize, usize)>,
    steals0: u64,
    allocs: u64,
    chunks: u64,
    /// Symbols replayed per span name.
    symbols: BTreeMap<&'static str, u64>,
    ecc_frames: u64,
}

struct ChunkSlot {
    channel: TrajectoryChannel,
    rng: Xoshiro256pp,
    tx: Vec<C32>,
    block: Vec<C32>,
    llrs: Vec<f32>,
    /// (span name, start, end) of this round's stages.
    stages: Vec<(&'static str, Instant, Instant)>,
}

impl Replay {
    fn new(serve: &Serve) -> Self {
        let spec = serve.spec;
        let n = spec.batch_links * spec.frame_symbols;
        let max_chunks = spec.sessions.div_ceil(spec.batch_links) + serve.backends.len();
        let mut rng = Xoshiro256pp::stream(serve.seed, 7);
        let slots = (0..max_chunks)
            .map(|i| {
                let tx = (0..n)
                    .map(|_| {
                        serve.backends[0]
                            .constellation
                            .point((rng.next_u64() % 16) as usize)
                    })
                    .collect();
                Mutex::new(ChunkSlot {
                    channel: TrajectoryChannel::new(serve.trajectory.clone(), spec.frame_symbols),
                    rng: Xoshiro256pp::stream(serve.seed, 100 + i as u64),
                    tx,
                    block: vec![C32::zero(); n],
                    llrs: vec![0.0; n * 4],
                    stages: Vec::with_capacity(4),
                })
            })
            .collect();
        Self {
            pool: StealPool::new(serve.server.cfg().workers),
            slots,
            plan: Vec::new(),
            steals0: serve.server.steal_count(),
            allocs: 0,
            chunks: 0,
            symbols: BTreeMap::new(),
            ecc_frames: 0,
        }
    }

    fn run(
        &mut self,
        sessions: &[Tracked],
        backends: &[Backend],
        spec: ServeSpec,
        tr: &mut Tracer,
        root: u32,
        round: u64,
    ) {
        // The server's plan: sessions grouped by backend in slab order,
        // chopped into chunks of at most `batch_links`.
        self.plan.clear();
        let mut ecc_of_chunk = Vec::new();
        for b in 0..backends.len() {
            let members: Vec<&Tracked> = sessions.iter().filter(|s| s.backend == b).collect();
            for c in members.chunks(spec.batch_links) {
                self.plan.push((b, c.len()));
                ecc_of_chunk.push(c.iter().filter(|s| s.ecc).count());
            }
        }
        self.chunks += self.plan.len() as u64;
        let (_, pool_span) = tr.time("replay.pool", Some(root), round, || {
            self.pool.run(self.plan.len(), |_| {});
        });
        let _ = pool_span;
        let fs = spec.frame_symbols;
        let p = spec.pilot_symbols;
        let plan = &self.plan;
        let slots = &self.slots;
        let ecc = &ecc_of_chunk;
        let (_, data_span) = tr.time("replay.dataplane", Some(root), round, || {
            self.pool.run(plan.len(), |ci| {
                let (b, links) = plan[ci];
                let backend = &backends[b];
                let mut guard = slots[ci]
                    .lock()
                    .expect("replay slot lock is never poisoned");
                let slot = &mut *guard;
                slot.stages.clear();
                let syms = links * fs;
                let t0 = Instant::now();
                slot.block[..syms].copy_from_slice(&slot.tx[..syms]);
                for frame in slot.block[..syms].chunks_mut(fs) {
                    slot.channel.transmit(frame, &mut slot.rng);
                }
                let t1 = Instant::now();
                let m = backend.demapper.bits_per_symbol();
                backend
                    .demapper
                    .demap_block(&slot.block[..syms], &mut slot.llrs[..syms * m]);
                let t2 = Instant::now();
                let (code, viterbi) = (ConvCode::new(), Viterbi::new());
                for f in 0..ecc[ci] {
                    let llrs = &slot.llrs[(f * fs + p) * m..(f + 1) * fs * m];
                    std::hint::black_box(viterbi.decode_soft(&code, llrs));
                }
                let t3 = Instant::now();
                slot.stages.push(("replay.channel", t0, t1));
                slot.stages.push((demap_span(backend.name), t1, t2));
                if ecc[ci] > 0 {
                    slot.stages.push(("replay.viterbi", t2, t3));
                }
            });
        });
        for (ci, &(b, links)) in self.plan.clone().iter().enumerate() {
            let slot = self.slots[ci]
                .lock()
                .expect("replay slot lock is never poisoned");
            for &(name, s, e) in &slot.stages {
                tr.record(name, tr.at(s), tr.at(e), Some(data_span), round);
            }
            drop(slot);
            let syms = (links * fs) as u64;
            *self.symbols.entry("replay.channel").or_default() += syms;
            *self
                .symbols
                .entry(demap_span(backends[b].name))
                .or_default() += syms;
            self.ecc_frames += ecc_of_chunk[ci] as u64;
        }
    }
}

fn demap_span(backend: &str) -> &'static str {
    match backend {
        "hybrid" => "replay.demap.hybrid",
        "graph" => "replay.demap.graph",
        _ => "replay.demap.maxlog",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(spec: ServeSpec, seed: u64, workers: usize, trained: &Trained) -> String {
        let mut serve = Serve::new(spec, seed, workers, trained);
        serve.run_prefix().unwrap().1.text()
    }

    #[test]
    fn digests_repeat_across_runs_and_worker_counts() {
        let trained = crate::setup::train(crate::E2E_STEPS).unwrap();
        for spec in [
            ServeSpec {
                sessions: 300,
                prefix_rounds: 6,
                ..ServeSpec::SHORT
            },
            ServeSpec {
                sessions: 192,
                prefix_rounds: 4,
                ..ServeSpec::DEPLOY
            },
        ] {
            let one = digest(spec, 11, 1, &trained);
            assert_eq!(one, digest(spec, 11, 1, &trained), "same seed, same digest");
            assert_eq!(
                one,
                digest(spec, 11, 2, &trained),
                "worker count must not matter"
            );
            if spec.deploy {
                // Noiseless serving counts no errors at any seed.
                assert_ne!(
                    one,
                    digest(spec, 12, 2, &trained),
                    "the seed drives the input"
                );
            }
        }
    }

    #[test]
    fn deploy_gate_holds_and_allocation_count_is_zero_for_pilot_sessions() {
        let trained = crate::setup::train(crate::E2E_STEPS).unwrap();
        let spec = ServeSpec {
            sessions: 192,
            prefix_rounds: 8,
            ..ServeSpec::DEPLOY
        };
        let mut serve = Serve::new(spec, 5, 2, &trained);
        serve
            .prefix()
            .expect("the deploy line-up stays in its BER band");
        serve.finish().expect("frames are conserved");

        let short = ServeSpec {
            sessions: 64,
            prefix_rounds: 4,
            ..ServeSpec::SHORT
        };
        // The allocation counter is process-wide and other tests run on
        // parallel threads, so one of the windows tried while they
        // finish must read zero.
        let clean = (0..50).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let mut serve = Serve::new(short, 5, 1, &trained);
            serve.prefix().unwrap();
            let mut tracer = Tracer::new();
            let mut w = Window::default();
            serve
                .measure(Instant::now(), 20, &mut w, Some(&mut tracer))
                .unwrap();
            let mut m = Metrics::new();
            serve.layers(&tracer, &w, &mut m);
            assert_eq!(m["server.chunks_per_round"], 1.0);
            m["server.allocs_per_frame"] == 0.0
        });
        assert!(clean, "pilot sessions never allocate while serving");
    }
}
