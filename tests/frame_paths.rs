//! One frame recipe (DESIGN.md §10, §12.3): a `LinkServer` session and
//! an `OnlineLink` with the same trajectory, seed, frame geometry and
//! demapper transmit the same frames, so their per-frame pilot and
//! payload error counts agree exactly — under pilot and ECC
//! monitoring, on the server's batched and unbatched demap paths.

use hybridem::comm::constellation::Constellation;
use hybridem::comm::demapper::MaxLogMap;
use hybridem::comm::snr::noise_sigma;
use hybridem::comm::trajectory::{ChannelState, Trajectory};
use hybridem::core::runtime::{Monitor, OnlineLink, OnlineLinkSpec};
use hybridem::core::server::{Admit, LinkServer, ServerCfg, SessionCfg};
use std::sync::Arc;

const ES_N0_DB: f64 = 8.0;
const FRAMES: u64 = 12;
const FRAME_SYMBOLS: usize = 64;
const PILOT_SYMBOLS: usize = 16;
const SEED: u64 = 0xF4A3E;

/// AWGN, then a π/4 phase step halfway through.
fn trajectory() -> Trajectory {
    let awgn = ChannelState::clean(ES_N0_DB);
    Trajectory::new("awgn-then-phase-step")
        .hold(FRAMES / 2, awgn)
        .hold(FRAMES / 2, awgn.with_phase(std::f32::consts::FRAC_PI_4))
}

fn maxlog() -> MaxLogMap {
    MaxLogMap::new(
        Constellation::qam_gray(16),
        noise_sigma(ES_N0_DB, 1.0) as f32,
    )
}

/// Per-frame (pilot errors, payload errors) of the online link.
fn online_counts(monitor: Monitor) -> Vec<(u64, u64)> {
    let mut spec = OnlineLinkSpec::new(trajectory(), SEED);
    spec.params.frame_symbols = FRAME_SYMBOLS;
    spec.params.pilot_symbols = PILOT_SYMBOLS;
    spec.params.monitor = monitor;
    let mut link = OnlineLink::fixed(spec, Constellation::qam_gray(16), Box::new(maxlog()));
    (0..FRAMES)
        .map(|_| {
            let rec = link.step();
            (rec.pilot_bit_errors, rec.payload_bit_errors)
        })
        .collect()
}

/// Per-frame (pilot errors, payload errors) of a server session served
/// one frame per round, next to a second session on the same backend
/// so `batch_links > 1` takes the gathered path.
fn server_counts(monitor: Monitor, batch_links: usize) -> Vec<(u64, u64)> {
    let qam = Constellation::qam_gray(16);
    let mut server = LinkServer::new(ServerCfg {
        workers: 1,
        queue_cap: 4,
        batch_links,
    });
    let backend = server.register_backend(qam, Arc::new(maxlog()) as _);
    let open = |server: &mut LinkServer, seed| {
        let mut cfg = SessionCfg::new(backend, trajectory(), seed);
        cfg.frame_symbols = FRAME_SYMBOLS;
        cfg.pilot_symbols = PILOT_SYMBOLS;
        cfg.monitor = monitor;
        server.open_session(cfg)
    };
    let id = open(&mut server, SEED);
    let neighbour = open(&mut server, SEED + 1);
    let mut last = server.session_stats(id).unwrap();
    (0..FRAMES)
        .map(|_| {
            for s in [id, neighbour] {
                assert_eq!(server.submit(s, 1), Ok(Admit::Accepted));
            }
            assert_eq!(server.serve_round(), 2);
            let now = server.session_stats(id).unwrap();
            let counts = (
                now.pilot_bit_errors - last.pilot_bit_errors,
                now.payload_bit_errors - last.payload_bit_errors,
            );
            last = now;
            counts
        })
        .collect()
}

#[test]
fn server_session_and_online_link_score_identical_frames() {
    for monitor in [Monitor::Pilot, Monitor::Ecc] {
        let online = online_counts(monitor);
        // The phase step must actually break frames, or equality would
        // only compare zeros.
        let broken: u64 = online[FRAMES as usize / 2..].iter().map(|c| c.1).sum();
        assert!(broken > 0, "{monitor:?}: the π/4 step flips payload bits");
        for batch_links in [1, 256] {
            assert_eq!(
                server_counts(monitor, batch_links),
                online,
                "{monitor:?}, batch_links {batch_links}: server and online link drifted apart"
            );
        }
    }
}
