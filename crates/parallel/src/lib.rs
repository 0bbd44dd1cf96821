//! # hybridem-parallel
//!
//! Thread-based data parallelism for the Monte-Carlo workloads in the
//! workspace (BER sweeps need 10⁶–10⁷ simulated symbols per point).
//!
//! Built directly on `std::thread::scope` in the spirit of the
//! Rayon model (fork–join over slices), but deliberately tiny and —
//! crucially — **deterministic**: work is split into a fixed number of
//! *tasks* that is independent of the worker count, and each task draws
//! from its own counter-derived RNG stream. Running on 1 thread or 64
//! produces bit-identical results.
//!
//! - [`par_for_each_mut`] — parallel in-place mutation of independent
//!   element states;
//! - [`montecarlo::RoundRunner`] — deterministic parallel Monte-Carlo
//!   in resumable rounds, with per-task RNG streams and task-order
//!   folds: the engine behind the link simulator and the campaign
//!   engine's statistical early stopping (DESIGN.md §8);
//! - [`shard::ShardRunner`] — fully independent stateful shards (one
//!   online link per shard) stepped in parallel and folded in shard
//!   order (DESIGN.md §10);
//! - [`steal::StealPool`] — persistent work-stealing workers for
//!   latency-imbalanced serving rounds, where static partitioning
//!   would let one hot task starve its whole range (DESIGN.md §12).
//!   Deliberately **non**-deterministic in schedule; consumers fold
//!   results in task order to stay reproducible.

#![warn(missing_docs)]

pub mod montecarlo;
pub mod par_iter;
pub mod shard;
pub mod steal;
pub mod util;

pub use montecarlo::{MonteCarloPlan, RoundRunner};
pub use par_iter::par_for_each_mut;
pub use shard::ShardRunner;
pub use steal::StealPool;
pub use util::num_threads;
