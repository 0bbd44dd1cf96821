//! Property-based tests of the parallel substrate: order preservation,
//! determinism, and exact work accounting.

use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};
use hybridem_parallel::montecarlo::{MonteCarloPlan, RoundRunner};
use hybridem_parallel::par_iter::par_for_each_mut;
use hybridem_parallel::util::split_ranges;
use hybridem_parallel::StealPool;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A quarter-of-the-draws-hit trial, so accumulators depend on the
/// exact stream positions.
fn trial(acc: &mut u64, rng: &mut Xoshiro256pp) {
    if rng.next_f64() < 0.25 {
        *acc += 1;
    }
}

fn hits(tasks: u32, seed: u64, rounds: &[u64]) -> u64 {
    let mut r = RoundRunner::new(tasks, seed, || 0u64);
    for &t in rounds {
        r.run_round(t, trial);
    }
    r.fold(|a| *a, |a, b| *a += b)
}

proptest! {
    #[test]
    fn par_for_each_mut_equals_sequential(xs in proptest::collection::vec(any::<i32>(), 0..500)) {
        let seq: Vec<i64> = xs.iter().enumerate().map(|(i, &x)| x as i64 * 3 - i as i64).collect();
        let mut par: Vec<i64> = xs.iter().map(|&x| x as i64).collect();
        par_for_each_mut(&mut par, |i, x| *x = *x * 3 - i as i64);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn split_ranges_partition(len in 0usize..1000, pieces in 1usize..32) {
        let rs = split_ranges(len, pieces);
        let mut covered = 0usize;
        let mut next = 0usize;
        for r in &rs {
            prop_assert_eq!(r.start, next);
            covered += r.len();
            next = r.end;
        }
        prop_assert_eq!(covered, len);
    }

    #[test]
    fn round_runner_is_independent_of_thread_count(
        trials in 0u64..5000, tasks in 1u32..16, seed in any::<u64>()
    ) {
        // The worker threads must reproduce the one-thread case: every
        // task stream walked in task order with the plan's trial split.
        let plan = MonteCarloPlan::with_tasks(trials, tasks, seed);
        let mut sequential = 0u64;
        for i in 0..tasks {
            let mut rng = Xoshiro256pp::stream(seed, u64::from(i));
            for _ in 0..plan.trials_of_task(i) {
                trial(&mut sequential, &mut rng);
            }
        }
        prop_assert_eq!(hits(tasks, seed, &[trials]), sequential);
    }

    #[test]
    fn aligned_rounds_equal_one_round(
        per_task in proptest::collection::vec(0u64..200, 1..5), tasks in 1u32..16, seed in any::<u64>()
    ) {
        // Rounds whose sizes are multiples of the task count split
        // evenly, so running them one by one equals one round of the
        // summed size.
        let rounds: Vec<u64> = per_task.iter().map(|&c| c * u64::from(tasks)).collect();
        prop_assert_eq!(hits(tasks, seed, &rounds), hits(tasks, seed, &[rounds.iter().sum()]));
    }

    #[test]
    fn round_runner_trial_count_exact(
        rounds in proptest::collection::vec(0u64..3000, 0..4), tasks in 1u32..64, seed in any::<u64>()
    ) {
        let mut r = RoundRunner::new(tasks, seed, || 0u64);
        for &t in &rounds {
            r.run_round(t, |acc, _| *acc += 1);
        }
        let total: u64 = rounds.iter().sum();
        prop_assert_eq!(r.fold(|a| *a, |a, b| *a += b), total);
        prop_assert_eq!(r.trials(), total);
    }

    #[test]
    fn steal_pool_runs_every_task_exactly_once(
        threads in 1usize..6, tasks in 0usize..400, rounds in 1usize..4
    ) {
        // The pool makes no ordering promise, but exact-once execution
        // must hold for every (thread count, task count) combination
        // and must not degrade across reused rounds.
        let pool = StealPool::new(threads);
        for _ in 0..rounds {
            let hits: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
            pool.run(tasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                prop_assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }
}
