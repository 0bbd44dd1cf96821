//! Deterministic parallel Monte-Carlo execution.
//!
//! A BER point is an embarrassingly parallel estimation problem, but a
//! naive "one RNG per thread" split makes the result depend on the
//! machine's core count. Here the work is divided into a fixed number
//! of **tasks** chosen by the caller (not by the scheduler); task `i`
//! always processes the same number of trials with the RNG stream
//! `Xoshiro256pp::stream(seed, i)`, and partial results are reduced in
//! task order. The outcome is a pure function of `(plan, seed)`.
//!
//! [`RoundRunner`] executes such a plan resumably: trials arrive in
//! caller-chosen **rounds**, each task keeping its accumulator and RNG
//! stream alive between rounds. The state after rounds `r₁, …, r_k` is
//! a pure function of `(tasks, seed, r₁ … r_k)` — independent of
//! thread count and of whether later rounds ever run — which is what
//! makes statistical early stopping deterministic: a caller that stops
//! after round `k` obtains exactly the `k`-round prefix of the uncapped
//! run (DESIGN.md §8). A one-shot run is a single round. (Collapsing
//! rounds into one bigger round additionally preserves results
//! whenever the per-task trial splits line up, e.g. round sizes
//! divisible by the task count.)

use crate::par_iter::par_for_each_mut;
use hybridem_mathkit::rng::Xoshiro256pp;

/// Shape of a Monte-Carlo run: how many trials, split into how many
/// deterministic tasks.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloPlan {
    /// Total number of trials across all tasks.
    pub trials: u64,
    /// Number of independent tasks (each gets its own RNG stream).
    /// More tasks → finer load balancing; the result never changes.
    pub tasks: u32,
    /// Base seed; task `i` uses stream `(seed, i)`.
    pub seed: u64,
}

impl MonteCarloPlan {
    /// A plan with a task count suited to the current machine
    /// (4× threads for load balancing) but results independent of it —
    /// determinism only requires that *the same plan* be replayed.
    pub fn new(trials: u64, seed: u64) -> Self {
        let tasks = (crate::util::num_threads() * 4).clamp(1, 256) as u32;
        Self {
            trials,
            tasks,
            seed,
        }
    }

    /// Explicit task count (use in tests asserting thread-count
    /// invariance: fix `tasks`, vary `HYBRIDEM_THREADS`).
    pub fn with_tasks(trials: u64, tasks: u32, seed: u64) -> Self {
        assert!(tasks > 0, "at least one task");
        Self {
            trials,
            tasks,
            seed,
        }
    }

    /// Number of trials assigned to task `i` (first tasks get the
    /// remainder, same convention as `split_ranges`).
    pub fn trials_of_task(&self, i: u32) -> u64 {
        let base = self.trials / self.tasks as u64;
        let extra = self.trials % self.tasks as u64;
        base + u64::from((i as u64) < extra)
    }
}

struct TaskState<A> {
    rng: Xoshiro256pp,
    acc: A,
}

/// Resumable deterministic Monte-Carlo execution in rounds.
///
/// Holds one `(accumulator, RNG stream)` pair per task. Every call to
/// [`RoundRunner::run_round`] splits the round's trials across the
/// fixed task set (same remainder-first convention as
/// [`MonteCarloPlan::trials_of_task`]) and lets each task continue its
/// own stream where the previous round left it. Because task state
/// never migrates between tasks, the accumulated result after any
/// round prefix is a pure function of
/// `(tasks, seed, round sizes so far)` — independent of thread count
/// and of whether later rounds ever run. Stop decisions taken between
/// rounds therefore cannot perturb the estimate they stopped.
pub struct RoundRunner<A> {
    seed: u64,
    states: Vec<TaskState<A>>,
    rounds: u32,
    trials: u64,
}

impl<A: Send> RoundRunner<A> {
    /// Creates `tasks` resumable task states for the given seed; task
    /// `i` draws from `Xoshiro256pp::stream(seed, i)` for its lifetime.
    ///
    /// # Panics
    /// Panics if `tasks == 0`.
    pub fn new<I: Fn() -> A>(tasks: u32, seed: u64, init: I) -> Self {
        assert!(tasks > 0, "at least one task");
        let states = (0..tasks)
            .map(|i| TaskState {
                rng: Xoshiro256pp::stream(seed, u64::from(i)),
                acc: init(),
            })
            .collect();
        Self {
            seed,
            states,
            rounds: 0,
            trials: 0,
        }
    }

    /// Number of tasks (fixed at construction).
    pub fn tasks(&self) -> u32 {
        self.states.len() as u32
    }

    /// Base seed the task streams were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Total trials executed across all rounds.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Executes one round of `trials` further trials, split across the
    /// task set with the [`MonteCarloPlan::trials_of_task`] convention
    /// (first `trials % tasks` tasks get one extra).
    pub fn run_round<B>(&mut self, trials: u64, body: B)
    where
        B: Fn(&mut A, &mut Xoshiro256pp) + Sync,
    {
        let tasks = self.states.len() as u64;
        let base = trials / tasks;
        let extra = trials % tasks;
        par_for_each_mut(&mut self.states, |i, state| {
            let n = base + u64::from((i as u64) < extra);
            for _ in 0..n {
                body(&mut state.acc, &mut state.rng);
            }
        });
        self.rounds += 1;
        self.trials += trials;
    }

    /// Reduces a snapshot of the task accumulators in task order:
    /// `map` projects each accumulator, `merge` folds projections into
    /// the first one. Task-order folding keeps floating-point
    /// reductions bit-stable across thread counts.
    pub fn fold<R, P, M>(&self, map: P, merge: M) -> R
    where
        P: Fn(&A) -> R,
        M: Fn(&mut R, R),
    {
        let mut iter = self.states.iter();
        let first = iter.next().expect("RoundRunner has at least one task");
        let mut total = map(&first.acc);
        for s in iter {
            merge(&mut total, map(&s.acc));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::rng::Rng64;
    use hybridem_mathkit::stats::ErrorCounter;

    fn pi_trial(acc: &mut u64, rng: &mut Xoshiro256pp) {
        let x = rng.next_f64();
        let y = rng.next_f64();
        if x * x + y * y <= 1.0 {
            *acc += 1;
        }
    }

    /// Quarter-circle hits of a `tasks`-task runner over `rounds`.
    fn pi_hits(tasks: u32, seed: u64, rounds: &[u64]) -> u64 {
        let mut r = RoundRunner::new(tasks, seed, || 0u64);
        for &t in rounds {
            r.run_round(t, pi_trial);
        }
        r.fold(|a| *a, |a, b| *a += b)
    }

    #[test]
    fn estimates_pi() {
        let pi = 4.0 * pi_hits(16, 42, &[1_000_000]) as f64 / 1e6;
        assert!((pi - std::f64::consts::PI).abs() < 0.01, "pi ≈ {pi}");
    }

    #[test]
    fn deterministic_replay() {
        assert_eq!(pi_hits(8, 7, &[100_000]), pi_hits(8, 7, &[100_000]));
    }

    #[test]
    fn independent_of_thread_count() {
        // A round evaluated on the worker threads must agree with the
        // one-thread case, emulated by walking the task streams in task
        // order by hand with the plan's trial split.
        let plan = MonteCarloPlan::with_tasks(50_000, 12, 99);
        let parallel = pi_hits(plan.tasks, plan.seed, &[plan.trials]);
        let mut sequential = 0u64;
        for i in 0..plan.tasks {
            let mut rng = Xoshiro256pp::stream(plan.seed, u64::from(i));
            for _ in 0..plan.trials_of_task(i) {
                pi_trial(&mut sequential, &mut rng);
            }
        }
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn trial_split_is_exact() {
        for trials in [0u64, 1, 999, 1000, 1001] {
            let plan = MonteCarloPlan::with_tasks(trials, 7, 0);
            let sum: u64 = (0..plan.tasks).map(|i| plan.trials_of_task(i)).sum();
            assert_eq!(sum, trials);
        }
    }

    #[test]
    fn works_with_error_counter() {
        // Simulate a Bernoulli(0.1) error process.
        let mut runner = RoundRunner::new(16, 5, ErrorCounter::new);
        runner.run_round(200_000, |acc, rng| acc.push(rng.next_f64() < 0.1));
        let counter = runner.fold(|c| *c, |a, b| a.merge(&b));
        assert_eq!(counter.trials(), 200_000);
        assert!(counter.consistent_with(0.1, 3.9), "rate {}", counter.rate());
        assert_eq!(runner.rounds(), 1);
        assert_eq!(runner.trials(), 200_000);
        assert_eq!(runner.tasks(), 16);
        assert_eq!(runner.seed(), 5);
    }

    #[test]
    fn rounds_are_a_prefix_of_the_uncapped_run() {
        // Three geometric rounds must equal one round of the summed
        // trial count, and stopping after round two must equal the
        // two-round prefix of the three-round run — the early-stopping
        // determinism argument in miniature.
        assert_eq!(
            pi_hits(8, 33, &[1000, 4000, 16000]),
            pi_hits(8, 33, &[21000])
        );
        assert_eq!(pi_hits(8, 33, &[1000, 4000]), pi_hits(8, 33, &[5000]));
    }

    #[test]
    fn round_split_uses_plan_convention() {
        // 10 trials over 4 tasks: tasks 0,1 run 3 trials, tasks 2,3
        // run 2 — the trials_of_task convention, observable by counting
        // per-task bodies.
        let mut r = RoundRunner::new(4, 0, Vec::<u64>::new);
        r.run_round(10, |acc, _| acc.push(1));
        let per_task = r.fold(|a| vec![a.len() as u64], |a, b| a.extend(b));
        assert_eq!(per_task, vec![3, 3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_rejected() {
        let _ = RoundRunner::new(0, 0, || 0u8);
    }

    #[test]
    fn zero_trials_fold_only_inits() {
        // 4 tasks, 0 trials each: body never runs, the four init
        // accumulators (17 each) are summed by the fold.
        let mut r = RoundRunner::new(4, 1, || 17u32);
        r.run_round(0, |_, _| unreachable!());
        assert_eq!(r.fold(|a| *a, |a, b| *a += b), 68);
    }
}
