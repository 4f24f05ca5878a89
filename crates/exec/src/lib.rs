//! Deterministic parallel execution engine for trial fan-out.
//!
//! Every headline SegScope experiment is an embarrassingly parallel
//! sweep over independent seeded trials (1000 KASLR breaks per timer
//! setting, N sites × M visits of website traces, per-model DNN trace
//! collection, ...). This crate runs those sweeps on a configurable
//! number of worker threads under one hard contract:
//!
//! > **Bit-identical output at any thread count.**
//!
//! Two mechanisms make that hold:
//!
//! 1. **Per-task seed derivation.** A task never shares an RNG with its
//!    siblings: it derives its own seed from
//!    `(experiment_seed, task_index)` via [`derive_seed`], a
//!    SplitMix64-style mixer. The schedule (which worker runs which
//!    task, and when) therefore cannot influence any task's randomness.
//! 2. **Ordered reduction.** Workers pull chunks of task indices from a
//!    shared atomic cursor, but results are placed back into their
//!    task-index slot, so the returned `Vec` is always in task order —
//!    identical to what a serial loop would produce.
//!
//! [`parallel_map`] fans out indexed tasks; [`parallel_trial_chunks`]
//! fans out seeded trials in chunks of consecutive indices, the form
//! every scenario run takes. [`ChunkManifest`] records which chunks of
//! such a run have completed; the campaign layer keeps one over its
//! cell axis to resume a killed sweep.
//!
//! Worker count resolution (see [`resolve_threads`]): an explicit
//! per-call override beats the `SEGSCOPE_THREADS` environment variable,
//! which beats `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};

mod checkpoint;

pub use checkpoint::ChunkManifest;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "SEGSCOPE_THREADS";

/// Base task index reserved for auxiliary seed streams.
///
/// Experiments that need extra deterministic randomness beyond their
/// per-trial seeds (cross-validation splits, model initialization, ...)
/// derive it as `derive_seed(experiment_seed, AUX_STREAM + k)`. No real
/// trial count reaches 2^48 tasks, so auxiliary streams can never
/// collide with trial seeds.
pub const AUX_STREAM: u64 = 1 << 48;

/// Derives the seed for task `task_index` of an experiment seeded with
/// `experiment_seed`.
///
/// SplitMix64-style finalizer over both inputs: adjacent experiment
/// seeds or task indices yield statistically unrelated streams, unlike
/// the `seed + i` / `seed ^ const` patterns this replaces (which
/// collide across experiments — experiment `s` task 1 equals
/// experiment `s+1` task 0).
#[must_use]
pub fn derive_seed(experiment_seed: u64, task_index: u64) -> u64 {
    let mut z = experiment_seed
        .rotate_left(25)
        .wrapping_add(task_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves the worker count: `explicit` override, then
/// [`THREADS_ENV`], then the machine's available parallelism.
#[must_use]
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many tasks a worker claims per queue operation: small enough to
/// balance uneven task costs, large enough to amortize the atomic.
fn chunk_size(tasks: usize, threads: usize) -> usize {
    (tasks / (threads * 4)).max(1)
}

/// Runs `task(i)` for `i in 0..tasks` on `threads` workers and returns
/// the results in task order.
///
/// The output is bit-identical to the serial
/// `(0..tasks).map(task).collect()` provided `task` is a pure function
/// of its index (derive per-task randomness via [`derive_seed`]).
///
/// Panics in a task propagate after all workers have stopped pulling
/// work.
pub fn parallel_map<T, F>(tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(tasks.max(1));
    if threads == 1 {
        return (0..tasks).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(tasks, threads);
    let task = &task;
    let cursor = &cursor;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= tasks {
                            return local;
                        }
                        let end = (start + chunk).min(tasks);
                        for i in start..end {
                            local.push((i, task(i)));
                        }
                    }
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        let mut panicked = None;
        for worker in workers {
            match worker.join() {
                Ok(local) => {
                    for (i, value) in local {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task index was claimed exactly once"))
            .collect()
    })
}

/// Seeded fan-out where a *chunk of consecutive trials* — not a single
/// trial — is the unit of work a worker claims: `task(start, seeds)`
/// receives the chunk's first trial index plus one derived seed per
/// trial, and returns one output per seed, in trial order.
///
/// Chunks cut queue traffic. The determinism contract is the one
/// [`parallel_map`] gives: every trial's seed is
/// `derive_seed(experiment_seed, index)` and outputs come back in trial
/// order, so results are bit-identical at any thread count *and any
/// chunk size* — provided `task` derives each trial's output from its
/// seed alone (a machine recycled across trials must replay
/// fresh-machine state exactly).
///
/// # Panics
///
/// Panics if `task` returns a different number of outputs than seeds it
/// was given.
pub fn parallel_trial_chunks<T, F>(
    experiment_seed: u64,
    trials: usize,
    threads: usize,
    chunk: usize,
    task: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[u64]) -> Vec<T> + Sync,
{
    let chunk = chunk.max(1);
    let chunks = trials.div_ceil(chunk);
    let ran = parallel_map(chunks, threads, |c| {
        let start = c * chunk;
        let end = (start + chunk).min(trials);
        let seeds: Vec<u64> = (start..end)
            .map(|i| derive_seed(experiment_seed, i as u64))
            .collect();
        let values = task(start, &seeds);
        assert_eq!(
            values.len(),
            seeds.len(),
            "chunk task must return one output per trial"
        );
        values
    });
    ran.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(1000, threads, |i| i * 3);
            assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_tiny_fan_outs_work() {
        assert_eq!(parallel_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 8, |i| i + 7), vec![7]);
        assert_eq!(parallel_map(3, 1, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn derived_seeds_do_not_collide_across_adjacent_experiments() {
        // The ad-hoc `seed + i` pattern this replaces has
        // derive(s, 1) == derive(s + 1, 0); the mixer must not.
        for s in 0..64u64 {
            for i in 0..64u64 {
                assert_ne!(derive_seed(s, i + 1), derive_seed(s + 1, i));
            }
        }
    }

    #[test]
    fn derived_seeds_are_unique_within_an_experiment() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(0xE5EED, i)));
        }
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn chunked_trials_match_a_serial_loop_at_any_geometry() {
        let reference: Vec<(usize, u64)> = (0..103)
            .map(|i| (i, derive_seed(0xBA7C, i as u64)))
            .collect();
        for threads in [1, 2, 4, 8] {
            for chunk in [1, 4, 17, 64, 200] {
                let out = parallel_trial_chunks(0xBA7C, 103, threads, chunk, |start, seeds| {
                    seeds
                        .iter()
                        .enumerate()
                        .map(|(k, &seed)| (start + k, seed))
                        .collect()
                });
                assert_eq!(out, reference, "threads {threads} chunk {chunk}");
            }
        }
    }

    #[test]
    fn chunked_trials_handle_empty_fan_out() {
        let out = parallel_trial_chunks(0x0, 0, 4, 8, |_, seeds| seeds.to_vec());
        assert_eq!(out, Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "one output per trial")]
    fn chunk_arity_mismatch_panics() {
        let _ = parallel_trial_chunks(0x1, 8, 1, 4, |_, _| vec![0u64]);
    }

    #[test]
    #[should_panic(expected = "task 7 exploded")]
    fn worker_panics_propagate() {
        let _ = parallel_map(16, 4, |i| {
            assert!(i != 7, "task 7 exploded");
            i
        });
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let reference = parallel_map(257, 1, |i| derive_seed(42, i as u64));
        for threads in [2, 3, 4, 8, 16] {
            assert_eq!(
                parallel_map(257, threads, |i| derive_seed(42, i as u64)),
                reference
            );
        }
    }
}
