//! A std-only scoped fork/join pool for the parallel fleet engine.
//!
//! [`run_scoped`] executes a batch of independent jobs on up to
//! `threads` worker threads and returns their results **in job order**,
//! regardless of which worker ran which job or in what order they
//! finished. Workers claim job indices from a shared atomic cursor, so
//! the assignment of jobs to threads is racy — but because every job is
//! independent and results are folded back by index, the output is
//! deterministic. Built on [`std::thread::scope`] so jobs may borrow
//! from the caller's stack; no channels, no `unsafe`, no crates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `jobs` on up to `threads` OS threads and collect the results in
/// job order. `threads <= 1` (or a single job) runs everything inline
/// on the calling thread — the parallel and inline paths produce
/// identical output by construction.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn run_scoped<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let out = job();
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("job produced no result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger finish order so late jobs finish first.
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * 3
                }
            })
            .collect();
        let out = run_scoped(4, jobs);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..4)
            .map(|_| move || std::thread::current().id() == caller)
            .collect();
        assert!(run_scoped(1, jobs).into_iter().all(|on_caller| on_caller));
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_scoped(16, jobs), vec![0, 1, 2]);
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        let jobs: Vec<fn() -> u8> = Vec::new();
        assert!(run_scoped(8, jobs).is_empty());
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let base = [10u64, 20, 30, 40];
        let jobs: Vec<_> = base.iter().map(|v| move || v + 1).collect();
        assert_eq!(run_scoped(2, jobs), vec![11, 21, 31, 41]);
    }
}
