//! Minimal scoped-thread building blocks shared by the parallel stages.
//!
//! Instead of a rayon dependency this module keeps one small std-only
//! primitive, [`parallel_map_indexed`]: the work-stealing fan-out used by
//! the two-stage partitioner and the store writer. Tasks are pulled from an
//! atomic counter (cheap dynamic load balancing — the per-pair greedy
//! tilings the partitioner fans out have very uneven costs) and results are
//! re-ordered by task index, so the output is deterministic regardless of
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a thread-count request: an explicit nonzero `threads` wins,
/// otherwise the `NEATS_THREADS` environment variable, otherwise
/// [`std::thread::available_parallelism`].
pub fn effective_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Some(n) = std::env::var("NEATS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over task indices `0..n` on up to `threads` scoped threads and
/// returns the results in task order.
///
/// Falls back to a plain serial loop when one thread suffices (`threads ≤ 1`
/// or fewer than two tasks), so small inputs pay no spawn overhead.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });
    // Scatter the per-thread batches back into task order.
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in &mut parts {
        for (i, t) in part.drain(..) {
            debug_assert!(out[i].is_none(), "task {i} computed twice");
            out[i] = Some(t);
        }
    }
    out.into_iter()
        .map(|o| o.expect("every task claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| i * i + 1;
        let serial: Vec<usize> = (0..100).map(f).collect();
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(
                parallel_map_indexed(100, threads, f),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn handles_empty_and_tiny() {
        assert_eq!(parallel_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(parallel_map_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_task_costs_keep_order() {
        // Tasks with wildly different costs must still come back in order.
        let out = parallel_map_indexed(50, 4, |i| {
            let mut acc = 0u64;
            for k in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn effective_threads_explicit_wins() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
