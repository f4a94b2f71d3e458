//! Self-test of the shared counting allocator: a window counts what its own
//! thread allocates, and nothing another thread allocates meanwhile.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use test_support::{measure, Allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn allocations_on_the_measuring_thread_count() {
    let (allocs, v) = measure(|| black_box(Vec::<u8>::with_capacity(100)));
    assert_eq!(allocs, Allocations { calls: 1, bytes: 100 });

    // A realloc counts as one call, for its growth only.
    let (allocs, v) = measure(|| {
        let mut v = v;
        v.reserve_exact(300);
        black_box(v)
    });
    assert_eq!(allocs.calls, 1);
    assert!(allocs.bytes >= 200, "{allocs:?}");

    // Nothing allocated, nothing counted.
    let (allocs, _) = measure(|| black_box(v.len()));
    assert_eq!(allocs, Allocations::default());

    // A nested window does not end the outer one.
    let (outer, _) = measure(|| {
        let (inner, a) = measure(|| black_box(vec![1u8; 8]));
        assert_eq!(inner, Allocations { calls: 1, bytes: 8 });
        let b = black_box(vec![2u8; 16]);
        (a, b)
    });
    assert_eq!(outer, Allocations { calls: 2, bytes: 24 });
}

#[test]
fn another_threads_allocations_do_not_count() {
    let stop = AtomicBool::new(false);
    let rounds = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                drop(black_box(vec![0u8; 256]));
                rounds.fetch_add(1, Ordering::Relaxed);
            }
        });
        while rounds.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        // The window spans a thousand of the other thread's allocations and
        // makes none of its own.
        let (allocs, seen) = measure(|| {
            let start = rounds.load(Ordering::Relaxed);
            while rounds.load(Ordering::Relaxed) < start + 1_000 {
                std::hint::spin_loop();
            }
            rounds.load(Ordering::Relaxed) - start
        });
        stop.store(true, Ordering::Relaxed);
        assert!(seen >= 1_000);
        assert_eq!(allocs, Allocations::default(), "another thread's allocations were counted");
    });
}
