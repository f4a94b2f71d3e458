//! Asserts the acceptance criterion that the per-request observability
//! hot path — stage spans and [`neats_core::TraceRing::record`] — performs
//! zero heap allocation, via the same counting global allocator as
//! `view_alloc.rs`. Construction allocates the fixed ring once; recording
//! into it must never allocate again, no matter how many requests pass.

use neats_core::obs::{span_begin, span_take, stage, Stage, STAGE_COUNT};
use neats_core::{AtomicHistogram, TraceRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Armed on the measuring thread for the length of a window, so bytes
    /// that libtest's own threads allocate meanwhile are not counted.
    /// `const`-initialised and without a destructor: reading it in the
    /// allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

// One test function: the counter is process-global, so parallel test
// threads would bleed into each other's measurement windows.
#[test]
fn per_request_observability_is_allocation_free() {
    let ring = TraceRing::new(64);
    let hist = AtomicHistogram::new();

    // Warm up once (first span/ring touch, lazy thread-local init).
    span_begin();
    {
        let _g = stage(Stage::Parse);
    }
    let warm = span_take().unwrap_or([0; STAGE_COUNT]);
    ring.record("/warmup", 200, 1, false, &warm);
    hist.record(1);

    // The steady-state request loop: span begin → nested stage guards →
    // span close-out → histogram + ring record. More requests than the
    // ring holds, so wrap-around is covered too.
    let (bytes, _) = allocated_during(|| {
        for k in 0..1_000u64 {
            span_begin();
            {
                let _p = stage(Stage::Parse);
            }
            {
                let _r = stage(Stage::Route);
                let _c = stage(Stage::Cache);
                drop(_c);
                let _d = stage(Stage::Decode);
                drop(_d);
                let _w = stage(Stage::Render);
            }
            let stage_ns = span_take().unwrap_or([0; STAGE_COUNT]);
            hist.record(stage_ns.iter().sum::<u64>().max(1));
            ring.record(
                "/q/some-series?idx=0..1000",
                200,
                k + 1,
                k % 7 == 0,
                &stage_ns,
            );
        }
    });
    assert_eq!(bytes, 0, "1000 traced requests allocated {bytes} bytes");

    // Reading the ring allocates (it clones paths out) — but only the
    // reader pays, which is the debug endpoint, not the request path.
    let entries = ring.entries();
    assert_eq!(entries.len(), 64);
    assert!(entries[0].path.starts_with("/q/some-series"));

    // A disabled ring (capacity 0) is also allocation-free to record into.
    let off = TraceRing::new(0);
    let (bytes, _) = allocated_during(|| {
        for _ in 0..100 {
            off.record("/ignored", 200, 1, false, &[0; STAGE_COUNT]);
        }
    });
    assert_eq!(bytes, 0, "disabled ring allocated {bytes} bytes");
}
