//! Asserts, via a counting global allocator, that building allocates per
//! *pair*, not per *fragment*: `partition()` keeps one fitter per `(f, ε)`
//! pair, whose two hull buffers it reuses across every fragment of the
//! pair's greedy tiling, and one more for the backtrack's refits. On a noisy
//! series stage 1 grows over a hundred thousand fragments; allocating two
//! hull vectors for each of them (as a fresh fitter per fragment does) would
//! show up here as at least twice that many calls.

use neats_core::partition::{partition, PartitionConfig};
use neats_core::{default_epsilons, positivity_shift, Kind};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use timeseries::TimeSeries;

/// Counts every call that hands out memory (frees are irrelevant here).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

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
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// The only test in this file: the counter is process-wide.
#[test]
fn partition_allocates_per_pair_not_per_fragment() {
    const N: usize = 8192;
    let mut rng = StdRng::seed_from_u64(19);
    let mut v = 0i64;
    let values: Vec<i64> = (0..N).map(|_| { v += rng.random_range(-40..41); v }).collect();
    let ts = TimeSeries::from_values(values);

    // What `NeaTS::compress` runs: four kinds × the automatic ladder.
    let epsilons = default_epsilons(ts.delta());
    let shift = positivity_shift(ts.values(), *epsilons.last().unwrap());
    let config = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &epsilons, shift).with_threads(1);
    let pairs = config.pairs.len();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.set(true);
    let part = partition(ts.values(), &config);
    MEASURING.set(false);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(part.fragments.last().map(|f| f.end), Some(N));

    // Per pair: the span list (⌈log₂ N⌉ doublings at most) and two hull
    // buffers (a hull of a noisy fragment holds a handful of points; a few
    // doublings each). Per call: the f64 view, the sweep's arrays, the
    // backtrack's fitter and the result — a few dozen, whatever N is.
    let bound = pairs * (N.ilog2() as usize + 8) + 64;
    println!("{calls} allocations, {pairs} pairs, bound {bound}");
    // Only this thread is counted: one worker thread keeps the build on it.
    assert!(calls >= pairs, "{calls} allocations for {pairs} pairs: the window missed the build");
    assert!(
        calls <= bound,
        "{calls} allocations for {pairs} pairs over {N} points (bound {bound}): \
         the build path allocates per fragment again"
    );
}
