//! # test-support — the workspace's shared test kit
//!
//! A dev-dependency only; nothing here ships in a product crate.
//!
//! * [`CountingAlloc`] + [`measure`] — the one counting global allocator
//!   behind every "this path does not allocate" suite. A test binary
//!   installs it as its global allocator and wraps the code under test in
//!   [`measure`]. Counting is armed per thread, so only what the measuring
//!   thread allocates inside the window counts: libtest's threads,
//!   concurrently running tests and workers the code spawns never bleed
//!   into a measurement.
//! * [`FailpointFile`] — the in-memory crash-consistency file model of the
//!   ingest fault matrix.
//!
//! ```
//! use test_support::{measure, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let (allocs, v) = measure(|| Vec::<u64>::with_capacity(4));
//!     assert_eq!((allocs.calls, allocs.bytes), (1, 32));
//!     let (allocs, _) = measure(|| v.len());
//!     assert_eq!(allocs.calls, 0);
//! }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod failpoint;

pub use failpoint::FailpointFile;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A global allocator that forwards to [`System`] and counts, on a thread
/// inside a [`measure`] window, every call that hands out memory.
pub struct CountingAlloc;

thread_local! {
    // `const`-initialised and without destructors: touching them from the
    // allocator never allocates, and never fails during thread teardown.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if MEASURING.get() {
        CALLS.set(CALLS.get() + 1);
        BYTES.set(BYTES.get() + bytes);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's obligations under the `GlobalAlloc` contract are `System`'s, and
// every pointer handed out or taken back is one `System` allocated. The
// counting beside it touches only `const` thread-locals, which neither
// allocate nor unwind.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded unchanged; `ptr` came from `System` (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one thread allocated inside a [`measure`] window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocations {
    /// Calls that handed out memory (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: usize,
    /// Bytes handed out; a `realloc` counts only its growth.
    pub bytes: usize,
}

/// Runs `f` and returns what it allocated on the calling thread (all zero
/// unless the binary's global allocator is [`CountingAlloc`]).
pub fn measure<R>(f: impl FnOnce() -> R) -> (Allocations, R) {
    let (calls, bytes) = (CALLS.get(), BYTES.get());
    let outer = MEASURING.replace(true);
    let out = f();
    MEASURING.set(outer);
    let allocs = Allocations {
        calls: CALLS.get() - calls,
        bytes: BYTES.get() - bytes,
    };
    (allocs, out)
}
