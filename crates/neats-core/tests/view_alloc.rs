//! Asserts, via a counting global allocator, that the read path performs no
//! heap allocation at all: not `ArchiveView::parse` (what the store runs on
//! every cache miss of an already-verified segment), not
//! `ArchiveView::open` (parse + verify), for either flavor and either rank
//! mode, whatever the archive size — the kind table, parameter arrays and
//! wavelet levels are held inline — and not a point query or an aggregate
//! estimate through the view.
//!
//! The handles (`NeaTSCompressed`, `NeaTSLossy`) are that view plus their own
//! copy of the frame, so the same holds for them with one exception, stated
//! exactly: `from_bytes` makes one allocation, of the frame's size plus the
//! `Arc` header. `Clone`, `get` / `approximate`, a scan into a reserved
//! `Vec` and an aggregate estimate make none.

use neats_core::{ArchiveView, Kind, NeaTS, NeaTSCompressed, NeaTSLossy, RankMode};
use test_support::{measure, CountingAlloc};
use timeseries::{CompressedSeries, TimeSeries};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let (allocs, out) = measure(f);
    (allocs.bytes, out)
}

/// A handle costs one allocation to load — the frame plus the two reference
/// counts of an `Arc` (and padding to their alignment) — and none to clone
/// or query. `load` is its `from_bytes`; `query` clones it, reads points,
/// scans half the series into the reserved `window` and takes an estimate.
fn assert_handle_allocations<H>(
    name: &str,
    frame: &[u8],
    load: impl FnOnce(&[u8]) -> H,
    query: impl FnOnce(&H, &mut Vec<i64>) -> usize,
) {
    let (allocs, handle) = measure(|| load(frame));
    let (calls, bytes) = (allocs.calls, allocs.bytes);
    assert_eq!(calls, 1, "{name}: from_bytes made {calls} allocations");
    assert!(
        (frame.len() + 16..=frame.len() + 24).contains(&bytes),
        "{name}: from_bytes allocated {bytes} bytes for a {} byte frame",
        frame.len()
    );
    let mut window = Vec::with_capacity(1 << 16);
    let (alloc_q, scanned) = allocated_during(|| query(&handle, &mut window));
    assert_eq!(alloc_q, 0, "{name}: clone + point + scan + estimate allocated {alloc_q} bytes");
    assert_eq!(window.len(), scanned);
}

fn series(n: usize) -> TimeSeries {
    let mut v = 0i64;
    TimeSeries::from_values((0..n as i64).map(|k| { v += (k * 37 % 23) - 11; v }).collect())
}

fn archive(n: usize) -> Vec<u8> {
    // A cheap pool keeps compression fast; the layout exercised by `open`
    // (every section type) is identical to the default pool's.
    NeaTS::builder().kinds(&[Kind::Linear, Kind::Quadratic]).epsilons(&[0, 4, 32]).build(&series(n)).to_bytes()
}

#[test]
fn parse_and_open_never_allocate() {
    let small = archive(4_000);
    let large = archive(64_000);
    assert!(
        large.len() > small.len() * 4,
        "archives must differ in size for the test to mean anything ({} vs {})",
        large.len(),
        small.len()
    );
    // The full kind pool (the widest kind table and wavelet matrix), the
    // bitvector start index, and a lossy archive: every parser branch.
    let all_kinds = NeaTS::builder().kinds(&Kind::ALL).build(&series(6_000)).to_bytes();
    let bitvector = NeaTS::builder().rank_mode(RankMode::BitVector).build(&series(3_000)).to_bytes();
    let lossy = NeaTS::builder().build_lossy(&series(6_000), 12).to_bytes();

    for (name, bytes) in [
        ("small", &small),
        ("large", &large),
        ("all kinds", &all_kinds),
        ("bitvector starts", &bitvector),
        ("lossy", &lossy),
    ] {
        let (alloc_parse, parsed) = allocated_during(|| ArchiveView::parse(bytes).unwrap());
        assert_eq!(alloc_parse, 0, "{name}: parse allocated {alloc_parse} bytes");
        let (alloc_verify, verdict) = allocated_during(|| parsed.verify());
        verdict.unwrap();
        assert_eq!(alloc_verify, 0, "{name}: verify allocated {alloc_verify} bytes");
        let (alloc_open, opened) = allocated_during(|| ArchiveView::open(bytes).unwrap());
        assert_eq!(alloc_open, 0, "{name}: open allocated {alloc_open} bytes");
        assert_eq!(opened.len(), parsed.len());
    }

    // Point lookups and aggregate estimates through the view are
    // allocation-free.
    let view_large = ArchiveView::parse(&large).unwrap();
    let (alloc_q, _) = allocated_during(|| {
        let mut acc = 0i64;
        for k in (0..view_large.len()).step_by(997) {
            acc = acc.wrapping_add(view_large.at(k));
        }
        std::hint::black_box(acc)
    });
    assert_eq!(alloc_q, 0, "point queries allocated {alloc_q} bytes");
    let (alloc_est, _) = allocated_during(|| {
        std::hint::black_box(view_large.sum_range_estimate(100, view_large.len() - 200))
    });
    assert_eq!(alloc_est, 0, "sum estimate allocated {alloc_est} bytes");

    // The handles. (The load count also checks the measurement itself: it
    // is not zero.)
    for (name, bytes) in [("small", &small), ("large", &large), ("bitvector starts", &bitvector)] {
        assert_handle_allocations(name, bytes, |b| NeaTSCompressed::from_bytes(b).unwrap(), |handle, window| {
            let (h, n) = (handle.clone(), handle.len());
            let acc = (0..n).step_by(997).fold(0i64, |acc, k| acc.wrapping_add(h.get(k)));
            h.view().scan_range(n / 4, n / 2, window);
            std::hint::black_box((acc, h.view().sum_range_estimate(100, n - 200)));
            n / 2
        });
    }
    assert_handle_allocations("lossy", &lossy, |b| NeaTSLossy::from_bytes(b).unwrap(), |handle, window| {
        let (h, n) = (handle.clone(), handle.len());
        let acc = (0..n).step_by(997).fold(0i64, |acc, k| acc.wrapping_add(h.approximate(k)));
        h.view().scan_range(n / 4, n / 2, window);
        std::hint::black_box((acc, h.view().sum_range_estimate(100, n - 200)));
        n / 2
    });
}
