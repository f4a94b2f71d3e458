//! Asserts the acceptance criterion that the per-request observability
//! hot path — stage spans and [`neats_store::obs::TraceRing::record`] —
//! performs zero heap allocation, via the workspace's one counting global
//! allocator. Construction allocates the fixed ring once; recording into it
//! must never allocate again, no matter how many requests pass.

use neats_store::histogram::AtomicHistogram;
use neats_store::obs::{span_begin, span_take, stage, Stage, TraceRing, STAGE_COUNT};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
    let (allocs, _) = measure(|| {
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
    assert_eq!(allocs.bytes, 0, "1000 traced requests allocated {allocs:?}");

    // Reading the ring allocates (it clones paths out) — but only the
    // reader pays, which is the debug endpoint, not the request path.
    let entries = ring.entries();
    assert_eq!(entries.len(), 64);
    assert!(entries[0].path.starts_with("/q/some-series"));

    // A disabled ring (capacity 0) is also allocation-free to record into.
    let off = TraceRing::new(0);
    let (allocs, _) = measure(|| {
        for _ in 0..100 {
            off.record("/ignored", 200, 1, false, &[0; STAGE_COUNT]);
        }
    });
    assert_eq!(allocs.bytes, 0, "disabled ring allocated {allocs:?}");
}
