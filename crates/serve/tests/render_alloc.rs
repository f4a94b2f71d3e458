//! Asserts that a range request in steady state performs zero heap
//! allocation between the parsed request and the rendered response — the
//! decode buffers and the body are the worker's [`Scratch`], lent to the
//! handler and handed back with [`Scratch::reclaim`] — and that what the
//! worker retains is bounded by [`SCRATCH_RETAIN_BYTES`]. Counted by the
//! workspace's one counting global allocator (`test_support`).

use neats_serve::{Method, Request, Scratch, ServeConfig, Server, SCRATCH_RETAIN_BYTES};
use neats_store::{Store, StoreConfig, StoreWriter, DEFAULT_SEGMENT_POINTS};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let (allocs, out) = measure(f);
    (allocs.bytes, out)
}

const POINTS: usize = 5 * DEFAULT_SEGMENT_POINTS;
const T0: u64 = 1_700_000_000_000;
const STEP: u64 = 250;

fn get(query: String) -> Request {
    Request {
        method: Method::Get,
        path: "/q/big".into(),
        query,
        keep_alive: true,
        body: Vec::new(),
        wire_bytes: 0,
    }
}

#[test]
fn range_requests_are_allocation_free_and_scratch_is_bounded() {
    // 13-digit stamps and values: long lines, so a full scan by time
    // outgrows the retention bound while one segment's worth stays under it.
    let stamps: Vec<u64> = (0..POINTS as u64).map(|k| T0 + k * STEP).collect();
    let values: Vec<i64> = (0..POINTS as i64)
        .map(|k| 1_000_000_000_000 + k * k % 1000)
        .collect();
    let mut w = StoreWriter::new(StoreConfig::default());
    w.ingest("big", &stamps, &values).unwrap();
    let store = Store::open(w.finish().unwrap()).unwrap();
    let server = Server::bind(store, "127.0.0.1:0", ServeConfig::default()).unwrap();

    // Unaligned, so each crosses a segment boundary.
    let n = DEFAULT_SEGMENT_POINTS;
    let by_index = get(format!("idx=100..{}", 100 + n));
    let by_time = get(format!(
        "t={}..{}",
        T0 + 100 * STEP,
        T0 + (99 + n as u64) * STEP
    ));
    let batch = Request {
        method: Method::Post,
        path: "/q".into(),
        body: (0..16)
            .map(|k| match k % 4 {
                0 => format!("big idx={}..{}\n", k * 2000, k * 2000 + 64),
                1 => format!(
                    "big t={}..{}\n",
                    T0 + k * 2000 * STEP,
                    T0 + (k * 2000 + 64) * STEP
                ),
                2 => format!("big idx={}\n", k * 2000),
                _ => format!("big t={}\n", T0 + k * 2000 * STEP),
            })
            .collect::<String>()
            .into_bytes(),
        ..get(String::new())
    };
    let one_value = get("idx=7".into());
    let requests = [&by_index, &by_time, &batch];

    let mut scratch = Scratch::new();
    let serve = |req: &Request, scratch: &mut Scratch| -> usize {
        let resp = server.answer(req, scratch);
        assert_eq!(resp.status, 200);
        let len = resp.body.len();
        scratch.reclaim(resp);
        len
    };

    // Warm-up: opens and caches the segments, grows the scratch, touches
    // the lazily initialised thread-locals of the request trace.
    let warm: Vec<usize> = requests
        .iter()
        .map(|req| serve(req, &mut scratch))
        .collect();
    assert_eq!(warm[0], n * 14, "13 digits and a newline per value");
    assert_eq!(
        warm[1],
        n * 28,
        "13 + 13 digits, a comma and a newline per pair"
    );
    let retained = scratch.retained_bytes();
    assert!(
        retained >= warm[1] && retained <= SCRATCH_RETAIN_BYTES,
        "{retained}"
    );

    // Steady state: the same requests again, through the same scratch.
    let (bytes, lens) = allocated_during(|| {
        let mut lens = [0usize; 3];
        for _ in 0..3 {
            for (len, req) in lens.iter_mut().zip(requests) {
                *len = serve(req, &mut scratch);
            }
        }
        lens
    });
    assert_eq!(
        bytes, 0,
        "steady-state range requests allocated {bytes} bytes"
    );
    assert_eq!(lens.as_slice(), warm);

    // A small request in between neither trims the scratch nor makes the
    // next large one grow it back.
    let (bytes, _) = allocated_during(|| {
        assert_eq!(serve(&one_value, &mut scratch), 14);
        serve(&by_time, &mut scratch)
    });
    assert_eq!(
        bytes, 0,
        "a point request between two ranges allocated {bytes} bytes"
    );
    assert_eq!(scratch.retained_bytes(), retained);

    // A scan of the whole series renders a body past the bound; what the
    // worker keeps afterwards is back under it.
    let scan = serve(&get(format!("t=0..{}", u64::MAX)), &mut scratch);
    assert_eq!(scan, POINTS * 28);
    assert!(
        scan > SCRATCH_RETAIN_BYTES,
        "the scan must outgrow the bound to test it"
    );
    assert!(scratch.retained_bytes() <= SCRATCH_RETAIN_BYTES);
}
