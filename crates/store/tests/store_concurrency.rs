//! Concurrency stress test: N scoped reader threads hammer one `Store` with
//! a deterministic pseudo-random mix of point / range / time / aggregate
//! queries, every answer checked against a precomputed oracle. The cache
//! capacity is kept small so eviction churns constantly under contention.
//!
//! Also here: the races around a segment's *first touch*. The store verifies
//! a segment once and re-parses it on later cache misses, so the state flip
//! "unverified → verified / quarantined" is shared by every reader; threads
//! released together onto one cold segment must never get an answer out of
//! a view nobody verified.

use neats_core::{ArchiveView, NeaTS};
use neats_store::{Store, StoreConfig, StoreError, StoreMode, StoreOptions, StoreWriter};
use std::collections::HashMap;
use std::sync::Barrier;
use timeseries::TimeSeries;

/// Points per segment of the test pack.
const SEG: usize = 256;

/// One series' oracle: stamps, the values the store must serve, and a
/// stamp → index map for `at_time` probes.
struct Oracle {
    stamps: Vec<u64>,
    values: Vec<i64>,
    by_stamp: HashMap<u64, usize>,
}

/// Builds a three-series pack (two lossless, one lossy) plus the oracles.
/// Lossy oracle values come from per-segment standalone archives — the
/// differential suite's ground truth — so this test is pure concurrency.
fn build() -> (Vec<u8>, Vec<(String, Oracle)>) {
    const N: usize = 4000;
    let mk = |seed: u64, f: fn(i64, i64) -> i64| -> (Vec<u64>, Vec<i64>) {
        let mut t = 1_700_000_000u64;
        let mut acc = 0i64;
        let mut stamps = Vec::with_capacity(N);
        let mut values = Vec::with_capacity(N);
        let mut x = seed;
        for k in 0..N as i64 {
            x = x
                .wrapping_mul(0xD129_0247_3F89_4E1D)
                .wrapping_add(0x9E37_79B9);
            t += 1 + (x >> 58);
            acc += ((x >> 33) as i64 % 21) - 10;
            stamps.push(t);
            values.push(f(k, acc));
        }
        (stamps, values)
    };
    let (s1, v1) = mk(1, |k, acc| acc + k * k / 700);
    let (s2, v2) = mk(2, |k, acc| 3 * acc - k / 3);
    let (s3, v3) = mk(3, |k, acc| acc + (k % 97) * 5);

    let lossless_cfg = StoreConfig {
        segment_points: SEG,
        ..StoreConfig::default()
    };
    let mut w = StoreWriter::new(lossless_cfg);
    w.ingest("walk", &s1, &v1).unwrap();
    w.ingest("trend", &s2, &v2).unwrap();
    let pack = w.finish().unwrap();
    let lossy_cfg = StoreConfig {
        segment_points: SEG,
        mode: StoreMode::Lossy { eps: 16 },
        ..StoreConfig::default()
    };
    let mut w = StoreWriter::append_to(&pack, lossy_cfg).unwrap();
    w.ingest("approx", &s3, &v3).unwrap();
    let pack = w.finish().unwrap();

    // Lossy oracle: reconstruct per standalone segment archive.
    let builder = NeaTS::builder().threads(1);
    let mut v3_served = Vec::with_capacity(N);
    for start in (0..N).step_by(SEG) {
        let end = (start + SEG).min(N);
        let l = builder.build_lossy(&TimeSeries::from_values(v3[start..end].to_vec()), 16);
        v3_served.extend(l.reconstruct());
    }

    let oracle = |stamps: Vec<u64>, values: Vec<i64>| {
        let by_stamp = stamps.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        Oracle {
            stamps,
            values,
            by_stamp,
        }
    };
    let oracles = vec![
        ("walk".to_string(), oracle(s1, v1)),
        ("trend".to_string(), oracle(s2, v2)),
        ("approx".to_string(), oracle(s3, v3_served)),
    ];
    (pack, oracles)
}

/// Runs `ops` mixed queries on `store` from one thread, all checked.
fn hammer(store: &Store, oracles: &[(String, Oracle)], thread_id: u64, ops: usize) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (thread_id.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut rng = move || {
        x = x
            .wrapping_mul(0xD129_0247_3F89_4E1D)
            .wrapping_add(0x9E37_79B9);
        x
    };
    let mut range_buf = Vec::new();
    let mut time_buf = Vec::new();
    for op in 0..ops {
        let (name, o) = &oracles[(rng() % oracles.len() as u64) as usize];
        let n = o.values.len();
        let a = (rng() % n as u64) as usize;
        let len = (rng() % 600).min((n - a) as u64) as usize;
        match rng() % 4 {
            0 => {
                assert_eq!(
                    store.get(name, a).unwrap(),
                    o.values[a],
                    "get({name}, {a}) op {op}"
                );
            }
            1 => {
                range_buf.clear();
                store.range(name, a..a + len, &mut range_buf).unwrap();
                assert_eq!(
                    range_buf,
                    &o.values[a..a + len],
                    "range({name}, {a}..+{len})"
                );
            }
            2 => {
                // Probe a stored stamp, then a neighbour (usually a gap).
                let t = o.stamps[a];
                assert_eq!(
                    store.at_time(name, t).unwrap(),
                    Some(o.values[a]),
                    "at_time hit"
                );
                let probe = t + 1 + rng() % 3;
                let want = o.by_stamp.get(&probe).map(|&i| o.values[i]);
                assert_eq!(store.at_time(name, probe).unwrap(), want, "at_time probe");
            }
            _ => {
                let b = (a + len).min(n - 1);
                let (t_lo, t_hi) = (o.stamps[a], o.stamps[b]);
                time_buf.clear();
                store
                    .range_by_time_chunks(name, t_lo, t_hi, |c| time_buf.extend_from_slice(c))
                    .unwrap();
                let want: Vec<(u64, i64)> = o
                    .stamps
                    .iter()
                    .zip(&o.values)
                    .skip(a)
                    .take(b - a + 1)
                    .map(|(&t, &v)| (t, v))
                    .collect();
                assert_eq!(time_buf, want, "range_by_time({name})");
            }
        }
    }
}

#[test]
fn concurrent_readers_agree_with_oracle() {
    let (pack, oracles) = build();
    // Capacity far below the segment count (3 series × ~16 segments), so
    // the LRU evicts constantly while threads race on it.
    let store = Store::open_with(
        pack,
        StoreOptions {
            cache_capacity: 8,
        },
    )
    .unwrap();

    for threads in [2usize, 4, 8] {
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let store = &store;
                let oracles = &oracles;
                scope.spawn(move || hammer(store, oracles, tid as u64 + 1, 400));
            }
        });
    }

    let stats = store.cache_stats();
    assert!(
        stats.hits + stats.misses > 0,
        "queries must have touched the cache"
    );
    assert!(stats.misses > 0, "eviction churn expected at capacity 8");
    assert!(
        stats.entries <= 8,
        "cache must respect its capacity, got {}",
        stats.entries
    );
}

#[test]
fn single_thread_matches_multi_thread_cache_or_not() {
    // The same workload with caching disabled must give identical answers —
    // the cache is purely an optimisation.
    let (pack, oracles) = build();
    let cached = Store::open(pack.clone()).unwrap();
    let cold = Store::open_with(
        pack,
        StoreOptions {
            cache_capacity: 0,
        },
    )
    .unwrap();
    hammer(&cached, &oracles, 42, 250);
    hammer(&cold, &oracles, 42, 250);
    assert_eq!(cold.cache_stats().entries, 0);
    assert!(cached.cache_stats().hits > 0);
}

/// Byte range of the `k`-th value frame in `pack`'s data region. Frames
/// are found by their magic; the length comes from the frame head (magic,
/// version, flavor byte, section count, 16 bytes per section, payload
/// length, CRC — `neats-core`'s `serial.rs`).
fn frame_range(pack: &[u8], k: usize) -> std::ops::Range<usize> {
    let start = pack
        .windows(8)
        .enumerate()
        .filter(|(_, w)| w == b"NeaTSFRM")
        .map(|(i, _)| i)
        .nth(k)
        .expect("frame k");
    let word = |at: usize| u64::from_le_bytes(pack[at..at + 8].try_into().unwrap()) as usize;
    let payload_len_at = start + 25 + 16 * word(start + 17);
    start..payload_len_at + 16 + word(payload_len_at)
}

/// Caching off, so every lookup is a miss and goes through the
/// verified-or-not decision.
fn uncached(pack: Vec<u8>) -> Store {
    Store::open_with(
        pack,
        StoreOptions {
            cache_capacity: 0,
        },
    )
    .unwrap()
}

#[test]
fn racing_first_touch_of_a_good_segment_verifies_then_only_parses() {
    const THREADS: usize = 8;
    let (pack, oracles) = build();
    let (name, o) = &oracles[0];
    for round in 0..20 {
        let store = uncached(pack.clone());
        let barrier = Barrier::new(THREADS);
        // All threads hit one (full) segment of one series at once.
        let base = round % (o.values.len() / SEG) * SEG;
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for k in 0..32 {
                        let idx = base + (tid * 32 + k) % SEG;
                        assert_eq!(store.get(name, idx).unwrap(), o.values[idx], "get({idx})");
                    }
                });
            }
        });
        // Racing first touches may each have verified, but no more than one
        // per thread, and once the segment is verified nobody does again.
        let verified = store.segment_verifications();
        assert!(
            (1..=THREADS as u64).contains(&verified),
            "round {round}: {verified}"
        );
        for idx in base..base + SEG {
            assert_eq!(store.get(name, idx).unwrap(), o.values[idx]);
        }
        assert_eq!(store.segment_verifications(), verified, "round {round}");
        assert_eq!(store.cache_stats().misses, (THREADS * 32 + SEG) as u64);
        assert_eq!(store.quarantined_count(), 0);
    }
}

#[test]
fn racing_first_touch_of_a_corrupt_segment_quarantines_exactly_once() {
    const THREADS: usize = 8;
    let (mut pack, oracles) = build();
    // Corrupt a byte of one value frame that the O(sections) parse cannot
    // see — only the verification (CRC) can — so a thread that skipped
    // verification would hand back an answer instead of an error.
    let frame = frame_range(&pack, 19);
    let bad_off = (frame.start + frame.len() / 2..frame.end)
        .find(|&pos| {
            let mut bad = pack[frame.clone()].to_vec();
            bad[pos - frame.start] ^= 0x10;
            ArchiveView::parse(&bad).is_ok() && ArchiveView::open(&bad).is_err()
        })
        .expect("a payload byte past the frame's midpoint");
    pack[bad_off] ^= 0x10;
    // Which segment that was: the one whose first point a sequential probe
    // gets back as a quarantine; every other segment answers.
    let (name, bad_seg) = {
        let probe = Store::open(pack.clone()).unwrap();
        let mut bad = Vec::new();
        for (name, o) in &oracles {
            for idx in (0..o.values.len()).step_by(SEG) {
                match probe.get(name, idx) {
                    Err(StoreError::Quarantined { series, segment }) => bad.push((series, segment)),
                    got => assert_eq!(got.unwrap(), o.values[idx], "get({name}, {idx})"),
                }
            }
        }
        assert_eq!(bad.len(), 1, "one flipped byte, one bad segment: {bad:?}");
        assert_eq!(probe.quarantined_count(), 1);
        bad.pop().unwrap()
    };
    let o = &oracles.iter().find(|(n, _)| *n == name).unwrap().1;
    let first = bad_seg * SEG;
    let neighbour = if first == 0 { SEG } else { first - SEG };
    let name = &name;
    let quarantined = Err(StoreError::Quarantined {
        series: name.clone(),
        segment: bad_seg,
    });

    for round in 0..20 {
        let store = uncached(pack.clone());
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let (store, barrier, quarantined) = (&store, &barrier, &quarantined);
                scope.spawn(move || {
                    barrier.wait();
                    for k in 0..16 {
                        let got = store.get(name, first + tid * 16 + k);
                        assert_eq!(&got, quarantined, "round {round}: unverified answer?");
                    }
                    // The neighbours keep serving throughout.
                    let ok = neighbour + tid;
                    assert_eq!(store.get(name, ok).unwrap(), o.values[ok]);
                });
            }
        });
        assert_eq!(
            store.quarantined_count(),
            1,
            "round {round}: one quarantine per segment"
        );
        // Every racer that got as far as verifying the bad segment failed
        // it; the good neighbour was verified at least once.
        let verified = store.segment_verifications();
        assert!(
            (2..=2 * THREADS as u64).contains(&verified),
            "round {round}: {verified}"
        );

        // Sticky: a later touch fails fast, with no second verification
        // and no second quarantine.
        assert_eq!(store.get(name, first), quarantined);
        assert_eq!(store.segment_verifications(), verified);
        assert_eq!(store.quarantined_count(), 1);
    }
}
