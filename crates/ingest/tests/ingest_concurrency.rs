//! Concurrency stress: one writer thread streams a predetermined point
//! sequence into live series — with frequent seals and flushes forcing
//! generation swaps — while 4–8 scoped reader threads hammer point / range /
//! time queries.
//!
//! The oracle is **prefix-closedness**: appends only extend a series, so
//! whatever length `L` a reader observes, every answer over `0..L` must
//! equal the predetermined sequence's prefix — regardless of how much is
//! sealed vs in the head at that instant, and across any number of
//! generation swaps mid-flight. Lengths must also be monotone per reader.

use neats_ingest::{BackgroundConfig, FsyncPolicy, IngestConfig, Ingestor};
use neats_store::{RangeScratch, StoreError};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The full predetermined life of one oracle series.
struct Plan {
    name: String,
    stamps: Vec<u64>,
    values: Vec<i64>,
}

fn plans() -> Vec<Plan> {
    let mk = |name: &str, seed: u64, n: usize| {
        let mut x = seed | 1;
        let mut rng = move || {
            x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
            x
        };
        let mut t = 1_000u64 * (seed % 7);
        let mut v = (seed % 100) as i64 - 50;
        let mut stamps = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            t += 1 + rng() % 13;
            v += (rng() % 61) as i64 - 30;
            stamps.push(t);
            values.push(v);
        }
        Plan { name: name.to_string(), stamps, values }
    };
    vec![
        mk("walk", 1, 6000),
        mk("trend", 2, 6000),
        mk("burst", 3, 6000),
    ]
}

/// Reader loop: random queries against whatever prefix is visible, every
/// answer checked against the plan. Returns the number of checked queries.
fn hammer(ing: &Ingestor, plans: &[Plan], tid: u64, stop: &AtomicBool) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ tid.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut rng = move || {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        x
    };
    let mut checked = 0u64;
    let mut last_len = vec![0usize; plans.len()];
    let mut buf = Vec::new();
    let mut tbuf = Vec::new();
    let mut scratch = RangeScratch::default();
    while !stop.load(Ordering::Relaxed) {
        let pi = (rng() % plans.len() as u64) as usize;
        let p = &plans[pi];
        // The visible prefix: may lag the writer, never exceeds the plan,
        // never shrinks from this reader's perspective.
        let n = match ing.len(&p.name) {
            Ok(n) => n,
            Err(StoreError::UnknownSeries(_)) => continue, // not created yet
            Err(e) => panic!("len({}): {e}", p.name),
        };
        assert!(n <= p.values.len(), "phantom points: {n} > plan");
        assert!(n >= last_len[pi], "length went backwards: {n} < {}", last_len[pi]);
        last_len[pi] = n;
        if n == 0 {
            continue;
        }
        let a = (rng() % n as u64) as usize;
        let len = (rng() % 500).min((n - a) as u64) as usize;
        match rng() % 4 {
            0 => {
                assert_eq!(ing.get(&p.name, a).unwrap(), p.values[a], "get({}, {a})", p.name);
            }
            1 => {
                buf.clear();
                ing.range(&p.name, a..a + len, &mut buf).unwrap();
                assert_eq!(buf, &p.values[a..a + len], "range({}, {a}..+{len})", p.name);
            }
            2 => {
                assert_eq!(ing.at_time(&p.name, p.stamps[a]).unwrap(), Some(p.values[a]));
            }
            _ => {
                // A time window fully inside the visible prefix. The upper
                // bound is exclusive-ish: stop one stamp short of the last
                // visible point so concurrent appends cannot extend it.
                if len == 0 {
                    continue;
                }
                let b = a + len - 1;
                tbuf.clear();
                ing.range_by_time_chunks_in(&mut scratch, &p.name, p.stamps[a], p.stamps[b], |c| {
                    tbuf.extend_from_slice(c)
                })
                .unwrap();
                let want: Vec<(u64, i64)> = (a..=b).map(|k| (p.stamps[k], p.values[k])).collect();
                assert_eq!(tbuf, want, "range_by_time_chunks_in({})", p.name);
            }
        }
        checked += 1;
    }
    checked
}

/// Writer loop: feed the plans in small interleaved batches with explicit
/// seal/flush churn.
fn write_everything(ing: &Ingestor, plans: &[Plan]) {
    let mut pos = vec![0usize; plans.len()];
    let mut x = 0xA5A5_5A5A_1234_5678u64;
    let mut rng = move || {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        x
    };
    loop {
        let mut progressed = false;
        for (pi, p) in plans.iter().enumerate() {
            if pos[pi] >= p.values.len() {
                continue;
            }
            progressed = true;
            let batch = (1 + rng() % 120).min((p.values.len() - pos[pi]) as u64) as usize;
            let r = pos[pi]..pos[pi] + batch;
            ing.append(&p.name, &p.stamps[r.clone()], &p.values[r]).unwrap();
            pos[pi] += batch;
        }
        if !progressed {
            break;
        }
        match rng() % 10 {
            0 | 1 => {
                ing.seal().unwrap();
            }
            2 => {
                ing.flush().unwrap();
            }
            _ => {}
        }
    }
    ing.flush().unwrap();
}

#[test]
fn readers_stay_consistent_while_ingesting() {
    let dir: PathBuf = std::env::temp_dir()
        .join(format!("neats-iconc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = IngestConfig {
        chunk_points: 256,
        seal_points: 1024,
        fsync: FsyncPolicy::Never, // throughput: this test is about memory safety
        cache_capacity: 4,         // tiny cache → constant eviction churn
        ..IngestConfig::default()
    };
    let plans = plans();
    let mut ing = Ingestor::open(&dir, cfg.clone()).unwrap();

    for readers in [4usize, 8] {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| write_everything(&ing, &plans));
            let handles: Vec<_> = (0..readers)
                .map(|tid| {
                    let (ing, plans, stop) = (&ing, &plans, &stop);
                    scope.spawn(move || hammer(ing, plans, tid as u64 + 1, stop))
                })
                .collect();
            writer.join().unwrap();
            stop.store(true, Ordering::Relaxed);
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total > 0, "readers must have checked something");
        });
        // Reset for the next round: a fresh directory, re-ingested from
        // scratch.
        if readers == 4 {
            drop(ing);
            fs::remove_dir_all(&dir).unwrap();
            ing = Ingestor::open(&dir, cfg.clone()).unwrap();
            assert_eq!(ing.total_points(), 0);
        }
    }

    // Final state equals the full plans — and survives recovery.
    drop(ing);
    let ing = Ingestor::open(&dir, cfg).unwrap();
    for p in &plans {
        assert_eq!(ing.len(&p.name).unwrap(), p.values.len());
        let mut got = Vec::new();
        ing.range(&p.name, 0..p.values.len(), &mut got).unwrap();
        assert_eq!(got, p.values, "{} after recovery", p.name);
    }
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

/// The background sealer running during reads: same prefix-closed oracle,
/// with seals triggered by the worker rather than the writer.
#[test]
fn background_sealer_during_reads() {
    let dir: PathBuf = std::env::temp_dir()
        .join(format!("neats-iconc-bg-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = IngestConfig {
        chunk_points: 128,
        seal_points: 256,
        fsync: FsyncPolicy::Never,
        ..IngestConfig::default()
    };
    let plans = &plans()[..2];
    let ing = Arc::new(Ingestor::open(&dir, cfg).unwrap());
    let handle = ing.start_background(BackgroundConfig { interval: Duration::from_millis(5), ..Default::default() });

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let w = {
            let ing = Arc::clone(&ing);
            scope.spawn(move || {
                let mut pos = 0usize;
                while pos < plans[0].values.len() {
                    let batch = 73.min(plans[0].values.len() - pos);
                    for p in plans {
                        let r = pos..pos + batch;
                        ing.append(&p.name, &p.stamps[r.clone()], &p.values[r]).unwrap();
                    }
                    pos += batch;
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|tid| {
                let (ing, stop) = (&ing, &stop);
                scope.spawn(move || hammer(ing, plans, 100 + tid, stop))
            })
            .collect();
        w.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
    handle.stop();
    assert_eq!(ing.background_errors(), 0);
    assert!(ing.epoch() > 0, "the background worker must have sealed");
    for p in plans {
        assert_eq!(ing.len(&p.name).unwrap(), p.values.len());
    }
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

/// Everything acknowledged so far reads back exactly once: the length, the
/// whole range and the whole time window equal the plan's prefix.
fn assert_prefix(ing: &Ingestor, p: &Plan, n: usize, when: &str) {
    assert_eq!(ing.len(&p.name).unwrap(), n, "{}: length {when}", p.name);
    let mut got = Vec::new();
    ing.range(&p.name, 0..n, &mut got).unwrap();
    assert_eq!(got, p.values[..n], "{}: values {when}", p.name);
    let mut pairs = Vec::new();
    ing.range_by_time_chunks_in(&mut RangeScratch::default(), &p.name, 0, u64::MAX, |c| {
        pairs.extend_from_slice(c)
    })
    .unwrap();
    let want: Vec<(u64, i64)> = p.stamps[..n].iter().copied().zip(p.values[..n].iter().copied()).collect();
    assert_eq!(pairs, want, "{}: time window {when}", p.name);
}

/// The worker cuts chunks while appends cut them too: at a 1 ms tick, odd
/// batches (never a multiple of `chunk_points`) to three series, readers
/// hammering, and a restart halfway that hands the worker heads replayed
/// raw from the WAL. Two cutters of one head must never both install the
/// same tail prefix — every acknowledged point reads back exactly once.
#[test]
fn worker_chunk_cuts_race_appends_across_a_restart() {
    let dir: PathBuf = std::env::temp_dir()
        .join(format!("neats-iconc-cut-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = IngestConfig {
        chunk_points: 128,
        seal_points: 1024,
        fsync: FsyncPolicy::Never,
        ..IngestConfig::default()
    };
    let plans = plans();
    let mut pos = vec![0usize; plans.len()];
    let mut x = 0x5EED_0FC0_FFEE_u64;
    let mut rng = move || {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        x >> 33
    };
    for (life, until) in [(0u64, 3000usize), (1, 6000)] {
        let ing = Arc::new(Ingestor::open(&dir, cfg.clone()).unwrap());
        for (p, &n) in plans.iter().zip(&pos) {
            if n > 0 {
                assert_prefix(&ing, p, n, "after the restart");
            }
        }
        let handle = ing.start_background(BackgroundConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        });
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|tid| {
                    let (ing, plans, stop) = (&ing, &plans, &stop);
                    scope.spawn(move || hammer(ing, plans, 200 + 10 * life + tid, stop))
                })
                .collect();
            while pos.iter().any(|&n| n < until) {
                for (p, n) in plans.iter().zip(pos.iter_mut()) {
                    let batch = (2 * (rng() % 90) as usize + 1).min(until - *n);
                    let r = *n..*n + batch;
                    ing.append(&p.name, &p.stamps[r.clone()], &p.values[r]).unwrap();
                    *n += batch;
                }
            }
            stop.store(true, Ordering::Relaxed);
            let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            assert!(total > 0, "readers must have checked something");
        });
        handle.stop();
        assert_eq!(ing.background_errors(), 0);
        for (p, &n) in plans.iter().zip(&pos) {
            assert_prefix(&ing, p, n, "at the end of a life");
        }
        // Dropping the last handle is the crash: the WAL holds every
        // unsealed point raw.
    }
    fs::remove_dir_all(&dir).unwrap();
}
