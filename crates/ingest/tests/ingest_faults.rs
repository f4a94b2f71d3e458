//! Fault-injection suite: the crash-recovery matrix.
//!
//! Three layers, increasingly end-to-end:
//!
//! 1. A WAL writer driven against [`FailpointFile`] — kill budgets and
//!    dropped fsyncs — with **every** crash image the model admits replayed.
//!    Recovery must be prefix-consistent at record granularity, must keep
//!    every record written before the last effective sync barrier, and must
//!    never invent data.
//! 2. A real on-disk ingest directory whose WAL is cut at **every byte
//!    boundary** before reopening the [`Ingestor`]: each recovered state is
//!    exactly the acked-batch prefix the cut admits, queries agree with the
//!    oracle over that prefix, and under `FsyncPolicy::Always` no cut at or
//!    past an ack point ever loses that batch.
//! 3. Exhaustive single-byte corruption (all 8 bit flips per byte) of a
//!    recorded WAL: every flip is either rejected (header) or truncates
//!    replay cleanly at a record boundary before the flip.
//!
//! Plus the seal commit protocol: stray next-generation files and a
//! stale `MANIFEST.tmp` are swept on open, and a damaged `MANIFEST` is a
//! hard, clean error.

use neats_ingest::wal::{self, encode_record, header_bytes, WalOp, WAL_HEADER_LEN};
use neats_ingest::{FsyncPolicy, IngestConfig, Ingestor};
use neats_store::{RangeScratch, StoreError};
use std::fs;
use std::path::PathBuf;
use test_support::FailpointFile;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("neats-ifault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Deterministic op sequence: interleaved appends over two series, with
/// irregular stamps and walk values.
fn script() -> Vec<WalOp> {
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let mut rng = move || {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        x
    };
    let mut t = [100u64, 500];
    let mut v = [0i64, -40];
    let mut ops = Vec::new();
    for i in 0..12 {
        // The first two ops seed both series.
        let s = if i < 2 { i } else { (rng() % 2) as usize };
        let n = 1 + (rng() % 9) as usize;
        let mut stamps = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            t[s] += 1 + rng() % 17;
            v[s] += (rng() % 31) as i64 - 15;
            stamps.push(t[s]);
            values.push(v[s]);
        }
        ops.push(WalOp::Append {
            series: if s == 0 { "alpha".into() } else { "beta".into() },
            stamps,
            values,
        });
    }
    ops
}

/// Drives the WAL byte protocol against a [`FailpointFile`] under `policy`:
/// header, then records, with sync barriers where the policy places them.
/// Returns the file and, per op, whether its record was fully written and
/// whether it was "acked durable" (a sync barrier took effect at or after
/// it).
fn drive_wal(mut file: FailpointFile, policy: FsyncPolicy, ops: &[WalOp]) -> (FailpointFile, Vec<bool>) {
    file.write(&header_bytes());
    file.sync();
    let mut durable = vec![false; ops.len()];
    let mut unsynced = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if !file.write(&encode_record(op)) {
            break;
        }
        let written = i + 1;
        unsynced += 1;
        let want_sync = match policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if want_sync && file.sync() {
            for d in durable.iter_mut().take(written) {
                *d = true;
            }
            unsynced = 0;
        }
    }
    (file, durable)
}

/// Record end offsets of the scripted WAL image (offset after header, then
/// after each record).
fn record_ends(ops: &[WalOp]) -> Vec<usize> {
    let mut ends = vec![WAL_HEADER_LEN];
    for op in ops {
        ends.push(ends.last().unwrap() + encode_record(op).len());
    }
    ends
}

/// Every crash image of a faulted WAL writer recovers a record prefix, keeps
/// everything durable, and invents nothing — across fsync policies and kill
/// budgets landing on and around every record boundary.
#[test]
fn crash_matrix_over_every_budget_and_policy() {
    let ops = script();
    let full_len = *record_ends(&ops).last().unwrap();
    let policies =
        [FsyncPolicy::Always, FsyncPolicy::EveryN(3), FsyncPolicy::Never];
    // Budgets: every record boundary, one byte either side, and a spread of
    // interior cuts — the write that crosses the budget tears mid-record.
    let mut budgets: Vec<usize> = Vec::new();
    for &b in &record_ends(&ops) {
        budgets.extend([b.saturating_sub(1), b, b + 1]);
    }
    budgets.extend((0..full_len).step_by(7));
    budgets.push(full_len + 64);

    for policy in policies {
        for &budget in &budgets {
            let (file, durable) = drive_wal(FailpointFile::kill_after(budget), policy, &ops);
            let ends = record_ends(&ops);
            for image in file.crash_images() {
                let (got, valid) = wal::replay(image).expect("scripted image never has a bad header beyond torn");
                // Prefix-consistent: exactly the records the image contains.
                assert!(got.len() <= ops.len());
                assert_eq!(got, ops[..got.len()], "policy {policy:?} budget {budget}");
                // Truncation lands on a record boundary.
                assert_eq!(valid, if got.is_empty() { if image.len() < WAL_HEADER_LEN { 0 } else { WAL_HEADER_LEN } } else { ends[got.len()] });
                // Durability: every record acked behind an effective sync
                // barrier survives in every admissible image.
                let durable_count = durable.iter().filter(|&&d| d).count();
                assert!(
                    got.len() >= durable_count,
                    "policy {policy:?} budget {budget}: lost a durable record \
                     ({} < {durable_count}) in an image of {} bytes",
                    got.len(),
                    image.len(),
                );
            }
        }
    }
}

/// Dropped fsyncs (a lying disk): nothing past the header barrier is
/// guaranteed, but every admissible image still recovers cleanly.
#[test]
fn dropped_fsyncs_still_recover_every_image() {
    let ops = script();
    let (file, durable) = drive_wal(
        FailpointFile::new().dropping_syncs(),
        FsyncPolicy::Always,
        &ops,
    );
    assert!(durable.iter().all(|&d| !d), "no ack may count as durable");
    assert_eq!(file.synced_len(), 0);
    let mut seen_empty = false;
    let mut seen_all = false;
    for image in file.crash_images() {
        let (got, _) = if image.len() < WAL_HEADER_LEN {
            (Vec::new(), 0)
        } else {
            wal::replay(image).unwrap()
        };
        assert_eq!(got, ops[..got.len()]);
        seen_empty |= got.is_empty();
        seen_all |= got.len() == ops.len();
    }
    assert!(seen_empty && seen_all, "the image sweep must span nothing → everything");
}

/// Oracle for the scripted ops: per-series points after applying a prefix.
fn apply_prefix(ops: &[WalOp]) -> Vec<(String, Vec<(u64, i64)>)> {
    let mut out: Vec<(String, Vec<(u64, i64)>)> = Vec::new();
    for WalOp::Append { series, stamps, values } in ops {
        let e = match out.iter_mut().find(|(n, _)| n == series) {
            Some((_, pts)) => pts,
            None => {
                out.push((series.clone(), Vec::new()));
                &mut out.last_mut().unwrap().1
            }
        };
        e.extend(stamps.iter().zip(values).map(|(&t, &v)| (t, v)));
    }
    out
}

/// End-to-end: a real directory whose WAL is truncated at every byte before
/// reopening. Each reopen recovers exactly the batch prefix the cut admits
/// and answers queries accordingly; an ack under `Always` is never lost at
/// any cut at or past its record end.
#[test]
fn every_wal_cut_reopens_to_the_acked_prefix() {
    let dir = tmp_dir("cuts");
    let ops = script();
    let cfg = IngestConfig { fsync: FsyncPolicy::Always, ..IngestConfig::default() };
    {
        let ing = Ingestor::open(&dir, cfg.clone()).unwrap();
        for WalOp::Append { series, stamps, values } in &ops {
            ing.append(series, stamps, values).unwrap();
        }
    }
    let wal_path = dir.join("wal-000000.log");
    let full = fs::read(&wal_path).unwrap();
    let ends = record_ends(&ops);
    assert_eq!(*ends.last().unwrap(), full.len(), "scripted image must match the real WAL");

    for cut in 0..=full.len() {
        fs::write(&wal_path, &full[..cut]).unwrap();
        let ing = Ingestor::open(&dir, cfg.clone())
            .unwrap_or_else(|e| panic!("cut {cut}: reopen failed: {e}"));
        // A cut inside the header rewrites the WAL: zero records kept.
        let keep = ends.iter().take_while(|&&e| e <= cut).count().saturating_sub(1);
        let oracle = apply_prefix(&ops[..keep]);
        let mut names: Vec<String> = oracle.iter().map(|(n, _)| n.clone()).collect();
        names.sort_unstable();
        assert_eq!(ing.series_names(), names, "cut {cut}");
        for (name, pts) in &oracle {
            assert_eq!(ing.len(name).unwrap(), pts.len(), "cut {cut} len({name})");
            let mut got = Vec::new();
            ing.range(name, 0..pts.len(), &mut got).unwrap();
            let want: Vec<i64> = pts.iter().map(|&(_, v)| v).collect();
            assert_eq!(got, want, "cut {cut} range({name})");
            let mut pairs = Vec::new();
            ing.range_by_time_chunks_in(&mut RangeScratch::default(), name, 0, u64::MAX, |c| {
                pairs.extend_from_slice(c)
            })
            .unwrap();
            assert_eq!(&pairs, pts, "cut {cut} by time({name})");
            if let Some(&(t_last, v_last)) = pts.last() {
                assert_eq!(ing.at_time(name, t_last).unwrap(), Some(v_last));
            }
        }
        // No phantom series, no phantom points past the oracle.
        assert_eq!(ing.total_points(), oracle.iter().map(|(_, p)| p.len()).sum::<usize>());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: exhaustive per-byte corruption. Every single-byte flip (all 8
/// bits) of a recorded WAL is rejected at replay or truncates at a record
/// boundary strictly before any record containing the flip.
#[test]
fn every_single_byte_flip_rejects_or_truncates_at_a_boundary() {
    let ops = script();
    let mut image = header_bytes().to_vec();
    for op in &ops {
        image.extend_from_slice(&encode_record(op));
    }
    let ends = record_ends(&ops);
    for pos in 0..image.len() {
        for bit in 0..8 {
            let mut bad = image.clone();
            bad[pos] ^= 1 << bit;
            match wal::replay(&bad) {
                Err(StoreError::Corrupt(_)) => {
                    assert!(pos < WAL_HEADER_LEN, "hard rejection outside the header (byte {pos})");
                }
                Err(e) => panic!("unexpected error class at byte {pos} bit {bit}: {e}"),
                Ok((got, valid)) => {
                    // The flip lives in record `hit` (or the header); replay
                    // must stop before consuming it.
                    let hit = ends.iter().take_while(|&&e| e <= pos).count() - 1;
                    assert!(
                        got.len() <= hit,
                        "byte {pos} bit {bit}: replay consumed record {} containing the flip",
                        got.len() - 1,
                    );
                    assert_eq!(got, ops[..got.len()], "byte {pos} bit {bit}: prefix mismatch");
                    assert_eq!(valid, ends[got.len()], "byte {pos} bit {bit}: off-boundary cut");
                }
            }
        }
    }
}

/// The commit protocol's failure windows: stray next-generation files (a
/// seal that died before its manifest rename) and a stale `MANIFEST.tmp`
/// are swept on open; the committed generation is untouched.
#[test]
fn interrupted_seal_leftovers_are_swept() {
    let dir = tmp_dir("sweep");
    let cfg = IngestConfig { chunk_points: 8, ..IngestConfig::default() };
    let stamps: Vec<u64> = (1..=40).collect();
    let values: Vec<i64> = (1..=40).map(|k| k * 3 % 17).collect();
    {
        let ing = Ingestor::open(&dir, cfg.clone()).unwrap();
        ing.append("s", &stamps, &values).unwrap();
        ing.seal().unwrap();
        ing.append("s", &[100, 101], &[7, 8]).unwrap();
    }
    // A crashed follow-up seal: next-generation pack/WAL exist, manifest
    // still names epoch 1. Plus a stale tmp manifest.
    fs::write(dir.join("pack-000002.pack"), b"half-written garbage").unwrap();
    fs::write(dir.join("wal-000002.log"), b"torn").unwrap();
    fs::write(dir.join("MANIFEST.tmp"), b"stale").unwrap();

    let ing = Ingestor::open(&dir, cfg.clone()).unwrap();
    assert_eq!(ing.epoch(), 1);
    assert_eq!(ing.len("s").unwrap(), 42);
    let mut got = Vec::new();
    ing.range("s", 0..42, &mut got).unwrap();
    let mut want = values.clone();
    want.extend([7, 8]);
    assert_eq!(got, want);
    drop(ing);
    assert!(!dir.join("pack-000002.pack").exists(), "stray pack not swept");
    assert!(!dir.join("wal-000002.log").exists(), "stray wal not swept");
    assert!(!dir.join("MANIFEST.tmp").exists(), "stale tmp manifest not swept");
    fs::remove_dir_all(&dir).unwrap();
}

/// A damaged `MANIFEST` is a hard, clean error (the commit protocol never
/// leaves one behind), as is a WAL with a foreign header.
#[test]
fn damaged_manifest_or_foreign_wal_fail_cleanly() {
    let dir = tmp_dir("damaged");
    {
        let ing = Ingestor::open(&dir, IngestConfig::default()).unwrap();
        ing.append("s", &[1, 2, 3], &[9, 9, 9]).unwrap();
    }
    let manifest = dir.join("MANIFEST");
    let good = fs::read(&manifest).unwrap();
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x10;
    fs::write(&manifest, &bad).unwrap();
    assert!(matches!(
        Ingestor::open(&dir, IngestConfig::default()),
        Err(StoreError::Corrupt(_))
    ));
    fs::write(&manifest, &good).unwrap();

    // Foreign WAL header: wrong magic is "wrong file", not a torn write.
    let wal_path = dir.join("wal-000000.log");
    let mut wal_bytes = fs::read(&wal_path).unwrap();
    wal_bytes[3] ^= 0xFF;
    fs::write(&wal_path, &wal_bytes).unwrap();
    assert!(matches!(
        Ingestor::open(&dir, IngestConfig::default()),
        Err(StoreError::Corrupt(_))
    ));
    fs::remove_dir_all(&dir).unwrap();
}
