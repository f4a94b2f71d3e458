//! Degraded-mode suite, driven by the shared failpoint registry
//! (`neats_store::failpoint`): disk faults at every step of the write path
//! flip the ingestor into typed read-only degradation instead of
//! corrupting or crashing, reads keep serving the acked state, and
//! recovery — manual or the background worker's backoff retry — restores
//! full service with zero acked-data loss, including across a restart.
//!
//! The registry is process-global, so every test in this binary holds
//! [`serialized`]'s lock and clears the registry on exit.

use neats_store::failpoint;
use neats_ingest::{BackgroundConfig, FsyncPolicy, IngestConfig, Ingestor};
use neats_store::StoreError;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialises registry-touching tests and guarantees a clean registry on
/// both entry and exit (including panicking exits).
fn serialized() -> impl Drop {
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            failpoint::clear_all();
        }
    }
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    Guard(g)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("neats-idegr-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn small_cfg() -> IngestConfig {
    IngestConfig {
        chunk_points: 8,
        seal_points: 16,
        fsync: FsyncPolicy::Always,
        ..IngestConfig::default()
    }
}

/// Asserts the full oracle is served: `len` and `range` agree with `want`.
fn assert_points(ing: &Ingestor, series: &str, want: &[i64]) {
    assert_eq!(ing.len(series).unwrap(), want.len());
    let mut got = Vec::new();
    ing.range(series, 0..want.len(), &mut got).unwrap();
    assert_eq!(got, want);
}

/// ENOSPC (or any I/O error) at *every* step of the seal pipeline: the
/// seal fails, the ingestor degrades — reads keep serving, writes answer
/// the typed degraded error, nothing acked is lost — and once the disk
/// recovers, a retried seal restores full service with all points.
#[test]
fn fault_at_every_seal_step_degrades_then_recovers_with_zero_loss() {
    let _guard = serialized();
    // The seal pipeline in write order; arming any one site must produce
    // the same observable contract. (`wal.sync`/`dir.sync` are armed only
    // after the appends — FsyncPolicy::Always syncs during append too.)
    for site in ["seal.pack", "wal.create", "wal.sync", "manifest.commit", "dir.sync"] {
        let dir = tmp_dir(&format!("seal-{}", site.replace('.', "-")));
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        let stamps: Vec<u64> = (1..=40).collect();
        let values: Vec<i64> = (1..=40).map(|k| k * 7 % 23 - 5).collect();
        ing.append("s", &stamps, &values).unwrap();

        failpoint::set(site, "err").unwrap();
        let err = ing.seal().expect_err(site);
        assert!(
            err.to_string().contains("injected failpoint"),
            "{site}: unexpected error {err}"
        );
        assert!(ing.is_degraded(), "{site}: seal fault must degrade");
        assert!(
            ing.degraded_reason().unwrap().contains(site),
            "{site}: reason must name the fault"
        );

        // Degraded is read-only, not down: every acked point still serves.
        assert_points(&ing, "s", &values);
        // Writes are refused with the typed error, and the refusal is
        // cheap — it must not touch the faulted disk again.
        let hits_before = failpoint::hits(site);
        match ing.append("s", &[100], &[1]) {
            Err(StoreError::Degraded { .. }) => {}
            other => panic!("{site}: degraded append answered {other:?}"),
        }
        assert_eq!(failpoint::hits(site), hits_before, "{site}: refused write hit the disk");

        // Disk recovers: one retry re-runs the seal and clears the degrade.
        failpoint::clear(site);
        assert!(ing.try_recover().unwrap(), "{site}: recovery must succeed");
        assert!(!ing.is_degraded());
        assert_eq!(ing.epoch(), 1, "{site}: recovery must complete the seal");
        assert_points(&ing, "s", &values);

        // Full service: appends land and survive a clean reopen.
        ing.append("s", &[1000], &[42]).unwrap();
        drop(ing);
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        let mut want = values.clone();
        want.push(42);
        assert_points(&ing, "s", &want);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A failed WAL append degrades the ingestor but loses nothing acked: the
/// in-memory state still equals the acked prefix (the head is only
/// advanced after the WAL write), recovery truncates the possibly-torn
/// tail (which needs no free space), and the repaired WAL replays the
/// exact acked prefix after a restart.
#[test]
fn wal_append_fault_preserves_acked_prefix_and_repairs() {
    let _guard = serialized();
    let dir = tmp_dir("wal-append");
    let ing = Ingestor::open(&dir, small_cfg()).unwrap();
    ing.append("s", &[1, 2, 3], &[10, 20, 30]).unwrap();

    failpoint::set("wal.append", "err").unwrap();
    let err = ing.append("s", &[4], &[40]).expect_err("armed append");
    assert!(matches!(err, StoreError::Degraded { .. }), "got {err}");
    assert!(ing.is_degraded());
    // The rejected batch is not half-visible anywhere.
    assert_points(&ing, "s", &[10, 20, 30]);

    failpoint::clear("wal.append");
    assert!(ing.try_recover().unwrap());
    assert!(!ing.is_degraded());
    ing.append("s", &[4, 5], &[40, 50]).unwrap();
    assert_points(&ing, "s", &[10, 20, 30, 40, 50]);

    // The repaired WAL replays cleanly: acked state, nothing else.
    drop(ing);
    let ing = Ingestor::open(&dir, small_cfg()).unwrap();
    assert_points(&ing, "s", &[10, 20, 30, 40, 50]);
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

/// A WAL-repair fault keeps the ingestor degraded (recovery is itself
/// retryable) instead of panicking or silently clearing.
#[test]
fn failed_recovery_stays_degraded() {
    let _guard = serialized();
    let dir = tmp_dir("bad-repair");
    let ing = Ingestor::open(&dir, small_cfg()).unwrap();
    ing.append("s", &[1], &[1]).unwrap();

    failpoint::set("wal.append", "err").unwrap();
    assert!(ing.append("s", &[2], &[2]).is_err());
    failpoint::clear("wal.append");

    failpoint::set("wal.repair", "err").unwrap();
    assert!(ing.try_recover().is_err(), "repair fault must surface");
    assert!(ing.is_degraded(), "failed recovery must stay degraded");

    failpoint::clear("wal.repair");
    assert!(ing.try_recover().unwrap());
    assert!(!ing.is_degraded());
    ing.append("s", &[2], &[2]).unwrap();
    assert_points(&ing, "s", &[1, 2]);
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

/// The background worker rides out a transient seal fault on its backoff
/// schedule: the ingestor degrades when the fault fires, keeps serving
/// reads, and self-heals — no restart, no manual recovery — once the
/// fault window (`err*2`: exactly two failures) passes.
#[test]
fn background_retry_auto_recovers_from_transient_seal_fault() {
    let _guard = serialized();
    let dir = tmp_dir("bg-retry");
    let ing = Arc::new(Ingestor::open(&dir, small_cfg()).unwrap());
    // Two failures, then the "disk" heals: attempt 1 (the threshold seal)
    // and attempt 2 (the first recovery retry) fail, attempt 3 succeeds.
    failpoint::set("seal.pack", "err*2").unwrap();

    let bg = ing.start_background(BackgroundConfig {
        interval: Duration::from_millis(10),
        retry_base: Duration::from_millis(10),
        retry_cap: Duration::from_millis(50),
    });
    // Cross the seal threshold (seal_points = 16 chunked points).
    let stamps: Vec<u64> = (1..=64).collect();
    let values: Vec<i64> = (1..=64).map(|k| k % 9 - 4).collect();
    ing.append("s", &stamps, &values).unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    while (ing.epoch() == 0 || ing.is_degraded()) && Instant::now() < deadline {
        // Reads must serve throughout the degraded window.
        assert_points(&ing, "s", &values);
        std::thread::sleep(Duration::from_millis(5));
    }
    bg.stop();
    assert_eq!(failpoint::hits("seal.pack"), 3, "two failures + the successful retry");
    assert!(!ing.is_degraded(), "backoff retry must clear the degrade");
    assert!(ing.epoch() >= 1, "the retried seal must commit");
    assert!(ing.background_errors() >= 2, "both failures must be counted");
    assert_points(&ing, "s", &values);
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: the commit point is the manifest rename. A fault at the
/// rename (or the directory fsync sealing it) aborts the seal with the old
/// generation intact — and a *restart* in that state recovers every acked
/// point from the old WAL, then seals successfully.
#[test]
fn commit_point_survives_manifest_fault_across_restart() {
    let _guard = serialized();
    for site in ["manifest.commit", "dir.sync"] {
        let dir = tmp_dir(&format!("commit-{}", site.replace('.', "-")));
        let stamps: Vec<u64> = (1..=30).collect();
        let values: Vec<i64> = (1..=30).map(|k| k * 11 % 31).collect();
        {
            let ing = Ingestor::open(&dir, small_cfg()).unwrap();
            ing.append("s", &stamps, &values).unwrap();
            failpoint::set(site, "err").unwrap();
            assert!(ing.seal().is_err(), "{site}");
            assert!(ing.is_degraded(), "{site}");
            failpoint::clear(site);
            // Crash here: the process dies while degraded, mid-seal.
        }
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        assert_eq!(ing.epoch(), 0, "{site}: failed seal must not commit");
        assert!(!ing.is_degraded(), "{site}: degradation is not persistent state");
        assert_points(&ing, "s", &values);
        assert_eq!(ing.seal().unwrap(), 1, "{site}: reopened directory must seal");
        assert_points(&ing, "s", &values);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }
}
