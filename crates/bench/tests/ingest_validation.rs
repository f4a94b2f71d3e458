//! Typed-rejection tests for the ingest boundary, driven by the adversarial
//! *raw-input* generators ([`bench::suite::shapes::nan_heavy_f64`],
//! [`bench::suite::shapes::out_of_order_timestamps`]): floats with NaN/±∞
//! readings and timestamp streams with inversions must be rejected with a
//! typed error naming the first offending position — never panic, never
//! silently corrupt (`NaN as i64` is `0`; an unchecked `t <= prev` would
//! break the store's binary-searched time index).

use bench::suite::shapes::{nan_heavy_f64, out_of_order_timestamps};
use neats_ingest::{IngestConfig, Ingestor};
use neats_store::{StoreError, StoreWriter};
use timeseries::{io::parse_lines, io::LoadError, TimeSeries, ValueErrorKind};

const SEEDS: std::ops::Range<u64> = 0..25;

#[test]
fn try_from_f64_reports_the_first_non_finite_value() {
    for seed in SEEDS {
        let (values, first) = nan_heavy_f64(300, seed);
        let err = TimeSeries::try_from_f64(&values, 2).expect_err("must reject");
        assert_eq!(err.index, first, "seed {seed}");
        assert_eq!(err.kind, ValueErrorKind::NonFinite, "seed {seed}");
        assert!(!err.value.is_finite(), "seed {seed}: {}", err.value);
        // The finite prefix alone is acceptable.
        TimeSeries::try_from_f64(&values[..first], 2).expect("finite prefix");
    }
}

#[test]
fn try_from_f64_rejects_overflow_as_out_of_range() {
    let err = TimeSeries::try_from_f64(&[1.0, 2.0, 1e300], 0).unwrap_err();
    assert_eq!(err.index, 2);
    assert_eq!(err.kind, ValueErrorKind::OutOfRange);
    // A merely-large value overflows only through the digit scaling.
    let err = TimeSeries::try_from_f64(&[1e18], 3).unwrap_err();
    assert_eq!(err.kind, ValueErrorKind::OutOfRange);
}

#[test]
fn parse_lines_reports_the_first_non_finite_line() {
    for seed in SEEDS {
        let (values, first) = nan_heavy_f64(200, seed);
        // Rust's float formatter renders NaN/inf as parseable literals, so
        // the text loader sees exactly what a lossy upstream export emits.
        let text: String = values.iter().map(|v| format!("{v}\n")).collect();
        match parse_lines(std::io::Cursor::new(text), 1) {
            Err(LoadError::Value { line, kind: ValueErrorKind::NonFinite, .. }) => {
                assert_eq!(line, first + 1, "seed {seed}: wrong line");
            }
            other => panic!("seed {seed}: expected a NonFinite rejection, got {other:?}"),
        }
    }
}

#[test]
fn store_writer_rejects_out_of_order_timestamps_with_index() {
    for seed in SEEDS {
        let (stamps, at) = out_of_order_timestamps(300, seed);
        let values = vec![7i64; stamps.len()];
        let mut w = StoreWriter::new(Default::default());
        match w.ingest("s", &stamps, &values) {
            Err(StoreError::TimestampOrder { series, index }) => {
                assert_eq!(series, "s", "seed {seed}");
                assert_eq!(index, at, "seed {seed}: wrong first-violation index");
            }
            other => panic!("seed {seed}: expected TimestampOrder, got {other:?}"),
        }
        // The rejected batch must not have committed anything: the ordered
        // prefix still ingests cleanly afterwards.
        w.ingest("s", &stamps[..at], &values[..at]).expect("ordered prefix");
        w.finish().expect("finish");
    }
}

#[test]
fn ingestor_rejects_out_of_order_timestamps_without_wal_damage() {
    let dir = std::env::temp_dir().join("neats_bench_ingest_validation");
    let _ = std::fs::remove_dir_all(&dir);
    for seed in SEEDS.take(8) {
        let (stamps, at) = out_of_order_timestamps(200, seed);
        let values = vec![3i64; stamps.len()];
        let ing = Ingestor::open(&dir, IngestConfig::default()).expect("open");
        match ing.append("cpu", &stamps, &values) {
            Err(StoreError::TimestampOrder { index, .. }) => {
                assert_eq!(index, at, "seed {seed}")
            }
            other => panic!("seed {seed}: expected TimestampOrder, got {other:?}"),
        }
        // The rejection is atomic: nothing of the bad batch reached the WAL,
        // so the directory reopens empty-for-this-series and accepts the
        // ordered prefix (fresh stamps each round stay monotonic because the
        // generator's base epoch dwarfs per-round drift — assert anyway).
        assert!(ing.len("cpu").unwrap_or(0) == 0 || seed > 0, "bad batch committed");
        drop(ing);
        let ing = Ingestor::open(&dir, IngestConfig::default()).expect("reopen");
        let before = ing.len("cpu").unwrap_or(0);
        let good: Vec<u64> = stamps[..at]
            .iter()
            .map(|&t| t + seed * 1_000_000) // keep rounds strictly increasing
            .collect();
        ing.append("cpu", &good, &values[..at]).expect("ordered prefix accepted");
        assert_eq!(ing.len("cpu").unwrap(), before + at, "seed {seed}");
        ing.flush().expect("seal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
