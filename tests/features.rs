//! Integration tests for the extension features: persistence and aggregate
//! queries — exercised together, the way a storage engine would compose
//! them.

use neats::core::{NeaTS, NeaTSCompressed};
use neats::timeseries::{CompressedSeries, Dataset, TimeSeries};

#[test]
fn persist_and_reload_a_dataset() {
    let ts = Dataset::DewpointTemp.generate(20_000);
    let c = NeaTS::compress(&ts);
    let bytes = c.to_bytes();
    // "Write to disk, read back, query" — via a real temp file.
    let dir = std::env::temp_dir().join("neats_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dp.neats");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = NeaTSCompressed::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(loaded.decompress(), ts.values());
    assert_eq!(loaded.get(12_345), ts.values()[12_345]);
    // On-disk size is the compressed size, not the raw size.
    assert!(bytes.len() < ts.uncompressed_bytes() / 3);
}

#[test]
fn aggregates_accelerate_dashboards() {
    let ts = Dataset::AirPressure.generate(50_000);
    let c = NeaTS::compress(&ts);
    // Hourly sums over a day, estimated from functions only.
    for hour in 0..24 {
        let start = hour * 2000;
        let est = c.view().sum_range_estimate(start, 2000);
        let exact: f64 = ts.values()[start..start + 2000].iter().map(|&v| v as f64).sum();
        assert!(
            (est.value - exact).abs() <= est.max_error,
            "hour {hour}: {} vs {exact} (bound {})",
            est.value,
            est.max_error
        );
    }
}

#[test]
fn serialized_lossy_tier_archive() {
    // The sensor_monitoring story as a test: archive lossy tiers, reload,
    // verify guarantees still hold.
    let ts = Dataset::CityTemp.generate(10_000);
    for eps in [8u64, 64, 512] {
        let lossy = NeaTS::builder().build_lossy(&ts, eps);
        let reloaded = neats::core::NeaTSLossy::from_bytes(&lossy.to_bytes()).unwrap();
        assert!(reloaded.max_error(&ts) <= eps + 1, "eps {eps}");
        assert_eq!(reloaded.reconstruct(), lossy.reconstruct());
    }
}

#[test]
fn mixed_feature_composition() {
    // Per-chunk archives, each serialized and reloaded, then aggregated.
    let values: Vec<i64> = (0..30_000).map(|k| 1000 + k / 3 + (k % 10)).collect();
    let mut total = 0i128;
    for chunk in values.chunks(10_000) {
        let bytes = NeaTS::compress(&TimeSeries::from_values(chunk.to_vec())).to_bytes();
        let reloaded = NeaTSCompressed::from_bytes(&bytes).unwrap();
        total += reloaded.view().sum_range_exact(0, reloaded.len());
    }
    let expected: i128 = values.iter().map(|&v| v as i128).sum();
    assert_eq!(total, expected);
}
