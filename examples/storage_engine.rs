//! A miniature time-series storage engine on top of the pack store:
//! multi-series ingestion with parallel segment compression, one-file
//! persistence, concurrent zero-copy serving with a segment-view cache,
//! and streamed and time-indexed queries over compressed data — the
//! composition a time-series database (the paper's §I motivation) would
//! actually deploy.
//!
//! Run with: `cargo run --release --example storage_engine`

use neats::store::{Store, StoreConfig, StoreWriter};
use neats::timeseries::Dataset;

fn main() {
    let dir = std::env::temp_dir().join("neats_storage_engine");
    std::fs::create_dir_all(&dir).expect("create storage dir");
    let pack_path = dir.join("metrics.pack");

    // --- Ingestion: several feeds land in one pack; segments are
    // compressed in parallel at finish().
    let n = 100_000usize;
    let feeds = [
        ("air-pressure", Dataset::AirPressure),
        ("bio-temp", Dataset::IrBioTemp),
        ("wind-dir", Dataset::WindDirection),
    ];
    let mut writer = StoreWriter::new(StoreConfig {
        segment_points: 16_384,
        ..StoreConfig::default()
    });
    let mut raw_bytes = 0usize;
    for (name, ds) in &feeds {
        let values = ds.generate(n);
        // Irregular arrival times: one reading every ~30 s with jitter.
        let stamps: Vec<u64> =
            (0..n as u64).map(|i| 1_710_000_000 + i * 30 + (i * i) % 7).collect();
        raw_bytes += values.uncompressed_bytes();
        writer.ingest(name, &stamps, values.values()).expect("valid batch");
    }
    let pack = writer.finish().expect("seal pack");
    std::fs::write(&pack_path, &pack).expect("persist pack");
    println!(
        "ingested {} series × {n} readings into one {}-byte pack ({:.2}% of raw)",
        feeds.len(),
        pack.len(),
        100.0 * pack.len() as f64 / raw_bytes as f64
    );

    // --- Serving: open the pack once; only the catalog is validated up
    // front. Every query is answered through borrowed zero-copy views of
    // the mapped bytes, with hot segments kept in a sharded LRU cache.
    let t0 = std::time::Instant::now();
    let store = Store::open_path(&pack_path).expect("open pack");
    let open_us = t0.elapsed().as_secs_f64() * 1e6;
    let oracle = Dataset::AirPressure.generate(n);
    assert_eq!(store.get("air-pressure", 54_321).unwrap(), oracle.values()[54_321]);
    let mut window = Vec::new();
    store.range("air-pressure", 60_000..60_064, &mut window).unwrap();
    assert_eq!(window, &oracle.values()[60_000..60_064]);
    println!("opened the pack in {open_us:.0} µs and served point + range queries ✓");

    // --- Concurrent dashboards: scoped reader threads share the store,
    // each folding its series in one streamed pass, a segment at a time.
    std::thread::scope(|scope| {
        for (name, _) in &feeds {
            let store = &store;
            scope.spawn(move || {
                let len = store.series(name).expect("known series").len();
                let (mut sum, mut lo, mut hi) = (0i128, i64::MAX, i64::MIN);
                store
                    .range_chunks(name, 0..len, |chunk| {
                        for &v in chunk {
                            sum += v as i128;
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    })
                    .expect("stream");
                println!(
                    "  {name:<14} mean {:>12.2}  min {lo:>8}  max {hi:>8}",
                    sum as f64 / len as f64
                );
            });
        }
    });
    let stats = store.cache_stats();
    println!(
        "cache after the dashboard pass: {} hits / {} misses ({} views cached)",
        stats.hits, stats.misses, stats.entries
    );

    // --- Time travel: the catalog records each segment's time span and
    // the pack carries an Elias-Fano timestamp index per segment, so a day
    // starting at the middle segment's first stamp streams across segments.
    let segments = store.series("bio-temp").unwrap().segments();
    let middle = &segments[segments.len() / 2];
    let day_start = middle.t_min();
    let mut day = Vec::new();
    store
        .range_by_time_chunks("bio-temp", day_start, day_start + 86_400, |chunk| {
            day.extend_from_slice(chunk)
        })
        .unwrap();
    assert_eq!(day[0], (day_start, store.get("bio-temp", middle.first_index()).unwrap()));
    assert_eq!(store.at_time("bio-temp", day_start).unwrap(), Some(day[0].1));
    println!("time-indexed: {} readings in the queried day starting at {day_start}", day.len());

    println!("\nstorage engine demo complete ✓");
}
