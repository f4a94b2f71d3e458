//! Pack-store baseline harness: open latency, point/range query throughput,
//! and the cache-hit effect of the multi-series store versus the per-file
//! single-archive serving path, written machine-readable to
//! `BENCH_store.json` (sibling of `BENCH_partition.json`).
//!
//! The per-file baseline is what a deployment without the store does: one
//! whole-series archive per series, each opened as its own
//! [`neats_core::ArchiveView`]. The store serves the same series from one
//! pack, segmented, through its sharded segment-view cache. The run
//! re-asserts on every sampled query that both paths answer identically, so
//! the numbers can never describe diverging read paths.
//!
//! Run with `cargo run --release -p bench --bin store_baseline`; scale with
//! `NEATS_BENCH_N` (points per series) / `NEATS_BENCH_QUERIES` /
//! `NEATS_BENCH_SERIES`, and redirect with `NEATS_BENCH_OUT`.

use bench::json::Json;
use bench::{bench_queries, env_usize, query_indices};
use neats_core::{ArchiveView, NeaTS};
use neats_store::{Store, StoreConfig, StoreOptions, StoreWriter};
use std::time::Instant;
use timeseries::Dataset;

/// Range length for the range-throughput measurement (clamped to half the
/// per-series point count so tiny smoke runs stay valid).
const RANGE_LEN: usize = 256;

fn main() {
    // Per-series points: a store pack holds many series, so the per-series
    // default is a quarter of the single-archive harnesses' 131072.
    let n = env_usize("NEATS_BENCH_N", 1 << 15);
    let series_count = env_usize("NEATS_BENCH_SERIES", 8);
    let queries = bench_queries();
    let out_path = std::env::var("NEATS_BENCH_OUT").unwrap_or_else(|_| "BENCH_store.json".into());
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let segment_points = env_usize("NEATS_BENCH_SEGMENT", 8192);
    println!(
        "store_baseline — {series_count} series × {n} points, segment {segment_points}, \
         {queries} queries, {cores} core(s)"
    );

    // --- Build: the same series go into one pack and into per-file archives.
    let names: Vec<String> = (0..series_count).map(|i| format!("s{i:02}")).collect();
    let mut data = Vec::new();
    for i in 0..series_count {
        let ds = Dataset::ALL[i % Dataset::ALL.len()];
        let ts = ds.generate(n);
        let stamps: Vec<u64> = (0..n as u64)
            .map(|k| 1_700_000_000 + k * 30 + (i as u64))
            .collect();
        data.push((stamps, ts.values().to_vec()));
    }
    let t0 = Instant::now();
    let mut w = StoreWriter::new(StoreConfig {
        segment_points,
        ..StoreConfig::default()
    });
    for (name, (stamps, values)) in names.iter().zip(&data) {
        w.ingest(name, stamps, values).expect("ingest");
    }
    let pack = w.finish().expect("finish pack");
    let build_s = t0.elapsed().as_secs_f64();
    let perfile: Vec<Vec<u8>> = data
        .iter()
        .map(|(_, values)| {
            NeaTS::compress(&timeseries::TimeSeries::from_values(values.clone())).to_bytes()
        })
        .collect();
    let perfile_bytes: usize = perfile.iter().map(Vec::len).sum();
    println!(
        "pack: {} bytes (built in {build_s:.1}s), per-file archives: {perfile_bytes} bytes",
        pack.len()
    );

    // --- Open latency: the store validates only the catalog up front; the
    // per-file path must open (checksum) every archive.
    let store_open_us = time_us(50, || Store::open(pack.clone()).expect("open store"));
    let perfile_open_us = time_us(10, || {
        perfile
            .iter()
            .map(|b| ArchiveView::open(b).expect("open archive").len())
            .sum::<usize>()
    });

    // --- Query plan: deterministic (series, index) pairs.
    let sidx = query_indices(series_count, queries);
    let pidx = query_indices(n, queries);

    // Correctness re-assertion on the sampled plan before timing anything.
    let store = Store::open(pack.clone()).expect("open store");
    let views: Vec<ArchiveView<'_>> = perfile
        .iter()
        .map(|b| ArchiveView::open(b).expect("open archive"))
        .collect();
    for (&s, &k) in sidx.iter().zip(&pidx).take(5_000) {
        assert_eq!(
            store.get(&names[s], k).expect("store get"),
            views[s].at(k),
            "store diverges from per-file archive at ({s}, {k})"
        );
    }

    // --- Point throughput: store with warm cache, store with caching
    // disabled (every query re-parses its segment's headers; each segment
    // is verified once, on its first touch), per-file views.
    let warm = Store::open(pack.clone()).expect("open store");
    for (&s, &k) in sidx.iter().zip(&pidx) {
        // Warm the cache with one pass so the timed pass measures hits.
        std::hint::black_box(warm.get(&names[s], k).expect("warm"));
    }
    let store_warm_mqs = throughput_mqs(queries, || {
        let mut acc = 0i64;
        for (&s, &k) in sidx.iter().zip(&pidx) {
            acc = acc.wrapping_add(warm.get(&names[s], k).expect("get"));
        }
        acc
    });
    let hit_rate = warm.cache_stats().hit_rate();

    let cold = Store::open_with(
        pack.clone(),
        StoreOptions {
            cache_capacity: 0,
            ..StoreOptions::default()
        },
    )
    .expect("open store");
    let store_cold_mqs = throughput_mqs(queries, || {
        let mut acc = 0i64;
        for (&s, &k) in sidx.iter().zip(&pidx) {
            acc = acc.wrapping_add(cold.get(&names[s], k).expect("get"));
        }
        acc
    });

    let perfile_mqs = throughput_mqs(queries, || {
        let mut acc = 0i64;
        for (&s, &k) in sidx.iter().zip(&pidx) {
            acc = acc.wrapping_add(views[s].at(k));
        }
        acc
    });

    // --- Range throughput (million values per second), stitched vs direct.
    let range_len = RANGE_LEN.min(n / 2).max(1);
    let range_queries = (queries / 20).max(1);
    let rs = query_indices(series_count, range_queries);
    let rk = query_indices(n - range_len + 1, range_queries);
    let mut buf = Vec::with_capacity(range_len);
    let store_range_mvs = throughput_mqs(range_queries * range_len, || {
        let mut acc = 0i64;
        for (&s, &k) in rs.iter().zip(&rk) {
            buf.clear();
            warm.range(&names[s], k..k + range_len, &mut buf)
                .expect("range");
            acc = acc.wrapping_add(buf.last().copied().unwrap_or(0));
        }
        acc
    });
    let mut buf2 = Vec::with_capacity(range_len);
    let perfile_range_mvs = throughput_mqs(range_queries * range_len, || {
        let mut acc = 0i64;
        for (&s, &k) in rs.iter().zip(&rk) {
            buf2.clear();
            views[s].range(k..k + range_len, &mut buf2);
            acc = acc.wrapping_add(buf2.last().copied().unwrap_or(0));
        }
        acc
    });

    println!("\nopen:   store {store_open_us:.1} µs vs per-file total {perfile_open_us:.1} µs");
    println!(
        "point:  store warm {store_warm_mqs:.2} Mq/s (hit rate {:.3}), cold {store_cold_mqs:.3} \
         Mq/s, per-file {perfile_mqs:.2} Mq/s",
        hit_rate
    );
    println!("range:  store {store_range_mvs:.1} Mv/s vs per-file {perfile_range_mvs:.1} Mv/s");

    let artifact = Json::obj(vec![
        ("bench", Json::Str("store".into())),
        ("schema", Json::Int(1)),
        ("n_per_series", Json::Int(n as i64)),
        ("series", Json::Int(series_count as i64)),
        ("segment_points", Json::Int(segment_points as i64)),
        ("queries", Json::Int(queries as i64)),
        ("range_len", Json::Int(range_len as i64)),
        ("host_cores", Json::Int(cores as i64)),
        ("pack_bytes", Json::Int(pack.len() as i64)),
        ("perfile_bytes", Json::Int(perfile_bytes as i64)),
        ("build_seconds", Json::Num(build_s)),
        ("open_store_us", Json::Num(store_open_us)),
        ("open_perfile_total_us", Json::Num(perfile_open_us)),
        ("point_store_warm_mqs", Json::Num(store_warm_mqs)),
        ("point_store_cold_mqs", Json::Num(store_cold_mqs)),
        ("point_perfile_mqs", Json::Num(perfile_mqs)),
        ("cache_hit_rate", Json::Num(hit_rate)),
        ("range_store_mvs", Json::Num(store_range_mvs)),
        ("range_perfile_mvs", Json::Num(perfile_range_mvs)),
    ]);
    std::fs::write(&out_path, artifact.render()).expect("write store artifact");
    println!("\nwrote {out_path}");
}

/// Times `reps` runs of `f` and returns the mean microseconds per run.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Runs `f` once and converts its `ops` operations to millions per second.
fn throughput_mqs(ops: usize, mut f: impl FnMut() -> i64) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    ops as f64 / t0.elapsed().as_secs_f64() / 1e6
}
