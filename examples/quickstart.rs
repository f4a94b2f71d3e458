//! Quickstart: compress a time series losslessly, access it randomly, and
//! inspect the learned functions (the paper's Fig. 1 in miniature).
//!
//! Run with: `cargo run --release --example quickstart`

use neats::core::{Kind, NeaTS};
use neats::timeseries::{CompressedSeries, TimeSeries};

fn main() {
    // A synthetic signal mixing the trends NeaTS is built for: a linear
    // ramp, an exponential burst, and a square-root tail, plus small noise.
    let mut values: Vec<i64> = Vec::new();
    values.extend((0..400i64).map(|k| 50 + 3 * k + (k % 5 - 2)));
    values.extend((0..300i64).map(|k| (1250.0 * (0.004 * k as f64).exp()) as i64));
    values.extend((0..500i64).map(|k| 4100 + (900.0 * ((k + 1) as f64).sqrt()) as i64));
    let ts = TimeSeries::from_values(values);

    // Lossless compression with the paper's default configuration.
    let compressed = NeaTS::compress(&ts);

    println!("original size:    {} bytes", ts.uncompressed_bytes());
    println!("compressed size:  {} bytes", compressed.size_in_bytes());
    println!(
        "compression ratio: {:.2}%",
        100.0 * compressed.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64
    );
    println!("fragments:        {}", compressed.view().fragment_count());

    // Random access: any value, without touching the rest (Algorithm 3).
    assert_eq!(compressed.get(777), ts.values()[777]);
    println!("\nvalue at index 777 = {} (random access)", compressed.get(777));

    // Full decompression is exact (Algorithm 2).
    assert_eq!(compressed.decompress(), ts.values());
    println!("full decompression verified lossless ✓");

    // Inspect the learned piecewise model — which function covers what.
    println!("\nlearned fragments (first 10):");
    println!("{:>8} {:>8}  {:<12}", "start", "end", "kind");
    for i in 0..compressed.view().fragment_count().min(10) {
        let f = compressed.view().fragment(i);
        println!("{:>8} {:>8}  {:<12}", f.start, f.end, f.kind.name());
    }
    let hist = compressed.view().kind_histogram();
    println!("\nfunction-kind histogram: {:?}",
        hist.iter().map(|(k, c)| (k.name(), *c)).collect::<Vec<_>>());

    // The nonlinear pool should have picked non-linear kinds here.
    assert!(hist.iter().any(|(k, c)| *c > 0 && *k != Kind::Linear), "expected nonlinear fits");
}
