//! Inspecting what NeaTS learns: function kinds, ε choices, and the effect
//! of the function pool on different signal shapes.
//!
//! This example exercises the research-facing API surface: building with
//! custom kind pools and ε sets, reading fragment descriptors, and comparing
//! the full DP against the LeaTS/SNeaTS variants.
//!
//! Run with: `cargo run --release --example model_inspection`

use neats::core::{Kind, NeaTS};
use neats::timeseries::{CompressedSeries, Dataset, TimeSeries};

fn summarize(name: &str, ts: &TimeSeries) {
    let c = NeaTS::compress(ts);
    let ratio = 100.0 * c.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64;
    let hist: Vec<(&str, usize)> =
        c.view().kind_histogram().into_iter().map(|(k, n)| (k.name(), n)).collect();
    println!("{name:<16} ratio {ratio:6.2}%  fragments {:5}  kinds {hist:?}", c.view().fragment_count());
}

fn main() {
    println!("== which functions fit which signals ==");
    summarize("ECG", &Dataset::Ecg.generate(50_000));
    summarize("air pressure", &Dataset::AirPressure.generate(50_000));
    summarize("bitcoin", &Dataset::BitcoinPrice.generate(50_000));
    summarize("GPS latitude", &Dataset::GeolifeLat.generate(50_000));

    // A pure parabola: the anchored quadratic family should dominate.
    let parabola = TimeSeries::from_values((0..20_000i64).map(|k| k * k / 100).collect());
    summarize("parabola", &parabola);

    println!("\n== variant comparison on one dataset (NeaTS / LeaTS / SNeaTS) ==");
    let ts = Dataset::DewpointTemp.generate(50_000);
    for (name, builder) in
        [("NeaTS", NeaTS::builder()), ("LeaTS", NeaTS::leats()), ("SNeaTS", NeaTS::sneats())]
    {
        let t0 = std::time::Instant::now();
        let c = builder.build(&ts);
        let dt = t0.elapsed();
        assert_eq!(c.decompress(), ts.values());
        println!(
            "{name:<8} ratio {:6.2}%  compress {:7.1} ms  fragments {}",
            100.0 * c.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64,
            dt.as_secs_f64() * 1e3,
            c.view().fragment_count()
        );
    }

    println!("\n== widening the function pool ==");
    let ts = Dataset::BirdMigration.generate(18_000);
    for (label, kinds) in [
        ("linear only", vec![Kind::Linear]),
        ("paper default", Kind::NEATS_DEFAULT.to_vec()),
        ("all 11 kinds", Kind::ALL.to_vec()),
    ] {
        let c = NeaTS::builder().kinds(&kinds).build(&ts);
        assert_eq!(c.decompress(), ts.values());
        println!(
            "{label:<14} ratio {:6.2}%  fragments {}",
            100.0 * c.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64,
            c.view().fragment_count()
        );
    }
}
