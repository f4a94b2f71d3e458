//! # bench — the experiment harness regenerating every table and figure
//!
//! Binaries (run with `cargo run --release -p bench --bin <name>`):
//!
//! * `table2` — lossy comparison AA vs PLA vs NeaTS-L (paper Table II plus
//!   the §IV-B MAPE and speed numbers);
//! * `table3` — per-dataset compression ratio / decompression speed /
//!   random-access speed for all 13 lossless compressors (paper Table III);
//! * `fig2` — ratio vs compression speed, averaged (paper Fig. 2, including
//!   the LeaTS and SNeaTS variants);
//! * `fig3` — ratio vs decompression speed and ratio vs random-access speed
//!   (paper Fig. 3);
//! * `fig4` — range-query throughput across range sizes (paper Fig. 4);
//! * `ablations` — the compression effect of each design decision (function
//!   pool, optimal vs greedy partitioning, per-fragment ε, SNeaTS sampling,
//!   rank structure);
//! * `gendata` — exports the 16 synthetic datasets as text files;
//! * `bench_all` — the unified [`suite`]: every codec (NeaTS flavours and
//!   all baselines, behind the workspace's one `timeseries::Compressor` /
//!   `CompressedSeries` pair) × every shape (the 16 paper datasets plus 8
//!   adversarial generators), conformance-checked inline, written to
//!   `BENCH_all.json` + `BENCHMARKS.md`. Also reachable as
//!   `neats bench all`.
//!
//! System-level numbers — store, ingest and serve throughput and latency,
//! partitioner scaling — are the per-layer metrics of `benchmark/` at the
//! repository root, not of this crate.
//!
//! Knobs (environment variables):
//!
//! * `NEATS_BENCH_N` — points per dataset (default 131072);
//! * `NEATS_BENCH_QUERIES` — random-access queries (default 20000);
//! * `bench_all` only: `NEATS_BENCH_CODECS` / `NEATS_BENCH_SHAPES`
//!   (comma-separated substring filters), `NEATS_BENCH_SCAN_LEN` /
//!   `NEATS_BENCH_SCANS`, `NEATS_BENCH_SEED`, `NEATS_BENCH_OUT` /
//!   `NEATS_BENCH_MD` (artifact paths) and `NEATS_BENCH_CHECK`
//!   (schema-drift gate against a committed artifact).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod json;
pub mod suite;
use lossless_baselines::paper_competitors;
use neats_core::NeaTSCompressor;
use std::time::Instant;
use timeseries::{AnyCompressor, Dataset, TimeSeries};

/// A `usize` knob from the environment, falling back to `default` when the
/// variable is unset or unparseable — the shared parsing rule for every
/// `NEATS_BENCH_*` scalar.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Points per dataset (env `NEATS_BENCH_N`).
pub fn bench_n() -> usize {
    env_usize("NEATS_BENCH_N", 1 << 17)
}

/// Random-access query count (env `NEATS_BENCH_QUERIES`).
pub fn bench_queries() -> usize {
    env_usize("NEATS_BENCH_QUERIES", 20_000)
}

/// Generates all 16 paper datasets at `n` points.
pub fn all_datasets(n: usize) -> Vec<(Dataset, TimeSeries)> {
    Dataset::ALL.iter().map(|&ds| (ds, ds.generate(n))).collect()
}

/// The 13 lossless compressors of Table III (competitors + NeaTS).
pub fn lossless_roster() -> Vec<Box<dyn AnyCompressor>> {
    let mut v = paper_competitors();
    v.push(Box::new(NeaTSCompressor::neats()));
    v
}

/// Fig. 2 roster: Table III compressors plus the LeaTS/SNeaTS variants.
pub fn fig2_roster() -> Vec<Box<dyn AnyCompressor>> {
    let mut v = lossless_roster();
    v.push(Box::new(NeaTSCompressor::leats()));
    v.push(Box::new(NeaTSCompressor::sneats()));
    v
}

/// One compressor's measurements on one dataset.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Compression ratio in % of raw 64-bit storage.
    pub ratio_pct: f64,
    /// Compression speed, MB/s of raw input.
    pub compress_mbs: f64,
    /// Decompression speed, MB/s of raw output.
    pub decompress_mbs: f64,
    /// Random access speed, MB/s of accessed values.
    pub random_access_mbs: f64,
}

/// Deterministic query index sequence (multiplicative hashing) over
/// `0..n`; empty when `n == 0`, where there is nothing to query.
pub fn query_indices(n: usize, queries: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut idx = Vec::with_capacity(queries);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..queries {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        idx.push((x >> 11) as usize % n);
    }
    idx
}

/// Timed repetitions per speed measurement; the fastest is reported
/// (standard practice to filter scheduler noise on shared machines).
const SPEED_REPS: usize = 3;

/// Measures one compressor on one series (compress once, then timed
/// decompression and random access, best of `SPEED_REPS` repetitions).
pub fn measure(comp: &dyn AnyCompressor, ts: &TimeSeries, queries: usize) -> Measurement {
    let raw = ts.uncompressed_bytes() as f64;
    let t0 = Instant::now();
    let c = comp.compress_boxed(ts);
    let compress_mbs = raw / t0.elapsed().as_secs_f64() / 1e6;
    let ratio_pct = 100.0 * c.size_in_bytes() as f64 / raw;

    let mut best_dec = f64::INFINITY;
    for rep in 0..SPEED_REPS {
        let t0 = Instant::now();
        let dec = c.decompress();
        best_dec = best_dec.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            assert_eq!(dec.len(), ts.len(), "{} length mismatch", comp.name());
        }
        std::hint::black_box(&dec);
    }
    let decompress_mbs = raw / best_dec / 1e6;

    let idx = query_indices(ts.len(), queries);
    let mut best_ra = f64::INFINITY;
    for _ in 0..SPEED_REPS {
        let t0 = Instant::now();
        let mut acc = 0i64;
        for &k in &idx {
            acc = acc.wrapping_add(c.get(k));
        }
        std::hint::black_box(acc);
        best_ra = best_ra.min(t0.elapsed().as_secs_f64());
    }
    let random_access_mbs = (queries * 8) as f64 / best_ra / 1e6;

    Measurement { ratio_pct, compress_mbs, decompress_mbs, random_access_mbs }
}

/// Geometric mean, the right way to average ratios across datasets.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (logs / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_have_expected_sizes() {
        assert_eq!(lossless_roster().len(), 10); // 9 competitors + NeaTS
        assert_eq!(fig2_roster().len(), 12); // + LeaTS, SNeaTS
    }

    #[test]
    fn query_indices_in_range_and_deterministic() {
        let a = query_indices(1000, 500);
        let b = query_indices(1000, 500);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 1000));
        // spread over the domain
        assert!(a.iter().filter(|&&i| i < 500).count() > 100);
        assert!(query_indices(0, 500).is_empty());
    }

    #[test]
    fn measure_smoke() {
        let ts = Dataset::CityTemp.generate(2000);
        let comp = NeaTSCompressor::neats();
        let m = measure(&comp, &ts, 100);
        assert!(m.ratio_pct > 0.0 && m.ratio_pct < 100.0);
        assert!(m.compress_mbs > 0.0);
        assert!(m.decompress_mbs > 0.0);
        assert!(m.random_access_mbs > 0.0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }
}
