//! # bench — the experiment harness regenerating every table and figure
//!
//! The paper's Table III and Figs. 2–3 are one sweep, the unified [`suite`]:
//! every codec (NeaTS flavours and all baselines, behind the workspace's one
//! `timeseries::Compressor` / `CompressedSeries` pair) × every shape (the 16
//! paper datasets plus 8 adversarial generators), conformance-checked
//! inline, written to `BENCH_all.json` + `BENCHMARKS.md` by `neats bench
//! all`. The markdown's "Paper datasets" section is Table III, the Fig. 2 /
//! Fig. 3 points and the paper's comparisons, read off the paper-dataset
//! cells.
//!
//! Binaries for the work the matrix does not do (run with
//! `cargo run --release -p bench --bin <name>`):
//!
//! * `table2` — lossy comparison AA vs PLA vs NeaTS-L (paper Table II plus
//!   the §IV-B MAPE and speed numbers);
//! * `fig4` — range-query throughput across range sizes (paper Fig. 4);
//! * `ablations` — the compression effect of each design decision (function
//!   pool, optimal vs greedy partitioning, per-fragment ε, SNeaTS sampling,
//!   rank structure);
//! * `gendata` — exports the 16 synthetic datasets as text files.
//!
//! System-level numbers — store, ingest and serve throughput and latency,
//! partitioner scaling — are the per-layer metrics of `benchmark/` at the
//! repository root, not of this crate.
//!
//! Knobs (environment variables):
//!
//! * `NEATS_BENCH_N` — points per dataset (default 131072);
//! * `NEATS_BENCH_QUERIES` — random-access queries (default 20000);
//! * `neats bench all` only: `NEATS_BENCH_SCAN_LEN` / `NEATS_BENCH_SCANS`
//!   (range-scan length and count per cell).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod json;
pub mod suite;
use timeseries::{Dataset, TimeSeries};

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

/// Generates all 16 paper datasets at `n` points.
pub fn all_datasets(n: usize) -> Vec<(Dataset, TimeSeries)> {
    Dataset::ALL.iter().map(|&ds| (ds, ds.generate(n))).collect()
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

/// Geometric mean, the right way to average ratios across datasets.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (logs / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn geomean_basic() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }
}
