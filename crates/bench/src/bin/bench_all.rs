//! `bench_all` — the unified codec × shape matrix behind `neats bench all`.
//!
//! Sweeps every codec of [`bench::suite::all_codecs`] (NeaTS
//! lossless/lossy plus all twelve baselines) over every
//! [`bench::suite::Shape`]
//! (the 16 paper datasets plus 8 adversarial generators), checks
//! conformance inline, and writes `BENCH_all.json` + `BENCHMARKS.md`.
//!
//! Knobs: `NEATS_BENCH_N`, `NEATS_BENCH_QUERIES`, `NEATS_BENCH_SCAN_LEN`,
//! `NEATS_BENCH_SCANS`, `NEATS_BENCH_SEED`, `NEATS_BENCH_CODECS` /
//! `NEATS_BENCH_SHAPES` (comma-separated substring filters),
//! `NEATS_BENCH_OUT` / `NEATS_BENCH_MD` (output paths), and
//! `NEATS_BENCH_CHECK=<committed.json>` — schema-drift gate: after the
//! sweep, verify the committed artifact still declares the current schema
//! version, record keys, and full codec/shape coverage (exit 1 on drift).

use bench::suite::matrix::{check_committed, run_matrix_with, MatrixConfig, SCHEMA_VERSION};

fn main() {
    let config = MatrixConfig::from_env();
    eprintln!(
        "bench all: n={} queries={} scans={}x{} seed={}",
        config.n, config.queries, config.scans, config.scan_len, config.seed
    );
    let report = match run_matrix_with(config, |cell| {
        eprintln!(
            "  {:<14} {:<14} ratio {:>7.2}%  ra p50 {:>7.0} ns  p99 {:>8.0} ns  scan {:>8.1} Mv/s",
            cell.shape, cell.codec, cell.ratio_pct, cell.ra_p50_ns, cell.ra_p99_ns, cell.scan_mvps
        );
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("CONFORMANCE FAILURE: {e}");
            std::process::exit(1);
        }
    };

    let out = std::env::var("NEATS_BENCH_OUT").unwrap_or_else(|_| "BENCH_all.json".into());
    let md = std::env::var("NEATS_BENCH_MD").unwrap_or_else(|_| "BENCHMARKS.md".into());
    std::fs::write(&out, report.to_json().render()).expect("write json artifact");
    std::fs::write(&md, report.to_markdown()).expect("write markdown artifact");
    println!(
        "wrote {out} and {md}: {} cells ({} codecs x {} shapes), all conformant",
        report.cells.len(),
        report.codecs.len(),
        report.shapes.len()
    );

    if let Ok(committed) = std::env::var("NEATS_BENCH_CHECK") {
        match check_committed(&committed, &report) {
            Ok(()) => println!("schema check: {committed} matches schema v{SCHEMA_VERSION}"),
            Err(msg) => {
                eprintln!(
                    "SCHEMA DRIFT: {msg}\nRegenerate with `cargo run --release -p bench --bin \
                     bench_all` and commit the updated artifacts."
                );
                std::process::exit(1);
            }
        }
    }
}
