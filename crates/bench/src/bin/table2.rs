//! Table II: compression ratios of the lossy approaches — AA, PLA, NeaTS-L —
//! on the 16 datasets, at the per-dataset ε chosen as in the paper ("the
//! smallest ε such that NeaTS-L achieves better compression than our lossless
//! compressor NeaTS"), plus the §IV-B text numbers: MAPE and lossy
//! compression/decompression speeds.

use bench::{all_datasets, bench_n};
use lossy_baselines::{AdaptiveApprox, Pla};
use neats_core::{NeaTS, NeaTSLossy};
use std::time::Instant;
use timeseries::{CompressedSeries, TimeSeries};

/// Finds the smallest ε (by doubling, then bisection) where NeaTS-L beats
/// lossless NeaTS in size.
fn crossover_eps(ts: &TimeSeries, lossless_bytes: usize) -> u64 {
    let mut hi = 1u64;
    while NeaTS::builder().build_lossy(ts, hi).size_in_bytes() >= lossless_bytes {
        hi *= 4;
        if hi > ts.delta() {
            return hi; // degenerate: even huge ε barely wins
        }
    }
    let mut lo = hi / 4;
    while hi - lo > hi / 8 + 1 {
        let mid = lo + (hi - lo) / 2;
        if NeaTS::builder().build_lossy(ts, mid).size_in_bytes() >= lossless_bytes {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// One lossy codec on one series: ratio %, compression MB/s,
/// decompression MB/s, MAPE %.
fn measure<A: CompressedSeries>(ts: &TimeSeries, build: impl FnOnce() -> A) -> [f64; 4] {
    let raw = ts.uncompressed_bytes() as f64;
    let t0 = Instant::now();
    let archive = build();
    let compress_mbs = raw / t0.elapsed().as_secs_f64() / 1e6;
    let t0 = Instant::now();
    std::hint::black_box(archive.decompress());
    let decompress_mbs = raw / t0.elapsed().as_secs_f64() / 1e6;
    [100.0 * archive.size_in_bytes() as f64 / raw, compress_mbs, decompress_mbs, archive.mape(ts)]
}

fn main() {
    let n = bench_n();
    println!("Table II reproduction — lossy compressors, n = {n} per dataset");
    println!(
        "\n{:<6} {:>10} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "data", "eps(%rng)", "AA", "PLA", "NeaTS-L", "impr.AA%", "impr.PLA%"
    );

    // Per dataset, `measure` of each codec.
    let (mut aa, mut pla, mut nl) = (Vec::new(), Vec::new(), Vec::new());
    let mut improvements: Vec<(f64, f64)> = Vec::new();

    for (ds, ts) in all_datasets(n) {
        let lossless = NeaTS::compress(&ts).size_in_bytes();
        let eps = crossover_eps(&ts, lossless);
        let a = measure(&ts, || AdaptiveApprox::compress(&ts, eps));
        let p = measure(&ts, || Pla::compress(&ts, eps));
        let l = measure(&ts, || NeaTSLossy::compress(&ts, &neats_core::Kind::NEATS_DEFAULT, eps));

        let (ra, rp, rn) = (a[0], p[0], l[0]);
        let eps_pct = 100.0 * eps as f64 / ts.delta() as f64;
        let impr_aa = 100.0 * (ra - rn) / ra;
        let impr_pla = 100.0 * (rp - rn) / rp;
        improvements.push((impr_aa, impr_pla));
        println!(
            "{:<6} {:>10.3} {:>9.2} {:>9.2} {:>9.2} {:>11.2} {:>11.2}",
            ds.abbrev(),
            eps_pct,
            ra,
            rp,
            rn,
            impr_aa,
            impr_pla
        );
        aa.push(a);
        pla.push(p);
        nl.push(l);
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // Average of one `measure` column over the datasets.
    let col = |rows: &[[f64; 4]], i: usize| avg(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (ia, ip): (Vec<f64>, Vec<f64>) = improvements.into_iter().unzip();
    println!("\naverage NeaTS-L improvement: {:.2}% vs AA, {:.2}% vs PLA", avg(&ia), avg(&ip));
    println!("(paper: 11.77% vs AA, 7.02% vs PLA)");
    println!(
        "\nMAPE averages: AA {:.2}%  NeaTS-L {:.2}%  PLA {:.2}%   (paper: 2.47 / 2.85 / 4.37)",
        col(&aa, 3),
        col(&nl, 3),
        col(&pla, 3)
    );
    println!(
        "\nlossy compression speed MB/s: PLA {:.1}  AA {:.1}  NeaTS-L {:.1}   (paper: 123.4 / 63.1 / 18.2)",
        col(&pla, 1),
        col(&aa, 1),
        col(&nl, 1)
    );
    println!(
        "lossy decompression speed MB/s: PLA {:.0}  NeaTS-L {:.0}  AA {:.0}   (paper: 2997 / 2561 / 2420)",
        col(&pla, 2),
        col(&nl, 2),
        col(&aa, 2)
    );
}
