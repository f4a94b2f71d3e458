//! Size/quality ablations for five of NeaTS' design decisions — their
//! *compression effect* (their time is `benchmark/`'s per-layer
//! `neats-core.*` metrics):
//!
//! * D1 — function pool (linear / paper default / all 11 kinds);
//! * D2 — optimal DP partitioning vs greedy longest-fragment;
//! * D3 — per-fragment ε choice vs single global ε;
//! * D4 — SNeaTS sample fraction and top-k;
//! * D5 — Elias-Fano vs bitvector rank structure (space and RA speed).

use bench::{all_datasets, bench_n, query_indices};
use neats_core::fit::greedy_partition;
use neats_core::{Kind, ModelSelection, NeaTS, NeaTSCompressed, RankMode};
use std::time::Instant;
use timeseries::{CompressedSeries, TimeSeries};

fn ratio(c: &NeaTSCompressed, ts: &TimeSeries) -> f64 {
    100.0 * c.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64
}

fn main() {
    let n = (bench_n() / 4).max(1 << 14);
    let datasets = all_datasets(n);
    println!("Design ablations, n = {n} per dataset (averages over 16 datasets)\n");

    // D1: function pool.
    for (label, kinds) in [
        ("D1 linear-only", vec![Kind::Linear]),
        ("D1 paper-default", Kind::NEATS_DEFAULT.to_vec()),
        ("D1 all-11-kinds", Kind::ALL.to_vec()),
    ] {
        let avg: f64 = datasets
            .iter()
            .map(|(_, ts)| ratio(&NeaTS::builder().kinds(&kinds).build(ts), ts))
            .sum::<f64>()
            / datasets.len() as f64;
        println!("{label:<22} avg ratio {avg:6.2}%");
    }

    // D2: optimal DP vs greedy per-kind partition (same single ε, linear).
    println!();
    let mut dp_sum = 0.0;
    let mut greedy_sum = 0.0;
    for (_, ts) in &datasets {
        let eps = (ts.delta() / 512).max(2);
        let dp = NeaTS::builder().kinds(&[Kind::Linear]).epsilons(&[eps]).build(ts);
        dp_sum += ratio(&dp, ts);
        // Greedy: Corollary 1 partition encoded through the same layout.
        let frags = greedy_partition(ts.values(), Kind::Linear, eps, 0);
        let part = neats_core::partition::Partition {
            epsilons: vec![eps; frags.len()],
            cost_bits: 0,
            fragments: frags,
        };
        let g = NeaTSCompressed::encode(ts.values(), &part, 0, RankMode::EliasFano);
        assert_eq!(g.decompress(), ts.values());
        greedy_sum += ratio(&g, ts);
    }
    println!(
        "D2 dp-partition        avg ratio {:6.2}%   (greedy longest-fragment: {:6.2}%)",
        dp_sum / datasets.len() as f64,
        greedy_sum / datasets.len() as f64
    );

    // D3: ε choice.
    println!();
    for (label, cfg) in [
        ("D3 single-eps-8", Some(vec![8u64])),
        ("D3 single-eps-64", Some(vec![64u64])),
        ("D3 paper-eps-set", None),
    ] {
        let avg: f64 = datasets
            .iter()
            .map(|(_, ts)| {
                let b = NeaTS::builder();
                let b = match &cfg {
                    Some(e) => b.epsilons(e),
                    None => b,
                };
                ratio(&b.build(ts), ts)
            })
            .sum::<f64>()
            / datasets.len() as f64;
        println!("{label:<22} avg ratio {avg:6.2}%");
    }

    // D4: model selection policies.
    println!();
    for (label, policy) in [
        ("D4 sample 5% top-3", ModelSelection { sample_fraction: 0.05, top_k: 3 }),
        ("D4 sample 10% top-5", ModelSelection { sample_fraction: 0.10, top_k: 5 }),
        ("D4 sample 25% top-8", ModelSelection { sample_fraction: 0.25, top_k: 8 }),
    ] {
        let mut r = 0.0;
        let mut t = 0.0;
        for (_, ts) in &datasets {
            let t0 = Instant::now();
            let c = NeaTS::builder().model_selection(policy).build(ts);
            t += t0.elapsed().as_secs_f64();
            r += ratio(&c, ts);
        }
        println!(
            "{label:<22} avg ratio {:6.2}%  total build {:5.1}s",
            r / datasets.len() as f64,
            t
        );
    }

    // D5: rank structure — space and random-access speed.
    println!();
    for (label, mode) in
        [("D5 elias-fano", RankMode::EliasFano), ("D5 bitvector", RankMode::BitVector)]
    {
        let mut r = 0.0;
        let mut ra = 0.0;
        for (_, ts) in &datasets {
            let c = NeaTS::builder().rank_mode(mode).build(ts);
            r += ratio(&c, ts);
            let idx = query_indices(ts.len(), 5000);
            let t0 = Instant::now();
            let mut acc = 0i64;
            for &k in &idx {
                acc = acc.wrapping_add(c.get(k));
            }
            std::hint::black_box(acc);
            ra += (idx.len() * 8) as f64 / t0.elapsed().as_secs_f64() / 1e6;
        }
        println!(
            "{label:<22} avg ratio {:6.2}%  avg RA {:6.1} MB/s",
            r / datasets.len() as f64,
            ra / datasets.len() as f64
        );
    }

    // Sanity footnote: how the DP's objective compares to what the greedy
    // heuristics in LeCo-style systems achieve is LeCo's row of Table III.
    println!(
        "\n(the paper's headline tables: the table2 and fig4 binaries, and the \
         \"Paper datasets\" section of BENCHMARKS.md from `neats bench all`)"
    );
}
