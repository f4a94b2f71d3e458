//! The two-stage parallel partitioner's hard guarantee: for every input,
//! every kind pool, and every thread count, it is *bit-identical* to the
//! reference one-pass sweep of Algorithm 1 — same `cost_bits`, same fragment
//! boundaries/origins/params, same ε choices — and therefore every archive
//! byte is independent of the thread count.

use neats_core::partition::{partition, partition_reference, positivity_shift, PartitionConfig};
use neats_core::{Kind, NeaTS, Partition};
use rand::{rngs::StdRng, Rng, SeedableRng};
use timeseries::TimeSeries;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Asserts every field of both partitions matches exactly (f64 params
/// compared bit-for-bit via `Fragment: PartialEq`).
fn assert_identical(a: &Partition, b: &Partition, what: &str) {
    assert_eq!(a.cost_bits, b.cost_bits, "{what}: cost_bits");
    assert_eq!(a.epsilons, b.epsilons, "{what}: epsilon choices");
    assert_eq!(a.fragments.len(), b.fragments.len(), "{what}: fragment count");
    for (i, (fa, fb)) in a.fragments.iter().zip(&b.fragments).enumerate() {
        assert_eq!(fa, fb, "{what}: fragment {i}");
    }
}

/// A generator zoo: random walks, regime switches, smooth nonlinear shapes,
/// constants, and values that go negative (exercising the shift).
fn series(shape: usize, n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    match shape % 5 {
        0 => {
            // plain random walk
            let mut v = 0i64;
            (0..n).map(|_| { v += rng.random_range(-25..26); v }).collect()
        }
        1 => {
            // regime switches: jumps every ~80 points
            let mut v = 100i64;
            (0..n)
                .map(|i| {
                    if i % 83 == 0 {
                        v += rng.random_range(-500..500);
                    }
                    v += rng.random_range(-3..4);
                    v
                })
                .collect()
        }
        2 => {
            // smooth sine + noise (nonlinear kinds win here)
            (0..n)
                .map(|k| {
                    (3000.0 * ((k as f64) / 40.0).sin()) as i64 + rng.random_range(-5..6)
                })
                .collect()
        }
        3 => {
            // mostly constant with occasional spikes
            (0..n).map(|_| if rng.random_range(0..50) == 0 { rng.random_range(-1000..1000) } else { 7 }).collect()
        }
        _ => {
            // negative-trending walk (forces a positivity shift)
            let mut v = -50i64;
            (0..n).map(|_| { v += rng.random_range(-9..8); v }).collect()
        }
    }
}

#[test]
fn two_stage_equals_reference_across_shapes_kinds_and_threads() {
    let kind_pools: [&[Kind]; 3] = [&[Kind::Linear], &Kind::NEATS_DEFAULT, &Kind::ALL];
    let eps_sets: [&[u64]; 2] = [&[0, 2, 8], &[0, 2, 8, 32, 128]];
    for shape in 0..5 {
        for (pi, kinds) in kind_pools.iter().enumerate() {
            let epsilons = eps_sets[shape % 2];
            let values = series(shape, 700 + 101 * shape, 1000 + shape as u64 * 7 + pi as u64);
            let max_eps = epsilons.iter().copied().max().unwrap();
            let shift = positivity_shift(&values, max_eps);
            let base = PartitionConfig::lossless(kinds, epsilons, shift);
            let reference = partition_reference(&values, &base);
            for threads in THREAD_COUNTS {
                let cfg = base.clone().with_threads(threads);
                let two_stage = partition(&values, &cfg);
                assert_identical(
                    &two_stage,
                    &reference,
                    &format!("shape={shape} pool={pi} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn two_stage_equals_reference_lossy_config() {
    for shape in 0..5 {
        let values = series(shape, 600, 77 + shape as u64);
        let shift = positivity_shift(&values, 16);
        let base = PartitionConfig::lossy(&Kind::NEATS_DEFAULT, 16, shift);
        let reference = partition_reference(&values, &base);
        for threads in THREAD_COUNTS {
            let two_stage = partition(&values, &base.clone().with_threads(threads));
            assert_identical(&two_stage, &reference, &format!("lossy shape={shape} threads={threads}"));
        }
    }
}

#[test]
fn randomized_property_many_seeds() {
    // Narrow configs, many seeds: a cheap property sweep over the space the
    // two big tests cannot cover.
    for seed in 0..30u64 {
        let values = series(seed as usize, 200 + (seed as usize % 7) * 50, seed);
        let shift = positivity_shift(&values, 8);
        let cfg = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &[0, 2, 8], shift);
        let reference = partition_reference(&values, &cfg);
        let two_stage = partition(&values, &cfg.clone().with_threads(3));
        assert_identical(&two_stage, &reference, &format!("seed={seed}"));
    }
}

#[test]
fn empty_and_tiny_inputs_agree() {
    let cfg = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &[0, 2], 10);
    for values in [vec![], vec![42i64], vec![1, 2], vec![-5, -5, -5]] {
        let shift = positivity_shift(&values, 2);
        let cfg = PartitionConfig { shift, ..cfg.clone() };
        let reference = partition_reference(&values, &cfg);
        for threads in THREAD_COUNTS {
            let two_stage = partition(&values, &cfg.clone().with_threads(threads));
            assert_identical(&two_stage, &reference, &format!("tiny {values:?} threads={threads}"));
        }
    }
}

/// The whole `Partition`, field by field, parameters by their bits (so a
/// `-0.0` for a `0.0` or one NaN for another would show).
fn assert_bit_identical(a: &Partition, b: &Partition, what: &str) {
    assert_identical(a, b, what);
    for (i, (fa, fb)) in a.fragments.iter().zip(&b.fragments).enumerate() {
        let bits = |f: &neats_core::Fragment| [f.params.m, f.params.b, f.params.extra].map(f64::to_bits);
        assert_eq!(bits(fa), bits(fb), "{what}: fragment {i} params");
    }
}

/// Inputs where many edges into a node cost the same, so the *order* in
/// which the sweep relaxes them — not their cost — decides which fragment,
/// origin and ε end up in the partition.
fn tie_heavy_series() -> Vec<(&'static str, Vec<i64>)> {
    vec![
        // Every default kind fits the whole of these at ε = 0; linear,
        // exponential and sqrt also share κ, so only pair order separates them.
        ("constant", vec![7; 300]),
        ("exact line", (0..300).map(|k| 5 * k + 11).collect()),
        ("two-level step", (0..300).map(|k| if k < 137 { 40 } else { 90 }).collect()),
        ("period 2", (0..301).map(|k| [10, 250][k % 2]).collect()),
        ("period 3", (0..301).map(|k| [10, 250, 90][k % 3]).collect()),
        ("n = 1", vec![3]),
        ("n = 2", vec![3, 1000]),
        ("n = 3", vec![3, 1000, 4]),
        // Long runs of equal values broken by single spikes: whole families
        // of equal-cost prefix and suffix edges around each spike.
        ("plateaus", (0..400).map(|k| if k % 57 == 56 { 900 } else { 100 + (k / 57) as i64 }).collect()),
    ]
}

#[test]
fn ties_are_broken_like_the_reference() {
    let eps_sets: [&[u64]; 3] = [&[0], &[0, 2, 8], &[0, 2, 4, 8, 16, 32, 64, 128, 256]];
    for (name, values) in tie_heavy_series() {
        for epsilons in eps_sets {
            let shift = positivity_shift(&values, *epsilons.last().unwrap());
            for base in [
                PartitionConfig::lossless(&Kind::NEATS_DEFAULT, epsilons, shift),
                PartitionConfig::lossless(&Kind::ALL, epsilons, shift),
                // Lossy: every edge of a kind costs κ alone, whatever its
                // length — nothing but ties.
                PartitionConfig::lossy(&Kind::NEATS_DEFAULT, *epsilons.last().unwrap(), shift),
            ] {
                let reference = partition_reference(&values, &base);
                for threads in THREAD_COUNTS {
                    let swept = partition(&values, &base.clone().with_threads(threads));
                    let what = format!(
                        "{name} eps={epsilons:?} pairs={} lossless={} threads={threads}",
                        base.pairs.len(),
                        base.lossless
                    );
                    assert_bit_identical(&swept, &reference, &what);
                }
            }
        }
    }
}

#[test]
fn undefined_log_domain_stretches_agree() {
    // shift = 0 over values that dip to zero and below: the log-domain
    // pairs' transforms are undefined wherever y − ε ≤ 0, so their span
    // lists have gaps (and start late, or never) while the other kinds
    // cover every node. The sweep parks such a pair until its next span.
    let mut rng = StdRng::seed_from_u64(404);
    let dipping: Vec<i64> = (0..500)
        .map(|k| {
            let base = 60.0 * ((k as f64) / 23.0).sin() + 25.0; // crosses zero every ~72 points
            base as i64 + rng.random_range(-3..4)
        })
        .collect();
    let islands: Vec<i64> = (0..400).map(|k| if (k / 40) % 2 == 0 { -5 - (k % 7) as i64 } else { 300 + 3 * (k % 40) as i64 }).collect();
    let never: Vec<i64> = (0..200).map(|k| -(k as i64) - 1).collect();
    for (name, values) in [("dipping", dipping), ("islands", islands), ("never positive", never)] {
        for kinds in [&Kind::NEATS_DEFAULT[..], &Kind::ALL[..], &[Kind::Exponential, Kind::Linear, Kind::Power, Kind::Gaussian][..]] {
            for epsilons in [&[0u64, 2, 8][..], &[0, 4, 64][..]] {
                let base = PartitionConfig::lossless(kinds, epsilons, 0);
                let reference = partition_reference(&values, &base);
                for threads in THREAD_COUNTS {
                    let swept = partition(&values, &base.clone().with_threads(threads));
                    let what = format!("{name} kinds={} eps={epsilons:?} threads={threads}", kinds.len());
                    assert_bit_identical(&swept, &reference, &what);
                }
            }
        }
    }
}

#[test]
fn archive_bytes_are_thread_count_invariant() {
    // End-to-end determinism: the serialised archive must be byte-identical
    // regardless of how many workers partitioned it.
    for shape in 0..3 {
        let values = series(shape, 3000, 9 + shape as u64);
        let ts = TimeSeries::from_values(values);
        let archives: Vec<Vec<u8>> = THREAD_COUNTS
            .iter()
            .map(|&t| NeaTS::builder().threads(t).build(&ts).to_bytes())
            .collect();
        for (i, bytes) in archives.iter().enumerate().skip(1) {
            assert_eq!(
                bytes, &archives[0],
                "shape={shape}: archive differs between {} and {} threads",
                THREAD_COUNTS[0], THREAD_COUNTS[i]
            );
        }
    }
}

#[test]
fn sneats_model_selection_is_thread_count_invariant() {
    // Model selection partitions a sample internally; the selected pair set
    // (and thus the archive) must not depend on the thread count either.
    let values = series(2, 4000, 5);
    let ts = TimeSeries::from_values(values);
    let archives: Vec<Vec<u8>> = THREAD_COUNTS
        .iter()
        .map(|&t| NeaTS::sneats().threads(t).build(&ts).to_bytes())
        .collect();
    assert!(archives.windows(2).all(|w| w[0] == w[1]), "sneats archives differ across threads");
}
