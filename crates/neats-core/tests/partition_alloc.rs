//! Asserts, via a counting global allocator, that building allocates per
//! *pair*, not per *fragment*: `partition()` keeps one fitter per `(f, ε)`
//! pair, whose two hull buffers it reuses across every fragment of the
//! pair's greedy tiling, and one more for the backtrack's refits. On a noisy
//! series stage 1 grows over a hundred thousand fragments; allocating two
//! hull vectors for each of them (as a fresh fitter per fragment does) would
//! show up here as at least twice that many calls.

use neats_core::partition::{partition, PartitionConfig};
use neats_core::{default_epsilons, positivity_shift, Kind};
use rand::{rngs::StdRng, Rng, SeedableRng};
use test_support::{measure, CountingAlloc};
use timeseries::TimeSeries;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn partition_allocates_per_pair_not_per_fragment() {
    const N: usize = 8192;
    let mut rng = StdRng::seed_from_u64(19);
    let mut v = 0i64;
    let values: Vec<i64> = (0..N).map(|_| { v += rng.random_range(-40..41); v }).collect();
    let ts = TimeSeries::from_values(values);

    // What `NeaTS::compress` runs: four kinds × the automatic ladder.
    let epsilons = default_epsilons(ts.delta());
    let shift = positivity_shift(ts.values(), *epsilons.last().unwrap());
    let config = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &epsilons, shift).with_threads(1);
    let pairs = config.pairs.len();

    let (allocs, part) = measure(|| partition(ts.values(), &config));
    let calls = allocs.calls;

    assert_eq!(part.fragments.last().map(|f| f.end), Some(N));

    // Per pair: the span list (⌈log₂ N⌉ doublings at most) and two hull
    // buffers (a hull of a noisy fragment holds a handful of points; a few
    // doublings each). Per call: the f64 view, the sweep's arrays, the
    // backtrack's fitter and the result — a few dozen, whatever N is.
    let bound = pairs * (N.ilog2() as usize + 8) + 64;
    println!("{calls} allocations, {pairs} pairs, bound {bound}");
    // Only this thread is counted: one worker thread keeps the build on it.
    assert!(calls >= pairs, "{calls} allocations for {pairs} pairs: the window missed the build");
    assert!(
        calls <= bound,
        "{calls} allocations for {pairs} pairs over {N} points (bound {bound}): \
         the build path allocates per fragment again"
    );
}
