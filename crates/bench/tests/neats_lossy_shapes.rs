//! The paper's "lossy ≤ ε" contract and the sum bound that follows from
//! it, on the adversarial shapes of [`bench::suite::shapes`]: for a NeaTS-L
//! archive of each shape the measured worst error is at most ε + 1, and
//! every `sum_range_estimate` [`Estimate`] interval contains the exact sum
//! over the *original* values.
//!
//! `codec_conformance.rs` holds NeaTS-L's point and range reads to the same
//! ε on these shapes; the estimate is what a lossy archive only has since
//! it shares the lossless archive's decoder, so this is where it meets
//! spikes, sentinels, ±2^55 magnitudes and zero-entropy input.

use bench::suite::codecs::lossy_eps;
use bench::suite::Shape;
use neats_core::{Estimate, NeaTS};
use proptest::prelude::*;
use timeseries::CompressedSeries;

fn contains(est: Estimate, exact: f64) -> bool {
    // Relative slack for the f64 rounding of sums near 2^64 (the extreme
    // shape); at ordinary magnitudes it is far below one unit.
    (est.value - exact).abs() <= est.max_error + 1e-9 * exact.abs().max(1.0)
}

fn check_shape(shape: Shape, n: usize, seed: u64, seeds: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let ts = shape.generate_seeded(n, seed);
    let eps = lossy_eps(&ts);
    let lossy = NeaTS::builder().build_lossy(&ts, eps);
    let view = lossy.view();
    prop_assert_eq!((lossy.eps(), view.eps()), (Some(eps), Some(eps)));
    let worst = lossy.max_error(&ts);
    prop_assert!(worst <= eps + 1, "{}: max error {} > eps + 1 = {}", shape.name(), worst, eps + 1);

    for &(a, b) in seeds {
        let s = a % n;
        let c = b % (n - s + 1);
        let original = &ts.values()[s..s + c];
        let exact: i128 = original.iter().map(|&v| v as i128).sum();
        let sum = view.sum_range_estimate(s, c);
        prop_assert!(contains(sum, exact as f64), "{} sum({}, {}) {:?} misses {}", shape.name(), s, c, sum, exact);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn neats_lossy_holds_eps_and_estimates_on_adversarial_shapes(
        shape_idx in 0usize..Shape::ADVERSARIAL.len(),
        n in 16usize..700,
        seed in 0u64..u64::MAX,
        range_seeds in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..6),
    ) {
        check_shape(Shape::ADVERSARIAL[shape_idx], n, seed, &range_seeds)?;
    }
}

/// Every adversarial shape at a length with many fragments, whole range and
/// an interior one — deterministic, so each shape is certainly covered.
#[test]
fn every_adversarial_shape_at_length() {
    for shape in Shape::ADVERSARIAL {
        check_shape(shape, 4096, 7, &[(0, 4096), (1000, 2000), (4095, 1)])
            .unwrap_or_else(|e| panic!("{}: {e}", shape.name()));
    }
}
