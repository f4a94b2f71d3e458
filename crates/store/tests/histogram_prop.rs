//! Property tests for [`neats_store::histogram::AtomicHistogram`]: concurrent
//! recording checked against a locked oracle, snapshot merging, and the
//! bucket-boundary edges the log-linear layout must get right.

use neats_store::histogram::{
    bucket_of, bucket_upper, AtomicHistogram, HistogramSnapshot, BUCKET_COUNT,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// The oracle: the same values pushed through a mutex-guarded `Vec`.
#[derive(Default)]
struct LockedOracle {
    values: Mutex<Vec<u64>>,
}

impl LockedOracle {
    fn record(&self, v: u64) {
        self.values.lock().unwrap().push(v);
    }

    fn count(&self) -> u64 {
        self.values.lock().unwrap().len() as u64
    }

    fn sum(&self) -> u64 {
        self.values.lock().unwrap().iter().fold(0u64, |a, &v| a.wrapping_add(v))
    }

    /// Per-bucket counts through the same `bucket_of` mapping.
    fn buckets(&self) -> Vec<u64> {
        let mut out = vec![0u64; BUCKET_COUNT];
        for &v in self.values.lock().unwrap().iter() {
            out[bucket_of(v)] += 1;
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Four threads hammer the same histogram; the final snapshot must
    /// agree exactly with the locked oracle on count, sum, and every
    /// bucket — no update may be lost or double-counted.
    #[test]
    fn concurrent_records_match_locked_oracle(
        batches in prop::collection::vec(
            prop::collection::vec(0u64..2_000_000_000_000, 1..200),
            4,
        ),
    ) {
        let hist = AtomicHistogram::new();
        let oracle = LockedOracle::default();
        std::thread::scope(|s| {
            for batch in &batches {
                let (hist, oracle) = (&hist, &oracle);
                s.spawn(move || {
                    for &v in batch {
                        hist.record(v);
                        oracle.record(v);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), oracle.count());
        prop_assert_eq!(snap.sum(), oracle.sum());
        prop_assert_eq!(snap.buckets(), &oracle.buckets()[..]);
    }

    /// Merging two snapshots equals recording both value streams into one
    /// histogram: counts and buckets add, max takes the larger.
    #[test]
    fn merge_equals_combined_recording(
        a in prop::collection::vec(0u64..u64::MAX, 0..200),
        b in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let (ha, hb, hall) = (AtomicHistogram::new(), AtomicHistogram::new(), AtomicHistogram::new());
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let want = hall.snapshot();
        prop_assert_eq!(merged.count(), want.count());
        prop_assert_eq!(merged.sum(), want.sum());
        prop_assert_eq!(merged.max(), want.max());
        prop_assert_eq!(merged.buckets(), want.buckets());
        // Quantiles are derived purely from the buckets, so they agree too.
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(merged.quantile(q), want.quantile(q), "q={}", q);
        }
    }

    /// Every value lands in the bucket that brackets it:
    /// `bucket_upper(i-1) <= v < bucket_upper(i)` — with the one documented
    /// exception that the top bucket's exclusive bound `2^64` saturates to
    /// `u64::MAX`, which therefore sits *at* its own bound.
    #[test]
    fn bucket_mapping_brackets_every_value(v in 0u64..=u64::MAX) {
        let i = bucket_of(v);
        prop_assert!(i < BUCKET_COUNT);
        prop_assert!(
            v < bucket_upper(i) || (i == BUCKET_COUNT - 1 && v == u64::MAX),
            "v={} upper={}", v, bucket_upper(i)
        );
        if i > 0 {
            prop_assert!(bucket_upper(i - 1) <= v, "v={} prev upper={}", v, bucket_upper(i - 1));
        }
    }
}

/// The exact boundary edges: zero, `u64::MAX`, and values straddling each
/// (exclusive) bucket upper bound must map consistently.
#[test]
fn bucket_boundary_edges() {
    // Zero lives in the first bucket; its exclusive bound is 1.
    assert_eq!(bucket_of(0), 0);
    assert_eq!(bucket_upper(0), 1);

    // The top bucket absorbs the maximum value (its exclusive bound 2^64
    // saturates to u64::MAX).
    assert_eq!(bucket_of(u64::MAX), BUCKET_COUNT - 1);
    assert_eq!(bucket_upper(BUCKET_COUNT - 1), u64::MAX);

    // Upper bounds are strictly increasing, and each exclusive bound
    // straddles its bucket: `bound - 1` is the bucket's largest member,
    // `bound` itself already belongs to the next.
    for i in 0..BUCKET_COUNT - 1 {
        let hi = bucket_upper(i);
        assert!(hi < bucket_upper(i + 1), "bounds not increasing at {i}");
        assert_eq!(bucket_of(hi - 1), i, "{} should close bucket {i}", hi - 1);
        assert_eq!(bucket_of(hi), i + 1, "straddle {hi} from bucket {i}");
    }

    // Recording the boundary values round-trips through a snapshot.
    let hist = AtomicHistogram::new();
    hist.record(0);
    hist.record(u64::MAX);
    hist.record(bucket_upper(7) - 1);
    hist.record(bucket_upper(7));
    let snap = hist.snapshot();
    assert_eq!(snap.count(), 4);
    assert_eq!(snap.max(), u64::MAX);
    assert_eq!(snap.buckets()[0], 1);
    assert_eq!(snap.buckets()[7], 1);
    assert_eq!(snap.buckets()[8], 1);
    assert_eq!(snap.buckets()[BUCKET_COUNT - 1], 1);
    // An empty snapshot merges as the identity.
    let mut merged = HistogramSnapshot::empty();
    merged.merge(&snap);
    assert_eq!(merged.buckets(), snap.buckets());
    assert_eq!(merged.sum(), snap.sum());
}
