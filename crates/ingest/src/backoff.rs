//! Capped exponential backoff with jitter, for retry loops that must not
//! hammer a failing resource (a full disk, a flaky device) nor synchronize
//! with other retriers.
//!
//! The delay for attempt *k* grows as `base × 2^k`, capped at `cap`, then
//! jittered into the half-open upper half of that window (`[d/2, d)`, the
//! "equal jitter" scheme): retries spread out in time instead of arriving
//! in lockstep, while the expected delay still doubles per attempt. The
//! jitter source is a tiny xorshift generator seeded from
//! [`std::collections::hash_map::RandomState`], so the module needs no
//! external randomness dependency and stays `std`-only like the rest of
//! the crate. The degraded-mode retry loop of the background worker is its
//! one user.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::time::Duration;

/// A retry-delay schedule: capped exponential growth with equal jitter.
#[derive(Clone, Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base` (the uncapped delay of the first
    /// attempt) and never exceeding `cap`. A zero `base` is clamped to one
    /// millisecond so the schedule always makes progress.
    pub(crate) fn new(base: Duration, cap: Duration) -> Self {
        let base = base.max(Duration::from_millis(1));
        Self { base, cap: cap.max(base), attempt: 0, rng: seed() }
    }

    /// The jittered delay to sleep before the next attempt; advances the
    /// schedule. The result lies in `[d/2, d)` where
    /// `d = min(base × 2^attempt, cap)`.
    pub(crate) fn next_delay(&mut self) -> Duration {
        // Saturate the shift well before Duration arithmetic could
        // overflow; the cap clamps the result anyway.
        let exp = self.attempt.min(32);
        self.attempt = self.attempt.saturating_add(1);
        let full = self
            .base
            .checked_mul(1u32 << exp.min(31))
            .map_or(self.cap, |d| d.min(self.cap));
        let half = full / 2;
        half + Duration::from_nanos(self.next_u64() % half.as_nanos().max(1) as u64)
    }

    /// Rewinds the schedule after a success, so the next failure starts
    /// again from `base`.
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }

    /// xorshift64*: tiny, fast, and plenty for decorrelating sleep times.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A nonzero seed from the process-wide hash randomness.
fn seed() -> u64 {
    let mut h = RandomState::new().build_hasher();
    h.write_u64(0x9E37_79B9_7F4A_7C15);
    h.finish() | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_stay_capped() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let mut b = Backoff::new(base, cap);
        let mut prev_full = Duration::ZERO;
        for k in 0..10u32 {
            let d = b.next_delay();
            let full = base.checked_mul(1 << k.min(20)).map_or(cap, |f| f.min(cap));
            assert!(d >= full / 2 && d < full, "attempt {k}: {d:?} not in [{:?}, {full:?})", full / 2);
            assert!(full >= prev_full, "uncapped schedule must be monotone");
            prev_full = full;
        }
        assert_eq!(b.attempt, 10);
        b.reset();
        assert_eq!(b.attempt, 0);
        let d = b.next_delay();
        assert!(d < base, "after reset the first delay jitters below base again: {d:?}");
    }

    #[test]
    fn zero_base_is_clamped() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO);
        for _ in 0..5 {
            let d = b.next_delay();
            assert!(d <= Duration::from_millis(1));
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let mut b = Backoff::new(Duration::from_secs(1), Duration::from_secs(30));
        for _ in 0..100 {
            let d = b.next_delay();
            assert!(d >= Duration::from_secs(15) || b.attempt < 6);
            assert!(d < Duration::from_secs(30));
        }
    }
}
