//! NeaTS-L: the lossy compressor with a maximum-error guarantee.
//!
//! Dropping the corrections from the NeaTS representation leaves a piecewise
//! nonlinear ε-approximation: each value is reconstructed as `⌊f(u)⌋`, with
//! `|y − ⌊f(u)⌋| ≤ ε` guaranteed (paper §III-B, "Partitioning for lossy
//! compression"). The partitioner minimises the storage of the function
//! parameters alone, running in O(|F|·n).
//!
//! This module is that partitioning and the encoder of the lossy frame (the
//! lossless section sequence minus `B`, `O`, `C`, plus ε in the header).
//! Decoding is [`crate::view::ArchiveView`], the same body that decodes a
//! lossless archive whose every correction width is 0.

use crate::fit::{tighten_until_within, Kind};
use crate::owned::OwnedArchive;
use crate::partition::{partition, positivity_shift, Partition, PartitionConfig};
use crate::serial::{self, ArchiveFlavor, ModelSections, SectionWriter};
use crate::view::ArchiveView;
use succinct::{EliasFano, Wire, WireError};
use timeseries::{CompressedSeries, TimeSeries};

/// A lossy, randomly-accessible piecewise-nonlinear approximation: the
/// serialized archive (shared, immutable — `Clone` is a reference-count
/// bump) and the [`ArchiveView`] over it, which answers every query.
///
/// ```
/// use neats_core::{Kind, NeaTSLossy};
/// use timeseries::{CompressedSeries, TimeSeries};
///
/// let ts = TimeSeries::from_values((0..2000).map(|k| k * k / 50).collect());
/// let lossy = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 10);
/// assert!(lossy.max_error(&ts) <= 11); // the ε guarantee (+1 floor slack)
/// assert!(lossy.size_in_bytes() < ts.uncompressed_bytes() / 20);
/// ```
#[derive(Clone, Debug)]
pub struct NeaTSLossy {
    archive: OwnedArchive,
    /// The archive's ε, read once at construction — where a frame that
    /// states none (a lossless one) is turned away.
    eps: u64,
}

impl NeaTSLossy {
    /// Compresses `ts` under the error bound `eps` using the given function
    /// families.
    pub fn compress(ts: &TimeSeries, kinds: &[Kind], eps: u64) -> Self {
        Self::compress_with_threads(ts, kinds, eps, 0)
    }

    /// [`Self::compress`] with an explicit partitioner thread count
    /// (`0` = automatic; see [`crate::parallel::effective_threads`]). The
    /// output is bit-identical for every thread count.
    pub fn compress_with_threads(
        ts: &TimeSeries,
        kinds: &[Kind],
        eps: u64,
        threads: usize,
    ) -> Self {
        let values = ts.values();
        let shift = positivity_shift(values, eps);
        tighten_until_within(ts, shift, eps, |fit_eps| {
            let cfg = PartitionConfig::lossy(kinds, fit_eps, shift).with_threads(threads);
            Self::encode(&partition(values, &cfg), values.len(), shift, eps)
        })
    }

    fn encode(part: &Partition, n: usize, shift: i64, eps: u64) -> Self {
        let mut starts = Vec::with_capacity(part.fragments.len());
        let mut models = ModelSections::default();
        for frag in &part.fragments {
            starts.push(frag.start as u64);
            models.push(frag);
        }

        // One container section per component, in the order
        // `ArchiveFlavor::section_names` lists them.
        let mut sw = SectionWriter::new();
        sw.w.u64(n as u64);
        sw.w.i64(shift);
        sw.w.u64(eps);
        sw.mark(); // header
        EliasFano::new(&starts).write(&mut sw.w);
        sw.mark(); // starts
        models.write(&mut sw);
        Self { archive: OwnedArchive::from_encoder(serial::frame(ArchiveFlavor::Lossy, sw)), eps }
    }

    /// Loads a buffer produced by [`Self::to_bytes`]: one copy of the bytes,
    /// then [`crate::ArchiveView::open`] on the copy.
    pub fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        let archive = OwnedArchive::open(data)?;
        let eps = archive.view().eps().ok_or(WireError::Corrupt("not a lossy archive"))?;
        Ok(Self { archive, eps })
    }

    /// The archive as a self-contained, checksummed container frame.
    pub fn as_bytes(&self) -> &[u8] {
        self.archive.as_bytes()
    }

    /// A copy of [`Self::as_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// The decoder over this archive's bytes. The methods below and the
    /// [`CompressedSeries`] impl — the interface PLA and AA share — are
    /// its; fragment inspection and the aggregates are reached through it.
    #[inline]
    pub fn view(&self) -> &ArchiveView<'_> {
        self.archive.view()
    }

    /// The approximated value at position `k` (random access).
    pub fn approximate(&self, k: usize) -> i64 {
        self.view().at(k)
    }

    /// Materialises the whole approximated series.
    pub fn reconstruct(&self) -> Vec<i64> {
        self.view().materialize()
    }
}

/// The archive contract PLA and AA share: `get` is [`NeaTSLossy::approximate`],
/// `decompress` is [`NeaTSLossy::reconstruct`], and `eps` is the bound the
/// approximation was built under.
impl CompressedSeries for NeaTSLossy {
    fn len(&self) -> usize {
        self.view().len()
    }

    fn size_in_bytes(&self) -> usize {
        self.view().size_in_bytes()
    }

    fn decompress(&self) -> Vec<i64> {
        self.reconstruct()
    }

    fn get(&self, k: usize) -> i64 {
        self.approximate(k)
    }

    fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        self.view().scan_range(start, count, out)
    }

    fn eps(&self) -> Option<u64> {
        Some(self.eps)
    }

    /// The view's block fold: no materialised copy, which matters because
    /// [`NeaTSLossy::compress`] measures every tightening round.
    fn max_error(&self, original: &TimeSeries) -> u64 {
        self.view().max_error(original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy_sine(n: usize, seed: u64, noise: i64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        TimeSeries::from_values(
            (0..n)
                .map(|k| {
                    (5000.0 * ((k as f64) / 200.0).sin()) as i64 + rng.random_range(-noise..=noise)
                })
                .collect(),
        )
    }

    #[test]
    fn error_bound_holds() {
        let ts = noisy_sine(5000, 1, 10);
        for eps in [16u64, 64, 256] {
            let l = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, eps);
            // +1 slack for floor/float edge (documented deviation)
            assert!(l.max_error(&ts) <= eps + 1, "eps={eps} err={}", l.max_error(&ts));
        }
    }

    #[test]
    fn error_bound_holds_beyond_f64_exact_integer_range() {
        // Regression: values past 2^53 are not exactly representable in
        // f64, so the fitter's float-space ε-guarantee used to miss the
        // integer-domain bound by a few ULPs (a unit or two at 2^55).
        // The fit is now tightened by the representation slack.
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: i64 = 3 << 53;
        let values: Vec<i64> = (0..4000)
            .map(|_| {
                v += rng.random_range(-(1i64 << 42)..(1i64 << 42));
                v
            })
            .collect();
        let ts = TimeSeries::from_values(values);
        let eps = ts.delta() / 200;
        let l = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, eps);
        assert_eq!(l.eps(), Some(eps), "stored bound must be the requested one");
        assert!(l.max_error(&ts) <= eps + 1, "err {} > {}", l.max_error(&ts), eps + 1);
    }

    #[test]
    fn random_access_matches_reconstruct() {
        let ts = noisy_sine(3000, 2, 5);
        let l = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 32);
        let recon = l.reconstruct();
        assert_eq!(recon.len(), ts.len());
        for k in (0..ts.len()).step_by(37) {
            assert_eq!(l.approximate(k), recon[k], "k={k}");
        }
    }

    #[test]
    fn bigger_eps_fewer_fragments() {
        let ts = noisy_sine(5000, 3, 20);
        let small = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 8);
        let large = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 512);
        assert!(
            large.view().fragment_count() < small.view().fragment_count(),
            "{} !< {}",
            large.view().fragment_count(),
            small.view().fragment_count()
        );
        assert!(large.size_in_bytes() < small.size_in_bytes());
    }

    #[test]
    fn lossy_is_much_smaller_than_raw() {
        let ts = noisy_sine(10_000, 4, 10);
        let l = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 100);
        let ratio = l.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64;
        assert!(ratio < 0.10, "lossy ratio {ratio}");
    }

    #[test]
    fn mape_is_small_for_generous_eps() {
        let ts = noisy_sine(3000, 5, 5);
        let l = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 50);
        let mape = l.mape(&ts);
        assert!(mape.is_finite());
        // values are in the thousands, eps 50 → sub-5% error typical
        assert!(mape < 20.0, "mape {mape}");
    }

    #[test]
    fn empty_and_tiny_series() {
        let empty = TimeSeries::from_values(vec![]);
        let l = NeaTSLossy::compress(&empty, &[Kind::Linear], 4);
        assert!(l.is_empty());
        assert_eq!(l.reconstruct(), Vec::<i64>::new());

        let one = TimeSeries::from_values(vec![9]);
        let l = NeaTSLossy::compress(&one, &[Kind::Linear], 0);
        assert_eq!(l.approximate(0), 9);
    }

    #[test]
    fn nonlinear_kinds_reduce_fragments_on_nonlinear_data() {
        // Pure exponential growth: with exp in the pool, far fewer fragments.
        let values: Vec<i64> =
            (1..=4000).map(|u| (100.0 * (0.002 * u as f64).exp()) as i64).collect();
        let ts = TimeSeries::from_values(values);
        let with_exp = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 4);
        let lin_only = NeaTSLossy::compress(&ts, &[Kind::Linear], 4);
        assert!(
            with_exp.view().fragment_count() < lin_only.view().fragment_count(),
            "exp {} !< linear {}",
            with_exp.view().fragment_count(),
            lin_only.view().fragment_count()
        );
    }
}
