//! The NeaTS compressed layout (paper §III-C): its encoder and the handle
//! that owns an encoded archive.
//!
//! A compressed series is the tuple `⟨S, B, O, C, K, P⟩`:
//!
//! * `S` — fragment start positions, Elias-Fano coded (or a plain bitvector
//!   with constant-time rank, the paper's O(1) alternative);
//! * `B` — per-fragment correction bit widths, bit-packed;
//! * `O` — cumulative correction bit offsets, Elias-Fano coded;
//! * `C` — the packed corrections bit string;
//! * `K` — the function-kind string, a wavelet matrix supporting `rank_f`;
//! * `P` — per-kind concatenated parameter arrays, indexed by `K.rank_f(i)`.
//!
//! [`NeaTSCompressed::encode`] builds the six components and writes them
//! into the container frame of [`crate::serial`]. A [`NeaTSCompressed`] *is*
//! that frame plus the [`ArchiveView`] parsed from it: nothing here
//! decodes. [`CompressedSeries::decompress`] is the view's Algorithm 2
//! (`materialize`), [`CompressedSeries::get`] its Algorithm 3 (`at`) and
//! [`CompressedSeries::scan_range`] its range query (§IV-C4) — see
//! [`crate::view`].

use crate::fit::{max_abs_residual, model_value};
use crate::owned::OwnedArchive;
use crate::partition::Partition;
use crate::serial::{self, ArchiveFlavor, ModelSections, SectionWriter};
use crate::view::ArchiveView;
use succinct::{bits_for_residual_bound, BitBuf, BitVector, EliasFano, PackedVec, Wire, WireError};
use timeseries::CompressedSeries;

/// How the fragment-start array `S` answers rank queries (ablation D5 of
/// the `ablations` bench binary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RankMode {
    /// Elias-Fano: smallest space, `O(min(log m, log n/m))` rank.
    #[default]
    EliasFano,
    /// Plain bitvector of length n: larger, constant-time rank (paper's
    /// "we can easily achieve O(1) time" remark).
    BitVector,
}

/// `S` as one bit per position, set at every fragment start.
fn start_bitvector(starts: &[u64], n: usize) -> BitVector {
    let mut bits = vec![false; n];
    for &s in starts {
        bits[s as usize] = true;
    }
    BitVector::from_bools(&bits)
}

/// A NeaTS-compressed time series with lossless random access: the
/// serialized archive (shared, immutable — `Clone` is a reference-count
/// bump) and the [`ArchiveView`] over it, which answers every query.
#[derive(Clone, Debug)]
pub struct NeaTSCompressed(OwnedArchive);

impl NeaTSCompressed {
    /// Encodes a partition produced by Algorithm 1.
    ///
    /// Correction widths are derived from each fragment's *measured* maximum
    /// residual (≥ the planned `⌈log(2ε+1)⌉` only under floating-point edge
    /// cases), which keeps decompression exactly lossless.
    pub fn encode(values: &[i64], partition: &Partition, shift: i64, mode: RankMode) -> Self {
        let n = values.len();
        let m = partition.fragments.len();
        let mut starts = Vec::with_capacity(m);
        let mut widths = Vec::with_capacity(m);
        let mut offsets = Vec::with_capacity(m + 1);
        let mut models = ModelSections::default();
        let mut corrections = BitBuf::new();

        offsets.push(0u64);
        for frag in &partition.fragments {
            let r = max_abs_residual(values, frag, shift);
            let w = bits_for_residual_bound(r);
            // Bias-coded corrections in wrapping u64 arithmetic: exact for
            // |c| ≤ r < 2^{w-1}, and still bijective at w = 64 where the
            // residual itself may wrap i64 (extreme-magnitude data).
            let bias = if w == 0 { 0u64 } else { 1u64 << (w - 1) };
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            for (off, &y) in values[frag.start..frag.end].iter().enumerate() {
                let c = y.wrapping_sub(model_value(frag, frag.start + off, shift));
                debug_assert!(y.abs_diff(model_value(frag, frag.start + off, shift)) <= r);
                corrections.push_bits((c as u64).wrapping_add(bias) & mask, w);
            }
            starts.push(frag.start as u64);
            widths.push(w as u64);
            offsets.push(corrections.len() as u64);
            models.push(frag);
        }

        // One container section per component, in the order
        // `ArchiveFlavor::section_names` lists them.
        let mut sw = SectionWriter::new();
        sw.w.u64(n as u64);
        sw.w.i64(shift);
        sw.w.u8(match mode {
            RankMode::EliasFano => 0,
            RankMode::BitVector => 1,
        });
        sw.mark(); // header
        match mode {
            RankMode::EliasFano => EliasFano::new(&starts).write(&mut sw.w),
            RankMode::BitVector => start_bitvector(&starts, n).write(&mut sw.w),
        }
        sw.mark(); // starts
        PackedVec::new(&widths).write(&mut sw.w);
        sw.mark(); // widths
        EliasFano::new(&offsets).write(&mut sw.w);
        sw.mark(); // offsets
        corrections.write(&mut sw.w);
        sw.mark(); // corrections
        models.write(&mut sw);
        Self(OwnedArchive::from_encoder(serial::frame(ArchiveFlavor::Lossless, sw)))
    }

    /// Loads a buffer produced by [`Self::to_bytes`]: one copy of the bytes,
    /// then [`crate::ArchiveView::open`] on the copy — the checksum and
    /// every structural invariant are verified before any query can run.
    /// A lossy archive is rejected here, once, so no query has to ask.
    pub fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        let archive = OwnedArchive::open(data)?;
        if archive.view().eps().is_some() {
            return Err(WireError::Corrupt("not a lossless archive"));
        }
        Ok(Self(archive))
    }

    /// The archive as a self-contained, checksummed container frame (see
    /// [`crate::serial`] for the layout).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// A copy of [`Self::as_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// The decoder over this archive's bytes. [`CompressedSeries`] is
    /// implemented through it; fragment inspection (`fragment`,
    /// `kind_histogram`, …) and the aggregates (`sum_range_exact`,
    /// `sum_range_estimate`) are its methods.
    #[inline]
    pub fn view(&self) -> &ArchiveView<'_> {
        self.0.view()
    }
}

impl CompressedSeries for NeaTSCompressed {
    fn len(&self) -> usize {
        self.view().len()
    }

    fn size_in_bytes(&self) -> usize {
        self.view().size_in_bytes()
    }

    fn decompress(&self) -> Vec<i64> {
        self.view().materialize()
    }

    fn get(&self, k: usize) -> i64 {
        self.view().at(k)
    }

    fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        self.view().scan_range(start, count, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::Kind;
    use crate::partition::{partition, positivity_shift, PartitionConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build(values: &[i64], kinds: &[Kind], epsilons: &[u64], mode: RankMode) -> NeaTSCompressed {
        let max_eps = epsilons.iter().copied().max().unwrap_or(0);
        let shift = positivity_shift(values, max_eps);
        let cfg = PartitionConfig::lossless(kinds, epsilons, shift);
        let part = partition(values, &cfg);
        NeaTSCompressed::encode(values, &part, shift, mode)
    }

    fn random_walk(n: usize, seed: u64, step: i64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0i64;
        (0..n).map(|_| { v += rng.random_range(-step..=step); v }).collect()
    }

    #[test]
    fn lossless_roundtrip_both_rank_modes() {
        let values = random_walk(3000, 5, 20);
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8, 32], mode);
            assert_eq!(c.len(), values.len());
            assert_eq!(c.decompress(), values, "{mode:?} decompress");
            for (k, &v) in values.iter().enumerate() {
                assert_eq!(c.get(k), v, "{mode:?} get({k})");
            }
        }
    }

    #[test]
    fn scan_range_matches_slice() {
        let values = random_walk(2000, 11, 50);
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8], RankMode::EliasFano);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = rng.random_range(0..values.len());
            let l = rng.random_range(0..=(values.len() - s).min(300));
            let mut out = Vec::new();
            c.scan_range(s, l, &mut out);
            assert_eq!(out, &values[s..s + l], "range [{s}, {})", s + l);
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        // A smooth sine + small noise: NeaTS must beat raw 64-bit storage by a lot.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i64> = (0..20_000)
            .map(|k| (10_000.0 * ((k as f64) / 500.0).sin()) as i64 + rng.random_range(-3..4))
            .collect();
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8, 32, 128], RankMode::EliasFano);
        assert_eq!(c.decompress(), values);
        let ratio = c.size_in_bytes() as f64 / (values.len() * 8) as f64;
        assert!(ratio < 0.25, "ratio {ratio} too poor for smooth data");
    }

    #[test]
    fn empty_series() {
        let c = build(&[], &[Kind::Linear], &[0], RankMode::EliasFano);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.decompress(), Vec::<i64>::new());
        assert_eq!(c.view().fragment_count(), 0);
    }

    #[test]
    fn single_value_series() {
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let c = build(&[-77], &[Kind::Linear], &[0], mode);
            assert_eq!(c.get(0), -77);
            assert_eq!(c.decompress(), vec![-77]);
        }
    }

    #[test]
    fn constant_series_is_tiny() {
        let values = vec![42i64; 10_000];
        let c = build(&values, &[Kind::Linear], &[0], RankMode::EliasFano);
        assert_eq!(c.decompress(), values);
        assert_eq!(c.view().fragment_count(), 1);
        assert!(c.size_in_bytes() < 200, "constant series took {} bytes", c.size_in_bytes());
    }

    #[test]
    fn negative_values_with_log_kinds() {
        let values = random_walk(1500, 17, 10); // goes negative
        assert!(values.iter().any(|&v| v < 0));
        let c = build(
            &values,
            &[Kind::Linear, Kind::Exponential, Kind::Gaussian],
            &[0, 4, 16],
            RankMode::EliasFano,
        );
        assert_eq!(c.decompress(), values);
        assert!(c.view().shift() > 0);
    }

    #[test]
    fn fragment_descriptors_are_consistent() {
        let values = random_walk(2000, 23, 30);
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8], RankMode::EliasFano);
        let m = c.view().fragment_count();
        let mut covered = 0usize;
        for i in 0..m {
            let f = c.view().fragment(i);
            assert_eq!(f.start, covered, "fragment {i} start");
            assert!(f.end > f.start);
            assert!(f.origin <= f.start);
            covered = f.end;
        }
        assert_eq!(covered, values.len());
        let hist = c.view().kind_histogram();
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let values = vec![i64::MAX / 4, i64::MIN / 4, 0, i64::MAX / 4, -1, 1];
        let c = build(&values, &[Kind::Linear], &[0, 2], RankMode::EliasFano);
        assert_eq!(c.decompress(), values);
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(c.get(k), v);
        }
    }

    #[test]
    fn size_accounts_for_all_components() {
        let values = random_walk(5000, 31, 100);
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 8], RankMode::EliasFano);
        // size must at least cover corrections + params
        let sections = crate::frame_info(c.as_bytes()).unwrap().1;
        let section = |name: &str| sections.iter().find(|s| s.name == name).unwrap().len;
        // Each section carries length prefixes on top of its payload: the
        // corrections two words, the params one per kind plus the arity.
        let params_words = 1 + c.view().kind_histogram().len();
        assert!(
            c.size_in_bytes() >= section("corrections") - 16 + section("params") - 8 * params_words
        );
    }
}
