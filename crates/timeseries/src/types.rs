//! Core time-series types and the compressor interfaces shared by every
//! crate in the workspace.

/// A time series of integer values with implicit timestamps `1..=n`
/// (paper §III-C: "we focus on the storage of the values y₁, …, yₙ and assume
/// the timestamps are 1, …, n").
///
/// Real-world decimal values are stored as integers scaled by
/// `10^fractional_digits`, following the paper's Definition 1 discussion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeSeries {
    values: Vec<i64>,
    fractional_digits: u8,
}

impl TimeSeries {
    /// Wraps raw integer values (no decimal scaling).
    pub fn from_values(values: Vec<i64>) -> Self {
        Self { values, fractional_digits: 0 }
    }

    /// Wraps integer values that represent decimals scaled by
    /// `10^fractional_digits`.
    pub fn from_scaled(values: Vec<i64>, fractional_digits: u8) -> Self {
        Self { values, fractional_digits }
    }

    /// Converts floating-point values with a fixed number of fractional
    /// digits into the scaled-integer representation.
    ///
    /// This is the *trusted-input* constructor for values known to be finite
    /// and in range (the synthetic generators, test fixtures). Data crossing
    /// a system boundary — file loaders, ingest endpoints — must go through
    /// [`Self::try_from_f64`] instead, which rejects NaN/infinite and
    /// unrepresentably-large values with a typed error rather than silently
    /// folding them (`NaN as i64` is `0`, overflow saturates).
    ///
    /// # Panics
    /// If any value is non-finite or its scaled magnitude does not fit in
    /// `i64` — a trusted caller handing over such a value is a bug, not an
    /// input error.
    pub fn from_f64(values: &[f64], fractional_digits: u8) -> Self {
        Self::try_from_f64(values, fractional_digits)
            .unwrap_or_else(|e| panic!("TimeSeries::from_f64 on untrusted input: {e}"))
    }

    /// Fallible conversion from floating-point values: every value is
    /// checked through [`checked_scale`] and the first offending one is
    /// reported with its index.
    pub fn try_from_f64(values: &[f64], fractional_digits: u8) -> Result<Self, ValueError> {
        let mut out = Vec::with_capacity(values.len());
        for (index, &v) in values.iter().enumerate() {
            out.push(
                checked_scale(v, fractional_digits)
                    .map_err(|kind| ValueError { index, value: v, kind })?,
            );
        }
        Ok(Self { values: out, fractional_digits })
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The integer values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The declared number of fractional digits of the original data.
    pub fn fractional_digits(&self) -> u8 {
        self.fractional_digits
    }

    /// The original floating-point values (`value / 10^digits`).
    pub fn to_f64(&self) -> Vec<f64> {
        let scale = 10f64.powi(self.fractional_digits as i32);
        self.values.iter().map(|&v| v as f64 / scale).collect()
    }

    /// Uncompressed size in bytes (64-bit integers, as in the paper's
    /// compression-ratio denominator).
    pub fn uncompressed_bytes(&self) -> usize {
        self.values.len() * 8
    }

    /// Minimum and maximum value; `None` on an empty series.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut it = self.values.iter();
        let first = *it.next()?;
        let (mut lo, mut hi) = (first, first);
        for &v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// The paper's Δ: one plus the difference between the maximum and
    /// minimum value (§III-B complexity analysis). Zero for an empty series;
    /// saturates at `u64::MAX` for a series spanning all of `i64`.
    pub fn delta(&self) -> u64 {
        self.min_max().map_or(0, |(lo, hi)| hi.abs_diff(lo).saturating_add(1))
    }
}

/// Why a floating-point input value was rejected by [`checked_scale`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueErrorKind {
    /// NaN or ±infinity — there is no meaningful scaled integer for it.
    NonFinite,
    /// The scaled magnitude does not fit in `i64` (e.g. `1e300` at any
    /// digit count, or a merely-large value at a high digit count).
    OutOfRange,
}

/// A typed rejection of one floating-point input value, carrying enough
/// context (position and offending value) for an ingest boundary to report
/// precisely what was wrong — instead of the silent `NaN → 0` /
/// saturating-cast corruption an unchecked `as i64` would produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueError {
    /// 0-based position of the offending value in the input slice.
    pub index: usize,
    /// The offending value itself.
    pub value: f64,
    /// What was wrong with it.
    pub kind: ValueErrorKind,
}

impl std::fmt::Display for ValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ValueErrorKind::NonFinite => {
                write!(f, "value {} at index {} is not finite", self.value, self.index)
            }
            ValueErrorKind::OutOfRange => write!(
                f,
                "value {} at index {} does not fit the scaled 64-bit integer domain",
                self.value, self.index
            ),
        }
    }
}

impl std::error::Error for ValueError {}

/// Scales one value by `10^fractional_digits` and rounds to the integer
/// domain, rejecting non-finite input and overflow with a typed error.
///
/// This is the single conversion rule every untrusted-input path shares
/// (file loaders, the CLI's CSV reader, [`TimeSeries::try_from_f64`]), so
/// boundaries cannot drift on what they accept.
pub fn checked_scale(value: f64, fractional_digits: u8) -> Result<i64, ValueErrorKind> {
    if !value.is_finite() {
        return Err(ValueErrorKind::NonFinite);
    }
    let scaled = (value * 10f64.powi(fractional_digits as i32)).round();
    // The exact f64 boundary values: ±2^63 is representable; anything with
    // |scaled| ≥ 2^63 cannot round-trip through i64 (2^63 - 1 itself is not
    // an f64, the nearest are 2^63 - 1024 and 2^63).
    if scaled < -(2f64.powi(63)) || scaled >= 2f64.powi(63) {
        return Err(ValueErrorKind::OutOfRange);
    }
    Ok(scaled as i64)
}

/// A compressed, randomly-accessible representation of a time series —
/// the one archive contract of every codec in the evaluation, exact or
/// approximate. Random access, range scans and full decompression must
/// agree with each other *exactly*; how far they may sit from the original
/// is what [`Self::eps`] states.
pub trait CompressedSeries {
    /// Number of data points in the original series.
    fn len(&self) -> usize;

    /// Whether the original series was empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total compressed size in bytes, including all access structures.
    fn size_in_bytes(&self) -> usize;

    /// Decompresses the whole series.
    fn decompress(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        self.scan_range(0, self.len(), &mut out);
        out
    }

    /// Random access to the `i`-th value (0-based).
    fn get(&self, i: usize) -> i64;

    /// Appends the values in `[start, start + count)` to `out`
    /// (a range query: one random access plus a scan, paper §IV-C4).
    fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        for i in start..start + count {
            out.push(self.get(i));
        }
    }

    /// The contract the archive was built under: `None` reproduces the
    /// original exactly, `Some(ε)` keeps every value within `ε + 1` of it
    /// (the `+ 1` is the floor the integer-domain construction allows).
    fn eps(&self) -> Option<u64> {
        None
    }

    /// Measured maximum absolute error against the original values.
    fn max_error(&self, original: &TimeSeries) -> u64 {
        let recon = self.decompress();
        original.values().iter().zip(&recon).map(|(&a, &b)| a.abs_diff(b)).max().unwrap_or(0)
    }

    /// Mean Absolute Percentage Error against the original values, in %
    /// (paper §IV-B; see [`mape_pct`] for the near-zero handling).
    fn mape(&self, original: &TimeSeries) -> f64 {
        mape_pct(original, &self.decompress())
    }
}

/// A lossless compressor that can be benchmarked uniformly.
pub trait Compressor {
    /// The compressed representation type.
    type Output: CompressedSeries;

    /// Display name used in tables and figures.
    fn name(&self) -> &'static str;

    /// Compresses a time series.
    fn compress(&self, ts: &TimeSeries) -> Self::Output;
}

/// An object-safe view of a [`Compressor`], letting benchmarks hold a
/// heterogeneous collection of compressors uniformly.
pub trait AnyCompressor {
    /// Display name used in tables and figures.
    fn name(&self) -> &'static str;

    /// Compresses into a boxed, dynamically-typed compressed series.
    fn compress_boxed(&self, ts: &TimeSeries) -> Box<dyn CompressedSeries>;
}

impl<T> AnyCompressor for T
where
    T: Compressor,
    T::Output: 'static,
{
    fn name(&self) -> &'static str {
        Compressor::name(self)
    }

    fn compress_boxed(&self, ts: &TimeSeries) -> Box<dyn CompressedSeries> {
        Box::new(self.compress(ts))
    }
}

/// Compression ratio as a percentage of the raw 64-bit representation
/// (paper §IV-B: "the size of the compressed output divided by the size of
/// the original data").
pub fn compression_ratio_pct(compressed_bytes: usize, original: &TimeSeries) -> f64 {
    100.0 * compressed_bytes as f64 / original.uncompressed_bytes() as f64
}

/// Mean Absolute Percentage Error between `original` and a reconstruction,
/// in percent (paper §IV-B).
///
/// Points whose original magnitude is below one *original unit*
/// (`10^fractional_digits` in the scaled-integer domain) are skipped:
/// relative error is ill-defined near zero and a handful of zero-crossing
/// points would otherwise dominate the mean.
pub fn mape_pct(original: &TimeSeries, reconstruction: &[i64]) -> f64 {
    assert_eq!(original.len(), reconstruction.len());
    let floor = 10i64.pow(original.fractional_digits() as u32);
    let mut sum = 0.0;
    let mut count = 0usize;
    for (&v, &r) in original.values().iter().zip(reconstruction) {
        if v.abs() >= floor {
            sum += (v - r).abs() as f64 / v.abs() as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        100.0 * sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_f64_scales() {
        let ts = TimeSeries::from_f64(&[1.25, -3.5, 0.0], 2);
        assert_eq!(ts.values(), &[125, -350, 0]);
        assert_eq!(ts.fractional_digits(), 2);
        assert_eq!(ts.to_f64(), vec![1.25, -3.5, 0.0]);
    }

    #[test]
    fn try_from_f64_rejects_non_finite_with_position() {
        let err = TimeSeries::try_from_f64(&[1.0, f64::NAN, 3.0], 2).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.kind, ValueErrorKind::NonFinite);
        assert!(err.value.is_nan());
        let err = TimeSeries::try_from_f64(&[f64::INFINITY], 0).unwrap_err();
        assert_eq!(err.kind, ValueErrorKind::NonFinite);
        let err = TimeSeries::try_from_f64(&[2.0, f64::NEG_INFINITY], 0).unwrap_err();
        assert_eq!((err.index, err.kind), (1, ValueErrorKind::NonFinite));
    }

    #[test]
    fn try_from_f64_rejects_overflow_with_position() {
        // 1e300 overflows at any scale; 1e18 overflows once scaled by 10^2.
        for (vals, digits) in [(vec![1e300], 0u8), (vec![0.5, 9.3e18], 0), (vec![1e18], 2)] {
            let err = TimeSeries::try_from_f64(&vals, digits).unwrap_err();
            assert_eq!(err.kind, ValueErrorKind::OutOfRange, "{vals:?} @ {digits}");
        }
        // The extremes that *do* fit must be accepted, not saturated.
        let max_exact = (i64::MAX as f64 * 0.99).floor();
        let ts = TimeSeries::try_from_f64(&[max_exact, -max_exact], 0).unwrap();
        assert_eq!(ts.values()[0], max_exact as i64);
    }

    #[test]
    fn checked_scale_boundary_values() {
        assert_eq!(checked_scale(1.25, 2), Ok(125));
        assert_eq!(checked_scale(-0.0, 5), Ok(0));
        // Denormals round to zero rather than erroring.
        assert_eq!(checked_scale(f64::MIN_POSITIVE / 4.0, 9), Ok(0));
        assert_eq!(checked_scale(f64::NAN, 0), Err(ValueErrorKind::NonFinite));
        assert_eq!(checked_scale(2f64.powi(63), 0), Err(ValueErrorKind::OutOfRange));
        assert_eq!(checked_scale(-(2f64.powi(63)), 0), Ok(i64::MIN));
    }

    #[test]
    #[should_panic(expected = "untrusted input")]
    fn from_f64_panics_on_nan_instead_of_zeroing() {
        let _ = TimeSeries::from_f64(&[f64::NAN], 0);
    }

    #[test]
    fn min_max_and_delta() {
        let ts = TimeSeries::from_values(vec![3, -2, 10, 7]);
        assert_eq!(ts.min_max(), Some((-2, 10)));
        assert_eq!(ts.delta(), 13);
        assert_eq!(TimeSeries::from_values(vec![]).delta(), 0);
        assert_eq!(TimeSeries::from_values(vec![5]).delta(), 1);
    }

    #[test]
    fn uncompressed_bytes_is_8n() {
        let ts = TimeSeries::from_values(vec![0; 100]);
        assert_eq!(ts.uncompressed_bytes(), 800);
    }

    #[test]
    fn ratio_pct() {
        let ts = TimeSeries::from_values(vec![0; 100]);
        assert!((compression_ratio_pct(80, &ts) - 10.0).abs() < 1e-12);
    }
}
