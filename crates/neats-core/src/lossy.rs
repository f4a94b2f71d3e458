//! NeaTS-L: the lossy compressor with a maximum-error guarantee.
//!
//! Dropping the corrections from the NeaTS representation leaves a piecewise
//! nonlinear ε-approximation: each value is reconstructed as `⌊f(u)⌋`, with
//! `|y − ⌊f(u)⌋| ≤ ε` guaranteed (paper §III-B, "Partitioning for lossy
//! compression"). The partitioner minimises the storage of the function
//! parameters alone, running in O(|F|·n).

use crate::fit::{model_value, Fragment, Kind, Params};
use crate::partition::{partition, positivity_shift, Partition, PartitionConfig};
use succinct::{EliasFano, PackedVec, WaveletMatrix};
use timeseries::TimeSeries;

/// A lossy, randomly-accessible piecewise-nonlinear approximation.
///
/// ```
/// use neats_core::{Kind, NeaTSLossy};
/// use timeseries::TimeSeries;
///
/// let ts = TimeSeries::from_values((0..2000).map(|k| k * k / 50).collect());
/// let lossy = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, 10);
/// assert!(lossy.max_error(&ts) <= 11); // the ε guarantee (+1 floor slack)
/// assert!(lossy.size_in_bytes() < ts.uncompressed_bytes() / 20);
/// ```
#[derive(Clone, Debug)]
pub struct NeaTSLossy {
    n: usize,
    shift: i64,
    eps: u64,
    starts: EliasFano,
    kinds: WaveletMatrix,
    kind_table: Vec<Kind>,
    params: Vec<Vec<u64>>,
    origin_deltas: PackedVec,
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
        // The fitter sees `y as f64` and the decoder re-evaluates the model
        // in f64; past 2^53 both sides lose integer precision, so the fit
        // must be tightened or reconstruction can land outside the promised
        // ε + 1 (the lossless path absorbs the same rounding in its
        // corrections; the lossy path has none). `float_eval_slack` is only
        // an estimate — slope error amplified over a long fragment can
        // exceed a fixed ULP multiple — so the bound is enforced by
        // *measuring* the integer-domain error and retightening until the
        // stored contract (≤ ε + 1, the +1 absorbing model-evaluation
        // rounding) actually holds. Values within ±2^53 take the first
        // iteration (slack 0, error within ε + 1 by construction).
        let mut slack = crate::fit::float_eval_slack(values, shift);
        loop {
            let fit_eps = eps.saturating_sub(slack);
            let cfg = PartitionConfig::lossy(kinds, fit_eps, shift).with_threads(threads);
            let part = partition(values, &cfg);
            let out = Self::encode(&part, values.len(), shift, eps);
            let overshoot = out.max_error(ts).saturating_sub(eps.saturating_add(1));
            if overshoot == 0 || fit_eps == 0 {
                // `fit_eps == 0` is the unsatisfiable corner (ε smaller than
                // the f64 conversion error of the magnitudes involved):
                // return the best float-exact fit rather than loop.
                return out;
            }
            slack = slack.saturating_add(overshoot.max(slack).max(1));
        }
    }

    fn encode(part: &Partition, n: usize, shift: i64, eps: u64) -> Self {
        let m = part.fragments.len();
        let mut starts = Vec::with_capacity(m);
        let mut kind_syms = Vec::with_capacity(m);
        let mut origin_deltas = Vec::with_capacity(m);
        let mut kind_table: Vec<Kind> = Vec::new();
        let mut params: Vec<Vec<u64>> = Vec::new();
        for frag in &part.fragments {
            starts.push(frag.start as u64);
            let sym = match kind_table.iter().position(|&k| k == frag.kind) {
                Some(s) => s,
                None => {
                    kind_table.push(frag.kind);
                    params.push(Vec::new());
                    kind_table.len() - 1
                }
            };
            kind_syms.push(sym as u8);
            let p = &mut params[sym];
            p.push(frag.params.m.to_bits());
            p.push(frag.params.b.to_bits());
            if frag.kind.param_count() == 3 {
                p.push(frag.params.extra.to_bits());
            }
            origin_deltas.push((frag.start - frag.origin) as u64);
        }
        Self {
            n,
            shift,
            eps,
            starts: EliasFano::new(&starts),
            kinds: WaveletMatrix::new(&kind_syms),
            kind_table,
            params,
            origin_deltas: PackedVec::new(&origin_deltas),
        }
    }

    /// Number of data points represented.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the approximation covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The error bound the approximation was built under.
    pub fn eps(&self) -> u64 {
        self.eps
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.origin_deltas.len()
    }

    /// Index of the fragment covering position `k`.
    pub fn fragment_index_of(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        self.starts.rank_leq(k as u64) - 1
    }

    /// The global positivity shift stored in the header.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Reconstructs the fragment descriptor for fragment `i`.
    pub fn fragment(&self, i: usize) -> Fragment {
        let start = self.starts.get(i) as usize;
        let end = if i + 1 < self.fragment_count() {
            self.starts.get(i + 1) as usize
        } else {
            self.n
        };
        let sym = self.kinds.access(i);
        let kind = self.kind_table[sym as usize];
        let params = self.params_of(sym, self.kinds.rank(sym, i));
        let origin = start - self.origin_deltas.get(i) as usize;
        Fragment { kind, params, start, end, origin }
    }

    /// Parameters of the `rank`-th fragment of kind symbol `sym`.
    #[inline]
    fn params_of(&self, sym: u8, rank: usize) -> Params {
        let pc = self.kind_table[sym as usize].param_count();
        let base = rank * pc;
        let arr = &self.params[sym as usize];
        Params {
            m: f64::from_bits(arr[base]),
            b: f64::from_bits(arr[base + 1]),
            extra: if pc == 3 { f64::from_bits(arr[base + 2]) } else { 0.0 },
        }
    }

    /// The approximated value at position `k` (random access).
    pub fn approximate(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.rank_leq(k as u64) - 1;
        let frag = self.fragment(i);
        model_value(&frag, k, self.shift)
    }

    /// Materialises the whole approximated series.
    ///
    /// Sequential walk: fragment starts stream out of the Elias-Fano
    /// iterator and per-kind parameter ranks are incremental counters, so no
    /// per-fragment select/rank machinery runs.
    pub fn reconstruct(&self) -> Vec<i64> {
        let m = self.fragment_count();
        let mut out = Vec::with_capacity(self.n);
        let mut ranks = vec![0usize; self.kind_table.len()];
        let mut starts = self.starts.iter();
        let mut start = starts.next().map(|v| v as usize).unwrap_or(0);
        for i in 0..m {
            let end = starts.next().map(|v| v as usize).unwrap_or(self.n);
            let sym = self.kinds.access(i);
            let kind = self.kind_table[sym as usize];
            let params = self.params_of(sym, ranks[sym as usize]);
            ranks[sym as usize] += 1;
            let origin = start - self.origin_deltas.get(i) as usize;
            let frag = Fragment { kind, params, start, end, origin };
            for k in start..end {
                out.push(model_value(&frag, k, self.shift));
            }
            start = end;
        }
        out
    }

    /// Compressed size in bytes (parameters plus access structures).
    pub fn size_in_bytes(&self) -> usize {
        let header = 8 + 8 + 8 + self.kind_table.len() + 8;
        header
            + self.starts.size_in_bytes()
            + self.kinds.size_in_bytes()
            + self.params.iter().map(|p| p.len() * 8).sum::<usize>()
            + self.origin_deltas.size_in_bytes()
    }

    /// Measured maximum absolute error against the original values.
    pub fn max_error(&self, original: &TimeSeries) -> u64 {
        original
            .values()
            .iter()
            .enumerate()
            .map(|(k, &v)| v.abs_diff(self.approximate(k)))
            .max()
            .unwrap_or(0)
    }

    /// Mean Absolute Percentage Error against the original values, in %
    /// (paper §IV-B; see [`timeseries::types::mape_pct`] for the near-zero
    /// handling).
    pub fn mape(&self, original: &TimeSeries) -> f64 {
        timeseries::mape_pct(original, &self.reconstruct())
    }

    /// Writes all components, marking one container section per component
    /// (used by [`crate::serial`]).
    pub(crate) fn write_wire(&self, sw: &mut crate::serial::SectionWriter) {
        use succinct::Wire;
        sw.w.u64(self.n as u64);
        sw.w.i64(self.shift);
        sw.w.u64(self.eps);
        sw.mark(); // header
        self.starts.write(&mut sw.w);
        sw.mark(); // starts
        self.kinds.write(&mut sw.w);
        sw.mark(); // kinds
        crate::serial::write_kind_table(&mut sw.w, &self.kind_table);
        sw.mark(); // kind-table
        crate::serial::write_params(&mut sw.w, &self.params);
        sw.mark(); // params
        self.origin_deltas.write(&mut sw.w);
        sw.mark(); // origin-deltas
    }

    /// Reads and validates all components.
    pub(crate) fn read_wire(
        r: &mut succinct::WireReader<'_>,
    ) -> Result<Self, succinct::WireError> {
        use succinct::{Wire, WireError};
        let n = r.read_len()?;
        let shift = r.i64()?;
        let eps = r.u64()?;
        let starts = EliasFano::read(r)?;
        let kinds = WaveletMatrix::read(r)?;
        let (kind_table, params) = crate::serial::KindParams::read(r)?.into_owned_parts();
        let origin_deltas = PackedVec::read(r)?;
        let m = starts.len();
        if kinds.len() != m || origin_deltas.len() != m {
            return Err(WireError::Corrupt("fragment count mismatch"));
        }
        // n and m must be zero together, or fragment_of underflows on a
        // crafted archive with points but no fragments.
        if (m == 0) != (n == 0) {
            return Err(WireError::Corrupt("fragment count vs series length"));
        }
        let mut prev = 0usize;
        let mut counts = vec![0usize; kind_table.len()];
        for i in 0..m {
            let s = starts.get(i) as usize;
            if (i == 0 && s != 0) || (i > 0 && s <= prev) || s >= n {
                return Err(WireError::Corrupt("fragment starts"));
            }
            let sym = kinds.access(i) as usize;
            if sym >= kind_table.len() {
                return Err(WireError::Corrupt("kind symbol"));
            }
            counts[sym] += 1;
            if origin_deltas.get(i) as usize > s {
                return Err(WireError::Corrupt("origin delta"));
            }
            prev = s;
        }
        for (sym, &count) in counts.iter().enumerate() {
            if params[sym].len() != count * kind_table[sym].param_count() {
                return Err(WireError::Corrupt("params length"));
            }
        }
        Ok(Self { n, shift, eps, starts, kinds, kind_table, params, origin_deltas })
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
        assert_eq!(l.eps(), eps, "stored bound must be the requested one");
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
            large.fragment_count() < small.fragment_count(),
            "{} !< {}",
            large.fragment_count(),
            small.fragment_count()
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
            with_exp.fragment_count() < lin_only.fragment_count(),
            "exp {} !< linear {}",
            with_exp.fragment_count(),
            lin_only.fragment_count()
        );
    }
}
