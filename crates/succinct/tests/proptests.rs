//! The substrate's oracle suite: every property is one generic function,
//! run on the structure as built (owned words) and on the view read back
//! from `to_wire_bytes()` (borrowed words), against a plain model — a
//! `Vec<bool>` scan, a sorted `Vec<u64>`, a `Vec<u8>` of symbols.

use proptest::prelude::*;
use succinct::{
    zigzag_decode, zigzag_encode, BitBuf, BitBufView, BitVector, BitVectorView, EliasFano,
    EliasFanoView, Halves, PackedVec, PackedVecView, WaveletMatrix, WaveletMatrixView, Wire,
    WireError, WireReader, Words,
};

/// Reads a structure back from its wire bytes, requiring full consumption.
fn read_back<'a, V>(bytes: &'a [u8], read: impl Fn(&mut WireReader<'a>) -> Result<V, WireError>) -> V {
    let mut r = WireReader::new(bytes);
    let view = read(&mut r).unwrap();
    assert!(r.is_exhausted());
    view
}

/// `(pos, width, value)` of every field pushed into a [`BitBuf`].
type Fields = [(usize, usize, u64)];

fn bitbuf_props<W: Words>(buf: &BitBuf<W>, fields: &Fields) {
    let len = fields.last().map_or(0, |&(p, w, _)| p + w);
    assert_eq!(buf.len(), len);
    assert_eq!(buf.is_empty(), len == 0);
    assert_eq!(buf.size_in_bytes(), len.div_ceil(8));
    for &(p, w, v) in fields {
        assert_eq!(buf.get_bits(p, w), v, "get_bits({p}, {w})");
        assert_eq!(buf.get_bits(p, 0), 0);
        for b in 0..w {
            assert_eq!(buf.get_bit(p + b), (v >> b) & 1 == 1, "get_bit({})", p + b);
        }
    }
}

fn bitbuf_both(fields: &Fields) {
    let mut buf = BitBuf::new();
    for &(_, w, v) in fields {
        buf.push_bits(v, w);
    }
    bitbuf_props(&buf, fields);
    let bytes = buf.to_wire_bytes();
    bitbuf_props(&read_back(&bytes, BitBufView::read), fields);
}

/// `rank`/`select`/`get` at every position (`len` included) and the forward
/// scan, against a linear pass over `bits`.
fn bitvector_props<W: Words, H: Halves>(bv: &BitVector<W, H>, bits: &[bool]) {
    let ones: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
    let zeros: Vec<usize> = (0..bits.len()).filter(|&i| !bits[i]).collect();
    assert_eq!(bv.len(), bits.len());
    assert_eq!(bv.is_empty(), bits.is_empty());
    assert_eq!((bv.count_ones(), bv.count_zeros()), (ones.len(), zeros.len()));
    let mut seen = 0;
    for (pos, &b) in bits.iter().enumerate() {
        assert_eq!(bv.rank1(pos), seen, "rank1({pos})");
        assert_eq!(bv.rank0(pos), pos - seen, "rank0({pos})");
        assert_eq!(bv.get(pos), b, "get({pos})");
        seen += b as usize;
    }
    assert_eq!(bv.rank1(bits.len()), ones.len());
    assert_eq!(bv.rank0(bits.len()), zeros.len());
    for (k, &p) in ones.iter().enumerate() {
        assert_eq!(bv.select1(k), Some(p), "select1({k})");
    }
    for (k, &p) in zeros.iter().enumerate() {
        assert_eq!(bv.select0(k), Some(p), "select0({k})");
    }
    assert_eq!(bv.select1(ones.len()), None);
    assert_eq!(bv.select0(zeros.len()), None);
    // The word-scan iterator: same positions, exact size hint while it drains.
    let mut it = bv.iter_ones();
    for (consumed, &p) in ones.iter().enumerate() {
        assert_eq!(it.size_hint(), (ones.len() - consumed, Some(ones.len() - consumed)));
        assert_eq!(it.next(), Some(p));
    }
    assert_eq!(it.next(), None);
    // Seeking: a few starts here, every start in `ef_cursor.rs`.
    for k in [0, 1, ones.len() / 2, ones.len().saturating_sub(1), ones.len(), ones.len() + 1] {
        let tail: Vec<usize> = bv.iter_ones_from(k).collect();
        assert_eq!(tail, &ones[k.min(ones.len())..], "iter_ones_from({k})");
    }
}

fn bitvector_both(bits: &[bool]) {
    let bv = BitVector::from_bools(bits);
    bitvector_props(&bv, bits);
    let bytes = bv.to_wire_bytes();
    let view = read_back(&bytes, BitVectorView::read);
    view.validate().unwrap();
    bitvector_props(&view, bits);
    assert_eq!(view.size_in_bytes(), bv.size_in_bytes());
}

/// `get`/`iter`/`iter_from` and `rank_leq`/`predecessor_index` at `probes`,
/// against the sorted `values`.
fn elias_fano_props<W: Words, H: Halves>(ef: &EliasFano<W, H>, values: &[u64], probes: &[u64]) {
    assert_eq!(ef.len(), values.len());
    assert_eq!(ef.is_empty(), values.is_empty());
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(ef.get(i), v, "get({i})");
    }
    assert_eq!(ef.iter().len(), values.len());
    assert_eq!(ef.iter().collect::<Vec<_>>(), values);
    for i in [0, values.len() / 2, values.len()] {
        assert_eq!(ef.iter_from(i).collect::<Vec<_>>(), &values[i..], "iter_from({i})");
    }
    for &x in probes {
        let leq = values.partition_point(|&v| v <= x);
        assert_eq!(ef.rank_leq(x), leq, "rank_leq({x})");
        assert_eq!(ef.predecessor_index(x), leq.checked_sub(1), "predecessor_index({x})");
    }
}

fn elias_fano_both(values: &[u64], probes: &[u64]) {
    let ef = EliasFano::new(values);
    elias_fano_props(&ef, values, probes);
    let bytes = ef.to_wire_bytes();
    let view = read_back(&bytes, EliasFanoView::read);
    view.validate().unwrap();
    elias_fano_props(&view, values, probes);
    assert_eq!(view.size_in_bytes(), ef.size_in_bytes());
}

/// Probes around every element plus the ends of the `u64` range.
fn probes_around(values: &[u64]) -> Vec<u64> {
    let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
    for &v in values {
        probes.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
    }
    probes
}

fn prefix_sums(deltas: &[u64]) -> Vec<u64> {
    let mut acc = 0u64;
    deltas.iter().map(|&d| { acc += d; acc }).collect()
}

fn packed_props<W: Words>(p: &PackedVec<W>, values: &[u64], width: usize) {
    assert_eq!(p.len(), values.len());
    assert_eq!(p.is_empty(), values.is_empty());
    assert_eq!(p.width(), width);
    assert_eq!(p.size_in_bytes(), (values.len() * width).div_ceil(8));
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(p.get(i), v, "get({i}) at width {width}");
    }
    assert_eq!(p.iter().collect::<Vec<_>>(), values);
}

fn packed_both(p: &PackedVec, values: &[u64], width: usize) {
    packed_props(p, values, width);
    let bytes = p.to_wire_bytes();
    packed_props(&read_back(&bytes, PackedVecView::read), values, width);
}

/// `access`/`access_rank` at every position and `rank` of every symbol up to
/// `u8::MAX` — most of them absent, some wider than the matrix — at every
/// `stride`-th prefix and at `len`.
fn wavelet_props<W: Words, H: Halves>(wm: &WaveletMatrix<W, H>, symbols: &[u8], stride: usize) {
    assert_eq!(wm.len(), symbols.len());
    assert_eq!(wm.is_empty(), symbols.is_empty());
    let mut counts = [0usize; 256];
    for (i, &s) in symbols.iter().enumerate() {
        if i % stride == 0 {
            for sym in 0..=u8::MAX {
                assert_eq!(wm.rank(sym, i), counts[sym as usize], "rank({sym}, {i})");
            }
        }
        assert_eq!(wm.access(i), s, "access({i})");
        assert_eq!(wm.access_rank(i), (s, counts[s as usize]), "access_rank({i})");
        assert_eq!(wm.rank(s, i), counts[s as usize]);
        counts[s as usize] += 1;
    }
    for sym in 0..=u8::MAX {
        assert_eq!(wm.rank(sym, symbols.len()), counts[sym as usize], "rank({sym}, len)");
    }
}

fn wavelet_both(symbols: &[u8], stride: usize) {
    let wm = WaveletMatrix::new(symbols);
    wavelet_props(&wm, symbols, stride);
    let bytes = wm.to_wire_bytes();
    let view = read_back(&bytes, WaveletMatrixView::read);
    view.validate().unwrap();
    wavelet_props(&view, symbols, stride);
    assert_eq!(view.size_in_bytes(), wm.size_in_bytes());
}

#[test]
fn bitvector_word_and_superblock_edges() {
    // One bit either side of a word (64) and of a superblock (512), at
    // densities that leave whole words and whole superblocks empty or full.
    for n in [0usize, 1, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 4000] {
        bitvector_both(&vec![false; n]);
        bitvector_both(&vec![true; n]);
        for (mul, keep) in [(7usize, 3usize), (1, 1), (13, 12)] {
            let bits: Vec<bool> = (0..n).map(|i| (i * mul + i / 64) % 13 < keep).collect();
            bitvector_both(&bits);
        }
        // A single one at the far end: every select0 walks all superblocks.
        let mut bits = vec![false; n];
        if let Some(last) = bits.last_mut() {
            *last = true;
        }
        bitvector_both(&bits);
    }
}

#[test]
fn elias_fano_every_probe_in_a_small_universe() {
    let values = prefix_sums(&(0..700u64).map(|i| i * 2_654_435_761 % 40).collect::<Vec<_>>());
    let probes: Vec<u64> = (0..=values.last().unwrap() + 3).collect();
    elias_fano_both(&values, &probes);
    for values in [vec![], vec![0], vec![0, 0, 0], vec![5; 130], vec![EliasFano::MAX_VALUE]] {
        elias_fano_both(&values, &probes_around(&values));
    }
    let wide = [0, 1, 1 << 40, (1 << 40) + 1, 1 << 63, EliasFano::MAX_VALUE];
    elias_fano_both(&wide, &probes_around(&wide));
}

#[test]
fn packed_vec_at_widths_0_1_63_64() {
    for (width, max) in [(0usize, 0u64), (1, 1), (63, (1 << 63) - 1), (64, u64::MAX)] {
        let values: Vec<u64> = (0..130u64)
            .map(|i| if max == 0 { 0 } else { i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % max })
            .chain([max, 0])
            .collect();
        packed_both(&PackedVec::with_width(&values, width), &values, width);
        packed_both(&PackedVec::new(&values), &values, width);
        packed_both(&PackedVec::with_width(&[], width), &[], width);
    }
}

#[test]
fn wavelet_matrix_small_alphabets_every_prefix() {
    wavelet_both(&[], 1);
    wavelet_both(&[0; 70], 1);
    wavelet_both(&[255, 0, 128, 255], 1);
    for sigma in [2usize, 3, 4, 11, 16, 200] {
        let symbols: Vec<u8> = (0..600usize).map(|i| (i * 7 + i / 5) as u8 % sigma as u8).collect();
        wavelet_both(&symbols, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitbuf_roundtrip(items in prop::collection::vec((0u64..u64::MAX, 1usize..=64), 0..200)) {
        let mut pos = 0;
        let fields: Vec<(usize, usize, u64)> = items
            .into_iter()
            .map(|(v, w)| {
                let field = (pos, w, if w == 64 { v } else { v & ((1u64 << w) - 1) });
                pos += w;
                field
            })
            .collect();
        bitbuf_both(&fields);
    }

    #[test]
    fn bitvec_rank_select_consistent(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
        bitvector_both(&bits);
    }

    #[test]
    fn ones_iter_matches_naive_bit_loop(
        runs in prop::collection::vec((any::<bool>(), 1usize..700), 0..12),
    ) {
        // Long runs: the scan must skip whole zero words and drain full ones.
        let bits: Vec<bool> = runs.iter().flat_map(|&(b, n)| std::iter::repeat_n(b, n)).collect();
        bitvector_both(&bits);
    }

    #[test]
    fn elias_fano_access_and_rank(deltas in prop::collection::vec(0u64..1000, 1..300)) {
        let values = prefix_sums(&deltas);
        elias_fano_both(&values, &probes_around(&values));
    }

    #[test]
    fn elias_fano_predecessor(deltas in prop::collection::vec(1u64..100, 1..100), probe in 0u64..12_000) {
        let values = prefix_sums(&deltas);
        elias_fano_both(&values, &[probe]);
    }

    #[test]
    fn elias_fano_iter_matches_naive(deltas in prop::collection::vec(0u64..5000, 0..500)) {
        // Duplicates and the empty sequence included; `elias_fano_props`
        // holds `iter` and `iter_from(len / 2)` to the input.
        let values = prefix_sums(&deltas);
        elias_fano_both(&values, &[]);
    }

    #[test]
    fn packed_roundtrip(values in prop::collection::vec(any::<u64>(), 0..300), shift in 0u32..64) {
        let values: Vec<u64> = values.iter().map(|&v| v >> shift).collect();
        let p = PackedVec::new(&values);
        let width = p.width();
        prop_assert!(values.iter().all(|&v| width == 64 || v >> width == 0));
        prop_assert!(width == 0 || values.iter().any(|&v| v >> (width - 1) != 0));
        packed_both(&p, &values, width);
    }

    #[test]
    fn packed_signed_roundtrip(values in prop::collection::vec(any::<i64>(), 0..300)) {
        // Signed columns are zig-zag mapped, then packed (what DAC stores).
        let zz: Vec<u64> = values.iter().map(|&v| zigzag_encode(v)).collect();
        let p = PackedVec::new(&zz);
        packed_both(&p, &zz, p.width());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(zigzag_decode(p.get(i)), v);
        }
    }

    #[test]
    fn wavelet_access_rank(symbols in prop::collection::vec(0u8..12, 0..400)) {
        wavelet_both(&symbols, 37);
    }
}
