//! Property-based tests for the succinct substrate: every owned structure
//! against a naive model, and — since the wire format is read back only
//! through the borrowed views — `write` → `*View::read` + `validate`
//! against the same model.

use proptest::prelude::*;
use succinct::{
    BitBuf, BitBufView, BitVector, BitVectorView, EliasFano, EliasFanoView, PackedIVec, PackedVec,
    PackedVecView, WaveletMatrix, WaveletMatrixView, Wire, WireError, WireReader,
};

/// Reads a structure back from its wire bytes, requiring full consumption.
fn read_back<'a, V>(bytes: &'a [u8], read: impl Fn(&mut WireReader<'a>) -> Result<V, WireError>) -> V {
    let mut r = WireReader::new(bytes);
    let view = read(&mut r).unwrap();
    assert!(r.is_exhausted());
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitbuf_roundtrip(items in prop::collection::vec((0u64..u64::MAX, 1usize..=64), 0..200)) {
        let mut buf = BitBuf::new();
        let mut recorded = Vec::new();
        let mut pos = 0;
        for (v, w) in items {
            let v = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            buf.push_bits(v, w);
            recorded.push((pos, w, v));
            pos += w;
        }
        prop_assert_eq!(buf.len(), pos);
        let bytes = buf.to_wire_bytes();
        let view = read_back(&bytes, BitBufView::read);
        prop_assert_eq!(view.len(), pos);
        for (p, w, v) in recorded {
            prop_assert_eq!(buf.get_bits(p, w), v);
            prop_assert_eq!(view.get_bits(p, w), v);
        }
    }

    #[test]
    fn bitvec_rank_select_consistent(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
        let bv = BitVector::from_bools(&bits);
        let bytes = bv.to_wire_bytes();
        let view = read_back(&bytes, BitVectorView::read);
        view.validate().unwrap();
        prop_assert_eq!(bv.count_ones() + bv.count_zeros(), bits.len());
        prop_assert_eq!((view.count_ones(), view.count_zeros()), (bv.count_ones(), bv.count_zeros()));
        // rank at every position matches a running counter
        let mut ones = 0;
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bv.rank1(i), ones);
            prop_assert_eq!(view.rank1(i), ones);
            prop_assert_eq!(view.get(i), b);
            if b { ones += 1; }
        }
        prop_assert_eq!(bv.rank1(bits.len()), ones);
        prop_assert_eq!(view.rank1(bits.len()), ones);
        // select1 is the inverse of rank1 on one-positions
        for k in 0..bv.count_ones() {
            let p = bv.select1(k).unwrap();
            prop_assert!(bv.get(p));
            prop_assert_eq!(bv.rank1(p), k);
            prop_assert_eq!(view.select1(k), Some(p));
        }
        for k in 0..bv.count_zeros() {
            let p = bv.select0(k).unwrap();
            prop_assert!(!bv.get(p));
            prop_assert_eq!(bv.rank0(p), k);
            prop_assert_eq!(view.select0(k), Some(p));
        }
    }

    #[test]
    fn elias_fano_access_and_rank(deltas in prop::collection::vec(0u64..1000, 1..300)) {
        let mut acc = 0u64;
        let values: Vec<u64> = deltas.iter().map(|&d| { acc += d; acc }).collect();
        let ef = EliasFano::new(&values);
        let bytes = ef.to_wire_bytes();
        let view = read_back(&bytes, EliasFanoView::read);
        view.validate().unwrap();
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(ef.get(i), v);
            prop_assert_eq!(view.get(i), v);
        }
        // rank_leq at a few probe points
        let max = *values.last().unwrap();
        for probe in [0, max / 3, max / 2, max, max + 1] {
            let expected = values.iter().filter(|&&v| v <= probe).count();
            prop_assert_eq!(ef.rank_leq(probe), expected);
            prop_assert_eq!(view.rank_leq(probe), expected);
        }
    }

    #[test]
    fn packed_roundtrip(values in prop::collection::vec(any::<u64>(), 0..300)) {
        let p = PackedVec::new(&values);
        let bytes = p.to_wire_bytes();
        let view = read_back(&bytes, PackedVecView::read);
        prop_assert_eq!(view.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(p.get(i), v);
            prop_assert_eq!(view.get(i), v);
        }
    }

    #[test]
    fn packed_signed_roundtrip(values in prop::collection::vec(any::<i64>(), 0..300)) {
        let p = PackedIVec::new(&values);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn wavelet_access_rank(symbols in prop::collection::vec(0u8..12, 0..400)) {
        let wm = WaveletMatrix::new(&symbols);
        let bytes = wm.to_wire_bytes();
        let view = read_back(&bytes, WaveletMatrixView::read);
        view.validate().unwrap();
        for (i, &s) in symbols.iter().enumerate() {
            prop_assert_eq!(wm.access(i), s);
            prop_assert_eq!(view.access(i), s);
        }
        let mut counts = [0usize; 12];
        for (i, &s) in symbols.iter().enumerate() {
            prop_assert_eq!(wm.rank(s, i), counts[s as usize]);
            prop_assert_eq!(view.access_rank(i), (s, counts[s as usize]));
            counts[s as usize] += 1;
        }
        for s in 0..12u8 {
            prop_assert_eq!(wm.rank(s, symbols.len()), counts[s as usize]);
            prop_assert_eq!(view.rank(s, symbols.len()), counts[s as usize]);
        }
    }

    #[test]
    fn elias_fano_predecessor(deltas in prop::collection::vec(1u64..100, 1..100), probe in 0u64..12_000) {
        let mut acc = 0u64;
        let values: Vec<u64> = deltas.iter().map(|&d| { acc += d; acc }).collect();
        let ef = EliasFano::new(&values);
        let expected = values.iter().rposition(|&v| v <= probe);
        prop_assert_eq!(ef.predecessor_index(probe), expected);
    }

    #[test]
    fn ones_iter_matches_naive_bit_loop(bits in prop::collection::vec(any::<bool>(), 0..3000)) {
        let bv = BitVector::from_bools(&bits);
        // The streaming word-scan iterator must yield exactly the positions a
        // naive per-bit loop finds, in order.
        let naive: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let streamed: Vec<usize> = bv.iter_ones().collect();
        prop_assert_eq!(&streamed, &naive);
        prop_assert_eq!(bv.iter_ones().len(), naive.len());
        // size_hint stays exact while the iterator drains.
        let mut it = bv.iter_ones();
        for consumed in 0..naive.len() {
            prop_assert_eq!(it.size_hint(), (naive.len() - consumed, Some(naive.len() - consumed)));
            it.next();
        }
        prop_assert_eq!(it.next(), None);
    }

    #[test]
    fn elias_fano_iter_matches_naive(deltas in prop::collection::vec(0u64..5000, 0..500)) {
        let mut acc = 0u64;
        let values: Vec<u64> = deltas.iter().map(|&d| { acc += d; acc }).collect();
        let ef = EliasFano::new(&values);
        // The streaming iterator must equal a per-index `get` loop (which in
        // turn is tested against the input), including for duplicates and
        // empty sequences.
        let via_get: Vec<u64> = (0..ef.len()).map(|i| ef.get(i)).collect();
        let streamed: Vec<u64> = ef.iter().collect();
        prop_assert_eq!(&streamed, &via_get);
        prop_assert_eq!(&streamed, &values);
        prop_assert_eq!(ef.iter().len(), values.len());
        // Partial consumption keeps the remainder consistent.
        let mut it = ef.iter();
        let skip = values.len() / 2;
        for _ in 0..skip {
            it.next();
        }
        let tail: Vec<u64> = it.collect();
        prop_assert_eq!(&tail[..], &values[skip..]);
    }
}
