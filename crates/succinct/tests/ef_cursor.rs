//! The sequential Elias-Fano cursor: `iter_from(i)` must yield exactly
//! `(i..len).map(get)` for every `i` in `0..=len`, whatever the shape of the
//! sequence and wherever its words live — it is what the store zips with
//! decoded values to answer a time range, so one off-by-one here mislabels
//! every point.

use succinct::{
    BitVector, BitVectorView, EliasFano, EliasFanoView, Halves, Wire, WireReader, Words,
};

fn cursor_props<W: Words, H: Halves>(label: &str, ef: &EliasFano<W, H>, values: &[u64]) {
    assert_eq!(ef.len(), values.len(), "{label}");
    for i in 0..=values.len() {
        let cursor = ef.iter_from(i);
        assert_eq!(cursor.len(), values.len() - i, "{label}: size hint at {i}");
        let got: Vec<u64> = cursor.collect();
        let by_get: Vec<u64> = (i..values.len()).map(|k| ef.get(k)).collect();
        assert_eq!(got, by_get, "{label}: iter_from({i})");
        assert_eq!(got, &values[i..], "{label}: iter_from({i}) vs input");
    }
}

fn check(label: &str, values: &[u64]) {
    let ef = EliasFano::new(values);
    cursor_props(&format!("{label} (owned)"), &ef, values);
    let bytes = ef.to_wire_bytes();
    let mut r = WireReader::new(&bytes);
    let view = EliasFanoView::read(&mut r).unwrap();
    view.validate().unwrap();
    cursor_props(&format!("{label} (view)"), &view, values);
}

#[test]
fn iter_from_equals_get_for_every_start() {
    // Dense: consecutive integers, universe / len = 1, so `low_bits == 0`
    // and every element lives in the unary high part alone.
    check("dense", &(0..700).collect::<Vec<u64>>());
    // All-equal: `low_bits == 0` again, one bucket holding everything.
    check("constant", &[5; 130]);
    // Sparse: wide gaps, many low bits, long zero runs between the ones —
    // the seek lands in a word whose earlier ones must be masked off and
    // the scan must skip whole zero words.
    check(
        "sparse",
        &(0..300u64)
            .map(|i| i * i * 977_000 + i % 7)
            .collect::<Vec<_>>(),
    );
    // Timestamps as the store keeps them: rebased to 0, strictly
    // increasing, jittered steps; crosses several rank blocks.
    let mut t = 0u64;
    let stamps: Vec<u64> = (0..2500u64)
        .map(|i| {
            let v = t;
            t += 1 + (i * 2_654_435_761 % 19);
            v
        })
        .collect();
    check("stamps", &stamps);
    // Duplicates next to a 2^40 jump.
    check("steps", &[0, 0, 0, 1, 1, 1 << 40, 1 << 40, (1 << 40) + 1]);
    check("single zero", &[0]);
    check("single large", &[u64::MAX - 1]);
    check("empty", &[]);
}

fn ones_cursor_props<W: Words, H: Halves>(n: usize, bv: &BitVector<W, H>) {
    let all: Vec<usize> = bv.iter_ones().collect();
    // One past `count_ones()` too: seeking beyond the end is empty.
    for k in 0..=all.len() + 1 {
        let tail: Vec<usize> = bv.iter_ones_from(k).collect();
        assert_eq!(tail, &all[k.min(all.len())..], "n={n} k={k}");
    }
}

#[test]
fn iter_ones_from_equals_the_tail_of_iter_ones() {
    for n in [0usize, 1, 63, 64, 65, 511, 512, 513, 3000] {
        let bits: Vec<bool> = (0..n).map(|i| (i * 7 + i / 64) % 5 < 2).collect();
        let bv = BitVector::from_bools(&bits);
        ones_cursor_props(n, &bv);
        let bytes = bv.to_wire_bytes();
        let mut r = WireReader::new(&bytes);
        let view = BitVectorView::read(&mut r).unwrap();
        view.validate().unwrap();
        ones_cursor_props(n, &view);
    }
}
