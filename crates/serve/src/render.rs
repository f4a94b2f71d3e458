//! The one integer-to-text kernel and the per-worker buffers it writes into.
//!
//! Every integer the query path puts on the wire — the values and
//! timestamps of a range body, a point answer, the `#i ok <lines>` frames of
//! a batch, the status and `Content-Length` of a response head — is rendered
//! by [`write_u64`]: digit count first, then digits from the back, two at a
//! time out of a 200-byte table, straight into the destination slice. No
//! `fmt` machinery, no `unsafe`; the output is byte-identical to `{v}` for
//! all of `u64` and `i64` (the tests below compare against `format!`).
//!
//! Range bodies go through [`push_value_lines`] / [`push_pair_lines`]: lines
//! are rendered into a stack block and appended to the body one block at a
//! time, so the body `Vec` sees one capacity check per ~200 lines and is
//! never reserved for more than it ends up holding.
//!
//! [`Scratch`] is what a serving worker (reactor shard or pool thread) owns
//! across requests: the store's decode buffers and the response body. The
//! handler renders into it, moves the body out in the [`Response`], and the
//! worker hands it back with [`Scratch::reclaim`] once the response is in
//! the connection's write buffer — so a range request in steady state
//! allocates nothing.

use crate::http::Response;
use neats_store::RangeScratch;

/// `"00" "01" … "99"`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `10^0 … 10^19`.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Decimal digits of `u64::MAX` — the longest [`write_u64`] output.
const MAX_DIGITS: usize = 20;
/// Longest `<i64>\n` line: sign, 19 digits, newline.
const MAX_VALUE_LINE: usize = 21;
/// Longest `<u64>,<i64>\n` line.
const MAX_PAIR_LINE: usize = MAX_DIGITS + 1 + MAX_VALUE_LINE;
/// Bytes rendered on the stack between two appends to the body.
const BLOCK: usize = 4096;

/// Number of decimal digits of `v` (1 for 0).
#[inline]
fn decimal_len(v: u64) -> usize {
    // ⌊log10⌋ from the bit length (1233/4096 ≈ log10 2), corrected by one
    // table probe; `v | 1` gives 0 the length of 1.
    let v = v | 1;
    let t = ((64 - v.leading_zeros() as usize) * 1233) >> 12;
    t + 1 - usize::from(v < POW10[t])
}

/// Writes the decimal digits of `v` at the start of `dst` and returns how
/// many. `dst` must hold them ([`MAX_DIGITS`] always suffices).
#[inline]
fn write_u64(dst: &mut [u8], mut v: u64) -> usize {
    let n = decimal_len(v);
    let dst = &mut dst[..n];
    let mut at = n;
    while v >= 10_000 {
        let r = (v % 10_000) as usize;
        v /= 10_000;
        let (hi, lo) = (r / 100 * 2, r % 100 * 2);
        at -= 4;
        dst[at..at + 2].copy_from_slice(&DIGIT_PAIRS[hi..hi + 2]);
        dst[at + 2..at + 4].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
    }
    let mut v = v as usize;
    if v >= 100 {
        let lo = v % 100 * 2;
        v /= 100;
        at -= 2;
        dst[at..at + 2].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
    }
    if v >= 10 {
        dst[at - 2..at].copy_from_slice(&DIGIT_PAIRS[v * 2..v * 2 + 2]);
    } else {
        dst[at - 1] = b'0' + v as u8;
    }
    n
}

/// Writes `v` at the start of `dst` and returns its length (at most
/// [`MAX_DIGITS`]: a sign shortens the digits by one).
#[inline]
fn write_i64(dst: &mut [u8], v: i64) -> usize {
    // The sign byte is written either way and overwritten by the first
    // digit of a non-negative value: no branch on the sign.
    dst[0] = b'-';
    let sign = usize::from(v < 0);
    sign + write_u64(&mut dst[sign..], v.unsigned_abs())
}

/// Appends `v` in decimal.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; MAX_DIGITS];
    let n = write_u64(&mut buf, v);
    out.extend_from_slice(&buf[..n]);
}

/// Writes `<v>\n` at the start of `dst` (at most [`MAX_VALUE_LINE`] bytes)
/// and returns its length.
#[inline]
fn write_value_line(dst: &mut [u8], v: i64) -> usize {
    let n = write_i64(dst, v);
    dst[n] = b'\n';
    n + 1
}

/// Writes `<t>,<v>\n` at the start of `dst` (at most [`MAX_PAIR_LINE`]
/// bytes) and returns its length.
#[inline]
fn write_pair_line(dst: &mut [u8], (t, v): (u64, i64)) -> usize {
    let n = write_u64(dst, t);
    dst[n] = b',';
    n + 1 + write_value_line(&mut dst[n + 1..], v)
}

/// Appends one line per item, each at most `max_line` bytes as written by
/// `write_line`: rendered into a stack block, appended when it fills up.
#[inline]
fn push_lines<T: Copy>(
    out: &mut Vec<u8>,
    items: &[T],
    max_line: usize,
    write_line: impl Fn(&mut [u8], T) -> usize,
) {
    let mut block = [0u8; BLOCK];
    let mut n = 0;
    for &item in items {
        if n + max_line > BLOCK {
            out.extend_from_slice(&block[..n]);
            n = 0;
        }
        n += write_line(&mut block[n..], item);
    }
    out.extend_from_slice(&block[..n]);
}

/// Appends `<v>\n` — a point answer.
pub(crate) fn push_value_line(out: &mut Vec<u8>, v: i64) {
    let mut buf = [0u8; MAX_VALUE_LINE];
    let n = write_value_line(&mut buf, v);
    out.extend_from_slice(&buf[..n]);
}

/// Appends one `<v>\n` line per value — an `idx=A..B` body chunk.
pub(crate) fn push_value_lines(out: &mut Vec<u8>, values: &[i64]) {
    push_lines(out, values, MAX_VALUE_LINE, write_value_line);
}

/// Appends one `<t>,<v>\n` line per pair — a `t=A..B` body chunk.
pub(crate) fn push_pair_lines(out: &mut Vec<u8>, pairs: &[(u64, i64)]) {
    push_lines(out, pairs, MAX_PAIR_LINE, write_pair_line);
}

/// Most buffer capacity, in bytes, a serving worker keeps between requests
/// (decode buffers + response body). A request that grew the buffers past
/// it — a scan of a whole series, a pack with giant segments — has them
/// freed when its response is reclaimed; everything smaller is served from
/// the same allocations over and over. With the default 8192-point segments
/// the steady state is ≈ 64 KiB of values, 128 KiB of pairs and a body of
/// at most a few hundred KiB.
pub const SCRATCH_RETAIN_BYTES: usize = 1 << 20;

/// The reusable buffers of one serving worker; see the module docs.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Lent to the store's chunked range accessors.
    pub(crate) decode: RangeScratch,
    /// The next response body; moved out in the [`Response`].
    pub(crate) body: Vec<u8>,
}

impl Scratch {
    /// Empty buffers; nothing is allocated until a request needs it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of buffer capacity currently held.
    pub fn retained_bytes(&self) -> usize {
        self.decode.retained_bytes() + self.body.capacity()
    }

    /// Takes the body of a finished response back (call once the response
    /// has been serialized). The larger of the returned and the held
    /// allocation is kept — an error or JSON body built elsewhere never
    /// displaces the render buffer — and everything is freed if the total
    /// exceeds [`SCRATCH_RETAIN_BYTES`]. Capacity is never trimmed to fit a
    /// small request, so a point query between two scans costs no regrowth.
    pub fn reclaim(&mut self, resp: Response) {
        if resp.body.capacity() > self.body.capacity() {
            self.body = resp.body;
        }
        self.body.clear();
        if self.retained_bytes() > SCRATCH_RETAIN_BYTES {
            *self = Self::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rendered_u64(v: u64) -> String {
        let mut out = Vec::new();
        push_u64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    fn rendered_i64(v: i64) -> String {
        let mut out = Vec::new();
        push_value_line(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn edge_values_match_format() {
        let mut unsigned = vec![
            0u64,
            1,
            9,
            10,
            99,
            100,
            u64::MAX,
            u64::MAX - 1,
            i64::MAX as u64,
        ];
        for p in POW10 {
            unsigned.extend([p - 1, p, p + 1]);
        }
        for v in unsigned {
            assert_eq!(rendered_u64(v), format!("{v}"));
            assert_eq!(decimal_len(v), format!("{v}").len(), "decimal_len({v})");
            for s in [v as i64, (v as i64).wrapping_neg()] {
                assert_eq!(rendered_i64(s), format!("{s}\n"));
            }
        }
        for v in [
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            -1,
            -9,
            -10,
            -99,
            -100,
        ] {
            assert_eq!(rendered_i64(v), format!("{v}\n"));
        }
    }

    #[test]
    fn lines_cross_block_boundaries_intact() {
        // Longest possible lines, enough of them to flush many blocks, and
        // a length that leaves a partial block at the end.
        let values: Vec<i64> = (0..1000).map(|k| i64::MIN + k).collect();
        let mut out = Vec::new();
        push_value_lines(&mut out, &values);
        let want: String = values.iter().map(|v| format!("{v}\n")).collect();
        assert_eq!(String::from_utf8(out).unwrap(), want);

        let pairs: Vec<(u64, i64)> = (0..1000)
            .map(|k| (u64::MAX - k, i64::MIN + k as i64))
            .collect();
        let mut out = Vec::new();
        push_pair_lines(&mut out, &pairs);
        let want: String = pairs.iter().map(|(t, v)| format!("{t},{v}\n")).collect();
        assert_eq!(String::from_utf8(out).unwrap(), want);

        // Nothing in, nothing out — and what is already there stays.
        let mut out = b"kept".to_vec();
        push_value_lines(&mut out, &[]);
        push_pair_lines(&mut out, &[]);
        assert_eq!(out, b"kept");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_u64_matches_format(v in any::<u64>(), shift in 0u32..64) {
            // Shifting spreads the cases over every digit count.
            let v = v >> shift;
            prop_assert_eq!(rendered_u64(v), format!("{v}"));
        }

        #[test]
        fn any_i64_matches_format(v in any::<i64>(), shift in 0u32..64) {
            let v = v >> shift;
            prop_assert_eq!(rendered_i64(v), format!("{v}\n"));
        }

        #[test]
        fn any_lines_match_format(
            pairs in prop::collection::vec((any::<u64>(), any::<i64>(), 0u32..64), 0..400),
        ) {
            let pairs: Vec<(u64, i64)> =
                pairs.into_iter().map(|(t, v, s)| (t >> s, v >> s)).collect();
            let mut out = Vec::new();
            push_pair_lines(&mut out, &pairs);
            let want: String = pairs.iter().map(|(t, v)| format!("{t},{v}\n")).collect();
            prop_assert_eq!(String::from_utf8(out).unwrap(), want);

            let values: Vec<i64> = pairs.iter().map(|&(_, v)| v).collect();
            let mut out = Vec::new();
            push_value_lines(&mut out, &values);
            let want: String = values.iter().map(|v| format!("{v}\n")).collect();
            prop_assert_eq!(String::from_utf8(out).unwrap(), want);
        }
    }

    #[test]
    fn reclaim_keeps_the_larger_buffer_and_honours_the_bound() {
        let mut scratch = Scratch::new();
        scratch.reclaim(Response::text(Vec::with_capacity(4096)));
        assert!(scratch.body.capacity() >= 4096 && scratch.body.is_empty());
        // A small foreign body (an error, a JSON document) does not displace it.
        scratch.reclaim(Response::error(404, "nope"));
        assert!(scratch.body.capacity() >= 4096);
        // Past the bound everything goes.
        scratch.decode.values.reserve(1000);
        scratch.reclaim(Response::text(Vec::with_capacity(SCRATCH_RETAIN_BYTES)));
        assert_eq!(scratch.retained_bytes(), 0);
    }
}
