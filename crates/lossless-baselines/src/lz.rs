//! LZ77 codecs standing in for the paper's general-purpose compressors.
//!
//! The five general-purpose tools of the evaluation occupy two corners of
//! the ratio/speed trade-off (Figs 2–3): Lz4/Snappy (byte-oriented, very
//! fast, weaker ratio) and Zstd/Brotli/Xz (entropy-coded, slower, stronger
//! ratio). Since none of them is on the offline dependency allowlist, this
//! module implements one representative of each corner from scratch:
//!
//! * [`FastLz`] — greedy hash-table LZ77 with an LZ4-style token format;
//! * [`EntropyLz`] — hash-chain LZ77 parse entropy-coded with canonical
//!   Huffman tables (deflate-style length/distance bucketing).
//!
//! Both operate on the little-endian byte image of the value stream and are
//! wrapped block-wise for random access, exactly like the real tools in the
//! paper's protocol (§IV-A2).

use crate::huffman::{code_lengths, HuffmanDecoder, HuffmanEncoder};
use crate::stream::{BitReader, BitWriter, StreamCodec};

const MIN_MATCH: usize = 4;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    (v.wrapping_mul(2654435761) >> 19) as usize // 13-bit table
}

#[inline]
fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

#[inline]
fn bytes_to_words(bytes: &[u8], n: usize) -> Vec<u64> {
    (0..n).map(|i| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))).collect()
}

/// One token of an LZ77 parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { len: usize, dist: usize },
}

/// Greedy single-probe parse (FastLz) or hash-chain parse (EntropyLz).
fn parse(bytes: &[u8], chain_depth: usize) -> Vec<Token> {
    const TABLE: usize = 1 << 13;
    let mut head = vec![usize::MAX; TABLE];
    let mut chain = vec![usize::MAX; bytes.len()];
    let mut tokens = Vec::with_capacity(bytes.len() / 2);
    let mut i = 0usize;
    while i < bytes.len() {
        if i + MIN_MATCH > bytes.len() {
            tokens.push(Token::Literal(bytes[i]));
            i += 1;
            continue;
        }
        let h = hash4(&bytes[i..]);
        // Search the chain for the longest match.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = head[h];
        let mut probes = 0usize;
        while cand != usize::MAX && probes < chain_depth {
            let dist = i - cand;
            if dist > u16::MAX as usize {
                break; // window exceeded; older candidates are further away
            }
            let max = bytes.len() - i;
            let mut l = 0usize;
            while l < max && bytes[cand + l] == bytes[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = dist;
            }
            cand = chain[cand];
            probes += 1;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match { len: best_len, dist: best_dist });
            // Insert hash entries for covered positions (sparsely for speed).
            let end = i + best_len;
            while i < end && i + MIN_MATCH <= bytes.len() {
                let h = hash4(&bytes[i..]);
                chain[i] = head[h];
                head[h] = i;
                i += if chain_depth > 1 { 1 } else { 2 };
            }
            i = end;
        } else {
            chain[i] = head[h];
            head[h] = i;
            tokens.push(Token::Literal(bytes[i]));
            i += 1;
        }
    }
    tokens
}

#[cfg(test)]
fn unparse(tokens: &[Token], expected: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(expected);
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist;
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
        }
    }
    out
}

/// The LZ4/Snappy-class codec: greedy parse, byte-aligned token format.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastLz;

impl StreamCodec for FastLz {
    fn name(&self) -> &'static str {
        "FastLZ"
    }

    fn encode(&self, words: &[u64]) -> Vec<u8> {
        let bytes = words_to_bytes(words);
        let tokens = parse(&bytes, 1);
        // LZ4-style sequences: token byte (lits:4 | mlen:4), literals,
        // offset u16, with 255-continuation for overflow lengths.
        let mut out = Vec::with_capacity(bytes.len() / 2 + 16);
        let mut lits: Vec<u8> = Vec::new();
        let flush = |out: &mut Vec<u8>, lits: &mut Vec<u8>, m: Option<(usize, usize)>| {
            let lit_len = lits.len();
            let (mlen_code, extra_m) = match m {
                Some((len, _)) => {
                    let adj = len - MIN_MATCH;
                    if adj >= 15 {
                        (15, Some(adj - 15))
                    } else {
                        (adj, None)
                    }
                }
                None => (0, None),
            };
            let lit_code = lit_len.min(15);
            out.push(((lit_code as u8) << 4) | mlen_code as u8);
            if lit_code == 15 {
                let mut rest = lit_len - 15;
                while rest >= 255 {
                    out.push(255);
                    rest -= 255;
                }
                out.push(rest as u8);
            }
            out.extend_from_slice(lits);
            lits.clear();
            if let Some((_, dist)) = m {
                out.extend_from_slice(&(dist as u16).to_le_bytes());
                if let Some(mut rest) = extra_m {
                    while rest >= 255 {
                        out.push(255);
                        rest -= 255;
                    }
                    out.push(rest as u8);
                }
            }
        };
        for t in &tokens {
            match *t {
                Token::Literal(b) => lits.push(b),
                Token::Match { len, dist } => flush(&mut out, &mut lits, Some((len, dist))),
            }
        }
        if !lits.is_empty() {
            flush(&mut out, &mut lits, None);
        }
        out
    }

    fn decode(&self, data: &[u8], n: usize) -> Vec<u64> {
        let expected = n * 8;
        let mut out = Vec::with_capacity(expected);
        let mut p = 0usize;
        while out.len() < expected {
            let token = data[p];
            p += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                loop {
                    let b = data[p];
                    p += 1;
                    lit_len += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            out.extend_from_slice(&data[p..p + lit_len]);
            p += lit_len;
            if out.len() >= expected {
                break;
            }
            let mlen_code = (token & 0xF) as usize;
            // A zero match code can only terminate a literal-only tail;
            // reaching here means a real match follows.
            let dist = u16::from_le_bytes(data[p..p + 2].try_into().expect("2 bytes")) as usize;
            p += 2;
            let mut mlen = mlen_code + MIN_MATCH;
            if mlen_code == 15 {
                loop {
                    let b = data[p];
                    p += 1;
                    mlen += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            let start = out.len() - dist;
            for j in 0..mlen {
                let b = out[start + j];
                out.push(b);
            }
        }
        bytes_to_words(&out, n)
    }
}

/// The Zstd/Brotli/Xz-class codec: deeper parse + canonical Huffman coding.
#[derive(Clone, Copy, Debug)]
pub struct EntropyLz {
    /// Hash-chain probe depth (higher ⇒ better ratio, slower).
    pub chain_depth: usize,
}

impl Default for EntropyLz {
    fn default() -> Self {
        Self { chain_depth: 32 }
    }
}

/// Lit/len alphabet: 0..=255 literals, 256 + bucket for match lengths.
const LEN_BUCKETS: usize = 20;
const LITLEN_ALPHABET: usize = 256 + LEN_BUCKETS;
const DIST_BUCKETS: usize = 17;

/// Bucket for a match length (`len ≥ MIN_MATCH`): exponential, with the
/// bucket index also being the extra-bit count.
#[inline]
fn len_bucket(len: usize) -> (usize, u64, usize) {
    let v = (len - MIN_MATCH + 1) as u64; // ≥ 1
    let bucket = (63 - v.leading_zeros()) as usize; // ⌊log₂ v⌋
    (bucket, v - (1 << bucket), bucket)
}

#[inline]
fn len_unbucket(bucket: usize, extra: u64) -> usize {
    ((1u64 << bucket) + extra) as usize + MIN_MATCH - 1
}

#[inline]
fn dist_bucket(dist: usize) -> (usize, u64, usize) {
    let v = dist as u64; // ≥ 1
    let bucket = (63 - v.leading_zeros()) as usize;
    (bucket, v - (1 << bucket), bucket)
}

#[inline]
fn dist_unbucket(bucket: usize, extra: u64) -> usize {
    ((1u64 << bucket) + extra) as usize
}

impl StreamCodec for EntropyLz {
    fn name(&self) -> &'static str {
        "EntropyLZ"
    }

    fn encode(&self, words: &[u64]) -> Vec<u8> {
        let bytes = words_to_bytes(words);
        let tokens = parse(&bytes, self.chain_depth);
        // Frequencies for the two alphabets.
        let mut lit_freq = vec![0u64; LITLEN_ALPHABET];
        let mut dist_freq = vec![0u64; DIST_BUCKETS];
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lit_freq[256 + len_bucket(len).0] += 1;
                    dist_freq[dist_bucket(dist).0] += 1;
                }
            }
        }
        let lit_lengths = code_lengths(&lit_freq);
        let dist_lengths = code_lengths(&dist_freq);
        let lit_enc = HuffmanEncoder::from_lengths(&lit_lengths);
        let dist_enc = HuffmanEncoder::from_lengths(&dist_lengths);
        let mut w = BitWriter::new();
        // Header: code lengths, 6 bits each (depth < 64 guaranteed by the
        // two-queue construction on ≤ block-sized inputs).
        for &l in lit_lengths.iter().chain(dist_lengths.iter()) {
            w.write(l as u64, 6);
        }
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_enc.write(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (lb, lextra, lbits) = len_bucket(len);
                    lit_enc.write(&mut w, 256 + lb);
                    w.write(lextra, lbits);
                    let (db, dextra, dbits) = dist_bucket(dist);
                    dist_enc.write(&mut w, db);
                    w.write(dextra, dbits);
                }
            }
        }
        w.finish()
    }

    fn decode(&self, data: &[u8], n: usize) -> Vec<u64> {
        let expected = n * 8;
        let mut r = BitReader::new(data);
        let mut lit_lengths = vec![0u8; LITLEN_ALPHABET];
        let mut dist_lengths = vec![0u8; DIST_BUCKETS];
        for l in lit_lengths.iter_mut() {
            *l = r.read(6) as u8;
        }
        for l in dist_lengths.iter_mut() {
            *l = r.read(6) as u8;
        }
        let lit_dec = HuffmanDecoder::from_lengths(&lit_lengths);
        let dist_dec = HuffmanDecoder::from_lengths(&dist_lengths);
        let mut out: Vec<u8> = Vec::with_capacity(expected);
        while out.len() < expected {
            let sym = lit_dec.read(&mut r) as usize;
            if sym < 256 {
                out.push(sym as u8);
            } else {
                let lb = sym - 256;
                let len = len_unbucket(lb, r.read(lb));
                let db = dist_dec.read(&mut r) as usize;
                let dist = dist_unbucket(db, r.read(db));
                let start = out.len() - dist;
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
        }
        bytes_to_words(&out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn roundtrip_both(words: &[u64]) {
        let enc = FastLz.encode(words);
        assert_eq!(FastLz.decode(&enc, words.len()), words, "FastLz");
        let e = EntropyLz::default();
        let enc = e.encode(words);
        assert_eq!(e.decode(&enc, words.len()), words, "EntropyLz");
    }

    #[test]
    fn empty_single_repeat() {
        roundtrip_both(&[]);
        roundtrip_both(&[12345]);
        roundtrip_both(&vec![0xDEAD_BEEF; 400]);
    }

    #[test]
    fn parse_unparse_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let n = rng.random_range(0..2000);
            let bytes: Vec<u8> = (0..n)
                .map(|_| if rng.random_bool(0.7) { rng.random_range(0..4) } else { rng.random() })
                .collect();
            for depth in [1usize, 8, 32] {
                let tokens = parse(&bytes, depth);
                assert_eq!(unparse(&tokens, bytes.len()), bytes, "depth {depth}");
            }
        }
    }

    #[test]
    fn len_dist_buckets_roundtrip() {
        for len in MIN_MATCH..2000 {
            let (b, e, bits) = len_bucket(len);
            assert!(b < LEN_BUCKETS, "len {len} bucket {b}");
            assert!(e < (1 << bits) || bits == 0 && e == 0);
            assert_eq!(len_unbucket(b, e), len);
        }
        for dist in 1..70_000 {
            let (b, e, _) = dist_bucket(dist);
            assert!(b < DIST_BUCKETS, "dist {dist} bucket {b}");
            assert_eq!(dist_unbucket(b, e), dist);
        }
    }

    #[test]
    fn repetitive_data_compresses_hard() {
        let words: Vec<u64> = (0..2000).map(|k| (k % 16) as u64 * 1000).collect();
        let fast = FastLz.encode(&words).len();
        let entropy = EntropyLz::default().encode(&words).len();
        assert!(fast < 2000 * 8 / 4, "FastLz {fast}");
        assert!(entropy < 2000 * 8 / 4, "EntropyLz {entropy}");
        roundtrip_both(&words);
    }

    #[test]
    fn entropy_coding_beats_fast_lz_on_noisy_walks() {
        // A noisy random walk defeats long matches; the Huffman stage should
        // exploit the skewed byte distribution that byte-aligned tokens
        // cannot (this is the Zstd-vs-Lz4 gap of the paper's Fig. 2).
        let mut rng = StdRng::seed_from_u64(4);
        let mut v = 1_000_000i64;
        let words: Vec<u64> = (0..4000)
            .map(|_| {
                v += rng.random_range(-300..300);
                v as u64
            })
            .collect();
        let fast = FastLz.encode(&words).len();
        let entropy = EntropyLz::default().encode(&words).len();
        assert!(entropy < fast, "EntropyLz {entropy} !< FastLz {fast}");
        roundtrip_both(&words);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        let mut rng = StdRng::seed_from_u64(2);
        let words: Vec<u64> = (0..1000).map(|_| rng.random()).collect();
        roundtrip_both(&words);
    }

    #[test]
    fn smooth_series_bytes_compress() {
        // i64 LE images of a smooth series share 5-6 high bytes per value.
        let words: Vec<u64> = (0..1000u64).map(|k| 1_000_000_000 + k * 3).collect();
        let entropy = EntropyLz::default().encode(&words).len();
        assert!(entropy < 1000 * 4, "EntropyLz {entropy} on smooth data");
        roundtrip_both(&words);
    }

    #[test]
    fn overlapping_match_copy() {
        // RLE-like runs force dist < len (overlapping copies).
        let mut words = vec![7u64; 100];
        words.extend((0..50).map(|k| k as u64));
        words.extend(vec![7u64; 100]);
        roundtrip_both(&words);
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // > 15 literals then > 19-byte matches: exercises 255-continuations.
        let mut rng = StdRng::seed_from_u64(3);
        let mut words: Vec<u64> = (0..300).map(|_| rng.random()).collect();
        words.extend(vec![42u64; 300]);
        let tail: Vec<u64> = words[..200].to_vec();
        words.extend(tail);
        roundtrip_both(&words);
    }
}
