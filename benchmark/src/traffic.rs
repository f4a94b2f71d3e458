//! Query and write streams, generated from `--seed`, and the oracle checks
//! of their answers. A stream is a plain `Vec<Op>`: the same ops are sent
//! over HTTP by the load generator and replayed in-process at the `store`
//! and `neats-core` layers of a traced run.

use crate::config::{Mix, Scale};
use crate::fixture::Data;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One operation. Indices are series-global; `b` is exclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET /q/<s>?idx=K`
    Point { s: u16, k: u32 },
    /// `GET /q/<s>?t=T` with `T` the stamp of point `k`.
    AtTime { s: u16, k: u32 },
    /// `GET /q/<s>?idx=A..B`
    Range { s: u16, a: u32, b: u32 },
    /// `GET /q/<s>?t=LO..HI` with the stamps of points `a` and `b − 1`.
    TimeRange { s: u16, a: u32, b: u32 },
    /// `POST /write` of points `first .. first + n` of one series.
    Write { s: u16, first: u32, n: u32 },
    /// `POST /q` with the 16 ops starting at `first` in the stream.
    Batch { first: u32 },
}

impl Op {
    /// Values the answer carries (timestamps not counted).
    pub fn values(&self) -> u64 {
        match *self {
            Op::Point { .. } | Op::AtTime { .. } => 1,
            Op::Range { a, b, .. } | Op::TimeRange { a, b, .. } => (b - a) as u64,
            Op::Write { n, .. } => n as u64,
            Op::Batch { .. } => BATCH as u64,
        }
    }
}

/// Queries per `POST /q` of the batch probe.
pub const BATCH: usize = 16;

/// The point and range streams depend on the seed only, never on the
/// workload: `point_hot` and `point_cold` send the identical stream.
pub fn stream(mix: Mix, scale: &Scale, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0B5E);
    let (series, points) = (scale.series as u16, scale.points as u32);
    (0..n)
        .map(|_| {
            let s = rng.random_range(0..series);
            match mix {
                Mix::Point => {
                    let k = rng.random_range(0..points);
                    if rng.random_range(0..10u32) == 0 {
                        Op::AtTime { s, k }
                    } else {
                        Op::Point { s, k }
                    }
                }
                Mix::Range => {
                    // Lengths 4:2:1, a quarter phrased as time ranges.
                    let len = scale.range_lens()[match rng.random_range(0..7u32) {
                        0..=3 => 0,
                        4..=5 => 1,
                        _ => 2,
                    }] as u32;
                    let a = rng.random_range(0..=points - len);
                    if rng.random_range(0..4u32) == 0 {
                        Op::TimeRange { s, a, b: a + len }
                    } else {
                        Op::Range { s, a, b: a + len }
                    }
                }
            }
        })
        .collect()
}

/// One `ingest_mixed` read before it is bound to the series' current
/// length: which series, which kind, and a fraction placing it.
#[derive(Clone, Copy, Debug)]
pub struct ReadDraw {
    s: u16,
    kind: u8,
    frac: f64,
}

/// 70 % point in the newest window, 20 % range ending at the newest point,
/// 10 % uniformly old point — over the series that receive writes.
pub fn ingest_reads(scale: &Scale, seed: u64, n: usize) -> Vec<ReadDraw> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A6E_570B);
    (0..n)
        .map(|_| ReadDraw {
            s: rng.random_range(0..scale.write_series() as u16),
            kind: match rng.random_range(0..10u32) {
                0..=6 => 0,
                7..=8 => 1,
                _ => 2,
            },
            frac: rng.random::<f64>(),
        })
        .collect()
}

/// What the load generator asks of a traffic source. `lane` tells a source
/// that feeds several paced lanes (writes beside reads) which one is asking.
pub trait Traffic {
    /// Renders the next request of `lane` into `out` (cleared by the
    /// caller); `None` when the lane has nothing more to send.
    fn next(&mut self, lane: usize, out: &mut Vec<u8>) -> Option<Op>;
    /// Checks one answer against the oracle.
    fn check(&mut self, op: Op, status: u16, body: &[u8]) -> bool;
}

/// A fixed stream sent in order, once or cyclically.
pub struct StreamTraffic<'a> {
    pub data: &'a Data,
    pub ops: &'a [Op],
    pub cursor: usize,
    /// Send `POST /q` batches of [`BATCH`] ops instead of single queries.
    pub batched: bool,
    /// Stop at the end of `ops` instead of wrapping around.
    pub once: bool,
}

impl<'a> StreamTraffic<'a> {
    pub fn cyclic(data: &'a Data, ops: &'a [Op]) -> Self {
        Self {
            data,
            ops,
            cursor: 0,
            batched: false,
            once: false,
        }
    }
}

impl Traffic for StreamTraffic<'_> {
    fn next(&mut self, _lane: usize, out: &mut Vec<u8>) -> Option<Op> {
        if self.batched {
            if self.cursor + BATCH > self.ops.len() {
                self.cursor = 0;
            }
            let first = self.cursor;
            self.cursor += BATCH;
            render_batch(self.data, &self.ops[first..first + BATCH], out);
            return Some(Op::Batch {
                first: first as u32,
            });
        }
        if self.cursor == self.ops.len() {
            if self.once {
                return None;
            }
            self.cursor = 0;
        }
        let op = self.ops[self.cursor];
        self.cursor += 1;
        render_get(self.data, op, out);
        Some(op)
    }

    fn check(&mut self, op: Op, status: u16, body: &[u8]) -> bool {
        match op {
            Op::Batch { first } => {
                let first = first as usize;
                status == 200 && check_batch(self.data, &self.ops[first..first + BATCH], body)
            }
            _ => status == 200 && check_read(self.data, op, body),
        }
    }
}

/// `ingest_mixed`: lane 0 writes 512-point single-series bodies rotating
/// over the write series, lane 1 reads relative to what has been
/// acknowledged so far.
pub struct IngestTraffic<'a> {
    pub data: &'a Data,
    pub scale: Scale,
    pub reads: &'a [ReadDraw],
    /// Acknowledged length of every write series.
    pub lens: Vec<usize>,
    pub next_series: usize,
    /// When set, the write lane sends one body to each listed series (last
    /// first) and then stops, instead of rotating forever.
    pub write_plan: Option<Vec<usize>>,
    pub read_cursor: usize,
    pub points_acked: u64,
}

impl<'a> IngestTraffic<'a> {
    pub fn new(data: &'a Data, scale: Scale, reads: &'a [ReadDraw]) -> Self {
        Self {
            data,
            scale,
            reads,
            lens: vec![data.base_len(); scale.write_series()],
            next_series: 0,
            write_plan: None,
            read_cursor: 0,
            points_acked: 0,
        }
    }

    /// The ranges that read back every acknowledged point, one segment
    /// at a time.
    pub fn acked_ranges(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (s, &len) in self.lens.iter().enumerate() {
            let mut a = self.data.base_len();
            while a < len {
                let b = len.min(a + self.scale.segment);
                ops.push(Op::Range {
                    s: s as u16,
                    a: a as u32,
                    b: b as u32,
                });
                a = b;
            }
        }
        ops
    }
}

pub const LANE_WRITE: usize = 0;
pub const LANE_READ: usize = 1;

impl Traffic for IngestTraffic<'_> {
    fn next(&mut self, lane: usize, out: &mut Vec<u8>) -> Option<Op> {
        if lane == LANE_WRITE {
            let s = match &mut self.write_plan {
                Some(plan) => plan.pop()?,
                None => {
                    let s = self.next_series;
                    self.next_series = (s + 1) % self.lens.len();
                    s
                }
            };
            let (first, n) = (self.lens[s], self.scale.write_batch);
            render_write(self.data, s, first, n, out);
            return Some(Op::Write {
                s: s as u16,
                first: first as u32,
                n: n as u32,
            });
        }
        let d = self.reads[self.read_cursor % self.reads.len()];
        self.read_cursor += 1;
        let len = self.lens[d.s as usize];
        let op = match d.kind {
            0 => {
                let back = (d.frac * self.scale.newest_window().min(len) as f64) as usize;
                Op::Point {
                    s: d.s,
                    k: (len - 1 - back) as u32,
                }
            }
            1 => Op::Range {
                s: d.s,
                a: (len - self.scale.newest_range()) as u32,
                b: len as u32,
            },
            _ => Op::Point {
                s: d.s,
                k: (d.frac * len as f64) as u32,
            },
        };
        render_get(self.data, op, out);
        Some(op)
    }

    fn check(&mut self, op: Op, status: u16, body: &[u8]) -> bool {
        match op {
            Op::Write { s, n, .. } => {
                let mut want = Vec::with_capacity(24);
                want.extend_from_slice(b"#0 ok ");
                push_u64(&mut want, n as u64);
                want.extend_from_slice(b"\n#done 1\n");
                let ok = status == 200 && body == want;
                if ok {
                    self.lens[s as usize] += n as usize;
                    self.points_acked += n as u64;
                }
                ok
            }
            _ => status == 200 && check_read(self.data, op, body),
        }
    }
}

// ---------------------------------------------------------------------
// Rendering requests
// ---------------------------------------------------------------------

pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

pub fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `<series>?<spec>` / `<series> <spec>` of one read op.
fn push_spec(data: &Data, op: Op, sep: u8, out: &mut Vec<u8>) {
    let (s, key, lo, hi) = match op {
        Op::Point { s, k } => (s, &b"idx="[..], k as u64, None),
        Op::AtTime { s, k } => (s, &b"t="[..], data.stamp_at(s as usize, k as usize), None),
        Op::Range { s, a, b } => (s, &b"idx="[..], a as u64, Some(b as u64)),
        Op::TimeRange { s, a, b } => (
            s,
            &b"t="[..],
            data.stamp_at(s as usize, a as usize),
            Some(data.stamp_at(s as usize, b as usize - 1)),
        ),
        Op::Write { .. } | Op::Batch { .. } => unreachable!("not a read op"),
    };
    out.extend_from_slice(data.series[s as usize].name.as_bytes());
    out.push(sep);
    out.extend_from_slice(key);
    push_u64(out, lo);
    if let Some(hi) = hi {
        out.extend_from_slice(b"..");
        push_u64(out, hi);
    }
}

pub fn render_get(data: &Data, op: Op, out: &mut Vec<u8>) {
    out.extend_from_slice(b"GET /q/");
    push_spec(data, op, b'?', out);
    out.extend_from_slice(b" HTTP/1.1\r\nHost: b\r\n\r\n");
}

fn push_post(path: &str, body: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(b"POST ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: b\r\nContent-Length: ");
    push_u64(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

fn render_batch(data: &Data, ops: &[Op], out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(ops.len() * 24);
    for &op in ops {
        push_spec(data, op, b' ', &mut body);
        body.push(b'\n');
    }
    push_post("/q", &body, out);
}

fn render_write(data: &Data, s: usize, first: usize, n: usize, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(n * 32);
    for idx in first..first + n {
        body.extend_from_slice(data.series[s].name.as_bytes());
        body.push(b' ');
        push_u64(&mut body, data.stamp_at(s, idx));
        body.push(b' ');
        push_i64(&mut body, data.value_at(s, idx));
        body.push(b'\n');
    }
    push_post("/write", &body, out);
}

// ---------------------------------------------------------------------
// Checking answers
// ---------------------------------------------------------------------

/// Parses a decimal integer at the start of `b`; returns it and the rest.
fn take_int(b: &[u8]) -> Option<(i128, &[u8])> {
    let (neg, mut i) = match b.first() {
        Some(b'-') => (true, 1),
        _ => (false, 0),
    };
    let start = i;
    let mut v: i128 = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        v = v * 10 + (b[i] - b'0') as i128;
        i += 1;
    }
    if i == start || i - start > 20 {
        return None;
    }
    Some((if neg { -v } else { v }, &b[i..]))
}

fn eat(b: &[u8], c: u8) -> Option<&[u8]> {
    (b.first() == Some(&c)).then(|| &b[1..])
}

/// Checks the payload of one read op; returns the unconsumed rest. Every
/// value (and, for time ranges, every timestamp) is compared — the full
/// comparison costs the generator no more than a checksum would, since the
/// text has to be parsed either way.
fn check_payload<'b>(data: &Data, op: Op, mut body: &'b [u8]) -> Option<&'b [u8]> {
    let (s, a, b, stamps) = match op {
        Op::Point { s, k } | Op::AtTime { s, k } => (s as usize, k as usize, k as usize + 1, false),
        Op::Range { s, a, b } => (s as usize, a as usize, b as usize, false),
        Op::TimeRange { s, a, b } => (s as usize, a as usize, b as usize, true),
        Op::Write { .. } | Op::Batch { .. } => return None,
    };
    for idx in a..b {
        if stamps {
            let (t, rest) = take_int(body)?;
            if t != data.stamp_at(s, idx) as i128 {
                return None;
            }
            body = eat(rest, b',')?;
        }
        let (v, rest) = take_int(body)?;
        if v != data.value_at(s, idx) as i128 {
            return None;
        }
        body = eat(rest, b'\n')?;
    }
    Some(body)
}

pub fn check_read(data: &Data, op: Op, body: &[u8]) -> bool {
    matches!(check_payload(data, op, body), Some(rest) if rest.is_empty())
}

/// Checks a `POST /q` frame: `#i ok N` + payload per op, then `#done M`.
fn check_batch(data: &Data, ops: &[Op], body: &[u8]) -> bool {
    let parse = || -> Option<()> {
        let mut rest = body;
        for (i, &op) in ops.iter().enumerate() {
            let (n, r) = take_int(eat(rest, b'#')?)?;
            let (lines, r) = take_int(r.strip_prefix(b" ok ")?)?;
            if n != i as i128 || lines != op.values() as i128 {
                return None;
            }
            rest = check_payload(data, op, eat(r, b'\n')?)?;
        }
        let (n, r) = take_int(rest.strip_prefix(b"#done ")?)?;
        (n == ops.len() as i128 && r == b"\n").then_some(())
    };
    parse().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SMOKE;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a = stream(Mix::Point, &SMOKE, 7, 1000);
        assert_eq!(a, stream(Mix::Point, &SMOKE, 7, 1000));
        assert_ne!(a, stream(Mix::Point, &SMOKE, 8, 1000));
    }

    #[test]
    fn checks_accept_the_oracle_rendering_and_reject_one_changed_value() {
        let data = Data::generate(&SMOKE, 1);
        let op = Op::TimeRange { s: 3, a: 10, b: 14 };
        let mut body = Vec::new();
        for idx in 10..14 {
            push_u64(&mut body, data.stamp_at(3, idx));
            body.push(b',');
            push_i64(&mut body, data.value_at(3, idx));
            body.push(b'\n');
        }
        assert!(check_read(&data, op, &body));
        assert!(!check_read(&data, op, &body[..body.len() - 1]));
        let mut wrong = body.clone();
        let last_digit = wrong.len() - 2;
        wrong[last_digit] = if wrong[last_digit] == b'1' {
            b'2'
        } else {
            b'1'
        };
        assert!(!check_read(&data, op, &wrong));
    }

    #[test]
    fn appended_stamps_strictly_increase() {
        let data = Data::generate(&SMOKE, 2);
        let n = data.base_len();
        for idx in n - 2..n + 2000 {
            assert!(data.stamp_at(0, idx + 1) > data.stamp_at(0, idx));
        }
    }
}
