//! The traced run's in-process replay: the workload's own query prefix is
//! run again at the `store` layer (`Store::get` / `at_time` /
//! `range_chunks` / `range_by_time_chunks`) and at the `neats-core` layer
//! (`ArchiveView::at` / `range` on the segments those calls resolve to),
//! with a span recorded by the benchmark around each public call. Spans
//! stay in memory and are written out once, when the replay is over.

use crate::bytestack::Frame;
use crate::fixture::Data;
use crate::traffic::Op;
use neats_core::ArchiveView;
use neats_store::Store;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub const LAYERS: [&str; 3] = ["query", "store", "neats-core"];
const QUERY: u8 = 0;
const STORE: u8 = 1;
const CORE: u8 = 2;
const NO_PARENT: u32 = u32::MAX;

/// One span: which layer, when (ns from the replay's start), the span that
/// caused it and the query both belong to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u32,
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub queries: usize,
    pub attempted: u64,
    pub failed: u64,
    /// What two back-to-back clock reads cost: every span carries one.
    pub clock_ns: f64,
    /// Median span of each layer, clock cost taken off.
    pub store_p50_ns: f64,
    pub core_p50_ns: f64,
}

fn median_u64(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0) as f64
}

fn clock_cost_ns() -> f64 {
    let mut deltas = Vec::with_capacity(4096);
    for _ in 0..4096 {
        let a = Instant::now();
        let b = Instant::now();
        deltas.push(b.duration_since(a).as_nanos() as u64);
    }
    median_u64(deltas)
}

/// Replays `ops` until they run out or `budget` is spent.
pub fn replay(
    data: &Data,
    store: &Store,
    frames: &[Vec<Frame>],
    ops: &[Op],
    budget: Duration,
) -> Replay {
    let pack = store.as_bytes();
    let views: Vec<Vec<(Frame, ArchiveView<'_>)>> = frames
        .iter()
        .map(|fs| {
            fs.iter()
                .map(|f| {
                    let view = ArchiveView::open(&pack[f.offset..f.offset + f.len])
                        .expect("the frame was opened before");
                    (*f, view)
                })
                .collect()
        })
        .collect();
    // Warm the store's cache: the replay prices the warm path.
    for s in &data.series {
        let _ = store.range_chunks(&s.name, 0..s.values.len(), |_| {});
    }

    let mut spans = Vec::with_capacity(ops.len() * 3);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut buf = Vec::new();
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut queries = 0usize;
    for (q, &op) in ops.iter().enumerate() {
        if q % 256 == 0 && epoch.elapsed() >= budget {
            break;
        }
        queries += 1;
        let (s, a, b) = match op {
            Op::Point { s, k } | Op::AtTime { s, k } => (s as usize, k as usize, k as usize + 1),
            Op::Range { s, a, b } | Op::TimeRange { s, a, b } => {
                (s as usize, a as usize, b as usize)
            }
            Op::Write { .. } | Op::Batch { .. } => continue,
        };
        let name = &data.series[s].name;
        let mut sum = 0i64;
        let mut n = 0usize;

        let t0 = Instant::now();
        match op {
            Op::Point { .. } => {
                sum = store.get(name, a).unwrap_or(i64::MIN);
                n = 1;
            }
            Op::AtTime { .. } => {
                sum = store
                    .at_time(name, data.stamp_at(s, a))
                    .ok()
                    .flatten()
                    .unwrap_or(i64::MIN);
                n = 1;
            }
            Op::Range { .. } => {
                let _ = store.range_chunks(name, a..b, |c| {
                    n += c.len();
                    sum = c.iter().fold(sum, |acc, &v| acc.wrapping_add(v));
                });
            }
            _ => {
                let (lo, hi) = (data.stamp_at(s, a), data.stamp_at(s, b - 1));
                let _ = store.range_by_time_chunks(name, lo, hi, |c| {
                    n += c.len();
                    sum = c.iter().fold(sum, |acc, &(_, v)| acc.wrapping_add(v));
                });
            }
        }
        let t1 = Instant::now();
        let mut core_sum = 0i64;
        for (f, view) in &views[s] {
            let (lo, hi) = (a.max(f.first_index), b.min(f.first_index + f.count));
            if lo >= hi {
                continue;
            }
            if hi - lo == 1 {
                core_sum = core_sum.wrapping_add(view.at(lo - f.first_index));
            } else {
                buf.clear();
                view.range(lo - f.first_index..hi - f.first_index, &mut buf);
                core_sum = buf.iter().fold(core_sum, |acc, &v| acc.wrapping_add(v));
            }
        }
        let t2 = Instant::now();

        let want = (a..b).fold(0i64, |acc, i| acc.wrapping_add(data.value_at(s, i)));
        attempted += 2;
        failed += u64::from(sum != want || n != b - a) + u64::from(core_sum != want);

        let root = spans.len() as u32;
        let query = q as u32;
        spans.push(Span {
            layer: QUERY,
            start_ns: ns(t0),
            end_ns: ns(t2),
            parent: NO_PARENT,
            query,
        });
        spans.push(Span {
            layer: STORE,
            start_ns: ns(t0),
            end_ns: ns(t1),
            parent: root,
            query,
        });
        spans.push(Span {
            layer: CORE,
            start_ns: ns(t1),
            end_ns: ns(t2),
            parent: root,
            query,
        });
    }

    let clock_ns = clock_cost_ns();
    let p50 = |layer: u8| {
        let d = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        (median_u64(d) - clock_ns).max(0.0)
    };
    Replay {
        queries,
        attempted,
        failed,
        clock_ns,
        store_p50_ns: p50(STORE),
        core_p50_ns: p50(CORE),
        spans,
    }
}

impl Replay {
    /// Self time of a span is its duration minus its children's; here the
    /// `query` span's children tile it, so a layer's self time is its own
    /// span (less the clock) and the `store` layer's share above
    /// `neats-core` is the difference of the two medians.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{")?;
        writeln!(w, "  \"workload\": \"{workload}\",")?;
        writeln!(w, "  \"layers\": [\"{}\"],", LAYERS.join("\", \""))?;
        writeln!(w, "  \"queries\": {},", self.queries)?;
        writeln!(w, "  \"clock_ns\": {},", self.clock_ns)?;
        writeln!(w, "  \"store_p50_ns\": {},", self.store_p50_ns)?;
        writeln!(w, "  \"neats_core_p50_ns\": {},", self.core_p50_ns)?;
        writeln!(
            w,
            "  \"store_self_p50_ns\": {},",
            (self.store_p50_ns - self.core_p50_ns).max(0.0)
        )?;
        writeln!(
            w,
            "  \"span_fields\": [\"layer\", \"start_ns\", \"end_ns\", \"parent\", \"query\"],"
        )?;
        writeln!(w, "  \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "    [{}, {}, {}, {parent}, {}]{comma}",
                s.layer, s.start_ns, s.end_ns, s.query
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        w.flush()
    }
}
