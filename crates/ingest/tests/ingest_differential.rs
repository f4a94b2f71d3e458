//! Differential replay oracle: property-generated interleaved traces of
//! `append` / `seal` / `flush` run against a live
//! [`Ingestor`] and a trivial `Vec`-backed reference model in lockstep.
//! After every step the full query battery must agree with the model;
//! at the end the directory is reopened (recovery path) and re-verified,
//! then the same battery runs from 1, 2, and 4 concurrent reader threads
//! on the final state — answers must be bit-identical to the model from
//! every thread.

use neats_ingest::{FsyncPolicy, IngestConfig, Ingestor};
use neats_store::{RangeScratch, StoreError};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The reference model: live series in first-append order, each an exact
/// `(stamp, value)` column pair.
#[derive(Default)]
struct Model {
    series: Vec<(String, Vec<(u64, i64)>)>,
}

impl Model {
    fn entry(&mut self, name: &str) -> &mut Vec<(u64, i64)> {
        if let Some(i) = self.series.iter().position(|(n, _)| n == name) {
            &mut self.series[i].1
        } else {
            self.series.push((name.to_string(), Vec::new()));
            &mut self.series.last_mut().unwrap().1
        }
    }

    fn get(&self, name: &str) -> Option<&Vec<(u64, i64)>> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }

    fn last_stamp(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(|p| p.last().map(|&(t, _)| t))
    }
}

/// One generated trace step.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Append `count` points to series `sid` with stamp gaps seeded by `x`.
    Append { sid: usize, count: usize, x: u64 },
    Seal,
    Flush,
}

fn decode_step(kind: u8, a: u16, x: u64) -> Step {
    let sid = (a % 4) as usize;
    match kind % 9 {
        0..=6 => Step::Append { sid, count: 1 + (a as usize % 40), x },
        7 => Step::Seal,
        _ => Step::Flush,
    }
}

fn series_name(sid: usize) -> String {
    format!("s{sid}")
}

/// The `(stamp, value)` pairs of `name` in `[t_lo, t_hi]`, through the
/// chunked accessor the server renders time ranges from.
fn by_time(ing: &Ingestor, name: &str, t_lo: u64, t_hi: u64) -> Vec<(u64, i64)> {
    let mut out = Vec::new();
    ing.range_by_time_chunks_in(&mut RangeScratch::default(), name, t_lo, t_hi, |c| {
        out.extend_from_slice(c)
    })
    .unwrap();
    out
}

/// Full query battery: every answer the ingestor gives must equal the
/// model's. `probe` seeds the range/time probes deterministically.
fn check(ing: &Ingestor, model: &Model, probe: u64) {
    let mut names: Vec<String> = model.series.iter().map(|(n, _)| n.clone()).collect();
    names.sort_unstable();
    assert_eq!(ing.series_names(), names, "series_names");
    assert_eq!(ing.series_count(), names.len());
    let mut total = 0usize;
    let mut x = probe | 1;
    let mut rng = move || {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        x
    };
    for (name, pts) in &model.series {
        let n = pts.len();
        total += n;
        assert_eq!(ing.len(name).unwrap(), n, "len({name})");
        // Full columns.
        let mut vals = Vec::new();
        ing.range(name, 0..n, &mut vals).unwrap();
        let want: Vec<i64> = pts.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, want, "range({name}, full)");
        // Point probes: first, last, and a few interior.
        for _ in 0..4 {
            let k = (rng() % n as u64) as usize;
            assert_eq!(ing.get(name, k).unwrap(), pts[k].1, "get({name}, {k})");
            assert_eq!(ing.at_time(name, pts[k].0).unwrap(), Some(pts[k].1));
        }
        assert!(matches!(
            ing.get(name, n),
            Err(StoreError::OutOfRange { .. })
        ));
        // A random sub-range, by index and by time.
        let a = (rng() % (n as u64 + 1)) as usize;
        let b = a + (rng() % (n - a + 1) as u64) as usize;
        vals.clear();
        ing.range(name, a..b, &mut vals).unwrap();
        assert_eq!(vals, want[a..b], "range({name}, {a}..{b})");
        // Time-window scan spanning the sealed↔head boundary (full span
        // plus a random interior window), and gap probes.
        assert_eq!(&by_time(ing, name, 0, u64::MAX), pts, "by_time({name}, full)");
        if b > a {
            let (t_lo, t_hi) = (pts[a].0, pts[b - 1].0);
            assert_eq!(by_time(ing, name, t_lo, t_hi), pts[a..b], "by_time({name}, [{t_lo}, {t_hi}])");
            assert_eq!(
                ing.at_time(name, t_hi + 1).unwrap(),
                pts.iter().find(|&&(t, _)| t == t_hi + 1).map(|&(_, v)| v),
                "at_time gap probe"
            );
        }
    }
    assert_eq!(ing.total_points(), total, "total_points");
    // Unknown series behave identically everywhere.
    assert!(matches!(ing.len("no-such"), Err(StoreError::UnknownSeries(_))));
    assert!(matches!(ing.at_time("no-such", 1), Err(StoreError::UnknownSeries(_))));
}

fn run_trace(steps: &[Step], chunk_points: usize, dir_tag: u64) {
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "neats-idiff-{dir_tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    // `Never` keeps the trace fast; durability is the fault suite's topic —
    // here the process stays alive, so replay correctness is unaffected.
    let cfg = IngestConfig {
        chunk_points,
        seal_points: chunk_points * 2,
        fsync: FsyncPolicy::Never,
        ..IngestConfig::default()
    };
    let ing = Ingestor::open(&dir, cfg.clone()).unwrap();
    let mut model = Model::default();

    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Append { sid, count, x } => {
                let name = series_name(sid);
                let mut t = model.last_stamp(&name).unwrap_or(1_000 * sid as u64);
                let mut v = (x as i64) % 1000;
                let mut seed = x | 1;
                let mut rng = move || {
                    seed = seed.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
                    seed
                };
                let mut stamps = Vec::with_capacity(count);
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    t += 1 + rng() % 9;
                    v += (rng() % 41) as i64 - 20;
                    stamps.push(t);
                    values.push(v);
                }
                ing.append(&name, &stamps, &values).unwrap();
                model.entry(&name).extend(stamps.iter().zip(&values).map(|(&t, &v)| (t, v)));
            }
            Step::Seal => {
                ing.seal().unwrap();
            }
            Step::Flush => {
                ing.flush().unwrap();
            }
        }
        check(&ing, &model, i as u64 + 1);
    }

    // Recovery path: drop and reopen, then verify again.
    drop(ing);
    let ing = Ingestor::open(&dir, cfg).unwrap();
    check(&ing, &model, 0xC0FFEE);

    // Reader-thread fan-out on the final state: 1, 2, and 4 threads run the
    // battery concurrently; every thread must get model-identical answers.
    for threads in [1usize, 2, 4] {
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let ing = &ing;
                let model = &model;
                scope.spawn(move || check(ing, model, 0xBEEF ^ tid as u64));
            }
        });
    }
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

/// Time windows that straddle, touch and miss the sealed↔head boundary:
/// the sealed part's timestamps come from the store's sequential cursor, the
/// head part from the raw columns, and the two must meet without a gap, a
/// repeat or a mislabelled point — through one reused scratch as well.
#[test]
fn time_windows_across_the_sealed_head_boundary() {
    let dir = std::env::temp_dir().join(format!("neats-idiff-boundary-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = IngestConfig {
        chunk_points: 16,
        seal_points: usize::MAX,
        fsync: FsyncPolicy::Never,
        ..IngestConfig::default()
    };
    let ing = Ingestor::open(&dir, cfg).unwrap();
    let pts: Vec<(u64, i64)> = (0..137u64)
        .map(|k| (5_000 + k * 7 + k % 3, (k * k % 89) as i64 - 40))
        .collect();
    let (stamps, values): (Vec<u64>, Vec<i64>) = pts.iter().copied().unzip();
    ing.append("s", &stamps[..100], &values[..100]).unwrap();
    ing.seal().unwrap();
    ing.append("s", &stamps[100..], &values[100..]).unwrap();
    // Whole chunks are sealed, the raw tail stays in the head.
    let boundary = pts.len() - ing.head_points();
    assert!(
        (16..=100).contains(&boundary),
        "{boundary} sealed points"
    );

    let (last_sealed, first_head) = (stamps[boundary - 1], stamps[boundary]);
    assert!(
        first_head - last_sealed > 1,
        "the fixture needs a gap at the boundary"
    );
    let probes = [
        0,
        stamps[0],
        stamps[boundary - 20],
        stamps[boundary - 16], // a segment's first stamp
        last_sealed - 1,
        last_sealed,
        last_sealed + 1, // between the two parts
        first_head - 1,
        first_head,
        first_head + 1,
        stamps[boundary + 9],
        stamps[pts.len() - 1],
        u64::MAX,
    ];
    let mut scratch = RangeScratch::default();
    for t_lo in probes {
        for t_hi in probes {
            let want: Vec<(u64, i64)> = pts
                .iter()
                .copied()
                .filter(|&(t, _)| t >= t_lo && t <= t_hi)
                .collect();
            let mut got = Vec::new();
            ing.range_by_time_chunks_in(&mut scratch, "s", t_lo, t_hi, |chunk| {
                assert!(!chunk.is_empty());
                got.extend_from_slice(chunk);
            })
            .unwrap();
            assert_eq!(
                got, want,
                "chunks through a reused scratch [{t_lo}, {t_hi}]"
            );
        }
    }
    // The index ranges across the same boundary, through the same scratch.
    for (a, b) in [
        (0, pts.len()),
        (boundary - 3, boundary + 3),
        (boundary, boundary + 1),
    ] {
        let mut got = Vec::new();
        ing.range_chunks_in(&mut scratch, "s", a..b, |chunk| {
            got.extend_from_slice(chunk)
        })
        .unwrap();
        assert_eq!(got, values[a..b], "range_chunks_in {a}..{b}");
    }
    drop(ing);
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The live ingestor equals the Vec model after every step of a random
    /// interleaved trace, after recovery, and from concurrent readers.
    #[test]
    fn trace_equals_model(
        raw in prop::collection::vec((0u8..=255, 0u16..=999, 1u64..u64::MAX), 5..45),
        chunk_idx in 0usize..3,
    ) {
        let steps: Vec<Step> =
            raw.iter().map(|&(k, a, x)| decode_step(k, a, x)).collect();
        // Tiny chunks exercise chunk rolls and multi-segment seals; the
        // larger size keeps whole traces in the raw tail.
        let chunk_points = [8usize, 32, 512][chunk_idx];
        run_trace(&steps, chunk_points, raw.len() as u64);
    }

    /// Dense mutation mix: short appends with a seal or flush after each,
    /// so generation swaps happen between most steps.
    #[test]
    fn churny_trace_equals_model(
        raw in prop::collection::vec((7u8..=8, 0u16..=99, 1u64..u64::MAX), 8..30),
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .enumerate()
            .map(|(i, &(k, a, x))| {
                if i % 2 == 0 {
                    // Every other step appends so there is data to churn.
                    Step::Append { sid: (a % 3) as usize, count: 1 + (a as usize % 12), x }
                } else {
                    decode_step(k, a, x)
                }
            })
            .collect();
        run_trace(&steps, 8, 0x5EED ^ raw.len() as u64);
    }
}
