//! Per-layer probes of a traced run: each layer's public functions timed
//! from outside, on fixture B and on the streams the workloads send, so the
//! numbers subtract into one cost stack (succinct primitive →
//! `ArchiveView::at` → `Store::get` → loopback round trip) and one byte
//! stack. Layers are the crates; nothing here reaches into a private item.

use crate::bytestack::{Frame, Walked};
use crate::config::{Mix, Scale};
use crate::fixture::{self, Data};
use crate::pipeline::Report;
use crate::server::Host;
use crate::traffic::{self, Op};
use neats_core::partition::{self, PartitionConfig};
use neats_core::{default_epsilons, positivity_shift, ArchiveView, Kind, NeaTS, NeaTSCompressed};
use neats_ingest::{FsyncPolicy, IngestConfig, Ingestor};
use neats_store::{Store, StoreOptions};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use succinct::{
    crc64, BitVector, BitVectorView, EliasFano, EliasFanoView, PackedVec, PackedVecView, Wire,
    WireReader,
};
use timeseries::{CompressedSeries, Dataset};

/// Probes that share the budget evenly.
const SLICES: u32 = 25;

/// Runs `f` (which performs `calls` calls) until `slice` is spent, at
/// least three times; nanoseconds per call, median over the runs.
fn ns_per_call(slice: Duration, calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 3 || t0.elapsed() < slice {
        let t = Instant::now();
        f();
        runs.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[allow(clippy::too_many_arguments)]
pub fn probe(
    rep: &mut Report,
    host: &Host,
    scale: &Scale,
    data: &Data,
    store: &Store,
    walked: &Walked,
    work: &Path,
    budget: Duration,
) -> Result<(), String> {
    let slice = budget / SLICES;
    let pack = store.as_bytes();
    let Walked { frames, stack } = walked;
    if stack.total() != pack.len() {
        rep.faults.push(format!(
            "byte stack sums to {} B, the pack is {} B",
            stack.total(),
            pack.len()
        ));
    }
    let values = stack.values as f64;
    rep.set(
        "neats-core.bytes_models_per_value",
        stack.models as f64 / values,
    );
    rep.set(
        "neats-core.bytes_corrections_per_value",
        stack.corrections as f64 / values,
    );
    rep.set(
        "neats-core.bytes_index_per_value",
        stack.index as f64 / values,
    );
    rep.set(
        "neats-core.bytes_frame_per_value",
        stack.frame as f64 / values,
    );
    rep.set(
        "neats-core.fragments_per_kvalue",
        stack.fragments as f64 * 1e3 / values,
    );
    rep.set(
        "neats-core.ratio_values_pct",
        100.0 * stack.value_bytes() as f64 / (8.0 * values),
    );
    rep.set(
        "store.bytes_timestamps_per_value",
        stack.timestamps as f64 / values,
    );
    rep.set(
        "store.bytes_catalog_per_value",
        stack.catalog as f64 / values,
    );
    rep.set(
        "store.pack_over_values",
        pack.len() as f64 / stack.value_bytes() as f64,
    );

    // One segment-sized frame: the fixture's median by length.
    let mut by_len: Vec<(usize, Frame)> = frames
        .iter()
        .enumerate()
        .flat_map(|(s, fs)| fs.iter().map(move |f| (s, *f)))
        .collect();
    by_len.sort_by_key(|(_, f)| f.len);
    let (f0_series, f0) = by_len[by_len.len() / 2];
    let frame = &pack[f0.offset..f0.offset + f0.len];
    let view = ArchiveView::open(frame).map_err(|e| format!("probe frame: {e}"))?;
    let n = view.len();
    let idx: Vec<usize> = traffic::stream(Mix::Point, scale, 0xACCE55, 4096)
        .iter()
        .map(|op| match *op {
            Op::Point { k, .. } | Op::AtTime { k, .. } => k as usize % n,
            _ => 0,
        })
        .collect();

    // --- succinct: structures shaped like that frame's.
    let frags = view.fragment_count().max(2);
    let starts: Vec<u64> = (0..frags as u64)
        .map(|i| i * n as u64 / frags as u64)
        .collect();
    let ef_bytes = EliasFano::new(&starts).to_wire_bytes();
    let ef = EliasFanoView::read(&mut WireReader::new(&ef_bytes)).map_err(|e| e.to_string())?;
    rep.set(
        "succinct.ef_rank_ns",
        ns_per_call(slice, idx.len(), || {
            for &i in &idx {
                black_box(ef.rank_leq(black_box(i as u64)));
            }
        }),
    );
    let mut bits = vec![false; n];
    for &s in &starts {
        bits[s as usize] = true;
    }
    let bv_bytes = BitVector::from_bools(&bits).to_wire_bytes();
    let bv = BitVectorView::read(&mut WireReader::new(&bv_bytes)).map_err(|e| e.to_string())?;
    rep.set(
        "succinct.bitvec_select_ns",
        ns_per_call(slice, idx.len(), || {
            for &i in &idx {
                black_box(bv.select1(black_box(i % frags)));
            }
        }),
    );
    let width = view
        .as_lossless()
        .map_or(8, |v| v.correction_width_of(v.fragment_count() / 2))
        .clamp(1, 63);
    let residuals: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - width))
        .collect();
    let pv_bytes = PackedVec::with_width(&residuals, width).to_wire_bytes();
    let pv = PackedVecView::read(&mut WireReader::new(&pv_bytes)).map_err(|e| e.to_string())?;
    rep.set(
        "succinct.packed_get_ns",
        ns_per_call(slice, idx.len(), || {
            for &i in &idx {
                black_box(pv.get(black_box(i)));
            }
        }),
    );
    let crc_ns = ns_per_call(slice, 1, || {
        black_box(crc64(black_box(frame)));
    });
    rep.set("succinct.crc64_gb_per_s", frame.len() as f64 / crc_ns);

    // --- neats-core: the three compressors per dataset (geometric mean),
    // the partitioner's share, and the 2-thread build.
    let mut mbs = [Vec::new(), Vec::new(), Vec::new()];
    let (mut part_share, mut one_thread) = (Vec::new(), Vec::new());
    let (mut lossy_bytes, mut lossy_ratio, mut lossy_broken) = (0usize, 0f64, false);
    let mut lossy_frame = Vec::new();
    let sets = Dataset::ALL.len().min(scale.series);
    for (i, ds) in Dataset::ALL.iter().take(sets).enumerate() {
        let ts = ds.generate_seeded(scale.probe_points, 0xDA7A ^ i as u64);
        let mb = ts.len() as f64 * 8.0 / 1e6;
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        };
        let one = NeaTS::builder().threads(1);
        let t_neats = timed(&mut || {
            black_box(one.build(&ts));
        });
        let t_sneats = timed(&mut || {
            black_box(NeaTS::sneats().threads(1).build(&ts));
        });
        let (lo, hi) = ts.min_max().unwrap_or((0, 0));
        let eps = ((hi - lo) as u64 / 100).max(1);
        let mut lossy = None;
        let t_lossy = timed(&mut || lossy = Some(one.build_lossy(&ts, eps)));
        let lossy = lossy.expect("built above");
        lossy_bytes += lossy.to_bytes().len();
        // The archive's contract is |y − ⌊f(u)⌋| ≤ ε + 1 (floor slack).
        let err = lossy.max_error(&ts);
        lossy_ratio = lossy_ratio.max(err as f64 / eps as f64);
        lossy_broken |= err > eps + 1;
        if i == 0 {
            lossy_frame = lossy.to_bytes();
        }
        let epsilons = default_epsilons(ts.delta());
        let shift = positivity_shift(ts.values(), epsilons.iter().copied().max().unwrap_or(0));
        let cfg = PartitionConfig::lossless(&Kind::NEATS_DEFAULT, &epsilons, shift).with_threads(1);
        let t_part = timed(&mut || {
            black_box(partition::partition(ts.values(), &cfg));
        });
        mbs[0].push(mb / t_neats);
        mbs[1].push(mb / t_sneats);
        mbs[2].push(mb / t_lossy);
        part_share.push(t_part / t_neats);
        one_thread.push((ts, t_neats));
    }
    // The 2-thread builds need both cores: the generator's pin is lifted
    // for them (the servers on core 0 are idle by now).
    host.pin_self("0,1");
    let t2: Vec<f64> = one_thread
        .iter()
        .map(|(ts, t_neats)| {
            let t = Instant::now();
            black_box(NeaTS::builder().threads(2).build(ts));
            t_neats / t.elapsed().as_secs_f64()
        })
        .collect();
    host.pin_self("1");
    rep.set("neats-core.compress_neats_mb_per_s", geomean(&mbs[0]));
    rep.set("neats-core.compress_sneats_mb_per_s", geomean(&mbs[1]));
    rep.set("neats-core.compress_lossy_mb_per_s", geomean(&mbs[2]));
    rep.set("neats-core.partition_share", geomean(&part_share));
    rep.set("neats-core.partition_t2_speedup", geomean(&t2));
    rep.set(
        "neats-core.lossy_bytes_per_value",
        lossy_bytes as f64 / (sets * scale.probe_points) as f64,
    );
    rep.set("neats-core.lossy_max_err_over_eps", lossy_ratio);
    if lossy_broken {
        rep.faults
            .push("a lossy archive erred by more than ε + 1".into());
    }

    rep.set(
        "neats-core.view_open_us",
        ns_per_call(slice, 1, || {
            black_box(ArchiveView::open(black_box(frame)).is_ok());
        }) / 1e3,
    );
    let want: Vec<i64> = idx
        .iter()
        .map(|&i| data.value_at(f0_series, f0.first_index + i))
        .collect();
    let mut wrong = 0u64;
    rep.set(
        "neats-core.view_at_ns",
        ns_per_call(slice, idx.len(), || {
            for (&i, &w) in idx.iter().zip(&want) {
                wrong += u64::from(view.at(black_box(i)) != w);
            }
        }),
    );
    let owned = NeaTSCompressed::from_bytes(frame).map_err(|e| format!("owned load: {e}"))?;
    rep.set(
        "neats-core.owned_at_ns",
        ns_per_call(slice, idx.len(), || {
            for (&i, &w) in idx.iter().zip(&want) {
                wrong += u64::from(owned.get(black_box(i)) != w);
            }
        }),
    );
    rep.attempted += 2;
    rep.failed += u64::from(wrong > 0);
    let span = 1024.min(n);
    let starts_at: Vec<usize> = idx.iter().take(64).map(|&i| i % (n - span + 1)).collect();
    let mut buf = Vec::with_capacity(span);
    let range_ns = ns_per_call(slice, starts_at.len() * span, || {
        for &a in &starts_at {
            buf.clear();
            view.range(a..a + span, &mut buf);
            black_box(&buf);
        }
    });
    rep.set("neats-core.view_range_mv_per_s", 1e3 / range_ns);
    let lossy_view = ArchiveView::open(&lossy_frame).map_err(|e| format!("lossy frame: {e}"))?;
    let lspan = span.min(lossy_view.len());
    let lossy_ns = ns_per_call(slice, starts_at.len() * lspan, || {
        for &a in &starts_at {
            buf.clear();
            let a = a % (lossy_view.len() - lspan + 1);
            lossy_view.range(a..a + lspan, &mut buf);
            black_box(&buf);
        }
    });
    rep.set("neats-core.lossy_range_mv_per_s", 1e3 / lossy_ns);

    // --- store: open, warm and cold point reads, ranges — on the streams
    // the workloads send.
    let pack_path = work.join("probe.pack");
    std::fs::write(&pack_path, pack).map_err(|e| format!("write probe pack: {e}"))?;
    rep.set(
        "store.open_us",
        ns_per_call(slice, 1, || {
            black_box(Store::open_path(&pack_path).is_ok());
        }) / 1e3,
    );
    let points: Vec<(usize, usize)> = traffic::stream(Mix::Point, scale, 0xACCE55, 8192)
        .iter()
        .filter_map(|op| match *op {
            Op::Point { s, k } | Op::AtTime { s, k } => Some((s as usize, k as usize)),
            _ => None,
        })
        .collect();
    let mut wrong = 0u64;
    rep.set(
        "store.get_warm_ns",
        ns_per_call(slice, points.len(), || {
            for &(s, k) in &points {
                let got = store.get(&data.series[s].name, k);
                wrong += u64::from(got != Ok(data.value_at(s, k)));
            }
        }),
    );
    rep.set(
        "store.at_time_ns",
        ns_per_call(slice, points.len(), || {
            for &(s, k) in &points {
                let got = store.at_time(&data.series[s].name, data.series[s].stamps[k]);
                wrong += u64::from(got != Ok(Some(data.value_at(s, k))));
            }
        }),
    );
    let cold = Store::open_with(
        pack.to_vec(),
        StoreOptions {
            cache_capacity: 0,
            ..StoreOptions::default()
        },
    )
    .map_err(|e| format!("cold store: {e}"))?;
    let few = &points[..256.min(points.len())];
    rep.set(
        "store.get_cold_us",
        ns_per_call(slice, few.len(), || {
            for &(s, k) in few {
                let got = cold.get(&data.series[s].name, k);
                wrong += u64::from(got != Ok(data.value_at(s, k)));
            }
        }) / 1e3,
    );
    rep.attempted += 3;
    rep.failed += u64::from(wrong > 0);
    let ranges: Vec<(usize, usize, usize)> = traffic::stream(Mix::Range, scale, 0xACCE55, 256)
        .iter()
        .filter_map(|op| match *op {
            Op::Range { s, a, b } | Op::TimeRange { s, a, b } => {
                Some((s as usize, a as usize, b as usize))
            }
            _ => None,
        })
        .collect();
    let total: usize = ranges.iter().map(|&(_, a, b)| b - a).sum();
    let mut seen = 0usize;
    let r_ns = ns_per_call(slice, total, || {
        for &(s, a, b) in &ranges {
            let _ = store.range_chunks(&data.series[s].name, a..b, |c| seen += c.len());
        }
    });
    rep.set("store.range_mv_per_s", 1e3 / r_ns);
    let rt_ns = ns_per_call(slice, total, || {
        for &(s, a, b) in &ranges {
            let st = &data.series[s].stamps;
            let _ = store
                .range_by_time_chunks(&data.series[s].name, st[a], st[b - 1], |c| seen += c.len());
        }
    });
    rep.set("store.range_by_time_mv_per_s", 1e3 / rt_ns);
    rep.attempted += 1;
    rep.failed += u64::from(!seen.is_multiple_of(total));

    // --- ingest: appends with and without fsync (their gap is the
    // device), seals, head reads, WAL replay, directory size.
    let batch = scale.write_batch;
    let writers = scale.write_series();
    let append_rate =
        |dir: &Path, fsync: FsyncPolicy, seal: bool| -> Result<(f64, Vec<f64>), String> {
            let ing = Ingestor::open(
                dir,
                IngestConfig {
                    fsync,
                    ..IngestConfig::default()
                },
            )
            .map_err(|e| format!("probe ingestor: {e}"))?;
            let t0 = Instant::now();
            let (mut in_append, mut points, mut seals) = (Duration::ZERO, 0usize, Vec::new());
            let mut lens = vec![0usize; writers];
            let (mut stamps, mut vals) = (Vec::new(), Vec::new());
            let mut round = 0usize;
            while t0.elapsed() < slice * 3 {
                let s = round % writers;
                stamps.clear();
                vals.clear();
                for i in lens[s]..lens[s] + batch {
                    stamps.push(data.stamp_at(s, data.base_len() + i));
                    vals.push(data.value_at(s, data.base_len() + i));
                }
                let t = Instant::now();
                ing.append(&data.series[s].name, &stamps, &vals)
                    .map_err(|e| format!("probe append: {e}"))?;
                in_append += t.elapsed();
                lens[s] += batch;
                points += batch;
                round += 1;
                // One head chunk per series is enough for a seal to have work.
                if seal && round.is_multiple_of(8 * writers) {
                    let t = Instant::now();
                    let before = ing.epoch();
                    let after = ing.seal().map_err(|e| format!("probe seal: {e}"))?;
                    if after > before {
                        seals.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
            Ok((points as f64 / in_append.as_secs_f64(), seals))
        };
    let (always, mut seals) = append_rate(&work.join("probe-always"), FsyncPolicy::Always, true)?;
    let (never, _) = append_rate(&work.join("probe-never"), FsyncPolicy::Never, false)?;
    rep.set("ingest.append_points_per_s", always);
    rep.set("ingest.append_nofsync_points_per_s", never);
    seals.sort_by(f64::total_cmp);
    rep.set(
        "ingest.seal_p50_ms",
        seals.get(seals.len() / 2).copied().unwrap_or(0.0),
    );
    rep.set("ingest.seal_max_ms", seals.last().copied().unwrap_or(0.0));

    // A directory whose WAL holds unsealed points: the head to read from
    // and the log to replay.
    let wal_dir = work.join("probe-wal");
    // Two and a half head chunks per series: what a crash between two
    // background seals leaves to re-compress.
    let unsealed = 20 * batch * writers;
    {
        let ing = Ingestor::open(
            &wal_dir,
            IngestConfig {
                fsync: FsyncPolicy::Never,
                ..IngestConfig::default()
            },
        )
        .map_err(|e| format!("probe ingestor: {e}"))?;
        for s in 0..writers {
            let stamps: Vec<u64> = (0..unsealed / writers)
                .map(|i| data.stamp_at(s, i))
                .collect();
            let vals: Vec<i64> = (0..unsealed / writers)
                .map(|i| data.value_at(s, i))
                .collect();
            ing.append(&data.series[s].name, &stamps, &vals)
                .map_err(|e| format!("probe append: {e}"))?;
        }
        let per = unsealed / writers;
        let heads: Vec<(usize, usize)> = idx
            .iter()
            .map(|&i| (i % writers, per - 1 - i % batch))
            .collect();
        let mut wrong = 0u64;
        rep.set(
            "ingest.get_head_ns",
            ns_per_call(slice, heads.len(), || {
                for &(s, k) in &heads {
                    wrong += u64::from(ing.get(&data.series[s].name, k) != Ok(data.value_at(s, k)));
                }
            }),
        );
        rep.attempted += 1;
        rep.failed += u64::from(wrong > 0);
    }
    let replay_ns = ns_per_call(slice, 1, || {
        black_box(Ingestor::open(&wal_dir, IngestConfig::default()).is_ok());
    });
    rep.set(
        "ingest.replay_ms_per_mpoint",
        replay_ns / 1e6 / (unsealed as f64 / 1e6),
    );
    {
        let ing = Ingestor::open(&wal_dir, IngestConfig::default())
            .map_err(|e| format!("probe reopen: {e}"))?;
        ing.flush().map_err(|e| format!("probe flush: {e}"))?;
    }
    rep.set(
        "ingest.dir_bytes_per_value",
        fixture::dir_bytes(&wal_dir) as f64 / unsealed as f64,
    );
    Ok(())
}
