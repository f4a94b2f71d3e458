//! Fixture B: the generated data (which is also the oracle every answer is
//! checked against), the pack built from it, and the live directory that
//! adopts that pack.

use crate::config::{Scale, USER_BYTES_PER_POINT};
use neats_core::NeaTS;
use neats_ingest::manifest::{pack_name, wal_name, Manifest};
use neats_ingest::wal::Wal;
use neats_ingest::FsyncPolicy;
use neats_store::{StoreConfig, StoreMode, StoreWriter};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::Path;
use timeseries::Dataset;

/// One generated series.
pub struct Series {
    pub name: String,
    pub stamps: Vec<u64>,
    pub values: Vec<i64>,
}

/// The generated data set. The program under test only ever sees what is
/// built from it; the benchmark keeps it to check every answer.
pub struct Data {
    pub series: Vec<Series>,
}

/// Nominal timestamp step; each step is jittered by up to ±`JITTER`.
const STEP: u64 = 1000;
const JITTER: u64 = 300;

impl Data {
    /// 16 series, one per paper dataset, irregular strictly increasing
    /// timestamps. The same `(scale, seed)` gives the same data.
    pub fn generate(scale: &Scale, seed: u64) -> Data {
        let series = (0..scale.series)
            .map(|i| {
                let ds = Dataset::ALL[i % Dataset::ALL.len()];
                let sub_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1);
                let values = ds.generate_seeded(scale.points, sub_seed).values().to_vec();
                let mut rng = StdRng::seed_from_u64(sub_seed ^ 0x7157_A395);
                let mut t = 1_700_000_000_000u64 + i as u64;
                let stamps = (0..scale.points)
                    .map(|_| {
                        t += STEP - JITTER + rng.random_range(0..=2 * JITTER);
                        t
                    })
                    .collect();
                Series {
                    name: format!("s{i:02}"),
                    stamps,
                    values,
                }
            })
            .collect();
        Data { series }
    }

    /// Points per series as generated (before any write).
    pub fn base_len(&self) -> usize {
        self.series[0].values.len()
    }

    pub fn user_bytes(&self) -> usize {
        self.series.iter().map(|s| s.values.len()).sum::<usize>() * USER_BYTES_PER_POINT
    }

    /// The value at series-global index `idx`, including points the write
    /// stream appends behind the generated ones: append `j` repeats the
    /// generated value `j mod n`, so writes stay as compressible as the
    /// fixture without generating more data.
    pub fn value_at(&self, s: usize, idx: usize) -> i64 {
        let v = &self.series[s].values;
        if idx < v.len() {
            v[idx]
        } else {
            v[(idx - v.len()) % v.len()]
        }
    }

    /// The timestamp at series-global index `idx` (see [`Self::value_at`]):
    /// appended stamps keep the nominal step behind the last generated one,
    /// with a deterministic jitter below half a step.
    pub fn stamp_at(&self, s: usize, idx: usize) -> u64 {
        let t = &self.series[s].stamps;
        if idx < t.len() {
            t[idx]
        } else {
            let j = (idx - t.len()) as u64;
            t[t.len() - 1] + (j + 1) * STEP + (j.wrapping_mul(2_654_435_761) >> 7) % (STEP / 2)
        }
    }
}

/// Builds fixture B's pack on one thread: NeaTS lossless, `scale.segment`
/// points per segment.
pub fn build_pack(data: &Data, scale: &Scale) -> Vec<u8> {
    let mut w = StoreWriter::new(StoreConfig {
        segment_points: scale.segment,
        builder: NeaTS::builder().threads(1),
        mode: StoreMode::Lossless,
        threads: 1,
    });
    for s in &data.series {
        w.ingest(&s.name, &s.stamps, &s.values)
            .expect("generated batches are well formed");
    }
    w.finish().expect("pack build")
}

/// Turns `dir` into a live ingestion directory whose generation 0 is
/// `pack`: the pack file, an empty WAL and the manifest naming both — the
/// same three files `Ingestor::open` writes for a fresh directory.
pub fn adopt_pack(pack: &[u8], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(pack_name(0)), pack)?;
    let io = |e: neats_store::StoreError| std::io::Error::other(e.to_string());
    drop(Wal::create(dir.join(wal_name(0)), FsyncPolicy::Always).map_err(io)?);
    Manifest {
        epoch: 0,
        pack: pack_name(0),
        wal: wal_name(0),
    }
    .write_to(dir)
    .map_err(io)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
