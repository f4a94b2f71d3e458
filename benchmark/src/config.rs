//! Every constant of the benchmark: fixture shape, cache sizes, open-loop
//! rates and how a run's `--seconds` are split over its phases. Nothing
//! here is recomputed at run time — a comparison between two commits is
//! only meaningful when both ran the same numbers.

/// The four workloads (names as declared in `BENCHMARK.json`). ISSUE 11's
/// fifth, `archive_build`, is not a workload of its own: its three phases
/// (pack build, verified full scan, warm random access) run in-process in
/// every workload, and a fifth workload would have shortened every run by a
/// fifth for no metric the others do not print (see README "Deviations").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointHot,
    PointCold,
    RangeScan,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointHot,
        Workload::PointCold,
        Workload::RangeScan,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point_hot",
            Workload::PointCold => "point_cold",
            Workload::RangeScan => "range_scan",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Shape of fixture B and of the traffic drawn over it.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Series in the fixture, one per paper dataset.
    pub series: usize,
    /// Points per series.
    pub points: usize,
    /// Points per pack segment.
    pub segment: usize,
    /// Points per `POST /write` body.
    pub write_batch: usize,
    /// Setups per run (`setup_s` and `compress_mb_per_s` are their medians).
    pub setups: usize,
    /// Values per dataset for the per-layer compressor probes.
    pub probe_points: usize,
}

/// Full scale: 16 × 32 768 points in 8192-point segments (the shipped
/// default) = 64 segments, 8 MiB of user bytes. ISSUE 11 asked for
/// 16 × 131 072; three single-threaded NeaTS builds of that per run do not
/// fit the driver's time cap, so the series are a quarter as long and the
/// cache sizes below keep the same cache : working-set ratios.
pub const FULL: Scale = Scale {
    series: 16,
    points: 32_768,
    segment: 8192,
    write_batch: 512,
    setups: 3,
    probe_points: 8192,
};

/// `--smoke`: the same topology (64 segments) at an eighth of the size.
pub const SMOKE: Scale = Scale {
    series: 16,
    points: 4096,
    segment: 1024,
    write_batch: 512,
    setups: 2,
    probe_points: 1024,
};

impl Scale {
    /// Series that receive writes (the first half of the fixture).
    pub fn write_series(&self) -> usize {
        self.series / 2
    }

    /// Range lengths of `range_scan`, drawn 4:2:1.
    pub fn range_lens(&self) -> [usize; 3] {
        [self.segment / 32, self.segment / 8, self.segment]
    }

    /// "Newest" window of the `ingest_mixed` point reads.
    pub fn newest_window(&self) -> usize {
        2 * self.segment
    }

    /// Length of the `ingest_mixed` range read ending at the newest point.
    pub fn newest_range(&self) -> usize {
        self.segment / 8
    }
}

/// Bytes a user hands over per point: 8 B timestamp + 8 B value.
pub const USER_BYTES_PER_POINT: usize = 16;

/// `neats serve --cache` for the hot and the cold server. `neats serve`
/// shards its cache by *thread* over 8 shards, so with `--threads 1` only
/// one shard — an eighth of `--cache` — is ever used: 512 holds all 64
/// segments, 32 holds 4 of them (working set 16× the cache, expected hit
/// rate 1/16).
pub const CACHE_HOT: usize = 512;
pub const CACHE_COLD: usize = 32;

/// Open-loop request rates (1/s), calibrated once on the seed commit, two
/// significant figures, never recomputed at run time. ISSUE 11 asked for
/// ≈ 40 % of the workload's closed-loop `query_per_s`; this host's speed
/// swings by a factor of 2.5 within a run, which turns 40 % into
/// saturation for seconds at a time, so the rates sit at ≈ 25 % of the
/// closed-loop rate of an undisturbed run (120 000, 11 500 and 8 500 /s).
pub const RATE_POINT_HOT: f64 = 30_000.0;
pub const RATE_POINT_COLD: f64 = 2_800.0;
pub const RATE_RANGE_SCAN: f64 = 2_200.0;
/// Reads beside the closed-loop writer. The single worker serves about one
/// read per write (≈ 450 /s) in bursts between long writes; 120 /s keeps
/// the backlog from spanning whole seal cycles and still gives ≈ 1000
/// samples per run.
pub const RATE_INGEST_READS: f64 = 120.0;

/// Slices every measured phase is cut into (see `pipeline.rs`).
pub const ROUNDS: usize = 15;

/// The live slice runs every third round, three slices long: a slice of
/// writes has to span several of the server's 200 ms seal ticks to show
/// their cost.
pub const LIVE_EVERY: usize = 3;

/// Unsealed head chunks the recovery directory holds when its server is
/// killed. The benchmark writes exactly this many (below the server's seal
/// threshold of four), so every recovery replays the same work.
pub const CHUNKS_AT_KILL: usize = 3;

/// Trace ring of the traced server: large enough that a scrape at the end
/// of a phase holds only that phase's requests.
pub const TRACE_RING: usize = 4096;

/// Queries replayed in-process at the `neats-core` and `store` layers of a
/// traced run (each wrapped in spans).
pub const REPLAY_QUERIES: usize = 100_000;

/// Which served traffic a workload sends to the pack server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 90 % `idx=K`, 10 % `t=T`.
    Point,
    /// `idx=A..B` in three lengths, a quarter phrased as `t=LO..HI`.
    Range,
}

/// How one workload parameterises the common pipeline. Shares are
/// fractions of `--seconds`; they sum to 1.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub cache: usize,
    pub mix: Mix,
    pub rate: f64,
    /// `ingest_mixed`: the set-up server is the live one, so the read slices
    /// query a directory that is being written between them.
    pub live_primary: bool,
    /// In-process scan + random access.
    pub lib: f64,
    /// Closed-loop reads, 2 connections.
    pub closed: f64,
    /// Open-loop reads at `rate`, 2 connections.
    pub open: f64,
    /// Closed-loop writes on connection 1 beside open-loop reads on 2.
    pub live: f64,
}

impl Workload {
    /// Every run walks the same pipeline (set-ups, then rounds of library →
    /// served → live slices with a kill + recovery in each), because the
    /// driver's contract wants every end-to-end metric on every workload.
    /// The workload decides the cache size, the traffic and where the
    /// seconds go: its own phases get the bulk, the others a reference slice.
    pub fn plan(self) -> Plan {
        let read = |cache, mix, rate| Plan {
            cache,
            mix,
            rate,
            live_primary: false,
            lib: 0.16,
            closed: 0.26,
            open: 0.40,
            live: 0.18,
        };
        match self {
            Workload::PointHot => read(CACHE_HOT, Mix::Point, RATE_POINT_HOT),
            Workload::PointCold => read(CACHE_COLD, Mix::Point, RATE_POINT_COLD),
            Workload::RangeScan => read(CACHE_HOT, Mix::Range, RATE_RANGE_SCAN),
            Workload::IngestMixed => Plan {
                cache: CACHE_HOT,
                mix: Mix::Point,
                rate: RATE_POINT_HOT,
                live_primary: true,
                lib: 0.12,
                closed: 0.12,
                open: 0.16,
                live: 0.60,
            },
        }
    }
}
