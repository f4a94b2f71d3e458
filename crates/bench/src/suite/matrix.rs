//! The full benchmark matrix: every roster codec × every [`Shape`], with
//! conformance checked inline — a cell that produces wrong answers never
//! makes it into the committed tables.
//!
//! Output is two artifacts from one run: `BENCH_all.json` (machine-readable
//! records, schema-versioned so CI can detect drift) and `BENCHMARKS.md`
//! (the human-diffable competitive table linked from the README).

use super::codecs::all_codecs;
use super::shapes::Shape;
use crate::{geomean, query_indices};
use crate::json::Json;
use lossless_baselines::paper_competitors;
use std::time::Instant;
use timeseries::{AnyCompressor, CompressedSeries, TimeSeries};

/// Version of the `BENCH_all.json` record layout. Bump when record keys
/// change; the CI smoke compares a fresh small-`n` run against the
/// committed artifact and fails on mismatch.
pub const SCHEMA_VERSION: u64 = 2;

/// The exact key set of one record in `BENCH_all.json`, in emission order.
/// The schema gate checks committed records against this list.
pub const RECORD_KEYS: [&str; 11] = [
    "codec",
    "shape",
    "n",
    "eps",
    "size_bytes",
    "ratio_pct",
    "compress_ms",
    "decompress_mvps",
    "ra_p50_ns",
    "ra_p99_ns",
    "scan_mvps",
];

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct MatrixConfig {
    /// Points per generated series.
    pub n: usize,
    /// Timed random-access queries per cell.
    pub queries: usize,
    /// Length of each timed range scan.
    pub scan_len: usize,
    /// Number of timed range scans per cell.
    pub scans: usize,
    /// Generator seed (`0` = each shape's default stream).
    pub seed: u64,
    /// Optional case-insensitive substring filters on codec / shape names.
    pub codec_filter: Option<String>,
    /// See `codec_filter`.
    pub shape_filter: Option<String>,
}

impl MatrixConfig {
    /// Reads the sizing knobs (`NEATS_BENCH_N`, `NEATS_BENCH_QUERIES`,
    /// `NEATS_BENCH_SCAN_LEN`, `NEATS_BENCH_SCANS`); seed 0, no filters.
    pub fn from_env() -> Self {
        MatrixConfig {
            n: crate::bench_n(),
            queries: crate::env_usize("NEATS_BENCH_QUERIES", 20_000),
            scan_len: crate::env_usize("NEATS_BENCH_SCAN_LEN", 1000),
            scans: crate::env_usize("NEATS_BENCH_SCANS", 50),
            seed: 0,
            codec_filter: None,
            shape_filter: None,
        }
    }
}

/// One measured (codec, shape) cell. Every cell in a report has already
/// passed its conformance check.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Codec display name.
    pub codec: String,
    /// Shape display name.
    pub shape: String,
    /// Points in the series.
    pub n: usize,
    /// The error bound used (`None` = lossless).
    pub eps: Option<u64>,
    /// Compressed size, bytes (all access structures included).
    pub size_bytes: usize,
    /// Compressed size as % of the raw 64-bit representation.
    pub ratio_pct: f64,
    /// Wall-clock compression time, milliseconds.
    pub compress_ms: f64,
    /// Full-decompression throughput, million values per second: the one
    /// `decompress()` the conformance check runs, timed.
    pub decompress_mvps: f64,
    /// Median single-value random-access latency, nanoseconds.
    pub ra_p50_ns: f64,
    /// 99th-percentile single-value random-access latency, nanoseconds.
    pub ra_p99_ns: f64,
    /// Range-scan throughput, million values per second.
    pub scan_mvps: f64,
}

/// A conformance violation: which cell, which read path, and what differed.
#[derive(Debug)]
pub struct ConformanceError {
    /// Codec display name.
    pub codec: String,
    /// Shape display name.
    pub shape: String,
    /// What went wrong, with the first offending index and values.
    pub detail: String,
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {}: {}", self.codec, self.shape, self.detail)
    }
}

impl std::error::Error for ConformanceError {}

/// The completed sweep.
#[derive(Debug)]
pub struct MatrixReport {
    /// Configuration the sweep ran with.
    pub config: MatrixConfig,
    /// One record per (codec, shape) cell, in sweep order.
    pub cells: Vec<Cell>,
    /// Shape names actually swept, in order.
    pub shapes: Vec<String>,
    /// Codec names actually swept, in order.
    pub codecs: Vec<String>,
}

/// Checks one archive against the original series on all three read paths.
/// An archive whose `eps()` is `None` must be exactly equal; `Some(ε)`
/// demands `|x − x̂| ≤ ε + 1` and *exact* agreement between random access,
/// range scans and decompression (the approximation must be consistent
/// with itself).
pub fn check_conformance(
    codec: &str,
    shape: &str,
    ts: &TimeSeries,
    archive: &dyn CompressedSeries,
) -> Result<(), ConformanceError> {
    check_decoded(codec, shape, ts, archive, &archive.decompress())
}

/// [`check_conformance`] against an already materialised `rec =
/// archive.decompress()`, so the matrix can time that one decode.
fn check_decoded(
    codec: &str,
    shape: &str,
    ts: &TimeSeries,
    archive: &dyn CompressedSeries,
    rec: &[i64],
) -> Result<(), ConformanceError> {
    let fail = |detail: String| {
        Err(ConformanceError { codec: codec.to_string(), shape: shape.to_string(), detail })
    };
    if archive.len() != ts.len() {
        return fail(format!("len {} != original {}", archive.len(), ts.len()));
    }
    if rec.len() != ts.len() {
        return fail(format!("decompress len {} != {}", rec.len(), ts.len()));
    }
    match archive.eps() {
        None => {
            if let Some(k) = (0..ts.len()).find(|&k| rec[k] != ts.values()[k]) {
                return fail(format!(
                    "lossless decompress mismatch at {k}: {} != {}",
                    rec[k],
                    ts.values()[k]
                ));
            }
        }
        Some(eps) => {
            let bound = eps + 1;
            if let Some(k) = (0..ts.len()).find(|&k| rec[k].abs_diff(ts.values()[k]) > bound) {
                return fail(format!(
                    "lossy error {} > ε+1 = {bound} at {k} ({} vs {})",
                    rec[k].abs_diff(ts.values()[k]),
                    rec[k],
                    ts.values()[k]
                ));
            }
        }
    }
    // Random access must agree with full materialisation exactly, lossy or
    // not: the three read paths must tell one story.
    for k in query_indices(ts.len(), ts.len().min(96)) {
        let got = archive.get(k);
        if got != rec[k] {
            return fail(format!("get({k}) = {got} but decompress[{k}] = {}", rec[k]));
        }
    }
    // Range scans, including both edges and interior windows.
    let n = ts.len();
    let mut windows = vec![(0usize, n.min(64)), (n - n.min(64), n.min(64)), (0, 0)];
    for (i, start) in query_indices(n, 8).into_iter().enumerate() {
        windows.push((start, (i * 37 + 1).min(n - start)));
    }
    for (start, count) in windows {
        let mut got = Vec::new();
        archive.scan_range(start, count, &mut got);
        if got != rec[start..start + count] {
            return fail(format!("scan_range({start}, {count}) disagrees with decompress"));
        }
    }
    Ok(())
}

/// Runs the full sweep. Returns the report, or the first conformance
/// violation (nothing is reported from a non-conforming sweep).
pub fn run_matrix(config: MatrixConfig) -> Result<MatrixReport, ConformanceError> {
    run_matrix_with(config, |_| {})
}

/// [`run_matrix`] with a progress callback invoked once per completed cell
/// (the CLI prints a line; tests pass a no-op).
pub fn run_matrix_with(
    config: MatrixConfig,
    mut progress: impl FnMut(&Cell),
) -> Result<MatrixReport, ConformanceError> {
    let keep = |filter: &Option<String>, name: &str| match filter {
        Some(f) => f
            .split(',')
            .any(|part| name.to_ascii_lowercase().contains(&part.trim().to_ascii_lowercase())),
        None => true,
    };
    let shapes: Vec<Shape> =
        Shape::all().into_iter().filter(|s| keep(&config.shape_filter, s.name())).collect();
    let codecs: Vec<Box<dyn AnyCompressor>> =
        all_codecs().into_iter().filter(|c| keep(&config.codec_filter, c.name())).collect();

    let mut cells = Vec::with_capacity(shapes.len() * codecs.len());
    for shape in &shapes {
        let ts = shape.generate_seeded(config.n, config.seed);
        for codec in &codecs {
            let cell = measure_cell(codec.as_ref(), *shape, &ts, &config)?;
            progress(&cell);
            cells.push(cell);
        }
    }
    Ok(MatrixReport {
        config,
        cells,
        shapes: shapes.iter().map(|s| s.name().to_string()).collect(),
        codecs: codecs.iter().map(|c| c.name().to_string()).collect(),
    })
}

fn measure_cell(
    codec: &dyn AnyCompressor,
    shape: Shape,
    ts: &TimeSeries,
    config: &MatrixConfig,
) -> Result<Cell, ConformanceError> {
    let t0 = Instant::now();
    let archive = codec.compress_boxed(ts);
    let compress_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let rec = archive.decompress();
    let decompress_s = t0.elapsed().as_secs_f64();
    check_decoded(codec.name(), shape.name(), ts, archive.as_ref(), &rec)?;
    // Freed before the timed loops below, so they run beside no extra copy.
    drop(rec);

    // Per-query random-access latencies, for real p50/p99 rather than a
    // mean that hides tail behaviour.
    let idx = query_indices(ts.len(), config.queries.max(1));
    let mut lat_ns: Vec<f64> = Vec::with_capacity(idx.len());
    let mut acc = 0i64;
    for &k in &idx {
        let t0 = Instant::now();
        acc = acc.wrapping_add(archive.get(k));
        lat_ns.push(t0.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(acc);
    lat_ns.sort_by(|a, b| a.total_cmp(b));
    // NaN (rendered `null`) on an empty series: nothing was timed.
    let pct = |p: f64| match lat_ns.len() {
        0 => f64::NAN,
        len => lat_ns[((len - 1) as f64 * p) as usize],
    };

    // Range-scan throughput over deterministic interior windows.
    let scan_len = config.scan_len.min(ts.len());
    let starts = query_indices(ts.len() - scan_len + 1, config.scans.max(1));
    let mut out = Vec::with_capacity(scan_len);
    let mut scanned = 0usize;
    let t0 = Instant::now();
    for &s in &starts {
        out.clear();
        archive.scan_range(s, scan_len, &mut out);
        scanned += out.len();
        std::hint::black_box(&out);
    }
    let scan_mvps = scanned as f64 / t0.elapsed().as_secs_f64() / 1e6;

    let size_bytes = archive.size_in_bytes();
    Ok(Cell {
        codec: codec.name().to_string(),
        shape: shape.name().to_string(),
        n: ts.len(),
        eps: archive.eps(),
        size_bytes,
        ratio_pct: 100.0 * size_bytes as f64 / ts.uncompressed_bytes() as f64,
        compress_ms,
        // NaN (rendered `null`) on an empty series, like the latencies.
        decompress_mvps: match ts.len() {
            0 => f64::NAN,
            n => n as f64 / decompress_s / 1e6,
        },
        ra_p50_ns: pct(0.50),
        ra_p99_ns: pct(0.99),
        scan_mvps,
    })
}

impl MatrixReport {
    /// Renders the machine-readable artifact (`BENCH_all.json`).
    pub fn to_json(&self) -> Json {
        let records = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("codec", Json::Str(c.codec.clone())),
                    ("shape", Json::Str(c.shape.clone())),
                    ("n", Json::Int(c.n as i64)),
                    ("eps", c.eps.map_or(Json::Null, |e| Json::Int(e as i64))),
                    ("size_bytes", Json::Int(c.size_bytes as i64)),
                    ("ratio_pct", Json::Num(c.ratio_pct)),
                    ("compress_ms", Json::Num(c.compress_ms)),
                    ("decompress_mvps", Json::Num(c.decompress_mvps)),
                    ("ra_p50_ns", Json::Num(c.ra_p50_ns)),
                    ("ra_p99_ns", Json::Num(c.ra_p99_ns)),
                    ("scan_mvps", Json::Num(c.scan_mvps)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Int(SCHEMA_VERSION as i64)),
            ("bench", Json::Str("all".into())),
            ("n", Json::Int(self.config.n as i64)),
            ("queries", Json::Int(self.config.queries as i64)),
            ("scan_len", Json::Int(self.config.scan_len as i64)),
            ("scans", Json::Int(self.config.scans as i64)),
            ("seed", Json::Int(self.config.seed as i64)),
            ("shapes", Json::Arr(self.shapes.iter().map(|s| Json::Str(s.clone())).collect())),
            ("codecs", Json::Arr(self.codecs.iter().map(|c| Json::Str(c.clone())).collect())),
            ("records", Json::Arr(records)),
        ])
    }

    /// Cells of one codec, in shape order.
    fn rows_of(&self, codec: &str) -> Vec<&Cell> {
        self.cells.iter().filter(|c| c.codec == codec).collect()
    }

    /// Renders the human-diffable competitive table (`BENCHMARKS.md`).
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str("# Benchmarks — the full codec × shape matrix\n\n");
        md.push_str(&format!(
            "Generated by `neats bench all` (n = {}, {} random-access queries and {} × {}-value \
             scans per cell, seed {}). Every cell passed the conformance check before being \
             measured: lossless codecs reproduce the input exactly, lossy codecs stay within \
             ε + 1, and random access / range scans agree with full decompression on every \
             codec. Regenerate with `cargo run --release -p neats-cli -- bench all`.\n\n",
            self.config.n,
            self.config.queries,
            self.config.scans,
            self.config.scan_len,
            self.config.seed
        ));
        md.push_str(
            "Shapes: the paper's 16 evaluation datasets plus 8 adversarial generators \
             (constant, spikes, regime switches, NaN-sentinel, extreme magnitudes, denormal \
             noise floor, sawtooth, white noise). Lossy codecs (ε column ≠ —) use \
             ε = max(Δ/200, 2), 0.5 % of each shape's value range.\n\n",
        );

        // Summary: one row per codec, aggregated across all shapes.
        md.push_str("## Summary (aggregated over all shapes)\n\n");
        md.push_str(
            "| codec | mode | ratio % (geomean) | RA p50 ns (median) | RA p99 ns (median) | \
             scan Mv/s (geomean) | compress ms (median) |\n",
        );
        md.push_str("|---|---|---:|---:|---:|---:|---:|\n");
        for codec in &self.codecs {
            let rows = self.rows_of(codec);
            let ratios: Vec<f64> = rows.iter().map(|c| c.ratio_pct).collect();
            let scans: Vec<f64> = rows.iter().map(|c| c.scan_mvps).collect();
            let mode = if rows.iter().any(|c| c.eps.is_some()) { "lossy" } else { "lossless" };
            md.push_str(&format!(
                "| {} | {} | {:.2} | {:.0} | {:.0} | {:.1} | {:.2} |\n",
                codec,
                mode,
                geomean(&ratios),
                median(rows.iter().map(|c| c.ra_p50_ns)),
                median(rows.iter().map(|c| c.ra_p99_ns)),
                geomean(&scans),
                median(rows.iter().map(|c| c.compress_ms)),
            ));
        }

        let paper: Vec<&String> =
            self.shapes.iter().filter(|s| Shape::by_name(s).is_some_and(is_paper)).collect();
        let adversarial: Vec<&String> =
            self.shapes.iter().filter(|s| !Shape::by_name(s).is_some_and(is_paper)).collect();
        if !paper.is_empty() {
            self.push_paper_section(&mut md, &paper);
        }
        let ratio = |c: &Cell| format!("{:.2}", c.ratio_pct);
        let heading = "## Compression ratio %, adversarial shapes";
        self.push_shape_table(&mut md, heading, &adversarial, ratio);
        md
    }

    /// The paper's evaluation — Table III, the Fig. 2 / Fig. 3 points and
    /// the comparisons the paper draws from them — read off the cells of
    /// the paper datasets in `paper`.
    fn push_paper_section(&self, md: &mut String, paper: &[&String]) {
        md.push_str(&format!(
            "\n## Paper datasets (Table III, Figs. 2–3)\n\n\
             The paper's evaluation, read off the cells of the {} paper datasets only. A \
             Fig. 2 / Fig. 3 point is the mean ratio (as the paper averages it), the geomean \
             compression and decompression speeds, and the median random-access p50. \
             Decompression is the one full `decompress()` per cell that the conformance \
             check runs, timed once, so it is noisier than the random-access columns; \
             1 Mv/s is 8 MB/s of 64-bit values.\n\n",
            paper.len()
        ));
        md.push_str("### Figs. 2–3: one point per codec\n\n");
        md.push_str(
            "| codec | ratio % (mean) | compress MB/s (geomean) | decompress Mv/s (geomean) | \
             RA p50 ns (median) |\n|---|---:|---:|---:|---:|\n",
        );
        for codec in &self.codecs {
            if let Some(p) = self.paper_point(codec, paper) {
                md.push_str(&format!(
                    "| {codec} | {:.2} | {:.2} | {:.1} | {:.0} |\n",
                    p.ratio_pct, p.compress_mbs, p.decompress_mvps, p.ra_p50_ns
                ));
            }
        }
        self.push_shape_table(md, "### Table III: compression ratio %", paper, |c| {
            format!("{:.2}", c.ratio_pct)
        });
        self.push_shape_table(md, "### Table III: decompression Mv/s", paper, |c| {
            format!("{:.1}", c.decompress_mvps)
        });
        self.push_shape_table(md, "### Table III: random access p50 ns", paper, |c| {
            format!("{:.0}", c.ra_p50_ns)
        });
        let rows = self.paper_comparisons(paper);
        if !rows.is_empty() {
            md.push_str("\n### Measured vs paper\n\n");
            md.push_str("| comparison | measured | paper |\n|---|---:|---:|\n");
            for [what, measured, claimed] in rows {
                md.push_str(&format!("| {what} | {measured} | {claimed} |\n"));
            }
        }
    }

    /// One codec × shape table of `metric` per eight shapes, each under
    /// `heading`; nothing when `shapes` is empty.
    fn push_shape_table(
        &self,
        md: &mut String,
        heading: &str,
        shapes: &[&String],
        metric: impl Fn(&Cell) -> String,
    ) {
        for chunk in shapes.chunks(8) {
            md.push_str(&format!("\n{heading}\n\n| codec |"));
            for s in chunk {
                md.push_str(&format!(" {s} |"));
            }
            md.push_str("\n|---|");
            md.push_str(&"---:|".repeat(chunk.len()));
            md.push('\n');
            for codec in &self.codecs {
                md.push_str(&format!("| {codec} |"));
                for shape in chunk {
                    match self.cell(codec, shape) {
                        Some(c) => md.push_str(&format!(" {} |", metric(c))),
                        None => md.push_str(" — |"),
                    }
                }
                md.push('\n');
            }
        }
    }

    fn cell(&self, codec: &str, shape: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.codec == codec && c.shape == shape)
    }

    /// `codec`'s Fig. 2 / Fig. 3 point over `shapes`; `None` when the sweep
    /// did not run it.
    fn paper_point(&self, codec: &str, shapes: &[&String]) -> Option<PaperPoint> {
        let cells: Vec<&Cell> = shapes.iter().filter_map(|s| self.cell(codec, s)).collect();
        if cells.is_empty() {
            return None;
        }
        // MB/s of raw 64-bit input: n · 8 bytes over compress_ms / 1e3 seconds.
        let compress: Vec<f64> =
            cells.iter().map(|c| c.n as f64 * 8.0 / (c.compress_ms * 1e3)).collect();
        let decompress: Vec<f64> = cells.iter().map(|c| c.decompress_mvps).collect();
        Some(PaperPoint {
            ratio_pct: cells.iter().map(|c| c.ratio_pct).sum::<f64>() / cells.len() as f64,
            compress_mbs: geomean(&compress),
            decompress_mvps: geomean(&decompress),
            ra_p50_ns: median(cells.iter().map(|c| c.ra_p50_ns)),
        })
    }

    /// The paper's headline comparisons (§IV-C), measured on the `paper`
    /// cells, as `[comparison, measured, paper]` rows. A row is emitted only
    /// when the sweep ran every codec it names, so a codec filter drops the
    /// rows it starves and no others.
    fn paper_comparisons(&self, paper: &[&String]) -> Vec<[String; 3]> {
        let mut rows = Vec::new();
        let competitors = paper_competitors();
        let special: Vec<&str> = competitors
            .iter()
            .map(|c| c.name())
            .filter(|name| !GENERAL_PURPOSE.contains(name) && self.codecs.iter().any(|c| c == name))
            .collect();
        if self.codecs.iter().any(|c| c == "NeaTS") && !special.is_empty() {
            let best = paper
                .iter()
                .filter(|shape| {
                    self.cell("NeaTS", shape).is_some_and(|n| {
                        special
                            .iter()
                            .filter_map(|codec| self.cell(codec, shape))
                            .all(|c| n.ratio_pct <= c.ratio_pct)
                    })
                })
                .count();
            rows.push([
                "NeaTS has the best special-purpose ratio".into(),
                format!("{best}/{} datasets", paper.len()),
                "14/16".into(),
            ]);
        }
        for (a, b, claim, published) in PAPER_CLAIMS {
            let (Some(pa), Some(pb)) = (self.paper_point(a, paper), self.paper_point(b, paper))
            else {
                continue;
            };
            let (what, measured) = match claim {
                Claim::CompressSpeed => {
                    ("compression speed", format!("{:.2}×", pa.compress_mbs / pb.compress_mbs))
                }
                Claim::RaSpeed => {
                    ("random-access speed", format!("{:.2}×", pb.ra_p50_ns / pa.ra_p50_ns))
                }
                Claim::Ratio => {
                    let diff = 100.0 * (pa.ratio_pct - pb.ratio_pct) / pb.ratio_pct;
                    ("ratio", format!("{diff:+.2} %"))
                }
            };
            rows.push([format!("{a} {what} vs {b}"), measured, published.into()]);
        }
        rows
    }
}

/// The paper's general-purpose compressors (the Xz/Brotli/Zstd and
/// Lz4/Snappy stand-ins), which Table III's "best special-purpose ratio"
/// claim leaves out.
const GENERAL_PURPOSE: [&str; 2] = ["EntropyLZ", "FastLZ"];

/// What a [`PAPER_CLAIMS`] row compares: codec `a`'s speed as a multiple of
/// codec `b`'s, or `a`'s ratio relative to `b`'s.
enum Claim {
    CompressSpeed,
    RaSpeed,
    Ratio,
}

/// The paper's pairwise claims (§IV-C, Figs. 2–3): `(a, b, what, the
/// paper's figure)`.
const PAPER_CLAIMS: [(&str, &str, Claim, &str); 9] = [
    ("LeaTS", "NeaTS", Claim::CompressSpeed, "5.22×"),
    ("LeaTS", "NeaTS", Claim::Ratio, "+0.89 %"),
    ("SNeaTS", "NeaTS", Claim::CompressSpeed, "12.86×"),
    ("SNeaTS", "NeaTS", Claim::Ratio, "+8.18 %"),
    ("NeaTS", "ALP", Claim::Ratio, "-16.4 %"),
    ("NeaTS", "ALP", Claim::RaSpeed, "≥ 10×"),
    ("DAC", "NeaTS", Claim::RaSpeed, "~3×"),
    ("DAC", "NeaTS", Claim::Ratio, "+37 %"),
    ("NeaTS", "EntropyLZ", Claim::RaSpeed, "100–1000× (2–3 orders)"),
];

/// One codec's point in the paper's Figs. 2–3, aggregated over the paper
/// datasets.
#[derive(Clone, Copy, Debug)]
struct PaperPoint {
    /// Mean compression ratio, %.
    ratio_pct: f64,
    /// Geomean compression speed, MB/s of raw input.
    compress_mbs: f64,
    /// Geomean full-decompression speed, million values per second.
    decompress_mvps: f64,
    /// Median of the per-dataset random-access p50 latencies, ns.
    ra_p50_ns: f64,
}

fn is_paper(s: Shape) -> bool {
    matches!(s, Shape::Paper(_))
}

/// Textual schema gate over a committed `BENCH_all.json`: the hand-rolled
/// JSON emitter has no parser, but drift detection only needs to know that
/// the committed file declares the current [`SCHEMA_VERSION`], carries every
/// [`RECORD_KEYS`] entry, covers every codec and shape of the fresh sweep,
/// and names none the code no longer has. `neats bench all --check` runs it.
pub fn check_committed(path: &str, fresh: &MatrixReport) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Up to the comma, so a number that merely starts with the version fails.
    if !text.contains(&format!("\"schema\": {SCHEMA_VERSION},")) {
        return Err(format!("{path} does not declare schema version {SCHEMA_VERSION}"));
    }
    for key in RECORD_KEYS {
        if !text.contains(&format!("\"{key}\"")) {
            return Err(format!("{path} is missing record key \"{key}\""));
        }
    }
    let codecs: Vec<&str> = all_codecs().iter().map(|c| c.name()).collect();
    let shapes: Vec<&str> = Shape::all().into_iter().map(Shape::name).collect();
    for (what, swept, roster) in [("codec", &fresh.codecs, codecs), ("shape", &fresh.shapes, shapes)] {
        let committed = committed_names(&text, what)
            .ok_or_else(|| format!("{path} has no \"{what}s\" list"))?;
        if let Some(missing) = swept.iter().find(|s| !committed.contains(&s.as_str())) {
            return Err(format!("{path} does not cover {what} \"{missing}\""));
        }
        if let Some(stale) = committed.iter().find(|c| !roster.contains(c)) {
            return Err(format!("{path} names {what} \"{stale}\", which the code no longer has"));
        }
    }
    Ok(())
}

/// The names in the artifact's top-level `"<what>s": [...]` string list.
fn committed_names<'a>(text: &'a str, what: &str) -> Option<Vec<&'a str>> {
    let (list, _) = text.split_once(&format!("\"{what}s\": ["))?.1.split_once(']')?;
    Some(list.split(',').map(|s| s.trim().trim_matches('"')).filter(|s| !s.is_empty()).collect())
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> MatrixConfig {
        MatrixConfig {
            n: 600,
            queries: 50,
            scan_len: 64,
            scans: 4,
            seed: 0,
            codec_filter: None,
            shape_filter: None,
        }
    }

    #[test]
    fn small_matrix_runs_and_renders() {
        let report = run_matrix(MatrixConfig {
            codec_filter: Some("NeaTS,Gorilla,PLA".into()),
            shape_filter: Some("constant,sawtooth".into()),
            ..tiny_config()
        })
        .expect("conformance");
        assert_eq!(report.shapes, vec!["constant", "sawtooth"]);
        assert!(report.codecs.len() >= 5, "{:?}", report.codecs); // NeaTS flavours + Gorilla + PLA
        assert_eq!(report.cells.len(), report.shapes.len() * report.codecs.len());

        let json = report.to_json().render();
        for key in RECORD_KEYS {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(json.contains(&format!("\"schema\": {SCHEMA_VERSION},")));
        for c in &report.cells {
            assert!(c.decompress_mvps.is_finite() && c.decompress_mvps > 0.0, "{c:?}");
        }

        let md = report.to_markdown();
        assert!(md.contains("| codec | mode |"), "{md}");
        assert!(md.contains("Gorilla"), "{md}");
        assert!(md.contains("adversarial"), "{md}");
        // No paper dataset was swept, so there is no paper section.
        assert!(!md.contains("## Paper datasets"), "{md}");
    }

    #[test]
    fn paper_section_keeps_the_comparisons_its_codecs_allow() {
        let run = |codecs: &str| {
            run_matrix(MatrixConfig {
                codec_filter: Some(codecs.into()),
                shape_filter: Some("ECG,WD".into()),
                ..tiny_config()
            })
            .expect("conformance")
            .to_markdown()
        };
        // NeaTS, SNeaTS, NeaTS-L and DAC: no LeaTS, ALP or EntropyLZ.
        let md = run("NeaTS,DAC");
        for part in [
            "## Paper datasets",
            "### Figs. 2–3: one point per codec",
            "### Table III: compression ratio %",
            "### Table III: decompression Mv/s",
            "### Table III: random access p50 ns",
            "### Measured vs paper",
            "| NeaTS has the best special-purpose ratio |",
            "| SNeaTS compression speed vs NeaTS |",
            "| DAC ratio vs NeaTS |",
        ] {
            assert!(md.contains(part), "missing {part:?} in\n{md}");
        }
        for gone in ["| LeaTS ", "vs ALP", "vs EntropyLZ"] {
            assert!(!md.contains(gone), "unexpected {gone:?} in\n{md}");
        }
        assert!(md.contains("/2 datasets | 14/16 |"), "{md}");

        // Without NeaTS every comparison is starved; the tables remain.
        let md = run("LeaTS,ALP");
        assert!(md.contains("### Table III: random access p50 ns"), "{md}");
        assert!(!md.contains("### Measured vs paper"), "{md}");
    }

    #[test]
    fn leats_speed_ratio_is_a_geomean_ratio() {
        let cell = |codec: &str, shape: &str, compress_ms: f64, ratio_pct: f64| Cell {
            codec: codec.into(),
            shape: shape.into(),
            n: 1000,
            eps: None,
            size_bytes: 0,
            ratio_pct,
            compress_ms,
            decompress_mvps: 100.0,
            ra_p50_ns: 100.0,
            ra_p99_ns: 200.0,
            scan_mvps: 100.0,
        };
        let report = MatrixReport {
            config: tiny_config(),
            // NeaTS speeds ∝ 1/8 and 1/2 (geomean 1/4; the mean would be
            // 5/16), LeaTS ∝ 1 on both: 4.00× by geomean, 3.20× by mean.
            cells: vec![
                cell("NeaTS", "IT", 8.0, 10.0),
                cell("NeaTS", "US", 2.0, 20.0),
                cell("LeaTS", "IT", 1.0, 16.5),
                cell("LeaTS", "US", 1.0, 16.5),
            ],
            shapes: vec!["IT".into(), "US".into()],
            codecs: vec!["NeaTS".into(), "LeaTS".into()],
        };
        let md = report.to_markdown();
        assert!(md.contains("| LeaTS compression speed vs NeaTS | 4.00× | 5.22× |"), "{md}");
        assert!(md.contains("| LeaTS ratio vs NeaTS | +10.00 % | +0.89 % |"), "{md}");
    }

    #[test]
    fn conformance_rejects_a_lying_archive() {
        struct Lying(Vec<i64>);
        impl CompressedSeries for Lying {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn size_in_bytes(&self) -> usize {
                8
            }
            fn get(&self, k: usize) -> i64 {
                self.0[k] + 1 // disagrees with decompress
            }
            fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
                out.extend_from_slice(&self.0[start..start + count]);
            }
        }
        let ts = Shape::Sawtooth.generate(200);
        let archive = Lying(ts.values().to_vec());
        let err = check_conformance("lying", "sawtooth", &ts, &archive).unwrap_err();
        assert!(err.detail.contains("get("), "{err}");
    }

    #[test]
    fn record_keys_match_emitted_records() {
        let report = run_matrix(MatrixConfig {
            codec_filter: Some("Gorilla".into()),
            shape_filter: Some("constant".into()),
            ..tiny_config()
        })
        .unwrap();
        if let Json::Obj(fields) = report.to_json() {
            let records = fields.iter().find(|(k, _)| k == "records").unwrap();
            if let (_, Json::Arr(recs)) = records {
                if let Json::Obj(rec) = &recs[0] {
                    let keys: Vec<&str> = rec.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, RECORD_KEYS);
                    return;
                }
            }
        }
        panic!("unexpected json shape");
    }

    #[test]
    fn committed_artifact_must_match_the_roster_both_ways() {
        let report = run_matrix(MatrixConfig {
            codec_filter: Some("Gorilla,PLA".into()),
            shape_filter: Some("constant".into()),
            ..tiny_config()
        })
        .unwrap();
        let fresh = report.to_json().render();
        let check = |tag: &str, text: String| {
            let path = std::env::temp_dir()
                .join(format!("neats_bench_gate_{}_{tag}.json", std::process::id()));
            std::fs::write(&path, text).unwrap();
            let verdict = check_committed(path.to_str().unwrap(), &report);
            std::fs::remove_file(&path).unwrap();
            verdict
        };
        check("fresh", fresh.clone()).expect("a fresh artifact passes its own gate");
        // A version that merely starts with the current one is another version.
        let v = SCHEMA_VERSION;
        let bumped = fresh.replacen(&format!("\"schema\": {v}"), &format!("\"schema\": {v}0"), 1);
        let err = check("schema", bumped).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        // The sweep ran a codec the artifact does not list.
        let err = check("missing", fresh.replacen("\"PLA\",", "", 1)).unwrap_err();
        assert!(err.contains("does not cover codec \"PLA\""), "{err}");
        // The artifact lists a codec / a shape the code does not have.
        let err = check("codec", fresh.replacen("\"PLA\"", "\"PLA\", \"NeaTS-retired\"", 1))
            .unwrap_err();
        assert!(err.contains("names codec \"NeaTS-retired\""), "{err}");
        let err = check("shape", fresh.replacen("\"constant\"", "\"constant\", \"ramp\"", 1))
            .unwrap_err();
        assert!(err.contains("names shape \"ramp\""), "{err}");
    }
}
