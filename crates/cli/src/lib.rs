//! Implementation of the `neats` command-line tool.
//!
//! The CLI wraps the library's full pipeline for shell use. Its command
//! line is declared once, in two tables: `FLAGS` (every flag and what its
//! value must be) and `COMMANDS` (every command's words, positional
//! arguments and the flags it reads). [`parse_args`] reads both, rejects a
//! flag its command does not read, and [`usage`] prints both.
//!
//! `query` and `stat` serve any archive flavor (`.neats` or `.neatsl`)
//! through [`neats_core::ArchiveView`] opened over the file's bytes as
//! read. `sum` and `decompress` load a [`neats_core::NeaTSCompressed`] —
//! one copy of those bytes plus the same view — and accept lossless
//! archives only.
//!
//! The `store` family works on multi-series packfiles ([`neats_store`]):
//! `build` ingests one series per input file (named after the file stem)
//! and compresses segments in parallel; `ls` prints the catalog; `query`
//! serves point, index-range, and `@timestamp` lookups zero-copy through
//! [`neats_store::Store`] — the recommended path when serving many series.
//!
//! `ingest` appends series into a live ingestion directory
//! ([`neats_ingest::Ingestor`]): every accepted batch is WAL-logged before
//! it is acknowledged (`--fsync` picks the durability/throughput point),
//! and full chunks are sealed into the directory's pack on exit unless
//! `--no-seal` leaves them in the WAL for the next opener.
//!
//! `serve` mounts a pack — or, given a directory, the live ingestor with a
//! background sealer, which additionally accepts `POST /write` under the
//! same `--fsync` policy — behind the multi-threaded HTTP frontend
//! ([`neats_serve`]): it prints `listening on <addr>` (the actual port when
//! bound with `:0`) and serves until killed. Endpoints and the wire grammar
//! are specified in `docs/PROTOCOL.md` at the repository root.
//!
//! `bench all` runs the unified codec × shape matrix ([`bench::suite`]):
//! every NeaTS flavor and every baseline codec over the paper's 16 datasets
//! plus 8 adversarial generators, conformance-checked inline, emitting
//! `BENCH_all.json` (schema-versioned records) and `BENCHMARKS.md` (the
//! committed competitive table). `--check` re-validates a committed JSON
//! artifact against the fresh sweep's schema and rosters — the CI smoke
//! gate. Without `--n` / `--queries` the sweep reads `NEATS_BENCH_N` /
//! `NEATS_BENCH_QUERIES`; scan sizing is `NEATS_BENCH_SCAN_LEN` /
//! `NEATS_BENCH_SCANS`.
//!
//! Input text files contain one decimal value per line (the format the
//! paper's datasets ship in) or `timestamp,value` CSV lines (timestamps
//! must strictly increase); `--digits` sets the fixed-precision scaling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use neats_core::{ArchiveView, Kind, NeaTS, NeaTSBuilder, NeaTSCompressed};
use neats_ingest::{BackgroundConfig, FsyncPolicy, IngestConfig, Ingestor};
use neats_serve::{ServeConfig, Server};
use neats_store::{Store, StoreConfig, StoreMode, StoreOptions, StoreWriter};
use std::path::Path;
use timeseries::io::{load_fixed_precision, LoadError};
use timeseries::{CompressedSeries, ValueErrorKind};

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Lossless compression of a text file.
    Compress {
        /// Input text path.
        input: String,
        /// Output `.neats` path.
        output: String,
        /// Fixed-precision digits.
        digits: u8,
        /// Function pool selector.
        kinds: KindPool,
        /// Use SNeaTS model selection.
        sneats: bool,
        /// Partitioner worker threads (0 = auto).
        threads: usize,
    },
    /// Lossy compression under an error bound.
    Lossy {
        /// Input text path.
        input: String,
        /// Output `.neatsl` path.
        output: String,
        /// Fixed-precision digits.
        digits: u8,
        /// Error bound in scaled-integer units.
        eps: u64,
        /// Partitioner worker threads (0 = auto).
        threads: usize,
    },
    /// Full decompression back to text.
    Decompress {
        /// Input `.neats` path.
        input: String,
        /// Output text path.
        output: String,
    },
    /// Range sum (estimate by default, `--exact` to scan).
    Sum {
        /// Input `.neats` path.
        input: String,
        /// First index.
        start: usize,
        /// Number of values.
        count: usize,
        /// Exact scan instead of the function-only estimate.
        exact: bool,
    },
    /// Point/range lookups through `ArchiveView` (either flavor).
    Query {
        /// Input archive path (`.neats` or `.neatsl`).
        input: String,
        /// Lookup specs: a plain index `K`, or a half-open range `A..B`.
        specs: Vec<String>,
    },
    /// Archive statistics from the container frame, without full decode.
    Stat {
        /// Input archive path (`.neats` or `.neatsl`).
        input: String,
    },
    /// Build (or append to) a multi-series packfile, one series per input.
    StoreBuild {
        /// Output pack path.
        output: String,
        /// Input text files (one series each, named after the file stem).
        inputs: Vec<String>,
        /// Fixed-precision digits for values.
        digits: u8,
        /// Lossy error bound (lossless when absent).
        eps: Option<u64>,
        /// Max points per segment (0 = default).
        segment: usize,
        /// Segment-compression worker threads (0 = auto).
        threads: usize,
        /// Append to an existing pack instead of creating a fresh one.
        append: bool,
    },
    /// List a pack's catalog.
    StoreLs {
        /// Pack path.
        pack: String,
    },
    /// Zero-copy lookups in a pack through the store.
    StoreQuery {
        /// Pack path.
        pack: String,
        /// Series name.
        series: String,
        /// Lookup specs: index `K`, half-open range `A..B`, or `@timestamp`.
        specs: Vec<String>,
    },
    /// Append series into a live ingestion directory (WAL + head + pack).
    Ingest {
        /// Ingestion directory (created on first use).
        dir: String,
        /// Input text files (one series each, named after the file stem).
        inputs: Vec<String>,
        /// Fixed-precision digits for values.
        digits: u8,
        /// WAL fsync policy.
        fsync: FsyncPolicy,
        /// Leave everything in the WAL instead of sealing on exit.
        no_seal: bool,
    },
    /// Serve a pack (read-only) or an ingestion directory (live) over HTTP.
    Serve {
        /// Pack path, or an ingestion directory for live serving.
        pack: String,
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Worker threads (0 = all cores).
        threads: usize,
        /// Segment-view cache capacity (0 disables caching).
        cache: usize,
        /// WAL fsync policy of a live directory (a pack has no WAL).
        fsync: FsyncPolicy,
        /// Slow-query threshold in microseconds (0 = off).
        slow_query_us: u64,
        /// Request-trace ring capacity (0 disables tracing).
        trace_ring: usize,
    },
    /// Run the full codec × shape conformance + benchmark matrix.
    BenchAll {
        /// Points per generated series (`None` = `NEATS_BENCH_N`/default).
        n: Option<usize>,
        /// Timed random-access queries per cell (`None` = env/default).
        queries: Option<usize>,
        /// Generator seed (`None` = 0).
        seed: Option<u64>,
        /// Comma-separated codec-name substring filter.
        codecs: Option<String>,
        /// Comma-separated shape-name substring filter.
        shapes: Option<String>,
        /// JSON artifact path (`None` = `BENCH_all.json`).
        out: Option<String>,
        /// Markdown artifact path (`None` = `BENCHMARKS.md`).
        md: Option<String>,
        /// Committed JSON artifact to schema-check after the sweep.
        check: Option<String>,
    },
}

/// Which function families to allow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KindPool {
    /// The paper's four defaults.
    Default,
    /// Linear only (LeaTS).
    Linear,
    /// All eleven implemented families.
    All,
}

impl KindPool {
    fn kinds(self) -> Vec<Kind> {
        match self {
            KindPool::Default => Kind::NEATS_DEFAULT.to_vec(),
            KindPool::Linear => vec![Kind::Linear],
            KindPool::All => Kind::ALL.to_vec(),
        }
    }
}

/// A flag: its name, the placeholder [`usage`] shows for its value (empty
/// for a switch, which takes none), and what that value must be.
struct Flag {
    name: &'static str,
    meta: &'static str,
    needs: &'static str,
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--digits", meta: "D", needs: "an integer 0-255" },
    Flag { name: "--kinds", meta: "default|linear|all", needs: "default, linear or all" },
    Flag { name: "--sneats", meta: "", needs: "" },
    Flag { name: "--threads", meta: "T", needs: "a non-negative integer (0 = auto)" },
    Flag { name: "--eps", meta: "E", needs: "a non-negative integer" },
    Flag { name: "--exact", meta: "", needs: "" },
    Flag { name: "--segment", meta: "N", needs: "a point count (0 = default)" },
    Flag { name: "--append", meta: "", needs: "" },
    Flag { name: "--fsync", meta: "always|never|N", needs: "always, never, or a record count" },
    Flag { name: "--no-seal", meta: "", needs: "" },
    Flag { name: "--addr", meta: "HOST:PORT", needs: "a host:port" },
    Flag { name: "--cache", meta: "N", needs: "a view count (0 disables)" },
    Flag { name: "--slow-query-us", meta: "U", needs: "a microsecond count (0 = off)" },
    Flag { name: "--trace-ring", meta: "N", needs: "an entry count (0 disables)" },
    Flag { name: "--n", meta: "N", needs: "a point count" },
    Flag { name: "--queries", meta: "Q", needs: "a query count" },
    Flag { name: "--seed", meta: "S", needs: "a non-negative integer" },
    Flag { name: "--codecs", meta: "LIST", needs: "a comma-separated name filter" },
    Flag { name: "--shapes", meta: "LIST", needs: "a comma-separated name filter" },
    Flag { name: "--out", meta: "FILE.json", needs: "a file path" },
    Flag { name: "--md", meta: "FILE.md", needs: "a file path" },
    Flag { name: "--check", meta: "COMMITTED.json", needs: "a committed json path" },
];

fn needs(f: &Flag) -> CliError {
    CliError(format!("{} needs {}", f.name, f.needs))
}

fn flag(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|f| f.name == name)
        .expect("every flag a COMMANDS row names is declared in FLAGS")
}

/// A command: the words that name it; its arguments in order, where a
/// last placeholder ending in `...` takes one or more values and a flag
/// name is a flag the command cannot run without; the optional flags it
/// reads; and how its [`Command`] is built from a matching command line.
struct Cmd {
    words: &'static [&'static str],
    args: &'static [&'static str],
    flags: &'static [&'static str],
    build: fn(&Args) -> Result<Command, CliError>,
}

#[rustfmt::skip]
const COMMANDS: &[Cmd] = &[
    Cmd {
        words: &["compress"],
        args: &["<in.txt>", "<out.neats>"],
        flags: &["--digits", "--kinds", "--sneats", "--threads"],
        build: |a| Ok(Command::Compress {
            input: a.pos[0].clone(),
            output: a.pos[1].clone(),
            digits: a.get("--digits", num)?.unwrap_or(0),
            kinds: a.get("--kinds", kind_pool)?.unwrap_or(KindPool::Default),
            sneats: a.has("--sneats"),
            threads: a.get("--threads", num)?.unwrap_or(0),
        }),
    },
    Cmd {
        words: &["lossy"],
        args: &["<in.txt>", "<out.neatsl>", "--eps"],
        flags: &["--digits", "--threads"],
        build: |a| Ok(Command::Lossy {
            input: a.pos[0].clone(),
            output: a.pos[1].clone(),
            digits: a.get("--digits", num)?.unwrap_or(0),
            // Present: the row makes `--eps` required.
            eps: a.get("--eps", num)?.unwrap_or(0),
            threads: a.get("--threads", num)?.unwrap_or(0),
        }),
    },
    Cmd {
        words: &["decompress"],
        args: &["<in.neats>", "<out.txt>"],
        flags: &[],
        build: |a| Ok(Command::Decompress { input: a.pos[0].clone(), output: a.pos[1].clone() }),
    },
    Cmd {
        words: &["sum"],
        args: &["<in.neats>", "<start>", "<count>"],
        flags: &["--exact"],
        build: |a| Ok(Command::Sum {
            input: a.pos[0].clone(),
            start: parse_usize_msg(&a.pos[1], "start")?,
            count: parse_usize_msg(&a.pos[2], "count")?,
            exact: a.has("--exact"),
        }),
    },
    Cmd {
        words: &["query"],
        args: &["<archive>", "<index | a..b>..."],
        flags: &[],
        build: |a| Ok(Command::Query { input: a.pos[0].clone(), specs: a.pos[1..].to_vec() }),
    },
    Cmd {
        words: &["stat"],
        args: &["<archive>"],
        flags: &[],
        build: |a| Ok(Command::Stat { input: a.pos[0].clone() }),
    },
    Cmd {
        words: &["store", "build"],
        args: &["<out.pack>", "<in>..."],
        flags: &["--digits", "--eps", "--segment", "--threads", "--append"],
        build: |a| Ok(Command::StoreBuild {
            output: a.pos[0].clone(),
            inputs: a.pos[1..].to_vec(),
            digits: a.get("--digits", num)?.unwrap_or(0),
            eps: a.get("--eps", num)?,
            segment: a.get("--segment", num)?.unwrap_or(0),
            threads: a.get("--threads", num)?.unwrap_or(0),
            append: a.has("--append"),
        }),
    },
    Cmd {
        words: &["store", "ls"],
        args: &["<pack>"],
        flags: &[],
        build: |a| Ok(Command::StoreLs { pack: a.pos[0].clone() }),
    },
    Cmd {
        words: &["store", "query"],
        args: &["<pack>", "<series>", "<index | a..b | @time>..."],
        flags: &[],
        build: |a| Ok(Command::StoreQuery {
            pack: a.pos[0].clone(),
            series: a.pos[1].clone(),
            specs: a.pos[2..].to_vec(),
        }),
    },
    Cmd {
        words: &["ingest"],
        args: &["<dir>", "<in>..."],
        flags: &["--digits", "--fsync", "--no-seal"],
        build: |a| Ok(Command::Ingest {
            dir: a.pos[0].clone(),
            inputs: a.pos[1..].to_vec(),
            digits: a.get("--digits", num)?.unwrap_or(0),
            fsync: a.get("--fsync", fsync_policy)?.unwrap_or(FsyncPolicy::Always),
            no_seal: a.has("--no-seal"),
        }),
    },
    Cmd {
        words: &["serve"],
        args: &["<pack | dir>"],
        flags: &["--addr", "--threads", "--cache", "--fsync", "--slow-query-us", "--trace-ring"],
        build: |a| {
            let d = ServeConfig::default();
            Ok(Command::Serve {
                pack: a.pos[0].clone(),
                addr: a.get("--addr", text)?.unwrap_or_else(|| "127.0.0.1:8462".into()),
                threads: a.get("--threads", num)?.unwrap_or(d.threads),
                cache: a.get("--cache", num)?.unwrap_or(256),
                fsync: a.get("--fsync", fsync_policy)?.unwrap_or(FsyncPolicy::Always),
                slow_query_us: a.get("--slow-query-us", num)?.unwrap_or(d.slow_query_us),
                trace_ring: a.get("--trace-ring", num)?.unwrap_or(d.trace_ring),
            })
        },
    },
    Cmd {
        words: &["bench", "all"],
        args: &[],
        flags: &["--n", "--queries", "--seed", "--codecs", "--shapes", "--out", "--md", "--check"],
        build: |a| Ok(Command::BenchAll {
            n: a.get("--n", num)?,
            queries: a.get("--queries", num)?,
            seed: a.get("--seed", num)?,
            codecs: a.get("--codecs", text)?,
            shapes: a.get("--shapes", text)?,
            out: a.get("--out", text)?,
            md: a.get("--md", text)?,
            check: a.get("--check", text)?,
        }),
    },
];

/// A command line matched to its `COMMANDS` row: the arguments after the
/// command's words, and each flag given with its value (a switch has none).
struct Args<'a> {
    pos: Vec<String>,
    flags: Vec<(&'static Flag, Option<&'a str>)>,
}

impl Args<'_> {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.name == name)
    }

    /// The value of the last `name` given, read by `parse`; a value it
    /// rejects is an error naming what the flag needs.
    fn get<T>(&self, name: &str, parse: fn(&str) -> Option<T>) -> Result<Option<T>, CliError> {
        let Some((f, value)) = self.flags.iter().rev().find(|(f, _)| f.name == name) else {
            return Ok(None);
        };
        value.and_then(parse).map(Some).ok_or_else(|| needs(f))
    }
}

fn num<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn text(v: &str) -> Option<String> {
    Some(v.to_string())
}

fn kind_pool(v: &str) -> Option<KindPool> {
    match v {
        "default" => Some(KindPool::Default),
        "linear" => Some(KindPool::Linear),
        "all" => Some(KindPool::All),
        _ => None,
    }
}

fn fsync_policy(v: &str) -> Option<FsyncPolicy> {
    match v {
        "always" => Some(FsyncPolicy::Always),
        "never" => Some(FsyncPolicy::Never),
        n => n.parse().ok().map(FsyncPolicy::EveryN),
    }
}

/// How an argument of a `COMMANDS` row reads in [`usage`]: a flag with its
/// value placeholder, a positional placeholder as written.
fn shown(arg: &str) -> String {
    match arg.starts_with("--").then(|| flag(arg).meta) {
        Some(meta) if !meta.is_empty() => format!("{arg} {meta}"),
        _ => arg.to_string(),
    }
}

/// The usage text: one line per command, built from `COMMANDS` and `FLAGS`.
pub fn usage() -> String {
    let mut text = String::from("usage:");
    for cmd in COMMANDS {
        text += &format!("\n  neats {:<11}", cmd.words.join(" "));
        for arg in cmd.args {
            text += &format!(" {}", shown(arg));
        }
        for name in cmd.flags {
            text += &format!(" [{}]", shown(name));
        }
    }
    text
}

/// Parses an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut pos: Vec<&str> = Vec::new();
    let mut flags = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            pos.push(arg);
            continue;
        }
        let Some(f) = FLAGS.iter().find(|f| f.name == arg) else {
            return err(format!("unknown flag {arg}"));
        };
        let value = if f.meta.is_empty() {
            None
        } else {
            Some(rest.next().ok_or_else(|| needs(f))?)
        };
        flags.push((f, value));
    }
    let Some(cmd) = COMMANDS.iter().find(|c| pos.starts_with(c.words)) else {
        if pos.is_empty() {
            return err(usage());
        }
        let typed = pos.join(" ");
        return err(format!("no command matches `neats {typed}`\n{}", usage()));
    };
    let name = cmd.words.join(" ");
    for (f, _) in &flags {
        if !cmd.flags.contains(&f.name) && !cmd.args.contains(&f.name) {
            return err(format!("`{}` does not apply to `neats {name}`", f.name));
        }
    }
    let pos = &pos[cmd.words.len()..];
    let mut given = pos.iter();
    for arg in cmd.args {
        let missing = if arg.starts_with("--") {
            !flags.iter().any(|(f, _)| f.name == *arg)
        } else {
            given.next().is_none()
        };
        if missing {
            return err(format!("`neats {name}` needs {}", shown(arg)));
        }
    }
    let takes_more = cmd.args.last().is_some_and(|a| a.ends_with("..."));
    if let Some(extra) = given.next().filter(|_| !takes_more) {
        return err(format!("unexpected argument {extra:?} for `neats {name}`"));
    }
    (cmd.build)(&Args {
        pos: pos.iter().map(|s| s.to_string()).collect(),
        flags,
    })
}

fn load_compressed(path: &str) -> Result<NeaTSCompressed, CliError> {
    let bytes = std::fs::read(path)?;
    NeaTSCompressed::from_bytes(&bytes).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Accepts `[start, start + count)` only if it lies within `0..len`; the sum
/// is checked, so a `start + count` past `usize::MAX` is out of bounds too
/// rather than a wrapped, in-bounds-looking end.
fn check_range(start: usize, count: usize, len: usize) -> Result<(), CliError> {
    match start.checked_add(count) {
        Some(end) if end <= len => Ok(()),
        Some(end) => err(format!("range [{start}, {end}) out of bounds")),
        None => err(format!("range [{start}, {start} + {count}) out of bounds")),
    }
}

/// Executes a command, writing human-readable output to `out`.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    match cmd {
        Command::Compress {
            input,
            output,
            digits,
            kinds,
            sneats,
            threads,
        } => {
            let ts = load_fixed_precision(Path::new(&input), digits)
                .map_err(|e| load_error(&input, e, digits))?;
            let mut builder: NeaTSBuilder = NeaTS::builder().kinds(&kinds.kinds()).threads(threads);
            if sneats {
                builder = builder.model_selection(Default::default());
            }
            let c = builder.build(&ts);
            let bytes = c.as_bytes();
            std::fs::write(&output, bytes)?;
            writeln!(
                out,
                "{} values -> {} bytes ({:.2}% of raw), {} fragments",
                ts.len(),
                bytes.len(),
                100.0 * bytes.len() as f64 / ts.uncompressed_bytes().max(1) as f64,
                c.view().fragment_count()
            )?;
            Ok(())
        }
        Command::Lossy {
            input,
            output,
            digits,
            eps,
            threads,
        } => {
            let ts = load_fixed_precision(Path::new(&input), digits)
                .map_err(|e| load_error(&input, e, digits))?;
            let l = NeaTS::builder().threads(threads).build_lossy(&ts, eps);
            let bytes = l.as_bytes();
            std::fs::write(&output, bytes)?;
            writeln!(
                out,
                "{} values -> {} bytes ({:.2}% of raw), {} fragments, max error {} (bound {})",
                ts.len(),
                bytes.len(),
                100.0 * bytes.len() as f64 / ts.uncompressed_bytes().max(1) as f64,
                l.view().fragment_count(),
                l.max_error(&ts),
                eps,
            )?;
            Ok(())
        }
        Command::Decompress { input, output } => {
            let c = load_compressed(&input)?;
            let values = c.decompress();
            let mut text = String::with_capacity(values.len() * 8);
            for v in &values {
                text.push_str(&v.to_string());
                text.push('\n');
            }
            std::fs::write(&output, text)?;
            writeln!(out, "{} values written to {output}", values.len())?;
            Ok(())
        }
        Command::Sum {
            input,
            start,
            count,
            exact,
        } => {
            let c = load_compressed(&input)?;
            check_range(start, count, c.len())?;
            if exact {
                writeln!(out, "{}", c.view().sum_range_exact(start, count))?;
            } else {
                let e = c.view().sum_range_estimate(start, count);
                writeln!(out, "{} ± {}", e.value, e.max_error)?;
            }
            Ok(())
        }
        Command::Query { input, specs } => {
            let bytes = std::fs::read(&input)?;
            let view = ArchiveView::open(&bytes).map_err(|e| CliError(format!("{input}: {e}")))?;
            for spec in specs {
                if let Some((a, b)) = spec.split_once("..") {
                    let a = parse_usize_msg(a, "range start")?;
                    let b = parse_usize_msg(b, "range end")?;
                    if a > b || b > view.len() {
                        return err(format!("range {a}..{b} out of bounds (len {})", view.len()));
                    }
                    let mut values = Vec::with_capacity(b - a);
                    view.range(a..b, &mut values);
                    for v in values {
                        writeln!(out, "{v}")?;
                    }
                } else {
                    let k = parse_usize_msg(&spec, "index")?;
                    if k >= view.len() {
                        return err(format!("index {k} out of range (len {})", view.len()));
                    }
                    writeln!(out, "{}", view.at(k))?;
                }
            }
            Ok(())
        }
        Command::Stat { input } => {
            let bytes = std::fs::read(&input)?;
            let (view, sections) = ArchiveView::open_with_sections(&bytes)
                .map_err(|e| CliError(format!("{input}: {e}")))?;
            writeln!(out, "flavor:        {}", view.flavor().name())?;
            writeln!(out, "values:        {}", view.len())?;
            writeln!(out, "fragments:     {}", view.fragment_count())?;
            writeln!(out, "size:          {} bytes", view.size_in_bytes())?;
            writeln!(out, "file:          {} bytes", bytes.len())?;
            writeln!(
                out,
                "ratio:         {:.2}% of raw 64-bit",
                100.0 * bytes.len() as f64 / (view.len() * 8).max(1) as f64
            )?;
            writeln!(out, "shift:         {}", view.shift())?;
            if let Some(eps) = view.eps() {
                writeln!(out, "eps:           {eps}")?;
            }
            for (kind, count) in view.kind_histogram() {
                writeln!(out, "kind {:<12} {count} fragments", kind.name())?;
            }
            writeln!(out, "sections:")?;
            for s in &sections {
                writeln!(out, "  {:<14} {:>10} bytes @ {}", s.name, s.len, s.offset)?;
            }
            Ok(())
        }
        Command::StoreBuild {
            output,
            inputs,
            digits,
            eps,
            segment,
            threads,
            append,
        } => {
            let cfg = StoreConfig {
                segment_points: if segment == 0 {
                    neats_store::DEFAULT_SEGMENT_POINTS
                } else {
                    segment
                },
                builder: NeaTS::builder(),
                mode: match eps {
                    Some(eps) => StoreMode::Lossy { eps },
                    None => StoreMode::Lossless,
                },
                threads,
            };
            let mut writer = if append {
                let existing = std::fs::read(&output).map_err(|e| {
                    CliError(format!("{output}: {e} (--append needs an existing pack)"))
                })?;
                StoreWriter::append_to(&existing, cfg)
                    .map_err(|e| CliError(format!("{output}: {e}")))?
            } else {
                StoreWriter::new(cfg)
            };
            let mut total_points = 0usize;
            for input in &inputs {
                let name = Path::new(input)
                    .file_stem()
                    .map(|s| s.to_string_lossy().to_string())
                    .filter(|s| !s.is_empty())
                    .ok_or(CliError(format!("{input}: cannot derive a series name")))?;
                let (stamps, values) = load_series_file(input, digits)?;
                total_points += values.len();
                writer
                    .ingest(&name, &stamps, &values)
                    .map_err(|e| CliError(format!("{input}: {e}")))?;
            }
            let pack = writer.finish().map_err(|e| CliError(e.to_string()))?;
            std::fs::write(&output, &pack)?;
            writeln!(
                out,
                "{} series, {} points -> {} bytes ({output})",
                inputs.len(),
                total_points,
                pack.len()
            )?;
            Ok(())
        }
        Command::StoreLs { pack } => {
            let store = Store::open_path(&pack).map_err(|e| CliError(format!("{pack}: {e}")))?;
            writeln!(
                out,
                "{:<20} {:>9} {:>9} {:>10} {:>21} {:>12}",
                "series", "mode", "points", "segments", "time span", "bytes"
            )?;
            for e in store.entries() {
                let mode = match e.mode() {
                    StoreMode::Lossless => "lossless".to_string(),
                    StoreMode::Lossy { eps } => format!("lossy/{eps}"),
                };
                writeln!(
                    out,
                    "{:<20} {:>9} {:>9} {:>10} {:>10}..{:>9} {:>12}",
                    e.name(),
                    mode,
                    e.len(),
                    e.segments().len(),
                    e.t_min(),
                    e.t_max(),
                    e.stored_bytes()
                )?;
            }
            writeln!(
                out,
                "total: {} series, {} points, {} bytes on disk",
                store.series_count(),
                store.total_points(),
                store.as_bytes().len()
            )?;
            Ok(())
        }
        Command::StoreQuery {
            pack,
            series,
            specs,
        } => {
            let store = Store::open_path(&pack).map_err(|e| CliError(format!("{pack}: {e}")))?;
            let fail = |e: neats_store::StoreError| CliError(format!("{series}: {e}"));
            for spec in specs {
                if let Some(t) = spec.strip_prefix('@') {
                    let t: u64 = t
                        .parse()
                        .map_err(|_| CliError(format!("@time must be an integer, got {spec:?}")))?;
                    match store.at_time(&series, t).map_err(fail)? {
                        Some(v) => writeln!(out, "{v}")?,
                        None => {
                            return err(format!("no sample at timestamp {t} in series {series:?}"))
                        }
                    }
                } else if let Some((a, b)) = spec.split_once("..") {
                    let a = parse_usize_msg(a, "range start")?;
                    let b = parse_usize_msg(b, "range end")?;
                    let mut values = Vec::new();
                    store.range(&series, a..b, &mut values).map_err(fail)?;
                    for v in values {
                        writeln!(out, "{v}")?;
                    }
                } else {
                    let k = parse_usize_msg(&spec, "index")?;
                    writeln!(out, "{}", store.get(&series, k).map_err(fail)?)?;
                }
            }
            Ok(())
        }
        Command::Ingest {
            dir,
            inputs,
            digits,
            fsync,
            no_seal,
        } => {
            let cfg = IngestConfig {
                fsync,
                ..IngestConfig::default()
            };
            let ing = Ingestor::open(&dir, cfg).map_err(|e| CliError(format!("{dir}: {e}")))?;
            let mut total_points = 0usize;
            for input in &inputs {
                let name = Path::new(input)
                    .file_stem()
                    .map(|s| s.to_string_lossy().to_string())
                    .filter(|s| !s.is_empty())
                    .ok_or(CliError(format!("{input}: cannot derive a series name")))?;
                let (stamps, values) = load_series_file(input, digits)?;
                total_points += values.len();
                ing.append(&name, &stamps, &values)
                    .map_err(|e| CliError(format!("{input}: {e}")))?;
            }
            if !no_seal {
                ing.flush()
                    .map_err(|e| CliError(format!("{dir}: seal: {e}")))?;
            }
            writeln!(
                out,
                "{} series, {total_points} points ingested into {dir} \
                 (epoch {}, {} points in the WAL)",
                inputs.len(),
                ing.epoch(),
                ing.head_points(),
            )?;
            Ok(())
        }
        Command::Serve {
            pack,
            addr,
            threads,
            cache,
            fsync,
            slow_query_us,
            trace_ring,
        } => {
            // A directory serves live (ingestor + background sealer and
            // POST /write); a file serves the read-only pack.
            let live = Path::new(&pack).is_dir();
            let cfg = ServeConfig {
                threads,
                slow_query_us,
                trace_ring,
                // Surfaces on /stats ("source") and /metrics (neats_build_info).
                source_label: pack.clone(),
                ..ServeConfig::default()
            };
            let (server, _background, series, points) = if live {
                let ing = Ingestor::open(
                    &pack,
                    IngestConfig {
                        cache_capacity: cache,
                        fsync,
                        ..IngestConfig::default()
                    },
                )
                .map_err(|e| CliError(format!("{pack}: {e}")))?;
                let ing = std::sync::Arc::new(ing);
                let background = ing.start_background(BackgroundConfig::default());
                let (series, points) = (ing.series_count(), ing.total_points());
                let server = Server::bind(ing, addr.as_str(), cfg)
                    .map_err(|e| CliError(format!("bind {addr}: {e}")))?;
                (server, Some(background), series, points)
            } else {
                let store = Store::open_with(
                    std::fs::read(&pack).map_err(|e| CliError(format!("{pack}: {e}")))?,
                    StoreOptions { cache_capacity: cache },
                )
                .map_err(|e| CliError(format!("{pack}: {e}")))?;
                let (series, points) = (store.series_count(), store.total_points());
                let server = Server::bind(std::sync::Arc::new(store), addr.as_str(), cfg)
                    .map_err(|e| CliError(format!("bind {addr}: {e}")))?;
                (server, None, series, points)
            };
            let discipline = match server.mode() {
                "reactor" => "reactor shard(s)",
                _ => "worker(s)",
            };
            writeln!(
                out,
                "serving {series} series ({points} points) {} {pack} with {} {discipline}",
                if live { "live from" } else { "from" },
                server.threads(),
            )?;
            // The smoke scripts scrape this exact line for the bound port.
            writeln!(out, "listening on {}", server.local_addr())?;
            out.flush()?;
            // Runs until the process is killed; the library API
            // (ServerHandle::shutdown) is the graceful-shutdown hook for
            // embedders — a std-only binary has no signal handler to wire
            // it to.
            server.run().map_err(|e| CliError(format!("serve: {e}")))
        }
        Command::BenchAll {
            n,
            queries,
            seed,
            codecs,
            shapes,
            out: out_path,
            md: md_path,
            check,
        } => {
            use bench::suite::matrix::{
                check_committed, run_matrix_with, MatrixConfig, SCHEMA_VERSION,
            };
            let env = MatrixConfig::from_env();
            let config = MatrixConfig {
                n: n.unwrap_or(env.n),
                queries: queries.unwrap_or(env.queries),
                seed: seed.unwrap_or(env.seed),
                codec_filter: codecs,
                shape_filter: shapes,
                ..env
            };
            writeln!(
                out,
                "bench all: n={} queries={} scans={}x{} seed={}",
                config.n, config.queries, config.scans, config.scan_len, config.seed
            )?;
            let report = run_matrix_with(config, |cell| {
                let _ = writeln!(
                    out,
                    "  {:<14} {:<14} ratio {:>7.2}%  ra p50 {:>7.0} ns  p99 {:>8.0} ns  \
                     scan {:>8.1} Mv/s",
                    cell.shape,
                    cell.codec,
                    cell.ratio_pct,
                    cell.ra_p50_ns,
                    cell.ra_p99_ns,
                    cell.scan_mvps
                );
            })
            .map_err(|e| CliError(format!("conformance failure: {e}")))?;
            let out_path = out_path.unwrap_or_else(|| "BENCH_all.json".into());
            let md_path = md_path.unwrap_or_else(|| "BENCHMARKS.md".into());
            std::fs::write(&out_path, report.to_json().render())?;
            std::fs::write(&md_path, report.to_markdown())?;
            writeln!(
                out,
                "wrote {out_path} and {md_path}: {} cells ({} codecs x {} shapes), \
                 all conformant",
                report.cells.len(),
                report.codecs.len(),
                report.shapes.len()
            )?;
            if let Some(committed) = check {
                check_committed(&committed, &report).map_err(|msg| {
                    CliError(format!(
                        "schema drift: {msg} — regenerate with `neats bench all` and commit \
                         the updated artifacts"
                    ))
                })?;
                writeln!(out, "schema check: {committed} matches schema v{SCHEMA_VERSION}")?;
            }
            Ok(())
        }
    }
}

/// Loads a series input file: either one `timestamp,value` pair per line
/// (timestamps must be integers), or the plain one-value-per-line format
/// every other command reads — in which case point indices 0, 1, 2, … are
/// used as timestamps. Values are scaled by `10^digits` via the same
/// fixed-precision transform as `neats compress`.
fn load_series_file(path: &str, digits: u8) -> Result<(Vec<u64>, Vec<i64>), CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
    let timestamped = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty())
        .is_some_and(|l| l.contains(','));
    if !timestamped {
        // Plain format: exactly what `neats compress` reads — delegate so
        // the two commands can never diverge on scaling/rounding.
        let ts = timeseries::io::parse_lines(std::io::Cursor::new(text), digits)
            .map_err(|e| load_error(path, e, digits))?;
        let stamps = (0..ts.len() as u64).collect();
        return Ok((stamps, ts.values().to_vec()));
    }
    let mut stamps: Vec<u64> = Vec::new();
    let mut values = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((t, v)) = line.split_once(',') else {
            return Err(CliError(format!(
                "{path}: mixes timestamped and plain lines (line {})",
                lineno + 1
            )));
        };
        let t: u64 = t
            .trim()
            .parse()
            .map_err(|_| CliError(format!("{path}:{}: bad timestamp {t:?}", lineno + 1)))?;
        // Reject out-of-order/duplicate timestamps at parse time with the
        // exact line, instead of letting the store's batch check point at a
        // batch-relative index later.
        if stamps.last().is_some_and(|&p| t <= p) {
            return Err(CliError(format!(
                "{path}:{}: timestamp {t} does not increase past the previous line",
                lineno + 1
            )));
        }
        let v = v.trim();
        let parsed: f64 = v
            .parse()
            .map_err(|_| CliError(format!("{path}:{}: bad value {v:?}", lineno + 1)))?;
        // `checked_scale` rejects NaN/inf (which f64's parser accepts) and
        // scaled-domain overflow — both would otherwise corrupt silently.
        let scaled = timeseries::checked_scale(parsed, digits).map_err(|kind| {
            CliError(format!(
                "{path}:{}: value {v:?} rejected: {}",
                lineno + 1,
                match kind {
                    ValueErrorKind::NonFinite => "not finite".to_string(),
                    ValueErrorKind::OutOfRange => out_of_range(digits),
                }
            ))
        })?;
        stamps.push(t);
        values.push(scaled);
    }
    Ok((stamps, values))
}

/// A value loader's error for `path`. A value that overflows the scaled
/// domain is reported with the `--digits` that scaled it, which is the
/// usual cause.
fn load_error(path: &str, e: LoadError, digits: u8) -> CliError {
    match e {
        LoadError::Value { line, content, kind: ValueErrorKind::OutOfRange } => {
            CliError(format!("{path}: line {line}: value {content:?} {}", out_of_range(digits)))
        }
        e => CliError(format!("{path}: {e}")),
    }
}

fn out_of_range(digits: u8) -> String {
    format!("does not fit the scaled 64-bit integer domain at --digits {digits}")
}

fn parse_usize_msg(s: &str, what: &str) -> Result<usize, CliError> {
    s.parse()
        .map_err(|_| CliError(format!("{what} must be a non-negative integer, got {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_compress_with_flags() {
        let cmd = parse_args(&argv(
            "compress in.txt out.neats --digits 3 --kinds all --sneats --threads 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Compress {
                input: "in.txt".into(),
                output: "out.neats".into(),
                digits: 3,
                kinds: KindPool::All,
                sneats: true,
                threads: 2,
            }
        );
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse_args(&argv("frobnicate x")).is_err());
        assert!(parse_args(&argv("compress in.txt out --bogus")).is_err());
        assert!(parse_args(&argv("lossy in.txt out")).is_err()); // missing --eps
        assert!(parse_args(&argv("compress in.txt out --threads")).is_err()); // missing value
        assert!(parse_args(&argv("")).is_err());
    }

    #[test]
    fn parse_rejects_flags_their_command_does_not_read() {
        for (line, flag, command) in [
            ("compress a b --eps 5", "--eps", "compress"),
            ("lossy a b --eps 5 --sneats", "--sneats", "lossy"),
            ("store build a b --fsync never", "--fsync", "store build"),
            ("serve data --append", "--append", "serve"),
            ("bench all --digits 2", "--digits", "bench all"),
        ] {
            let e = parse_args(&argv(line)).unwrap_err().0;
            let want = format!("`{flag}` does not apply to `neats {command}`");
            assert_eq!(e, want, "{line}");
        }
        // Positional arguments are counted the same way.
        let e = parse_args(&argv("stat a.neats b.neats")).unwrap_err().0;
        assert!(e.contains("unexpected argument"), "{e}");
        let e = parse_args(&argv("lossy in.txt out.neatsl")).unwrap_err().0;
        assert!(e.contains("--eps"), "{e}");
    }

    /// `--digits` takes what a `u8` holds; a count that overflows the
    /// scaled domain is blamed on the flag, in both input formats.
    #[test]
    fn digits_out_of_range_names_the_flag() {
        let e = parse_args(&argv("compress a b --digits 256")).unwrap_err().0;
        assert_eq!(e, "--digits needs an integer 0-255");
        let dir = std::env::temp_dir().join(format!("neats_cli_digits_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("cpu.txt");
        let stamped = dir.join("mem.csv");
        std::fs::write(&plain, (0..100).map(|k| format!("{k}\n")).collect::<String>()).unwrap();
        std::fs::write(&stamped, (0..100).map(|k| format!("{k},{k}\n")).collect::<String>()).unwrap();
        let pack = dir.join("p.pack");
        for (line, input) in [
            (format!("compress {} {}/c.neats --digits 200", plain.display(), dir.display()), &plain),
            (format!("store build {} {} --digits 200", pack.display(), plain.display()), &plain),
            (format!("store build {} {} --digits 200", pack.display(), stamped.display()), &stamped),
        ] {
            let e = run(parse_args(&argv(&line)).unwrap(), &mut Vec::new()).unwrap_err().0;
            assert!(e.starts_with(&format!("{}", input.display())), "{line}: {e}");
            assert!(e.contains(r#"value "1""#), "{line}: {e}");
            assert!(e.ends_with("does not fit the scaled 64-bit integer domain at --digits 200"), "{line}: {e}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_names_every_command_and_flag() {
        let text = usage();
        for cmd in COMMANDS {
            let line = format!("neats {}", cmd.words.join(" "));
            let listed = text.lines().any(|l| l.trim_start().starts_with(&line));
            assert!(listed, "{line}:\n{text}");
            let required = cmd.args.iter().filter(|a| a.starts_with("--"));
            for name in cmd.flags.iter().chain(required) {
                let declared = FLAGS.iter().any(|f| f.name == *name);
                assert!(declared, "{name} is not in FLAGS");
            }
        }
        for f in FLAGS {
            let name = f.name;
            assert!(text.contains(name), "{name} is missing from usage:\n{text}");
        }
    }

    /// Every `target/release/neats …` line of README's CLI section parses,
    /// with its `[…]` optional marks and `# …` comment taken off.
    #[test]
    fn readme_cli_examples_parse() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("## The `neats` CLI")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("README has a `neats` CLI section");
        let mut lines = 0;
        for line in section.lines() {
            let Some(args) = line.strip_prefix("target/release/neats ") else {
                continue;
            };
            let args = args.split(" #").next().unwrap().replace(['[', ']'], "");
            parse_args(&argv(&args)).unwrap_or_else(|e| panic!("README: {line}: {e}"));
            lines += 1;
        }
        assert!(lines >= 10, "found only {lines} README command lines");
    }

    #[test]
    fn end_to_end_compress_query_decompress() {
        let dir = std::env::temp_dir().join("neats_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let packed = dir.join("out.neats");
        let restored = dir.join("back.txt");
        let content: String = (0..500)
            .map(|k| format!("{:.2}\n", (k as f64 / 9.0).sin() * 100.0))
            .collect();
        std::fs::write(&input, &content).unwrap();

        let mut log = Vec::new();
        run(
            parse_args(&argv(&format!(
                "compress {} {} --digits 2",
                input.display(),
                packed.display()
            )))
            .unwrap(),
            &mut log,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&log).contains("500 values"));

        // stat
        let mut stat = Vec::new();
        run(
            parse_args(&argv(&format!("stat {}", packed.display()))).unwrap(),
            &mut stat,
        )
        .unwrap();
        let stat = String::from_utf8_lossy(&stat);
        assert!(stat.contains("values:        500"), "{stat}");
        assert!(stat.contains("size:          "), "{stat}");

        // query
        let mut got = Vec::new();
        run(
            parse_args(&argv(&format!("query {} 0 10", packed.display()))).unwrap(),
            &mut got,
        )
        .unwrap();
        let lines: Vec<i64> = String::from_utf8_lossy(&got)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], 0); // sin(0)·100 scaled

        // sum estimate vs exact
        let mut sum_est = Vec::new();
        run(
            parse_args(&argv(&format!("sum {} 0 500", packed.display()))).unwrap(),
            &mut sum_est,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&sum_est).contains('±'));

        // decompress and compare to scaled input
        run(
            parse_args(&argv(&format!(
                "decompress {} {}",
                packed.display(),
                restored.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let back = std::fs::read_to_string(&restored).unwrap();
        let expected: Vec<i64> = content
            .lines()
            .map(|l| (l.parse::<f64>().unwrap() * 100.0).round() as i64)
            .collect();
        let got: Vec<i64> = back.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn range_and_sum_bounds_are_checked_without_overflow() {
        let dir = std::env::temp_dir().join("neats_cli_bounds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let packed = dir.join("out.neats");
        let content: String = (0..40).map(|k| format!("{}\n", k * 3)).collect();
        std::fs::write(&input, content).unwrap();
        run(
            parse_args(&argv(&format!("compress {} {}", input.display(), packed.display()))).unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        let answer = |line: String| {
            let mut out = Vec::new();
            run(parse_args(&argv(&line)).unwrap(), &mut out)
                .map(|()| String::from_utf8(out).unwrap())
                .map_err(|e| e.to_string())
        };
        let max = usize::MAX;
        // `start + count` wraps to 1 and to 0: both used to pass the test.
        for (start, count) in [(max, 2), (1, max), (max, 1), (40, 1), (0, 41)] {
            let line = format!("sum {} {start} {count} --exact", packed.display());
            let e = answer(line).unwrap_err();
            assert!(e.contains("out of bounds"), "sum {start} {count}: {e}");
        }
        for range in ["40..41", "0..41", "2..1"] {
            let e = answer(format!("query {} {range}", packed.display())).unwrap_err();
            assert!(e.contains("out of bounds"), "query {range}: {e}");
        }
        // The edges that are in bounds: the empty range at the end, and the
        // last valid ranges.
        assert_eq!(answer(format!("query {} 40..40", packed.display())).unwrap(), "");
        assert_eq!(answer(format!("query {} 39..40", packed.display())).unwrap(), "117\n");
        assert_eq!(answer(format!("query {} 38..40", packed.display())).unwrap(), "114\n117\n");
        assert_eq!(answer(format!("sum {} 40 0 --exact", packed.display())).unwrap(), "0\n");
        assert_eq!(answer(format!("sum {} 38 2 --exact", packed.display())).unwrap(), "231\n");
        let all: i64 = (0..40).map(|k| k * 3).sum();
        assert_eq!(answer(format!("sum {} 0 40 --exact", packed.display())).unwrap(), format!("{all}\n"));
    }

    #[test]
    fn parse_query_and_stat() {
        assert_eq!(
            parse_args(&argv("query f.neats 5 10..20")).unwrap(),
            Command::Query {
                input: "f.neats".into(),
                specs: vec!["5".into(), "10..20".into()]
            }
        );
        assert_eq!(
            parse_args(&argv("stat f.neatsl")).unwrap(),
            Command::Stat {
                input: "f.neatsl".into()
            }
        );
        assert!(parse_args(&argv("query f.neats")).is_err()); // no specs
        assert!(parse_args(&argv("stat")).is_err()); // no input
    }

    #[test]
    fn query_and_stat_serve_without_full_decode() {
        let dir = std::env::temp_dir().join("neats_cli_view_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let packed = dir.join("out.neats");
        let content: String = (0..400).map(|k| format!("{}\n", k * k / 7)).collect();
        std::fs::write(&input, &content).unwrap();
        run(
            parse_args(&argv(&format!(
                "compress {} {}",
                input.display(),
                packed.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // Point and range lookups via the zero-copy view.
        let mut got = Vec::new();
        run(
            parse_args(&argv(&format!("query {} 7 100..103", packed.display()))).unwrap(),
            &mut got,
        )
        .unwrap();
        let lines: Vec<i64> = String::from_utf8_lossy(&got)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(
            lines,
            vec![7 * 7 / 7, 100 * 100 / 7, 101 * 101 / 7, 102 * 102 / 7]
        );

        // Out-of-bounds is an error, not a panic.
        let e = run(
            parse_args(&argv(&format!("query {} 400", packed.display()))).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");

        // stat reports the frame layout.
        let mut stat = Vec::new();
        run(
            parse_args(&argv(&format!("stat {}", packed.display()))).unwrap(),
            &mut stat,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&stat);
        assert!(text.contains("flavor:        lossless"), "{text}");
        assert!(text.contains("values:        400"), "{text}");
        assert!(text.contains("corrections"), "{text}");

        // Lossy archives are served by the same commands.
        let lossy = dir.join("out.neatsl");
        run(
            parse_args(&argv(&format!(
                "lossy {} {} --eps 3",
                input.display(),
                lossy.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let mut stat = Vec::new();
        run(
            parse_args(&argv(&format!("stat {}", lossy.display()))).unwrap(),
            &mut stat,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&stat);
        assert!(text.contains("flavor:        lossy"), "{text}");
        assert!(text.contains("eps:           3"), "{text}");
        let mut q = Vec::new();
        run(
            parse_args(&argv(&format!("query {} 10", lossy.display()))).unwrap(),
            &mut q,
        )
        .unwrap();
        let approx: i64 = String::from_utf8_lossy(&q).trim().parse().unwrap();
        assert!(
            (approx - 100 / 7).unsigned_abs() <= 4,
            "lossy answer {approx} off"
        );
    }

    #[test]
    fn lossy_pipeline_via_cli() {
        let dir = std::env::temp_dir().join("neats_cli_lossy");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let packed = dir.join("out.neatsl");
        let content: String = (0..300).map(|k| format!("{k}\n")).collect();
        std::fs::write(&input, &content).unwrap();
        let mut log = Vec::new();
        run(
            parse_args(&argv(&format!(
                "lossy {} {} --eps 5",
                input.display(),
                packed.display()
            )))
            .unwrap(),
            &mut log,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&log);
        assert!(text.contains("max error"), "{text}");
    }

    #[test]
    fn parse_store_commands() {
        assert_eq!(
            parse_args(&argv(
                "store build out.pack a.txt b.csv --eps 4 --segment 512 --append"
            ))
            .unwrap(),
            Command::StoreBuild {
                output: "out.pack".into(),
                inputs: vec!["a.txt".into(), "b.csv".into()],
                digits: 0,
                eps: Some(4),
                segment: 512,
                threads: 0,
                append: true,
            }
        );
        assert_eq!(
            parse_args(&argv("store ls p.pack")).unwrap(),
            Command::StoreLs {
                pack: "p.pack".into()
            }
        );
        assert_eq!(
            parse_args(&argv("store query p.pack cpu 5 10..20 @99")).unwrap(),
            Command::StoreQuery {
                pack: "p.pack".into(),
                series: "cpu".into(),
                specs: vec!["5".into(), "10..20".into(), "@99".into()],
            }
        );
        assert!(parse_args(&argv("store")).is_err());
        assert!(parse_args(&argv("store frobnicate x")).is_err());
        assert!(parse_args(&argv("store build out.pack")).is_err()); // no inputs
        assert!(parse_args(&argv("store query p.pack cpu")).is_err()); // no specs
    }

    #[test]
    fn store_build_ls_query_end_to_end() {
        let dir = std::env::temp_dir().join("neats_cli_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("cpu.txt");
        let csv = dir.join("temp.csv");
        let pack = dir.join("metrics.pack");
        // One plain file (implicit 0.. stamps) and one timestamped CSV.
        let plain_text: String = (0..400).map(|k| format!("{}\n", k * k / 13)).collect();
        std::fs::write(&plain, &plain_text).unwrap();
        let csv_text: String = (0..300)
            .map(|k| format!("{},{}.5\n", 1000 + k * 60, 20 + k % 7))
            .collect();
        std::fs::write(&csv, &csv_text).unwrap();

        let mut log = Vec::new();
        run(
            parse_args(&argv(&format!(
                "store build {} {} {} --digits 1 --segment 128",
                pack.display(),
                plain.display(),
                csv.display()
            )))
            .unwrap(),
            &mut log,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&log).contains("2 series, 700 points"));

        // ls shows both series and the pack total.
        let mut ls = Vec::new();
        run(
            parse_args(&argv(&format!("store ls {}", pack.display()))).unwrap(),
            &mut ls,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&ls);
        assert!(text.contains("cpu"), "{text}");
        assert!(text.contains("temp"), "{text}");
        assert!(text.contains("total: 2 series, 700 points"), "{text}");

        // Point, range, and @time queries (values scaled by 10^1).
        let mut q = Vec::new();
        run(
            parse_args(&argv(&format!(
                "store query {} temp @1060 0..2",
                pack.display()
            )))
            .unwrap(),
            &mut q,
        )
        .unwrap();
        let lines: Vec<i64> = String::from_utf8_lossy(&q)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(lines, vec![215, 205, 215]); // 21.5, then values at idx 0, 1
        let mut q = Vec::new();
        run(
            parse_args(&argv(&format!("store query {} cpu 200", pack.display()))).unwrap(),
            &mut q,
        )
        .unwrap();
        assert_eq!(
            String::from_utf8_lossy(&q).trim().parse::<i64>().unwrap(),
            200 * 200 / 13 * 10
        );

        // Errors are reported, not panicked.
        let e = run(
            parse_args(&argv(&format!("store query {} nope 0", pack.display()))).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.0.contains("unknown series"), "{e}");
        let e = run(
            parse_args(&argv(&format!("store query {} temp @1", pack.display()))).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.0.contains("no sample"), "{e}");

        // Append a third series, then verify it serves.
        run(
            parse_args(&argv(&format!(
                "store build {} {} --append --segment 128",
                pack.display(),
                dir.join("disk.txt").display()
            )))
            .map(|cmd| {
                std::fs::write(dir.join("disk.txt"), "1\n2\n3\n").unwrap();
                cmd
            })
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let mut q = Vec::new();
        run(
            parse_args(&argv(&format!("store query {} disk 0..3", pack.display()))).unwrap(),
            &mut q,
        )
        .unwrap();
        let lines: Vec<i64> = String::from_utf8_lossy(&q)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn parse_ingest_command() {
        assert_eq!(
            parse_args(&argv(
                "ingest data/ a.txt b.csv --digits 2 --fsync never --no-seal"
            ))
            .unwrap(),
            Command::Ingest {
                dir: "data/".into(),
                inputs: vec!["a.txt".into(), "b.csv".into()],
                digits: 2,
                fsync: FsyncPolicy::Never,
                no_seal: true,
            }
        );
        assert_eq!(
            parse_args(&argv("ingest data in.txt --fsync 16")).unwrap(),
            Command::Ingest {
                dir: "data".into(),
                inputs: vec!["in.txt".into()],
                digits: 0,
                fsync: FsyncPolicy::EveryN(16),
                no_seal: false,
            }
        );
        assert!(parse_args(&argv("ingest data")).is_err()); // no inputs
        assert!(parse_args(&argv("ingest data in.txt --fsync sometimes")).is_err());
    }

    #[test]
    fn ingest_command_end_to_end() {
        let dir = std::env::temp_dir().join("neats_cli_ingest_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("live");
        let cpu = dir.join("cpu.csv");
        let mem = dir.join("mem.txt");
        std::fs::write(&cpu, "1000,5\n1010,6\n1020,4\n").unwrap();
        std::fs::write(&mem, "7\n8\n9\n10\n").unwrap();

        let mut log = Vec::new();
        run(
            parse_args(&argv(&format!(
                "ingest {} {} {}",
                data.display(),
                cpu.display(),
                mem.display()
            )))
            .unwrap(),
            &mut log,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&log).contains("2 series, 7 points"));

        // A second run appends (later stamps) without sealing: the points
        // stay in the WAL and still recover on the next open.
        std::fs::write(&cpu, "2000,11\n2010,12\n").unwrap();
        run(
            parse_args(&argv(&format!(
                "ingest {} {} --no-seal --fsync never",
                data.display(),
                cpu.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        let ing = Ingestor::open(&data, IngestConfig::default()).unwrap();
        assert_eq!(ing.len("cpu").unwrap(), 5);
        assert_eq!(ing.len("mem").unwrap(), 4);
        assert_eq!(ing.get("cpu", 4).unwrap(), 12);
        assert_eq!(ing.at_time("cpu", 1010).unwrap(), Some(6));
        drop(ing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_serve_command() {
        assert_eq!(
            parse_args(&argv(
                "serve metrics.pack --addr 0.0.0.0:9000 --threads 4 --cache 64 \
                 --slow-query-us 500 --trace-ring 64"
            ))
            .unwrap(),
            Command::Serve {
                pack: "metrics.pack".into(),
                addr: "0.0.0.0:9000".into(),
                threads: 4,
                cache: 64,
                fsync: FsyncPolicy::Always,
                slow_query_us: 500,
                trace_ring: 64,
            }
        );
        // Defaults: loopback on the documented port, auto threads, cache 256,
        // every record fsynced, observability knobs at the server defaults.
        assert_eq!(
            parse_args(&argv("serve metrics.pack")).unwrap(),
            Command::Serve {
                pack: "metrics.pack".into(),
                addr: "127.0.0.1:8462".into(),
                threads: 0,
                cache: 256,
                fsync: FsyncPolicy::Always,
                slow_query_us: 0,
                trace_ring: 256,
            }
        );
        // A live directory takes the WAL policy `ingest` takes.
        assert_eq!(
            parse_args(&argv("serve data/ --fsync never")).unwrap(),
            Command::Serve {
                pack: "data/".into(),
                addr: "127.0.0.1:8462".into(),
                threads: 0,
                cache: 256,
                fsync: FsyncPolicy::Never,
                slow_query_us: 0,
                trace_ring: 256,
            }
        );
        // The end-to-end benchmark's server, flag for flag.
        assert_eq!(
            parse_args(&argv(
                "serve fixture.pack --addr 127.0.0.1:0 --threads 1 --fsync always --cache 512 \
                 --trace-ring 4096"
            ))
            .unwrap(),
            Command::Serve {
                pack: "fixture.pack".into(),
                addr: "127.0.0.1:0".into(),
                threads: 1,
                cache: 512,
                fsync: FsyncPolicy::Always,
                slow_query_us: 0,
                trace_ring: 4096,
            }
        );
        assert!(parse_args(&argv("serve")).is_err()); // no pack
        assert!(parse_args(&argv("serve p.pack --addr")).is_err()); // missing value
        assert!(parse_args(&argv("serve p.pack --cache lots")).is_err());
        assert!(parse_args(&argv("serve p.pack --slow-query-us soon")).is_err());
        assert!(parse_args(&argv("serve p.pack --trace-ring")).is_err()); // missing value
    }

    #[test]
    fn serve_command_serves_a_pack_end_to_end() {
        use std::io::{Read as _, Write as _};
        fn http_get(addr: &str, target: &str) -> String {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            response.split("\r\n\r\n").nth(1).unwrap().to_string()
        }
        let dir = std::env::temp_dir().join("neats_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();

        // (points, segment size, serve flags, least cache entries after every
        // segment was touched once). The second case is 64 segments behind
        // `--cache 32` on one serving thread: key hashing spreads them 7–9 over
        // each of the 8 shards of 4 slots, so about 32 stay cached at any
        // thread count.
        let cases = [(400, 128, "--threads 2", 4), (1024, 16, "--threads 1 --cache 32", 28)];
        for (case, (n, segment, flags, min_entries)) in cases.into_iter().enumerate() {
            let case_dir = dir.join(format!("case{case}"));
            std::fs::create_dir_all(&case_dir).unwrap();
            let input = case_dir.join("cpu.txt");
            let pack = case_dir.join("serve.pack");
            let values: Vec<i64> = (0..n).map(|k: i64| k * k % 139 - 11).collect();
            let text: String = values.iter().map(|v| format!("{v}\n")).collect();
            std::fs::write(&input, text).unwrap();
            run(
                parse_args(&argv(&format!(
                    "store build {} {} --segment {segment}",
                    pack.display(),
                    input.display()
                )))
                .unwrap(),
                &mut Vec::new(),
            )
            .unwrap();

            // Run `neats serve` on an ephemeral port in a background thread and
            // scrape the "listening on" line through a shared writer.
            #[derive(Clone, Default)]
            struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
            impl std::io::Write for SharedBuf {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let log = SharedBuf::default();
            let mut thread_log = log.clone();
            let cmd = parse_args(&argv(&format!(
                "serve {} --addr 127.0.0.1:0 {flags}",
                pack.display()
            )))
            .unwrap();
            // The serving thread blocks until process exit; it is detached on
            // purpose (the harness reaps it with the test process). Keep the
            // handle so a pre-listen failure surfaces instead of hanging the
            // scrape loop below.
            let server_thread = std::thread::spawn(move || run(cmd, &mut thread_log));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let addr = loop {
                let text = String::from_utf8(log.0.lock().unwrap().clone()).unwrap();
                if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
                    break line["listening on ".len()..].to_string();
                }
                if server_thread.is_finished() {
                    panic!("serve exited before listening: {:?} (log: {text:?})", {
                        // The thread is finished; join cannot block.
                        server_thread.join()
                    });
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "serve did not start listening within 10s (log: {text:?})"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            };

            let body = http_get(&addr, "/q/cpu?idx=123");
            assert_eq!(body.trim().parse::<i64>().unwrap(), values[123]);
            let logged = String::from_utf8(log.0.lock().unwrap().clone()).unwrap();
            assert!(logged.contains(&format!("serving 1 series ({n} points)")), "{logged}");

            // Touch every segment once; `--cache N` must hold about N views.
            for k in (0..n).step_by(segment) {
                let body = http_get(&addr, &format!("/q/cpu?idx={k}"));
                assert_eq!(body.trim().parse::<i64>().unwrap(), values[k as usize]);
            }
            let stats = http_get(&addr, "/stats");
            let entries: usize = stats
                .split("\"entries\": ")
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("no cache entries in /stats: {stats}"));
            assert!(entries >= min_entries, "{flags}: {entries} cached views: {stats}");
        }
    }

    #[test]
    fn parse_bench_all() {
        assert_eq!(
            parse_args(&argv(
                "bench all --n 2000 --queries 100 --seed 7 --codecs NeaTS,Gorilla \
                 --shapes constant --out a.json --md b.md --check c.json"
            ))
            .unwrap(),
            Command::BenchAll {
                n: Some(2000),
                queries: Some(100),
                seed: Some(7),
                codecs: Some("NeaTS,Gorilla".into()),
                shapes: Some("constant".into()),
                out: Some("a.json".into()),
                md: Some("b.md".into()),
                check: Some("c.json".into()),
            }
        );
        // Every flag is optional.
        assert_eq!(
            parse_args(&argv("bench all")).unwrap(),
            Command::BenchAll {
                n: None,
                queries: None,
                seed: None,
                codecs: None,
                shapes: None,
                out: None,
                md: None,
                check: None,
            }
        );
        assert!(parse_args(&argv("bench")).is_err());
        assert!(parse_args(&argv("bench ratios")).is_err());
        assert!(parse_args(&argv("bench all --n lots")).is_err());
        assert!(parse_args(&argv("bench all --codecs")).is_err()); // missing value
    }

    #[test]
    fn bench_all_end_to_end_with_schema_check() {
        let dir = std::env::temp_dir().join("neats_cli_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("BENCH_all.json");
        let md = dir.join("BENCHMARKS.md");
        let base = format!(
            "bench all --n 400 --queries 20 --codecs Gorilla,PLA --shapes constant,sawtooth \
             --out {} --md {}",
            json.display(),
            md.display()
        );
        let mut log = Vec::new();
        run(parse_args(&argv(&base)).unwrap(), &mut log).unwrap();
        let text = String::from_utf8_lossy(&log);
        assert!(text.contains("all conformant"), "{text}");
        let schema = format!("\"schema\": {},", bench::suite::matrix::SCHEMA_VERSION);
        assert!(std::fs::read_to_string(&json).unwrap().contains(&schema));
        assert!(std::fs::read_to_string(&md).unwrap().contains("| codec | mode |"));

        // Re-running with --check against the just-written artifact passes…
        let mut log = Vec::new();
        run(
            parse_args(&argv(&format!("{base} --check {}", json.display()))).unwrap(),
            &mut log,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&log).contains("schema check"), "wanted check line");

        // …and a sweep covering a codec the artifact lacks reports drift.
        let widened = format!(
            "bench all --n 400 --queries 20 --codecs Gorilla,PLA,Chimp --shapes constant \
             --out {} --md {} --check {}",
            dir.join("fresh.json").display(),
            dir.join("fresh.md").display(),
            json.display()
        );
        let e = run(parse_args(&argv(&widened)).unwrap(), &mut Vec::new()).unwrap_err();
        assert!(e.0.contains("schema drift"), "{e}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut sink = Vec::new();
        let e = run(
            Command::Stat {
                input: "/nonexistent/definitely-missing.neats".into(),
            },
            &mut sink,
        )
        .unwrap_err();
        assert!(e.0.contains("i/o error") || e.0.contains("missing"), "{e}");
    }
}
