//! The program under test: the real `neats serve` binary as a child
//! process, its `/metrics` exposition, and what `/proc` says about it.

use crate::http::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the benchmark finds its tools and whether it may pin.
#[derive(Clone, Debug)]
pub struct Host {
    pub neats: PathBuf,
    /// `taskset` exists and the host has at least two cores: the server
    /// runs on core 0, the generator on core 1.
    pub pinned: bool,
    pub cores: usize,
}

impl Host {
    pub fn detect(neats: PathBuf) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let taskset = Command::new("taskset")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        Host {
            neats,
            pinned: taskset && cores >= 2,
            cores,
        }
    }

    /// Restricts the calling thread — and every thread it spawns later —
    /// to `cpus` (a `taskset` list such as `1` or `0,1`).
    pub fn pin_self(&self, cpus: &str) {
        if self.pinned {
            let _ = Command::new("taskset")
                .args(["-cp", cpus, &std::process::id().to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
        }
    }
}

pub struct Server {
    child: Child,
    /// Kept open, never read again: `serve` prints nothing after
    /// `listening on`, and a closed pipe would turn a stray print into an
    /// error in the program under test.
    _stdout: BufReader<std::process::ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn → `listening on`.
    pub ready: Duration,
}

/// How one `neats serve` is started.
pub struct ServeArgs<'a> {
    /// A pack file (read-only) or an ingestion directory (live).
    pub source: &'a Path,
    pub cache: usize,
    pub trace_ring: usize,
    /// The server's stderr (slow-query log, panics) is appended here.
    pub log: &'a Path,
}

impl Server {
    /// `neats serve <source> --addr 127.0.0.1:0 --threads 1 --cache C
    /// --trace-ring N --fsync always`, pinned to core 0 when the host
    /// allows. `--fsync always` is also `serve`'s built-in default; it is
    /// spelled out so the flush policy is visible in the process list.
    pub fn spawn(host: &Host, args: &ServeArgs<'_>) -> std::io::Result<Server> {
        let t0 = Instant::now();
        let mut cmd = if host.pinned {
            let mut c = Command::new("taskset");
            c.args(["-c", "0"]).arg(&host.neats);
            c
        } else {
            Command::new(&host.neats)
        };
        cmd.arg("serve")
            .arg(args.source)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--fsync",
                "always",
            ])
            .args(["--cache", &args.cache.to_string()])
            .args(["--trace-ring", &args.trace_ring.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(args.log)?,
            );
        // The server's knobs come from its flags alone.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("NEATS_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while stdout.read_line(&mut line)? > 0 {
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = rest.trim().parse().ok();
                break;
            }
            line.clear();
        }
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
                ready: t0.elapsed(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "`neats serve` exited before listening (see {})",
                    args.log.display()
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_field(self.pid(), "status", "VmHWM:").map_or(0.0, |kb| kb / 1e3)
    }

    /// User + system CPU time consumed so far.
    pub fn cpu(&self) -> Duration {
        cpu_of(self.pid())
    }

    /// Bytes this process caused to be sent to the storage layer.
    pub fn write_bytes(&self) -> f64 {
        proc_field(self.pid(), "io", "write_bytes:").unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Whatever path ends the run, no server outlives it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `<label> <number> …` from `/proc/<pid>/<file>`.
fn proc_field(pid: u32, file: &str, label: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// utime + stime of `pid` from `/proc/<pid>/stat`, at the usual 100 ticks
/// per second.
pub fn cpu_of(pid: u32) -> Duration {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so 11 and 12 after `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, a)| a);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i)?.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// One scrape of `GET /metrics`.
pub struct Metrics(String);

impl Metrics {
    pub fn scrape(conn: &mut Conn) -> Metrics {
        match conn.get("/metrics") {
            Ok((200, body)) => Metrics(String::from_utf8_lossy(&body).into_owned()),
            _ => Metrics(String::new()),
        }
    }

    /// The sample whose line starts with `series` (name plus any label
    /// set, e.g. `neats_serve_requests_total{endpoint="query"}`); 0 when
    /// absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0
            .lines()
            .find_map(|l| {
                let rest = l.strip_prefix(series)?;
                rest.strip_prefix(' ')?.trim().parse().ok()
            })
            .unwrap_or(0.0)
    }

    /// Sum over every label set of the family `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .lines()
            .filter(|l| {
                l.strip_prefix(name)
                    .is_some_and(|r| r.starts_with(' ') || r.starts_with('{'))
            })
            .filter_map(|l| l.rsplit_once(' ')?.1.trim().parse::<f64>().ok())
            .sum()
    }
}

/// One `/debug/requests` entry: total and per-stage microseconds.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub path: String,
    pub total_us: f64,
    /// parse, route, cache, decode, render, write.
    pub stage_us: [f64; 6],
}

pub const STAGES: [&str; 6] = ["parse", "route", "cache", "decode", "render", "write"];

/// Scrapes the server's trace ring (newest first).
pub fn scrape_ring(conn: &mut Conn) -> Vec<Traced> {
    let Ok((200, body)) = conn.get("/debug/requests") else {
        return Vec::new();
    };
    let text = String::from_utf8_lossy(&body);
    let field = |obj: &str, key: &str| -> Option<f64> {
        let at = obj.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &obj[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    };
    text.split('{')
        .skip(1)
        .filter_map(|obj| {
            let path_at = obj.find("\"path\": \"")? + 9;
            let path = obj[path_at..].split('"').next()?.to_string();
            let mut stage_us = [0.0; 6];
            for (slot, name) in stage_us.iter_mut().zip(STAGES) {
                *slot = field(obj, &format!("{name}_us"))?;
            }
            Some(Traced {
                path,
                total_us: field(obj, "total_us")?,
                stage_us,
            })
        })
        .collect()
}
