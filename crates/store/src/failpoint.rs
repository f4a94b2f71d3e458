//! The process-global **failpoint registry**: lets tests (and operators
//! reproducing incidents) inject I/O failures at named sites in store,
//! ingest, and serve.
//!
//! Production code guards fallible operations with
//! [`triggered`]`("site.name")`; the call is a single relaxed atomic load
//! when no failpoint is configured, so shipping the hooks costs nothing.
//! Sites are armed either programmatically ([`set`] / [`clear`] /
//! [`clear_all`], the test path) or from the environment at first use:
//!
//! ```text
//! NEATS_FAILPOINT="wal.append=err@3,dir.sync=err*2"
//! ```
//!
//! The spec grammar per site is `err[@N][*C]`: fail every hit, starting at
//! the `N`-th hit after arming (1-based, default 1), for at most `C` hits
//! (default unlimited). `off` disarms a site. Hits are counted only while
//! a site is configured, so `@N` means "the N-th hit after arming" —
//! the natural reading for tests. A malformed part of the environment list
//! is named on stderr and skipped; every well-formed part is still armed.
//!
//! Registered sites in this workspace: `wal.append`, `wal.sync`,
//! `wal.create`, `wal.repair`, `seal.pack`, `manifest.commit`, `dir.sync`,
//! `store.open_segment`.
//!
//! The registry is process-global: tests that arm it from one binary must
//! serialize with each other (a `static Mutex` guard), and must
//! [`clear_all`] on exit so later tests see a clean slate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable listing failpoints to arm at startup
/// (`site=spec` pairs, comma-separated).
pub const FAILPOINT_ENV: &str = "NEATS_FAILPOINT";

/// One armed site: fail hits `from..from+count` (1-based, `count = None`
/// meaning unbounded), with `hits` counting every [`triggered`] call since
/// arming.
#[derive(Clone, Debug)]
struct Point {
    hits: u64,
    from: u64,
    count: Option<u64>,
}

/// Fast path: false ⇒ no site is armed anywhere, so [`triggered`] returns
/// without touching the registry lock.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Point>> {
    static REG: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(list) = std::env::var(FAILPOINT_ENV) {
            // Production must not panic on a malformed spec, and one typo
            // must not disarm the rest: arm every part that parses and name
            // each one that does not.
            for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                match parse_part(part) {
                    Ok((site, Some(point))) => {
                        map.insert(site, point);
                    }
                    Ok((_, None)) => {}
                    Err(e) => eprintln!("{FAILPOINT_ENV}: ignoring {e}"),
                }
            }
        }
        if !map.is_empty() {
            ACTIVE.store(true, Ordering::SeqCst);
        }
        Mutex::new(map)
    })
}

/// Parses one `site=spec` part of a [`FAILPOINT_ENV`] list.
fn parse_part(part: &str) -> Result<(String, Option<Point>), String> {
    let (site, spec) =
        part.split_once('=').ok_or_else(|| format!("failpoint `{part}`: missing `=`"))?;
    Ok((site.trim().to_string(), parse_spec(spec.trim())?))
}

/// Parses one `err[@N][*C]` / `off` spec; `Ok(None)` means disarmed.
fn parse_spec(spec: &str) -> Result<Option<Point>, String> {
    if spec == "off" {
        return Ok(None);
    }
    let rest = spec
        .strip_prefix("err")
        .ok_or_else(|| format!("failpoint spec `{spec}`: expected `err[@N][*C]` or `off`"))?;
    let mut from = 1u64;
    let mut count = None;
    let mut rest = rest;
    if let Some(r) = rest.strip_prefix('@') {
        let (n, r2) = split_number(r, spec)?;
        from = n.max(1);
        rest = r2;
    }
    if let Some(r) = rest.strip_prefix('*') {
        let (c, r2) = split_number(r, spec)?;
        count = Some(c);
        rest = r2;
    }
    if !rest.is_empty() {
        return Err(format!("failpoint spec `{spec}`: trailing `{rest}`"));
    }
    Ok(Some(Point { hits: 0, from, count }))
}

fn split_number<'a>(s: &'a str, spec: &str) -> Result<(u64, &'a str), String> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, rest) = s.split_at(end);
    let n = digits.parse().map_err(|_| format!("failpoint spec `{spec}`: bad number"))?;
    Ok((n, rest))
}

/// Arms `site` with `spec` (`err[@N][*C]`, or `off` to disarm), resetting
/// its hit counter. Returns a description of the problem if the spec does
/// not parse.
pub fn set(site: &str, spec: &str) -> Result<(), String> {
    let parsed = parse_spec(spec.trim())?;
    let mut reg = registry().lock().expect("failpoint registry lock");
    match parsed {
        Some(p) => {
            reg.insert(site.to_string(), p);
        }
        None => {
            reg.remove(site);
        }
    }
    ACTIVE.store(!reg.is_empty(), Ordering::SeqCst);
    Ok(())
}

/// Disarms `site`.
pub fn clear(site: &str) {
    let mut reg = registry().lock().expect("failpoint registry lock");
    reg.remove(site);
    ACTIVE.store(!reg.is_empty(), Ordering::SeqCst);
}

/// Disarms every site. Tests that arm failpoints must call this on every
/// exit path so later tests in the same process start clean.
pub fn clear_all() {
    registry().lock().expect("failpoint registry lock").clear();
    ACTIVE.store(false, Ordering::SeqCst);
}

/// How many times `site` has been evaluated since it was armed (0 when
/// not armed).
pub fn hits(site: &str) -> u64 {
    registry().lock().expect("failpoint registry lock").get(site).map_or(0, |p| p.hits)
}

/// Evaluates the failpoint at `site`: returns `true` when the armed spec
/// says this hit must fail. The caller maps `true` to whatever error its
/// layer speaks (see [`io_error`] for the `std::io` case). A single
/// relaxed atomic load when nothing is armed.
pub fn triggered(site: &str) -> bool {
    // Force env parsing on first use (the OnceLock init) so NEATS_FAILPOINT
    // works even when the very first call is the one it should trip; after
    // that, `registry()` is one atomic load.
    let reg = registry();
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let mut reg = reg.lock().expect("failpoint registry lock");
    let Some(p) = reg.get_mut(site) else {
        return false;
    };
    p.hits += 1;
    let n = p.hits;
    n >= p.from && p.count.is_none_or(|c| n < p.from + c)
}

/// The conventional `std::io::Error` for an injected fault at `site`
/// (message contains "injected failpoint", which the chaos suites grep
/// for).
pub fn io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected failpoint: {site}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_spec_grammar() {
        clear_all();

        // err: every hit fails.
        set("t.always", "err").unwrap();
        assert!(triggered("t.always") && triggered("t.always"));
        assert_eq!(hits("t.always"), 2);

        // err@3: hits 1 and 2 pass, 3 onwards fail.
        set("t.third", "err@3").unwrap();
        assert!(!triggered("t.third"));
        assert!(!triggered("t.third"));
        assert!(triggered("t.third"));
        assert!(triggered("t.third"));

        // err*2: exactly the first two hits fail.
        set("t.twice", "err*2").unwrap();
        assert!(triggered("t.twice"));
        assert!(triggered("t.twice"));
        assert!(!triggered("t.twice"));

        // err@2*1: exactly the second hit fails.
        set("t.window", "err@2*1").unwrap();
        assert!(!triggered("t.window"));
        assert!(triggered("t.window"));
        assert!(!triggered("t.window"));

        // off disarms; unknown sites never fire.
        set("t.always", "off").unwrap();
        assert!(!triggered("t.always"));
        assert!(!triggered("t.unknown"));

        // Re-arming resets the hit counter.
        set("t.twice", "err*1").unwrap();
        assert!(triggered("t.twice"));
        assert!(!triggered("t.twice"));

        // Bad specs are rejected.
        assert!(set("t.bad", "explode").is_err());
        assert!(set("t.bad", "err@x").is_err());
        assert!(set("t.bad", "err@1!").is_err());
        assert!(parse_part("b").is_err());
        assert!(parse_part("a=err").is_ok_and(|(site, p)| site == "a" && p.is_some()));

        clear_all();
        assert!(!triggered("t.window"));
        assert_eq!(hits("t.window"), 0);
    }

    #[test]
    fn io_error_mentions_the_site() {
        let e = io_error("wal.append");
        let msg = e.to_string();
        assert!(msg.contains("injected failpoint") && msg.contains("wal.append"), "{msg}");
    }
}
