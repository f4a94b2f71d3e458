//! Request routing: the seven endpoints, the query grammar shared by single
//! and batched queries, the JSON renderers, and the per-request trace
//! (stage breakdown, slow-query log, `/debug/requests` ring).
//!
//! The full request/response grammar, status-code contract, and batch frame
//! format live in `docs/PROTOCOL.md` at the repository root; the loopback
//! integration test mirrors its examples verbatim.

use crate::http::{Method, Request, Response};
use crate::render::{push_pair_lines, push_u64, push_value_line, push_value_lines, Scratch};
use crate::source::{mode_eps, Source};
use crate::stats::{Endpoint, Obs, ServerStats};
use neats_store::obs::{span_ensure, span_take, stage, Stage, STAGE_COUNT};
use neats_ingest::Ingestor;
use neats_store::{RangeScratch, StoreError};
use std::time::Instant;

/// Routes one parsed request, recording latency and error counters for the
/// endpoint it lands on, then closes out the request trace: the stage span
/// (armed by the serving loop before the read, covering parse) is taken
/// here, checked against the slow-query threshold, and recorded into the
/// `/debug/requests` ring. Response socket I/O is not traced.
///
/// Query bodies are rendered into `scratch` and leave in the response; the
/// caller gives them back with [`Scratch::reclaim`] once the response is
/// serialized.
pub(crate) fn handle(
    src: &Source,
    stats: &ServerStats,
    obs: &Obs,
    threads: usize,
    req: &Request,
    scratch: &mut Scratch,
) -> Response {
    use std::sync::atomic::Ordering::Relaxed;
    // Direct calls (tests, future embedders) that never armed a span still
    // trace from here; for served requests this is a no-op.
    span_ensure();
    stats.bytes_in.fetch_add(req.wire_bytes as u64, Relaxed);
    let t0 = Instant::now();
    let (endpoint, resp) = route(src, stats, obs, threads, req, scratch);
    if resp.status == 503 {
        stats.degraded.fetch_add(1, Relaxed);
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    match endpoint {
        Some(e) => stats.record(e, resp.status, elapsed_ns),
        None => {
            stats.unrouted.fetch_add(1, Relaxed);
        }
    }
    let stage_ns = span_take().unwrap_or([0; STAGE_COUNT]);
    // The parse stage ran before this call, while the request was read.
    let total_ns = elapsed_ns + stage_ns[Stage::Parse as usize];
    let slow = obs.slow_query_us > 0 && total_ns >= obs.slow_query_us.saturating_mul(1_000);
    if slow {
        stats.slow_queries.fetch_add(1, Relaxed);
        eprintln!(
            "slow-query: {} {} status={} total_us={} parse={} route={} cache={} \
             decode={} render={} write={}",
            match req.method {
                Method::Get => "GET",
                Method::Post => "POST",
            },
            req.path,
            resp.status,
            total_ns / 1_000,
            stage_ns[Stage::Parse as usize] / 1_000,
            stage_ns[Stage::Route as usize] / 1_000,
            stage_ns[Stage::Cache as usize] / 1_000,
            stage_ns[Stage::Decode as usize] / 1_000,
            stage_ns[Stage::Render as usize] / 1_000,
            stage_ns[Stage::Write as usize] / 1_000,
        );
    }
    obs.ring.record(&req.path, resp.status, total_ns, slow, &stage_ns);
    resp
}

fn route(
    src: &Source,
    stats: &ServerStats,
    obs: &Obs,
    threads: usize,
    req: &Request,
    scratch: &mut Scratch,
) -> (Option<Endpoint>, Response) {
    // Routing + handling; nested stage guards (cache, decode, render,
    // write) pause this one, so its self-time is pure dispatch overhead.
    let _route = stage(Stage::Route);
    match (req.method, req.path.as_str()) {
        (Method::Get, "/series") => (Some(Endpoint::Series), series_json(src)),
        (Method::Get, "/stats") => (
            Some(Endpoint::Stats),
            stats_json(src, stats, obs, threads),
        ),
        (Method::Get, "/metrics") => (Some(Endpoint::Metrics), metrics_text(obs)),
        (Method::Get, "/debug/requests") => (Some(Endpoint::Debug), debug_requests_json(obs)),
        (Method::Get, path) if path.starts_with("/q/") => {
            let series = &path[3..];
            (
                Some(Endpoint::Query),
                single_query(src, series, &req.query, scratch),
            )
        }
        (Method::Post, "/q") => (Some(Endpoint::Batch), batch_query(src, &req.body, scratch)),
        (Method::Post, "/write") => (Some(Endpoint::Write), write_batch(src, &req.body)),
        // Known paths under the wrong method get a 405, unknown paths a 404.
        (_, "/series" | "/stats" | "/q" | "/write" | "/metrics" | "/debug/requests")
        | (Method::Post, _)
            if known_path(&req.path) =>
        {
            (None, Response::error(405, "method not allowed"))
        }
        _ => (None, Response::error(404, "no such endpoint")),
    }
}

fn known_path(path: &str) -> bool {
    path == "/series"
        || path == "/stats"
        || path == "/q"
        || path == "/write"
        || path == "/metrics"
        || path == "/debug/requests"
        || path.starts_with("/q/")
}

/// `GET /metrics`: the whole registry in Prometheus text exposition format
/// (version 0.0.4) — serve counters, store/cache counters, and the ingest
/// write-path families on a live source.
fn metrics_text(obs: &Obs) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: obs.registry.render().into_bytes(),
        retry_after: None,
    }
}

/// `GET /debug/requests`: the trace ring as a JSON array, newest first —
/// per-request status, total, slow flag, and the six stage timings.
fn debug_requests_json(obs: &Obs) -> Response {
    let entries = obs.ring.entries();
    let mut out = String::from("[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"seq\": {}, \"ts_unix_us\": {}, \"path\": {}, \"status\": {}, \
             \"slow\": {}, \"total_us\": {:.1}",
            e.seq,
            e.ts_unix_us,
            json_string(&e.path),
            e.status,
            e.slow,
            e.total_ns as f64 / 1e3,
        ));
        for (s, ns) in Stage::ALL.iter().zip(e.stage_ns.iter()) {
            out.push_str(&format!(", \"{}_us\": {:.1}", s.name(), *ns as f64 / 1e3));
        }
        out.push('}');
    }
    out.push_str(if entries.is_empty() { "]\n" } else { "\n]\n" });
    Response::json(out)
}

/// `GET /q/<series>?idx=K | idx=A..B | t=T | t=A..B`.
fn single_query(src: &Source, series: &str, query: &str, scratch: &mut Scratch) -> Response {
    let mut body = std::mem::take(&mut scratch.body);
    match run_query(src, series, query, &mut scratch.decode, &mut body) {
        Ok(_) => Response::text(body),
        Err((status, reason)) => {
            scratch.body = body;
            Response::error(status, &reason)
        }
    }
}

/// Appends the `#<i> ok <n>` line of a batch frame.
fn push_ok_frame(out: &mut Vec<u8>, i: usize, n: usize) {
    out.push(b'#');
    push_u64(out, i as u64);
    out.extend_from_slice(b" ok ");
    push_u64(out, n as u64);
    out.push(b'\n');
}

/// Appends the `#<i> err <status> <reason>` line of a batch frame.
fn push_err_frame(out: &mut Vec<u8>, i: usize, status: u16, reason: &str) {
    out.push(b'#');
    push_u64(out, i as u64);
    out.extend_from_slice(b" err ");
    push_u64(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.push(b'\n');
}

/// Appends the `#done <n>` line that ends a batch response.
fn push_done_frame(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(b"#done ");
    push_u64(out, n as u64);
    out.push(b'\n');
}

/// `POST /q` — one query per line: `<series> <spec>`. Every query is
/// answered inside one 200 frame; see `docs/PROTOCOL.md` for the framing.
fn batch_query(src: &Source, body: &[u8], scratch: &mut Scratch) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "batch body is not UTF-8");
    };
    let mut out = std::mem::take(&mut scratch.body);
    let mut n = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let i = n;
        n += 1;
        // The spec (`idx=…` / `t=…`) never contains a space, so the series
        // name is everything before the *last* space — names with spaces
        // need no escaping in batch lines.
        let Some((series, spec)) = line.rsplit_once(' ') else {
            push_err_frame(
                &mut out,
                i,
                400,
                "malformed query line (want: <series> <spec>)",
            );
            continue;
        };
        let at = out.len();
        match run_query(
            src,
            series.trim(),
            spec.trim(),
            &mut scratch.decode,
            &mut out,
        ) {
            Ok(lines) => {
                // The frame line carries the payload's line count, known
                // only now: append it, then rotate it in front of the
                // payload (in place, no second buffer).
                let payload_end = out.len();
                push_ok_frame(&mut out, i, lines);
                let frame_len = out.len() - payload_end;
                out[at..].rotate_right(frame_len);
            }
            Err((status, reason)) => push_err_frame(&mut out, i, status, &reason),
        }
    }
    push_done_frame(&mut out, n);
    Response::text(out)
}

/// `POST /write` — one point per line: `<series> <timestamp> <value>`.
/// Live sources only; a pack answers 405. Consecutive lines of the same
/// series are batched into one append (one WAL record, one fsync under
/// the default policy), and each batch is acknowledged with one frame:
/// `#i ok <points>` once the batch is durable per the ingestor's fsync
/// policy, or `#i err <status> <reason>` if it was rejected whole. The
/// frame list ends with `#done <batches>`.
fn write_batch(src: &Source, body: &[u8]) -> Response {
    let Some(ing) = src.live() else {
        return Response::error(405, "read-only pack (serve an ingest directory to write)");
    };
    // A degraded ingestor keeps serving reads but rejects writes up front —
    // better one cheap 503 than a half-processed batch hitting the same
    // fault mid-way.
    if let Some(reason) = ing.degraded_reason() {
        return Response::error(503, &format!("ingest degraded (read-only): {reason}"));
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "write body is not UTF-8");
    };
    let mut out = Vec::new();
    let mut n = 0usize;
    let mut cur: Option<(String, Vec<u64>, Vec<i64>)> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_write_line(line) {
            Ok((series, t, v)) => {
                if let Some((name, stamps, values)) = &mut cur {
                    if name == series {
                        stamps.push(t);
                        values.push(v);
                        continue;
                    }
                }
                if let Some(batch) = cur.take() {
                    flush_write_batch(ing, batch, &mut out, &mut n);
                }
                cur = Some((series.to_string(), vec![t], vec![v]));
            }
            Err(reason) => {
                if let Some(batch) = cur.take() {
                    flush_write_batch(ing, batch, &mut out, &mut n);
                }
                push_err_frame(&mut out, n, 400, &reason);
                n += 1;
            }
        }
    }
    if let Some(batch) = cur.take() {
        flush_write_batch(ing, batch, &mut out, &mut n);
    }
    push_done_frame(&mut out, n);
    Response::text(out)
}

/// Parses one write line: `<series> <timestamp> <value>`. The timestamp
/// and value never contain spaces, so the series name is everything before
/// the last two fields — names with spaces need no escaping.
fn parse_write_line(line: &str) -> Result<(&str, u64, i64), String> {
    let malformed = || format!("malformed write line {line:?} (want: <series> <t> <v>)");
    let (rest, v) = line.rsplit_once(' ').ok_or_else(malformed)?;
    let (series, t) = rest.trim_end().rsplit_once(' ').ok_or_else(malformed)?;
    let t: u64 = t.parse().map_err(|_| format!("bad timestamp {t:?}"))?;
    let v: i64 = v.parse().map_err(|_| format!("bad value {v:?}"))?;
    let series = series.trim();
    if series.is_empty() {
        return Err(malformed());
    }
    Ok((series, t, v))
}

/// Appends one batch and emits its acknowledgement frame.
fn flush_write_batch(
    ing: &Ingestor,
    (series, stamps, values): (String, Vec<u64>, Vec<i64>),
    out: &mut Vec<u8>,
    n: &mut usize,
) {
    let i = *n;
    *n += 1;
    match ing.append(&series, &stamps, &values) {
        Ok(()) => push_ok_frame(out, i, stamps.len()),
        Err(e) => {
            let (status, reason) = store_err(e);
            push_err_frame(out, i, status, &reason);
        }
    }
}

/// Runs one query spec (`idx=K`, `idx=A..B`, `t=T`, `t=A..B`) against
/// `series`, appending the rendered payload to `out` and returning its line
/// count, or the status + reason it fails with — in which case `out` is left
/// as it was, whatever part of a range had been rendered before the failure.
pub(crate) fn run_query(
    src: &Source,
    series: &str,
    spec: &str,
    decode: &mut RangeScratch,
    out: &mut Vec<u8>,
) -> Result<usize, (u16, String)> {
    let at = out.len();
    let lines = render_query(src, series, spec, decode, out);
    if lines.is_err() {
        out.truncate(at);
    }
    lines
}

fn render_query(
    src: &Source,
    series: &str,
    spec: &str,
    decode: &mut RangeScratch,
    out: &mut Vec<u8>,
) -> Result<usize, (u16, String)> {
    let (key, val) = spec
        .split_once('=')
        .ok_or_else(|| (400u16, format!("malformed query spec {spec:?} (want idx=… or t=…)")))?;
    let mut lines = 0usize;
    match key {
        "idx" => {
            if let Some((a, b)) = val.split_once("..") {
                let a = parse_num(a, "range start")?;
                let b = parse_num(b, "range end")?;
                // Rendered chunk by chunk straight from the decode
                // scratch: the decoded-value buffer stays one segment long
                // (the text body still accumulates in full for
                // Content-Length framing).
                src.range_chunks_in(decode, series, a..b, |chunk| {
                    let _render = stage(Stage::Render);
                    push_value_lines(out, chunk);
                    lines += chunk.len();
                })
                .map_err(store_err)?;
            } else {
                let k = parse_num(val, "index")?;
                let v = src.get(series, k).map_err(store_err)?;
                push_value_line(out, v);
                lines = 1;
            }
        }
        "t" => {
            if let Some((a, b)) = val.split_once("..") {
                let a = parse_num(a, "time range start")?;
                let b = parse_num(b, "time range end")?;
                src.range_by_time_chunks_in(decode, series, a, b, |chunk| {
                    let _render = stage(Stage::Render);
                    push_pair_lines(out, chunk);
                    lines += chunk.len();
                })
                .map_err(store_err)?;
            } else {
                let t = parse_num(val, "timestamp")?;
                match src.at_time(series, t).map_err(store_err)? {
                    Some(v) => {
                        push_value_line(out, v);
                        lines = 1;
                    }
                    None => return Err((404, format!("no sample at timestamp {t}"))),
                }
            }
        }
        other => return Err((400, format!("unknown query key {other:?} (want idx or t)"))),
    }
    Ok(lines)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, (u16, String)> {
    s.trim()
        .parse()
        .map_err(|_| (400, format!("{what} must be a non-negative integer, got {s:?}")))
}

/// Maps a [`StoreError`] to the HTTP status the protocol promises.
fn store_err(e: StoreError) -> (u16, String) {
    let status = match &e {
        StoreError::UnknownSeries(_) => 404,
        StoreError::OutOfRange { .. } | StoreError::BadRange { .. } => 400,
        // A corrupt segment surfacing at query time is a server-side fault.
        StoreError::Corrupt(_) | StoreError::Wire(_) => 500,
        StoreError::Io(_) => 500,
        // Temporary server-side conditions: retry later (503 responses
        // carry `Retry-After` automatically).
        StoreError::Degraded { .. } | StoreError::Quarantined { .. } => 503,
        _ => 400,
    };
    (status, e.to_string())
}

/// `GET /series`: the catalog as a JSON array (catalog order for a pack,
/// name-sorted for a live source — see [`Source::summaries`]).
fn series_json(src: &Source) -> Response {
    let summaries = src.summaries();
    let mut out = String::from("[");
    for (i, e) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"mode\": \"{}\", \"eps\": {}, \"points\": {}, \
             \"segments\": {}, \"t_min\": {}, \"t_max\": {}}}",
            json_string(&e.name),
            e.mode.name(),
            mode_eps(e.mode),
            e.points,
            e.segments,
            e.t_min,
            e.t_max,
        ));
    }
    out.push_str(if summaries.is_empty() { "]\n" } else { "\n]\n" });
    Response::json(out)
}

/// `GET /stats`: cache counters, connection counters, and per-endpoint
/// latency percentiles — plus the live write-path gauges when serving an
/// ingest directory. Every number here reads the same atomics `/metrics`
/// exposes; the two surfaces differ only in format.
fn stats_json(src: &Source, stats: &ServerStats, obs: &Obs, threads: usize) -> Response {
    use std::sync::atomic::Ordering::Relaxed;
    let store = src.store();
    let cache = store.cache_stats();
    let summaries = src.summaries();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"uptime_s\": {:.3},\n", stats.uptime_s()));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", obs.mode));
    out.push_str(&format!("  \"shards\": {threads},\n"));
    out.push_str(&format!(
        "  \"source\": {},\n",
        json_string(&obs.source_label)
    ));
    out.push_str(&format!("  \"series\": {},\n", summaries.len()));
    out.push_str(&format!(
        "  \"points\": {},\n",
        summaries.iter().map(|e| e.points).sum::<usize>()
    ));
    out.push_str(&format!("  \"live\": {},\n", src.live().is_some()));
    if let Some(ing) = src.live() {
        out.push_str(&format!(
            "  \"ingest\": {{\"epoch\": {}, \"head_points\": {}, \"wal_bytes\": {}, \
             \"background_errors\": {}, \"degraded\": {}}},\n",
            ing.epoch(),
            ing.head_points(),
            ing.wal_len(),
            ing.background_errors(),
            ing.is_degraded(),
        ));
    }
    out.push_str(&format!("  \"quarantined\": {},\n", store.quarantined_count()));
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
         \"hit_rate\": {:.4}}},\n",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        cache.hit_rate(),
    ));
    out.push_str(&format!(
        "  \"connections\": {{\"accepted\": {}, \"active\": {}, \"protocol_errors\": {}, \
         \"unrouted\": {}, \"panics\": {}, \"shed\": {}, \"timeouts\": {}, \
         \"degraded\": {}, \"slow_queries\": {}, \"bytes_in\": {}, \"bytes_out\": {}}},\n",
        stats.accepted.load(Relaxed),
        stats.active.load(Relaxed),
        stats.protocol_errors.load(Relaxed),
        stats.unrouted.load(Relaxed),
        stats.panics.load(Relaxed),
        stats.shed.load(Relaxed),
        stats.timeouts.load(Relaxed),
        stats.degraded.load(Relaxed),
        stats.slow_queries.load(Relaxed),
        stats.bytes_in.load(Relaxed),
        stats.bytes_out.load(Relaxed),
    ));
    out.push_str("  \"endpoints\": {");
    for (i, e) in Endpoint::ALL.iter().enumerate() {
        let s = stats.endpoint(*e);
        let snap = s.latency_ns.snapshot();
        out.push_str(&format!(
            "{}\n    \"{}\": {{\"requests\": {}, \"errors\": {}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {:.1}, \"mean_us\": {:.1}}}",
            if i > 0 { "," } else { "" },
            e.key(),
            s.requests.load(Relaxed),
            s.errors.load(Relaxed),
            snap.quantile(0.5) as f64 / 1e3,
            snap.quantile(0.99) as f64 / 1e3,
            snap.quantile(0.999) as f64 / 1e3,
            snap.max() as f64 / 1e3,
            snap.mean() / 1e3,
        ));
    }
    out.push_str("\n  }\n}\n");
    Response::json(out)
}

/// Renders a JSON string literal with full escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neats_ingest::{IngestConfig, Ingestor};
    use neats_store::{Store, StoreConfig, StoreWriter};
    use std::sync::Arc;

    fn demo_store() -> Arc<Store> {
        let mut w = StoreWriter::new(StoreConfig { segment_points: 64, ..Default::default() });
        let stamps: Vec<u64> = (0..500u64).map(|i| 1_000 + i * 3).collect();
        let values: Vec<i64> = (0..500).map(|k: i64| k * k % 211 - 17).collect();
        w.ingest("cpu", &stamps, &values).unwrap();
        Arc::new(Store::open(w.finish().unwrap()).unwrap())
    }

    /// One request through [`handle`] on a fresh worker.
    fn call(
        src: &Source,
        stats: &ServerStats,
        obs: &Obs,
        threads: usize,
        req: &Request,
    ) -> Response {
        handle(src, stats, obs, threads, req, &mut Scratch::new())
    }

    /// One spec through [`run_query`]: `(payload, lines)`.
    fn query(src: &Source, series: &str, spec: &str) -> Result<(Vec<u8>, usize), (u16, String)> {
        let mut out = Vec::new();
        run_query(src, series, spec, &mut RangeScratch::default(), &mut out).map(|n| (out, n))
    }

    fn get(path: &str, query: &str) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            query: query.into(),
            keep_alive: true,
            body: Vec::new(),
            wire_bytes: 0,
        }
    }

    fn post(path: &str, body: &[u8]) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            query: String::new(),
            keep_alive: true,
            body: body.to_vec(),
            wire_bytes: 0,
        }
    }

    #[test]
    fn query_grammar_answers_match_store() {
        let store = demo_store();
        let src = Source::from(Arc::clone(&store));
        let (body, lines) = query(&src, "cpu", "idx=7").unwrap();
        assert_eq!(lines, 1);
        assert_eq!(
            String::from_utf8(body).unwrap().trim().parse::<i64>().unwrap(),
            store.get("cpu", 7).unwrap()
        );

        let (body, lines) = query(&src, "cpu", "idx=10..200").unwrap();
        assert_eq!(lines, 190);
        let got: Vec<i64> = String::from_utf8(body)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        let mut want = Vec::new();
        store.range("cpu", 10..200, &mut want).unwrap();
        assert_eq!(got, want);

        let t = 1_000 + 42 * 3; // the demo's stamp of point 42
        let (body, _) = query(&src, "cpu", &format!("t={t}")).unwrap();
        assert_eq!(
            String::from_utf8(body).unwrap().trim().parse::<i64>().unwrap(),
            store.get("cpu", 42).unwrap()
        );

        let (body, lines) = query(&src, "cpu", "t=1000..1300").unwrap();
        let mut want = Vec::new();
        store
            .range_by_time_chunks("cpu", 1000, 1300, |c| want.extend_from_slice(c))
            .unwrap();
        assert_eq!(lines, want.len());
        let got: Vec<(u64, i64)> = String::from_utf8(body)
            .unwrap()
            .lines()
            .map(|l| {
                let (t, v) = l.split_once(',').unwrap();
                (t.parse().unwrap(), v.parse().unwrap())
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bodies_are_byte_identical_to_format() {
        let store = demo_store();
        let src = Source::from(Arc::clone(&store));
        let stats = ServerStats::new();
        let obs = Obs::disabled();
        let body = |req: &Request| {
            let resp = call(&src, &stats, &obs, 1, req);
            assert_eq!(resp.status, 200);
            String::from_utf8(resp.body).unwrap()
        };

        // The demo values go negative and the ranges cross segments.
        let mut values = Vec::new();
        store.range("cpu", 10..400, &mut values).unwrap();
        assert!(values.iter().any(|&v| v < 0));
        let idx_range: String = values.iter().map(|v| format!("{v}\n")).collect();
        assert_eq!(body(&get("/q/cpu", "idx=10..400")), idx_range);

        let mut pairs = Vec::new();
        store
            .range_by_time_chunks("cpu", 1_100, 2_000, |c| pairs.extend_from_slice(c))
            .unwrap();
        assert!(pairs.len() > 64);
        let t_range: String = pairs.iter().map(|(t, v)| format!("{t},{v}\n")).collect();
        assert_eq!(body(&get("/q/cpu", "t=1100..2000")), t_range);

        let point = format!("{}\n", store.get("cpu", 499).unwrap());
        assert_eq!(body(&get("/q/cpu", "idx=499")), point);
        let t = 1_000 + 77 * 3; // the demo's stamp of point 77
        let at_time = format!("{}\n", store.get("cpu", 77).unwrap());
        assert_eq!(body(&get("/q/cpu", &format!("t={t}"))), at_time);

        // A batch frames the same payloads, errors and empty answers included.
        let lines = format!(
            "cpu idx=10..400\nnope idx=0\ncpu t=1100..2000\ncpu idx=499\ncpu t={t}\n\
             cpu t=5..6\ncpu idx=9..2\n"
        );
        let bad_range = StoreError::BadRange {
            start: 9,
            end: 2,
            len: 500,
        };
        let want = format!(
            "#0 ok {}\n{idx_range}#1 err 404 {}\n#2 ok {}\n{t_range}#3 ok 1\n{point}\
             #4 ok 1\n{at_time}#5 ok 0\n#6 err 400 {bad_range}\n#done 7\n",
            values.len(),
            StoreError::UnknownSeries("nope".into()),
            pairs.len(),
        );
        assert_eq!(body(&post("/q", lines.as_bytes())), want);
    }

    #[test]
    fn a_range_that_fails_midway_leaves_no_partial_payload() {
        // Corrupt the third segment: `idx=0..500` renders two segments'
        // worth of lines before the store reports the quarantine.
        let mut w = StoreWriter::new(StoreConfig {
            segment_points: 64,
            ..Default::default()
        });
        let stamps: Vec<u64> = (0..500u64).collect();
        let values: Vec<i64> = (0..500).collect();
        w.ingest("cpu", &stamps, &values).unwrap();
        let mut pack = w.finish().unwrap();
        let bad_byte = {
            let probe = Store::open(pack.clone()).unwrap();
            let segs = probe.series("cpu").unwrap().segments();
            // Blobs follow the 16-byte pack header back to back.
            let start = 16 + segs[..2].iter().map(|m| m.stored_bytes()).sum::<usize>();
            start + segs[2].stored_bytes() / 2
        };
        pack[bad_byte] ^= 0x40;
        let src = Source::from(Store::open(pack).unwrap());

        let mut out = b"before".to_vec();
        let err = run_query(
            &src,
            "cpu",
            "idx=0..500",
            &mut RangeScratch::default(),
            &mut out,
        );
        assert_eq!(err.unwrap_err().0, 503);
        assert_eq!(out, b"before");

        let stats = ServerStats::new();
        let obs = Obs::disabled();
        let req = post(
            "/q",
            b"cpu idx=0..3\ncpu idx=0..500\ncpu t=0..499\ncpu idx=1\n",
        );
        let text = String::from_utf8(call(&src, &stats, &obs, 1, &req).body).unwrap();
        let quarantined = StoreError::Quarantined {
            series: "cpu".into(),
            segment: 2,
        };
        assert_eq!(
            text,
            format!(
                "#0 ok 3\n0\n1\n2\n#1 err 503 {quarantined}\n#2 err 503 {quarantined}\n\
                 #3 ok 1\n1\n#done 4\n"
            )
        );
    }

    #[test]
    fn query_grammar_statuses() {
        let src = Source::from(demo_store());
        assert_eq!(query(&src, "nope", "idx=0").unwrap_err().0, 404);
        assert_eq!(query(&src, "cpu", "idx=99999").unwrap_err().0, 400);
        assert_eq!(query(&src, "cpu", "idx=9..2").unwrap_err().0, 400);
        assert_eq!(query(&src, "cpu", "t=1").unwrap_err().0, 404); // gap
        assert_eq!(query(&src, "cpu", "frob=1").unwrap_err().0, 400);
        assert_eq!(query(&src, "cpu", "idx").unwrap_err().0, 400);
        assert_eq!(query(&src, "cpu", "idx=banana").unwrap_err().0, 400);
        // An inverted time range is simply empty, like range_by_time_chunks.
        let (body, lines) = query(&src, "cpu", "t=300..200").unwrap();
        assert!(body.is_empty());
        assert_eq!(lines, 0);
    }

    #[test]
    fn batch_frame_shape() {
        let src = Source::from(demo_store());
        let stats = ServerStats::new();
        let obs = Obs::disabled();
        let req = post("/q", b"cpu idx=3\nnope idx=0\n\ncpu idx=0..2\nmalformed\n");
        let resp = call(&src, &stats, &obs, 1, &req);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.starts_with("#0 ok 1\n"), "{text}");
        assert!(text.contains("#1 err 404"), "{text}");
        assert!(text.contains("#2 ok 2\n"), "{text}");
        assert!(text.contains("#3 err 400"), "{text}");
        assert!(text.ends_with("#done 4\n"), "{text}");
    }

    #[test]
    fn routing_and_counters() {
        let src = Source::from(demo_store());
        let stats = ServerStats::new();
        let obs = Obs::disabled();
        assert_eq!(call(&src, &stats, &obs, 2, &get("/series", "")).status, 200);
        assert_eq!(call(&src, &stats, &obs, 2, &get("/q/cpu", "idx=1")).status, 200);
        assert_eq!(call(&src, &stats, &obs, 2, &get("/q/none", "idx=1")).status, 404);
        assert_eq!(call(&src, &stats, &obs, 2, &get("/frob", "")).status, 404);
        let stats_resp = call(&src, &stats, &obs, 2, &get("/stats", ""));
        assert_eq!(stats_resp.status, 200);
        let text = String::from_utf8(stats_resp.body).unwrap();
        assert!(text.contains("\"threads\": 2"), "{text}");
        assert!(text.contains("\"query\": {\"requests\": 2, \"errors\": 1"), "{text}");
        assert!(text.contains("\"live\": false"), "{text}");
        assert!(text.contains("\"p999_us\""), "{text}");
        // POST to a GET-only path is a 405, as is writing to a pack.
        assert_eq!(call(&src, &stats, &obs, 2, &post("/series", b"")).status, 405);
        assert_eq!(call(&src, &stats, &obs, 2, &post("/write", b"cpu 1 2\n")).status, 405);
        assert_eq!(call(&src, &stats, &obs, 2, &get("/write", "")).status, 405);
        assert_eq!(call(&src, &stats, &obs, 2, &post("/metrics", b"")).status, 405);
        assert_eq!(call(&src, &stats, &obs, 2, &post("/debug/requests", b"")).status, 405);
    }

    #[test]
    fn metrics_exposition_shares_the_stats_atomics() {
        let src = Source::from(demo_store());
        let stats = ServerStats::new();
        let obs = Obs {
            registry: Arc::new(neats_store::obs::Registry::new()),
            ring: neats_store::obs::TraceRing::new(8),
            slow_query_us: 0,
            shard_depths: Vec::new(),
            source_label: "demo.pack".into(),
            mode: "threaded",
        };
        stats.register(&obs.registry);
        src.register_metrics(&obs.registry);
        assert_eq!(call(&src, &stats, &obs, 1, &get("/q/cpu", "idx=1")).status, 200);
        assert_eq!(call(&src, &stats, &obs, 1, &get("/q/none", "idx=1")).status, 404);
        let resp = call(&src, &stats, &obs, 1, &get("/metrics", ""));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("neats_serve_requests_total{endpoint=\"query\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("neats_serve_errors_total{endpoint=\"query\"} 1"),
            "{text}"
        );
        assert!(text.contains("# TYPE neats_store_cache_hits_total counter"), "{text}");
        // The trace ring saw every request handled above.
        let resp = call(&src, &stats, &obs, 1, &get("/debug/requests", ""));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"path\": \"/metrics\""), "{text}");
        assert!(text.contains("\"parse_us\""), "{text}");
        assert!(text.contains("\"write_us\""), "{text}");
    }

    #[test]
    fn slow_query_threshold_flags_and_counts() {
        let src = Source::from(demo_store());
        let stats = ServerStats::new();
        let obs = Obs {
            // 0µs threshold would mean "off"; 1ns-rounding makes every
            // request slow at 1µs only if it takes ≥1µs — a range render
            // over 500 points reliably does.
            slow_query_us: 1,
            ..Obs::disabled()
        };
        let obs = Obs {
            ring: neats_store::obs::TraceRing::new(4),
            ..obs
        };
        assert_eq!(call(&src, &stats, &obs, 1, &get("/q/cpu", "idx=0..500")).status, 200);
        assert_eq!(stats.slow_queries.load(std::sync::atomic::Ordering::Relaxed), 1);
        let entries = obs.ring.entries();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].slow);
        assert_eq!(entries[0].path, "/q/cpu");
    }

    #[test]
    fn series_json_lists_catalog() {
        let src = Source::from(demo_store());
        let stats = ServerStats::new();
        let obs = Obs::disabled();
        let resp = call(&src, &stats, &obs, 1, &get("/series", ""));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"name\": \"cpu\""), "{text}");
        assert!(text.contains("\"points\": 500"), "{text}");
        assert!(text.contains("\"mode\": \"lossless\""), "{text}");
    }

    #[test]
    fn write_endpoint_appends_to_a_live_source() {
        let dir = std::env::temp_dir().join(format!("neats-serve-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ing = Ingestor::open(&dir, IngestConfig::default()).unwrap();
        let src = Source::from(ing);
        let stats = ServerStats::new();
        let obs = Obs::disabled();

        // Three batches: cpu×2 (consecutive lines coalesce), mem×1, then a
        // stale cpu point (timestamp went backwards) and a malformed line.
        let body = b"cpu 1000 5\ncpu 1001 6\nmem 500 -3\ncpu 900 1\nbroken\n";
        let resp = call(&src, &stats, &obs, 1, &post("/write", body));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.starts_with("#0 ok 2\n"), "{text}");
        assert!(text.contains("#1 ok 1\n"), "{text}");
        assert!(text.contains("#2 err 400"), "{text}");
        assert!(text.contains("#3 err 400 malformed write line"), "{text}");
        assert!(text.ends_with("#done 4\n"), "{text}");

        // The accepted points serve immediately through the query grammar.
        let (body, _) = query(&src, "cpu", "idx=0..2").unwrap();
        assert_eq!(String::from_utf8(body).unwrap(), "5\n6\n");
        let (body, _) = query(&src, "mem", "t=500").unwrap();
        assert_eq!(String::from_utf8(body).unwrap(), "-3\n");

        // /series and /stats reflect the live state.
        let text =
            String::from_utf8(call(&src, &stats, &obs, 1, &get("/series", "")).body).unwrap();
        assert!(text.contains("\"name\": \"cpu\""), "{text}");
        assert!(text.contains("\"name\": \"mem\""), "{text}");
        let text =
            String::from_utf8(call(&src, &stats, &obs, 1, &get("/stats", "")).body).unwrap();
        assert!(text.contains("\"live\": true"), "{text}");
        assert!(text.contains("\"head_points\": 3"), "{text}");
        assert!(text.contains("\"write\": {\"requests\": 1"), "{text}");
        drop(src);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One request must not be able to lose acknowledged data: a batch
    /// spanning `0..=u64::MAX` cannot be sealed (its Elias-Fano universe
    /// overflows), so it is refused rather than answered `#0 ok 2`.
    #[test]
    fn write_of_timestamp_u64_max_is_a_400_and_leaves_the_series_untouched() {
        let dir = std::env::temp_dir().join(format!("neats-serve-stampmax-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = Source::from(Ingestor::open(&dir, IngestConfig::default()).unwrap());
        let stats = ServerStats::new();
        let obs = Obs::disabled();

        let resp = call(&src, &stats, &obs, 1, &post("/write", b"s 0 1\ns 18446744073709551615 2"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.starts_with("#0 err 400 "), "{text}");
        assert!(text.contains("largest storable timestamp"), "{text}");
        assert!(text.ends_with("#done 1\n"), "{text}");
        // The batch is all-or-nothing: not even its first point exists.
        assert_eq!(query(&src, "s", "idx=0").unwrap_err().0, 404);

        // One below the reserved stamp is stored, sealed and served.
        let resp = call(&src, &stats, &obs, 1, &post("/write", b"s 0 1\ns 18446744073709551614 2"));
        assert!(resp.body.starts_with(b"#0 ok 2\n"));
        src.live().unwrap().flush().unwrap();
        let (body, _) = query(&src, "s", "t=18446744073709551614").unwrap();
        assert_eq!(body, b"2\n");
        drop(src);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_line_parser() {
        assert_eq!(parse_write_line("cpu 12 -3").unwrap(), ("cpu", 12, -3));
        assert_eq!(
            parse_write_line("with space 12 3").unwrap(),
            ("with space", 12, 3)
        );
        assert!(parse_write_line("cpu 12").is_err());
        assert!(parse_write_line("cpu x 3").is_err());
        assert!(parse_write_line("cpu 12 x").is_err());
        assert!(parse_write_line(" 12 3").is_err());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
