//! Live-mode loopback test: the server mounted on an [`Ingestor`] accepts
//! `POST /write` over the wire, serves queries that span sealed + head
//! state, and keeps answering consistently across an explicit seal.

mod common;

use common::Client;
use neats_ingest::{FsyncPolicy, IngestConfig, Ingestor};
use neats_serve::{ServeConfig, Server};
use std::sync::Arc;

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The value of the unlabelled sample `name` in a `/metrics` scrape.
fn scrape(c: &mut Client, name: &str) -> f64 {
    let body = c.get("/metrics").body;
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{name}` sample in:\n{body}"))
        .parse()
        .unwrap()
}

/// Every integer that follows `"key": ` in a JSON body, in order (keys
/// whose value is an object or a string are skipped).
fn numbers(body: &str, key: &str) -> Vec<usize> {
    let pat = format!("\"{key}\": ");
    body.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &body[i + pat.len()..];
            let end = rest.find(|ch: char| !ch.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

#[test]
fn live_server_ingests_and_serves_across_a_seal() {
    let dir = std::env::temp_dir().join(format!("neats-serve-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = IngestConfig {
        chunk_points: 64,
        seal_points: 128,
        fsync: FsyncPolicy::Never,
        ..IngestConfig::default()
    };
    let ing = Arc::new(Ingestor::open(&dir, cfg).unwrap());

    let server = Server::bind(
        Arc::clone(&ing),
        "127.0.0.1:0",
        ServeConfig { threads: 2, ..ServeConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    let mut c = Client::connect(addr);

    // Write 300 cpu points in one body (the lines coalesce into one batch)
    // plus a second series, with one bad line in the middle.
    let mut body = String::new();
    let values: Vec<i64> = (0..300).map(|k: i64| k * k % 97 - 13).collect();
    for (k, v) in values.iter().enumerate() {
        body.push_str(&format!("cpu {} {v}\n", 1_000 + k as u64 * 7));
    }
    body.push_str("mem not-a-number 5\n");
    body.push_str("mem 50 -8\n");
    let resp = c.raw_request(&post("/write", &body));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.starts_with("#0 ok 300\n"), "{}", resp.body);
    assert!(resp.body.contains("#1 err 400"), "{}", resp.body);
    assert!(resp.body.contains("#2 ok 1\n"), "{}", resp.body);
    assert!(resp.body.ends_with("#done 3\n"), "{}", resp.body);

    // Query through the same wire grammar as pack mode.
    let resp = c.get("/q/cpu?idx=123");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.trim().parse::<i64>().unwrap(), values[123]);

    // Seal underneath the running server, then verify answers unchanged
    // (the query now spans the pack and whatever tail stayed in the head).
    ing.seal().unwrap();
    let resp = c.get("/q/cpu?idx=0..300");
    assert_eq!(resp.status, 200);
    let got: Vec<i64> = resp.body.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(got, values);
    // That range read the sealed segments, verifying them in the new
    // generation's store.
    let verified = scrape(&mut c, "neats_store_segment_verifications_total");
    assert!(verified >= 1.0, "{verified}");
    let resp = c.get(&format!("/q/cpu?t={}..{}", 1_000, 1_000 + 299 * 7));
    let got: Vec<i64> = resp
        .body
        .lines()
        .map(|l| l.split_once(',').unwrap().1.parse().unwrap())
        .collect();
    assert_eq!(got, values);

    // Appends keep landing after the seal.
    let resp = c.raw_request(&post("/write", "cpu 999999 42\n"));
    assert!(resp.body.starts_with("#0 ok 1\n"), "{}", resp.body);
    let resp = c.get("/q/cpu?idx=300");
    assert_eq!(resp.body.trim().parse::<i64>().unwrap(), 42);

    // The catalog and stats reflect live mode.
    let resp = c.get("/series");
    assert!(resp.body.contains("\"name\": \"cpu\""), "{}", resp.body);
    assert!(resp.body.contains("\"name\": \"mem\""), "{}", resp.body);
    let resp = c.get("/stats");
    assert!(resp.body.contains("\"live\": true"), "{}", resp.body);
    assert!(resp.body.contains("\"ingest\": {\"epoch\": 1"), "{}", resp.body);
    assert!(resp.body.contains("\"write\": {\"requests\": 2"), "{}", resp.body);
    // /stats' series and points are the count and the sum of /series.
    let series = c.get("/series").body;
    let points = numbers(&series, "points");
    assert_eq!(points.len(), 2, "{series}");
    assert_eq!(numbers(&resp.body, "series"), [points.len()], "{}", resp.body);
    assert_eq!(numbers(&resp.body, "points"), [points.iter().sum::<usize>()], "{}", resp.body);

    // The next seal swaps in a fresh generation, whose segments all start
    // unverified: the scraped counter is that generation's and reads 0.
    assert_eq!(ing.flush().unwrap(), 2);
    assert_eq!(scrape(&mut c, "neats_store_segment_verifications_total"), 0.0);

    drop(c);
    handle.shutdown();
    running.join().unwrap().unwrap();

    // Everything the server acknowledged survives recovery.
    drop(ing);
    let ing = Ingestor::open(&dir, IngestConfig::default()).unwrap();
    assert_eq!(ing.len("cpu").unwrap(), 301);
    assert_eq!(ing.get("cpu", 300).unwrap(), 42);
    assert_eq!(ing.at_time("mem", 50).unwrap(), Some(-8));
    drop(ing);
    std::fs::remove_dir_all(&dir).unwrap();
}
