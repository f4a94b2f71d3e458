//! Cross-stack chaos harness: real HTTP servers under concurrent load
//! while faults fire — overload, injected disk errors, corrupt segments.
//!
//! The contract under test, end to end over sockets:
//!
//! - the server **never panics** (`/stats` must report `"panics": 0`);
//! - overload **sheds cleanly**: every refused connection gets a parseable
//!   `503` with `Retry-After`, and service recovers once load drops;
//! - disk faults **degrade, not destroy**: writes answer 503 while reads
//!   keep serving every acked point, the background worker self-heals, and
//!   acked data survives a restart bit-for-bit;
//! - a corrupt segment is **quarantined**, not fatal: the rest of the
//!   store keeps serving.
//!
//! The failpoint registry is process-global, so the fault-driven tests
//! serialize on a static lock and clear the registry on exit.

use neats::ingest::{BackgroundConfig, FsyncPolicy, IngestConfig, Ingestor};
use neats::serve::{ServeConfig, Server, ServerHandle};
use neats::store::{Store, StoreConfig, StoreWriter};
use neats_store::failpoint;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> impl Drop {
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            failpoint::clear_all();
        }
    }
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear_all();
    Guard(g)
}

/// One parsed HTTP response (connection-per-request, `Connection: close`).
#[derive(Debug)]
struct Resp {
    status: u16,
    retry_after: bool,
    body: String,
}

/// Sends one request on a fresh connection and reads the whole response.
/// `None` when the connection failed or was reset — under deliberate
/// overload a reset is an acceptable outcome, a hang or panic is not.
fn request(addr: SocketAddr, raw: &str) -> Option<Resp> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    s.set_nodelay(true).ok();
    s.write_all(raw.as_bytes()).ok()?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    Some(Resp {
        status,
        retry_after: head.to_ascii_lowercase().contains("retry-after:"),
        body: body.to_string(),
    })
}

fn get(addr: SocketAddr, target: &str) -> Option<Resp> {
    request(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post_write(addr: SocketAddr, body: &str) -> Option<Resp> {
    request(
        addr,
        &format!(
            "POST /write HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

/// Extracts an integer counter from the `/stats` JSON. Uses the *last*
/// occurrence: `degraded` appears both as an ingest gauge (boolean) and a
/// connections counter, and the counter renders later.
fn stat(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = body
        .rfind(&pat)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter")
}

fn assert_no_panics(addr: SocketAddr) {
    let stats = get(addr, "/stats").expect("/stats must answer");
    assert_eq!(stats.status, 200);
    assert_eq!(stat(&stats.body, "panics"), 0, "{}", stats.body);
}

fn demo_pack(series: &[(&str, usize)]) -> Arc<Store> {
    let mut w = StoreWriter::new(StoreConfig {
        segment_points: 64,
        ..Default::default()
    });
    for &(name, n) in series {
        let stamps: Vec<u64> = (0..n as u64).map(|k| 1_000 + k * 7).collect();
        let values: Vec<i64> = (0..n as i64).map(|k| k * k % 97 - 40).collect();
        w.ingest(name, &stamps, &values).unwrap();
    }
    Arc::new(Store::open(w.finish().unwrap()).unwrap())
}

fn run_server(server: Server) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    (handle, running)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("neats-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Overload chaos: with every admitted slot pinned, a burst of concurrent
/// clients must be shed cleanly — parseable 503 + Retry-After or a reset,
/// never a hang, never a panic — and service must recover when the
/// pinning connections go away.
#[test]
fn overload_sheds_cleanly_and_recovers() {
    let _guard = serialized();
    let cfg = ServeConfig {
        threads: 2,
        max_connections: 2,
        queue_watermark: 1000,
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let server = Server::bind(demo_pack(&[("cpu", 500)]), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, running) = run_server(server);

    // Pin both admitted slots with idle keep-alive connections.
    let pin = |_: ()| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /series HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut first = [0u8; 1];
        s.read_exact(&mut first).unwrap(); // response started: slot is held
        s
    };
    let held = [pin(()), pin(())];

    // Chaos burst: 6 threads × 5 connection-per-request queries, all while
    // the server is saturated. Every outcome must be a clean shed.
    let shed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| {
                for _ in 0..5 {
                    match get(addr, "/q/cpu?idx=1") {
                        Some(r) => {
                            assert_eq!(r.status, 503, "saturated server answered {r:?}");
                            assert!(r.retry_after, "503 without Retry-After: {r:?}");
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {} // reset under overload: acceptable
                    }
                }
            });
        }
    });
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "burst produced no observable shed"
    );

    // Load drops: the server must admit again within a few poll ticks.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if get(addr, "/q/cpu?idx=1").is_some_and(|r| r.status == 200) {
            break;
        }
        assert!(Instant::now() < deadline, "no recovery after load dropped");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = get(addr, "/stats").unwrap();
    assert!(
        stat(&stats.body, "shed") >= shed.load(Ordering::Relaxed),
        "{}",
        stats.body
    );
    assert_no_panics(addr);

    handle.shutdown();
    running.join().unwrap().unwrap();
}

/// Disk-fault chaos: concurrent writers and readers hammer a live server
/// while a WAL fault fires mid-run. Writes during the degraded window get
/// 503s, reads never do, the background worker self-heals, and a restart
/// recovers exactly the acked points.
#[test]
fn disk_fault_degrades_writes_only_then_recovers_across_restart() {
    let _guard = serialized();
    let dir = tmp_dir("degrade");
    let ing = Arc::new(
        Ingestor::open(
            &dir,
            IngestConfig {
                chunk_points: 16,
                seal_points: 1 << 30, // no background seal: the fault under test is wal.append
                fsync: FsyncPolicy::Always,
                ..IngestConfig::default()
            },
        )
        .unwrap(),
    );
    let bg = ing.start_background(BackgroundConfig {
        interval: Duration::from_millis(10),
        retry_base: Duration::from_millis(10),
        retry_cap: Duration::from_millis(50),
    });
    let cfg = ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    };
    let server = Server::bind(Arc::clone(&ing), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, running) = run_server(server);

    // The chaos event, armed up front so it lands deterministically
    // mid-run: the 20th WAL append fails (of 90 the writers will issue),
    // and the first three background repair attempts fail too — the
    // degraded window spans several backoff rounds, so concurrent writers
    // observe it for sure before the worker self-heals on the 4th try.
    failpoint::set("wal.append", "err@20*1").unwrap();
    failpoint::set("wal.repair", "err*3").unwrap();

    const WRITERS: usize = 3;
    const ACKS_PER_WRITER: u64 = 30;
    let rejected = AtomicU64::new(0);
    let writers_done = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Writers: each drives its own series to a fixed number of acked
        // points, retrying through the degraded window.
        for w in 0..WRITERS {
            let rejected = &rejected;
            let writers_done = &writers_done;
            s.spawn(move || {
                let mut acked = 0u64;
                let deadline = Instant::now() + Duration::from_secs(60);
                while acked < ACKS_PER_WRITER {
                    assert!(Instant::now() < deadline, "writer {w} starved");
                    let t = 1_000 + acked; // next timestamp only after an ack
                    let resp = post_write(addr, &format!("w{w} {t} {}\n", acked))
                        .expect("write connection");
                    match resp.status {
                        200 if resp.body.contains("#0 ok 1") => acked += 1,
                        200 | 503 => {
                            // A degraded refusal: whole-request 503 or a
                            // per-batch `#0 err 503` frame. Nothing may be
                            // half-applied, so the same point is retried.
                            assert!(
                                resp.status == 503 || resp.body.contains("#0 err 503"),
                                "writer {w}: unexpected 200 frame {resp:?}"
                            );
                            rejected.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        other => panic!("writer {w}: status {other}: {resp:?}"),
                    }
                }
                writers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Readers: reads must never see a 5xx — degraded mode is
        // read-only, not down. They run until every writer finishes.
        for r in 0..2 {
            let writers_done = &writers_done;
            s.spawn(move || {
                while writers_done.load(Ordering::Relaxed) < WRITERS as u64 {
                    let resp = get(addr, &format!("/q/w{r}?idx=0")).expect("read connection");
                    assert!(
                        matches!(resp.status, 200 | 400 | 404),
                        "reader {r}: {resp:?}"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
    });

    assert!(
        failpoint::hits("wal.append") >= 20,
        "the armed fault must have fired"
    );
    assert!(
        rejected.load(Ordering::Relaxed) >= 1,
        "no writer observed the degraded window"
    );
    // Self-healed: every writer reached its ack target, so recovery
    // happened without manual intervention.
    assert!(!ing.is_degraded(), "background worker must have recovered");
    assert!(
        ing.background_errors() >= 3,
        "failed repairs must be counted"
    );
    let stats = get(addr, "/stats").unwrap();
    assert!(stat(&stats.body, "degraded") >= 1, "{}", stats.body);
    assert_no_panics(addr);

    handle.shutdown();
    running.join().unwrap().unwrap();
    bg.stop();
    drop(ing);

    // Restart: every acked point — and nothing else — survives.
    let ing = Ingestor::open(&dir, IngestConfig::default()).unwrap();
    for w in 0..WRITERS {
        let name = format!("w{w}");
        assert_eq!(ing.len(&name).unwrap(), ACKS_PER_WRITER as usize, "{name}");
        let mut got = Vec::new();
        ing.range(&name, 0..ACKS_PER_WRITER as usize, &mut got)
            .unwrap();
        let want: Vec<i64> = (0..ACKS_PER_WRITER as i64).collect();
        assert_eq!(got, want, "{name}: acked points lost or reordered");
    }
    drop(ing);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Quarantine chaos: a segment that fails validation on load poisons only
/// itself — queries touching it answer 503, every other segment and
/// series keeps serving, and the failure is visible on `/stats`.
#[test]
fn corrupt_segment_is_quarantined_not_fatal() {
    let _guard = serialized();
    let server = Server::bind(
        demo_pack(&[("a", 300), ("b", 300)]),
        "127.0.0.1:0",
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let (handle, running) = run_server(server);

    // The next segment open fails validation (as a CRC mismatch would).
    failpoint::set("store.open_segment", "err*1").unwrap();
    let r = get(addr, "/q/a?idx=1").unwrap();
    assert_eq!(r.status, 503, "{r:?}");
    assert!(r.retry_after, "quarantine 503 must carry Retry-After");
    assert!(r.body.contains("quarantined"), "{r:?}");

    // Sticky: the failpoint is exhausted, but the segment stays
    // quarantined — no retry storm against a bad segment.
    let r = get(addr, "/q/a?idx=1").unwrap();
    assert_eq!(r.status, 503, "{r:?}");

    // Isolation: the other segments of `a` and all of `b` keep serving.
    assert_eq!(get(addr, "/q/a?idx=100").unwrap().status, 200);
    assert_eq!(get(addr, "/q/b?idx=1").unwrap().status, 200);
    assert_eq!(get(addr, "/q/b?idx=0..300").unwrap().status, 200);

    let stats = get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats.body, "quarantined"), 1, "{}", stats.body);
    assert_no_panics(addr);

    handle.shutdown();
    running.join().unwrap().unwrap();
}
