//! The load generator: one thread, at most two keep-alive connections,
//! pipelining depth 1. A lane is a set of connections with one pacing rule:
//!
//! * closed loop — a connection sends its next request when the previous
//!   answer has arrived, so a slow server receives less load;
//! * open loop — requests are due on a fixed schedule whatever the server
//!   does. A request that finds every connection of its lane busy waits in
//!   the generator, and its latency is counted from the instant it was
//!   *due*, so a stall is charged to every request it delayed.
//!
//! The thread spins on non-blocking sockets instead of sleeping in `poll`:
//! it owns a core, and a wake-up would add its own latency to every sample.

use crate::http::{Conn, HttpError, RESPONSE_TIMEOUT};
use crate::traffic::{Op, Traffic};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub enum Pace {
    Closed,
    /// Requests per second.
    Open(f64),
}

pub struct Lane {
    pub pace: Pace,
    /// Indices into the connection slice handed to [`run`].
    pub conns: Vec<usize>,
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When it was due (open) or sent (closed), from the phase start.
    pub at_ns: u64,
    /// Answer complete, counted from `at_ns`.
    pub latency_ns: u64,
}

#[derive(Default)]
pub struct LaneStats {
    pub sent: u64,
    pub failed: u64,
    /// Correct answers completed before the phase deadline, and the values
    /// they carried.
    pub done_in_window: u64,
    pub values_in_window: u64,
    pub samples: Vec<Sample>,
    /// Open loop: how long after its due time each request was sent.
    pub late_ns: Vec<u64>,
    /// Open loop: requests due before the deadline that were never sent.
    pub unsent: u64,
}

pub struct PhaseStats {
    pub lanes: Vec<LaneStats>,
    pub wall: Duration,
    /// Time the generator spent rendering, sending, parsing and checking —
    /// the rest of `wall` it was spinning idle.
    pub busy: Duration,
    /// First transport error seen, for the log.
    pub error: Option<String>,
}

impl PhaseStats {
    pub fn sent(&self) -> u64 {
        self.lanes.iter().map(|l| l.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }
}

#[derive(Clone, Copy)]
struct Inflight {
    op: Op,
    from: Instant,
    sent: Instant,
}

/// Drives `lanes` over `conns` for `duration` (or until every lane's
/// traffic is exhausted), then waits for the answers still in flight.
pub fn run(
    conns: &mut [Conn],
    lanes: &[Lane],
    traffic: &mut dyn Traffic,
    duration: Duration,
) -> PhaseStats {
    // Sample buffers are sized and touched before the clock starts: a
    // reallocation or a first-touch page fault inside the phase would show
    // up as latency the server never caused.
    let mut stats: Vec<LaneStats> = lanes
        .iter()
        .map(|lane| {
            let expected = match lane.pace {
                Pace::Closed => 250_000.0 * lane.conns.len() as f64,
                Pace::Open(rate) => rate,
            } * (duration.as_secs_f64() + 0.5);
            let expected = expected.min((1u32 << 21) as f64) as usize;
            let mut st = LaneStats::default();
            let blank = Sample {
                at_ns: 1,
                latency_ns: 1,
            };
            st.samples.resize(expected, blank);
            st.samples.clear();
            if matches!(lane.pace, Pace::Open(_)) {
                st.late_ns.resize(expected, 1);
                st.late_ns.clear();
            }
            st
        })
        .collect();
    let mut inflight: Vec<Option<Inflight>> = conns.iter().map(|_| None).collect();
    let mut dead = vec![false; conns.len()];
    let start = Instant::now();
    let deadline = start + duration;
    let mut next_due = vec![start; lanes.len()];
    let mut exhausted = vec![false; lanes.len()];
    let mut busy = Duration::ZERO;
    let mut error = None;
    let mut req = Vec::with_capacity(1 << 15);

    loop {
        let now = Instant::now();
        let issuing = now < deadline;
        let mut waiting = false;
        for (l, lane) in lanes.iter().enumerate() {
            for &c in &lane.conns {
                if dead[c] {
                    continue;
                }
                if let Some(fl) = inflight[c] {
                    let t0 = Instant::now();
                    // The clock stops when the whole answer has arrived;
                    // checking it is the generator's time, not the server's.
                    let mut arrived = t0;
                    let outcome = match conns[c].poll() {
                        Ok(Some((status, body))) => {
                            arrived = Instant::now();
                            Some(Ok(traffic.check(fl.op, status, body)))
                        }
                        Ok(None) if t0.duration_since(fl.sent) > RESPONSE_TIMEOUT => {
                            Some(Err(HttpError::Timeout))
                        }
                        Ok(None) => None,
                        Err(e) => Some(Err(e)),
                    };
                    match outcome {
                        None => waiting = true,
                        Some(Ok(correct)) => {
                            conns[c].consume();
                            let end = Instant::now();
                            let st = &mut stats[l];
                            if correct {
                                st.samples.push(Sample {
                                    at_ns: fl.from.duration_since(start).as_nanos() as u64,
                                    latency_ns: arrived.duration_since(fl.from).as_nanos() as u64,
                                });
                                if arrived <= deadline {
                                    st.done_in_window += 1;
                                    st.values_in_window += fl.op.values();
                                }
                            } else {
                                st.failed += 1;
                            }
                            busy += end.duration_since(t0);
                            inflight[c] = None;
                        }
                        Some(Err(e)) => {
                            // Refused, reset or timed out: the request
                            // failed and the connection is not reused.
                            stats[l].failed += 1;
                            error.get_or_insert_with(|| e.to_string());
                            inflight[c] = None;
                            dead[c] = true;
                            continue;
                        }
                    }
                }
                if inflight[c].is_none() && issuing && !exhausted[l] {
                    let due = match lane.pace {
                        Pace::Closed => None,
                        Pace::Open(_) if now < next_due[l] => continue,
                        Pace::Open(rate) => {
                            let due = next_due[l];
                            next_due[l] += Duration::from_secs_f64(1.0 / rate);
                            Some(due)
                        }
                    };
                    let t0 = Instant::now();
                    req.clear();
                    let Some(op) = traffic.next(l, &mut req) else {
                        exhausted[l] = true;
                        continue;
                    };
                    let st = &mut stats[l];
                    st.sent += 1;
                    if let Some(due) = due {
                        st.late_ns.push(t0.duration_since(due).as_nanos() as u64);
                    }
                    let from = due.unwrap_or(t0);
                    match conns[c].send(&req) {
                        Ok(()) => {
                            let sent = Instant::now();
                            busy += sent.duration_since(t0);
                            inflight[c] = Some(Inflight { op, from, sent });
                            waiting = true;
                        }
                        Err(e) => {
                            st.failed += 1;
                            error.get_or_insert_with(|| e.to_string());
                            dead[c] = true;
                        }
                    }
                }
            }
        }
        let idle_lanes = exhausted.iter().all(|&e| e) || dead.iter().all(|&d| d);
        if !waiting && (!issuing || idle_lanes) {
            break;
        }
    }

    let wall = start.elapsed();
    for (l, lane) in lanes.iter().enumerate() {
        if let Pace::Open(rate) = lane.pace {
            if next_due[l] < deadline && !exhausted[l] {
                let behind = deadline.duration_since(next_due[l]).as_secs_f64();
                stats[l].unsent = (behind * rate) as u64;
            }
        }
    }
    PhaseStats {
        lanes: stats,
        wall,
        busy,
        error,
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted_latencies(samples: &[Sample]) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    v.sort_unstable();
    v
}
