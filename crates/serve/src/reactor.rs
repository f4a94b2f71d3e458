//! The readiness driver: shard-per-core event-driven serving over epoll.
//!
//! This is the C10K answer to the thread-per-connection capacity bug: a
//! worker that *owns* a keep-alive connection is held hostage by an idle
//! client, so W idle clients (W = pool size) make the server unreachable.
//! Here no thread owns a connection. The accept loop (`server::accept_loop`)
//! deals admitted connections round-robin to `threads` event-loop threads;
//! each shard owns an epoll [`Poller`] (via the `vendor/polling` syscall
//! shim), a slab of non-blocking sockets each paired with its
//! [`Connection`] state machine, and a timer wheel holding every
//! connection's next deadline. An idle connection costs one slab slot and
//! one wheel entry — ten thousand of them leave every shard free to answer
//! the next request the moment its bytes arrive.
//!
//! ## What this driver owns
//!
//! Only the movement of bytes and time. A readiness event becomes a
//! budgeted non-blocking read into the connection, [`Connection::service`]
//! (parse, dispatch, flush — see `crate::conn` for everything the protocol
//! decides: limits, pipelining, the three deadlines, backpressure, the
//! shutdown rule), and [`Connection::settle`], whose [`Next`] this driver
//! applies: close the slot, or re-arm the oneshot epoll interest and make
//! sure a wheel entry covers the deadline. A wheel entry firing becomes
//! [`Connection::expire`]; shutdown becomes [`Connection::drain`] over the
//! slab, and the shard exits once its slab is empty. When the socket's
//! send buffer fills (a slow or stalled reader) the remainder waits for
//! write-readiness — the shard moves on instead of blocking.

use crate::conn::{Connection, Env, Next};
use crate::http::Limits;
use crate::queue::Queue;
use polling::{Event, Events, Poller};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Upper bound on one `Poller::wait`, so a shard re-checks the shutdown
/// flag even if the wake-up notify is somehow lost.
const MAX_WAIT: Duration = Duration::from_millis(500);

/// Bytes read from one connection per readiness event before yielding to
/// the rest of the shard — fairness against a fast bulk sender.
const READ_BUDGET: usize = 64 * 1024;

/// One event loop's handles: its poller, and the inbox of connections
/// accepted for it but not yet registered.
pub(crate) struct Shard {
    poller: Poller,
    inbox: Queue<TcpStream>,
}

impl Shard {
    /// Creates `n` shards, or fails with the platform's answer
    /// (`Unsupported` where the `polling` shim has no backend) — the
    /// observation that decides which driver a server runs.
    pub(crate) fn create(n: usize) -> std::io::Result<Vec<Shard>> {
        (0..n)
            .map(|_| {
                Ok(Shard {
                    poller: Poller::new()?,
                    inbox: Queue::new(),
                })
            })
            .collect()
    }

    /// Hands an admitted connection to this shard; `false` once closed.
    pub(crate) fn offer(&self, stream: TcpStream) -> bool {
        let taken = self.inbox.push(stream);
        let _ = self.poller.notify();
        taken
    }

    /// No more connections will be offered; the loop may exit when empty.
    pub(crate) fn close(&self) {
        self.inbox.close();
        let _ = self.poller.notify();
    }
}

/// One registered connection: its socket, its state machine, and the
/// wheel bookkeeping.
struct Slot {
    stream: TcpStream,
    conn: Connection,
    /// Tick of this connection's earliest live wheel entry (`u64::MAX`
    /// when none) — wheel entries are hints, re-checked on fire.
    wheel_tick: u64,
    /// Bumped when the slot is reused, killing stale wheel entries.
    gen: u64,
}

/// A slab of connections: stable `usize` keys (the epoll registration
/// keys), O(1) insert/remove, freed slots reused with a bumped generation.
struct Slab {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 0,
        }
    }

    fn insert(&mut self, stream: TcpStream, now: Instant, limits: &Limits) -> usize {
        self.live += 1;
        self.next_gen += 1;
        let slot = Slot {
            stream,
            conn: Connection::new(now, limits),
            wheel_tick: u64::MAX,
            gen: self.next_gen,
        };
        match self.free.pop() {
            Some(key) => {
                self.slots[key] = Some(slot);
                key
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, key: usize) -> Option<&mut Slot> {
        self.slots.get_mut(key).and_then(|s| s.as_mut())
    }

    fn remove(&mut self, key: usize) -> Option<Slot> {
        let slot = self.slots.get_mut(key).and_then(|s| s.take());
        if slot.is_some() {
            self.live -= 1;
            self.free.push(key);
        }
        slot
    }

    fn keys(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&k| self.slots[k].is_some())
            .collect()
    }
}

/// A coarse hashed timer wheel. Entries are *hints*: on fire, the
/// connection's actual deadlines decide; a not-yet-due connection is
/// lazily re-inserted at its real deadline. Insertion is suppressed when
/// an earlier live entry already covers the connection
/// ([`Slot::wheel_tick`]), so a busy keep-alive connection costs ~one
/// entry, not one per request.
struct TimerWheel {
    /// `slots[tick % len]` holds `(key, gen, tick)` hints.
    slots: Vec<Vec<(usize, u64, u64)>>,
    granularity: Duration,
    start: Instant,
    /// Last processed tick.
    cursor: u64,
    /// Earliest tick of any live entry (`u64::MAX` when empty); recomputed
    /// lazily when crossed.
    nearest: u64,
}

impl TimerWheel {
    fn new(granularity: Duration, slots: usize, now: Instant) -> Self {
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            start: now,
            cursor: 0,
            nearest: u64::MAX,
        }
    }

    /// The tick that covers `t` (rounded up: an entry never fires early).
    fn tick_of(&self, t: Instant) -> u64 {
        let nanos = t.saturating_duration_since(self.start).as_nanos();
        (nanos / self.granularity.as_nanos()) as u64 + 1
    }

    fn insert(&mut self, key: usize, gen: u64, deadline: Instant) -> u64 {
        let tick = self.tick_of(deadline).max(self.cursor + 1);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push((key, gen, tick));
        self.nearest = self.nearest.min(tick);
        tick
    }

    /// Drains every entry due by `now` into `due` as `(key, gen)` pairs.
    fn advance(&mut self, now: Instant, due: &mut Vec<(usize, u64)>) {
        let target = self.tick_of(now).saturating_sub(1); // ticks fully in the past
        let mut recompute_nearest = false;
        while self.cursor < target {
            // Jump straight to the next tick that can hold a due entry —
            // with a 10k-connection slab the wheel is consulted on every
            // poll wake-up, and walking 100 empty ticks each time would
            // cost more than the timers themselves.
            if self.nearest > target {
                self.cursor = target;
                break;
            }
            self.cursor = self.cursor.max(self.nearest - 1) + 1;
            if self.cursor >= self.nearest {
                recompute_nearest = true;
            }
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let entries = &mut self.slots[slot];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].2 <= self.cursor {
                    let (key, gen, _) = entries.swap_remove(i);
                    due.push((key, gen));
                } else {
                    i += 1;
                }
            }
        }
        if recompute_nearest {
            self.nearest = self
                .slots
                .iter()
                .flat_map(|s| s.iter().map(|&(_, _, tick)| tick))
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// When the next entry could fire (`None` when the wheel is empty, or
    /// so far off that `Instant` cannot say).
    fn next_wakeup(&self) -> Option<Instant> {
        if self.nearest == u64::MAX {
            return None;
        }
        // In u64 nanoseconds, saturating: `Duration * u32` would wrap after
        // 2^32 ticks (497 days at 10 ms), land the wake-up in the past and
        // leave the shard spinning in zero-timeout waits.
        let nanos = (self.granularity.as_nanos() as u64).saturating_mul(self.nearest);
        self.start.checked_add(Duration::from_nanos(nanos))
    }
}

/// Everything a shard loop needs, bundled so the helpers stay callable
/// without threading eight arguments through every function.
struct ShardCtx<'a> {
    poller: &'a Poller,
    env: Env<'a>,
    conns: Slab,
    wheel: TimerWheel,
}

/// One shard's event loop: drain the inbox, service readiness events,
/// expire deadlines, and — once shutdown starts — drain connections per
/// the graceful contract.
pub(crate) fn shard_loop(shard: &Shard, idx: usize, env: Env<'_>) {
    let shared = env.shared;
    let depth_gauge = shared.obs.shard_depths.get(idx);
    let mut ctx = ShardCtx {
        poller: &shard.poller,
        env,
        conns: Slab::new(),
        // 10 ms slots: deadline slop stays well under the second-scale
        // timeouts, and one revolution of 256 slots covers 2.56 s — longer
        // deadlines just re-check lazily a handful of times.
        wheel: TimerWheel::new(Duration::from_millis(10), 256, Instant::now()),
    };
    let mut events = Events::new();
    let mut due: Vec<(usize, u64)> = Vec::new();
    loop {
        // Exit only once the accept loop has closed the inbox: a connection
        // could otherwise be pushed (and counted) right after this shard
        // checked emptiness, and leak. After close() no push can succeed.
        if shared.shutdown.load(Ordering::SeqCst)
            && ctx.conns.live == 0
            && shard.inbox.is_closed()
            && shard.inbox.is_empty()
        {
            break;
        }
        let timeout = ctx
            .wheel
            .next_wakeup()
            .map(|t| t.saturating_duration_since(Instant::now()))
            .unwrap_or(MAX_WAIT)
            .min(MAX_WAIT);
        if shard.poller.wait(&mut events, Some(timeout)).is_err() {
            // Only pathological states (e.g. EBADF after fd corruption)
            // land here; back off so a persistent failure cannot burn the
            // core, and keep serving — deadlines and the inbox still work.
            std::thread::sleep(Duration::from_millis(10));
        }
        let now = Instant::now();
        // New connections first: they may already carry a full request.
        while let Some(stream) = shard.inbox.try_pop() {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            register(&mut ctx, stream, now);
        }
        // Published once per wake-up: exact enough for a scrape, free for
        // the hot path.
        if let Some(g) = depth_gauge {
            g.store(ctx.conns.live as u64, Ordering::Relaxed);
        }
        for ev in events.iter() {
            handle_event(&mut ctx, ev.key, ev.readable);
        }
        due.clear();
        ctx.wheel.advance(Instant::now(), &mut due);
        for &(key, gen) in &due {
            handle_deadline(&mut ctx, key, gen);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_pass(&mut ctx);
        }
    }
}

/// Registers a fresh connection with the poller and the idle deadline.
fn register(ctx: &mut ShardCtx<'_>, stream: TcpStream, now: Instant) {
    let shared = ctx.env.shared;
    if stream.set_nonblocking(true).is_err() {
        // Cannot be multiplexed; drop it rather than stall the shard.
        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    let _ = stream.set_nodelay(true);
    shared.stats.active.fetch_add(1, Ordering::Relaxed);
    let key = ctx.conns.insert(stream, now, ctx.env.limits);
    let slot = ctx.conns.get_mut(key).expect("just inserted");
    if ctx.poller.add(&slot.stream, Event::readable(key)).is_err() {
        // Registration failed (fd exhaustion inside epoll): nothing can be
        // served; undo and drop.
        close(ctx, key);
        return;
    }
    slot.wheel_tick = ctx.wheel.insert(key, slot.gen, slot.conn.next_deadline());
    // A connection may arrive with its first request already in the socket
    // buffer; serve it now rather than waiting for an edge.
    handle_event(ctx, key, true);
}

/// Removes a connection entirely.
fn close(ctx: &mut ShardCtx<'_>, key: usize) {
    if let Some(slot) = ctx.conns.remove(key) {
        let _ = ctx.poller.delete(&slot.stream);
        ctx.env.shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        ctx.env.shared.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Services one readiness event (also the entry point for a just-registered
/// connection): read → parse/dispatch/flush → re-arm. A writable-only
/// event skips the read and resumes whatever backpressure held back.
fn handle_event(ctx: &mut ShardCtx<'_>, key: usize, readable: bool) {
    let Some(slot) = ctx.conns.get_mut(key) else {
        return; // closed earlier in this batch
    };
    if readable {
        do_read(slot);
    }
    slot.conn.service(&mut ctx.env, &mut &slot.stream);
    finish(ctx, key);
}

/// Non-blocking read up to the fairness budget.
fn do_read(slot: &mut Slot) {
    if !slot.conn.wants_read() {
        return;
    }
    let mut total = 0usize;
    let mut chunk = [0u8; 4096];
    loop {
        match (&slot.stream).read(&mut chunk) {
            Ok(0) => return slot.conn.peer_closed(),
            Ok(n) => {
                slot.conn.received(&chunk[..n]);
                total += n;
                if total >= READ_BUDGET {
                    return; // interest re-arms; epoll re-fires for the rest
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => return slot.conn.broken(),
        }
    }
}

/// The per-event epilogue: apply what the connection asks for next —
/// close, or re-arm epoll interest and the deadline.
fn finish(ctx: &mut ShardCtx<'_>, key: usize) {
    let now = Instant::now();
    let Some(slot) = ctx.conns.get_mut(key) else {
        return;
    };
    let Next::Wait {
        read,
        write,
        deadline,
    } = slot.conn.settle(now, ctx.env.limits)
    else {
        close(ctx, key);
        return;
    };
    // Re-arm epoll interest (registrations are oneshot).
    let interest = Event {
        key,
        readable: read,
        writable: write,
    };
    if ctx.poller.modify(&slot.stream, interest).is_err() {
        close(ctx, key);
        return;
    }
    // Arm the wheel only when no earlier live entry already covers us.
    if ctx.wheel.tick_of(deadline) < slot.wheel_tick {
        slot.wheel_tick = ctx.wheel.insert(key, slot.gen, deadline);
    }
}

/// A wheel entry fired: act if the connection's real deadline passed,
/// else lazily re-arm at the real deadline.
fn handle_deadline(ctx: &mut ShardCtx<'_>, key: usize, gen: u64) {
    let now = Instant::now();
    let stats = &ctx.env.shared.stats;
    let Some(slot) = ctx.conns.get_mut(key) else {
        return;
    };
    if slot.gen != gen {
        return; // stale hint for a recycled slot
    }
    slot.wheel_tick = u64::MAX; // this entry is consumed
    if slot.conn.expire(now, stats) {
        slot.conn.flush(&mut &slot.stream, stats);
        finish(ctx, key); // closes now or waits for write readiness
    } else {
        // Not actually due (the deadline moved later since this hint was
        // inserted): re-arm at the real deadline.
        slot.wheel_tick = ctx.wheel.insert(key, slot.gen, slot.conn.next_deadline());
    }
}

/// One shutdown-drain sweep: every connection with nothing left to flush
/// is closed (idle) or answered 408 (half-sent request).
fn drain_pass(ctx: &mut ShardCtx<'_>) {
    let stats = &ctx.env.shared.stats;
    for key in ctx.conns.keys() {
        let Some(slot) = ctx.conns.get_mut(key) else {
            continue;
        };
        if slot.conn.drain(stats) {
            slot.conn.flush(&mut &slot.stream, stats);
            finish(ctx, key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wake-up instant keeps growing with the tick across 2^32 ticks —
    /// 497 days of shard uptime at the 10 ms granularity.
    #[test]
    fn next_wakeup_is_monotone_across_u32_ticks() {
        let start = Instant::now();
        let granularity = Duration::from_nanos(10);
        let mut wheel = TimerWheel::new(granularity, 8, start);
        assert_eq!(wheel.next_wakeup(), None);
        let boundary = start + granularity * u32::MAX;
        wheel.nearest = u64::from(u32::MAX);
        assert_eq!(wheel.next_wakeup(), Some(boundary));
        for past in [1u64 << 32, (1 << 32) + 1, 1 << 40] {
            let before = wheel.next_wakeup().unwrap();
            wheel.nearest = past;
            let at = wheel.next_wakeup().unwrap();
            assert!(at > boundary && at > before, "tick {past}: {at:?}");
        }
    }
}
