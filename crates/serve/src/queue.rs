//! A closeable blocking MPMC queue: the feed from the accept loop to the
//! blocking driver's worker pool and to each reactor shard's inbox.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A closeable blocking multi-producer multi-consumer queue.
///
/// Producers [`push`](Self::push); consumers [`pop`](Self::pop), blocking
/// while the queue is empty and open. [`close`](Self::close) wakes every
/// blocked consumer; items already queued are still drained, and `pop`
/// returns `None` only once the queue is both closed and empty — the
/// natural shutdown protocol for a worker pool ("finish what was accepted,
/// then exit").
pub(crate) struct Queue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> Queue<T> {
    /// An empty, open queue.
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item` and wakes one consumer. Returns `false` (dropping
    /// the item) if the queue is already closed.
    pub(crate) fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed *and* drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Dequeues the oldest item if one is immediately available, never
    /// blocking — the companion to [`pop`](Self::pop) for consumers that
    /// multiplex the queue with other readiness sources (the serve
    /// reactor's shard inboxes are drained this way between poll wake-ups).
    /// Returns `None` whenever the queue is empty, closed or not.
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.state.lock().expect("queue lock").items.pop_front()
    }

    /// Closes the queue: future pushes are refused, blocked consumers wake,
    /// and already-queued items remain poppable until drained.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Whether the queue is currently empty (racy under concurrent use).
    pub(crate) fn is_empty(&self) -> bool {
        self.state.lock().expect("queue lock").items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_delivers_in_order_and_drains_after_close() {
        let q: Queue<u32> = Queue::new();
        assert!(q.push(1));
        assert!(q.push(2));
        q.close();
        assert!(!q.push(3), "push after close must be refused");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
        assert!(q.is_empty());
    }

    #[test]
    fn queue_feeds_a_worker_pool() {
        let q: Queue<usize> = Queue::new();
        let total: AtomicUsize = AtomicUsize::new(0);
        let popped: AtomicUsize = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(v) = q.pop() {
                        total.fetch_add(v, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for v in 1..=100 {
                assert!(q.push(v));
            }
            q.close();
        });
        assert_eq!(popped.load(Ordering::Relaxed), 100);
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q: Queue<u32> = Queue::new();
        assert_eq!(q.try_pop(), None, "empty + open: no item, no block");
        assert!(q.push(9));
        assert_eq!(q.try_pop(), Some(9));
        q.close();
        assert_eq!(q.try_pop(), None, "empty + closed: still just None");
    }

    #[test]
    fn queue_pop_blocks_until_push() {
        let q: Queue<&'static str> = Queue::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            // The consumer should be blocked; feed it.
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(q.push("hello"));
            assert_eq!(h.join().unwrap(), Some("hello"));
        });
    }
}
