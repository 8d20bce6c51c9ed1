//! The bounded admission queue: where load shedding happens.
//!
//! A service that accepts unboundedly queues unboundedly, and then dies
//! of memory instead of telling anyone it is full. This queue has a hard
//! capacity; [`JobQueue::try_submit`] refuses — *without blocking* — when
//! the queue is at capacity, and the server turns that refusal into a
//! `429 Retry-After`. Recovery requeues bypass the cap
//! ([`JobQueue::enqueue_unbounded`]): jobs that were already admitted in
//! a previous life have already been promised, and shedding them on
//! restart would turn a crash into silent data loss.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// A bounded MPMC queue of job ids with shutdown-aware blocking pop.
#[derive(Debug)]
pub struct JobQueue {
    cap: usize,
    inner: Mutex<VecDeque<String>>,
    nonempty: Condvar,
}

/// The admission verdict for a new submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job took a queue slot.
    Enqueued,
    /// The queue was full; the job was refused without blocking.
    Shed,
}

impl JobQueue {
    /// A queue refusing submissions beyond `cap` pending jobs (`cap` is
    /// clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        JobQueue {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|q| q.len()).unwrap_or(0)
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admission-controlled submission: enqueues `id` unless the queue
    /// is at capacity, in which case the job is shed.
    pub fn try_submit(&self, id: String) -> Admission {
        let Ok(mut q) = self.inner.lock() else {
            return Admission::Shed;
        };
        if q.len() >= self.cap {
            return Admission::Shed;
        }
        q.push_back(id);
        drop(q);
        self.nonempty.notify_one();
        Admission::Enqueued
    }

    /// Cap-exempt enqueue for recovery requeues: already-admitted jobs
    /// must never be shed by a restart.
    pub fn enqueue_unbounded(&self, id: String) {
        if let Ok(mut q) = self.inner.lock() {
            q.push_back(id);
            drop(q);
            self.nonempty.notify_one();
        }
    }

    /// Blocks until a job is available or `shutdown` flips, whichever is
    /// first. Returns `None` on shutdown (pending jobs stay queued — on
    /// a graceful drain they are already durable on disk and will be
    /// recovered by the next start).
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<String> {
        let mut q = self.inner.lock().ok()?;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = q.pop_front() {
                return Some(id);
            }
            q = self.nonempty.wait(q).ok()?;
        }
    }

    /// Wakes every blocked popper (call after flipping the shutdown
    /// flag). Taking the lock orders the wakeup after any popper's
    /// shutdown check: a popper either sees the flag or is already
    /// waiting when the notification fires, so none sleeps through it.
    pub fn wake_all(&self) {
        let _guard = self.inner.lock();
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn sheds_exactly_beyond_capacity() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_submit("a".into()), Admission::Enqueued);
        assert_eq!(q.try_submit("b".into()), Admission::Enqueued);
        assert_eq!(q.try_submit("c".into()), Admission::Shed);
        let off = AtomicBool::new(false);
        assert_eq!(q.pop(&off).as_deref(), Some("a"));
        assert_eq!(q.try_submit("c".into()), Admission::Enqueued, "slot freed");
    }

    #[test]
    fn recovery_enqueue_ignores_the_cap() {
        let q = JobQueue::new(1);
        assert_eq!(q.try_submit("a".into()), Admission::Enqueued);
        q.enqueue_unbounded("recovered".into());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_returns_none_on_shutdown_and_preserves_pending() {
        let q = Arc::new(JobQueue::new(4));
        let shutdown = Arc::new(AtomicBool::new(false));
        q.try_submit("keep".into());
        shutdown.store(true, Ordering::SeqCst);
        assert_eq!(q.pop(&shutdown), None);
        assert_eq!(q.len(), 1, "pending job survives the drain");
    }

    #[test]
    fn blocked_pop_wakes_for_a_late_submission() {
        let q = Arc::new(JobQueue::new(4));
        let shutdown = Arc::new(AtomicBool::new(false));
        let popper = {
            let q = q.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || q.pop(&shutdown))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_submit("late".into());
        assert_eq!(popper.join().unwrap().as_deref(), Some("late"));
    }

    #[test]
    fn blocked_pop_wakes_for_shutdown() {
        let q = Arc::new(JobQueue::new(4));
        let shutdown = Arc::new(AtomicBool::new(false));
        let popper = {
            let q = q.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || q.pop(&shutdown))
        };
        std::thread::sleep(Duration::from_millis(20));
        shutdown.store(true, Ordering::SeqCst);
        q.wake_all();
        assert_eq!(popper.join().unwrap(), None);
    }

    /// A drain that lands between a popper's shutdown check and its
    /// wait must still wake it: `pop` has no timeout to fall back on.
    #[test]
    fn shutdown_racing_pop_never_loses_the_wakeup() {
        for _ in 0..1_000 {
            let q = Arc::new(JobQueue::new(4));
            let shutdown = Arc::new(AtomicBool::new(false));
            let (tx, rx) = std::sync::mpsc::channel();
            {
                let q = q.clone();
                let shutdown = shutdown.clone();
                std::thread::spawn(move || tx.send(q.pop(&shutdown)).ok());
            }
            shutdown.store(true, Ordering::SeqCst);
            q.wake_all();
            let popped = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("popper woke for the shutdown");
            assert_eq!(popped, None);
        }
    }
}
