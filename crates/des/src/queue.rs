//! The core event queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::stats::QueueStats;
use crate::time::{TimeSpan, VirtualTime};

/// A handle to a scheduled event, usable for cancellation.
///
/// Returned by [`EventQueue::schedule`] and friends. Each id is unique for
/// the lifetime of the queue that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

struct Scheduled<E> {
    time: VirtualTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (and, within a
        // time, the first-scheduled) event is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timestamped events.
///
/// The queue is the heart of the simulation engine: it holds all pending
/// events and advances the virtual clock as they are popped. Events at the
/// same instant are delivered in FIFO scheduling order, making simulations
/// fully reproducible.
///
/// Cancellation is *lazy*: [`cancel`](EventQueue::cancel) marks the id and
/// the event is silently dropped when its heap entry surfaces. This is the
/// standard technique for flow-network models that must reschedule delivery
/// events whenever bandwidth allocations change (see the `triosim-network`
/// crate).
///
/// Ids are issued consecutively, so which ones are still pending is one
/// bit each over a window that starts at the oldest pending id: nothing is
/// hashed per event, and the window's memory follows the events pending
/// at once, not the events ever scheduled.
///
/// # Example
///
/// ```rust
/// use triosim_des::{EventQueue, VirtualTime};
///
/// let mut q = EventQueue::new();
/// let keep = q.schedule(VirtualTime::from_seconds(1.0), "keep");
/// let drop = q.schedule(VirtualTime::from_seconds(0.5), "drop");
/// q.cancel(drop);
///
/// assert_eq!(q.pop(), Some((VirtualTime::from_seconds(1.0), "keep")));
/// assert_eq!(q.pop(), None);
/// # let _ = keep;
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Pending bits of ids `live_base..next_seq`, 64 per word.
    live: VecDeque<u64>,
    /// The id of the first bit in `live`; a multiple of 64.
    live_base: u64,
    /// Pending events: the set bits of `live`.
    pending: usize,
    /// Cancelled entries still in `heap`.
    stale: usize,
    now: VirtualTime,
    next_seq: u64,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`VirtualTime::ZERO`].
    pub fn new() -> Self {
        Self::starting_at(VirtualTime::ZERO)
    }

    /// Creates an empty queue with the clock already advanced to `origin`.
    ///
    /// Scheduling anything earlier than `origin` is rejected exactly as
    /// if the queue had ticked its way there.
    pub fn starting_at(origin: VirtualTime) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: VecDeque::new(),
            live_base: 0,
            pending: 0,
            stale: 0,
            now: origin,
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// [`starting_at`](Self::starting_at) with the cumulative statistics
    /// counters pre-seeded.
    ///
    /// Checkpoint restore uses this to resume a run at a quiescent
    /// boundary: a fresh queue advanced to the boundary time whose
    /// counters continue from the interrupted run's, so the final
    /// [`QueueStats`] match an uninterrupted run exactly (all counters
    /// are additive; `max_pending` is a running maximum).
    pub fn starting_at_with_stats(origin: VirtualTime, stats: QueueStats) -> Self {
        let mut q = Self::starting_at(origin);
        q.stats = stats;
        q
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Schedules `event` at absolute time `time` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`now`](EventQueue::now) — the
    /// simulation cannot rewrite its past.
    pub fn schedule(&mut self, time: VirtualTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} before the current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let word = ((seq - self.live_base) / 64) as usize;
        if word == self.live.len() {
            self.live.push_back(0);
        }
        self.live[word] |= 1 << (seq % 64);
        self.pending += 1;
        self.heap.push(Scheduled { time, seq, event });
        self.stats.record_scheduled(self.heap.len());
        EventId(seq)
    }

    /// Schedules `event` at `delay` after the current time.
    pub fn schedule_in(&mut self, delay: TimeSpan, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the current instant. It will be delivered after
    /// every event already scheduled for this instant (FIFO order).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule(self.now, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the id was still pending (it will now never be
    /// delivered), `false` if it had already been delivered or cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.settle(id.0) {
            return false;
        }
        self.stale += 1;
        self.stats.record_cancelled();
        if self.stale >= Self::COMPACT_MIN_CANCELLED && self.stale * 2 > self.heap.len() {
            self.compact();
        }
        true
    }

    /// Clears `seq`'s pending bit, reporting whether it was set, and
    /// drops leading words whose ids have all been settled.
    fn settle(&mut self, seq: u64) -> bool {
        let Some(off) = seq.checked_sub(self.live_base) else {
            return false;
        };
        let bit = 1 << (off % 64);
        let Some(word) = self.live.get_mut((off / 64) as usize) else {
            return false;
        };
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.pending -= 1;
        while self.live.front() == Some(&0) && self.live_base + 64 <= self.next_seq {
            self.live.pop_front();
            self.live_base += 64;
        }
        true
    }

    /// Don't bother compacting tiny queues: the rebuild costs more than
    /// lazily skipping a handful of entries.
    const COMPACT_MIN_CANCELLED: usize = 64;

    /// Whether `seq` is still pending.
    fn is_live(&self, seq: u64) -> bool {
        seq.checked_sub(self.live_base).is_some_and(|off| {
            self.live
                .get((off / 64) as usize)
                .is_some_and(|w| w & (1 << (off % 64)) != 0)
        })
    }

    /// Rebuilds the heap without its lazily-cancelled entries, so memory
    /// stops growing O(cancellations) between pops.
    fn compact(&mut self) {
        let mut heap = std::mem::take(&mut self.heap);
        heap.retain(|s| self.is_live(s.seq));
        self.heap = heap;
        self.stale = 0;
        self.stats.record_compaction();
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        while let Some(Scheduled { time, seq, event }) = self.heap.pop() {
            if !self.settle(seq) {
                self.stale -= 1;
                continue;
            }
            debug_assert!(time >= self.now, "event queue produced out-of-order event");
            self.now = time;
            self.stats.record_delivered();
            return Some((time, event));
        }
        None
    }

    /// The timestamp of the earliest pending (non-cancelled) event without
    /// popping it.
    pub fn peek_time(&mut self) -> Option<VirtualTime> {
        while let Some(head) = self.heap.peek() {
            if self.stale > 0 && !self.is_live(head.seq) {
                self.heap.pop();
                self.stale -= 1;
                continue;
            }
            return Some(head.time);
        }
        None
    }

    /// Number of pending (scheduled, neither delivered nor cancelled)
    /// events.
    // An accurate emptiness check must skip lazily-cancelled events, so
    // `is_empty` takes `&mut self` and cannot match clippy's expected pair.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no event remains to be delivered.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Cumulative scheduling statistics (for monitoring, akin to AkitaRTM's
    /// live counters).
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime::from_seconds(3.0), 3);
        q.schedule(VirtualTime::from_seconds(1.0), 1);
        q.schedule(VirtualTime::from_seconds(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = VirtualTime::from_seconds(1.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime::from_seconds(5.0), ());
        assert_eq!(q.now(), VirtualTime::ZERO);
        q.pop();
        assert_eq!(q.now(), VirtualTime::from_seconds(5.0));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(VirtualTime::from_seconds(1.0), "a");
        q.schedule(VirtualTime::from_seconds(2.0), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn cancel_after_delivery_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(VirtualTime::from_seconds(1.0), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime::from_seconds(1.0), "first");
        q.pop();
        q.schedule_in(TimeSpan::from_seconds(0.5), "second");
        assert_eq!(q.pop().unwrap().0, VirtualTime::from_seconds(1.5));
    }

    #[test]
    fn schedule_now_runs_after_existing_same_time_events() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime::ZERO, "a");
        q.schedule_now("b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime::from_seconds(2.0), ());
        q.pop();
        q.schedule(VirtualTime::from_seconds(1.0), ());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(VirtualTime::from_seconds(1.0), "a");
        q.schedule(VirtualTime::from_seconds(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(VirtualTime::from_seconds(2.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn is_empty_reflects_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(VirtualTime::from_seconds(1.0), ());
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_evicts_cancelled_entries_and_preserves_order() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..200)
            .map(|i| q.schedule(VirtualTime::from_seconds(i as f64), i))
            .collect();
        // Cancel 150 of 200: crosses both the minimum-size and the
        // half-the-heap thresholds, forcing at least one rebuild.
        for id in &ids[0..150] {
            q.cancel(*id);
        }
        assert!(q.stats().compactions() >= 1);
        assert_eq!(q.len(), 50);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (150..200).collect::<Vec<_>>());
    }

    #[test]
    fn pending_window_follows_the_events_in_flight() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            let keep = q.schedule(VirtualTime::from_seconds(i as f64), i);
            let drop = q.schedule(VirtualTime::from_seconds(i as f64 + 0.5), i);
            assert!(q.cancel(drop));
            assert_eq!(q.pop(), Some((VirtualTime::from_seconds(i as f64), i)));
            assert!(!q.cancel(keep), "delivered ids stay settled");
            assert!(q.live.len() <= 2, "window of {} words", q.live.len());
        }
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn small_queues_skip_compaction() {
        let mut q = EventQueue::new();
        let a = q.schedule(VirtualTime::from_seconds(1.0), ());
        q.schedule(VirtualTime::from_seconds(2.0), ());
        q.cancel(a);
        assert_eq!(q.stats().compactions(), 0);
    }

    #[test]
    fn starting_at_sets_the_clock_and_rejects_the_past() {
        let mut q = EventQueue::starting_at(VirtualTime::from_seconds(10.0));
        assert_eq!(q.now(), VirtualTime::from_seconds(10.0));
        q.schedule(VirtualTime::from_seconds(11.0), "ok");
        assert_eq!(q.pop().unwrap().0, VirtualTime::from_seconds(11.0));
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(VirtualTime::from_seconds(9.0), "past");
        }));
        assert!(past.is_err(), "scheduling before the origin must panic");
    }

    #[test]
    fn stats_count_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(VirtualTime::from_seconds(1.0), ());
        q.schedule(VirtualTime::from_seconds(2.0), ());
        q.cancel(a);
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled(), 2);
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.cancelled(), 1);
        assert!(s.max_pending() >= 2);
    }
}
