//! Lightweight monitoring counters.
//!
//! The original TrioSim advertises real-time monitoring through AkitaRTM.
//! We keep the same spirit with a zero-cost counter block that every
//! [`EventQueue`](crate::EventQueue) maintains; higher layers (the
//! `triosim` crate's reporting module) surface these in their run summaries.

use serde::{Deserialize, Serialize};

/// Cumulative counters describing event-queue activity.
///
/// # Example
///
/// ```rust
/// use triosim_des::{EventQueue, VirtualTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(VirtualTime::from_seconds(1.0), ());
/// q.pop();
/// assert_eq!(q.stats().scheduled(), 1);
/// assert_eq!(q.stats().delivered(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueueStats {
    scheduled: u64,
    delivered: u64,
    cancelled: u64,
    max_pending: usize,
    compactions: u64,
}

impl QueueStats {
    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered by `pop`.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total events cancelled before delivery.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// High-water mark of the pending-event count.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Times the heap was rebuilt to evict lazily-cancelled entries.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Folds another queue's counters into this one: totals add, the
    /// high-water mark takes the maximum.
    ///
    /// Steady-state replay folds the counters of synthesized iterations
    /// in this way. A queue that fully drains at every iteration boundary
    /// replays the same pending-depth profile in every repeated
    /// iteration, so the merged counters equal those of simulating them.
    pub fn merge(&mut self, other: &QueueStats) {
        self.scheduled += other.scheduled;
        self.delivered += other.delivered;
        self.cancelled += other.cancelled;
        self.max_pending = self.max_pending.max(other.max_pending);
        self.compactions += other.compactions;
    }

    /// The activity between an `earlier` reading of the same queue and
    /// this one: totals are differences, and the high-water mark is this
    /// reading's (a running maximum cannot be split by span).
    pub fn since(&self, earlier: &QueueStats) -> QueueStats {
        QueueStats {
            scheduled: self.scheduled - earlier.scheduled,
            delivered: self.delivered - earlier.delivered,
            cancelled: self.cancelled - earlier.cancelled,
            max_pending: self.max_pending,
            compactions: self.compactions - earlier.compactions,
        }
    }

    /// These counters repeated `times` times: totals multiply, the
    /// high-water mark stays.
    pub fn scaled(&self, times: u64) -> QueueStats {
        QueueStats {
            scheduled: self.scheduled * times,
            delivered: self.delivered * times,
            cancelled: self.cancelled * times,
            max_pending: self.max_pending,
            compactions: self.compactions * times,
        }
    }

    pub(crate) fn record_scheduled(&mut self, pending: usize) {
        self.scheduled += 1;
        if pending > self.max_pending {
            self.max_pending = pending;
        }
    }

    pub(crate) fn record_delivered(&mut self) {
        self.delivered += 1;
    }

    pub(crate) fn record_cancelled(&mut self) {
        self.cancelled += 1;
    }

    pub(crate) fn record_compaction(&mut self) {
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_high_water() {
        let mut a = QueueStats {
            scheduled: 10,
            delivered: 8,
            cancelled: 2,
            max_pending: 5,
            compactions: 1,
        };
        let b = QueueStats {
            scheduled: 3,
            delivered: 3,
            cancelled: 0,
            max_pending: 9,
            compactions: 0,
        };
        a.merge(&b);
        assert_eq!(a.scheduled(), 13);
        assert_eq!(a.delivered(), 11);
        assert_eq!(a.cancelled(), 2);
        assert_eq!(a.max_pending(), 9);
        assert_eq!(a.compactions(), 1);
    }

    #[test]
    fn since_then_scaled_merge_extends_a_periodic_run() {
        let before = QueueStats {
            scheduled: 10,
            delivered: 9,
            cancelled: 1,
            max_pending: 4,
            compactions: 1,
        };
        let after = QueueStats {
            scheduled: 16,
            delivered: 14,
            cancelled: 2,
            max_pending: 6,
            compactions: 2,
        };
        let step = after.since(&before);
        assert_eq!(
            (step.scheduled(), step.delivered(), step.cancelled()),
            (6, 5, 1)
        );
        assert_eq!(step.max_pending(), 6, "the running maximum is kept");
        let mut extended = after;
        extended.merge(&step.scaled(3));
        assert_eq!(extended.scheduled(), 16 + 18);
        assert_eq!(extended.compactions(), 2 + 3);
        assert_eq!(extended.max_pending(), 6);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = QueueStats {
            scheduled: 7,
            delivered: 7,
            cancelled: 0,
            max_pending: 4,
            compactions: 2,
        };
        let before = a;
        a.merge(&QueueStats::default());
        assert_eq!(a, before);
    }
}
