//! Unions of virtual-time intervals: how long at least one of a set of
//! possibly overlapping activities was running.

use crate::time::{TimeSpan, VirtualTime};

/// Sorts `intervals` and merges them in place into their union (sorted,
/// disjoint, touching intervals coalesced), returning its total length.
///
/// The union is associative and idempotent, so an already merged set
/// with more intervals appended merges to the same union as the raw
/// set would.
///
/// ```rust
/// use triosim_des::{merge_intervals, TimeSpan, VirtualTime};
///
/// let t = VirtualTime::from_seconds;
/// let mut v = vec![(t(2.0), t(3.0)), (t(0.0), t(1.0)), (t(0.5), t(2.0))];
/// assert_eq!(merge_intervals(&mut v), TimeSpan::from_seconds(3.0));
/// assert_eq!(v, vec![(t(0.0), t(3.0))]);
/// ```
pub fn merge_intervals(intervals: &mut Vec<(VirtualTime, VirtualTime)>) -> TimeSpan {
    intervals.sort_unstable();
    let mut w = 0;
    for i in 0..intervals.len() {
        let (s, e) = intervals[i];
        if w > 0 && s <= intervals[w - 1].1 {
            intervals[w - 1].1 = intervals[w - 1].1.max(e);
        } else {
            intervals[w] = (s, e);
            w += 1;
        }
    }
    intervals.truncate(w);
    intervals
        .iter()
        .fold(TimeSpan::ZERO, |len, &(s, e)| len + (e - s))
}
