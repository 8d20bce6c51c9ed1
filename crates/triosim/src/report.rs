//! Simulation results: totals, breakdowns, and the timeline output.
//!
//! Matches §4.1's list of TrioSim outputs: total predicted execution
//! time, per-layer/per-phase communication and computation time, and a
//! timeline of the computation on each GPU and communication between
//! GPUs. The timeline exports to the Chrome `about:tracing` JSON format
//! (the same format the PyTorch profiler uses), so it can be inspected in
//! any trace viewer.

use std::sync::OnceLock;

use serde::Value;
use triosim_des::{fnv1a, QueueStats, TimeSpan, VirtualTime};
use triosim_network::{NetObservation, PacketObservation};
use triosim_obs::{AttrValue, BottleneckReport, ChromeTraceSink, Recorder};

/// Which resource a timeline record occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimelineTrack {
    /// GPU `i`'s compute stream.
    Gpu(usize),
    /// The interconnect.
    Network,
}

/// One executed task on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRecord {
    /// Task label (operator or transfer name).
    pub label: String,
    /// Resource it ran on.
    pub track: TimelineTrack,
    /// Start time.
    pub start: VirtualTime,
    /// End time.
    pub end: VirtualTime,
    /// Model layer the task belongs to, when known.
    pub layer: Option<usize>,
}

/// A run's timeline as the executor hands it to the report: the records
/// it simulated, plus the iterations steady-state replay synthesized
/// (DESIGN.md §12) as one period's template and a repeat count.
///
/// The logical timeline is `records` followed by `repeats` copies of the
/// template (the last simulated iteration, `records[template..]`), the
/// `j`-th copy moved `j × period` later. Nothing walks the copies except
/// a caller that iterates the timeline, which materializes it once.
#[derive(Debug, Clone)]
pub(crate) struct TimelineStore {
    /// Simulated records, in canonical `(start, end)` order.
    records: Vec<TimelineRecord>,
    /// Index of the template's first record.
    template: usize,
    /// Duration of one replayed iteration.
    period: TimeSpan,
    /// Iterations synthesized after the simulated ones.
    repeats: usize,
    /// `(record count, FNV state)` of the whole logical run, folded by
    /// the executor at every iteration boundary. After a restore it also
    /// covers pre-restore records, which are not in `records`.
    digest: (u64, u64),
    /// The logical timeline, materialized on first iteration when
    /// `repeats > 0`.
    full: OnceLock<Vec<TimelineRecord>>,
}

impl TimelineStore {
    pub(crate) fn new(
        records: Vec<TimelineRecord>,
        template: usize,
        period: TimeSpan,
        repeats: usize,
        digest: (u64, u64),
    ) -> Self {
        assert!(
            template <= records.len(),
            "template lies within the records"
        );
        TimelineStore {
            records,
            template,
            period,
            repeats,
            digest,
            full: OnceLock::new(),
        }
    }

    fn template(&self) -> &[TimelineRecord] {
        &self.records[self.template..]
    }

    fn len(&self) -> usize {
        self.records.len() + self.repeats * self.template().len()
    }

    fn as_slice(&self) -> &[TimelineRecord] {
        if self.repeats == 0 {
            return &self.records;
        }
        self.full.get_or_init(|| {
            let mut all = Vec::with_capacity(self.len());
            all.extend_from_slice(&self.records);
            for j in 1..=self.repeats as u64 {
                let by = self.period * j;
                all.extend(self.template().iter().map(|r| TimelineRecord {
                    start: r.start + by,
                    end: r.end + by,
                    ..r.clone()
                }));
            }
            all
        })
    }

    /// Each GPU's busy intervals (in femtoseconds) over `records`, in
    /// time order. A GPU runs one operator at a time, so the intervals
    /// are disjoint and sorted by both start and end.
    fn busy_intervals(records: &[TimelineRecord], gpus: usize) -> Vec<BusyCurve> {
        let mut out = vec![BusyCurve::default(); gpus];
        for r in records {
            if let TimelineTrack::Gpu(g) = r.track {
                out[g].push(r.start.as_femtos(), r.end.as_femtos());
            }
        }
        out
    }
}

/// One GPU's busy time as a function of virtual time: disjoint, sorted
/// intervals with running totals, answering "busy femtoseconds before
/// `t`" by binary search.
#[derive(Debug, Clone, Default)]
struct BusyCurve {
    /// `(start, end, busy before start)` per interval.
    spans: Vec<(u64, u64, u64)>,
    total: u64,
}

impl BusyCurve {
    fn push(&mut self, start: u64, end: u64) {
        self.spans.push((start, end, self.total));
        self.total += end - start;
    }

    fn busy_before(&self, t: u64) -> u64 {
        let i = self.spans.partition_point(|&(_, end, _)| end <= t);
        match self.spans.get(i) {
            Some(&(start, _, before)) => before + t.saturating_sub(start),
            None => self.total,
        }
    }
}

/// A read-only view of a run's timeline.
///
/// [`len`](Self::len) is O(1). A run that steady-state replay shortened
/// stores only its simulated iterations plus one repeating template, and
/// [`iter`](Self::iter) (or [`as_slice`](Self::as_slice)) materializes
/// the full timeline on first use. Exports such as
/// [`SimReport::to_chrome_trace`] do that; the report's own statistics
/// never do.
#[derive(Clone, Copy)]
pub struct Timeline<'a> {
    store: &'a TimelineStore,
}

impl<'a> Timeline<'a> {
    /// Number of records in the whole run.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the run recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every record, in canonical `(start, end)` order.
    pub fn as_slice(&self) -> &'a [TimelineRecord] {
        self.store.as_slice()
    }

    /// Iterates every record, in canonical `(start, end)` order.
    pub fn iter(&self) -> std::slice::Iter<'a, TimelineRecord> {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for Timeline<'a> {
    type Item = &'a TimelineRecord;
    type IntoIter = std::slice::Iter<'a, TimelineRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Timeline<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Timeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// How steady-state replay shortened a run (DESIGN.md §12). Diagnostic
/// only: it is never part of the canonical report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Iterations the engine simulated.
    pub simulated: usize,
    /// Iterations synthesized from the last simulated one.
    pub synthesized: usize,
    /// Duration of each synthesized iteration.
    pub period: TimeSpan,
}

/// Per-fault attribution of a fault-injected run: what fired, and how
/// much compute time the slowdown/jitter dilation added per GPU.
///
/// Link-level loss shows up in [`SimReport::network_stats`] instead
/// (`link_faults`, `reroutes`, `added_hops`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultStats {
    /// Timed faults that actually fired.
    pub faults_injected: u64,
    /// Fired link-bandwidth degradations.
    pub link_degrades: u64,
    /// Fired link failures.
    pub link_fails: u64,
    /// Fired link repairs.
    pub link_repairs: u64,
    /// Fired GPU drop-outs.
    pub gpu_drops: u64,
    /// Seconds of compute added to each GPU by slowdown/jitter dilation.
    pub lost_compute_s: Vec<f64>,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    total: TimeSpan,
    per_gpu_compute: Vec<TimeSpan>,
    comm_busy: TimeSpan,
    bytes_transferred: u64,
    tasks_executed: usize,
    queue: QueueStats,
    net: NetObservation,
    timeline: TimelineStore,
    fault_stats: Option<FaultStats>,
    packet_stats: Option<PacketObservation>,
    bottleneck: BottleneckReport,
}

impl SimReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        total: TimeSpan,
        per_gpu_compute: Vec<TimeSpan>,
        comm_busy: TimeSpan,
        bytes_transferred: u64,
        tasks_executed: usize,
        queue: QueueStats,
        net: NetObservation,
        timeline: TimelineStore,
    ) -> Self {
        SimReport {
            total,
            per_gpu_compute,
            comm_busy,
            bytes_transferred,
            tasks_executed,
            queue,
            net,
            timeline,
            fault_stats: None,
            packet_stats: None,
            bottleneck: BottleneckReport::default(),
        }
    }

    pub(crate) fn set_fault_stats(&mut self, stats: FaultStats) {
        self.fault_stats = Some(stats);
    }

    pub(crate) fn set_packet_stats(&mut self, stats: PacketObservation) {
        self.packet_stats = Some(stats);
    }

    pub(crate) fn set_bottleneck(&mut self, bottleneck: BottleneckReport) {
        self.bottleneck = bottleneck;
    }

    /// The run's bottleneck attribution: critical-path breakdown,
    /// per-GPU compute/exposed-comm/idle buckets, stragglers, and the
    /// hottest links. Deterministic; part of the canonical JSON.
    pub fn bottleneck(&self) -> &BottleneckReport {
        &self.bottleneck
    }

    /// Fault-attribution counters of a fault-injected run; `None` for
    /// fault-free runs (including runs with an empty fault plan).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault_stats.as_ref()
    }

    /// Packet-level counters (drops, ECN marks, retransmits, queue-depth
    /// histogram) of a packet-fidelity run; `None` on the flow tiers, so
    /// their canonical reports stay byte-identical to builds that
    /// predate the packet tier.
    pub fn packet_stats(&self) -> Option<&PacketObservation> {
        self.packet_stats.as_ref()
    }

    /// End-to-end predicted time of the iteration.
    pub fn total_time(&self) -> TimeSpan {
        self.total
    }

    /// End-to-end predicted time, in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.total.as_seconds()
    }

    /// Busy compute time of each GPU.
    pub fn per_gpu_compute(&self) -> &[TimeSpan] {
        &self.per_gpu_compute
    }

    /// Computation time: the busiest GPU's compute occupancy (the
    /// convention the paper's comm/comp breakdowns use).
    pub fn compute_time_s(&self) -> f64 {
        self.per_gpu_compute
            .iter()
            .map(|t| t.as_seconds())
            .fold(0.0, f64::max)
    }

    /// Communication time: the union of all intervals during which at
    /// least one transfer was in flight.
    pub fn comm_time_s(&self) -> f64 {
        self.comm_busy.as_seconds()
    }

    /// Fraction of the comm+comp total spent communicating.
    pub fn comm_ratio(&self) -> f64 {
        let comm = self.comm_time_s();
        let comp = self.compute_time_s();
        if comm + comp == 0.0 {
            0.0
        } else {
            comm / (comm + comp)
        }
    }

    /// Total bytes that crossed the network.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Number of tasks executed (compute + transfer + barrier).
    pub fn tasks_executed(&self) -> usize {
        self.tasks_executed
    }

    /// Event-queue statistics of the run: how many simulation events were
    /// scheduled, delivered, and lazily cancelled, and the high-water
    /// mark of pending events (the AkitaRTM-style engine counters).
    pub fn queue_stats(&self) -> &QueueStats {
        &self.queue
    }

    /// Final network-model counters of the run: flows completed, bytes
    /// delivered, and the reallocation/reschedule churn the bandwidth
    /// sharing produced.
    pub fn network_stats(&self) -> &NetObservation {
        &self.net
    }

    /// Fraction of reallocation rounds that actually moved a delivery
    /// event (`reschedules / reallocations`). Under delta-rescheduling
    /// this measures genuine rate churn; a low ratio means most flow
    /// starts/finishes left every other flow's bandwidth untouched.
    pub fn rate_change_ratio(&self) -> f64 {
        if self.net.reallocations == 0 {
            0.0
        } else {
            self.net.reschedules as f64 / self.net.reallocations as f64
        }
    }

    /// The full execution timeline (see [`Timeline`] for what is and is
    /// not materialized).
    pub fn timeline(&self) -> Timeline<'_> {
        Timeline {
            store: &self.timeline,
        }
    }

    /// How steady-state replay shortened the run, or `None` when every
    /// iteration was simulated. Diagnostic only (not canonical).
    pub fn replay(&self) -> Option<ReplaySummary> {
        let tl = &self.timeline;
        (tl.repeats > 0).then(|| ReplaySummary {
            simulated: self.bottleneck.iterations as usize - tl.repeats,
            synthesized: tl.repeats,
            period: tl.period,
        })
    }

    /// Per-layer computation time, summed across GPUs — the "computation
    /// time of each layer or stage" output §4.1 lists. Index = layer,
    /// value = seconds. Sums integer ticks, so the result does not depend
    /// on how the run was executed.
    pub fn per_layer_compute_s(&self) -> Vec<f64> {
        let mut ticks: Vec<u64> = Vec::new();
        let tl = &self.timeline;
        for (records, times) in [(&tl.records[..], 1), (tl.template(), tl.repeats as u64)] {
            for r in records {
                let (Some(layer), TimelineTrack::Gpu(_)) = (r.layer, r.track) else {
                    continue;
                };
                if ticks.len() <= layer {
                    ticks.resize(layer + 1, 0);
                }
                ticks[layer] += (r.end - r.start).as_femtos() * times;
            }
        }
        ticks
            .into_iter()
            .map(|t| TimeSpan::from_femtos(t).as_seconds())
            .collect()
    }

    /// Per-GPU utilization profile: for each GPU, the fraction of each of
    /// `buckets` equal time slices spent computing. This is the
    /// AkitaRTM-style live view of where the pipeline bubbles and
    /// synchronization stalls sit.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn gpu_utilization(&self, buckets: usize) -> Vec<Vec<f64>> {
        assert!(buckets > 0, "need at least one bucket");
        let gpus = self.per_gpu_compute.len();
        let total = self.total.as_femtos();
        let mut profile = vec![vec![0.0f64; buckets]; gpus];
        if total == 0 {
            return profile;
        }
        let tl = &self.timeline;
        let simulated = TimelineStore::busy_intervals(&tl.records, gpus);
        let template = TimelineStore::busy_intervals(tl.template(), gpus);
        let period = tl.period.as_femtos();
        // Replayed iteration `j` (1-based) spans `origin + (j-1)T ..
        // origin + jT` and repeats the template, which spans
        // `origin - T .. origin`.
        let origin = total - tl.repeats as u64 * period;
        let busy_before = |g: usize, t: u64| -> u64 {
            let mut busy = simulated[g].busy_before(t);
            if tl.repeats > 0 && period > 0 && t > origin {
                let x = t - origin;
                let full = (x / period).min(tl.repeats as u64);
                busy += full * template[g].total;
                if full < tl.repeats as u64 {
                    busy += template[g].busy_before(origin - period + (x - full * period));
                }
            }
            busy
        };
        let edge = |b: usize| (u128::from(total) * b as u128 / buckets as u128) as u64;
        for (g, row) in profile.iter_mut().enumerate() {
            let mut before = 0;
            for (b, v) in row.iter_mut().enumerate() {
                let (lo, hi) = (edge(b), edge(b + 1));
                let busy = busy_before(g, hi);
                if hi > lo {
                    *v = ((busy - before) as f64 / (hi - lo) as f64).min(1.0);
                }
                before = busy;
            }
        }
        profile
    }

    /// Canonical JSON form of the report: every simulation-determined
    /// field, in a fixed key order, with the (large) timeline folded into
    /// a record count plus an FNV-1a content hash.
    ///
    /// This is the representation the golden snapshot tests and the sweep
    /// engine's deterministic aggregation serialize — it contains no
    /// wall-clock or host-dependent data, so two runs of the same
    /// configuration produce byte-identical output regardless of thread
    /// count or machine.
    pub fn to_canonical_json(&self) -> Value {
        let f = Value::Float;
        let u = Value::UInt;
        let mut fields = vec![
            ("total_time_s".to_string(), f(self.total_time_s())),
            ("compute_time_s".to_string(), f(self.compute_time_s())),
            ("comm_time_s".to_string(), f(self.comm_time_s())),
            ("comm_ratio".to_string(), f(self.comm_ratio())),
            ("bytes_transferred".to_string(), u(self.bytes_transferred)),
            ("tasks_executed".to_string(), u(self.tasks_executed as u64)),
            (
                "per_gpu_compute_s".to_string(),
                Value::Array(
                    self.per_gpu_compute
                        .iter()
                        .map(|t| f(t.as_seconds()))
                        .collect(),
                ),
            ),
            (
                "queue".to_string(),
                Value::Object(vec![
                    ("scheduled".to_string(), u(self.queue.scheduled())),
                    ("delivered".to_string(), u(self.queue.delivered())),
                    ("cancelled".to_string(), u(self.queue.cancelled())),
                    (
                        "max_pending".to_string(),
                        u(self.queue.max_pending() as u64),
                    ),
                    ("compactions".to_string(), u(self.queue.compactions())),
                ]),
            ),
            (
                "network".to_string(),
                Value::Object(vec![
                    ("flows_completed".to_string(), u(self.net.flows_completed)),
                    ("bytes_delivered".to_string(), u(self.net.bytes_delivered)),
                    ("reallocations".to_string(), u(self.net.reallocations)),
                    ("reschedules".to_string(), u(self.net.reschedules)),
                    ("link_faults".to_string(), u(self.net.link_faults)),
                    ("reroutes".to_string(), u(self.net.reroutes)),
                    ("added_hops".to_string(), u(self.net.added_hops)),
                ]),
            ),
            ("timeline_records".to_string(), u(self.timeline.digest.0)),
            ("timeline_hash".to_string(), u(self.timeline.digest.1)),
            ("bottleneck".to_string(), self.bottleneck.to_value()),
        ];
        if let Some(fs) = &self.fault_stats {
            fields.push((
                "faults".to_string(),
                Value::Object(vec![
                    ("faults_injected".to_string(), u(fs.faults_injected)),
                    ("link_degrades".to_string(), u(fs.link_degrades)),
                    ("link_fails".to_string(), u(fs.link_fails)),
                    ("link_repairs".to_string(), u(fs.link_repairs)),
                    ("gpu_drops".to_string(), u(fs.gpu_drops)),
                    (
                        "lost_compute_s".to_string(),
                        Value::Array(fs.lost_compute_s.iter().map(|&s| f(s)).collect()),
                    ),
                ]),
            ));
        }
        if let Some(ps) = &self.packet_stats {
            fields.push((
                "packet".to_string(),
                Value::Object(vec![
                    ("packets_sent".to_string(), u(ps.packets_sent)),
                    ("retransmits".to_string(), u(ps.retransmits)),
                    ("drops".to_string(), u(ps.drops)),
                    ("ecn_marks".to_string(), u(ps.ecn_marks)),
                    ("max_queue_depth".to_string(), u(ps.max_queue_depth)),
                    (
                        "queue_depth_hist".to_string(),
                        Value::Array(ps.queue_depth_hist.iter().map(|&n| u(n)).collect()),
                    ),
                ]),
            ));
        }
        Value::Object(fields)
    }

    /// [`to_canonical_json`](Self::to_canonical_json) as a compact JSON
    /// string (what `triosim-cli simulate --report` writes).
    pub fn to_canonical_string(&self) -> String {
        serde_json::to_string(&self.to_canonical_json())
            .expect("canonical report JSON has no non-finite floats")
    }

    /// Exports the timeline as Chrome `about:tracing` JSON.
    ///
    /// Streams the timeline through the same
    /// [`ChromeTraceSink`] the live observability layer uses, so the
    /// post-hoc export and `--trace-events` produce the same dialect
    /// (named per-track threads, `"X"` complete events).
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if serialization fails
    /// (practically impossible for this data).
    pub fn to_chrome_trace(&self) -> Result<String, serde_json::Error> {
        let mut sink = ChromeTraceSink::new(Vec::new());
        for r in self.timeline() {
            let track = match r.track {
                TimelineTrack::Gpu(i) => format!("gpu{i}"),
                TimelineTrack::Network => "network".to_string(),
            };
            match r.layer {
                Some(layer) => sink.span(
                    &track,
                    &r.label,
                    r.start,
                    r.end,
                    &[("layer", AttrValue::U64(layer as u64))],
                ),
                None => sink.span(&track, &r.label, r.start, r.end, &[]),
            }
        }
        sink.finish().expect("in-memory trace write cannot fail");
        let bytes = sink.into_inner();
        Ok(String::from_utf8(bytes).expect("trace sink emits UTF-8"))
    }
}

/// Appends the bytes of `r` that do not depend on its time.
fn record_head(r: &TimelineRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(r.label.as_bytes());
    out.push(0xff);
    let track = match r.track {
        TimelineTrack::Gpu(i) => i as u64,
        TimelineTrack::Network => u64::MAX,
    };
    out.extend_from_slice(&track.to_le_bytes());
}

/// Folds the time-dependent rest of a record after its head.
fn record_tail(h: u64, start: VirtualTime, end: VirtualTime, layer: Option<usize>) -> u64 {
    let h = fnv1a(h, &start.as_seconds().to_bits().to_le_bytes());
    let h = fnv1a(h, &end.as_seconds().to_bits().to_le_bytes());
    fnv1a(h, &layer.map_or(u64::MAX, |l| l as u64).to_le_bytes())
}

/// Folds timeline records (in the order given, which must be the
/// canonical `(start, end)` sort order) into a running FNV-1a state;
/// [`FNV_OFFSET`](triosim_des::FNV_OFFSET) is the digest of no records.
/// Each record contributes its label, a `0xff` separator, its track, the
/// bits of its start and end in seconds, and its layer. Order-sensitive,
/// so any drift in task scheduling — not just in the aggregate totals —
/// changes the canonical JSON.
///
/// Because the fold is sequential, a sorted run splits into sorted
/// segments — each iteration's records — and folding segment by
/// segment yields the same state as folding the whole run at once.
/// That is what lets the executor fold at every iteration boundary and
/// checkpoints carry a fixed-size digest instead of the records.
pub(crate) fn timeline_fnv<'a, I>(seed: u64, records: I) -> u64
where
    I: Iterator<Item = &'a TimelineRecord>,
{
    let mut head = Vec::new();
    records.fold(seed, |h, r| {
        head.clear();
        record_head(r, &mut head);
        record_tail(fnv1a(h, &head), r.start, r.end, r.layer)
    })
}

/// One iteration's records prepared for repeated folding at shifted
/// times: steady-state replay folds the template once per synthesized
/// iteration without materializing the shifted records. The result is
/// exactly [`timeline_fnv`] over the shifted records.
pub(crate) struct ShiftedFold {
    /// Every record's head bytes, back to back.
    heads: Vec<u8>,
    /// Per record: end of its head in `heads`, start, end, layer.
    records: Vec<(usize, VirtualTime, VirtualTime, Option<usize>)>,
}

impl ShiftedFold {
    pub(crate) fn new(template: &[TimelineRecord]) -> Self {
        let mut heads = Vec::new();
        let records = template
            .iter()
            .map(|r| {
                record_head(r, &mut heads);
                (heads.len(), r.start, r.end, r.layer)
            })
            .collect();
        ShiftedFold { heads, records }
    }

    /// Folds the template, every record moved `shift` later, into `h`.
    pub(crate) fn fold(&self, h: u64, shift: TimeSpan) -> u64 {
        let mut from = 0;
        self.records.iter().fold(h, |h, &(to, start, end, layer)| {
            let h = fnv1a(h, &self.heads[from..to]);
            from = to;
            record_tail(h, start + shift, end + shift, layer)
        })
    }

    /// Records per fold.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_des::{merge_intervals, FNV_OFFSET};

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_seconds(s)
    }

    /// A fully simulated timeline with its batch-folded digest.
    fn store(records: Vec<TimelineRecord>) -> TimelineStore {
        let digest = (
            records.len() as u64,
            timeline_fnv(FNV_OFFSET, records.iter()),
        );
        TimelineStore::new(records, 0, TimeSpan::ZERO, 0, digest)
    }

    fn rec(
        label: &str,
        track: TimelineTrack,
        s: f64,
        e: f64,
        layer: Option<usize>,
    ) -> TimelineRecord {
        TimelineRecord {
            label: label.into(),
            track,
            start: t(s),
            end: t(e),
            layer,
        }
    }

    /// One 4 ms iteration starting at `k × 4 ms`.
    fn iteration(k: f64) -> Vec<TimelineRecord> {
        let at = |ms: f64| 1e-3 * (ms + 4.0 * k);
        vec![
            rec("fwd@g0", TimelineTrack::Gpu(0), at(0.0), at(1.5), Some(0)),
            rec("fwd@g1", TimelineTrack::Gpu(1), at(0.0), at(1.0), Some(0)),
            rec("ar", TimelineTrack::Network, at(1.5), at(3.0), None),
            rec("bwd@g0", TimelineTrack::Gpu(0), at(3.0), at(4.0), Some(1)),
        ]
    }

    fn report_of(store: TimelineStore, iterations: u64) -> SimReport {
        let mut r = SimReport::new(
            TimeSpan::from_millis(4.0 * iterations as f64),
            vec![TimeSpan::ZERO; 2],
            TimeSpan::ZERO,
            0,
            0,
            QueueStats::default(),
            NetObservation::default(),
            store,
        );
        r.bottleneck.iterations = iterations;
        r
    }

    #[test]
    fn replayed_store_reads_like_the_fully_simulated_one() {
        let all: Vec<TimelineRecord> = (0..7).flat_map(|k| iteration(f64::from(k))).collect();
        let oracle = report_of(store(all.clone()), 7);
        // Two simulated iterations; the second repeats five more times.
        let simulated: Vec<TimelineRecord> = all[..8].to_vec();
        let period = TimeSpan::from_millis(4.0);
        let shifted = ShiftedFold::new(&simulated[4..]);
        let mut fnv = timeline_fnv(FNV_OFFSET, simulated.iter());
        for j in 1..=5u64 {
            fnv = shifted.fold(fnv, period * j);
        }
        let replayed = report_of(TimelineStore::new(simulated, 4, period, 5, (28, fnv)), 7);

        assert_eq!(replayed.to_canonical_string(), oracle.to_canonical_string());
        assert_eq!(replayed.timeline().len(), 28);
        assert_eq!(replayed.timeline(), oracle.timeline());
        assert_eq!(replayed.per_layer_compute_s(), oracle.per_layer_compute_s());
        assert_eq!(replayed.gpu_utilization(9), oracle.gpu_utilization(9));
        assert_eq!(
            replayed.to_chrome_trace().unwrap(),
            oracle.to_chrome_trace().unwrap()
        );
        let summary = replayed.replay().expect("replayed");
        assert_eq!((summary.simulated, summary.synthesized), (2, 5));
        assert!(oracle.replay().is_none());
    }

    #[test]
    fn union_of_disjoint_intervals() {
        let u = merge_intervals(&mut vec![(t(0.0), t(1.0)), (t(2.0), t(3.0))]);
        assert_eq!(u, TimeSpan::from_seconds(2.0));
    }

    #[test]
    fn union_of_overlapping_intervals() {
        let u = merge_intervals(&mut vec![
            (t(0.0), t(2.0)),
            (t(1.0), t(3.0)),
            (t(2.5), t(2.8)),
        ]);
        assert_eq!(u, TimeSpan::from_seconds(3.0));
    }

    #[test]
    fn union_of_nothing_is_zero() {
        assert_eq!(merge_intervals(&mut vec![]), TimeSpan::ZERO);
    }

    #[test]
    fn report_accessors_and_ratio() {
        let report = SimReport::new(
            TimeSpan::from_seconds(10.0),
            vec![TimeSpan::from_seconds(6.0), TimeSpan::from_seconds(4.0)],
            TimeSpan::from_seconds(2.0),
            1234,
            7,
            QueueStats::default(),
            NetObservation::default(),
            store(vec![]),
        );
        assert_eq!(report.total_time_s(), 10.0);
        assert_eq!(report.compute_time_s(), 6.0);
        assert_eq!(report.comm_time_s(), 2.0);
        assert!((report.comm_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(report.bytes_transferred(), 1234);
        assert_eq!(report.tasks_executed(), 7);
    }

    #[test]
    fn utilization_profile_localizes_work() {
        // One task occupying the first half of a 2-second run.
        let report = SimReport::new(
            TimeSpan::from_seconds(2.0),
            vec![TimeSpan::from_seconds(1.0)],
            TimeSpan::ZERO,
            0,
            1,
            QueueStats::default(),
            NetObservation::default(),
            store(vec![TimelineRecord {
                label: "op".into(),
                track: TimelineTrack::Gpu(0),
                start: t(0.0),
                end: t(1.0),
                layer: Some(3),
            }]),
        );
        let profile = report.gpu_utilization(4);
        assert_eq!(profile.len(), 1);
        assert!((profile[0][0] - 1.0).abs() < 1e-9);
        assert!((profile[0][1] - 1.0).abs() < 1e-9);
        assert!(profile[0][2] < 1e-9);
        assert!(profile[0][3] < 1e-9);
    }

    #[test]
    fn per_layer_compute_attributes_time() {
        let report = SimReport::new(
            TimeSpan::from_seconds(2.0),
            vec![TimeSpan::from_seconds(1.0)],
            TimeSpan::ZERO,
            0,
            1,
            QueueStats::default(),
            NetObservation::default(),
            store(vec![TimelineRecord {
                label: "op".into(),
                track: TimelineTrack::Gpu(0),
                start: t(0.0),
                end: t(1.0),
                layer: Some(3),
            }]),
        );
        let per_layer = report.per_layer_compute_s();
        assert_eq!(per_layer.len(), 4);
        assert!((per_layer[3] - 1.0).abs() < 1e-12);
        assert_eq!(per_layer[0], 0.0);
    }

    #[test]
    fn chrome_trace_exports() {
        let report = SimReport::new(
            TimeSpan::from_seconds(1.0),
            vec![TimeSpan::from_seconds(1.0)],
            TimeSpan::ZERO,
            0,
            1,
            QueueStats::default(),
            NetObservation::default(),
            store(vec![TimelineRecord {
                label: "conv1@g0".into(),
                track: TimelineTrack::Gpu(0),
                start: t(0.0),
                end: t(1.0),
                layer: None,
            }]),
        );
        let json = report.to_chrome_trace().unwrap();
        assert!(json.contains("conv1@g0"));
        assert!(json.contains("\"ph\":\"X\""));
    }
}
