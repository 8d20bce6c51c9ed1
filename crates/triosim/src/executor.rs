//! The discrete-event executor: replays a task graph against a network
//! model, fast-forwarding virtual time from event to event.
//!
//! Resources follow the PyTorch execution model the paper assumes: each
//! GPU has one *serial* compute stream (operators on a GPU never overlap
//! each other), while transfers run on the network model and overlap
//! freely with computation — this is what lets DDP hide AllReduce behind
//! backward propagation.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

use triosim_des::{
    merge_intervals, EventId, EventQueue, QueueStats, RunBudget, TimeSpan, VirtualTime, FNV_OFFSET,
};
use triosim_faults::{FaultKind, FaultPlan, FaultSession};
use triosim_network::{FlowId, LinkFault, NetCommand, NetStatsSnapshot, NetworkModel, NodeId};
use triosim_obs::{
    AttrValue, AttributionAccumulator, AttributionState, BottleneckReport, DepTable, HotLink,
    IterationObservation, ProgressMonitor, Recorder, SelfProfiler, TaskClass,
};

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, ExecutorState, FaultState, OutageState, SimSnapshot,
};
use crate::error::SimError;
use crate::report::{
    timeline_fnv, FaultStats, ShiftedFold, SimReport, TimelineRecord, TimelineStore, TimelineTrack,
};
use crate::taskgraph::{TaskGraph, TaskId, TaskKind};

#[derive(Debug)]
enum Event {
    ComputeDone {
        gpu: usize,
        task: TaskId,
    },
    FlowDelivered {
        flow: FlowId,
    },
    /// Injection point of one timed fault from the session timeline.
    Fault {
        idx: usize,
    },
}

/// Everything one run is configured with besides its graph and network.
///
/// Each field feeds one hook of the single executor, and the hooks
/// compose: any combination runs the same engine loop. The default is a
/// plain one-iteration run. Observation is passive — sampling happens
/// between events, never as queue events — so recorders, progress and
/// the profiler leave the report's canonical bytes unchanged.
pub(crate) struct RunOptions<'a> {
    /// Back-to-back iterations of the whole run, including any the
    /// restored snapshot already completed.
    pub iterations: usize,
    /// Fault plan; an empty plan attaches nothing.
    pub faults: FaultPlan,
    /// Runaway guard; `None` attaches nothing.
    pub budget: Option<RunBudget>,
    /// Receives spans and metrics; `None` or a disabled recorder skips
    /// all instrumentation.
    pub recorder: Option<Box<dyn Recorder>>,
    /// Live wall-clock progress reporting.
    pub progress: Option<ProgressMonitor>,
    /// Virtual-time period between monitor samples.
    pub sample_period: TimeSpan,
    /// Host self-profiler (wall clock only).
    pub profiler: Option<&'a mut SelfProfiler>,
    /// Periodic boundary snapshots.
    pub checkpoint: Option<CheckpointConfig>,
    /// Boundary snapshot to resume from, already validated against the
    /// scenario's spec hash.
    pub restore: Option<SimSnapshot>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            iterations: 1,
            faults: FaultPlan::default(),
            budget: None,
            recorder: None,
            progress: None,
            sample_period: TimeSpan::from_millis(1.0),
            profiler: None,
            checkpoint: None,
            restore: None,
        }
    }
}

/// Executes `graph` against `network`, returning the run report.
///
/// Deterministic: identical inputs give identical reports.
///
/// # Panics
///
/// Panics if the graph deadlocks (a dependency cycle), which the
/// [`TaskGraph`] construction rules make impossible, or if a transfer's
/// endpoints are not connected in the network's topology (which
/// [`SimBuilder::try_run`](crate::SimBuilder::try_run) reports as
/// [`SimError::Partitioned`]).
pub fn execute(graph: &TaskGraph, network: &mut dyn NetworkModel) -> SimReport {
    execute_iterations(graph, network, 1)
}

/// Executes `graph` back-to-back `iterations` times on the same network
/// state, returning the aggregate report.
///
/// Network state persists across iterations — this is what lets the
/// photonic model amortize its circuit-establishment latency over a
/// training run instead of paying it every iteration.
///
/// # Panics
///
/// Same conditions as [`execute`], plus `iterations == 0`.
pub fn execute_iterations(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    iterations: usize,
) -> SimReport {
    let opts = RunOptions {
        iterations,
        ..RunOptions::default()
    };
    run(graph, network, opts).unwrap_or_else(|e| panic!("fault-free execution cannot fail: {e}"))
}

/// Runs `graph` on `network` with every feature `opts` asks for.
///
/// A restored run applies the snapshot's network half, rehydrates the
/// executor, and simulates only the remaining iterations; its report is
/// byte-identical to the uninterrupted run's.
///
/// # Errors
///
/// [`SimError::Partitioned`] when a transfer's endpoints have no
/// connecting path (never connected, or cut by an injected fault),
/// [`SimError::GpuLost`] when an injected GPU drop-out strands its tasks,
/// [`SimError::BudgetExceeded`] on a tripped budget, and
/// [`SimError::Checkpoint`] when a snapshot cannot be written or the
/// restored one is structurally invalid.
///
/// # Panics
///
/// Same conditions as [`execute_iterations`], plus a snapshot that
/// completed more iterations than the run requests.
pub(crate) fn run(
    graph: &TaskGraph,
    network: &mut dyn NetworkModel,
    opts: RunOptions<'_>,
) -> Result<SimReport, SimError> {
    assert!(opts.iterations > 0, "need at least one iteration");
    let completed = opts.restore.as_ref().map_or(0, |s| s.completed as usize);
    assert!(
        completed <= opts.iterations,
        "restore cannot exceed the requested iteration count"
    );
    if let Some(snap) = &opts.restore {
        network
            .restore_state(&snap.state.net)
            .map_err(|e| SimError::Checkpoint(CheckpointError::Corrupt(e.to_string())))?;
    }
    let mut ex = Executor::new(graph, network)
        .with_budget(opts.budget)
        .with_observability(opts.recorder, opts.progress, opts.sample_period)
        .with_faults(FaultSession::new(&opts.faults, graph.gpus()))
        .with_selfprof(opts.profiler)
        .with_checkpoint(opts.checkpoint);
    if let Some(snap) = &opts.restore {
        ex = ex.with_restored_state(completed, &snap.state)?;
    }
    ex.run(opts.iterations - completed)
}

/// Maps a topology node to a GPU index under the repo-wide platform
/// convention (`Platform::gpu_node(i) == NodeId(1 + i)`, `NodeId(0)` is
/// the host, nodes past `1 + gpus` are NICs/spines).
fn node_gpu(node: NodeId, gpus: usize) -> Option<usize> {
    (node.0 >= 1 && node.0 <= gpus).then(|| node.0 - 1)
}

struct GpuStream {
    ready: VecDeque<TaskId>,
    busy: bool,
    /// Cumulative busy time in integer ticks: exact, so the increments
    /// steady-state replay adds sum to byte-identical per-GPU figures.
    busy_time: TimeSpan,
}

/// Everything a report accumulates that an iteration adds to, as
/// integers: cumulative at a boundary, or one iteration's increments.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    gpu_busy: Vec<TimeSpan>,
    bytes: u64,
    queue: QueueStats,
    dispatches: [u64; 4],
    net: NetStatsSnapshot,
    attr: AttributionState,
}

impl Counters {
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            gpu_busy: self
                .gpu_busy
                .iter()
                .zip(&earlier.gpu_busy)
                .map(|(&a, &b)| a - b)
                .collect(),
            bytes: self.bytes - earlier.bytes,
            queue: self.queue.since(&earlier.queue),
            dispatches: std::array::from_fn(|i| self.dispatches[i] - earlier.dispatches[i]),
            net: self.net.since(&earlier.net),
            attr: self.attr.since(&earlier.attr),
        }
    }
}

/// The run's state at one quiescent iteration boundary.
struct Boundary {
    at: VirtualTime,
    /// Lengths of `timeline` and `comm_intervals` at the boundary.
    records: usize,
    comm: usize,
    counters: Counters,
}

/// One completed iteration, as steady-state replay compares it.
struct IterationStep {
    begin: VirtualTime,
    /// Its records in `timeline`, in canonical order.
    records: Range<usize>,
    /// Union length of its transfer intervals.
    comm: TimeSpan,
    counters: Counters,
}

/// Steady-state replay's memory between boundaries (DESIGN.md §12).
struct ReplayProbe {
    last: Boundary,
    /// The iteration that ended at `last`.
    step: Option<IterationStep>,
}

/// What steady-state replay synthesized, for the report.
struct Replayed {
    repeats: usize,
    period: TimeSpan,
    /// Index in `timeline` of the repeated iteration's first record.
    template: usize,
    /// Union length of the synthesized iterations' transfers.
    comm: TimeSpan,
    /// Event-queue counters of the synthesized iterations.
    queue: QueueStats,
}

/// Live state of one fault-injected run. Present only when the session
/// actually injects something: a fault-free run carries `None` and takes
/// byte-identical code paths to the plain executor.
struct FaultRuntime {
    session: FaultSession,
    /// Next timeline entry to arm.
    cursor: usize,
    /// The armed injection event. Fault events do not count as real
    /// work: they are cancelled the moment no real event remains, so a
    /// fault scheduled past the end of the workload can never extend the
    /// reported total time.
    fault_event: Option<EventId>,
    /// Faults that actually fired.
    injected: u64,
    /// Fired faults by kind: [degrade, fail, repair, gpu_drop].
    injected_by_kind: [u64; 4],
    /// Per-GPU seconds of compute added by slowdown/jitter dilation.
    lost_compute: Vec<f64>,
    /// Fail time of currently-down duplex links, for outage spans.
    outage_since: HashMap<(usize, usize), VirtualTime>,
}

impl FaultRuntime {
    fn new(session: FaultSession, gpus: usize) -> Self {
        FaultRuntime {
            session,
            cursor: 0,
            fault_event: None,
            injected: 0,
            injected_by_kind: [0; 4],
            lost_compute: vec![0.0; gpus],
            outage_since: HashMap::new(),
        }
    }
}

struct Executor<'a> {
    graph: &'a TaskGraph,
    network: &'a mut dyn NetworkModel,
    queue: EventQueue<Event>,
    indegree: Vec<usize>,
    dependents: Vec<Vec<TaskId>>,
    gpus: Vec<GpuStream>,
    flow_task: HashMap<FlowId, TaskId>,
    flow_event: HashMap<FlowId, EventId>,
    comm_intervals: Vec<(VirtualTime, VirtualTime)>,
    timeline: Vec<TimelineRecord>,
    /// Running timeline digest: `(count, FNV state)` over all records
    /// digested so far (including any pre-restore prefix, whose records
    /// are *not* in `timeline`), plus the index of the first
    /// not-yet-digested record in `timeline`. Advanced at every iteration
    /// boundary, so each record is hashed exactly once and the report
    /// receives the finished digest.
    tl_digest: (u64, u64),
    tl_mark: usize,
    completed: usize,
    bytes_transferred: u64,
    // ------- observability (all inert unless `sample_period`/`observing`) -------
    recorder: Option<Box<dyn Recorder>>,
    progress: Option<ProgressMonitor>,
    /// True when a live, enabled recorder is attached.
    observing: bool,
    /// Virtual time between monitor samples; `Some` when a recorder or
    /// progress monitor is attached. Samples are taken between events,
    /// never queued.
    sample_period: Option<TimeSpan>,
    /// Monitor samples taken so far (the `tick` dispatch metric).
    samples: u64,
    /// The next sampling instant of the current iteration.
    next_sample: Option<VirtualTime>,
    /// Pending compute/flow events; an armed fault is cancelled when
    /// this reaches zero.
    pending_real: usize,
    /// Per-kind dispatch counts: [compute, flow, tick, fault]. The tick
    /// slot stays zero (samples are not events); it keeps the snapshot
    /// format's four slots.
    dispatches: [u64; 4],
    // ------- fault injection (both `None` on fault-free runs) -------
    faults: Option<FaultRuntime>,
    /// Set when the run must stop early with a structured error — an
    /// injected fault made the remaining work impossible, or the run
    /// budget tripped. Unwinds the run instead of a hang or panic.
    stop_error: Option<SimError>,
    // ------- runaway guard (`None` on unbudgeted runs) -------
    /// Per-run budget; `None` keeps the exact pre-budget code path.
    budget: Option<RunBudget>,
    /// Real (compute/flow) events delivered across all iterations;
    /// the budget's event axis counts these, never fault injections.
    budget_events: u64,
    /// Iteration currently executing (jitter coordinate).
    current_iter: usize,
    /// Global index of this run's first iteration: non-zero only when
    /// resumed from a snapshot, so per-iteration coordinates (jitter,
    /// logs) match the uninterrupted run's.
    iter_offset: usize,
    /// True when resumed from a snapshot.
    resumed: bool,
    /// Virtual time at which each completed iteration ended.
    iter_ends: Vec<VirtualTime>,
    // ------- steady-state replay (`None` where it cannot engage) -------
    replay: Option<ReplayProbe>,
    replayed: Option<Replayed>,
    /// Wall-clock seconds spent synthesizing replayed iterations.
    replay_wall_s: f64,
    prev_link_busy: Vec<f64>,
    prev_sample_at: VirtualTime,
    collective_of_last: HashMap<TaskId, usize>,
    // ------- bottleneck attribution (always on: pure virtual-time state) -------
    attr: AttributionAccumulator,
    /// Per-task start/finish times of the current iteration. A compute
    /// task starts when its GPU stream picks it up, a transfer when it is
    /// sent, a barrier when it completes.
    attr_start: Vec<Option<VirtualTime>>,
    attr_end: Vec<Option<VirtualTime>>,
    /// The compute task that freed this task's GPU stream, per task.
    attr_gpu_pred: Vec<Option<u32>>,
    /// Most recently finished compute task per GPU, this iteration.
    last_done: Vec<Option<u32>>,
    /// Virtual time the current iteration's roots were seeded.
    iter_begin: VirtualTime,
    // ------- checkpointing (`None` on ordinary runs) -------
    /// When set, a snapshot is written at every `every`-th iteration
    /// boundary — the quiescent instants where the queue is drained.
    ckpt: Option<CheckpointConfig>,
    // ------- host self-profiling (`None` keeps the unprofiled hot loop) -------
    selfprof: Option<&'a mut SelfProfiler>,
    /// Cached `selfprof.is_some_and(enabled)`, tested in the hot loop.
    profiling: bool,
    /// Wall-clock seconds spent inside the network model.
    net_wall_s: f64,
    net_wall_calls: u64,
}

impl<'a> Executor<'a> {
    fn new(graph: &'a TaskGraph, network: &'a mut dyn NetworkModel) -> Self {
        let n = graph.len();
        let gpus = graph.gpus();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, task) in graph.tasks().iter().enumerate() {
            indegree[i] = task.deps.len();
            for d in &task.deps {
                dependents[d.0].push(TaskId(i));
            }
        }
        let labels = graph.tasks().iter().map(|t| t.label.clone()).collect();
        let classes = graph
            .tasks()
            .iter()
            .map(|t| match t.kind {
                TaskKind::Compute { gpu, .. } => TaskClass::Compute { gpu },
                TaskKind::Transfer { src, dst, .. } => TaskClass::Comm {
                    src_gpu: node_gpu(src, gpus),
                    dst_gpu: node_gpu(dst, gpus),
                },
                TaskKind::Barrier => TaskClass::Sync,
            })
            .collect();
        let deps = DepTable::new(
            graph
                .tasks()
                .iter()
                .map(|t| t.deps.iter().map(|d| d.0 as u32)),
        );
        Executor {
            graph,
            network,
            queue: EventQueue::new(),
            indegree,
            dependents,
            gpus: (0..graph.gpus())
                .map(|_| GpuStream {
                    ready: VecDeque::new(),
                    busy: false,
                    busy_time: TimeSpan::ZERO,
                })
                .collect(),
            flow_task: HashMap::new(),
            flow_event: HashMap::new(),
            comm_intervals: Vec::new(),
            timeline: Vec::new(),
            tl_digest: (0, FNV_OFFSET),
            tl_mark: 0,
            completed: 0,
            bytes_transferred: 0,
            recorder: None,
            progress: None,
            observing: false,
            sample_period: None,
            samples: 0,
            next_sample: None,
            pending_real: 0,
            dispatches: [0; 4],
            faults: None,
            stop_error: None,
            budget: None,
            budget_events: 0,
            current_iter: 0,
            iter_offset: 0,
            resumed: false,
            iter_ends: Vec::new(),
            replay: None,
            replayed: None,
            replay_wall_s: 0.0,
            prev_link_busy: Vec::new(),
            prev_sample_at: VirtualTime::ZERO,
            collective_of_last: HashMap::new(),
            attr: AttributionAccumulator::new(gpus, labels, classes, deps),
            attr_start: vec![None; n],
            attr_end: vec![None; n],
            attr_gpu_pred: vec![None; n],
            last_done: vec![None; gpus],
            iter_begin: VirtualTime::ZERO,
            ckpt: None,
            selfprof: None,
            profiling: false,
            net_wall_s: 0.0,
            net_wall_calls: 0,
        }
    }

    /// Attaches a host self-profiler. Wall clock only; virtual-time
    /// state and the report stay byte-identical.
    fn with_selfprof(mut self, prof: Option<&'a mut SelfProfiler>) -> Self {
        self.profiling = prof.as_ref().is_some_and(|p| p.is_enabled());
        self.selfprof = prof;
        self
    }

    /// Attaches a recorder and a progress monitor. A recorder receives
    /// per-operator and per-collective spans, per-kind dispatch counters,
    /// and gauges (queue depth, in-flight flows, per-link utilization)
    /// sampled every `sample_period` of virtual time while either
    /// observer is present.
    fn with_observability(
        mut self,
        recorder: Option<Box<dyn Recorder>>,
        progress: Option<ProgressMonitor>,
        sample_period: TimeSpan,
    ) -> Self {
        self.observing = recorder.as_ref().is_some_and(|r| r.enabled());
        if self.observing || progress.is_some() {
            self.sample_period = Some(sample_period);
        }
        if self.observing {
            for (ci, meta) in self.graph.collectives().iter().enumerate() {
                self.collective_of_last.insert(meta.last, ci);
            }
        }
        self.recorder = recorder;
        self.progress = progress;
        self
    }

    /// Attaches a fault session unless it is empty, which keeps the
    /// fault-free code path. The fault timeline spans the whole
    /// multi-iteration run (times are absolute, not per-iteration).
    fn with_faults(mut self, session: FaultSession) -> Self {
        if !session.is_empty() {
            let gpus = self.gpus.len();
            self.faults = Some(FaultRuntime::new(session, gpus));
        }
        self
    }

    /// Attaches a run budget, which spans the whole multi-iteration run.
    /// `None` keeps the hot loop at one `Option` discriminant test per
    /// event.
    fn with_budget(mut self, budget: Option<RunBudget>) -> Self {
        self.budget = budget;
        self
    }

    /// Enables periodic boundary snapshots to `ck.path`.
    fn with_checkpoint(mut self, ck: Option<CheckpointConfig>) -> Self {
        self.ckpt = ck;
        self
    }

    /// Rehydrates the executor from a quiescent-boundary snapshot taken
    /// after `completed` iterations: the clock, queue statistics, and
    /// every accumulated counter and record resume exactly where the
    /// interrupted run left them. Structural mismatches (wrong GPU
    /// count, malformed fault state) are typed errors — the spec hash
    /// upstream should make them impossible, but a hand-edited snapshot
    /// must fail loudly, not corrupt the run.
    fn with_restored_state(
        mut self,
        completed: usize,
        st: &ExecutorState,
    ) -> Result<Self, SimError> {
        let corrupt = |msg: String| SimError::Checkpoint(CheckpointError::Corrupt(msg));
        if st.dispatches.len() != 4 {
            return Err(corrupt(format!(
                "expected 4 dispatch counters, found {}",
                st.dispatches.len()
            )));
        }
        if st.gpu_busy.len() != self.gpus.len() {
            return Err(corrupt(format!(
                "snapshot has {} GPUs, scenario has {}",
                st.gpu_busy.len(),
                self.gpus.len()
            )));
        }
        if st.iter_ends.len() != completed {
            return Err(corrupt(format!(
                "snapshot claims {completed} completed iterations but records {} boundary times",
                st.iter_ends.len()
            )));
        }
        self.queue = EventQueue::starting_at_with_stats(st.now, st.queue);
        self.prev_sample_at = st.now;
        self.iter_begin = st.now;
        self.iter_offset = completed;
        self.resumed = true;
        for (gpu, busy) in self.gpus.iter_mut().zip(&st.gpu_busy) {
            gpu.busy_time = *busy;
        }
        self.dispatches = [
            st.dispatches[0],
            st.dispatches[1],
            st.dispatches[2],
            st.dispatches[3],
        ];
        // Snapshots store the merged union; further raw intervals simply
        // append and the report's final merge folds them in exactly.
        self.comm_intervals.clone_from(&st.comm_intervals);
        // Pre-restore timeline records exist only as a digest: seed the
        // running digest with it, so both further snapshots and the
        // report's `timeline_hash` continue the interrupted fold. The
        // record list itself restarts empty, so a restored run's
        // timeline *export* covers only post-restore iterations.
        self.tl_digest = (st.timeline_count, st.timeline_fnv);
        self.tl_mark = 0;
        self.bytes_transferred = st.bytes_transferred;
        self.iter_ends.clone_from(&st.iter_ends);
        self.budget_events = st.budget.events;
        self.attr.restore(&st.attr).map_err(corrupt)?;
        match (&mut self.faults, &st.faults) {
            (Some(fr), Some(fs)) => {
                if fs.injected_by_kind.len() != 4 {
                    return Err(corrupt(format!(
                        "expected 4 per-kind fault counters, found {}",
                        fs.injected_by_kind.len()
                    )));
                }
                if fs.lost_compute_bits.len() != self.gpus.len() {
                    return Err(corrupt(format!(
                        "fault state has {} GPUs of lost compute, scenario has {}",
                        fs.lost_compute_bits.len(),
                        self.gpus.len()
                    )));
                }
                let cursor = fs.cursor as usize;
                if cursor > fr.session.timeline().len() {
                    return Err(corrupt(format!(
                        "fault cursor {cursor} is past the {}-entry fault timeline",
                        fr.session.timeline().len()
                    )));
                }
                fr.cursor = cursor;
                fr.injected = fs.injected;
                fr.injected_by_kind = [
                    fs.injected_by_kind[0],
                    fs.injected_by_kind[1],
                    fs.injected_by_kind[2],
                    fs.injected_by_kind[3],
                ];
                fr.lost_compute = fs
                    .lost_compute_bits
                    .iter()
                    .map(|&bits| f64::from_bits(bits))
                    .collect();
                fr.outage_since = fs
                    .outages
                    .iter()
                    .map(|o| ((o.src as usize, o.dst as usize), o.since))
                    .collect();
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(corrupt(
                    "snapshot lacks fault state but the scenario has a fault plan".to_string(),
                ))
            }
            (None, Some(_)) => {
                return Err(corrupt(
                    "snapshot carries fault state but the scenario has no fault plan".to_string(),
                ))
            }
        }
        Ok(self)
    }

    /// Serializes the current (quiescent) state and writes it
    /// crash-safely over the configured snapshot path.
    ///
    /// Called only at iteration boundaries, where `run_once` has drained
    /// the queue and cancelled any armed fault event — so the state
    /// reduces to accumulated counters and records, and the armed-fault
    /// invariant (`fault_event == None`) holds.
    fn write_checkpoint(&mut self) -> Result<(), SimError> {
        // Compact the raw interval list into its union in place: the
        // report's union length is invariant under this (union is
        // associative and idempotent), and it keeps every snapshot —
        // and the run's own memory — proportional to the iteration
        // count instead of the event count.
        merge_intervals(&mut self.comm_intervals);
        let ck = self.ckpt.as_ref().expect("checkpointing is configured");
        let net = self.network.checkpoint_state().ok_or_else(|| {
            SimError::Checkpoint(CheckpointError::Unsupported(
                "network model has in-flight state or does not expose snapshots".to_string(),
            ))
        })?;
        let faults = self.faults.as_ref().map(|fr| {
            debug_assert!(
                fr.fault_event.is_none(),
                "boundary invariant: fault events are cancelled when the queue drains"
            );
            let mut outages: Vec<OutageState> = fr
                .outage_since
                .iter()
                .map(|(&(src, dst), &since)| OutageState {
                    src: src as u64,
                    dst: dst as u64,
                    since,
                })
                .collect();
            outages.sort_by_key(|o| (o.src, o.dst));
            FaultState {
                cursor: fr.cursor as u64,
                injected: fr.injected,
                injected_by_kind: fr.injected_by_kind.to_vec(),
                lost_compute_bits: fr.lost_compute.iter().map(|s| s.to_bits()).collect(),
                outages,
            }
        });
        let snap = SimSnapshot {
            checkpoint: checkpoint::SNAPSHOT_MAGIC.to_string(),
            version: checkpoint::SNAPSHOT_VERSION,
            spec_hash: format!("{:016x}", ck.spec_hash),
            completed: (self.current_iter + 1) as u64,
            state: ExecutorState {
                now: self.queue.now(),
                queue: *self.queue.stats(),
                dispatches: self.dispatches.to_vec(),
                gpu_busy: self.gpus.iter().map(|g| g.busy_time).collect(),
                comm_intervals: self.comm_intervals.clone(),
                timeline_count: self.tl_digest.0,
                timeline_fnv: self.tl_digest.1,
                bytes_transferred: self.bytes_transferred,
                iter_ends: self.iter_ends.clone(),
                budget: triosim_des::BudgetProgress {
                    events: self.budget_events,
                },
                attr: self.attr.snapshot(),
                net,
                faults,
            },
        };
        checkpoint::write_snapshot(&ck.path, &snap).map_err(SimError::Checkpoint)
    }

    /// Folds the timeline records accumulated since the last fold (one
    /// iteration's) into the running digest. Each segment is sorted on
    /// its own: iterations occupy disjoint, ordered spans of virtual
    /// time, so segment-by-segment folding equals the whole-run sorted
    /// fold, and each record is hashed exactly once.
    fn fold_timeline_digest(&mut self) {
        // Sorting the segment *in place* keeps the fold's memory access
        // contiguous, and leaves the whole timeline sorted for the report
        // (segments occupy disjoint, ordered spans, so sorted segments
        // concatenate into the sorted whole; the stable sort keeps push
        // order among equal keys either way).
        let fresh = &mut self.timeline[self.tl_mark..];
        fresh.sort_by_key(|r| (r.start, r.end));
        self.tl_digest = (
            self.tl_digest.0 + fresh.len() as u64,
            timeline_fnv(self.tl_digest.1, fresh.iter()),
        );
        self.tl_mark = self.timeline.len();
    }

    /// Runs `iterations` back-to-back iterations, folding each into the
    /// attribution accumulator and recording its end time. On error the
    /// loop stops with the structured error; completed-iteration state
    /// (`iter_ends`, attribution) remains valid for inspection.
    fn run_iterations(&mut self, iterations: usize) -> Result<(), SimError> {
        let base_indegree = self.indegree.clone();
        for iter in 0..iterations {
            self.current_iter = self.iter_offset + iter;
            if iter > 0 {
                self.indegree.clone_from(&base_indegree);
                self.completed = 0;
            }
            self.run_once();
            if let Some(e) = self.stop_error.take() {
                return Err(e);
            }
            assert_eq!(
                self.completed,
                self.graph.len(),
                "execution deadlocked: {} of {} tasks completed (iteration {})",
                self.completed,
                self.graph.len(),
                self.current_iter
            );
            self.iter_ends.push(self.queue.now());
            self.fold_timeline_digest();
            // Fold the completed iteration into the bottleneck
            // attribution (pure virtual-time state, always on).
            self.attr.record_iteration(&IterationObservation {
                begin: self.iter_begin,
                end: self.queue.now(),
                start: &self.attr_start,
                finish: &self.attr_end,
                gpu_pred: &self.attr_gpu_pred,
            });
            if self.observing {
                let now = self.queue.now();
                if let Some(r) = self.recorder.as_mut() {
                    r.instant(
                        now,
                        "executor",
                        "iteration_end",
                        &[("iteration", AttrValue::U64(self.current_iter as u64))],
                    );
                }
            }
            // The boundary is quiescent here: the queue is drained and
            // any armed fault was cancelled, so a snapshot reduces to
            // accumulated counters and records.
            let snapshot_due = self
                .ckpt
                .as_ref()
                .is_some_and(|ck| (self.current_iter + 1).is_multiple_of(ck.every));
            if snapshot_due {
                let t0 = self.profiling.then(Instant::now);
                self.write_checkpoint()?;
                if let (Some(t0), Some(p)) = (t0, self.selfprof.as_deref_mut()) {
                    let s = t0.elapsed().as_secs_f64();
                    p.add_path(&["engine_loop", "checkpoint_write"], s, 1);
                }
            }
            if self.replay.is_some() && self.replay_boundary(iterations - iter - 1)? {
                break;
            }
        }
        Ok(())
    }

    /// The cumulative counters replay compares and extends, or `None`
    /// when the network cannot snapshot its statistics.
    fn counters(&self) -> Option<Counters> {
        Some(Counters {
            gpu_busy: self.gpus.iter().map(|g| g.busy_time).collect(),
            bytes: self.bytes_transferred,
            queue: *self.queue.stats(),
            dispatches: self.dispatches,
            net: self.network.stats_snapshot()?,
            attr: self.attr.snapshot(),
        })
    }

    /// Arms steady-state replay where it is exact by construction: an
    /// iteration-invariant network with exact statistics snapshots, no
    /// fault plan, no enabled recorder or progress monitor, no
    /// checkpoint or restore, and at least three iterations (two to
    /// compare, one to synthesize). Everything else keeps the plain
    /// loop and pays nothing.
    fn arm_replay(&mut self, iterations: usize) {
        let eligible = iterations >= 3
            && self.faults.is_none()
            && self.sample_period.is_none()
            && self.ckpt.is_none()
            && !self.resumed
            && self.network.iteration_invariant();
        if let Some(counters) = eligible.then(|| self.counters()).flatten() {
            self.replay = Some(ReplayProbe {
                last: Boundary {
                    at: self.queue.now(),
                    records: self.timeline.len(),
                    comm: self.comm_intervals.len(),
                    counters,
                },
                step: None,
            });
        }
    }

    /// Steady-state replay's boundary hook (DESIGN.md §12). Compares the
    /// iteration that just ended with the one before it, moved one period
    /// later. On an exact match, and when the run's budget provably
    /// cannot trip, it synthesizes the `remaining` iterations and returns
    /// true; otherwise the run keeps simulating and the next boundary
    /// compares again.
    fn replay_boundary(&mut self, remaining: usize) -> Result<bool, SimError> {
        let Some(mut probe) = self.replay.take() else {
            return Ok(false);
        };
        let here = Boundary {
            at: self.queue.now(),
            records: self.timeline.len(),
            comm: self.comm_intervals.len(),
            counters: self
                .counters()
                .expect("replay is armed on snapshotting networks"),
        };
        let step = IterationStep {
            begin: probe.last.at,
            records: probe.last.records..here.records,
            comm: merge_intervals(&mut self.comm_intervals[probe.last.comm..].to_vec()),
            counters: here.counters.since(&probe.last.counters),
        };
        let prev = probe.step.replace(step);
        probe.last = here;
        let step = probe.step.as_ref().expect("just stored");
        let period = probe.last.at - step.begin;
        let repeats = prev.is_some_and(|prev| {
            remaining > 0 && prev.begin + period == step.begin && self.repeats(&prev, step, period)
        });
        if !repeats {
            self.replay = Some(probe);
            return Ok(false);
        }
        // Deterministic budget axes are monotone: if the whole run's
        // final event count and end time pass, no event would trip. If
        // not, simulate on so the trip happens live, with its exact kind
        // and limit.
        if let Some(budget) = &self.budget {
            let events = self.budget_events + remaining as u64 * step.counters.queue.delivered();
            let end = probe.last.at + period * remaining as u64;
            if budget.deterministic_only().check(events, end).is_some() {
                return Ok(false);
            }
        }
        self.synthesize(step, remaining, period)?;
        Ok(true)
    }

    /// True when `step` is `prev` moved `period` later: the same records
    /// (label, track, layer, and start/end exactly `period` later, in
    /// canonical order) and the same integer increments.
    fn repeats(&self, prev: &IterationStep, step: &IterationStep, period: TimeSpan) -> bool {
        let (a, b) = (
            &self.timeline[prev.records.clone()],
            &self.timeline[step.records.clone()],
        );
        let (p, c) = (&prev.counters, &step.counters);
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.start + period == y.start
                    && x.end + period == y.end
                    && x.track == y.track
                    && x.layer == y.layer
                    && x.label == y.label
            })
            && prev.comm == step.comm
            && (&p.gpu_busy, p.bytes, p.queue, p.dispatches, &p.net)
                == (&c.gpu_busy, c.bytes, c.queue, c.dispatches, &c.net)
            && p.attr.shifted(period) == c.attr
    }

    /// Synthesizes `repeats` further copies of `step`, each one `period`
    /// later than the one before: their time-shifted records fold
    /// straight into the digest without being materialized, and every
    /// integer increment is added `repeats` times. The wall-clock
    /// deadline is still checked once per synthesized iteration.
    fn synthesize(
        &mut self,
        step: &IterationStep,
        repeats: usize,
        period: TimeSpan,
    ) -> Result<(), SimError> {
        let t0 = self.profiling.then(Instant::now);
        let template = ShiftedFold::new(&self.timeline[step.records.clone()]);
        let (count, mut fnv) = self.tl_digest;
        for j in 1..=repeats {
            if let Some((kind, limit)) = self.budget.as_ref().and_then(RunBudget::wall_exceeded) {
                return Err(SimError::BudgetExceeded { kind, limit });
            }
            fnv = template.fold(fnv, period * j as u64);
        }
        self.tl_digest = (count + (template.len() * repeats) as u64, fnv);
        let (c, n) = (&step.counters, repeats as u64);
        for (gpu, &busy) in self.gpus.iter_mut().zip(&c.gpu_busy) {
            gpu.busy_time += busy * n;
        }
        self.bytes_transferred += c.bytes * n;
        for (total, &d) in self.dispatches.iter_mut().zip(&c.dispatches) {
            *total += d * n;
        }
        self.network.absorb_stats(&c.net.scaled(n));
        self.attr.absorb(&c.attr, n, period * n);
        self.replayed = Some(Replayed {
            repeats,
            period,
            template: step.records.start,
            comm: step.comm * n,
            queue: c.queue.scaled(n),
        });
        if let Some(t0) = t0 {
            self.replay_wall_s += t0.elapsed().as_secs_f64();
        }
        Ok(())
    }

    fn run(mut self, iterations: usize) -> Result<SimReport, SimError> {
        self.arm_replay(iterations);
        let engine_t = self.profiling.then(Instant::now);
        if let Err(e) = self.run_iterations(iterations) {
            // Close observability sinks so partial traces flush, then
            // surface the structured error instead of the deadlock
            // panic the unfinished graph would otherwise trigger.
            let total = self.queue.now() - VirtualTime::ZERO;
            let done = self.iter_ends.len() as u64 + 1;
            self.flush_selfprof(engine_t, done);
            self.finish_observability(total, None);
            return Err(e);
        }
        self.flush_selfprof(engine_t, iterations as u64);

        let report_t = self.profiling.then(Instant::now);
        let replayed = self.replayed.take();
        let synthesized = replayed
            .as_ref()
            .map_or(TimeSpan::ZERO, |r| r.period * r.repeats as u64);
        let total = self.queue.now() - VirtualTime::ZERO + synthesized;
        let bottleneck = self.build_bottleneck(total);
        self.finish_observability(total, Some(&bottleneck));
        let per_gpu_compute = self.gpus.iter().map(|g| g.busy_time).collect();
        let mut queue = *self.queue.stats();
        let mut comm_busy = merge_intervals(&mut self.comm_intervals);
        let records = self.timeline;
        let (template, period, repeats) = match &replayed {
            Some(r) => {
                queue.merge(&r.queue);
                comm_busy += r.comm;
                (r.template, r.period, r.repeats)
            }
            None => (records.len(), TimeSpan::ZERO, 0),
        };
        let timeline = TimelineStore::new(records, template, period, repeats, self.tl_digest);
        let mut report = SimReport::new(
            total,
            per_gpu_compute,
            comm_busy,
            self.bytes_transferred,
            // Restored runs execute only the remaining iterations but
            // report the whole run: count from the global offset.
            self.graph.len() * (self.iter_offset + iterations),
            queue,
            self.network.observe(),
            timeline,
        );
        report.set_bottleneck(bottleneck);
        if let Some(fr) = &self.faults {
            report.set_fault_stats(FaultStats {
                faults_injected: fr.injected,
                link_degrades: fr.injected_by_kind[0],
                link_fails: fr.injected_by_kind[1],
                link_repairs: fr.injected_by_kind[2],
                gpu_drops: fr.injected_by_kind[3],
                lost_compute_s: fr.lost_compute.clone(),
            });
        }
        // Packet counters exist only on packet-fidelity runs, so
        // flow-tier reports stay byte-identical to pre-packet builds.
        if let Some(ps) = self.network.observe_packets() {
            report.set_packet_stats(ps);
        }
        if let (Some(t0), Some(p)) = (report_t, self.selfprof.as_deref_mut()) {
            p.add_path(&["report_build"], t0.elapsed().as_secs_f64(), 1);
        }
        Ok(report)
    }

    /// Folds the accumulated attribution state into the run's
    /// [`BottleneckReport`], ranking links by busy time.
    fn build_bottleneck(&self, total: TimeSpan) -> BottleneckReport {
        let lost = self.faults.as_ref().map(|fr| fr.lost_compute.as_slice());
        let total_s = total.as_seconds();
        let links = self
            .network
            .observe_links()
            .into_iter()
            .map(|l| HotLink {
                label: l.label,
                busy_s: l.busy_s,
                bytes: l.bytes,
                utilization: if total_s > 0.0 {
                    (l.busy_s / total_s).clamp(0.0, 1.0)
                } else {
                    0.0
                },
            })
            .collect();
        self.attr.finish(links, lost)
    }

    /// Records the engine-loop wall time (and the network model's share
    /// of it) into the attached self-profiler, if any.
    fn flush_selfprof(&mut self, engine_t: Option<Instant>, iterations: u64) {
        let Some(t0) = engine_t else {
            return;
        };
        let engine_s = t0.elapsed().as_secs_f64();
        let (net_s, net_calls) = (self.net_wall_s, self.net_wall_calls);
        let replayed = self.replayed.as_ref().map(|r| r.repeats as u64);
        let replay_s = self.replay_wall_s;
        if let Some(p) = self.selfprof.as_deref_mut() {
            p.add_path(&["engine_loop"], engine_s, iterations);
            p.add_path(&["engine_loop", "network"], net_s, net_calls);
            if let Some(repeats) = replayed {
                p.add_path(&["engine_loop", "replay"], replay_s, repeats);
            }
        }
    }

    /// Emits the end-of-run metric dump and closes the recorder.
    /// `bottleneck` is `None` only on error paths (no report exists).
    fn finish_observability(&mut self, total: TimeSpan, bottleneck: Option<&BottleneckReport>) {
        let stats = *self.queue.stats();
        if let Some(p) = self.progress.as_mut() {
            p.report_done(self.queue.now(), stats.delivered());
        }
        if !self.observing {
            return;
        }
        let net = self.network.observe();
        let links = self.network.observe_links();
        let now = self.queue.now();
        let total_s = total.as_seconds();
        let gpu_busy: Vec<f64> = self.gpus.iter().map(|g| g.busy_time.as_seconds()).collect();
        let dispatches = self.dispatches;
        let fault_stats = self
            .faults
            .as_ref()
            .map(|fr| (fr.injected_by_kind, fr.lost_compute.clone()));
        let Some(r) = self.recorder.as_mut() else {
            return;
        };
        r.counter_add(
            "triosim_events_scheduled_total",
            &[],
            stats.scheduled() as f64,
        );
        r.counter_add(
            "triosim_events_delivered_total",
            &[],
            stats.delivered() as f64,
        );
        r.counter_add(
            "triosim_events_cancelled_total",
            &[],
            stats.cancelled() as f64,
        );
        r.counter_add(
            "triosim_queue_compactions_total",
            &[],
            stats.compactions() as f64,
        );
        r.gauge_set(
            now,
            "triosim_queue_max_pending",
            &[],
            stats.max_pending() as f64,
        );
        for (kind, count) in [
            ("compute", dispatches[0]),
            ("flow", dispatches[1]),
            ("tick", self.samples),
        ] {
            r.counter_add(
                "triosim_events_dispatched_total",
                &[("kind", kind)],
                count as f64,
            );
        }
        // Fault metrics exist only on fault-injected runs, so observed
        // fault-free output stays byte-identical to pre-fault builds.
        if let Some((by_kind, lost)) = &fault_stats {
            r.counter_add(
                "triosim_events_dispatched_total",
                &[("kind", "fault")],
                dispatches[3] as f64,
            );
            for (kind, n) in [
                ("link_degrade", by_kind[0]),
                ("link_fail", by_kind[1]),
                ("link_repair", by_kind[2]),
                ("gpu_drop", by_kind[3]),
            ] {
                r.counter_add("triosim_faults_injected_total", &[("kind", kind)], n as f64);
            }
            for (g, s) in lost.iter().enumerate() {
                let label = g.to_string();
                r.gauge_set(
                    now,
                    "triosim_fault_lost_compute_seconds",
                    &[("gpu", &label)],
                    *s,
                );
            }
        }
        r.counter_add(
            "triosim_net_bytes_delivered_total",
            &[],
            net.bytes_delivered as f64,
        );
        r.counter_add(
            "triosim_net_flows_completed_total",
            &[],
            net.flows_completed as f64,
        );
        r.counter_add(
            "triosim_net_reallocations_total",
            &[],
            net.reallocations as f64,
        );
        r.counter_add("triosim_net_reschedules_total", &[], net.reschedules as f64);
        // Packet metrics exist only on packet-fidelity runs, so observed
        // flow-tier output stays byte-identical to pre-packet builds.
        if let Some(ps) = self.network.observe_packets() {
            r.counter_add("triosim_pkt_packets_total", &[], ps.packets_sent as f64);
            r.counter_add("triosim_pkt_retransmits_total", &[], ps.retransmits as f64);
            r.counter_add("triosim_pkt_drops_total", &[], ps.drops as f64);
            r.counter_add("triosim_pkt_ecn_marks_total", &[], ps.ecn_marks as f64);
            r.gauge_set(
                now,
                "triosim_pkt_queue_depth_max",
                &[],
                ps.max_queue_depth as f64,
            );
        }
        for l in &links {
            r.counter_add("triosim_link_bytes_total", &[("link", &l.label)], l.bytes);
            r.counter_add(
                "triosim_link_busy_seconds_total",
                &[("link", &l.label)],
                l.busy_s,
            );
            if total_s > 0.0 {
                r.gauge_set(
                    now,
                    "triosim_link_utilization_avg",
                    &[("link", &l.label)],
                    (l.busy_s / total_s).clamp(0.0, 1.0),
                );
            }
        }
        for (g, busy) in gpu_busy.iter().enumerate() {
            let label = g.to_string();
            r.gauge_set(now, "triosim_gpu_busy_seconds", &[("gpu", &label)], *busy);
        }
        // Bottleneck attribution: the final iteration's critical path as
        // spans on a dedicated track, plus the aggregate gauges.
        if let Some(bn) = bottleneck {
            for &(task, s, f) in self.attr.last_path() {
                let name = self.attr.label(task as usize);
                r.span(
                    "critical_path",
                    name,
                    s,
                    f,
                    &[("task", AttrValue::U64(u64::from(task)))],
                );
            }
            r.gauge_set(
                now,
                "triosim_critical_path_seconds",
                &[],
                bn.critical_path_s,
            );
            r.gauge_set(
                now,
                "triosim_exposed_comm_fraction",
                &[],
                bn.exposed_comm_fraction,
            );
            for (g, b) in bn.per_gpu.iter().enumerate() {
                let label = g.to_string();
                r.gauge_set(
                    now,
                    "triosim_gpu_exposed_comm_seconds",
                    &[("gpu", &label)],
                    b.exposed_comm_s,
                );
                r.gauge_set(
                    now,
                    "triosim_gpu_idle_seconds",
                    &[("gpu", &label)],
                    b.idle_s,
                );
            }
            r.gauge_set(
                now,
                "triosim_stragglers_flagged",
                &[],
                bn.stragglers.len() as f64,
            );
        }
        r.gauge_set(now, "triosim_sim_time_seconds", &[], total_s);
        if let Err(e) = r.finish() {
            eprintln!("warning: observability sink error: {e}");
        }
    }

    /// Seeds the graph's roots at the current virtual time and drains the
    /// event queue.
    fn run_once(&mut self) {
        self.iter_begin = self.queue.now();
        self.attr_start.fill(None);
        self.attr_end.fill(None);
        self.attr_gpu_pred.fill(None);
        self.last_done.fill(None);
        // Seed: every task with no dependencies starts immediately.
        let roots: Vec<TaskId> = (0..self.graph.len())
            .filter(|&i| self.indegree[i] == 0)
            .map(TaskId)
            .collect();
        for t in roots {
            self.activate(t);
        }

        // The sampling grid restarts with each iteration.
        self.next_sample = self.sample_period.map(|p| self.queue.now() + p);
        // The next pending fault is armed only while real work remains,
        // so it can never extend the run.
        if self.pending_real > 0 {
            self.arm_next_fault();
        }

        loop {
            if self.sample_period.is_some() {
                // Peeking then popping leaves the queue exactly as a
                // bare pop does, so sampling moves no queue counter.
                let Some(next) = self.queue.peek_time() else {
                    break;
                };
                self.sample_until(next);
            }
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            // Runaway guard: real events are counted and checked before
            // they are processed, so with `max_events = N` exactly N
            // events take effect. Fault injections are excluded so
            // budget trips are independent of the fault plan's shape.
            if let Some(b) = &self.budget {
                if matches!(
                    event,
                    Event::ComputeDone { .. } | Event::FlowDelivered { .. }
                ) {
                    self.budget_events += 1;
                    if let Some((kind, limit)) = b.check(self.budget_events, now) {
                        self.stop_error = Some(SimError::BudgetExceeded { kind, limit });
                        return;
                    }
                }
            }
            match event {
                Event::ComputeDone { gpu, task } => {
                    self.pending_real -= 1;
                    self.dispatches[0] += 1;
                    self.gpus[gpu].busy = false;
                    let start = self.attr_start[task.0].expect("compute was started");
                    self.gpus[gpu].busy_time += now - start;
                    self.attr_end[task.0] = Some(now);
                    self.last_done[gpu] = Some(task.0 as u32);
                    self.timeline.push(TimelineRecord {
                        label: self.graph.tasks()[task.0].label.clone(),
                        track: TimelineTrack::Gpu(gpu),
                        start,
                        end: now,
                        layer: self.graph.tasks()[task.0].layer,
                    });
                    if self.observing {
                        self.record_compute(gpu, task, start, now);
                    }
                    self.complete(task);
                    self.try_start_gpu(gpu);
                }
                Event::FlowDelivered { flow } => {
                    self.pending_real -= 1;
                    self.dispatches[1] += 1;
                    self.flow_event.remove(&flow);
                    let task = self
                        .flow_task
                        .remove(&flow)
                        .expect("delivered flow belongs to a task");
                    let start = self.attr_start[task.0].expect("flow was sent");
                    self.attr_end[task.0] = Some(now);
                    self.comm_intervals.push((start, now));
                    self.timeline.push(TimelineRecord {
                        label: self.graph.tasks()[task.0].label.clone(),
                        track: TimelineTrack::Network,
                        start,
                        end: now,
                        layer: self.graph.tasks()[task.0].layer,
                    });
                    if let TaskKind::Transfer { bytes, .. } = self.graph.tasks()[task.0].kind {
                        self.bytes_transferred += bytes;
                    }
                    if self.observing {
                        self.record_flow(task, start, now);
                    }
                    let cmds = if self.profiling {
                        let t0 = Instant::now();
                        let cmds = self.network.deliver(flow, now);
                        self.net_wall_s += t0.elapsed().as_secs_f64();
                        self.net_wall_calls += 1;
                        cmds
                    } else {
                        self.network.deliver(flow, now)
                    };
                    self.apply(cmds);
                    self.complete(task);
                }
                Event::Fault { idx } => {
                    self.dispatches[3] += 1;
                    if let Some(fr) = self.faults.as_mut() {
                        fr.fault_event = None;
                        fr.cursor = idx + 1;
                    }
                    self.apply_fault(now, idx);
                    if self.stop_error.is_some() {
                        return;
                    }
                    if self.pending_real > 0 {
                        self.arm_next_fault();
                    }
                }
            }
            if self.stop_error.is_some() {
                return;
            }
            // An armed fault never outlives the real work: cancel it as
            // soon as the queue holds nothing else, so it cannot inflate
            // `queue.now()` past the last real event.
            if self.pending_real == 0 {
                if let Some(id) = self.faults.as_mut().and_then(|fr| fr.fault_event.take()) {
                    self.queue.cancel(id);
                }
            }
        }
    }

    /// Schedules the next timeline fault (if any) at its injection time,
    /// clamped forward to `now` — time never runs backwards, so a fault
    /// whose nominal time already passed fires immediately.
    fn arm_next_fault(&mut self) {
        let now = self.queue.now();
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        if fr.fault_event.is_some() {
            return;
        }
        let Some(tf) = fr.session.timeline().get(fr.cursor) else {
            return;
        };
        let at = VirtualTime::from_seconds(tf.at_s).max(now);
        let idx = fr.cursor;
        fr.fault_event = Some(self.queue.schedule(at, Event::Fault { idx }));
    }

    /// Injects timeline entry `idx` into the network (or drops a GPU),
    /// recording attribution counters and observability events.
    fn apply_fault(&mut self, now: VirtualTime, idx: usize) {
        let kind = {
            let Some(fr) = self.faults.as_mut() else {
                return;
            };
            let kind = fr.session.timeline()[idx].kind;
            fr.injected += 1;
            match kind {
                FaultKind::LinkDegrade { .. } => fr.injected_by_kind[0] += 1,
                FaultKind::LinkFail { src, dst } => {
                    fr.injected_by_kind[1] += 1;
                    fr.outage_since
                        .entry((src.min(dst), src.max(dst)))
                        .or_insert(now);
                }
                FaultKind::LinkRepair { .. } => fr.injected_by_kind[2] += 1,
                FaultKind::GpuDrop { .. } => fr.injected_by_kind[3] += 1,
            }
            kind
        };
        match kind {
            FaultKind::LinkDegrade { src, dst, factor } => {
                self.inject_link_fault(now, src, dst, LinkFault::Degrade { factor });
            }
            FaultKind::LinkFail { src, dst } => {
                self.inject_link_fault(now, src, dst, LinkFault::Fail);
            }
            FaultKind::LinkRepair { src, dst } => {
                self.inject_link_fault(now, src, dst, LinkFault::Repair);
                let down_at = self
                    .faults
                    .as_mut()
                    .and_then(|fr| fr.outage_since.remove(&(src.min(dst), src.max(dst))));
                if self.observing {
                    if let (Some(start), Some(r)) = (down_at, self.recorder.as_mut()) {
                        r.span(
                            "faults",
                            &format!("outage n{src}<->n{dst}"),
                            start,
                            now,
                            &[
                                ("src", AttrValue::U64(src as u64)),
                                ("dst", AttrValue::U64(dst as u64)),
                            ],
                        );
                    }
                }
            }
            FaultKind::GpuDrop { gpu } => {
                self.stop_error = Some(SimError::GpuLost {
                    gpu,
                    at_s: now.as_seconds(),
                });
            }
        }
        if self.observing {
            let label = kind.label();
            let (a, b) = match kind {
                FaultKind::LinkDegrade { src, dst, .. }
                | FaultKind::LinkFail { src, dst }
                | FaultKind::LinkRepair { src, dst } => (src as u64, dst as u64),
                FaultKind::GpuDrop { gpu } => (gpu as u64, gpu as u64),
            };
            if let Some(r) = self.recorder.as_mut() {
                r.instant(
                    now,
                    "faults",
                    label,
                    &[("a", AttrValue::U64(a)), ("b", AttrValue::U64(b))],
                );
            }
        }
    }

    /// Routes one link fault into the network model; a resulting
    /// partition becomes the run's structured error.
    fn inject_link_fault(&mut self, now: VirtualTime, src: usize, dst: usize, fault: LinkFault) {
        match self
            .network
            .apply_link_fault(now, NodeId(src), NodeId(dst), fault)
        {
            Ok(cmds) => self.apply(cmds),
            Err(e) => {
                self.stop_error = Some(SimError::Partitioned {
                    src: e.src.0,
                    dst: e.dst.0,
                    at_s: now.as_seconds(),
                });
            }
        }
    }

    /// Emits the span and metrics for one finished compute task.
    fn record_compute(&mut self, gpu: usize, task: TaskId, start: VirtualTime, now: VirtualTime) {
        let graph = self.graph;
        let t = &graph.tasks()[task.0];
        let Some(r) = self.recorder.as_mut() else {
            return;
        };
        let track = format!("gpu{gpu}");
        match t.layer {
            Some(layer) => r.span(
                &track,
                &t.label,
                start,
                now,
                &[("layer", AttrValue::U64(layer as u64))],
            ),
            None => r.span(&track, &t.label, start, now, &[]),
        }
        let dur = (now - start).as_seconds();
        r.histogram_record("triosim_operator_duration_seconds", &[], dur);
        r.counter_add("triosim_tasks_executed_total", &[("kind", "compute")], 1.0);
        let label = gpu.to_string();
        r.counter_add("triosim_gpu_tasks_total", &[("gpu", &label)], 1.0);
    }

    /// Emits the span and metrics for one delivered transfer.
    fn record_flow(&mut self, task: TaskId, start: VirtualTime, now: VirtualTime) {
        let graph = self.graph;
        let t = &graph.tasks()[task.0];
        let TaskKind::Transfer { bytes, .. } = t.kind else {
            return;
        };
        let Some(r) = self.recorder.as_mut() else {
            return;
        };
        r.span(
            "network",
            &t.label,
            start,
            now,
            &[("bytes", AttrValue::U64(bytes))],
        );
        r.histogram_record(
            "triosim_flow_duration_seconds",
            &[],
            (now - start).as_seconds(),
        );
        r.counter_add("triosim_tasks_executed_total", &[("kind", "transfer")], 1.0);
    }

    /// Takes every sample due at or before `until`, the time of the next
    /// event. State is constant between events, so each sample sees what
    /// it would at its own instant.
    fn sample_until(&mut self, until: VirtualTime) {
        while let Some(at) = self.next_sample.filter(|&at| at <= until) {
            self.sample(at);
            self.samples += 1;
            self.next_sample = self.sample_period.map(|p| at + p);
        }
    }

    /// One monitor sample: queue depth, in-flight flows, per-link
    /// utilization over the window since the previous sample, and the
    /// live progress line.
    fn sample(&mut self, now: VirtualTime) {
        let net = self.network.observe();
        if self.observing {
            let depth = self.queue.len() as f64;
            let links = self.network.observe_links();
            let dt = (now - self.prev_sample_at).as_seconds();
            if let Some(r) = self.recorder.as_mut() {
                r.gauge_set(now, "triosim_queue_depth", &[], depth);
                r.gauge_set(
                    now,
                    "triosim_net_flows_in_flight",
                    &[],
                    net.in_flight as f64,
                );
                if dt > 0.0 {
                    if self.prev_link_busy.len() != links.len() {
                        self.prev_link_busy.resize(links.len(), 0.0);
                    }
                    for (i, l) in links.iter().enumerate() {
                        let util = ((l.busy_s - self.prev_link_busy[i]) / dt).clamp(0.0, 1.0);
                        r.gauge_set(now, "triosim_link_utilization", &[("link", &l.label)], util);
                        self.prev_link_busy[i] = l.busy_s;
                    }
                }
            }
            self.prev_sample_at = now;
        }
        if let Some(p) = self.progress.as_mut() {
            p.sample(now, self.queue.stats().delivered(), net.in_flight);
        }
    }

    /// Marks `task` complete and activates newly unblocked tasks.
    fn complete(&mut self, task: TaskId) {
        // Worklist to avoid recursion through long barrier chains.
        let mut work = vec![task];
        while let Some(t) = work.pop() {
            if self.stop_error.is_some() {
                return;
            }
            self.completed += 1;
            if self.observing {
                self.record_completion(t);
            }
            for i in 0..self.dependents[t.0].len() {
                let dep = self.dependents[t.0][i];
                self.indegree[dep.0] -= 1;
                if self.indegree[dep.0] == 0 {
                    if let Some(done_now) = self.activate_inline(dep) {
                        work.push(done_now);
                    }
                }
            }
        }
    }

    /// Observability bookkeeping for one completed task: barrier counts
    /// and, for a collective's final barrier, the retrospective span.
    fn record_completion(&mut self, task: TaskId) {
        let graph = self.graph;
        if matches!(graph.tasks()[task.0].kind, TaskKind::Barrier) {
            if let Some(r) = self.recorder.as_mut() {
                r.counter_add("triosim_tasks_executed_total", &[("kind", "barrier")], 1.0);
            }
        }
        let Some(&ci) = self.collective_of_last.get(&task) else {
            return;
        };
        let meta = &graph.collectives()[ci];
        let now = self.queue.now();
        let begin = self.attr_start[meta.first.0].unwrap_or(now);
        let Some(r) = self.recorder.as_mut() else {
            return;
        };
        r.span(
            "collectives",
            &meta.label,
            begin,
            now,
            &[
                ("algorithm", AttrValue::Str(meta.algorithm)),
                ("payload_bytes", AttrValue::U64(meta.payload_bytes)),
                ("participants", AttrValue::U64(meta.participants as u64)),
                ("steps", AttrValue::U64(meta.steps as u64)),
            ],
        );
        let labels = [("algorithm", meta.algorithm)];
        r.counter_add("triosim_collectives_total", &labels, 1.0);
        r.counter_add(
            "triosim_collective_payload_bytes_total",
            &labels,
            meta.payload_bytes as f64,
        );
        r.histogram_record(
            "triosim_collective_duration_seconds",
            &labels,
            (now - begin).as_seconds(),
        );
    }

    fn activate(&mut self, task: TaskId) {
        if let Some(done_now) = self.activate_inline(task) {
            self.complete(done_now);
        }
    }

    /// Starts a task. Barriers complete instantly: the caller receives
    /// them back to cascade completion without recursion.
    fn activate_inline(&mut self, task: TaskId) -> Option<TaskId> {
        match &self.graph.tasks()[task.0].kind {
            TaskKind::Barrier => {
                let now = self.queue.now();
                self.attr_start[task.0] = Some(now);
                self.attr_end[task.0] = Some(now);
                Some(task)
            }
            TaskKind::Compute { gpu, .. } => {
                self.gpus[*gpu].ready.push_back(task);
                self.try_start_gpu(*gpu);
                None
            }
            TaskKind::Transfer { src, dst, bytes } => {
                let now = self.queue.now();
                self.attr_start[task.0] = Some(now);
                // A missing path (an injected failure partitioned the
                // topology, or the endpoints were never connected) ends
                // the run with a structured error instead of a panic.
                let t0 = self.profiling.then(Instant::now);
                let sent = self.network.try_send(now, *src, *dst, *bytes);
                if let Some(t0) = t0 {
                    self.net_wall_s += t0.elapsed().as_secs_f64();
                    self.net_wall_calls += 1;
                }
                match sent {
                    Ok((flow, cmds)) => {
                        self.flow_task.insert(flow, task);
                        self.apply(cmds);
                    }
                    Err(e) => {
                        self.stop_error = Some(SimError::Partitioned {
                            src: e.src.0,
                            dst: e.dst.0,
                            at_s: now.as_seconds(),
                        });
                    }
                }
                None
            }
        }
    }

    fn try_start_gpu(&mut self, gpu: usize) {
        if self.gpus[gpu].busy {
            return;
        }
        let Some(task) = self.gpus[gpu].ready.pop_front() else {
            return;
        };
        let TaskKind::Compute { duration, .. } = self.graph.tasks()[task.0].kind else {
            unreachable!("GPU queues hold compute tasks only");
        };
        let duration = self.dilated(gpu, task, duration);
        self.gpus[gpu].busy = true;
        let now = self.queue.now();
        self.attr_start[task.0] = Some(now);
        self.attr_gpu_pred[task.0] = self.last_done[gpu];
        self.pending_real += 1;
        self.queue
            .schedule(now + duration, Event::ComputeDone { gpu, task });
    }

    /// Applies the session's compute slowdown and per-op jitter to one
    /// operator duration, attributing the added time to the GPU. The
    /// fault-free path returns `duration` untouched (no float math), so
    /// empty plans stay bit-identical to plain runs.
    fn dilated(&mut self, gpu: usize, task: TaskId, duration: TimeSpan) -> TimeSpan {
        let Some(fr) = self.faults.as_mut() else {
            return duration;
        };
        let factor = fr.session.compute_factor(gpu)
            * fr.session.jitter_factor(gpu, task.0, self.current_iter);
        if factor == 1.0 {
            return duration;
        }
        let dilated = duration * factor;
        fr.lost_compute[gpu] += (dilated - duration).as_seconds();
        dilated
    }

    fn apply(&mut self, cmds: Vec<NetCommand>) {
        for cmd in cmds {
            match cmd {
                NetCommand::Schedule { flow, at } => {
                    if let Some(old) = self.flow_event.remove(&flow) {
                        if self.queue.cancel(old) {
                            self.pending_real -= 1;
                        }
                    }
                    self.pending_real += 1;
                    let id = self.queue.schedule(at, Event::FlowDelivered { flow });
                    self.flow_event.insert(flow, id);
                }
                NetCommand::Cancel { flow } => {
                    if let Some(old) = self.flow_event.remove(&flow) {
                        if self.queue.cancel(old) {
                            self.pending_real -= 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::TaskGraph;
    use triosim_des::TimeSpan;
    use triosim_network::{FlowNetwork, NodeId, Topology};

    fn net2() -> FlowNetwork {
        let mut t = Topology::new(2);
        t.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        FlowNetwork::new(t)
    }

    #[test]
    fn serial_compute_chain_sums_durations() {
        let mut g = TaskGraph::new(1);
        let a = g.compute("a", 0, TimeSpan::from_millis(2.0), vec![]);
        let b = g.compute("b", 0, TimeSpan::from_millis(3.0), vec![a]);
        g.compute("c", 0, TimeSpan::from_millis(5.0), vec![b]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.010).abs() < 1e-12);
        assert!((r.compute_time_s() - 0.010).abs() < 1e-12);
        assert_eq!(r.comm_time_s(), 0.0);
    }

    #[test]
    fn independent_tasks_on_one_gpu_serialize() {
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 0, TimeSpan::from_millis(1.0), vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.002).abs() < 1e-12, "one stream");
    }

    #[test]
    fn independent_tasks_on_two_gpus_parallelize() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(1.0), vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn transfer_overlaps_compute() {
        let mut g = TaskGraph::new(1);
        // 10 ms compute and a 10 MB transfer (10 ms at 1 GB/s) overlap.
        g.compute("work", 0, TimeSpan::from_millis(10.0), vec![]);
        g.transfer("move", NodeId(0), NodeId(1), 10_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!(
            (r.total_time_s() - 0.010).abs() < 1e-9,
            "{}",
            r.total_time_s()
        );
        assert!((r.comm_time_s() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn dependencies_order_execution() {
        let mut g = TaskGraph::new(1);
        let t = g.transfer("move", NodeId(0), NodeId(1), 5_000_000, vec![]);
        g.compute("after", 0, TimeSpan::from_millis(1.0), vec![t]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.006).abs() < 1e-9);
    }

    #[test]
    fn barriers_are_free() {
        let mut g = TaskGraph::new(1);
        let a = g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        let b = g.barrier("sync", vec![a]);
        let b2 = g.barrier("sync2", vec![b]);
        g.compute("c", 0, TimeSpan::from_millis(1.0), vec![b2]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.002).abs() < 1e-12);
        assert_eq!(r.tasks_executed(), 4);
    }

    #[test]
    fn empty_graph_finishes_at_zero() {
        let g = TaskGraph::new(1);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert_eq!(r.total_time_s(), 0.0);
    }

    #[test]
    fn timeline_records_tasks() {
        let mut g = TaskGraph::new(1);
        g.compute("op1", 0, TimeSpan::from_millis(1.0), vec![]);
        g.transfer("mv", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert_eq!(r.timeline().len(), 2);
        let tracks: Vec<_> = r.timeline().iter().map(|t| t.track).collect();
        assert!(tracks.contains(&TimelineTrack::Gpu(0)));
        assert!(tracks.contains(&TimelineTrack::Network));
    }

    #[test]
    fn iterations_chain_in_time() {
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(2.0), vec![]);
        let mut net = net2();
        let r = execute_iterations(&g, &mut net, 5);
        assert!((r.total_time_s() - 0.010).abs() < 1e-12, "5 x 2 ms");
        assert_eq!(r.tasks_executed(), 5);
        assert_eq!(r.timeline().len(), 5);
    }

    #[test]
    fn network_state_persists_across_iterations() {
        use triosim_network::{PhotonicConfig, PhotonicNetwork};
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(1), 1 << 20, vec![]);
        let mut net = PhotonicNetwork::new(2, PhotonicConfig::passage());
        let r1 = execute(&g, &mut PhotonicNetwork::new(2, PhotonicConfig::passage()));
        let r10 = execute_iterations(&g, &mut net, 10);
        // One iteration pays the 20 ms setup; ten iterations pay it once.
        assert!(r1.total_time_s() > 20e-3);
        assert!(
            r10.total_time_s() < 10.0 * r1.total_time_s() / 2.0,
            "amortized: {} vs 10 x {}",
            r10.total_time_s(),
            r1.total_time_s()
        );
        assert_eq!(net.circuits_established(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let g = TaskGraph::new(1);
        execute_iterations(&g, &mut net2(), 0);
    }

    #[test]
    fn disconnected_transfer_is_a_typed_partition() {
        let mut t = Topology::new(3);
        t.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        let mut g = TaskGraph::new(1);
        g.transfer("stranded", NodeId(0), NodeId(2), 1_000, vec![]);
        let err = run(&g, &mut FlowNetwork::new(t), RunOptions::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::Partitioned {
                src: 0,
                dst: 2,
                at_s: 0.0
            }
        );
    }

    /// The event budget admits exactly `max_events` delivered events: a
    /// limit equal to the plain run's delivered count completes it with
    /// the plain bytes, and one less trips with that limit. At three
    /// iterations the first case replays and the second simulates on
    /// until the trip.
    #[test]
    fn event_budget_admits_exactly_the_delivered_events() {
        use triosim_des::BudgetKind;
        let g = overlap_graph();
        let plain = execute_iterations(&g, &mut net2(), 3);
        let delivered = plain.queue_stats().delivered();
        let budgeted = |limit: u64| RunOptions {
            iterations: 3,
            budget: Some(RunBudget::unlimited().with_max_events(limit)),
            ..RunOptions::default()
        };
        let fits = run(&g, &mut net2(), budgeted(delivered)).expect("the run fits its budget");
        assert_eq!(fits.to_canonical_string(), plain.to_canonical_string());
        assert!(
            fits.replay().is_some(),
            "a budget the run fits keeps replay on"
        );
        assert_eq!(
            run(&g, &mut net2(), budgeted(delivered - 1)).unwrap_err(),
            SimError::BudgetExceeded {
                kind: BudgetKind::Events,
                limit: delivered - 1
            }
        );
    }

    #[test]
    fn concurrent_transfers_share_and_finish_together() {
        let mut g = TaskGraph::new(1);
        g.transfer("m1", NodeId(0), NodeId(1), 1_000_000, vec![]);
        g.transfer("m2", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let mut net = net2();
        let r = execute(&g, &mut net);
        assert!((r.total_time_s() - 0.002).abs() < 1e-9, "fair sharing");
        assert_eq!(r.bytes_transferred(), 2_000_000);
    }

    // ---------------- observability ----------------

    use std::sync::{Arc, Mutex};
    use triosim_obs::{JsonlSink, RunRecorder};

    /// A cloneable writer capturing everything written through it, so a
    /// test can read back sink output after the executor consumed the
    /// recorder.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn take_string(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn overlap_graph() -> TaskGraph {
        let mut g = TaskGraph::new(1);
        g.compute("work", 0, TimeSpan::from_millis(10.0), vec![]);
        let t = g.transfer("move", NodeId(0), NodeId(1), 10_000_000, vec![]);
        g.barrier("done", vec![t]);
        g
    }

    /// Options for an `iterations`-long run recording JSONL into `buf`,
    /// sampled every millisecond.
    fn observed(buf: &SharedBuf, iterations: usize) -> RunOptions<'static> {
        let mut rec = RunRecorder::new();
        rec.push(Box::new(JsonlSink::new(buf.clone())));
        RunOptions {
            iterations,
            recorder: Some(Box::new(rec)),
            ..RunOptions::default()
        }
    }

    fn faulted(plan: &FaultPlan, iterations: usize) -> RunOptions<'static> {
        RunOptions {
            iterations,
            faults: plan.clone(),
            ..RunOptions::default()
        }
    }

    fn progress(buf: &SharedBuf) -> Option<ProgressMonitor> {
        Some(
            ProgressMonitor::with_writer(Box::new(buf.clone())).throttle(std::time::Duration::ZERO),
        )
    }

    #[test]
    fn monitor_ticks_never_change_simulation_results() {
        let g = overlap_graph();
        let plain = execute_iterations(&g, &mut net2(), 3).to_canonical_string();
        let buf = SharedBuf::default();
        let observed = run(&g, &mut net2(), observed(&buf, 3)).unwrap();
        assert_eq!(plain, observed.to_canonical_string());
        // The samples really were taken: gauges along the way.
        let out = buf.take_string();
        assert!(out.contains("triosim_queue_depth"), "{out}");
        // Progress alone samples too, and is just as invisible.
        let lines = SharedBuf::default();
        let with_progress = RunOptions {
            iterations: 3,
            progress: progress(&lines),
            ..RunOptions::default()
        };
        let reported = run(&g, &mut net2(), with_progress).unwrap();
        assert_eq!(plain, reported.to_canonical_string());
        assert!(lines.take_string().contains("progress: done"));
    }

    #[test]
    fn observed_run_emits_spans_and_end_of_run_metrics() {
        let g = overlap_graph();
        let buf = SharedBuf::default();
        run(&g, &mut net2(), observed(&buf, 1)).unwrap();
        let out = buf.take_string();
        assert!(out.contains("\"track\":\"gpu0\""), "compute span: {out}");
        assert!(out.contains("\"track\":\"network\""), "flow span: {out}");
        assert!(out.contains("triosim_events_delivered_total"), "{out}");
        assert!(out.contains("triosim_sim_time_seconds"), "{out}");
        assert!(out.contains("triosim_net_flows_completed_total"), "{out}");
    }

    #[test]
    fn observed_output_is_deterministic() {
        let run = || {
            let g = overlap_graph();
            let buf = SharedBuf::default();
            run(&g, &mut net2(), observed(&buf, 2)).unwrap();
            buf.take_string()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "two identical runs must produce identical bytes");
    }

    #[test]
    fn collective_completion_emits_tagged_span() {
        use crate::taskgraph::CollectiveMeta;
        let mut g = TaskGraph::new(2);
        let t = g.transfer("ar.s0.0->1", NodeId(0), NodeId(1), 1_000_000, vec![]);
        let done = g.barrier("ar.s0.done", vec![t]);
        g.register_collective(CollectiveMeta {
            label: "ar".into(),
            algorithm: "allreduce",
            payload_bytes: 1_000_000,
            participants: 2,
            steps: 1,
            first: t,
            last: done,
        });
        let buf = SharedBuf::default();
        run(&g, &mut net2(), observed(&buf, 1)).unwrap();
        let out = buf.take_string();
        assert!(out.contains("\"track\":\"collectives\""), "{out}");
        assert!(out.contains("\"algorithm\":\"allreduce\""), "{out}");
        assert!(out.contains("triosim_collectives_total"), "{out}");
    }

    // ---------------- fault injection ----------------

    #[test]
    fn empty_plan_is_bit_identical_to_plain_run() {
        let g = overlap_graph();
        let plain = execute_iterations(&g, &mut net2(), 3);
        let faulted = run(&g, &mut net2(), faulted(&FaultPlan::default(), 3))
            .expect("empty plan cannot fail");
        assert_eq!(plain.total_time(), faulted.total_time());
        assert_eq!(plain.bytes_transferred(), faulted.bytes_transferred());
        assert_eq!(plain.timeline(), faulted.timeline());
        assert!(faulted.fault_stats().is_none(), "no session attached");
    }

    #[test]
    fn straggler_gpu_dilates_compute_and_attributes_loss() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(1.0), vec![]);
        let plan = FaultPlan {
            gpu_slowdowns: vec![triosim_faults::GpuSlowdown {
                gpu: 1,
                factor: 3.0,
            }],
            ..Default::default()
        };
        let r = run(&g, &mut net2(), faulted(&plan, 1)).unwrap();
        assert!(
            (r.total_time_s() - 0.003).abs() < 1e-9,
            "{}",
            r.total_time_s()
        );
        let fs = r.fault_stats().expect("session attached");
        assert!(fs.lost_compute_s[0].abs() < 1e-12);
        assert!((fs.lost_compute_s[1] - 0.002).abs() < 1e-9);
    }

    #[test]
    fn link_failure_on_chain_returns_partitioned_error() {
        // 0 - 1 - 2 chain; a long transfer 0 -> 2 is in flight when the
        // 1<->2 link dies at 1 ms. No alternative path: structured error.
        let mut t = Topology::new(3);
        t.add_duplex(NodeId(0), NodeId(1), 1e9, 0.0);
        t.add_duplex(NodeId(1), NodeId(2), 1e9, 0.0);
        let mut net = FlowNetwork::new(t);
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(2), 100_000_000, vec![]);
        let plan = FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 1,
                dst: 2,
                at_s: 0.001,
                repair_s: None,
            }],
            ..Default::default()
        };
        let err = run(&g, &mut net, faulted(&plan, 1)).unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::Partitioned {
                src: 0,
                dst: 2,
                at_s: 0.001
            }
        );
    }

    #[test]
    fn link_failure_on_ring_reroutes_and_counts_hops() {
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(1), 10_000_000, vec![]);
        let plan = FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 0,
                dst: 1,
                at_s: 0.001,
                repair_s: None,
            }],
            ..Default::default()
        };
        let r = run(&g, &mut net, faulted(&plan, 1)).unwrap();
        assert_eq!(r.network_stats().reroutes, 1);
        assert_eq!(r.network_stats().added_hops, 2, "1 hop -> 3 hops");
        // A lone flow keeps its 1 GB/s bottleneck on the detour (zero
        // link latency), so it still finishes on time — rerouted, not
        // hung, is the point.
        assert!(
            (r.total_time_s() - 0.010).abs() < 1e-9,
            "{}",
            r.total_time_s()
        );
    }

    #[test]
    fn gpu_dropout_returns_gpu_lost() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(5.0), vec![]);
        g.compute("b", 1, TimeSpan::from_millis(5.0), vec![]);
        let plan = FaultPlan {
            gpu_dropouts: vec![triosim_faults::GpuDropout {
                gpu: 1,
                at_s: 0.001,
            }],
            ..Default::default()
        };
        let err = run(&g, &mut net2(), faulted(&plan, 1)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::GpuLost { gpu: 1, .. }
        ));
    }

    #[test]
    fn fault_injected_runs_are_deterministic() {
        let run = || {
            let mut g = TaskGraph::new(2);
            for i in 0..8 {
                g.compute(format!("op{i}"), i % 2, TimeSpan::from_millis(1.0), vec![]);
            }
            let plan = FaultPlan {
                seed: 42,
                jitter: Some(triosim_faults::Jitter { amplitude: 0.5 }),
                gpu_slowdowns: vec![triosim_faults::GpuSlowdown {
                    gpu: 0,
                    factor: 1.5,
                }],
                ..Default::default()
            };
            let r = run(&g, &mut net2(), faulted(&plan, 3)).unwrap();
            (r.total_time(), r.fault_stats().cloned())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_past_end_of_run_never_extends_it() {
        let mut g = TaskGraph::new(1);
        g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        let plan = FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 0,
                dst: 1,
                at_s: 999.0,
                repair_s: None,
            }],
            ..Default::default()
        };
        let r = run(&g, &mut net2(), faulted(&plan, 1)).unwrap();
        assert!((r.total_time_s() - 0.001).abs() < 1e-12);
        assert_eq!(r.fault_stats().unwrap().faults_injected, 0, "never fired");
    }

    #[test]
    fn fault_events_surface_in_observability() {
        let mut net = FlowNetwork::new(Topology::ring(4, 1e9, 0.0));
        let mut g = TaskGraph::new(1);
        g.transfer("mv", NodeId(0), NodeId(1), 20_000_000, vec![]);
        let plan = FaultPlan {
            link_failures: vec![triosim_faults::LinkFailure {
                src: 0,
                dst: 1,
                at_s: 0.001,
                repair_s: Some(0.005),
            }],
            ..Default::default()
        };
        let buf = SharedBuf::default();
        let opts = RunOptions {
            faults: plan,
            ..observed(&buf, 1)
        };
        let r = run(&g, &mut net, opts).unwrap();
        let out = buf.take_string();
        assert!(out.contains("link_fail"), "{out}");
        assert!(out.contains("triosim_faults_injected_total"), "{out}");
        assert!(
            out.contains("outage n0<->n1"),
            "repair closes the outage span: {out}"
        );
        assert_eq!(r.fault_stats().unwrap().link_repairs, 1);
    }

    #[test]
    fn progress_monitor_reports_through_executor() {
        let g = overlap_graph();
        let buf = SharedBuf::default();
        let opts = RunOptions {
            progress: progress(&buf),
            ..RunOptions::default()
        };
        run(&g, &mut net2(), opts).unwrap();
        let out = buf.take_string();
        assert!(out.contains("progress: done"), "{out}");
    }
}
