//! The extrapolated multi-GPU execution: a task DAG.
//!
//! The trace extrapolator (§4.3) converts the single-GPU trace into
//! per-GPU computation and communication work. We represent the result as
//! an explicit task graph: compute tasks bind to one GPU's (serial)
//! compute stream; transfer tasks go to the network model and may overlap
//! freely with compute — exactly the PyTorch execution model, where NCCL
//! runs on its own stream.
//!
//! The graph is plain data addressed by dense [`TaskId`]s: every label
//! lives in one arena, every dependency in one flat table. Adding a task
//! appends to a few vectors and allocates no block of its own, so graph
//! build costs what the tasks cost, not what their heap blocks cost.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use triosim_des::TimeSpan;
use triosim_network::NodeId;

use crate::report::TimelineTrack;

/// Index of a task within its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// What a task does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// Run on GPU `gpu`'s compute stream for `duration`.
    Compute {
        /// 0-based GPU index.
        gpu: usize,
        /// Predicted execution time.
        duration: TimeSpan,
    },
    /// Move `bytes` from network node `src` to `dst`.
    Transfer {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Payload size.
        bytes: u64,
    },
    /// A zero-duration synchronization point (collective step barrier).
    Barrier,
}

/// One node of the task DAG, as a view into its graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task<'g> {
    /// Human-readable label (surfaces in the timeline output).
    pub label: &'g str,
    /// The work.
    pub kind: TaskKind,
    /// Tasks that must complete before this one starts.
    pub deps: &'g [TaskId],
    /// Model layer this task belongs to, when applicable (drives the
    /// per-layer time breakdown of §4.1).
    pub layer: Option<usize>,
}

/// The per-task data a run's report keeps after the graph is gone: each
/// task's label, work and layer. The graph and the reports of the runs
/// that execute it share one copy.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskTable {
    /// Every label, back to back.
    labels: String,
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: TaskKind,
    /// End of this task's label in `labels`; it starts where the previous
    /// task's ends.
    label_end: u32,
    /// Model layer, or [`NO_LAYER`].
    layer: u32,
}

const NO_LAYER: u32 = u32::MAX;

impl TaskTable {
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn label(&self, t: usize) -> &str {
        let start = match t {
            0 => 0,
            _ => self.nodes[t - 1].label_end as usize,
        };
        &self.labels[start..self.nodes[t].label_end as usize]
    }

    pub(crate) fn kind(&self, t: usize) -> &TaskKind {
        &self.nodes[t].kind
    }

    pub(crate) fn layer(&self, t: usize) -> Option<usize> {
        let layer = self.nodes[t].layer;
        (layer != NO_LAYER).then_some(layer as usize)
    }

    /// The timeline track task `t` occupies; barriers occupy none.
    pub(crate) fn track(&self, t: usize) -> Option<TimelineTrack> {
        match self.nodes[t].kind {
            TaskKind::Compute { gpu, .. } => Some(TimelineTrack::Gpu(gpu)),
            TaskKind::Transfer { .. } => Some(TimelineTrack::Network),
            TaskKind::Barrier => None,
        }
    }

    fn kinds(&self) -> impl Iterator<Item = &TaskKind> {
        self.nodes.iter().map(|n| &n.kind)
    }
}

/// Metadata describing one collective operation lowered into the graph.
///
/// The extrapolator registers one entry per collective it emits; the
/// executor uses the `first`/`last` task ids to reconstruct a single
/// span per collective (tagged with algorithm, payload, and
/// participants) for the observability layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveMeta {
    /// The label prefix shared by the collective's tasks
    /// (e.g. `ddp.bucket3.allreduce`).
    pub label: String,
    /// Algorithm tag (e.g. `allreduce`, `allgather`, `p2p`).
    pub algorithm: &'static str,
    /// Logical payload size being reduced/gathered, in bytes.
    pub payload_bytes: u64,
    /// Number of participating ranks.
    pub participants: usize,
    /// Number of synchronous communication steps.
    pub steps: usize,
    /// The collective's first transfer task.
    pub first: TaskId,
    /// The collective's final barrier (completion marker).
    pub last: TaskId,
}

/// The extrapolated multi-GPU execution plan.
///
/// # Example
///
/// ```rust
/// use triosim::{TaskGraph, TaskKind};
/// use triosim_des::TimeSpan;
///
/// let mut g = TaskGraph::new(2);
/// let a = g.compute("fwd@0", 0, TimeSpan::from_millis(1.0), []);
/// let b = g.compute(format_args!("fwd@{}", 1), 1, TimeSpan::from_millis(1.0), []);
/// let done = g.barrier("sync", [a, b]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.task(b).label, "fwd@1");
/// assert_eq!(g.task(done).deps, &[a, b]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    gpus: usize,
    table: Arc<TaskTable>,
    /// Dependencies in CSR form: task `i`'s are
    /// `deps[dep_ends[i - 1]..dep_ends[i]]` (from 0 for task 0).
    dep_ends: Vec<u32>,
    deps: Vec<TaskId>,
    collectives: Vec<CollectiveMeta>,
}

impl TaskGraph {
    /// Creates an empty graph for a `gpus`-GPU execution.
    pub fn new(gpus: usize) -> Self {
        TaskGraph {
            gpus,
            ..TaskGraph::default()
        }
    }

    /// Number of GPUs the plan targets.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a task of this graph.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        Task {
            label: self.table.label(id.0),
            kind: *self.table.kind(id.0),
            deps: self.deps(id),
            layer: self.table.layer(id.0),
        }
    }

    /// Every task, in [`TaskId`] order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = Task<'_>> + '_ {
        (0..self.len()).map(|i| self.task(TaskId(i)))
    }

    /// The tasks that must complete before task `id` starts.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        let start = match id.0 {
            0 => 0,
            i => self.dep_ends[i - 1] as usize,
        };
        &self.deps[start..self.dep_ends[id.0] as usize]
    }

    /// The shared per-task table (labels, kinds, layers).
    pub(crate) fn table(&self) -> &Arc<TaskTable> {
        &self.table
    }

    /// Adds a task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a not-yet-added task (the graph
    /// is built in topological order by construction) or a compute task
    /// names a GPU out of range.
    fn add(
        &mut self,
        label: impl fmt::Display,
        kind: TaskKind,
        deps: impl IntoIterator<Item = TaskId>,
        layer: Option<usize>,
    ) -> TaskId {
        let id = TaskId(self.len());
        // Runs index tasks with 32 bits.
        assert!(
            id.0 < u32::MAX as usize,
            "task graphs stay under 2^32 tasks"
        );
        for d in deps {
            assert!(d.0 < id.0, "dependency {d:?} added after dependent task");
            self.deps.push(d);
        }
        if let TaskKind::Compute { gpu, .. } = kind {
            assert!(gpu < self.gpus, "GPU {gpu} out of range");
        }
        self.dep_ends.push(offset(self.deps.len()));
        let layer = layer.map_or(NO_LAYER, |l| {
            u32::try_from(l)
                .ok()
                .filter(|&l| l != NO_LAYER)
                .expect("layer index fits in 32 bits")
        });
        let table = Arc::make_mut(&mut self.table);
        write!(table.labels, "{label}").expect("writing to a String cannot fail");
        table.nodes.push(Node {
            kind,
            label_end: offset(table.labels.len()),
            layer,
        });
        id
    }

    /// Adds a compute task.
    pub fn compute(
        &mut self,
        label: impl fmt::Display,
        gpu: usize,
        duration: TimeSpan,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> TaskId {
        self.add(label, TaskKind::Compute { gpu, duration }, deps, None)
    }

    /// Adds a compute task attributed to a model layer.
    pub fn compute_in_layer(
        &mut self,
        label: impl fmt::Display,
        gpu: usize,
        duration: TimeSpan,
        deps: impl IntoIterator<Item = TaskId>,
        layer: usize,
    ) -> TaskId {
        self.add(
            label,
            TaskKind::Compute { gpu, duration },
            deps,
            Some(layer),
        )
    }

    /// Adds a transfer task.
    pub fn transfer(
        &mut self,
        label: impl fmt::Display,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> TaskId {
        self.add(label, TaskKind::Transfer { src, dst, bytes }, deps, None)
    }

    /// Adds a zero-cost barrier joining `deps`.
    pub fn barrier(
        &mut self,
        label: impl fmt::Display,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> TaskId {
        self.add(label, TaskKind::Barrier, deps, None)
    }

    /// Registers collective metadata for a group of already-added tasks.
    ///
    /// # Panics
    ///
    /// Panics if the `first`/`last` task ids are out of range or out of
    /// order — the extrapolator registers a collective only after
    /// emitting all of its tasks.
    pub fn register_collective(&mut self, meta: CollectiveMeta) {
        assert!(
            meta.first <= meta.last && meta.last.0 < self.len(),
            "collective {:?} references tasks outside the graph",
            meta.label
        );
        self.collectives.push(meta);
    }

    /// Collectives lowered into this graph, in emission order.
    pub fn collectives(&self) -> &[CollectiveMeta] {
        &self.collectives
    }

    /// Total bytes moved by all transfer tasks.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.table
            .kinds()
            .map(|k| match *k {
                TaskKind::Transfer { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total compute time across all GPUs (serial sum, not critical
    /// path).
    pub fn total_compute_time(&self) -> TimeSpan {
        self.table
            .kinds()
            .map(|k| match *k {
                TaskKind::Compute { duration, .. } => duration,
                _ => TimeSpan::ZERO,
            })
            .sum()
    }
}

/// An offset into the label arena or the dependency table, both of which
/// stay under 2^32 entries.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("task graph tables stay under 2^32 entries")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_topological_order() {
        let mut g = TaskGraph::new(1);
        let a = g.compute("a", 0, TimeSpan::from_millis(1.0), vec![]);
        let b = g.compute("b", 0, TimeSpan::from_millis(1.0), vec![a]);
        assert_eq!(g.task(b).deps, &[a]);
        assert_eq!(g.task(a).deps, &[]);
        assert_eq!(
            g.tasks().map(|t| t.label).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
    }

    #[test]
    #[should_panic(expected = "added after dependent")]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new(1);
        g.barrier("bad", [TaskId(5)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpu_bounds_checked() {
        let mut g = TaskGraph::new(2);
        g.compute("x", 2, TimeSpan::ZERO, vec![]);
    }

    #[test]
    fn collective_registry_tracks_bounds() {
        let mut g = TaskGraph::new(2);
        let t = g.transfer("ar.s0.0->1", NodeId(0), NodeId(1), 64, vec![]);
        let b = g.barrier("ar.done", vec![t]);
        g.register_collective(CollectiveMeta {
            label: "ar".into(),
            algorithm: "allreduce",
            payload_bytes: 64,
            participants: 2,
            steps: 1,
            first: t,
            last: b,
        });
        assert_eq!(g.collectives().len(), 1);
        assert_eq!(g.collectives()[0].algorithm, "allreduce");
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn collective_registry_rejects_dangling_ids() {
        let mut g = TaskGraph::new(1);
        g.register_collective(CollectiveMeta {
            label: "bad".into(),
            algorithm: "allreduce",
            payload_bytes: 0,
            participants: 1,
            steps: 0,
            first: TaskId(0),
            last: TaskId(3),
        });
    }

    #[test]
    fn aggregates() {
        let mut g = TaskGraph::new(2);
        g.compute("a", 0, TimeSpan::from_millis(2.0), vec![]);
        g.transfer("t", NodeId(1), NodeId(2), 100, vec![]);
        g.transfer("t2", NodeId(2), NodeId(1), 50, vec![]);
        assert_eq!(g.total_transfer_bytes(), 150);
        assert_eq!(g.total_compute_time(), TimeSpan::from_millis(2.0));
        assert!(!g.is_empty());
    }

    #[test]
    fn labels_and_layers_round_trip_through_the_arena() {
        let mut g = TaskGraph::new(2);
        let a = g.compute_in_layer("", 0, TimeSpan::ZERO, None, 3);
        let b = g.compute_in_layer(format_args!("op{}@g{}", 7, 1), 1, TimeSpan::ZERO, [a], 0);
        let c = g.barrier("join", [a, b]);
        assert_eq!((g.task(a).label, g.task(a).layer), ("", Some(3)));
        assert_eq!((g.task(b).label, g.task(b).layer), ("op7@g1", Some(0)));
        assert_eq!((g.task(c).label, g.task(c).layer), ("join", None));
        assert_eq!(g.task(c).deps, &[a, b]);
        assert_eq!(g.table().track(c.0), None);
        assert_eq!(g.table().track(b.0), Some(TimelineTrack::Gpu(1)));
    }
}
