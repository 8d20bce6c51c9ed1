//! The multi-GPU trace extrapolator (§4.3 of the paper).
//!
//! Converts a single-GPU trace into a multi-GPU execution plan according
//! to the parallelism strategy, inserting data-movement operators (host
//! input transfers, pipeline activation sends) and NCCL-style collective
//! communication (ring AllReduce / AllGather) where tensors are not local
//! to the GPU that needs them.
//!
//! The original extrapolates lazily while simulating; we build the full
//! task DAG eagerly — semantically identical for these workloads (the
//! plan does not depend on simulated times), and it keeps the executor a
//! clean, separately testable component.
//!
//! Each trace entry's operator is reshaped once (into one reused scratch
//! operator) and timed once per GPU that runs it, before the per-GPU
//! loops emit tasks; labels are written straight into the graph's arena.

use triosim_collectives::{
    halving_doubling_all_reduce, ring_all_gather, ring_all_reduce, ring_all_reduce_unsegmented,
    tree_all_reduce, CollectiveSchedule, GradientBucketizer,
};
use triosim_des::TimeSpan;
use triosim_modelzoo::{OpClass, Operator};
use triosim_trace::{Trace, TraceEntry};

use crate::compute::ComputeModel;
use crate::layers::{summarize_layers, LayerSummary};
use crate::parallelism::{CollectiveStyle, Parallelism};
use crate::platform::Platform;
use crate::taskgraph::{CollectiveMeta, TaskGraph, TaskId};

/// Extrapolates a single-GPU `trace` onto `platform` under `parallelism`.
///
/// `global_batch` is the total mini-batch per iteration:
/// * data parallelism — each GPU processes `global_batch / gpus` samples;
/// * tensor parallelism — every GPU participates in the same
///   `global_batch` samples;
/// * pipeline parallelism — the mini-batch is `global_batch`, split into
///   the configured number of micro-batches.
///
/// `compute` decides operator times (trace pass-through, Li's-Model
/// rescale, cross-GPU, or the reference oracle).
///
/// # Panics
///
/// Panics if `global_batch` is zero or not compatible with the GPU count
/// / chunk count (each share must be at least one sample).
pub fn extrapolate(
    trace: &Trace,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
    compute: &ComputeModel,
) -> TaskGraph {
    extrapolate_with_style(
        trace,
        platform,
        parallelism,
        global_batch,
        compute,
        CollectiveStyle::Segmented,
    )
}

/// [`extrapolate`] with an explicit AllReduce style (the wafer-scale case
/// study uses [`CollectiveStyle::Unsegmented`]).
///
/// # Panics
///
/// Same conditions as [`extrapolate`].
pub fn extrapolate_with_style(
    trace: &Trace,
    platform: &Platform,
    parallelism: Parallelism,
    global_batch: u64,
    compute: &ComputeModel,
    style: CollectiveStyle,
) -> TaskGraph {
    assert!(global_batch > 0, "global batch must be positive");
    let layers = summarize_layers(trace);
    let ex = Extrapolator {
        trace,
        platform,
        compute,
        layers,
        style,
    };
    match parallelism {
        Parallelism::DataParallel { overlap } => ex.data_parallel(global_batch, overlap),
        Parallelism::TensorParallel => ex.tensor_parallel(global_batch),
        Parallelism::Pipeline { chunks } => ex.pipeline(global_batch, chunks),
        Parallelism::Hybrid { dp_groups, chunks } => ex.hybrid(global_batch, dp_groups, chunks),
    }
}

struct Extrapolator<'a> {
    trace: &'a Trace,
    platform: &'a Platform,
    compute: &'a ComputeModel,
    layers: Vec<LayerSummary>,
    style: CollectiveStyle,
}

/// Operator times per `(trace entry, GPU)`, for the pairs a plan runs.
struct Durations {
    gpus: usize,
    times: Vec<TimeSpan>,
}

impl Durations {
    fn get(&self, entry: usize, gpu: usize) -> TimeSpan {
        self.times[entry * self.gpus + gpu]
    }
}

/// One GPipe schedule as [`Extrapolator::build_gpipe`] lays it out.
struct Gpipe {
    /// Layers per stage.
    stages: Vec<Vec<usize>>,
    /// Per stage, the completion task of every micro-batch's backward.
    bwd_done: Vec<Vec<TaskId>>,
    /// Operator times of every entry on its stage's GPU.
    times: Durations,
}

impl Extrapolator<'_> {
    fn gpus(&self) -> usize {
        self.platform.gpu_count()
    }

    fn all_reduce(&self, n: usize, bytes: u64) -> CollectiveSchedule {
        match self.style {
            CollectiveStyle::Segmented => ring_all_reduce(n, bytes),
            CollectiveStyle::Unsegmented => ring_all_reduce_unsegmented(n, bytes),
            CollectiveStyle::Tree => tree_all_reduce(n, bytes),
            CollectiveStyle::HalvingDoubling if n.is_power_of_two() => {
                halving_doubling_all_reduce(n, bytes)
            }
            CollectiveStyle::HalvingDoubling => ring_all_reduce(n, bytes),
        }
    }

    /// Bytes of the input batch the host ships to a GPU, at `batch`
    /// samples.
    fn input_bytes(&self, batch: u64) -> u64 {
        let first = &self.trace.entries()[0].op;
        let scaled = first.with_batch_scaled(self.trace.batch(), batch.max(1));
        scaled.bytes_in
    }

    /// An empty duration table for this trace on every GPU.
    fn durations(&self) -> Durations {
        let gpus = self.gpus();
        Durations {
            gpus,
            times: vec![TimeSpan::ZERO; self.trace.entries().len() * gpus],
        }
    }

    /// Times trace entry `ei` on each GPU of `gpus` into `out`, reshaping
    /// its operator once: `shape` turns `scratch`, a copy of the traced
    /// operator, into the operator that executes. Only the reference
    /// tier's board skew and context noise differ between GPUs, so the
    /// other policies time the operator once.
    fn time_entry(
        &self,
        out: &mut Durations,
        scratch: &mut Operator,
        ei: usize,
        gpus: impl IntoIterator<Item = usize>,
        shape: impl FnOnce(&mut Operator),
    ) {
        let entry = &self.trace.entries()[ei];
        scratch.clone_from(&entry.op);
        shape(scratch);
        let mut shared = None;
        for gpu in gpus {
            let t = match shared {
                Some(t) if !self.compute.varies_by_gpu() => t,
                _ => self.op_duration(entry, scratch, gpu),
            };
            shared = Some(t);
            out.times[ei * out.gpus + gpu] = t;
        }
    }

    /// Times one trace entry after rescaling its operator to `to`.
    fn op_duration(&self, entry: &TraceEntry, to: &Operator, gpu: usize) -> TimeSpan {
        let s = self.compute.op_time_s(entry.time_s, &entry.op, to, gpu);
        TimeSpan::from_seconds(s.max(0.0))
    }

    /// A scratch operator for [`time_entry`](Self::time_entry).
    fn scratch(&self) -> Operator {
        self.trace.entries()[0].op.clone()
    }

    /// Appends the compute task of entry `ei` on `gpu`, timed by `times`
    /// and chained after `dep`.
    fn compute_task(
        &self,
        g: &mut TaskGraph,
        times: &Durations,
        ei: usize,
        gpu: usize,
        dep: TaskId,
    ) -> TaskId {
        let entry = &self.trace.entries()[ei];
        g.compute_in_layer(
            format_args!("{}@g{}", entry.op.name, gpu),
            gpu,
            times.get(ei, gpu),
            [dep],
            entry.layer,
        )
    }

    /// Emits a collective schedule as transfer tasks with per-step
    /// barriers. `dep(r)` gates rank `r`'s first-step sends; returns the
    /// final barrier. Ranks map to GPUs 0..n in order.
    fn collective(
        &self,
        g: &mut TaskGraph,
        label: String,
        schedule: &CollectiveSchedule,
        dep: impl Fn(usize) -> Option<TaskId>,
    ) -> TaskId {
        self.collective_mapped(g, label, schedule, dep, |r| r)
    }

    /// [`collective`](Self::collective) with an explicit rank-to-GPU map
    /// (hybrid parallelism reduces gradients across the GPUs that hold
    /// the same pipeline stage in different data-parallel groups).
    fn collective_mapped(
        &self,
        g: &mut TaskGraph,
        label: String,
        schedule: &CollectiveSchedule,
        dep: impl Fn(usize) -> Option<TaskId>,
        gpu_of: impl Fn(usize) -> usize,
    ) -> TaskId {
        let mut prev_step: Option<TaskId> = None;
        let mut first_send: Option<TaskId> = None;
        for (si, step) in schedule.steps().iter().enumerate() {
            // A step's sends get consecutive ids; its barrier joins them.
            let sends = g.len();
            for t in step {
                let src = self.platform.gpu_node(gpu_of(t.src.0));
                let dst = self.platform.gpu_node(gpu_of(t.dst.0));
                let id = g.transfer(
                    format_args!("{label}.s{si}.{}->{}", t.src, t.dst),
                    src,
                    dst,
                    t.bytes,
                    prev_step.or_else(|| dep(t.src.0)),
                );
                first_send.get_or_insert(id);
            }
            let sends = (sends..g.len()).map(TaskId);
            prev_step = Some(g.barrier(format_args!("{label}.s{si}.done"), sends));
        }
        let done = prev_step.expect("collective schedules have at least one step");
        g.register_collective(CollectiveMeta {
            label,
            algorithm: schedule.kind().name(),
            payload_bytes: schedule.payload_bytes(),
            participants: schedule.ranks(),
            steps: schedule.step_count(),
            first: first_send.unwrap_or(done),
            last: done,
        });
        done
    }

    // ---------------- data parallelism ----------------

    fn data_parallel(&self, global_batch: u64, overlap: bool) -> TaskGraph {
        let n = self.gpus();
        let per_gpu = global_batch / n as u64;
        assert!(
            per_gpu >= 1,
            "global batch {global_batch} too small for {n} GPUs"
        );
        let mut g = TaskGraph::new(n);
        let host = self.platform.host_node();

        // Every replica runs every entry at the per-GPU batch size.
        let mut times = self.durations();
        let mut scratch = self.scratch();
        for ei in 0..self.trace.entries().len() {
            self.time_entry(&mut times, &mut scratch, ei, 0..n, |op| {
                op.scale_batch(self.trace.batch(), per_gpu);
            });
        }

        // Host ships each GPU its input slice.
        let input = self.input_bytes(per_gpu);
        let inputs: Vec<TaskId> = (0..n)
            .map(|gpu| {
                g.transfer(
                    format_args!("h2d.input@g{gpu}"),
                    host,
                    self.platform.gpu_node(gpu),
                    input,
                    None,
                )
            })
            .collect();

        // Forward + backward chains, replicated per GPU at the per-GPU
        // batch size. Track where each layer's backward finishes.
        let mut bwd_done: Vec<Vec<Option<TaskId>>> = vec![vec![None; self.layers.len()]; n];
        let mut cursors: Vec<TaskId> = inputs;
        for gpu in 0..n {
            let mut cursor = cursors[gpu];
            for l in &self.layers {
                for &ei in &l.fwd {
                    cursor = self.compute_task(&mut g, &times, ei, gpu, cursor);
                }
            }
            for l in self.layers.iter().rev() {
                for &ei in &l.bwd {
                    cursor = self.compute_task(&mut g, &times, ei, gpu, cursor);
                }
                bwd_done[gpu][l.index] = Some(cursor);
            }
            cursors[gpu] = cursor;
        }

        // Gradient synchronization. Inference traces (no backward ops)
        // produce no gradients: replicas are independent.
        let is_inference = self.layers.iter().all(|l| l.bwd.is_empty());
        let total_grads: u64 = self.layers.iter().map(|l| l.param_bytes).sum();
        let sync_done = if n == 1 || is_inference || total_grads == 0 {
            // Single GPU or inference: nothing to synchronize.
            g.barrier("no-sync", cursors.iter().copied())
        } else if overlap {
            // DDP: bucketed AllReduce, each kicked off as soon as the
            // bucket's last layer finishes backward; buckets serialize on
            // the communicator.
            let grad_sizes: Vec<u64> = self.layers.iter().map(|l| l.param_bytes).collect();
            let buckets = GradientBucketizer::default().bucketize(&grad_sizes);
            let mut last = None;
            for (bi, bucket) in buckets.iter().enumerate() {
                let ready_layer = bucket.ready_after_layer();
                let deps = (0..n)
                    .map(|gpu| bwd_done[gpu][ready_layer].expect("layer has backward"))
                    .chain(last);
                let gate = g.barrier(format_args!("ddp.bucket{bi}.ready"), deps);
                let sched = self.all_reduce(n, bucket.bytes);
                last = Some(self.collective(
                    &mut g,
                    format!("ddp.bucket{bi}.allreduce"),
                    &sched,
                    |_| Some(gate),
                ));
            }
            last.unwrap_or_else(|| g.barrier("no-grads", cursors.iter().copied()))
        } else {
            // Standard DataParallel: one AllReduce after the full
            // backward pass of every replica.
            let gate = g.barrier("dp.bwd.done", cursors.iter().copied());
            let sched = self.all_reduce(n, total_grads);
            self.collective(&mut g, "dp.allreduce".to_string(), &sched, |_| Some(gate))
        };

        // Optimizer step on every replica.
        for gpu in 0..n {
            let mut cursor = sync_done;
            for l in &self.layers {
                for &ei in &l.opt {
                    cursor = self.compute_task(&mut g, &times, ei, gpu, cursor);
                }
            }
        }
        g
    }

    // ---------------- tensor parallelism ----------------

    fn tensor_parallel(&self, global_batch: u64) -> TaskGraph {
        let n = self.gpus();
        assert!(n >= 2, "tensor parallelism needs at least 2 GPUs");
        let mut g = TaskGraph::new(n);
        let host = self.platform.host_node();

        // Forward and backward operators run at the full batch, sharded
        // 1/n where their layer splits. Each GPU updates its own shard of
        // the optimizer state: 1/n of splittable layers' parameters, a
        // full copy of replicated layers.
        let mut times = self.durations();
        let mut scratch = self.scratch();
        for l in &self.layers {
            for &ei in l.fwd.iter().chain(&l.bwd) {
                self.time_entry(&mut times, &mut scratch, ei, 0..n, |op| {
                    op.scale_batch(self.trace.batch(), global_batch);
                    if l.tp_splittable && shards_under_tp(op.class) {
                        shard_op(op, n);
                    }
                });
            }
            for &ei in &l.opt {
                self.time_entry(&mut times, &mut scratch, ei, 0..n, |op| {
                    if l.tp_splittable {
                        scale_op(op, 1.0 / n as f64);
                    }
                });
            }
        }

        // Every GPU sees the full batch: the host broadcasts the input.
        let input = self.input_bytes(global_batch);
        let mut cursors: Vec<TaskId> = (0..n)
            .map(|gpu| {
                g.transfer(
                    format_args!("h2d.input@g{gpu}"),
                    host,
                    self.platform.gpu_node(gpu),
                    input,
                    None,
                )
            })
            .collect();

        // Forward: splittable layers shard compute then AllGather the
        // partial outputs; other layers run replicated.
        for l in &self.layers {
            for (gpu, cursor) in cursors.iter_mut().enumerate() {
                for &ei in &l.fwd {
                    *cursor = self.compute_task(&mut g, &times, ei, gpu, *cursor);
                }
            }
            if l.tp_splittable && l.output_bytes > 0 {
                let out = scaled_bytes(l.output_bytes, self.trace.batch(), global_batch);
                let sched = ring_all_gather(n, out.max(1));
                let done =
                    self.collective(&mut g, format!("tp.l{}.allgather", l.index), &sched, |r| {
                        cursors.get(r).copied()
                    });
                cursors.fill(done);
            }
        }

        // Backward: mirrored; splittable layers AllReduce the gradient of
        // their input activation.
        for l in self.layers.iter().rev() {
            for (gpu, cursor) in cursors.iter_mut().enumerate() {
                for &ei in &l.bwd {
                    *cursor = self.compute_task(&mut g, &times, ei, gpu, *cursor);
                }
            }
            if l.tp_splittable {
                let input_bytes = self
                    .layers
                    .get(l.index.wrapping_sub(1))
                    .map(|p| p.output_bytes)
                    .unwrap_or(0);
                if input_bytes > 0 {
                    let bytes = scaled_bytes(input_bytes, self.trace.batch(), global_batch);
                    let sched = ring_all_reduce(n, bytes.max(1));
                    let done = self.collective(
                        &mut g,
                        format!("tp.l{}.grad.allreduce", l.index),
                        &sched,
                        |r| cursors.get(r).copied(),
                    );
                    cursors.fill(done);
                }
            }
        }

        // Optimizer: each GPU updates its own shard.
        for l in &self.layers {
            for (gpu, cursor) in cursors.iter_mut().enumerate() {
                for &ei in &l.opt {
                    *cursor = self.compute_task(&mut g, &times, ei, gpu, *cursor);
                }
            }
        }
        g
    }

    // ---------------- pipeline parallelism ----------------

    fn pipeline(&self, mini_batch: u64, chunks: u64) -> TaskGraph {
        let n = self.gpus();
        let mut g = TaskGraph::new(n);
        let gpu_map: Vec<usize> = (0..n).collect();
        let micro = Self::micro_batch(mini_batch, chunks);
        let pipe = self.build_gpipe(&mut g, micro, chunks, &gpu_map, "pp");

        // Optimizer: each stage updates its own layers once its backward
        // micro-batches are done.
        for (s, stage_layers) in pipe.stages.iter().enumerate() {
            let mut cursor = g.barrier(
                format_args!("pp.s{s}.bwd.done"),
                pipe.bwd_done[s].iter().copied(),
            );
            for &li in stage_layers {
                for &ei in &self.layers[li].opt {
                    cursor = self.compute_task(&mut g, &pipe.times, ei, s, cursor);
                }
            }
        }
        g
    }

    fn micro_batch(mini_batch: u64, chunks: u64) -> u64 {
        assert!(chunks >= 1, "need at least one micro-batch");
        let micro = mini_batch / chunks;
        assert!(
            micro >= 1,
            "mini-batch {mini_batch} too small for {chunks} chunks"
        );
        micro
    }

    /// Builds one GPipe schedule over `gpu_map` (stage s runs on GPU
    /// `gpu_map[s]`), and times every entry, optimizer steps included, on
    /// its stage's GPU at the micro-batch size.
    fn build_gpipe(
        &self,
        g: &mut TaskGraph,
        micro: u64,
        chunks: u64,
        gpu_map: &[usize],
        tag: &str,
    ) -> Gpipe {
        let n = gpu_map.len();
        let stages = self.assign_stages(n);
        let host = self.platform.host_node();

        let mut times = self.durations();
        let mut scratch = self.scratch();
        for (s, stage_layers) in stages.iter().enumerate() {
            for &li in stage_layers {
                let l = &self.layers[li];
                for &ei in l.fwd.iter().chain(&l.bwd).chain(&l.opt) {
                    self.time_entry(&mut times, &mut scratch, ei, [gpu_map[s]], |op| {
                        op.scale_batch(self.trace.batch(), micro);
                    });
                }
            }
        }

        // Forward: micro-batches flow through the stages.
        // fwd_done[stage][chunk] = completion task. Each stage processes
        // its micro-batches strictly in chunk order (the GPipe schedule):
        // chunk c+1's first operator additionally depends on chunk c's
        // last — otherwise the per-GPU FIFO would round-robin the chunks
        // and delay every downstream stage until the whole stage drained.
        let input = self.input_bytes(micro);
        let mut prev_chunk: Vec<Option<TaskId>> = vec![None; n];
        let mut all_fwd: Vec<TaskId> = Vec::new();
        for c in 0..chunks as usize {
            let mut carry: Option<TaskId> = None;
            for (s, stage_layers) in stages.iter().enumerate() {
                // Activations (or host input for stage 0) arrive first.
                let arrive = if s == 0 {
                    g.transfer(
                        format_args!("{tag}.h2d.input.c{c}"),
                        host,
                        self.platform.gpu_node(gpu_map[0]),
                        input,
                        None,
                    )
                } else {
                    let prev_out = stages[s - 1]
                        .last()
                        .map(|&li| self.layers[li].output_bytes)
                        .unwrap_or(0);
                    let bytes = scaled_bytes(prev_out, self.trace.batch(), micro).max(1);
                    g.transfer(
                        format_args!("{tag}.act.c{c}.s{}to{}", s - 1, s),
                        self.platform.gpu_node(gpu_map[s - 1]),
                        self.platform.gpu_node(gpu_map[s]),
                        bytes,
                        carry,
                    )
                };
                let gate = g.barrier(
                    format_args!("{tag}.fwd.c{c}.s{s}.start"),
                    std::iter::once(arrive).chain(prev_chunk[s]),
                );
                let mut cursor = gate;
                for &li in stage_layers {
                    for &ei in &self.layers[li].fwd {
                        cursor = self.compute_task(g, &times, ei, gpu_map[s], cursor);
                    }
                }
                prev_chunk[s] = Some(cursor);
                all_fwd.push(cursor);
                carry = Some(cursor);
            }
        }

        // GPipe flush: backward begins after every forward micro-batch
        // completes.
        let flush = g.barrier(format_args!("{tag}.flush"), all_fwd);

        // Backward: micro-batches drain in reverse stage order, each
        // stage again processing chunks strictly in (reverse) order.
        let mut bwd_done: Vec<Vec<Option<TaskId>>> = vec![vec![None; chunks as usize]; n];
        let mut prev_chunk: Vec<Option<TaskId>> = vec![None; n];
        for c in (0..chunks as usize).rev() {
            let mut carry: Option<TaskId> = None;
            for s in (0..n).rev() {
                let arrive = if s == n - 1 {
                    flush
                } else {
                    // Gradient of this stage's output arrives from the
                    // next stage.
                    let out_bytes = stages[s]
                        .last()
                        .map(|&li| self.layers[li].output_bytes)
                        .unwrap_or(0);
                    let bytes = scaled_bytes(out_bytes, self.trace.batch(), micro).max(1);
                    g.transfer(
                        format_args!("{tag}.grad.c{c}.s{}to{}", s + 1, s),
                        self.platform.gpu_node(gpu_map[s + 1]),
                        self.platform.gpu_node(gpu_map[s]),
                        bytes,
                        carry,
                    )
                };
                let gate = g.barrier(
                    format_args!("{tag}.bwd.c{c}.s{s}.start"),
                    std::iter::once(arrive).chain(prev_chunk[s]),
                );
                let mut cursor = gate;
                for &li in stages[s].iter().rev() {
                    for &ei in &self.layers[li].bwd {
                        cursor = self.compute_task(g, &times, ei, gpu_map[s], cursor);
                    }
                }
                bwd_done[s][c] = Some(cursor);
                prev_chunk[s] = Some(cursor);
                carry = Some(cursor);
            }
        }

        let bwd_done = bwd_done
            .into_iter()
            .map(|per_chunk| {
                per_chunk
                    .into_iter()
                    .map(|t| t.expect("bwd built"))
                    .collect()
            })
            .collect();
        Gpipe {
            stages,
            bwd_done,
            times,
        }
    }

    // ---------------- hybrid (data x pipeline) parallelism ----------------

    /// Hybrid parallelism: `dp_groups` data-parallel replicas, each a
    /// GPipe pipeline over `gpus / dp_groups` stages. After backward,
    /// each stage's gradients are AllReduced across the groups (one ring
    /// per stage, over the GPUs holding that stage), then every replica
    /// steps its optimizer. This is the DP x PP composition Table 1
    /// credits to DistSim/vTrain — implemented here as an extension.
    fn hybrid(&self, global_batch: u64, dp_groups: usize, chunks: u64) -> TaskGraph {
        let n = self.gpus();
        assert!(
            dp_groups >= 2,
            "hybrid needs at least two data-parallel groups"
        );
        assert!(
            n.is_multiple_of(dp_groups),
            "{n} GPUs do not divide into {dp_groups} groups"
        );
        let stages_per_group = n / dp_groups;
        assert!(
            stages_per_group >= 2,
            "hybrid needs at least two pipeline stages per group"
        );
        let per_group = global_batch / dp_groups as u64;
        let micro = Self::micro_batch(per_group.max(1), chunks);
        let mut g = TaskGraph::new(n);

        // Build one pipeline per group. Group gr owns GPUs
        // gr*stages .. (gr+1)*stages-1.
        let mut groups = Vec::with_capacity(dp_groups);
        for gr in 0..dp_groups {
            let gpu_map: Vec<usize> = (0..stages_per_group)
                .map(|s| gr * stages_per_group + s)
                .collect();
            groups.push(self.build_gpipe(&mut g, micro, chunks, &gpu_map, &format!("hp{gr}")));
        }

        // Per-stage gradient AllReduce across groups, then optimizers.
        for (s, stage_layers) in groups[0].stages.iter().enumerate() {
            let grad_bytes: u64 = stage_layers
                .iter()
                .map(|&li| self.layers[li].param_bytes)
                .sum();
            // Every group's backward for this stage must finish.
            let gate = g.barrier(
                format_args!("hp.s{s}.bwd.done"),
                groups.iter().flat_map(|p| p.bwd_done[s].iter().copied()),
            );
            let sync = if grad_bytes > 0 {
                let sched = self.all_reduce(dp_groups, grad_bytes);
                self.collective_mapped(
                    &mut g,
                    format!("hp.s{s}.allreduce"),
                    &sched,
                    |_| Some(gate),
                    |gr| gr * stages_per_group + s,
                )
            } else {
                gate
            };
            for (gr, pipe) in groups.iter().enumerate() {
                let gpu = gr * stages_per_group + s;
                let mut cursor = sync;
                for &li in stage_layers {
                    for &ei in &self.layers[li].opt {
                        cursor = self.compute_task(&mut g, &pipe.times, ei, gpu, cursor);
                    }
                }
            }
        }
        g
    }

    /// FLOP-balanced contiguous stage assignment (the paper's
    /// extrapolator "automatically assigns layers to GPUs to balance
    /// workloads"): stage boundaries land where the cumulative forward
    /// FLOPs cross each 1/n share, clamped so every stage gets at least
    /// one layer.
    fn assign_stages(&self, n: usize) -> Vec<Vec<usize>> {
        let len = self.layers.len();
        assert!(
            len >= n,
            "model has fewer layers ({len}) than pipeline stages ({n})"
        );
        let mut prefix = Vec::with_capacity(len);
        let mut acc = 0.0;
        for l in &self.layers {
            acc += l.fwd_flops;
            prefix.push(acc);
        }
        let total = acc;

        // cuts[k] = index of the last layer of stage k (0-based), for
        // k < n-1; stage n-1 runs to the end.
        let mut cuts = Vec::with_capacity(n - 1);
        let mut prev_cut: isize = -1;
        for k in 1..n {
            let target = total * k as f64 / n as f64;
            let raw = prefix.partition_point(|&p| p < target);
            // Each earlier stage needs >= 1 layer (lo), and n-k stages
            // after this cut each need >= 1 layer (hi).
            let lo = (prev_cut + 1) as usize;
            let hi = len - (n - k) - 1;
            let cut = raw.clamp(lo, hi);
            cuts.push(cut);
            prev_cut = cut as isize;
        }

        let mut stages: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut start = 0usize;
        for &cut in &cuts {
            stages.push((start..=cut).collect());
            start = cut + 1;
        }
        stages.push((start..len).collect());
        debug_assert!(stages.iter().all(|s| !s.is_empty()));
        stages
    }
}

/// Classes whose weights shard under tensor parallelism.
fn shards_under_tp(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::Conv2d | OpClass::Linear | OpClass::Embedding | OpClass::MatMul
    )
}

/// Shards an operator 1/n for tensor parallelism: compute, weights, and
/// produced activation split; consumed activation stays whole.
fn shard_op(op: &mut Operator, n: usize) {
    let f = 1.0 / n as f64;
    op.flops *= f;
    op.bytes_out = ((op.bytes_out as f64) * f).round().max(1.0) as u64;
    op.weight_bytes = ((op.weight_bytes as f64) * f).round() as u64;
}

/// Uniformly scales an operator's compute and bytes (optimizer shards).
fn scale_op(op: &mut Operator, f: f64) {
    op.flops *= f;
    op.bytes_in = ((op.bytes_in as f64) * f).round().max(1.0) as u64;
    op.bytes_out = ((op.bytes_out as f64) * f).round().max(1.0) as u64;
    op.weight_bytes = ((op.weight_bytes as f64) * f).round() as u64;
}

fn scaled_bytes(bytes: u64, from_batch: u64, to_batch: u64) -> u64 {
    ((bytes as f64) * (to_batch as f64) / (from_batch as f64)).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::ComputeModel;
    use triosim_modelzoo::ModelId;
    use triosim_perfmodel::LisModel;
    use triosim_trace::{GpuModel, Tracer};

    fn setup() -> (Trace, Platform, ComputeModel) {
        let model = ModelId::ResNet18.build(32);
        let trace = Tracer::new(GpuModel::A100).trace(&model);
        let platform = Platform::p2(4);
        let compute = ComputeModel::lis(LisModel::calibrated(GpuModel::A100));
        (trace, platform, compute)
    }

    #[test]
    fn dp_replicates_compute_per_gpu() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: false },
            128,
            &compute,
        );
        let compute_tasks = g
            .tasks()
            .filter(|t| matches!(t.kind, crate::TaskKind::Compute { .. }))
            .count();
        assert_eq!(compute_tasks, 4 * trace.entries().len());
    }

    #[test]
    fn dp_allreduce_moves_the_gradients() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: false },
            128,
            &compute,
        );
        // Non-input traffic must equal exactly one ring AllReduce of the
        // full gradient volume.
        let inputs: u64 = g
            .tasks()
            .filter_map(|t| match t.kind {
                crate::TaskKind::Transfer { bytes, .. } if t.label.starts_with("h2d") => {
                    Some(bytes)
                }
                _ => None,
            })
            .sum();
        let expected = ring_all_reduce(4, trace.gradient_bytes()).total_bytes();
        let total = g.total_transfer_bytes() - inputs;
        assert_eq!(total, expected);
    }

    #[test]
    fn ddp_produces_multiple_buckets() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: true },
            128,
            &compute,
        );
        let buckets: std::collections::HashSet<&str> = g
            .tasks()
            .filter(|t| t.label.contains("bucket"))
            .map(|t| t.label.split('.').nth(1).unwrap())
            .collect();
        // ResNet-18 has ~45 MB of gradients: at least 2 buckets of 25 MB.
        assert!(buckets.len() >= 2, "only {} buckets", buckets.len());
    }

    #[test]
    fn tp_sharded_flops_sum_to_replica_flops() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(&trace, &platform, Parallelism::TensorParallel, 32, &compute);
        assert!(g.len() > trace.entries().len());
        // AllGather traffic exists.
        let gathers = g.tasks().filter(|t| t.label.contains("allgather")).count();
        assert!(gathers > 0);
    }

    #[test]
    fn pp_stage_count_matches_gpus_and_chunks() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::Pipeline { chunks: 4 },
            32,
            &compute,
        );
        let act_sends = g.tasks().filter(|t| t.label.starts_with("pp.act")).count();
        // 4 chunks x 3 stage boundaries.
        assert_eq!(act_sends, 12);
        let grad_sends = g.tasks().filter(|t| t.label.starts_with("pp.grad")).count();
        assert_eq!(grad_sends, 12);
    }

    #[test]
    fn pp_single_chunk_has_no_parallel_microbatches() {
        let (trace, platform, compute) = setup();
        let g1 = extrapolate(
            &trace,
            &platform,
            Parallelism::Pipeline { chunks: 1 },
            32,
            &compute,
        );
        let g4 = extrapolate(
            &trace,
            &platform,
            Parallelism::Pipeline { chunks: 4 },
            32,
            &compute,
        );
        assert!(g4.len() > g1.len());
    }

    #[test]
    fn hybrid_builds_pipelines_per_group() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::Hybrid {
                dp_groups: 2,
                chunks: 2,
            },
            64,
            &compute,
        );
        // Two groups, each with its own activation sends (1 boundary x 2
        // chunks each) and a per-stage AllReduce.
        let hp0 = g.tasks().filter(|t| t.label.starts_with("hp0.act")).count();
        let hp1 = g.tasks().filter(|t| t.label.starts_with("hp1.act")).count();
        assert_eq!(hp0, 2);
        assert_eq!(hp1, 2);
        let allreduces = g
            .tasks()
            .filter(|t| t.label.contains("allreduce") && t.label.starts_with("hp.s"))
            .count();
        assert!(allreduces > 0, "per-stage gradient sync exists");
    }

    #[test]
    fn hybrid_gradient_volume_matches_dp_over_groups() {
        let (trace, platform, compute) = setup();
        let g = extrapolate(
            &trace,
            &platform,
            Parallelism::Hybrid {
                dp_groups: 2,
                chunks: 1,
            },
            64,
            &compute,
        );
        // Sum of per-stage AllReduce payloads = one 2-rank ring AllReduce
        // of the full gradient volume.
        let sync_bytes: u64 = g
            .tasks()
            .filter(|t| t.label.starts_with("hp.s") && t.label.contains("allreduce"))
            .map(|t| match t.kind {
                crate::TaskKind::Transfer { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        let expected = ring_all_reduce(2, trace.gradient_bytes()).total_bytes();
        // Per-stage sharding rounds each stage's payload, so allow 1%.
        let ratio = sync_bytes as f64 / expected as f64;
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn hybrid_group_count_must_divide_gpus() {
        let (trace, platform, compute) = setup();
        extrapolate(
            &trace,
            &platform,
            Parallelism::Hybrid {
                dp_groups: 3,
                chunks: 1,
            },
            96,
            &compute,
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn dp_batch_must_cover_gpus() {
        let (trace, platform, compute) = setup();
        extrapolate(
            &trace,
            &platform,
            Parallelism::DataParallel { overlap: false },
            2,
            &compute,
        );
    }
}
