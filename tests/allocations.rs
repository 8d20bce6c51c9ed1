//! Heap-block budgets for graph build and the engine loop.
//!
//! A counting global allocator tallies the blocks each thread allocates
//! (fresh allocations and reallocations), so tests running in parallel
//! do not see each other's blocks. Per-task work in the extrapolator and
//! the executor must not allocate: graph build allocates far fewer blocks
//! than it emits tasks, and a run allocates a number of blocks that does
//! not grow with the task count. Each bound is twice the count measured
//! when it was set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triosim::{execute, extrapolate, ComputeModel, Parallelism, Platform, TaskGraph, TaskId};
use triosim_des::TimeSpan;
use triosim_modelzoo::ModelId;
use triosim_network::{FlowNetwork, NodeId, Topology};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Tracer};

struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count_block() {
    // `try_with` keeps the allocator usable while the thread's locals
    // are being torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each inherits the caller's guarantees and `System`'s contract;
// counting touches only a thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller's `layout` guarantees pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller's `layout` guarantees pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller's guarantees on both and on `new_size`
        // pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`, returning its result and the blocks this thread allocated.
fn blocks<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BLOCKS.with(Cell::get);
    let r = f();
    (r, BLOCKS.with(Cell::get) - before)
}

/// Extrapolating ResNet-18 under tensor parallelism on four GPUs (1,016
/// tasks) took 234 blocks: the layer summary, the duration table, the
/// graph's growing arrays, and each collective's schedule and label.
/// With a `String` label, a `Vec` of dependencies and a rescaled
/// `Operator` per task it took 5,326.
#[test]
fn graph_build_allocates_far_fewer_blocks_than_tasks() {
    const BOUND: u64 = 470;
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(32));
    let platform = Platform::p2(4);
    let compute = ComputeModel::lis(LisModel::calibrated(GpuModel::A100));
    let (graph, n) =
        blocks(|| extrapolate(&trace, &platform, Parallelism::TensorParallel, 32, &compute));
    println!("extrapolate: {n} blocks for {} tasks", graph.len());
    assert!(n <= BOUND, "{n} blocks for {} tasks", graph.len());
}

/// Four GPUs each run `steps` compute tasks, joined by a barrier after
/// every step: `5 * steps` tasks in all.
fn compute_and_barriers(steps: usize) -> TaskGraph {
    let mut g = TaskGraph::new(4);
    let mut join: Option<TaskId> = None;
    for s in 0..steps {
        let ops: Vec<TaskId> = (0..4)
            .map(|gpu| {
                let t = TimeSpan::from_micros((1 + (s + gpu) % 5) as f64);
                g.compute(
                    format!("op{s}@g{gpu}"),
                    gpu,
                    t,
                    join.into_iter().collect::<Vec<_>>(),
                )
            })
            .collect();
        join = Some(g.barrier(format!("step{s}"), ops));
    }
    g
}

/// Executing 1,000 tasks took 82 blocks and 10,000 tasks 92: the per-run
/// tables, plus the logarithmic growth of the dependency table's edges
/// and the critical path. With a cloned label per timeline record, a
/// `Vec` of dependents per task and a worklist per completion they took
/// 3,723 and 36,152.
#[test]
fn engine_allocations_do_not_grow_with_task_count() {
    const BOUND: u64 = 184;
    const GROWTH: u64 = 20;
    let net = || {
        let mut t = Topology::new(5);
        for gpu in 1..5 {
            t.add_duplex(NodeId(0), NodeId(gpu), 1e9, 0.0);
        }
        FlowNetwork::new(t)
    };
    let mut counts = Vec::new();
    for steps in [200, 2_000] {
        let g = compute_and_barriers(steps);
        let mut network = net();
        let (report, n) = blocks(|| execute(&g, &mut network));
        assert_eq!(report.tasks_executed(), g.len());
        println!("execute: {n} blocks for {} tasks", g.len());
        counts.push((g.len(), n));
    }
    for &(tasks, n) in &counts {
        assert!(n <= BOUND, "{n} blocks for {tasks} tasks");
    }
    let (small, large) = (counts[0].1, counts[1].1);
    assert!(
        large <= small + GROWTH,
        "{small} blocks grew to {large} at ten times the tasks"
    );
}
