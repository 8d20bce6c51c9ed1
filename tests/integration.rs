//! Workspace integration tests: exercise the whole pipeline — model zoo →
//! tracer → extrapolator → executor → report — across crates, checking
//! closed-form expectations on degenerate configurations and paper-shaped
//! behaviour on realistic ones.

use triosim::{Fidelity, Parallelism, Platform, SimBuilder};
use triosim_modelzoo::ModelId;
use triosim_network::{FlowNetwork, ReallocationMode};
use triosim_trace::{GpuModel, Trace, Tracer};

fn trace_of(model: ModelId, batch: u64, gpu: GpuModel) -> Trace {
    Tracer::new(gpu).trace(&model.build(batch))
}

/// On a single GPU at the traced batch size, TrioSim must reproduce the
/// trace: total time = sum of operator times plus the input shipment.
#[test]
fn single_gpu_same_batch_is_trace_replay() {
    let trace = trace_of(ModelId::ResNet18, 32, GpuModel::A100);
    let platform = Platform::pcie(GpuModel::A100, 1, "single");
    let report = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: false })
        .global_batch(32)
        .run();
    let compute = report.compute_time_s();
    assert!(
        (compute - trace.total_time_s()).abs() / trace.total_time_s() < 1e-9,
        "compute {compute} vs trace {}",
        trace.total_time_s()
    );
    // Total adds only the host input transfer.
    assert!(report.total_time_s() >= compute);
    assert!(report.total_time_s() < compute * 1.05);
}

/// Identical runs must produce byte-identical reports (determinism).
#[test]
fn simulation_is_deterministic() {
    let trace = trace_of(ModelId::Vgg11, 16, GpuModel::A40);
    let platform = Platform::p1();
    let run = || {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.total_time_s(), b.total_time_s());
    assert_eq!(a.bytes_transferred(), b.bytes_transferred());
    assert_eq!(a.timeline().len(), b.timeline().len());
}

/// The incremental reallocator (the default) must reproduce the
/// from-scratch `Full` oracle bit for bit at scale: a 64-GPU ResNet-50
/// DDP ring at the paper's per-GPU batch, compared on every byte of the
/// canonical report. `crates/network/tests/incremental_equivalence.rs`
/// covers small scripted topologies; this is the full-pipeline case.
#[test]
fn incremental_reallocation_matches_full_on_a_64_gpu_ring() {
    let gpus = 64;
    let trace = trace_of(ModelId::ResNet50, 128, GpuModel::A100);
    let platform: Platform = format!("ring:A100:{gpus}").parse().expect("ring spec");
    let run = |mode| {
        let mut net = FlowNetwork::new(platform.topology().clone());
        net.set_reallocation_mode(mode);
        let report = SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .global_batch(gpus * 128)
            .network(Box::new(net))
            .run();
        serde_json::to_string(&report.to_canonical_json()).expect("canonical JSON is finite")
    };
    assert_eq!(
        run(ReallocationMode::Incremental),
        run(ReallocationMode::Full),
        "incremental and full reallocation produced different reports"
    );
}

/// The executor's bytes accounting must match the extrapolated plan.
#[test]
fn transferred_bytes_match_plan() {
    let trace = trace_of(ModelId::ResNet18, 16, GpuModel::A100);
    let platform = Platform::p2(2);
    let builder = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .global_batch(32);
    let plan_bytes = builder.build_graph().total_transfer_bytes();
    let report = builder.run();
    assert_eq!(report.bytes_transferred(), plan_bytes);
}

/// DDP's overlapped AllReduce can't be slower than DataParallel's
/// deferred one on the same workload.
#[test]
fn ddp_at_least_as_fast_as_dp() {
    let trace = trace_of(ModelId::ResNet50, 32, GpuModel::A40);
    let platform = Platform::p1();
    let time = |overlap| {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap })
            .global_batch(64)
            .run()
            .total_time_s()
    };
    assert!(time(true) <= time(false) * 1.001);
}

/// Single-chunk GPipe serializes the stages: it must be slower than DDP
/// at the same total batch (the pipeline bubble).
#[test]
fn pipeline_bubble_exists() {
    let trace = trace_of(ModelId::ResNet34, 32, GpuModel::A100);
    let platform = Platform::p2(4);
    let ddp = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .global_batch(32)
        .run()
        .total_time_s();
    let pp1 = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::Pipeline { chunks: 1 })
        .global_batch(32)
        .run()
        .total_time_s();
    assert!(pp1 > ddp, "pp1 {pp1} vs ddp {ddp}");
}

/// With a large enough mini-batch, more micro-batches shrink the GPipe
/// bubble. (At *small* per-chunk batches the effect inverts because
/// per-operator launch overheads multiply — the same anomaly the paper
/// flags with orange triangles in Figure 10.)
#[test]
fn more_chunks_shrink_the_bubble_at_large_batch() {
    let trace = trace_of(ModelId::ResNet50, 256, GpuModel::A100);
    let platform = Platform::p2(4);
    let time = |chunks| {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::Pipeline { chunks })
            .global_batch(256)
            .run()
            .total_time_s()
    };
    assert!(
        time(4) < time(1),
        "4 chunks {} vs 1 chunk {}",
        time(4),
        time(1)
    );
}

/// At tiny micro-batches, launch-overhead floors make extra chunks
/// counterproductive — the inversion the paper observes on real hardware.
#[test]
fn tiny_microbatches_invert_the_chunk_benefit() {
    let trace = trace_of(ModelId::DenseNet121, 16, GpuModel::A100);
    let platform = Platform::p2(4);
    let time = |chunks| {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::Pipeline { chunks })
            .global_batch(16)
            .run()
            .total_time_s()
    };
    assert!(
        time(4) > time(1),
        "expected inversion: {} vs {}",
        time(4),
        time(1)
    );
}

/// Tensor parallelism across more GPUs shrinks per-GPU compute time.
#[test]
fn tp_shards_compute() {
    let trace = trace_of(ModelId::Vgg13, 32, GpuModel::A100);
    let compute_on = |gpus| {
        let platform = Platform::p2(gpus);
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::TensorParallel)
            .global_batch(32)
            .run()
            .compute_time_s()
    };
    assert!(compute_on(4) < compute_on(2));
}

/// NVLink (P2) communicates far faster than PCIe (P1): the same DDP
/// workload spends less wall-clock on communication.
#[test]
fn nvlink_beats_pcie_on_comm() {
    let trace_a40 = trace_of(ModelId::Vgg11, 32, GpuModel::A40);
    let trace_a100 = trace_of(ModelId::Vgg11, 32, GpuModel::A100);
    let comm = |trace: &Trace, platform: &Platform| {
        SimBuilder::new(trace, platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .global_batch(64)
            .run()
            .comm_time_s()
    };
    let pcie = comm(&trace_a40, &Platform::p1());
    let nvlink = comm(
        &trace_a100,
        &Platform::nvswitch(GpuModel::A100, 2, triosim_trace::LinkKind::NvLink3, "P2-2"),
    );
    assert!(nvlink < pcie / 3.0, "nvlink {nvlink} vs pcie {pcie}");
}

/// Prediction error against the reference ground truth stays within the
/// paper-reported bands for the core validation settings.
#[test]
fn validation_errors_within_paper_bands() {
    let cases: Vec<(ModelId, Parallelism, u64, f64)> = vec![
        // (model, parallelism, global batch, max error)
        (
            ModelId::ResNet18,
            Parallelism::DataParallel { overlap: true },
            64,
            0.10,
        ),
        (
            ModelId::Vgg11,
            Parallelism::DataParallel { overlap: false },
            64,
            0.15,
        ),
        (ModelId::ResNet18, Parallelism::TensorParallel, 32, 0.20),
        (
            ModelId::ResNet18,
            Parallelism::Pipeline { chunks: 2 },
            32,
            0.25,
        ),
    ];
    let platform = Platform::p1();
    for (model, parallelism, batch, max_err) in cases {
        let trace = trace_of(model, 32, GpuModel::A40);
        let pred = SimBuilder::new(&trace, &platform)
            .parallelism(parallelism)
            .global_batch(batch)
            .run()
            .total_time_s();
        let truth = SimBuilder::new(&trace, &platform)
            .parallelism(parallelism)
            .global_batch(batch)
            .fidelity(Fidelity::Reference)
            .run()
            .total_time_s();
        let err = (pred - truth).abs() / truth;
        assert!(
            err < max_err,
            "{model} {parallelism}: error {err:.3} exceeds {max_err}"
        );
    }
}

/// The cross-GPU path (trace on A40, simulate H100) predicts a speedup in
/// the right direction and magnitude.
#[test]
fn cross_gpu_prediction_direction() {
    let trace = trace_of(ModelId::ResNet50, 64, GpuModel::A40);
    let single_a40 = Platform::pcie(GpuModel::A40, 1, "a40");
    let single_h100 = Platform::pcie(GpuModel::H100, 1, "h100");
    let t = |p: &Platform| {
        SimBuilder::new(&trace, p)
            .parallelism(Parallelism::DataParallel { overlap: false })
            .global_batch(64)
            .run()
            .total_time_s()
    };
    let a40 = t(&single_a40);
    let h100 = t(&single_h100);
    assert!(h100 < a40, "H100 predicted faster");
    assert!(h100 > a40 / 10.0, "but not absurdly so");
}

/// Batch rescaling from one trace doubles work when the batch doubles
/// (weak scaling sanity at the whole-model level).
#[test]
fn batch_rescaling_scales_compute() {
    // VGG is GEMM-dominated, so doubling the batch ~doubles compute;
    // launch-overhead floors would blur this on op-fragmented models.
    let trace = trace_of(ModelId::Vgg16, 32, GpuModel::A100);
    let platform = Platform::pcie(GpuModel::A100, 1, "single");
    let t = |batch| {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: false })
            .global_batch(batch)
            .run()
            .compute_time_s()
    };
    let ratio = t(64) / t(32);
    assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
}

/// The per-layer compute breakdown (§4.1's output) accounts for every
/// compute second and mirrors the model's FLOP distribution.
#[test]
fn per_layer_breakdown_accounts_for_all_compute() {
    let trace = trace_of(ModelId::ResNet50, 32, GpuModel::A100);
    let platform = Platform::p2(2);
    let report = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .global_batch(64)
        .run();
    let per_layer = report.per_layer_compute_s();
    assert_eq!(per_layer.len(), trace.layer_count());
    let sum: f64 = per_layer.iter().sum();
    let total: f64 = report
        .per_gpu_compute()
        .iter()
        .map(|t| t.as_seconds())
        .sum();
    assert!(
        (sum - total).abs() / total < 1e-9,
        "sum {sum} vs total {total}"
    );
    assert!(per_layer.iter().all(|&t| t > 0.0), "every layer ran");
}

/// Transformers flow through every parallelism without panicking and
/// produce ordered, plausible reports.
#[test]
fn transformers_all_parallelisms() {
    let trace = trace_of(ModelId::T5Small, 8, GpuModel::A100);
    let platform = Platform::p2(2);
    for parallelism in [
        Parallelism::DataParallel { overlap: true },
        Parallelism::DataParallel { overlap: false },
        Parallelism::TensorParallel,
        Parallelism::Pipeline { chunks: 2 },
    ] {
        let report = SimBuilder::new(&trace, &platform)
            .parallelism(parallelism)
            .global_batch(16)
            .run();
        assert!(report.total_time_s() > 0.0, "{parallelism}");
        assert!(report.comm_time_s() > 0.0, "{parallelism}");
        assert!(
            report.total_time_s() < 60.0,
            "{parallelism} took absurdly long"
        );
    }
}
