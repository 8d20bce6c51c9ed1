//! Property tests for the trace extrapolator (§4.3): for random
//! model / batch / world-size combinations, collective operations are
//! inserted exactly where the parallelism strategy demands, and compute
//! time is conserved across world sizes.
//!
//! These are the structural contracts the golden snapshots can't cover:
//! snapshots pin four configurations byte-for-byte, while these
//! properties pin the *rules* (one AllReduce per DP iteration, one
//! AllGather per splittable TP layer, `chunks x (stages-1)` micro-batch
//! hand-offs for GPipe) for every configuration proptest can reach.

use proptest::prelude::*;
use triosim::{extrapolate, summarize_layers, ComputeModel, Parallelism, Platform, TaskGraph};
use triosim_collectives::GradientBucketizer;
use triosim_modelzoo::ModelId;
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace, Tracer};

// One CNN, one residual net, one transformer: structurally distinct
// layer graphs (VGG has no residual joins, GPT-2 has attention blocks)
// while staying cheap enough to trace hundreds of times. The vendored
// proptest subset has no `prop_oneof`, so tests draw an index and map.
const MODELS: [ModelId; 3] = [ModelId::Vgg11, ModelId::ResNet18, ModelId::Gpt2];
const WORLDS: [usize; 3] = [2, 4, 8];
const BATCHES: [u64; 3] = [4, 8, 16];

fn trace_for(model: ModelId, batch: u64) -> Trace {
    Tracer::new(GpuModel::A100).trace(&model.build(batch))
}

fn graph_for(trace: &Trace, n: usize, parallelism: Parallelism, global_batch: u64) -> TaskGraph {
    let platform = Platform::p2(n);
    let compute = ComputeModel::lis(LisModel::calibrated(GpuModel::A100));
    extrapolate(trace, &platform, parallelism, global_batch, &compute)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plain DataParallel synchronizes with exactly one AllReduce per
    /// iteration, spanning all ranks and carrying the full gradient
    /// volume.
    #[test]
    fn dp_inserts_exactly_one_allreduce(mi in 0usize..3, bi in 0usize..3, wi in 0usize..3) {
        let (model, batch, n) = (MODELS[mi], BATCHES[bi], WORLDS[wi]);
        let trace = trace_for(model, batch);
        let g = graph_for(
            &trace,
            n,
            Parallelism::DataParallel { overlap: false },
            batch * n as u64,
        );
        let allreduces: Vec<_> = g
            .collectives()
            .iter()
            .filter(|c| c.algorithm == "allreduce")
            .collect();
        prop_assert_eq!(allreduces.len(), 1);
        let c = allreduces[0];
        prop_assert_eq!(c.label.as_str(), "dp.allreduce");
        prop_assert_eq!(c.participants, n);
        let total_grads: u64 = summarize_layers(&trace).iter().map(|l| l.param_bytes).sum();
        prop_assert_eq!(c.payload_bytes, total_grads);
    }

    /// DDP buckets gradients exactly the way the bucketizer says: one
    /// AllReduce per bucket, in bucket order.
    #[test]
    fn ddp_allreduce_count_matches_bucketizer(mi in 0usize..3, bi in 0usize..3, wi in 0usize..3) {
        let (model, batch, n) = (MODELS[mi], BATCHES[bi], WORLDS[wi]);
        let trace = trace_for(model, batch);
        let g = graph_for(
            &trace,
            n,
            Parallelism::DataParallel { overlap: true },
            batch * n as u64,
        );
        let grad_sizes: Vec<u64> =
            summarize_layers(&trace).iter().map(|l| l.param_bytes).collect();
        let expected = GradientBucketizer::default().bucketize(&grad_sizes);
        let allreduces: Vec<_> = g
            .collectives()
            .iter()
            .filter(|c| c.algorithm == "allreduce")
            .collect();
        prop_assert_eq!(allreduces.len(), expected.len());
        for (idx, (c, bucket)) in allreduces.iter().zip(&expected).enumerate() {
            prop_assert_eq!(c.label.clone(), format!("ddp.bucket{idx}.allreduce"));
            prop_assert_eq!(c.payload_bytes, bucket.bytes);
            prop_assert_eq!(c.participants, n);
        }
    }

    /// Tensor parallelism gathers at exactly the layer boundaries the
    /// model structure demands: one forward AllGather per splittable
    /// layer that produces output.
    #[test]
    fn tp_allgather_count_matches_splittable_layers(
        mi in 0usize..3,
        bi in 0usize..3,
        wi in 0usize..3,
    ) {
        let (model, batch, n) = (MODELS[mi], BATCHES[bi], WORLDS[wi]);
        let trace = trace_for(model, batch);
        let g = graph_for(&trace, n, Parallelism::TensorParallel, batch);
        let expected = summarize_layers(&trace)
            .iter()
            .filter(|l| l.tp_splittable && l.output_bytes > 0)
            .count();
        let gathers = g
            .collectives()
            .iter()
            .filter(|c| c.algorithm == "allgather")
            .count();
        prop_assert_eq!(gathers, expected);
        prop_assert!(expected > 0, "chosen models all have splittable layers");
    }

    /// GPipe moves exactly `chunks x (stages - 1)` activation hand-offs
    /// forward and the same number of gradient hand-offs backward.
    #[test]
    fn gpipe_microbatch_handoffs_match_chunks(
        mi in 0usize..3,
        bi in 1usize..3,
        wi in 0usize..3,
        ci in 0usize..3,
    ) {
        let (model, batch, n) = (MODELS[mi], BATCHES[bi], WORLDS[wi]);
        let chunks = [1u64, 2, 4][ci];
        let trace = trace_for(model, batch);
        let g = graph_for(&trace, n, Parallelism::Pipeline { chunks }, batch);
        let expected = (chunks as usize) * (n - 1);
        let acts = g
            .tasks()
            .filter(|t| t.label.starts_with("pp.act"))
            .count();
        let grads = g
            .tasks()
            .filter(|t| t.label.starts_with("pp.grad"))
            .count();
        prop_assert_eq!(acts, expected);
        prop_assert_eq!(grads, expected);
    }

    /// Weak-scaling data parallelism conserves compute: every replica
    /// runs the traced per-GPU workload unchanged, so total compute time
    /// divided by world size is invariant in the world size.
    #[test]
    fn dp_weak_scaling_conserves_per_gpu_compute(
        mi in 0usize..3,
        bi in 0usize..3,
        ni in 0usize..2,
    ) {
        let (model, batch, n) = (MODELS[mi], BATCHES[bi], [2usize, 4][ni]);
        let trace = trace_for(model, batch);
        let per_gpu = |world: usize| {
            let g = graph_for(
                &trace,
                world,
                Parallelism::DataParallel { overlap: true },
                batch * world as u64,
            );
            g.total_compute_time().as_seconds() / world as f64
        };
        let small = per_gpu(n);
        let large = per_gpu(2 * n);
        let rel = (small - large).abs() / small.max(1e-30);
        prop_assert!(rel < 1e-9, "per-GPU compute drifted: {small} vs {large}");
    }
}
