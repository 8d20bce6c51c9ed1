//! Workspace-level property tests: invariants of the executor, the flow
//! network, and trace tooling under randomized inputs.

use proptest::prelude::*;
use triosim::{execute, TaskGraph};
use triosim_des::{TimeSpan, VirtualTime};
use triosim_network::{FlowNetwork, NetworkModel, NodeId, Topology};

/// Builds a random DAG of compute/transfer/barrier tasks whose deps only
/// point backwards (guaranteed acyclic).
fn random_graph(
    gpus: usize,
    spec: &[(u8, u64, u8)], // (kind selector, size, dep selector)
) -> TaskGraph {
    let mut g = TaskGraph::new(gpus);
    let mut ids = Vec::new();
    for (i, &(kind, size, dep)) in spec.iter().enumerate() {
        let deps = if ids.is_empty() || dep == 0 {
            vec![]
        } else {
            vec![ids[(dep as usize - 1) % ids.len()]]
        };
        let id = match kind % 3 {
            0 => g.compute(
                format!("c{i}"),
                (size as usize) % gpus,
                TimeSpan::from_micros((size % 1000) as f64),
                deps,
            ),
            1 => {
                let src = NodeId(1 + (size as usize) % gpus);
                let dst = NodeId(1 + (size as usize + 1) % gpus);
                g.transfer(format!("t{i}"), src, dst, size % 1_000_000 + 1, deps)
            }
            _ => g.barrier(format!("b{i}"), deps),
        };
        ids.push(id);
    }
    g
}

fn star_network(gpus: usize) -> FlowNetwork {
    // Host node 0 plus GPUs 1..=gpus, fully connected.
    Topology::switch(gpus + 1, 10e9, 1e-6);
    let mut topo = Topology::new(gpus + 1);
    for i in 0..=gpus {
        for j in (i + 1)..=gpus {
            topo.add_duplex(NodeId(i), NodeId(j), 10e9, 1e-6);
        }
    }
    FlowNetwork::new(topo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every random DAG executes to completion (no deadlock), finishing
    /// no earlier than its longest single task and no later than the sum
    /// of everything serialized.
    #[test]
    fn executor_never_deadlocks(
        gpus in 1usize..4,
        spec in prop::collection::vec((any::<u8>(), 1u64..2_000_000, any::<u8>()), 1..60),
    ) {
        let g = random_graph(gpus, &spec);
        let mut net = star_network(gpus);
        let report = execute(&g, &mut net);
        prop_assert_eq!(report.tasks_executed(), g.len());

        // Lower bound: the longest compute task must fit inside the total.
        let longest = g
            .tasks()
            .filter_map(|t| match t.kind {
                triosim::TaskKind::Compute { duration, .. } => Some(duration),
                _ => None,
            })
            .max()
            .unwrap_or(TimeSpan::ZERO);
        prop_assert!(report.total_time() >= longest);

        // Upper bound: fully serial execution plus generous per-transfer
        // time.
        let serial = g.total_compute_time().as_seconds()
            + g.tasks().len() as f64 * 1e-3
            + g.total_transfer_bytes() as f64 / 1e9;
        prop_assert!(report.total_time_s() <= serial + 1e-6);
    }

    /// Executor determinism on random DAGs.
    #[test]
    fn executor_is_deterministic(
        spec in prop::collection::vec((any::<u8>(), 1u64..1_000_000, any::<u8>()), 1..40),
    ) {
        let g = random_graph(2, &spec);
        let a = execute(&g, &mut star_network(2));
        let b = execute(&g, &mut star_network(2));
        prop_assert_eq!(a.total_time(), b.total_time());
        prop_assert_eq!(a.bytes_transferred(), b.bytes_transferred());
    }

    /// Flow network: concurrent flows on one link never finish earlier
    /// than ideal (bytes / bandwidth) and the link is conserved — total
    /// goodput never exceeds capacity.
    #[test]
    fn flows_respect_capacity(sizes in prop::collection::vec(1u64..50_000_000, 1..12)) {
        let mut topo = Topology::new(2);
        let bw = 1e9;
        topo.add_duplex(NodeId(0), NodeId(1), bw, 0.0);
        let mut net = FlowNetwork::new(topo);
        let t0 = VirtualTime::ZERO;
        let mut pending: Vec<(triosim_network::FlowId, VirtualTime)> = Vec::new();
        let mut schedule_of = std::collections::HashMap::new();
        for &bytes in &sizes {
            let (f, cmds) = net.send(t0, NodeId(0), NodeId(1), bytes);
            for c in cmds {
                if let triosim_network::NetCommand::Schedule { flow, at } = c {
                    schedule_of.insert(flow, at);
                }
            }
            pending.push((f, VirtualTime::ZERO));
        }
        // Deliver flows in scheduled order, applying rescheduling.
        let total_bytes: u64 = sizes.iter().sum();
        let mut last = VirtualTime::ZERO;
        while !schedule_of.is_empty() {
            let (&flow, &at) = schedule_of
                .iter()
                .min_by_key(|(f, at)| (**at, **f))
                .unwrap();
            schedule_of.remove(&flow);
            prop_assert!(at >= last, "deliveries move forward");
            last = at;
            for c in net.deliver(flow, at) {
                if let triosim_network::NetCommand::Schedule { flow, at } = c {
                    schedule_of.insert(flow, at);
                }
            }
        }
        // All bytes crossed one 1 GB/s link: the last delivery can't beat
        // the capacity bound.
        let ideal = total_bytes as f64 / bw;
        prop_assert!(
            last.as_seconds() >= ideal * (1.0 - 1e-9),
            "finished {} < ideal {}",
            last.as_seconds(),
            ideal
        );
        prop_assert_eq!(net.bytes_delivered(), total_bytes);
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Trace JSON round-trips for arbitrary zoo models and batch sizes.
    #[test]
    fn trace_round_trips(model_idx in 0usize..18, batch in 1u64..16) {
        let model = triosim_modelzoo::ModelId::ALL[model_idx].build(batch);
        let trace = triosim_trace::Tracer::new(triosim_trace::GpuModel::A40).trace(&model);
        let json = trace.to_json().unwrap();
        let back = triosim_trace::Trace::from_json(&json).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Model FLOPs scale exactly linearly in batch for every zoo model.
    #[test]
    fn model_flops_linear_in_batch(model_idx in 0usize..18, batch in 1u64..8) {
        let id = triosim_modelzoo::ModelId::ALL[model_idx];
        let base = id.build(batch).total_flops();
        let doubled = id.build(batch * 2).total_flops();
        prop_assert!((doubled / base - 2.0).abs() < 1e-9);
    }

    /// The whole pipeline survives workloads that don't exist: random
    /// synthetic CNNs and transformers trace, extrapolate, and simulate
    /// under every parallelism without panicking, and predictions stay
    /// within a loose band of the reference ground truth.
    #[test]
    fn synthetic_workloads_survive_the_pipeline(
        seed in 0u64..1000,
        cnn in any::<bool>(),
        strategy in 0u8..4,
    ) {
        use triosim::{Fidelity, Parallelism, Platform, SimBuilder};
        let batch = 8u64;
        let model = if cnn {
            triosim_modelzoo::random_cnn(seed, batch)
        } else {
            triosim_modelzoo::random_transformer(seed, batch)
        };
        let trace =
            triosim_trace::Tracer::new(triosim_trace::GpuModel::A100).trace(&model);
        let platform = Platform::p2(2);
        let (parallelism, global) = match strategy % 4 {
            0 => (Parallelism::DataParallel { overlap: true }, batch * 2),
            1 => (Parallelism::DataParallel { overlap: false }, batch * 2),
            2 => (Parallelism::TensorParallel, batch),
            _ => (Parallelism::Pipeline { chunks: 2 }, batch),
        };
        let run = |fidelity| {
            SimBuilder::new(&trace, &platform)
                .parallelism(parallelism)
                .global_batch(global)
                .fidelity(fidelity)
                .run()
                .total_time_s()
        };
        let pred = run(Fidelity::TrioSim);
        let truth = run(Fidelity::Reference);
        prop_assert!(pred > 0.0 && truth > 0.0);
        // Band is deliberately loose: tiny random models at batch 8 sit in
        // the launch-overhead-dominated regime the paper itself excludes
        // ("TrioSim assumes high GPU utilization, making it less accurate
        // ... when the kernels are small", §8.4). The property under test
        // is robustness (no panic, plausible output), not accuracy.
        let err = (pred - truth).abs() / truth;
        prop_assert!(err < 1.0, "error {err:.3} out of band for seed {seed}");
    }
}
