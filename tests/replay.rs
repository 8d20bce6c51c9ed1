//! Steady-state replay identity properties: a run that replay shortens
//! must be indistinguishable from simulating every iteration — the same
//! canonical bytes, the same budget trips (kind and limit), the same
//! timeline exports and the same derived statistics — for every
//! parallelism strategy, model, batch and iteration count. Replay must
//! also stay off wherever its exactness is not structural.
//!
//! The oracle is the same flow network behind [`Serial`], a wrapper that
//! forwards every [`NetworkModel`] method but does not claim iteration
//! invariance, so the executor simulates every iteration.

use proptest::prelude::*;
use triosim::{
    FaultPlan, Fidelity, GpuSlowdown, Jitter, Parallelism, Platform, SelfProfiler, SimBuilder,
    SimReport,
};
use triosim_des::{RunBudget, VirtualTime};
use triosim_modelzoo::ModelId;
use triosim_network::{
    FlowId, FlowNetwork, LinkFault, LinkObservation, NetCheckpoint, NetCommand, NetObservation,
    NetRestoreError, NetStatsSnapshot, NetworkModel, NodeId, PacketObservation, PartitionedError,
};
use triosim_obs::{JsonlSink, RunRecorder};
use triosim_trace::{GpuModel, Trace, Tracer};

/// Forwards every method to the wrapped model except
/// `iteration_invariant`, which stays `false`: replay never engages.
#[derive(Debug)]
struct Serial(Box<dyn NetworkModel + Send>);

impl NetworkModel for Serial {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        self.0.send(now, src, dst, bytes)
    }
    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        self.0.try_send(now, src, dst, bytes)
    }
    fn apply_link_fault(
        &mut self,
        now: VirtualTime,
        a: NodeId,
        b: NodeId,
        fault: LinkFault,
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        self.0.apply_link_fault(now, a, b, fault)
    }
    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        self.0.deliver(flow, now)
    }
    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }
    fn observe(&self) -> NetObservation {
        self.0.observe()
    }
    fn observe_links(&self) -> Vec<LinkObservation> {
        self.0.observe_links()
    }
    fn observe_packets(&self) -> Option<PacketObservation> {
        self.0.observe_packets()
    }
    fn fork_pristine(&self) -> Option<Box<dyn NetworkModel + Send>> {
        self.0.fork_pristine()
    }
    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        self.0.stats_snapshot()
    }
    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        self.0.absorb_stats(snapshot);
    }
    fn spec_fingerprint(&self) -> u64 {
        self.0.spec_fingerprint()
    }
    fn checkpoint_state(&self) -> Option<NetCheckpoint> {
        self.0.checkpoint_state()
    }
    fn restore_state(&mut self, ck: &NetCheckpoint) -> Result<(), NetRestoreError> {
        self.0.restore_state(ck)
    }
}

fn trace(model: ModelId, batch: u64) -> Trace {
    Tracer::new(GpuModel::A100).trace(&model.build(batch))
}

fn parallelism(index: usize) -> Parallelism {
    match index % 4 {
        0 => Parallelism::DataParallel { overlap: false },
        1 => Parallelism::DataParallel { overlap: true },
        2 => Parallelism::TensorParallel,
        _ => Parallelism::Pipeline { chunks: 2 },
    }
}

fn model(index: usize) -> ModelId {
    [ModelId::Vgg11, ModelId::ResNet18][index % 2]
}

/// The default (replay-capable) configuration of one scenario.
fn plain<'a>(t: &'a Trace, p: &'a Platform, par: Parallelism, iters: usize) -> SimBuilder<'a> {
    SimBuilder::new(t, p).parallelism(par).iterations(iters)
}

/// The same scenario on the serial oracle.
fn oracle<'a>(t: &'a Trace, p: &'a Platform, par: Parallelism, iters: usize) -> SimBuilder<'a> {
    let net = Serial(Box::new(FlowNetwork::new(p.topology().clone())));
    plain(t, p, par, iters).network(Box::new(net))
}

fn canonical(r: Result<SimReport, triosim::SimError>) -> Result<String, String> {
    r.map(|r| r.to_canonical_string())
        .map_err(|e| e.to_string())
}

/// Relative agreement of two derived statistics.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole contract: any parallelism, model, batch and
    /// iteration count — the same bytes as the serial oracle, with replay
    /// actually engaged.
    #[test]
    fn replayed_reports_are_byte_identical_to_serial(
        model_ix in 0usize..2,
        par_ix in 0usize..4,
        gpus_ix in 0usize..2,
        batch_ix in 0usize..2,
        iters_ix in 0usize..3,
    ) {
        let gpus = [2usize, 4][gpus_ix];
        let batch = [4u64, 8][batch_ix];
        let iterations = [3usize, 7, 50][iters_ix];
        let t = trace(model(model_ix), batch);
        let p = Platform::p2(gpus);
        let par = parallelism(par_ix);
        let serial = oracle(&t, &p, par, iterations).run();
        let replayed = plain(&t, &p, par, iterations).run();
        prop_assert!(serial.replay().is_none());
        let summary = replayed.replay();
        prop_assert!(summary.is_some(), "replay engages on the flow tier");
        prop_assert_eq!(
            summary.map(|s| s.simulated + s.synthesized),
            Some(iterations)
        );
        prop_assert_eq!(
            serial.to_canonical_string(),
            replayed.to_canonical_string(),
            "model={:?} par={:?} gpus={} iters={}",
            model(model_ix), par, gpus, iterations
        );
    }

    /// Fault plans keep the plain loop: the faulted run is not replayed,
    /// and its bytes equal the oracle's.
    #[test]
    fn faulted_runs_are_never_replayed(
        par_ix in 0usize..4,
        seed in 0u64..1000,
        iterations in 3usize..5,
    ) {
        let t = trace(ModelId::Vgg11, 4);
        let p = Platform::p2(2);
        let par = parallelism(par_ix);
        let plan = FaultPlan {
            seed,
            gpu_slowdowns: vec![GpuSlowdown { gpu: 0, factor: 1.25 }],
            jitter: Some(Jitter { amplitude: 0.03 }),
            ..FaultPlan::default()
        };
        let faulted = plain(&t, &p, par, iterations).faults(plan.clone()).run();
        prop_assert!(faulted.replay().is_none());
        let serial = oracle(&t, &p, par, iterations).faults(plan).run();
        prop_assert_eq!(serial.to_canonical_string(), faulted.to_canonical_string());
    }

    /// Event budgets trip identically: same kind and limit, or the same
    /// successful bytes — including a limit one event short of the run,
    /// which replay must refuse to synthesize past, and the exact event
    /// count, under which replay stays on.
    #[test]
    fn budget_trips_match_the_serial_oracle(
        limit_ix in 0usize..6,
        iters_ix in 0usize..3,
        par_ix in 0usize..4,
    ) {
        let iterations = [3usize, 7, 50][iters_ix];
        let t = trace(ModelId::Vgg11, 4);
        let p = Platform::p2(2);
        let par = parallelism(par_ix);
        let events = oracle(&t, &p, par, iterations).run().queue_stats().delivered();
        let limit = [50u64, 500, 5_000, 50_000, events - 1, events][limit_ix];
        let budget = || RunBudget::unlimited().with_max_events(limit);
        let serial = canonical(oracle(&t, &p, par, iterations).budget(budget()).try_run());
        let replayed = plain(&t, &p, par, iterations).budget(budget()).try_run();
        if limit >= events {
            prop_assert!(
                replayed.as_ref().is_ok_and(|r| r.replay().is_some()),
                "a budget the run provably fits keeps replay on"
            );
        }
        prop_assert_eq!(&serial, &canonical(replayed), "limit={}", limit);
        if limit == events - 1 {
            prop_assert!(serial.is_err(), "one event short must trip");
        }
    }
}

/// Simulated-time budgets must also trip identically, from "inside the
/// first iteration" to "inside an iteration replay would synthesize" to
/// "never".
#[test]
fn sim_time_budget_trips_match_the_serial_oracle() {
    let t = trace(ModelId::Vgg11, 4);
    let p = Platform::p2(2);
    let par = Parallelism::DataParallel { overlap: true };
    for iterations in [3, 7, 50] {
        let total_us = oracle(&t, &p, par, iterations).run().total_time_s() * 1e6;
        let last = total_us.ceil() as u64 - 1;
        for us in [1, 1_000, 30_000, last, 1_000_000_000] {
            let run = |b: SimBuilder<'_>| {
                canonical(
                    b.budget(RunBudget::unlimited().with_max_sim_time_us(us))
                        .try_run(),
                )
            };
            let serial = run(oracle(&t, &p, par, iterations));
            assert_eq!(
                serial,
                run(plain(&t, &p, par, iterations)),
                "iterations={iterations} us={us}"
            );
            if us == last {
                assert!(serial.is_err(), "the final iteration crosses the horizon");
            }
        }
    }
}

/// What a replayed report materializes or derives on demand — the
/// timeline, its Chrome-trace export, per-layer compute and utilization
/// — matches the fully simulated run.
#[test]
fn replayed_timeline_and_statistics_match_the_oracle() {
    let t = trace(ModelId::ResNet18, 8);
    let p = Platform::p2(4);
    for par_ix in 0..4 {
        let par = parallelism(par_ix);
        let serial = oracle(&t, &p, par, 7).run();
        let replayed = plain(&t, &p, par, 7).run();
        assert!(replayed.replay().is_some());
        assert_eq!(serial.timeline().len(), replayed.timeline().len());
        assert!(serial.timeline() == replayed.timeline(), "{par:?}");
        assert!(
            serial.to_chrome_trace().unwrap() == replayed.to_chrome_trace().unwrap(),
            "{par:?}"
        );
        let (a, b) = (serial.per_layer_compute_s(), replayed.per_layer_compute_s());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| close(*x, *y)), "{par:?}");
        let (a, b) = (serial.gpu_utilization(40), replayed.gpu_utilization(40));
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert!(ra.iter().zip(rb).all(|(x, y)| close(*x, *y)), "{par:?}");
        }
    }
}

/// Replay engages only where its exactness is structural.
#[test]
fn replay_does_not_engage_where_it_is_not_exact() {
    let t = trace(ModelId::Vgg11, 4);
    let p = Platform::p2(2);
    let par = Parallelism::DataParallel { overlap: true };
    let replayed = |r: &SimReport| r.replay().is_some();

    assert!(replayed(&plain(&t, &p, par, 3).run()), "the control case");
    for iterations in [1, 2] {
        assert!(
            !replayed(&plain(&t, &p, par, iterations).run()),
            "{iterations} iterations leave nothing to synthesize"
        );
    }
    assert!(!replayed(
        &plain(&t, &p, par, 3).fidelity(Fidelity::Packet).run()
    ));
    let plan = FaultPlan {
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 1,
            factor: 1.5,
        }],
        ..FaultPlan::default()
    };
    assert!(!replayed(&plain(&t, &p, par, 3).faults(plan).run()));
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(std::io::sink())));
    assert!(!replayed(
        &plain(&t, &p, par, 3).recorder(Box::new(recorder)).run()
    ));
    let path = std::env::temp_dir().join(format!("triosim-replay-{}.ckpt", std::process::id()));
    let checkpointed = plain(&t, &p, par, 3).checkpoint(&path, 1).run();
    std::fs::remove_file(&path).ok();
    assert!(!replayed(&checkpointed));
    assert_eq!(
        checkpointed.to_canonical_string(),
        plain(&t, &p, par, 3).run().to_canonical_string(),
        "the checkpointed run is a serial oracle for the replayed one"
    );
}

/// Profiling a replayed run changes no bytes, and the profile shows the
/// replay span under the engine loop beside the report-build span.
#[test]
fn profiling_a_replayed_run_changes_no_bytes() {
    let t = trace(ModelId::ResNet18, 8);
    let p = Platform::p2(4);
    let par = Parallelism::DataParallel { overlap: true };
    let bare = plain(&t, &p, par, 20).run();
    let mut prof = SelfProfiler::new();
    let profiled = plain(&t, &p, par, 20)
        .try_run_profiled(&mut prof)
        .expect("fault-free run");
    assert_eq!(bare.to_canonical_string(), profiled.to_canonical_string());
    let profile = prof.snapshot();
    let replay = profile
        .find(&["engine_loop", "replay"])
        .expect("replay span under engine_loop");
    assert_eq!(replay.calls, 18, "one call per synthesized iteration");
    assert!(profile.find(&["report_build"]).is_some());
}
