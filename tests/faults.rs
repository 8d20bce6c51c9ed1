//! Workspace fault-injection tests: seed determinism under randomized
//! fault plans, degraded-link rerouting, plan validation against the
//! platform, and the empty-plan ⇒ baseline bit-identity oracle — all at
//! the [`SimBuilder`] level, the same surface the CLI drives.

use std::sync::OnceLock;

use proptest::prelude::*;
use triosim::{
    FaultPlan, GpuDropout, GpuSlowdown, Jitter, LinkDegradation, LinkFailure, Parallelism,
    Platform, SimBuilder, SimError,
};
use triosim_trace::{GpuModel, Trace, Tracer};

const GPUS: usize = 4;

fn trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        Tracer::new(GpuModel::A100).trace(&triosim_modelzoo::ModelId::ResNet18.build(8))
    })
}

fn ring() -> Platform {
    Platform::ring(
        GpuModel::A100,
        GPUS,
        triosim_trace::LinkKind::NvLink3,
        "ring4",
    )
}

fn run_ddp(platform: &Platform, plan: FaultPlan) -> Result<triosim::SimReport, SimError> {
    SimBuilder::new(trace(), platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .global_batch(8 * GPUS as u64)
        .faults(plan)
        .try_run()
}

/// The ring's GPU-to-GPU links as platform node-id pairs: host is node 0,
/// GPUs are nodes `1..=GPUS`, neighbours wrap around.
fn ring_link(i: usize) -> (usize, usize) {
    (1 + i % GPUS, 1 + (i + 1) % GPUS)
}

// ---------------------------------------------------------------------------
// Randomized seed determinism
// ---------------------------------------------------------------------------

/// Assembles a plan valid for the 4-ring from raw proptest draws. Optional
/// pieces arrive as `(on-flag, value...)` tuples because the offline
/// proptest subset has no `prop::option`.
#[allow(clippy::type_complexity)]
fn build_plan(
    seed: u64,
    slowdowns: Vec<(usize, f64)>,
    jitter: (u8, f64),
    degradations: Vec<(usize, f64, f64)>,
    failure: (u8, usize, f64, (u8, f64)),
    dropout: (u8, usize, f64),
) -> FaultPlan {
    let mut plan = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    for (gpu, factor) in slowdowns {
        plan.gpu_slowdowns.push(GpuSlowdown { gpu, factor });
    }
    if jitter.0 == 1 {
        plan.jitter = Some(Jitter {
            amplitude: jitter.1,
        });
    }
    for (link, factor, at_s) in degradations {
        let (src, dst) = ring_link(link);
        plan.link_degradations.push(LinkDegradation {
            src,
            dst,
            factor,
            at_s,
        });
    }
    let (fail_on, link, at_s, (repair_on, repair_after)) = failure;
    if fail_on == 1 {
        let (src, dst) = ring_link(link);
        plan.link_failures.push(LinkFailure {
            src,
            dst,
            at_s,
            repair_s: (repair_on == 1).then_some(at_s + repair_after),
        });
    }
    if dropout.0 == 1 {
        plan.gpu_dropouts.push(GpuDropout {
            gpu: dropout.1,
            at_s: dropout.2,
        });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid fault plan, however it composes stragglers, jitter,
    /// degradations, failures, and drop-outs, must replay byte-identically
    /// from its seed: two invocations produce the same outcome — the same
    /// report down to the last timeline record, or the same structured
    /// error at the same simulated time.
    #[test]
    fn fault_plans_are_seed_deterministic(
        seed in any::<u64>(),
        slowdowns in prop::collection::vec((0..GPUS, 1.0..3.0f64), 0..3),
        jitter in (0u8..2, 0.01..0.25f64),
        degradations in prop::collection::vec((0..GPUS, 0.2..0.9f64, 0.0..0.005f64), 0..3),
        failure in (0u8..2, 0..GPUS, 0.0..0.005f64, (0u8..2, 0.001..0.01f64)),
        dropout in (0u8..2, 0..GPUS, 0.0..0.01f64),
    ) {
        let plan = build_plan(seed, slowdowns, jitter, degradations, failure, dropout);
        let platform = ring();
        let a = run_ddp(&platform, plan.clone());
        let b = run_ddp(&platform, plan);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// A fault-injected run never hangs or panics: it either completes with
    /// fault accounting or returns a structured error naming the cause.
    #[test]
    fn fault_plans_degrade_gracefully(
        seed in any::<u64>(),
        slowdowns in prop::collection::vec((0..GPUS, 1.0..3.0f64), 0..3),
        jitter in (0u8..2, 0.01..0.25f64),
        degradations in prop::collection::vec((0..GPUS, 0.2..0.9f64, 0.0..0.005f64), 0..3),
        failure in (0u8..2, 0..GPUS, 0.0..0.005f64, (0u8..2, 0.001..0.01f64)),
        dropout in (0u8..2, 0..GPUS, 0.0..0.01f64),
    ) {
        let plan = build_plan(seed, slowdowns, jitter, degradations, failure, dropout);
        let has_faults = !plan.is_empty();
        match run_ddp(&ring(), plan) {
            Ok(report) => {
                prop_assert!(report.total_time_s().is_finite());
                prop_assert_eq!(report.fault_stats().is_some(), has_faults);
            }
            Err(SimError::Partitioned { .. } | SimError::GpuLost { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded-link rerouting and validation units
// ---------------------------------------------------------------------------

/// Failing one ring link mid-run reroutes traffic the long way around
/// instead of hanging: the run completes, the reroute is counted, and the
/// detour costs extra hops. It reroutes whether or not the link comes
/// back later.
#[test]
fn ring_link_failure_reroutes_the_long_way() {
    // Fail the rank1->rank2 link in the middle of the first allreduce step
    // that uses it, so a flow is in flight on the dying link — it must be
    // rerouted the long way around, not dropped and not deadlocked.
    let baseline = run_ddp(&ring(), FaultPlan::default()).expect("fault-free");
    let step = baseline
        .timeline()
        .iter()
        .find(|r| {
            matches!(r.track, triosim::TimelineTrack::Network)
                && r.label.contains("allreduce")
                && r.label.contains("rank1->rank2")
        })
        .expect("ring DDP has allreduce traffic on rank1->rank2");
    let at_s = (step.start.as_seconds() + step.end.as_seconds()) / 2.0;
    let (src, dst) = ring_link(1);
    let plan = |repair_s| FaultPlan {
        link_failures: vec![LinkFailure {
            src,
            dst,
            at_s,
            repair_s,
        }],
        ..FaultPlan::default()
    };

    let report = run_ddp(&ring(), plan(None)).expect("a ring survives one link failure");
    let net = report.network_stats();
    assert_eq!(net.link_faults, 1, "one injected link fault");
    assert!(
        net.reroutes > 0,
        "ring traffic must be rerouted, got {net:?}"
    );
    assert!(
        net.added_hops > 0,
        "the detour is longer than the direct link"
    );
    let stats = report.fault_stats().expect("fault accounting attached");
    assert_eq!(stats.link_fails, 1);
    assert_eq!(stats.faults_injected, 1);

    // The link comes back a quarter of the fault-free run later.
    let repair_s = Some(at_s + baseline.total_time_s() / 4.0);
    let repaired = run_ddp(&ring(), plan(repair_s)).expect("a repaired link is not fatal");
    let net = repaired.network_stats();
    assert!(
        net.reroutes > 0,
        "in-flight flows must be rerouted before the repair, got {net:?}"
    );
    let stats = repaired.fault_stats().expect("fault accounting attached");
    assert_eq!((stats.link_fails, stats.link_repairs), (1, 1));
}

/// A degraded straggler link slows the run down relative to baseline but
/// keeps the route (no reroute events) — bandwidth changes never invalidate
/// hop-count routing.
#[test]
fn degraded_link_slows_run_without_rerouting() {
    let baseline = run_ddp(&ring(), FaultPlan::default()).expect("fault-free");
    let (src, dst) = ring_link(1);
    let plan = FaultPlan {
        link_degradations: vec![LinkDegradation {
            src,
            dst,
            factor: 0.05,
            at_s: 0.0,
        }],
        ..FaultPlan::default()
    };
    let degraded = run_ddp(&ring(), plan).expect("degradation is not fatal");
    assert!(
        degraded.total_time_s() > baseline.total_time_s(),
        "20x less bandwidth on a ring link must cost time: {} vs {}",
        degraded.total_time_s(),
        baseline.total_time_s()
    );
    assert_eq!(degraded.network_stats().reroutes, 0);
    assert_eq!(degraded.fault_stats().expect("stats").link_degrades, 1);
}

/// A plan naming a link that does not exist on the platform is rejected
/// up front with an error naming the offending entry — not silently
/// ignored, not a panic mid-run.
#[test]
fn plan_with_nonexistent_link_is_rejected_by_name() {
    // GPUs 1 and 3 are opposite corners of the 4-ring: no direct link.
    let plan = FaultPlan {
        link_degradations: vec![LinkDegradation {
            src: 1,
            dst: 3,
            factor: 0.5,
            at_s: 0.0,
        }],
        ..FaultPlan::default()
    };
    let err = run_ddp(&ring(), plan).expect_err("no link between n1 and n3");
    match err {
        SimError::InvalidPlan(msg) => {
            assert!(msg.contains("link_degradations[0]"), "message was: {msg}");
            assert!(
                msg.contains("no link between n1 and n3"),
                "message was: {msg}"
            );
        }
        other => panic!("expected InvalidPlan, got {other}"),
    }
}

/// Out-of-range GPU ranks are likewise named.
#[test]
fn plan_with_out_of_range_gpu_is_rejected_by_name() {
    let plan = FaultPlan {
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 99,
            factor: 2.0,
        }],
        ..FaultPlan::default()
    };
    let err = run_ddp(&ring(), plan).expect_err("gpu 99 does not exist");
    match err {
        SimError::InvalidPlan(msg) => {
            assert!(msg.contains("gpu 99"), "message was: {msg}");
        }
        other => panic!("expected InvalidPlan, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Empty-plan ⇒ baseline bit-identity oracle
// ---------------------------------------------------------------------------

/// Attaching an empty fault plan (or a seed with no plan content) must be
/// byte-identical to never mentioning faults at all: same report debug
/// representation, no fault stats, no extra events.
#[test]
fn empty_plan_is_bit_identical_to_baseline() {
    let platform = ring();
    let baseline = SimBuilder::new(trace(), &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .global_batch(8 * GPUS as u64)
        .iterations(2)
        .run();
    let with_empty_plan = SimBuilder::new(trace(), &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .global_batch(8 * GPUS as u64)
        .iterations(2)
        .faults(FaultPlan::default())
        .fault_seed(0xDEAD_BEEF)
        .try_run()
        .expect("empty plan cannot fail");
    assert!(with_empty_plan.fault_stats().is_none());
    assert_eq!(format!("{baseline:?}"), format!("{with_empty_plan:?}"));
}

/// Two invocations with the same non-trivial plan and seed produce
/// identical reports even when jitter is active (the stochastic path).
#[test]
fn jittered_runs_replay_identically_from_the_seed() {
    let plan = FaultPlan {
        seed: 7,
        jitter: Some(Jitter { amplitude: 0.2 }),
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 2,
            factor: 1.7,
        }],
        ..FaultPlan::default()
    };
    let a = run_ddp(&ring(), plan.clone()).expect("jitter is not fatal");
    let b = run_ddp(&ring(), plan).expect("jitter is not fatal");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.total_time_s().is_finite());
    // The straggler must have cost gpu 2 some compute time.
    let stats = a.fault_stats().expect("stats attached");
    assert!(stats.lost_compute_s[2] > 0.0, "straggler lost time");
}
