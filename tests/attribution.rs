//! Bottleneck-attribution and self-profiling integration tests.
//!
//! Three contracts:
//!
//! * **Golden snapshots**: the `BottleneckReport` for the DP/DDP/TP/PP
//!   quartet is committed under `tests/golden/bottleneck_*.json` and
//!   re-blessable with `TRIOSIM_BLESS=1 cargo test --test attribution`.
//! * **Observer invisibility**: canonical `SimReport` bytes are
//!   byte-identical whether or not observability sinks and the
//!   wall-clock self-profiler run (property-tested across parallelism
//!   strategies and platform sizes), and the canonical sweep aggregate
//!   is byte-identical across profiling on/off at 1/2/8 threads.
//! * **Attribution invariants**: per-GPU buckets partition the run's
//!   virtual time exactly, the critical path spans the whole run, and a
//!   fault-seeded straggler GPU is named in the straggler list with its
//!   lost compute attributed.

use std::path::PathBuf;

use proptest::prelude::*;
use triosim::{
    FaultPlan, GpuSlowdown, Parallelism, Platform, SelfProfiler, SimBuilder, SimReport,
    SweepRunConfig, SweepSpec,
};
use triosim_modelzoo::ModelId;
use triosim_obs::{ChromeTraceSink, JsonlSink, PrometheusSink, RunRecorder};
use triosim_trace::{GpuModel, Trace, Tracer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bless_mode() -> bool {
    std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1")
}

fn quartet_trace() -> Trace {
    Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8))
}

/// Same configuration as the `golden` suite: VGG-11 @ batch 8 on two
/// NVLink'd A100s.
fn quartet_report(parallelism: Parallelism) -> SimReport {
    let trace = quartet_trace();
    let platform = Platform::p2(2);
    SimBuilder::new(&trace, &platform)
        .parallelism(parallelism)
        .run()
}

fn quartet() -> [(&'static str, Parallelism); 4] {
    [
        ("dp", Parallelism::DataParallel { overlap: false }),
        ("ddp", Parallelism::DataParallel { overlap: true }),
        ("tp", Parallelism::TensorParallel),
        ("pp", Parallelism::Pipeline { chunks: 2 }),
    ]
}

fn check_bottleneck_golden(name: &str, parallelism: Parallelism) {
    let report = quartet_report(parallelism);
    let actual =
        serde_json::to_string(&report.bottleneck().to_value()).expect("bottleneck JSON is finite");
    let path = golden_dir().join(format!("bottleneck_{name}.json"));
    if bless_mode() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `TRIOSIM_BLESS=1 cargo test --test \
             attribution` and commit the result",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "\n`bottleneck_{name}` drifted from its golden snapshot.\n\
         If this change is intentional, re-bless with \
         `TRIOSIM_BLESS=1 cargo test --test attribution` and commit the diff.\n\
         actual  : {actual}\n\
         expected: {expected}\n"
    );
}

#[test]
fn golden_bottleneck_dp() {
    check_bottleneck_golden("dp", Parallelism::DataParallel { overlap: false });
}

#[test]
fn golden_bottleneck_ddp() {
    check_bottleneck_golden("ddp", Parallelism::DataParallel { overlap: true });
}

#[test]
fn golden_bottleneck_tp() {
    check_bottleneck_golden("tp", Parallelism::TensorParallel);
}

#[test]
fn golden_bottleneck_pp() {
    check_bottleneck_golden("pp", Parallelism::Pipeline { chunks: 2 });
}

/// The per-GPU buckets must partition the run's total virtual time
/// exactly (the accumulator works in integer ticks; only the final
/// tick→seconds conversion is floating-point), and the critical path
/// must span the whole run.
#[test]
fn buckets_partition_total_time_across_quartet() {
    for (name, parallelism) in quartet() {
        let report = quartet_report(parallelism);
        let b = report.bottleneck();
        let total = report.total_time_s();
        assert!(
            (b.critical_path_s - total).abs() <= 1e-12 * total.max(1.0),
            "{name}: critical path {} != total {total}",
            b.critical_path_s
        );
        assert!(
            (b.path_compute_s + b.path_comm_s - b.critical_path_s).abs() <= 1e-12 * total.max(1.0),
            "{name}: path buckets don't sum"
        );
        for (g, bk) in b.per_gpu.iter().enumerate() {
            let sum = bk.compute_s + bk.exposed_comm_s + bk.idle_s;
            assert!(
                (sum - bk.total_s).abs() <= 1e-9 * bk.total_s.max(1.0),
                "{name} gpu{g}: compute {} + exposed {} + idle {} != total {}",
                bk.compute_s,
                bk.exposed_comm_s,
                bk.idle_s,
                bk.total_s
            );
            assert!(
                (bk.total_s - total).abs() <= 1e-12 * total.max(1.0),
                "{name} gpu{g}: bucket total differs from run total"
            );
        }
    }
}

/// A 3x-slowed GPU must be named in the straggler list, with its busy
/// time well above the median and the fault layer's lost-compute
/// attribution threaded through.
#[test]
fn seeded_straggler_gpu_is_named() {
    let trace = quartet_trace();
    let platform = Platform::p2(4);
    let plan = FaultPlan {
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 2,
            factor: 3.0,
        }],
        ..FaultPlan::default()
    };
    let report = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .faults(plan)
        .try_run()
        .expect("slowdown does not terminate the run");
    let b = report.bottleneck();
    let straggler = b
        .stragglers
        .iter()
        .find(|s| s.gpu == 2)
        .unwrap_or_else(|| panic!("gpu2 missing from stragglers: {:?}", b.stragglers));
    assert!(
        straggler.vs_median >= 1.25,
        "straggler barely above median: {}",
        straggler.vs_median
    );
    assert!(
        straggler.fault_lost_s > 0.0,
        "fault attribution not threaded into the straggler entry"
    );
    // The healthy GPUs must not be flagged.
    assert!(
        b.stragglers.iter().all(|s| s.gpu == 2),
        "healthy GPUs flagged: {:?}",
        b.stragglers
    );
}

/// Runs the same configuration bare and with the wall-clock
/// self-profiler attached; returns both canonical strings.
fn bare_vs_profiled(parallelism: Parallelism, gpus: usize, batch: u64) -> (String, String) {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(batch));
    let platform = Platform::p2(gpus);
    let bare = SimBuilder::new(&trace, &platform)
        .parallelism(parallelism)
        .run()
        .to_canonical_json();
    let mut prof = SelfProfiler::new();
    let profiled = SimBuilder::new(&trace, &platform)
        .parallelism(parallelism)
        .try_run_profiled(&mut prof)
        .expect("profiled run succeeds")
        .to_canonical_json();
    assert!(
        !prof.snapshot().is_empty(),
        "profiler actually recorded spans"
    );
    (
        serde_json::to_string(&bare).expect("finite"),
        serde_json::to_string(&profiled).expect("finite"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The self-profiler must never perturb the canonical report —
    /// including its always-on bottleneck section — for any parallelism
    /// strategy, platform size, or batch.
    #[test]
    fn profiler_never_changes_canonical_bytes(
        strategy in 0usize..4,
        gpus in 2usize..5,
        batch_i in 0usize..2,
    ) {
        let parallelism = quartet()[strategy].1;
        let batch = [4u64, 8][batch_i];
        let (bare, profiled) = bare_vs_profiled(parallelism, gpus, batch);
        prop_assert_eq!(bare, profiled);
    }
}

/// Attaching sinks samples the run between events, never as queue
/// events, so the whole canonical report — queue counters included —
/// is identical to the bare run's. (The name predates passive sampling,
/// when sampler ticks were queue events and moved only those counters.)
#[test]
fn sinks_change_only_sampler_queue_counters() {
    let trace = quartet_trace();
    let platform = Platform::p2(2);
    let bare = quartet_report(Parallelism::DataParallel { overlap: true });
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(Vec::new())));
    recorder.push(Box::new(ChromeTraceSink::new(Vec::new())));
    recorder.push(Box::new(PrometheusSink::new(Vec::new())));
    let mut prof = SelfProfiler::new();
    let observed = SimBuilder::new(&trace, &platform)
        .parallelism(Parallelism::DataParallel { overlap: true })
        .recorder(Box::new(recorder))
        .try_run_profiled(&mut prof)
        .expect("observed run succeeds");
    assert_eq!(
        bare.to_canonical_string(),
        observed.to_canonical_string(),
        "sinks perturbed the canonical report"
    );
    assert!(
        prof.snapshot().find(&["engine_loop"]).is_some(),
        "the profiler composed with the sinks"
    );
}

/// The canonical sweep aggregate must be byte-identical across profiling
/// on/off and worker thread counts 1/2/8.
#[test]
fn sweep_canonical_invariant_to_profiling_and_threads() {
    let spec = SweepSpec::from_json(
        r#"{
            "name": "attr-invariance",
            "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40" },
            "grid": {
                "parallelism": ["dp", "ddp", "tp", "pp:2"],
                "platform": ["p2:2", "p2:4"]
            }
        }"#,
    )
    .expect("spec parses");
    let mut canonicals = Vec::new();
    for threads in [1usize, 2, 8] {
        for profile in [false, true] {
            let outcome = triosim::run_sweep_with(
                &spec,
                &SweepRunConfig {
                    threads,
                    profile,
                    ..SweepRunConfig::default()
                },
            )
            .expect("sweep runs");
            assert_eq!(outcome.profile.is_some(), profile);
            canonicals.push((threads, profile, outcome.to_canonical_string()));
        }
    }
    let (_, _, reference) = &canonicals[0];
    for (threads, profile, c) in &canonicals[1..] {
        assert_eq!(
            c, reference,
            "canonical aggregate drifted at threads={threads} profile={profile}"
        );
    }
}
