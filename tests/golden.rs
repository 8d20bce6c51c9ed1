//! Golden snapshot tests: canonical `SimReport` JSON for a small
//! DP/DDP/TP/PP scenario quartet, committed under `tests/golden/`.
//!
//! Any drift in a simulation-determined field — totals, per-GPU
//! occupancy, queue/network counters, or the order-sensitive timeline
//! hash — fails the comparison with both strings printed. To bless an
//! intentional behavior change, regenerate the snapshots:
//!
//! ```text
//! TRIOSIM_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the diff under `tests/golden/` (review it: the diff *is*
//! the behavior change). See `TESTING.md` for the full workflow.

use std::path::PathBuf;

use triosim::{Parallelism, Platform, SimBuilder};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Tracer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bless_mode() -> bool {
    std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1")
}

/// The quartet's shared configuration: VGG-11 traced at batch 8 on an
/// A40, simulated on two NVLink'd A100s (P2). Small enough to run in
/// milliseconds, rich enough that every report field is non-trivial.
fn canonical_report(parallelism: Parallelism) -> String {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let report = SimBuilder::new(&trace, &platform)
        .parallelism(parallelism)
        .run();
    serde_json::to_string(&report.to_canonical_json()).expect("canonical JSON is finite")
}

fn check(name: &str, parallelism: Parallelism) {
    let actual = canonical_report(parallelism);
    let path = golden_dir().join(format!("{name}.json"));
    if bless_mode() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `TRIOSIM_BLESS=1 cargo test --test golden` \
             and commit the result",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "\n`{name}` drifted from its golden snapshot.\n\
         If this change is intentional, re-bless with \
         `TRIOSIM_BLESS=1 cargo test --test golden` and commit the diff.\n\
         actual  : {actual}\n\
         expected: {expected}\n"
    );
}

#[test]
fn golden_dp() {
    check("dp", Parallelism::DataParallel { overlap: false });
}

#[test]
fn golden_ddp() {
    check("ddp", Parallelism::DataParallel { overlap: true });
}

#[test]
fn golden_tp() {
    check("tp", Parallelism::TensorParallel);
}

#[test]
fn golden_pp() {
    check("pp", Parallelism::Pipeline { chunks: 2 });
}

/// The golden quartet under steady-state replay: at multiple iterations
/// replay engages, and its bytes must equal a checkpointed run's, which
/// simulates every iteration (and whose own bytes the checkpoint tests
/// tie to the plain loop). The single-iteration snapshots above never
/// replay.
#[test]
fn golden_quartet_is_replay_invariant() {
    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let quartet = [
        ("dp", Parallelism::DataParallel { overlap: false }),
        ("ddp", Parallelism::DataParallel { overlap: true }),
        ("tp", Parallelism::TensorParallel),
        ("pp", Parallelism::Pipeline { chunks: 2 }),
    ];
    for (name, parallelism) in quartet {
        let replayed = SimBuilder::new(&trace, &platform)
            .parallelism(parallelism)
            .iterations(6)
            .run();
        assert!(replayed.replay().is_some(), "`{name}` x6 replays");
        let path =
            std::env::temp_dir().join(format!("triosim-golden-{name}-{}.ckpt", std::process::id()));
        let serial = SimBuilder::new(&trace, &platform)
            .parallelism(parallelism)
            .iterations(6)
            .checkpoint(&path, 6)
            .run();
        std::fs::remove_file(&path).ok();
        assert!(serial.replay().is_none());
        assert_eq!(
            serial.to_canonical_string(),
            replayed.to_canonical_string(),
            "`{name}` x6 diverged under replay"
        );
    }
}

/// Every run option composes exactly: for each quartet configuration
/// at six iterations, a recorder, a progress monitor, the profiler,
/// checkpointing, all four together, and a restore from boundary 3 all
/// reproduce the plain run's canonical bytes.
#[test]
fn golden_quartet_options_compose() {
    use triosim::SelfProfiler;
    use triosim_obs::{JsonlSink, ProgressMonitor, RunRecorder};

    let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(8));
    let platform = Platform::p2(2);
    let recorder = || {
        let mut r = RunRecorder::new();
        r.push(Box::new(JsonlSink::new(std::io::sink())));
        Box::new(r)
    };
    let progress = || ProgressMonitor::with_writer(Box::new(std::io::sink()));
    let quartet = [
        ("dp", Parallelism::DataParallel { overlap: false }),
        ("ddp", Parallelism::DataParallel { overlap: true }),
        ("tp", Parallelism::TensorParallel),
        ("pp", Parallelism::Pipeline { chunks: 2 }),
    ];
    for (name, parallelism) in quartet {
        let base = || {
            SimBuilder::new(&trace, &platform)
                .parallelism(parallelism)
                .iterations(6)
        };
        let snap = |tag: &str| {
            std::env::temp_dir().join(format!(
                "triosim-golden-compose-{name}-{tag}-{}.ckpt",
                std::process::id()
            ))
        };
        let profiled = |b: SimBuilder<'_>| {
            let mut prof = SelfProfiler::new();
            let report = b.try_run_profiled(&mut prof).expect("run succeeds");
            assert!(prof.snapshot().find(&["engine_loop"]).is_some());
            report
        };
        let plain = base().run().to_canonical_string();
        let prefix = snap("prefix");
        base().iterations(3).checkpoint(&prefix, 3).run();
        let (ck, all) = (snap("ck"), snap("all"));
        let variants = [
            ("events", base().recorder(recorder()).run()),
            ("progress", base().progress(progress()).run()),
            ("profile", profiled(base())),
            ("checkpoint", base().checkpoint(&ck, 1).run()),
            (
                "all four",
                profiled(
                    base()
                        .recorder(recorder())
                        .progress(progress())
                        .checkpoint(&all, 1),
                ),
            ),
            ("restore", base().restore(&prefix).run()),
        ];
        for path in [&prefix, &ck, &all] {
            std::fs::remove_file(path).ok();
        }
        for (option, report) in variants {
            assert_eq!(
                plain,
                report.to_canonical_string(),
                "`{name}` x6 with {option} diverged from the plain run"
            );
        }
    }
}

/// The snapshot comparison is only as strong as the canonical form:
/// verify the timeline hash actually covers scheduling order, not just
/// aggregate totals, by checking two different configurations disagree.
#[test]
fn canonical_form_is_sensitive_to_configuration() {
    let a = canonical_report(Parallelism::DataParallel { overlap: true });
    let b = canonical_report(Parallelism::TensorParallel);
    assert_ne!(a, b);
}
