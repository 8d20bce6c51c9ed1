//! Checkpoint/restore identity properties: a run resumed from any
//! boundary snapshot must produce canonical bytes identical to the
//! uninterrupted run — fault-free, faulted, and budgeted alike — and
//! every malformed or mismatched snapshot must surface as a typed
//! [`CheckpointError`], never undefined behavior. Checkpointing and
//! restore compose with recorders and the self-profiler without moving
//! a report or snapshot byte, and a network that cannot snapshot is a
//! typed error before anything is simulated.
//!
//! The "kill at boundary k" scenario is modeled exactly: a run of `k`
//! iterations with cadence `k` leaves behind the same snapshot a longer
//! run killed right after boundary `k` would have left (the snapshot's
//! spec hash deliberately excludes the iteration count), so restoring it
//! into an `n`-iteration run reproduces the interrupted-and-resumed
//! lifecycle byte for byte.

use std::path::PathBuf;

use proptest::prelude::*;
use serde::Deserialize as _;
use triosim::{
    CheckpointError, FaultPlan, Fidelity, GpuSlowdown, Jitter, LinkDegradation, Parallelism,
    Platform, SelfProfiler, SimBuilder, SimError,
};
use triosim_des::RunBudget;
use triosim_modelzoo::ModelId;
use triosim_obs::{JsonlSink, Recorder, RunRecorder};
use triosim_trace::{GpuModel, Trace, Tracer};

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

fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "triosim-ckpt-test-{tag}-{}-{n}.json",
        std::process::id()
    ))
}

/// A fault plan whose timed entries land mid-run: a permanent GPU
/// slowdown, per-op jitter (exercises the seeded RNG position across the
/// restore), and a link degradation that fires partway through.
fn fault_plan(at_s: f64) -> FaultPlan {
    FaultPlan {
        seed: 7,
        gpu_slowdowns: vec![GpuSlowdown {
            gpu: 0,
            factor: 1.25,
        }],
        jitter: Some(Jitter { amplitude: 0.03 }),
        link_degradations: vec![LinkDegradation {
            src: 1,
            dst: 2,
            factor: 0.5,
            at_s,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn checkpointing_is_invisible_in_the_report() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p).iterations(4).run();
    let path = temp_path("invisible");
    let checkpointed = SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&path, 2)
        .try_run()
        .expect("checkpointed run completes");
    assert_eq!(plain.to_canonical_json(), checkpointed.to_canonical_json());
    assert!(path.exists(), "final boundary snapshot is on disk");
    std::fs::remove_file(&path).ok();
}

#[test]
fn restore_from_every_boundary_is_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let n = 5;
    // The uninterrupted run is replayed; every restored run simulates
    // its remaining iterations. Both must agree.
    let uninterrupted = SimBuilder::new(&t, &p).iterations(n).run();
    assert!(uninterrupted.replay().is_some());
    let serial = uninterrupted.to_canonical_json();
    for k in 1..=n {
        let path = temp_path("boundary");
        // A k-iteration run with cadence k leaves the snapshot a longer
        // run killed right after boundary k would have left.
        SimBuilder::new(&t, &p)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("prefix run completes");
        let resumed = SimBuilder::new(&t, &p)
            .iterations(n)
            .restore(&path)
            .try_run()
            .expect("restore succeeds");
        assert_eq!(
            serial,
            resumed.to_canonical_json(),
            "restore from boundary {k} of {n} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn restore_of_a_finished_run_reproduces_its_report() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("finished");
    let full = SimBuilder::new(&t, &p)
        .iterations(3)
        .checkpoint(&path, 3)
        .try_run()
        .expect("checkpointed run completes");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(3)
        .restore(&path)
        .try_run()
        .expect("zero-remaining restore succeeds");
    assert_eq!(full.to_canonical_json(), resumed.to_canonical_json());
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_restore_is_byte_identical() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    // Place the timed link degradation inside iteration 2 of 4.
    let per_iter = SimBuilder::new(&t, &p).iterations(1).run().total_time_s();
    let plan = fault_plan(1.5 * per_iter);
    let n = 4;
    let uninterrupted = SimBuilder::new(&t, &p)
        .iterations(n)
        .faults(plan.clone())
        .try_run()
        .expect("faulted run completes");
    for k in [1, 2, 3] {
        let path = temp_path("faulted");
        SimBuilder::new(&t, &p)
            .iterations(k)
            .faults(plan.clone())
            .checkpoint(&path, k)
            .try_run()
            .expect("faulted prefix completes");
        let resumed = SimBuilder::new(&t, &p)
            .iterations(n)
            .faults(plan.clone())
            .restore(&path)
            .try_run()
            .expect("faulted restore succeeds");
        assert_eq!(
            uninterrupted.to_canonical_json(),
            resumed.to_canonical_json(),
            "faulted restore from boundary {k} diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn budgeted_restore_trips_identically() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    // An event budget that survives iteration 1 but trips later.
    let events_per_iter = {
        let path = temp_path("budget-probe");
        SimBuilder::new(&t, &p)
            .iterations(1)
            .checkpoint(&path, 1)
            .try_run()
            .expect("probe completes");
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        std::fs::remove_file(&path).ok();
        let v: serde::Value = serde_json::from_str(text.trim_end()).expect("snapshot is JSON");
        // The event-budget axis counts exactly the compute and flow
        // deliveries, which are the first two dispatch counters.
        let dispatches = Vec::<u64>::from_value(
            v.get("state")
                .and_then(|s| s.get("dispatches"))
                .expect("snapshot records dispatch counters"),
        )
        .expect("dispatches are integers");
        dispatches[0] + dispatches[1]
    };
    let limit = events_per_iter * 2 + events_per_iter / 2;
    let budget = || RunBudget::unlimited().with_max_events(limit);
    let serial = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .try_run()
        .expect_err("budget trips in iteration 3");
    let path = temp_path("budget");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .budget(budget())
        .checkpoint(&path, 2)
        .try_run()
        .expect("two iterations fit the budget");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(4)
        .budget(budget())
        .restore(&path)
        .try_run()
        .expect_err("restored run trips the same budget");
    assert_eq!(serial.to_string(), resumed.to_string());
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_spec_is_a_typed_error() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let path = temp_path("mismatch");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&path, 2)
        .try_run()
        .expect("run completes");
    // Different platform ⇒ different graph and network ⇒ different hash.
    let p4 = Platform::p2(4);
    let err = SimBuilder::new(&t, &p4)
        .iterations(4)
        .restore(&path)
        .try_run()
        .expect_err("restoring under a different scenario must fail");
    assert!(
        matches!(
            err,
            SimError::Checkpoint(CheckpointError::SpecMismatch { .. })
        ),
        "got {err:?}"
    );
    // Same scenario but a different fault plan also mismatches.
    let err = SimBuilder::new(&t, &p)
        .iterations(4)
        .faults(fault_plan(0.1))
        .restore(&path)
        .try_run()
        .expect_err("a different fault plan must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::SpecMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_future_snapshots_are_typed_errors() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("corrupt");
    std::fs::write(&path, "{not json").expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("garbage must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    std::fs::write(
        &path,
        "{\"checkpoint\":\"triosim-sim\",\"version\":99,\"spec_hash\":\"0\",\"completed\":1,\
         \"state\":{}}\n",
    )
    .expect("write scratch file");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("future version must fail");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::UnsupportedVersion { found: 99, .. })
    ));
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(temp_path("absent"))
        .try_run()
        .expect_err("missing file must fail");
    assert!(matches!(err, SimError::Checkpoint(CheckpointError::Io(_))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_with_more_iterations_than_requested_is_corrupt() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let path = temp_path("excess");
    SimBuilder::new(&t, &p)
        .iterations(3)
        .checkpoint(&path, 3)
        .try_run()
        .expect("run completes");
    let err = SimBuilder::new(&t, &p)
        .iterations(2)
        .restore(&path)
        .try_run()
        .expect_err("3 completed iterations cannot resume a 2-iteration run");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointed_cli_run_simulates_every_iteration() {
    // The `simulate` summary says how much of the run was simulated: a
    // plain run replays, a checkpointed one simulates every iteration.
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let tmp = temp_path("replay-trace").with_extension("json");
    let snap = temp_path("replay-snap");
    let out = std::process::Command::new(bin)
        .args(["trace", "--model", "vgg11", "--batch", "8", "--gpu", "A100"])
        .arg("-o")
        .arg(&tmp)
        .output()
        .expect("trace subcommand runs");
    assert!(out.status.success(), "trace failed: {out:?}");
    let simulate = |extra: &[&std::ffi::OsStr]| {
        std::process::Command::new(bin)
            .args(["simulate", "--iterations", "4"])
            .arg("--trace")
            .arg(&tmp)
            .args(extra)
            .output()
            .expect("simulate subcommand runs")
    };
    let out = simulate(&[]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("replay        : simulated 2 of 4 iterations (period "),
        "plain run replays: {stdout}"
    );
    let out = simulate(&["--checkpoint".as_ref(), snap.as_os_str()]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("replay        : simulated 4 of 4 iterations\n"),
        "checkpointed run simulates everything: {stdout}"
    );
    // Iteration-axis sharding is gone: its flag is an unknown option.
    let out = simulate(&["--shards".as_ref(), "4".as_ref()]);
    assert!(!out.status.success(), "--shards must be rejected");
    std::fs::remove_file(&tmp).ok();
    std::fs::remove_file(&snap).ok();
}

/// A recorder writing JSONL events to `path`.
fn jsonl_recorder(path: &std::path::Path) -> Box<dyn Recorder> {
    let file = std::fs::File::create(path).expect("events file is writable");
    let mut recorder = RunRecorder::new();
    recorder.push(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
    Box::new(recorder)
}

/// Checkpointing, a recorder and the profiler compose: the report is the
/// plain run's, the snapshot is the unobserved checkpointed run's, both
/// observers really observed, and each snapshot write is one
/// `engine_loop/checkpoint_write` call.
#[test]
fn checkpoint_composes_with_recorder_and_profiler() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p).iterations(4).run();
    let bare_snap = temp_path("compose-bare");
    SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&bare_snap, 2)
        .try_run()
        .expect("checkpointed run completes");
    let snap = temp_path("compose-observed");
    let events = temp_path("compose-events");
    let mut prof = SelfProfiler::new();
    let observed = SimBuilder::new(&t, &p)
        .iterations(4)
        .checkpoint(&snap, 2)
        .recorder(jsonl_recorder(&events))
        .try_run_profiled(&mut prof)
        .expect("observed checkpointed run completes");
    assert_eq!(plain.to_canonical_string(), observed.to_canonical_string());
    assert_eq!(
        std::fs::read(&bare_snap).expect("snapshot written"),
        std::fs::read(&snap).expect("snapshot written"),
        "observers changed the snapshot bytes"
    );
    let log = std::fs::read_to_string(&events).expect("events written");
    assert!(log.contains("\"track\":\"gpu0\""), "recorder got spans");
    let writes = prof
        .snapshot()
        .find(&["engine_loop", "checkpoint_write"])
        .map(|node| node.calls);
    assert_eq!(writes, Some(2), "boundaries 2 and 4");
    for path in [&bare_snap, &snap, &events] {
        std::fs::remove_file(path).ok();
    }
}

/// A restored run with a recorder attached reproduces the plain run.
#[test]
fn restore_composes_with_recorder() {
    let t = trace(ModelId::ResNet18, 16);
    let p = Platform::p2(2);
    let plain = SimBuilder::new(&t, &p).iterations(4).run();
    let snap = temp_path("restore-observed");
    SimBuilder::new(&t, &p)
        .iterations(2)
        .checkpoint(&snap, 2)
        .try_run()
        .expect("prefix run completes");
    let events = temp_path("restore-events");
    let resumed = SimBuilder::new(&t, &p)
        .iterations(4)
        .restore(&snap)
        .recorder(jsonl_recorder(&events))
        .try_run()
        .expect("observed restore succeeds");
    assert_eq!(plain.to_canonical_string(), resumed.to_canonical_string());
    let log = std::fs::read_to_string(&events).expect("events written");
    assert!(!log.is_empty(), "the restored run was observed");
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&events).ok();
}

/// Networks that cannot snapshot their state fail before simulating.
#[test]
fn packet_tier_checkpoint_is_unsupported_before_the_engine_runs() {
    let t = trace(ModelId::Vgg11, 8);
    let p = Platform::p2(2);
    let snap = temp_path("packet");
    let mut prof = SelfProfiler::new();
    let err = SimBuilder::new(&t, &p)
        .fidelity(Fidelity::Packet)
        .iterations(3)
        .checkpoint(&snap, 1)
        .try_run_profiled(&mut prof)
        .expect_err("the packet tier cannot snapshot");
    assert!(
        matches!(err, SimError::Checkpoint(CheckpointError::Unsupported(_))),
        "{err}"
    );
    assert!(
        prof.snapshot().find(&["engine_loop"]).is_none(),
        "nothing was simulated"
    );
    assert!(!snap.exists());
    let err = SimBuilder::new(&t, &p)
        .fidelity(Fidelity::Packet)
        .restore(&snap)
        .try_run()
        .expect_err("nor restore one");
    assert!(matches!(
        err,
        SimError::Checkpoint(CheckpointError::Unsupported(_))
    ));
}

/// The CLI composes `--checkpoint`, `--events` and `--profile` without
/// a warning, and the report is the plain run's.
#[test]
fn cli_checkpoint_composes_with_events_and_profile() {
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let tmp = temp_path("cli-compose-trace").with_extension("json");
    let out = std::process::Command::new(bin)
        .args(["trace", "--model", "vgg11", "--batch", "8", "--gpu", "A100"])
        .arg("-o")
        .arg(&tmp)
        .output()
        .expect("trace subcommand runs");
    assert!(out.status.success(), "trace failed: {out:?}");
    let simulate = |report: &std::path::Path, extra: &[&std::ffi::OsStr]| {
        let out = std::process::Command::new(bin)
            .args(["simulate", "--iterations", "4", "--platform", "p2:2"])
            .arg("--trace")
            .arg(&tmp)
            .arg("--report")
            .arg(report)
            .args(extra)
            .output()
            .expect("simulate subcommand runs");
        assert!(out.status.success(), "simulate failed: {out:?}");
        out
    };
    let (plain, composed) = (temp_path("cli-plain"), temp_path("cli-composed"));
    let (snap, events) = (temp_path("cli-snap"), temp_path("cli-events"));
    simulate(&plain, &[]);
    let out = simulate(
        &composed,
        &[
            "--checkpoint".as_ref(),
            snap.as_os_str(),
            "--events".as_ref(),
            events.as_os_str(),
            "--profile".as_ref(),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("warning:"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("engine_loop"));
    assert!(std::fs::metadata(&events).expect("events written").len() > 0);
    assert_eq!(
        std::fs::read(&plain).expect("report written"),
        std::fs::read(&composed).expect("report written")
    );
    for path in [&tmp, &plain, &composed, &snap, &events] {
        std::fs::remove_file(path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill-at-any-boundary identity over random model × parallelism ×
    /// iteration counts: restoring boundary `k` of an `n`-iteration run
    /// reproduces the uninterrupted (possibly replayed) run's canonical
    /// bytes exactly.
    #[test]
    fn restore_from_any_checkpoint_is_byte_identical(
        model_idx in 0usize..2,
        par_idx in 0usize..4,
        n in 2usize..5,
        k_frac in 0usize..3,
    ) {
        let k = 1 + k_frac % n.saturating_sub(1).max(1);
        let t = trace(model(model_idx), 8);
        let p = Platform::p2(2);
        let par = parallelism(par_idx);
        let serial = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .run()
            .to_canonical_json();
        let path = temp_path("prop");
        SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(k)
            .checkpoint(&path, k)
            .try_run()
            .expect("prefix run completes");
        let resumed = SimBuilder::new(&t, &p)
            .parallelism(par)
            .iterations(n)
            .restore(&path)
            .try_run()
            .expect("restore succeeds")
            .to_canonical_json();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&serial, &resumed, "boundary {} of {} diverged", k, n);
    }
}
