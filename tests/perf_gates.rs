//! Wall-clock performance gates. They measure the host, so they exist only
//! in release builds and must run alone, one test at a time:
//!
//! ```text
//! cargo test --release --test perf_gates -- --test-threads=1
//! ```
//!
//! Each test times one feature and asserts a bound on the result.
//! A bound that needs more cores than the host has is not armed: the
//! test still runs and prints its measurement, but does not assert it.
//! The byte-identity contracts of the same features live in the ordinary
//! suites (`tests/sweep.rs`, `tests/fidelity.rs`); throughput numbers for
//! the end-to-end workloads come from `perfbench/run.py`.
#![cfg(not(debug_assertions))]

use std::time::{Duration, Instant};

use triosim::{
    run_sweep_with, Fidelity, Parallelism, Platform, SimBuilder, SweepJobRunner, SweepOutcome,
    SweepRunConfig, SweepSpec,
};
use triosim_modelzoo::ModelId;
use triosim_server::{Server, ServerConfig};
use triosim_trace::{GpuModel, Tracer};

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Two models × four parallelisms × `platforms`, ten iterations each:
/// uneven scenario costs, about 10 ms of simulation apiece.
fn grid(platforms: &str) -> SweepSpec {
    SweepSpec::from_json(&format!(
        r#"{{
            "name": "perf-gates",
            "defaults": {{ "gpu": "A100", "trace_batch": 64, "iterations": 10 }},
            "grid": {{
                "model": ["resnet50", "vgg16"],
                "parallelism": ["dp", "ddp", "tp", "pp:2"],
                "platform": [{platforms}]
            }}
        }}"#
    ))
    .expect("grid spec parses")
}

fn sweep(spec: &SweepSpec, config: &SweepRunConfig) -> SweepOutcome {
    let outcome = run_sweep_with(spec, config).expect("sweep runs");
    assert_eq!(outcome.failures(), 0, "grid scenarios are fault-free");
    outcome
}

/// Self-profiling a sweep costs at most max(5%, 50 ms): the best of three
/// profiled runs against the best of three plain ones, on the 8-scenario
/// `p2:4` grid at the host's thread count. The 50 ms floor keeps
/// scheduler jitter on this sub-second workload from failing the gate.
/// The profile must also hold the setup and engine spans it exists to
/// report.
#[test]
fn profiler_overhead_is_within_budget() {
    const RUNS: usize = 3;
    const MAX_OVERHEAD_FRAC: f64 = 0.05;
    const ABS_SLACK_S: f64 = 0.050;
    let spec = grid(r#""p2:4""#);
    let config = |profile| SweepRunConfig {
        threads: host_cores(),
        profile,
        ..SweepRunConfig::default()
    };
    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    let mut profile = None;
    for _ in 0..RUNS {
        off_s = off_s.min(sweep(&spec, &config(false)).elapsed_s);
        let on = sweep(&spec, &config(true));
        if on.elapsed_s < on_s {
            on_s = on.elapsed_s;
            profile = on.profile;
        }
    }
    let budget_s = (off_s * MAX_OVERHEAD_FRAC).max(ABS_SLACK_S);
    println!("profiled sweep {on_s:.3} s vs plain {off_s:.3} s (budget {budget_s:.3} s)");
    assert!(
        on_s - off_s <= budget_s,
        "profiling overhead {:.3} s exceeds budget {budget_s:.3} s",
        on_s - off_s
    );
    let profile = profile.expect("a profiled sweep returns its profile");
    let span_s = |path: &[&str]| profile.total(path).unwrap_or(0.0);
    assert!(span_s(&["resolve"]) > 0.0, "resolve span recorded");
    assert!(
        span_s(&["scenarios", "engine_loop"]) > 0.0,
        "per-scenario engine_loop spans roll up"
    );
}

/// A sweep at 8 worker threads completes at least 3x the scenarios per
/// second of one thread, on the 16-scenario grid. Armed only on hosts
/// with 8 or more cores.
#[test]
fn sweep_scales_3x_at_8_threads() {
    const THREADS: usize = 8;
    const REQUIRED_SPEEDUP: f64 = 3.0;
    let spec = grid(r#""p2:4", "p2:8""#);
    let run = |threads| {
        sweep(
            &spec,
            &SweepRunConfig {
                threads,
                ..SweepRunConfig::default()
            },
        )
    };
    let (serial, parallel) = (run(1), run(THREADS));
    let speedup = parallel.scenarios_per_sec() / serial.scenarios_per_sec();
    let armed = host_cores() >= THREADS;
    println!(
        "sweep speedup at {THREADS} threads: {speedup:.2}x (gate {} on {} cores)",
        if armed { "armed" } else { "not armed" },
        host_cores()
    );
    if armed {
        assert!(
            speedup >= REQUIRED_SPEEDUP,
            "{THREADS}-thread sweep only {speedup:.2}x faster than serial"
        );
    }
}

/// The flow-vs-packet cross-validation scenarios — uncongested `p2:2`
/// DDP, the two-leaf fat-tree DDP and the 4-GPU fat-tree TP incast, each
/// at both tiers — finish within 120 s. Armed only on hosts with 4 or
/// more cores.
#[test]
fn fidelity_suite_is_within_wall_budget() {
    const WALL_BUDGET_S: f64 = 120.0;
    const GATE_CORES: usize = 4;
    let start = Instant::now();
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    let ddp = Parallelism::DataParallel { overlap: true };
    let cases = [
        (Platform::p2(2), ddp),
        (
            Platform::fat_tree(GpuModel::A100, 2, 1, 25e9, 5e-6, 4.0, "fat2"),
            ddp,
        ),
        (
            Platform::fat_tree(GpuModel::A100, 4, 1, 25e9, 5e-6, 4.0, "fat4"),
            Parallelism::TensorParallel,
        ),
    ];
    for (platform, parallelism) in &cases {
        for fidelity in [Fidelity::TrioSim, Fidelity::Packet] {
            SimBuilder::new(&trace, platform)
                .parallelism(*parallelism)
                .fidelity(fidelity)
                .run();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let armed = host_cores() >= GATE_CORES;
    println!(
        "fidelity suite {wall_s:.2} s (budget {WALL_BUDGET_S:.0} s, gate {} on {} cores)",
        if armed { "armed" } else { "not armed" },
        host_cores()
    );
    if armed {
        assert!(
            wall_s <= WALL_BUDGET_S,
            "fidelity suite took {wall_s:.1} s, over its {WALL_BUDGET_S:.0} s budget"
        );
    }
}

/// The daemon has no latency floor: on an idle in-process server, the
/// median of 40 sequential `/healthz` round trips is under 2 ms. (An
/// accept loop that sleeps between polls puts it at the sleep.)
#[test]
fn idle_server_round_trip_has_no_latency_floor() {
    const TRIPS: usize = 40;
    const MAX_MEDIAN_S: f64 = 0.002;
    let dir = std::env::temp_dir().join(format!("triosim-perf-gate-serve-{}", std::process::id()));
    let server = Server::start(
        ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        },
        Box::new(SweepJobRunner::default()),
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let timeout = Duration::from_secs(5);
    let get = |path| triosim_server::request(&addr, "GET", path, None, timeout);
    let ready_by = Instant::now() + timeout;
    while get("/readyz").map(|r| r.status) != Ok(200) {
        assert!(Instant::now() < ready_by, "server never became ready");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut trips: Vec<f64> = (0..TRIPS)
        .map(|_| {
            let sent = Instant::now();
            let r = get("/healthz").expect("healthz answers");
            assert_eq!(r.status, 200);
            sent.elapsed().as_secs_f64()
        })
        .collect();
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
    trips.sort_by(f64::total_cmp);
    let median_s = trips[TRIPS / 2];
    println!(
        "idle /healthz round trip: median {:.3} ms over {TRIPS} (gate {:.0} ms)",
        median_s * 1e3,
        MAX_MEDIAN_S * 1e3
    );
    assert!(
        median_s < MAX_MEDIAN_S,
        "median /healthz round trip {:.2} ms, over {:.0} ms",
        median_s * 1e3,
        MAX_MEDIAN_S * 1e3
    );
}
