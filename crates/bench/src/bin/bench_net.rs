//! Network fast-path benchmark: wall time and event throughput of the
//! flow network's reallocation modes on an AllReduce-heavy DDP scenario.
//!
//! The mode matrix is a one-axis [`SweepSpec`] grid executed by the
//! sweep engine: the same 64-GPU (configurable via `--gpus`)
//! data-parallel ResNet-50 simulation, swapping only the network's
//! reallocation mode:
//!
//! * `full` — the baseline and equivalence oracle: from-scratch
//!   progressive filling of every component with delta-rescheduling.
//! * `incremental` — the default fast path: component-scoped refills plus
//!   delta-rescheduling.
//!
//! The binary *asserts* that `incremental` and `full` produce identical
//! canonical reports (total time, order-sensitive timeline hash, bytes)
//! — determinism is part of the contract, so a divergence panics and
//! fails CI's bench-smoke job. Results land in `results/BENCH_net.json`.

use serde::Value;
use triosim::{run_sweep, ScenarioPatch, SweepSpec};
use triosim_bench::{
    arg_u64, field_f64, field_u64, json_num, json_obj, sweep_threads, trace_batch, Summary,
};
use triosim_modelzoo::ModelId;
use triosim_trace::GpuModel;

const MODES: [&str; 2] = ["full", "incremental"];

fn mode_json(name: &str, report: &Value, wall_s: f64) -> Value {
    let delivered = field_u64(report, &["queue", "delivered"]);
    let reallocations = field_u64(report, &["network", "reallocations"]);
    let reschedules = field_u64(report, &["network", "reschedules"]);
    let rate_change_ratio = if reallocations == 0 {
        0.0
    } else {
        reschedules as f64 / reallocations as f64
    };
    json_obj(vec![
        ("mode", Value::Str(name.to_string())),
        ("wall_s", json_num(wall_s)),
        ("events_per_s", json_num(delivered as f64 / wall_s)),
        (
            "total_time_s",
            json_num(field_f64(report, &["total_time_s"])),
        ),
        (
            "events_scheduled",
            Value::UInt(field_u64(report, &["queue", "scheduled"])),
        ),
        ("events_delivered", Value::UInt(delivered)),
        (
            "events_cancelled",
            Value::UInt(field_u64(report, &["queue", "cancelled"])),
        ),
        (
            "queue_compactions",
            Value::UInt(field_u64(report, &["queue", "compactions"])),
        ),
        ("reallocations", Value::UInt(reallocations)),
        ("reschedules", Value::UInt(reschedules)),
        ("rate_change_ratio", json_num(rate_change_ratio)),
    ])
}

/// The identity triple of the fast-path contract: predicted total,
/// order-sensitive delivery timeline, bytes moved.
fn identity_key(report: &Value) -> (f64, u64, u64) {
    (
        field_f64(report, &["total_time_s"]),
        field_u64(report, &["timeline_hash"]),
        field_u64(report, &["bytes_transferred"]),
    )
}

fn main() {
    let gpus = arg_u64("gpus", 64);
    let model = ModelId::ResNet50;
    let gpu = GpuModel::A100;
    let global_batch = gpus * trace_batch(model);

    let mut defaults = ScenarioPatch::default();
    defaults.set("model", Value::Str(model.to_string()));
    defaults.set("trace_batch", Value::UInt(trace_batch(model)));
    defaults.set("gpu", Value::Str(gpu.to_string()));
    defaults.set("platform", Value::Str(format!("ring:{gpu}:{gpus}")));
    defaults.set("parallelism", Value::Str("ddp".to_string()));
    defaults.set("global_batch", Value::UInt(global_batch));
    let spec = SweepSpec {
        name: "bench_net".to_string(),
        defaults,
        grid: vec![(
            "realloc".to_string(),
            MODES.iter().map(|m| Value::Str((*m).to_string())).collect(),
        )],
        scenarios: Vec::new(),
    };

    println!("network fast-path bench: {model} DDP on {gpus}x{gpu} ring");
    let outcome = run_sweep(&spec, sweep_threads(), false)
        .unwrap_or_else(|e| panic!("bench_net sweep failed to start: {e}"));
    let reports: Vec<&Value> = outcome
        .results
        .iter()
        .map(|r| {
            r.outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: mode run failed: {e}", r.label))
        })
        .collect();
    for (name, (report, result)) in MODES.iter().zip(reports.iter().zip(&outcome.results)) {
        let wall_s = result.wall_s;
        println!(
            "{name:<16} wall {wall_s:>8.3} s | {:>12.0} events/s | sim total {:.6} s | \
             {} scheduled, {} cancelled, {} compactions",
            field_u64(report, &["queue", "delivered"]) as f64 / wall_s,
            field_f64(report, &["total_time_s"]),
            field_u64(report, &["queue", "scheduled"]),
            field_u64(report, &["queue", "cancelled"]),
            field_u64(report, &["queue", "compactions"]),
        );
    }

    // Determinism contract: the fast path must reproduce the oracle's
    // report bit for bit — same predicted total, same delivery timeline.
    let identical = identity_key(reports[1]) == identity_key(reports[0]);
    assert!(
        identical,
        "incremental and full reallocation produced different reports"
    );
    let speedup = outcome.results[0].wall_s / outcome.results[1].wall_s;
    println!("speedup vs full: {speedup:.2}x (reports identical: {identical})");

    let mut summary = Summary::new("BENCH_net");
    summary.text("model", &model.to_string());
    summary.text("gpu", &gpu.to_string());
    summary.int("gpus", gpus);
    summary.text("parallelism", "ddp-overlap");
    summary.int("global_batch", global_batch);
    summary.put(
        "modes",
        Value::Array(
            MODES
                .iter()
                .zip(reports.iter().zip(&outcome.results))
                .map(|(name, (report, result))| mode_json(name, report, result.wall_s))
                .collect(),
        ),
    );
    summary.num("speedup_vs_full", speedup);
    summary.put("reports_identical", Value::Bool(identical));
    summary.finish();
}
