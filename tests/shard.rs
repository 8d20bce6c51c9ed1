//! The retired iteration-axis shard knob. Steady-state replay replaced
//! the sharded executor, but sweep specs and journals still carry a
//! `shards` field, which parses as a documented no-op (see
//! `Scenario::shards`). These properties pin that contract over the grid
//! the sharded executor used to be checked on: a scenario's outcome —
//! report bytes, faulted behavior, budget trips — never depends on the
//! shard count it names.
//!
//! Replay's own identity against a serial oracle lives in `replay.rs`.

use proptest::prelude::*;
use triosim::{run_sweep, SweepSpec};

const PARALLELISM: [&str; 4] = ["dp", "ddp", "tp", "pp:2"];
const MODELS: [&str; 2] = ["vgg11", "resnet18"];

/// Runs the one-scenario sweep whose defaults are `defaults` (a JSON
/// object body without braces), naming `shards` unless it is `None`, and
/// returns its canonical bytes plus the scenario's rendered outcome.
fn run(defaults: &str, shards: Option<u64>) -> (String, Result<String, String>) {
    let shards = shards.map_or(String::new(), |n| format!(r#", "shards": {n}"#));
    let json = format!(
        r#"{{ "name": "shard-knob", "defaults": {{ {defaults}{shards} }}, "scenarios": [ {{}} ] }}"#
    );
    let spec = SweepSpec::from_json(&json).expect("valid spec");
    let outcome = run_sweep(&spec, 1, false).expect("sweep runs");
    let result = outcome.results[0]
        .outcome
        .as_ref()
        .map(|v| serde_json::to_string(v).expect("canonical JSON is finite"))
        .map_err(|e| e.to_string());
    (outcome.to_canonical_string(), result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any shard count, any parallelism, model, batch and iteration
    /// count: the same bytes as the scenario that names no shards.
    #[test]
    fn sharded_reports_are_byte_identical_to_serial(
        model_ix in 0usize..2,
        par_ix in 0usize..4,
        gpus_ix in 0usize..2,
        batch_ix in 0usize..2,
        iterations in 2usize..6,
    ) {
        let defaults = format!(
            r#""model": "{}", "trace_batch": {}, "gpu": "A100", "platform": "p2:{}",
               "parallelism": "{}", "iterations": {iterations}"#,
            MODELS[model_ix], [4, 8][batch_ix], [2, 4][gpus_ix], PARALLELISM[par_ix],
        );
        let (serial, result) = run(&defaults, None);
        prop_assert!(result.is_ok(), "the plain scenario must succeed: {:?}", result);
        for shards in [1, 2, 4, 8] {
            let (sharded, _) = run(&defaults, Some(shards));
            prop_assert_eq!(&serial, &sharded, "shards={} changed the output", shards);
        }
    }

    /// A faulted scenario's bytes never depend on the shard knob.
    #[test]
    fn faulted_runs_ignore_the_shard_knob(
        par_ix in 0usize..4,
        seed in 0u64..1000,
        iterations in 2usize..4,
    ) {
        let defaults = format!(
            r#""model": "vgg11", "trace_batch": 4, "gpu": "A100", "platform": "p2:2",
               "parallelism": "{}", "iterations": {iterations},
               "faults": {{ "gpu_slowdowns": [ {{ "gpu": 0, "factor": 1.25 }} ],
                            "jitter": {{ "amplitude": 0.03 }} }},
               "fault_seed": {seed}"#,
            PARALLELISM[par_ix],
        );
        let (serial, result) = run(&defaults, None);
        prop_assert!(result.is_ok(), "the faulted scenario must succeed: {:?}", result);
        let (sharded, _) = run(&defaults, Some(4));
        prop_assert_eq!(serial, sharded);
    }

    /// Budget trips on the event and simulated-time axes carry the same
    /// kind and limit — or yield the same successful bytes — whatever
    /// shard count the scenario names.
    #[test]
    fn budget_trips_are_shard_count_invariant(
        limit_ix in 0usize..5,
        iterations in 2usize..5,
        sim_time in any::<bool>(),
    ) {
        let budget = if sim_time {
            format!(r#""max_sim_time_us": {}"#, [1u64, 100, 1_000, 10_000, 100_000][limit_ix])
        } else {
            format!(r#""max_events": {}"#, [50u64, 500, 5_000, 50_000, 500_000][limit_ix])
        };
        let defaults = format!(
            r#""model": "vgg11", "trace_batch": 4, "gpu": "A100", "platform": "p2:2",
               "parallelism": "ddp", "iterations": {iterations}, {budget}"#
        );
        let (serial, result) = run(&defaults, None);
        for shards in [2, 4, 8] {
            let (sharded, sharded_result) = run(&defaults, Some(shards));
            prop_assert_eq!(&result, &sharded_result, "{} shards={}", budget, shards);
            prop_assert_eq!(&serial, &sharded, "{} shards={}", budget, shards);
        }
    }
}
