//! `triosim-perfprobe` — the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` measures the shipped `triosim-cli` surfaces with
//! tracing off. This binary replays the same inputs through the same
//! public library calls the CLI and the sweep make, with a span around
//! each call into a layer (trace, perfmodel, extrapolate, network,
//! executor, report, sweep, journal). Spans stay in memory; each mode
//! prints one JSON object when it ends. Each process makes one run, so
//! every run starts from a fresh heap, as a CLI invocation does.
//!
//! ```text
//! triosim-perfprobe setup-sim   --trace F --platform P --parallelism X --fidelity T --reps N
//! triosim-perfprobe setup-sweep --spec F --reps N
//! triosim-perfprobe trace-sim   --trace F --platform P --parallelism X --fidelity T
//!                               --iterations N --traced 0|1 [--report-out F]
//! triosim-perfprobe trace-sweep --specs LIST --threads T --work DIR
//!                               --phase traced|untraced|sweep [--cli-out F]
//! triosim-perfprobe offline     --specs LIST --threads T
//! ```
//!
//! `LIST` is a file naming one sweep spec per line.

mod pipeline;
mod timednet;

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Value;
use triosim::sweep::journal::{self, EntryOutcome, ErrorKind, JournalEntry, JournalHeader};
use triosim::{
    run_sweep, run_sweep_with, CollectiveStyle, Fidelity, Parallelism, Platform, SweepRunConfig,
    SweepSpec,
};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace};

use pipeline::{Layers, SimConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("usage: triosim-perfprobe <mode> [--key value ...] (see the source header)");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match mode.as_str() {
        "setup-sim" => setup_sim(&opts),
        "setup-sweep" => setup_sweep(&opts),
        "trace-sim" => trace_sim(&opts),
        "trace-sweep" => trace_sweep(&opts),
        "offline" => offline(&opts),
        other => Err(format!("unknown mode `{other}`")),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

fn get<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: FromStr>(opts: &Opts, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    get(opts, key)?.parse().map_err(|e| format!("--{key}: {e}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// FNV-1a 64 over `bytes`: the digest the benchmark prints so a reader
/// can see that no simulated statistic moved.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn layers_list(runs: &[Layers]) -> String {
    let items: Vec<String> = runs.iter().map(Layers::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Loads a `simulate` trace file and resolves the CLI's flags.
fn sim_config(opts: &Opts, trace: Trace) -> Result<SimConfig, String> {
    Ok(SimConfig {
        trace: Arc::new(trace),
        platform: Platform::from_str(get(opts, "platform")?)?,
        parallelism: Parallelism::from_str(get(opts, "parallelism")?)?,
        fidelity: Fidelity::from_str(get(opts, "fidelity")?)?,
        collective: CollectiveStyle::default(),
        realloc: None,
        global_batch: None,
        iterations: opts
            .get("iterations")
            .map_or(Ok(1), |_| num(opts, "iterations"))?,
    })
}

fn load_trace(path: &str, layers: &mut Layers) -> Result<Trace, String> {
    let t = layers.span("trace.load_s", || {
        read(path).and_then(|j| Trace::from_json(&j).map_err(|e| e.to_string()))
    })?;
    layers.add("trace.loads", 1.0);
    Ok(t)
}

/// `simulate` set-up, repeated: trace load, calibration, extrapolation
/// and network build — everything before the first simulated event.
fn setup_sim(opts: &Opts) -> Result<String, String> {
    let reps: usize = num(opts, "reps")?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut l = Layers::default();
        let t0 = Instant::now();
        let cfg = sim_config(opts, load_trace(get(opts, "trace")?, &mut l)?)?;
        let compute = pipeline::resolve_compute(&cfg, &mut l, &mut |g| LisModel::calibrated(g));
        let graph = triosim::extrapolate_with_style(
            &cfg.trace,
            &cfg.platform,
            cfg.parallelism,
            cfg.batch(),
            &compute,
            cfg.collective,
        );
        let net = cfg.network();
        samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box((graph, net));
    }
    Ok(format!("{{\"setup_s\":{}}}", json_list(&samples)))
}

/// Sweep set-up, repeated: spec parse and expansion, then the resolve
/// step's trace builds and calibrations (each unique one once).
fn setup_sweep(opts: &Opts) -> Result<String, String> {
    let reps: usize = num(opts, "reps")?;
    let text = read(get(opts, "spec")?)?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut l = Layers::default();
        let resolved = resolve_spec(&text, &mut l)?;
        samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(resolved);
    }
    Ok(format!("{{\"setup_s\":{}}}", json_list(&samples)))
}

/// A resolved sweep: each scenario's label, config and compute model.
type Resolved = Vec<(String, SimConfig, triosim::ComputeModel)>;

fn resolve_spec(text: &str, l: &mut Layers) -> Result<Resolved, String> {
    let spec = SweepSpec::from_json(text).map_err(|e| e.to_string())?;
    let scenarios = spec.expand().map_err(|e| e.to_string())?;
    let mut traces = BTreeMap::new();
    let mut lis: HashMap<GpuModel, LisModel> = HashMap::new();
    let mut out = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let cfg = pipeline::scenario_config(s, &mut traces, l)?;
        let compute = pipeline::resolve_compute(&cfg, l, &mut |g| {
            lis.entry(g)
                .or_insert_with(|| LisModel::calibrated(g))
                .clone()
        });
        out.push((s.label.clone(), cfg, compute));
    }
    l.add("perfmodel.calibrations", lis.len() as f64);
    Ok(out)
}

/// One `simulate` replay in this (fresh) process, traced with
/// `--traced 1` or bare with `--traced 0`; a traced run also writes its
/// canonical report to `--report-out` exactly as `simulate --report` does.
fn trace_sim(opts: &Opts) -> Result<String, String> {
    let traced = get(opts, "traced")? == "1";
    let mut l = Layers::default();
    let t0 = Instant::now();
    let cfg = sim_config(opts, load_trace(get(opts, "trace")?, &mut l)?)?;
    let mut calibrations = 0;
    let compute = pipeline::resolve_compute(&cfg, &mut l, &mut |g| {
        calibrations += 1;
        LisModel::calibrated(g)
    });
    l.add("perfmodel.calibrations", f64::from(calibrations));
    let report = pipeline::execute(&cfg, &compute, traced, &mut l);
    l.span("report.summary_s", || pipeline::cli_summary(&report));
    let mut bytes = l.span("report.serialize_s", || report.to_canonical_string());
    l.span("report.drop_s", || drop(report));
    l.add("wall_s", t0.elapsed().as_secs_f64());
    bytes.push('\n');
    if let Some(path) = opts.get("report-out") {
        std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(format!(
        "{{\"layers\":{},\"digest\":\"{:016x}\"}}",
        l.to_json(),
        fnv1a(bytes.as_bytes())
    ))
}

/// What one scenario produced in the mirrored pipeline.
type ScenarioOutcome = Result<Value, String>;

/// Runs one resolved sweep through the pipeline on `threads` workers,
/// claiming scenarios from a shared counter as the sweep pool does.
/// Worker-side layer seconds are divided by `threads` so that layer
/// self times stay in wall-clock terms.
fn run_mirrored(
    resolved: &Resolved,
    threads: usize,
    traced: bool,
    l: &mut Layers,
) -> Vec<ScenarioOutcome> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ScenarioOutcome>>> =
        Mutex::new((0..resolved.len()).map(|_| None).collect());
    let per_worker: Vec<Layers> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut wl = Layers::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some((_, cfg, compute)) = resolved.get(i) else {
                            break;
                        };
                        let outcome = run_one(cfg, compute, traced, &mut wl);
                        slots.lock().expect("no worker panics while holding slots")[i] =
                            Some(outcome);
                    }
                    wl
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .expect("scenario panics are caught inside the worker")
            })
            .collect()
    });
    for wl in &per_worker {
        l.merge(wl, 1.0 / threads as f64);
    }
    slots
        .into_inner()
        .expect("workers have joined")
        .into_iter()
        .map(|s| s.expect("every scenario was claimed"))
        .collect()
}

fn run_one(
    cfg: &SimConfig,
    compute: &triosim::ComputeModel,
    traced: bool,
    l: &mut Layers,
) -> ScenarioOutcome {
    let mut sl = Layers::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let report = pipeline::execute(cfg, compute, traced, &mut sl);
        let json = sl.span("report.serialize_s", || report.to_canonical_json());
        sl.span("report.drop_s", || drop(report));
        json
    }));
    l.merge(&sl, 1.0);
    outcome.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Replays the scenario outcomes through `JournalWriter::record` into a
/// fresh journal, as the sweep records each completed scenario.
fn replay_journal(
    text: &str,
    resolved: &Resolved,
    outcomes: &[ScenarioOutcome],
    path: &Path,
    l: &mut Layers,
) -> Result<(), String> {
    let spec = SweepSpec::from_json(text).map_err(|e| e.to_string())?;
    let scenarios = spec.expand().map_err(|e| e.to_string())?;
    let header = JournalHeader {
        name: spec.name.clone(),
        spec_hash: journal::spec_hash(&spec.name, &scenarios),
        total: scenarios.len(),
        spec_text: text.to_string(),
    };
    std::fs::remove_file(path).ok();
    let writer = l
        .span("journal.record_s", || {
            journal::JournalWriter::create(path, &header)
        })
        .map_err(|e| e.to_string())?;
    for (index, ((label, _, _), outcome)) in resolved.iter().zip(outcomes).enumerate() {
        let entry = JournalEntry {
            index,
            label: label.clone(),
            outcome: match outcome {
                Ok(report) => EntryOutcome::Report(report.clone()),
                Err(message) => EntryOutcome::Error {
                    kind: ErrorKind::Panic,
                    message: message.clone(),
                },
            },
        };
        l.span("journal.record_s", || writer.record(&entry))
            .map_err(|e| e.to_string())?;
    }
    drop(writer);
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    l.add("journal.bytes", bytes as f64);
    std::fs::remove_file(path).ok();
    Ok(())
}

/// The sweep itself, in process: `run_sweep_with` with a journal, as
/// `triosim-cli sweep --journal` (and the server's job runner) calls it.
fn sweep_in_process(
    text: &str,
    threads: usize,
    journal_path: &Path,
    l: &mut Layers,
) -> Result<String, String> {
    let spec = SweepSpec::from_json(text).map_err(|e| e.to_string())?;
    std::fs::remove_file(journal_path).ok();
    let config = SweepRunConfig {
        threads,
        journal: Some(journal_path.to_path_buf()),
        spec_text: Some(text.to_string()),
        ..SweepRunConfig::default()
    };
    let t0 = Instant::now();
    let outcome = run_sweep_with(&spec, &config).map_err(|e| e.to_string())?;
    let canonical = outcome.to_canonical_string();
    l.add("sweep.run_s", t0.elapsed().as_secs_f64());
    let busy: f64 = outcome.results.iter().map(|r| r.wall_s).sum();
    l.add(
        "sweep.pool_busy_frac",
        busy / (threads as f64 * outcome.elapsed_s.max(1e-9)),
    );
    let mut walls: Vec<f64> = outcome.results.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    l.add("sweep.scenario_p50_s", walls[walls.len() / 2]);
    l.add("sweep.scenarios_failed", outcome.failures() as f64);
    std::fs::remove_file(journal_path).ok();
    let mut lock = journal_path.as_os_str().to_owned();
    lock.push(".lock");
    std::fs::remove_file(PathBuf::from(lock)).ok();
    Ok(canonical)
}

/// Checks the mirrored pipeline's per-scenario outcomes against the
/// aggregate the CLI wrote: identical report bytes, and errors exactly
/// where the CLI has error entries.
fn check_against_aggregate(outcomes: &[ScenarioOutcome], aggregate: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(aggregate).map_err(|e| e.to_string())?;
    let results = v
        .get("results")
        .and_then(Value::as_array)
        .ok_or("aggregate has no results array")?;
    if results.len() != outcomes.len() {
        return Err(format!(
            "aggregate has {} results, the traced run {}",
            results.len(),
            outcomes.len()
        ));
    }
    for (i, (r, mine)) in results.iter().zip(outcomes).enumerate() {
        match (r.get("report"), mine) {
            (Some(theirs), Ok(ours)) => {
                let a = serde_json::to_string(theirs).map_err(|e| e.to_string())?;
                let b = serde_json::to_string(ours).map_err(|e| e.to_string())?;
                if a != b {
                    return Err(format!(
                        "scenario {i}: traced report differs from the CLI's"
                    ));
                }
            }
            (None, Err(_)) => {}
            (Some(_), Err(e)) => return Err(format!("scenario {i}: traced run failed: {e}")),
            (None, Ok(_)) => return Err(format!("scenario {i}: CLI failed, traced run did not")),
        }
    }
    Ok(())
}

/// One sweep phase per spec in `--specs`, in this (fresh) process:
/// `traced` runs the mirrored pipeline with spans (resolve, then
/// `--threads` workers) and replays its journal; `untraced` runs the
/// same pipeline bare; `sweep` runs the real `run_sweep_with`.
fn trace_sweep(opts: &Opts) -> Result<String, String> {
    let threads: usize = num::<usize>(opts, "threads")?.max(1);
    let work = PathBuf::from(get(opts, "work")?);
    let phase = get(opts, "phase")?;
    let cli_out = opts.get("cli-out").map(|p| read(p)).transpose()?;
    let mut runs = Vec::new();
    let mut digests = Vec::new();
    for path in read(get(opts, "specs")?)?
        .lines()
        .filter(|l| !l.trim().is_empty())
    {
        let text = read(path.trim())?;
        let mut l = Layers::default();
        let t0 = Instant::now();
        match phase {
            "traced" => {
                let resolved = resolve_spec(&text, &mut l)?;
                let outcomes = run_mirrored(&resolved, threads, true, &mut l);
                l.add("wall_s", t0.elapsed().as_secs_f64());
                if let Some(agg) = &cli_out {
                    check_against_aggregate(&outcomes, agg)?;
                }
                let failed = outcomes.iter().filter(|o| o.is_err()).count();
                l.add("pipeline.scenarios_failed", failed as f64);
                let mut jl = Layers::default();
                replay_journal(
                    &text,
                    &resolved,
                    &outcomes,
                    &work.join("replay.jsonl"),
                    &mut jl,
                )?;
                // The sweep records entries on its pool workers.
                l.merge(&jl, 1.0 / threads as f64);
            }
            "untraced" => {
                let resolved = resolve_spec(&text, &mut Layers::default())?;
                run_mirrored(&resolved, threads, false, &mut Layers::default());
                l.add("untraced_wall_s", t0.elapsed().as_secs_f64());
            }
            "sweep" => {
                let canonical =
                    sweep_in_process(&text, threads, &work.join("sweep.jsonl"), &mut l)?;
                if cli_out.as_ref().is_some_and(|agg| *agg != canonical) {
                    return Err(
                        "in-process run_sweep_with bytes differ from the CLI's --out".into(),
                    );
                }
                digests.push(format!("\"{:016x}\"", fnv1a(canonical.as_bytes())));
            }
            other => return Err(format!("unknown --phase `{other}`")),
        }
        runs.push(l);
    }
    Ok(format!(
        "{{\"runs\":{},\"digests\":[{}]}}",
        layers_list(&runs),
        digests.join(",")
    ))
}

/// `run_sweep` on each spec in `--specs`; prints each canonical
/// aggregate's FNV digest, in list order.
fn offline(opts: &Opts) -> Result<String, String> {
    let threads: usize = num::<usize>(opts, "threads")?.max(1);
    let mut digests = Vec::new();
    for path in read(get(opts, "specs")?)?
        .lines()
        .filter(|l| !l.trim().is_empty())
    {
        let spec = SweepSpec::from_json(&read(path.trim())?).map_err(|e| e.to_string())?;
        let outcome = run_sweep(&spec, threads, false).map_err(|e| e.to_string())?;
        digests.push(format!(
            "\"{:016x}\"",
            fnv1a(outcome.to_canonical_string().as_bytes())
        ));
    }
    Ok(format!("{{\"digests\":[{}]}}", digests.join(",")))
}

#[cfg(test)]
mod tests;
