//! The simulation pipeline as the CLI and the sweep run it, one public
//! call at a time, with a span around each call into a layer.
//!
//! `simulate` is trace load -> `ComputeModel::resolve_with` (Li's-Model
//! calibration) -> `extrapolate_with_style` -> network build ->
//! `execute_iterations` -> report. A sweep scenario is the same chain
//! from an in-memory trace built by `Tracer::trace`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use triosim::{
    execute_iterations, extrapolate_with_style, CollectiveStyle, ComputeModel, Fidelity,
    Parallelism, Platform, Scenario, SimReport,
};
use triosim_modelzoo::ModelId;
use triosim_network::{
    FlowNetwork, FlowNetworkConfig, NetworkModel, PacketNetwork, ReallocationMode,
};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace, Tracer};

use crate::timednet::TimedNet;

/// Per-layer sums for one run: host seconds (`*_s`) and counts.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Times `f` and charges its duration to `key`.
    pub fn span<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(key, t0.elapsed().as_secs_f64());
        r
    }

    /// Adds every entry of `other`, scaling the seconds by `scale`.
    pub fn merge(&mut self, other: &Layers, scale: f64) {
        for (k, v) in &other.0 {
            let v = if k.ends_with("_s") { v * scale } else { *v };
            self.add(k, v);
        }
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// One fully resolved simulation: everything `execute_iterations` needs
/// except the graph, which is built (and timed) per run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub trace: Arc<Trace>,
    pub platform: Platform,
    pub parallelism: Parallelism,
    pub fidelity: Fidelity,
    pub collective: CollectiveStyle,
    /// `None` keeps the network's default (what `simulate` does); a sweep
    /// scenario sets its `realloc` field explicitly.
    pub realloc: Option<ReallocationMode>,
    pub global_batch: Option<u64>,
    pub iterations: usize,
}

impl SimConfig {
    /// The global batch `SimBuilder` resolves: weak scaling for data
    /// parallelism, per-replica batch times groups for hybrid, else the
    /// trace batch.
    pub fn batch(&self) -> u64 {
        self.global_batch.unwrap_or(match self.parallelism {
            Parallelism::DataParallel { .. } => {
                self.trace.batch() * self.platform.gpu_count() as u64
            }
            Parallelism::Hybrid { dp_groups, .. } => self.trace.batch() * dp_groups as u64,
            _ => self.trace.batch(),
        })
    }

    pub fn source_gpu(&self) -> GpuModel {
        GpuModel::from_str(self.trace.gpu()).expect("trace GPU is a known model")
    }

    /// The network `SimBuilder` (or the sweep) builds for this fidelity.
    pub fn network(&self) -> Box<dyn NetworkModel> {
        let topo = self.platform.topology().clone();
        let flow = |config| {
            let mut n = FlowNetwork::with_config(topo.clone(), config);
            if let Some(mode) = self.realloc {
                n.set_reallocation_mode(mode);
            }
            n
        };
        match self.fidelity {
            Fidelity::TrioSim => Box::new(flow(FlowNetworkConfig::default())),
            Fidelity::Reference => Box::new(flow(FlowNetworkConfig::reference())),
            Fidelity::Packet => Box::new(PacketNetwork::new(topo)),
        }
    }
}

/// Resolves the compute model, counting and timing each calibration.
pub fn resolve_compute(
    cfg: &SimConfig,
    layers: &mut Layers,
    calibrate: &mut dyn FnMut(GpuModel) -> LisModel,
) -> ComputeModel {
    let mut timed = |g: GpuModel| {
        let t0 = Instant::now();
        let m = calibrate(g);
        layers.add("perfmodel.calibration_s", t0.elapsed().as_secs_f64());
        m
    };
    ComputeModel::resolve_with(
        cfg.fidelity,
        cfg.source_gpu(),
        &cfg.platform,
        cfg.parallelism,
        &mut timed,
    )
}

/// Extrapolates and executes one run. With `traced`, every layer call
/// is timed and the network sits behind a [`TimedNet`]; without it the
/// bare network runs and only the caller's outer timer applies.
pub fn execute(
    cfg: &SimConfig,
    compute: &ComputeModel,
    traced: bool,
    layers: &mut Layers,
) -> SimReport {
    let graph = layers.span("extrapolate.graph_build_s", || {
        extrapolate_with_style(
            &cfg.trace,
            &cfg.platform,
            cfg.parallelism,
            cfg.batch(),
            compute,
            cfg.collective,
        )
    });
    layers.add("extrapolate.tasks", graph.len() as f64);
    let report = if traced {
        let net = layers.span("network.self_s", || cfg.network());
        let mut net = TimedNet::new(net);
        let report = layers.span("executor.run_s", || {
            execute_iterations(&graph, &mut net, cfg.iterations)
        });
        layers.add("network.self_s", net.busy_s());
        layers.add("network.in_run_s", net.busy_s());
        layers.add("network.calls", net.calls() as f64);
        report
    } else {
        let mut net = cfg.network();
        execute_iterations(&graph, net.as_mut(), cfg.iterations)
    };
    let q = report.queue_stats();
    layers.add("executor.events", q.delivered() as f64);
    layers.add("executor.events_cancelled", q.cancelled() as f64);
    layers.add("executor.timeline_records", report.timeline().len() as f64);
    let n = report.network_stats();
    layers.add("network.reallocations", n.reallocations as f64);
    layers.add("network.reschedules", n.reschedules as f64);
    if let Some(p) = report.packet_stats() {
        layers.add("network.packets_sent", p.packets_sent as f64);
        layers.add("network.retransmits", p.retransmits as f64);
        layers.add("network.ecn_marks", p.ecn_marks as f64);
    }
    layers.span("extrapolate.graph_drop_s", || drop(graph));
    report
}

/// The rescans `triosim-cli simulate` prints after a run: the
/// bottleneck summary, the per-layer breakdown and the utilization strip.
pub fn cli_summary(report: &SimReport) {
    black_box(report.bottleneck());
    black_box(report.per_layer_compute_s());
    black_box(report.gpu_utilization(40));
}

/// Parses a sweep scenario the way the sweep engine's resolve step
/// does, building its trace through `traces` (a cache keyed like the
/// sweep's) and charging each build to `trace.build_s`.
pub fn scenario_config(
    s: &Scenario,
    traces: &mut BTreeMap<(String, u64, String), Arc<Trace>>,
    layers: &mut Layers,
) -> Result<SimConfig, String> {
    if s.faults.is_some()
        || s.fault_seed.is_some()
        || s.max_events.is_some()
        || s.max_sim_time_us.is_some()
        || s.wall_timeout_ms.is_some()
        || s.shards > 1
    {
        return Err(format!(
            "{}: faults, budgets and shards are outside the benchmark",
            s.label
        ));
    }
    let model = ModelId::from_str(&s.model)?;
    let gpu = GpuModel::from_str(&s.gpu)?;
    let key = (s.model.clone(), s.trace_batch, s.gpu.clone());
    let trace = match traces.get(&key) {
        Some(t) => t.clone(),
        None => {
            let t = layers.span("trace.build_s", || {
                Arc::new(Tracer::new(gpu).trace(&model.build(s.trace_batch)))
            });
            layers.add("trace.builds", 1.0);
            traces.insert(key, t.clone());
            t
        }
    };
    if s.iterations == 0 {
        return Err(format!("{}: iterations must be at least 1", s.label));
    }
    Ok(SimConfig {
        trace,
        platform: Platform::from_str(&s.platform)?,
        parallelism: Parallelism::from_str(&s.parallelism)?,
        fidelity: Fidelity::from_str(&s.fidelity)?,
        collective: CollectiveStyle::from_str(&s.collective)?,
        realloc: Some(ReallocationMode::from_str(&s.realloc)?),
        global_batch: s.global_batch,
        iterations: usize::try_from(s.iterations).map_err(|e| e.to_string())?,
    })
}
