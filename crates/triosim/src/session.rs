//! The high-level simulation entry point.

use std::path::PathBuf;
use std::str::FromStr;

use triosim_des::{RunBudget, TimeSpan};
use triosim_faults::FaultPlan;
use triosim_network::{FlowNetwork, FlowNetworkConfig, NetworkModel, NodeId, PacketNetwork};
use triosim_obs::{ProgressMonitor, Recorder, SelfProfiler};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Trace};

use crate::checkpoint::{self, CheckpointConfig, CheckpointError, SimSnapshot};
use crate::compute::{ComputeModel, Fidelity};
use crate::error::SimError;
use crate::executor::{run, RunOptions};
use crate::extrapolate::extrapolate_with_style;
use crate::parallelism::{CollectiveStyle, Parallelism};
use crate::platform::Platform;
use crate::report::SimReport;
use crate::taskgraph::TaskGraph;

/// Configures and runs one TrioSim simulation.
///
/// Defaults: distributed data parallelism, per-GPU batch equal to the
/// trace's batch (so DP defaults to weak scaling, exactly the paper's
/// P1/P2 validation setup), TrioSim fidelity with automatically
/// calibrated Li's Models, and the platform's packet-switching flow
/// network.
///
/// # Example
///
/// ```rust
/// use triosim::{Fidelity, Parallelism, Platform, SimBuilder};
/// use triosim_modelzoo::ModelId;
/// use triosim_trace::{GpuModel, Tracer};
///
/// let trace = Tracer::new(GpuModel::A40).trace(&ModelId::Vgg11.build(16));
/// let platform = Platform::p1();
///
/// // TrioSim prediction and reference ground truth for the same setup.
/// let predicted = SimBuilder::new(&trace, &platform)
///     .parallelism(Parallelism::DataParallel { overlap: true })
///     .run();
/// let truth = SimBuilder::new(&trace, &platform)
///     .parallelism(Parallelism::DataParallel { overlap: true })
///     .fidelity(Fidelity::Reference)
///     .run();
/// let err = (predicted.total_time_s() - truth.total_time_s()).abs() / truth.total_time_s();
/// assert!(err < 0.25, "prediction error {err:.3}");
/// ```
#[derive(Debug)]
pub struct SimBuilder<'a> {
    trace: &'a Trace,
    platform: &'a Platform,
    parallelism: Parallelism,
    global_batch: Option<u64>,
    fidelity: Fidelity,
    compute: Option<ComputeModel>,
    network: Option<Box<dyn NetworkModel>>,
    collective_style: CollectiveStyle,
    iterations: usize,
    recorder: Option<Box<dyn Recorder>>,
    progress: Option<ProgressMonitor>,
    sample_period: TimeSpan,
    faults: Option<FaultPlan>,
    fault_seed: Option<u64>,
    budget: Option<RunBudget>,
    checkpoint: Option<(PathBuf, usize)>,
    restore: Option<PathBuf>,
}

impl<'a> SimBuilder<'a> {
    /// Starts configuring a simulation of `trace` on `platform`.
    pub fn new(trace: &'a Trace, platform: &'a Platform) -> Self {
        SimBuilder {
            trace,
            platform,
            parallelism: Parallelism::DataParallel { overlap: true },
            global_batch: None,
            fidelity: Fidelity::TrioSim,
            compute: None,
            network: None,
            collective_style: CollectiveStyle::default(),
            iterations: 1,
            recorder: None,
            progress: None,
            sample_period: RunOptions::default().sample_period,
            faults: None,
            fault_seed: None,
            budget: None,
            checkpoint: None,
            restore: None,
        }
    }

    /// Simulates `iterations` back-to-back training iterations on
    /// persistent network state (photonic circuits amortize their setup
    /// across iterations).
    ///
    /// Long runs are cheap where the network allows it: once one
    /// iteration exactly repeats the previous one, steady-state replay
    /// synthesizes the rest instead of simulating it (DESIGN.md §12),
    /// with byte-identical canonical output.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Sets the parallelism strategy.
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Sets the global mini-batch (see [`extrapolate`](crate::extrapolate)
    /// for its meaning under each parallelism).
    pub fn global_batch(mut self, batch: u64) -> Self {
        self.global_batch = Some(batch);
        self
    }

    /// Chooses TrioSim prediction or reference ground truth.
    pub fn fidelity(mut self, f: Fidelity) -> Self {
        self.fidelity = f;
        self
    }

    /// Overrides the operator-time policy (e.g. a pre-calibrated or
    /// cross-GPU [`ComputeModel`]).
    pub fn compute_model(mut self, m: ComputeModel) -> Self {
        self.compute = Some(m);
        self
    }

    /// Chooses the ring-AllReduce variant for data parallelism (the
    /// wafer-scale case study uses [`CollectiveStyle::Unsegmented`]).
    pub fn collective_style(mut self, style: CollectiveStyle) -> Self {
        self.collective_style = style;
        self
    }

    /// Overrides the network model (e.g. a
    /// [`PhotonicNetwork`](triosim_network::PhotonicNetwork)).
    pub fn network(mut self, n: Box<dyn NetworkModel>) -> Self {
        self.network = Some(n);
        self
    }

    /// Attaches an observability recorder (e.g. a
    /// [`RunRecorder`](triosim_obs::RunRecorder) fanning out to JSONL,
    /// Chrome-trace, and Prometheus sinks). The run emits spans and
    /// metrics into it and calls `finish` when done.
    pub fn recorder(mut self, r: Box<dyn Recorder>) -> Self {
        self.recorder = Some(r);
        self
    }

    /// Attaches a live progress monitor (wall-clock throttled, stderr).
    pub fn progress(mut self, p: ProgressMonitor) -> Self {
        self.progress = Some(p);
        self
    }

    /// Sets the virtual-time period between observability samples.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn sample_period(mut self, period: TimeSpan) -> Self {
        assert!(period > TimeSpan::ZERO, "sample period must be positive");
        self.sample_period = period;
        self
    }

    /// Attaches a fault-injection plan. An empty plan is equivalent to no
    /// plan at all — the run takes the plain, bit-identical code path.
    /// The plan is validated against the platform by
    /// [`try_run`](Self::try_run) before execution.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the fault plan's jitter seed (the CLI's `--fault-seed`).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Attaches a runaway guard: the run terminates with
    /// [`SimError::BudgetExceeded`] if it blows any axis of `budget`.
    /// An unlimited budget is equivalent to no budget at all — the run
    /// takes the plain, bit-identical code path. A wall-clock deadline
    /// is armed when the budget is constructed, so build it right before
    /// calling [`try_run`](Self::try_run).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = (!budget.is_unlimited()).then_some(budget);
        self
    }

    /// Writes a crash-safe engine snapshot to `path` after every `every`
    /// completed iterations (DESIGN.md §13). Snapshots are taken at
    /// quiescent iteration boundaries, written atomically (temp file +
    /// fsync + rename), and stamped with a scenario spec hash; a later
    /// run restores with [`restore`](Self::restore) and produces
    /// canonical bytes identical to an uninterrupted run.
    ///
    /// Checkpointed runs simulate every iteration (no steady-state
    /// replay). Recorders, progress and the self-profiler compose with
    /// checkpointing and leave the snapshots' bytes unchanged. A network
    /// that cannot snapshot its state (the packet and photonic tiers)
    /// makes [`try_run`](Self::try_run) fail with
    /// [`CheckpointError::Unsupported`] before anything is simulated.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1");
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// Resumes from a snapshot written by [`checkpoint`](Self::checkpoint).
    /// The snapshot's spec hash must match this builder's scenario
    /// (trace, platform, parallelism, network, fault plan, deterministic
    /// budget axes) — iteration count and wall-clock timeout may differ.
    /// Composes with `checkpoint` to keep checkpointing the resumed run,
    /// and with recorders, progress and the self-profiler.
    pub fn restore(mut self, path: impl Into<PathBuf>) -> Self {
        self.restore = Some(path.into());
        self
    }

    fn resolved_batch(&self) -> u64 {
        self.global_batch.unwrap_or(match self.parallelism {
            Parallelism::DataParallel { .. } => {
                self.trace.batch() * self.platform.gpu_count() as u64
            }
            Parallelism::Hybrid { dp_groups, .. } => self.trace.batch() * dp_groups as u64,
            _ => self.trace.batch(),
        })
    }

    fn resolved_compute(&self) -> ComputeModel {
        if let Some(m) = &self.compute {
            return m.clone();
        }
        let source_gpu = GpuModel::from_str(self.trace.gpu())
            .expect("trace GPU must be a known model (A40/A100/H100)");
        ComputeModel::resolve_with(
            self.fidelity,
            source_gpu,
            self.platform,
            self.parallelism,
            &mut LisModel::calibrated,
        )
    }

    fn resolved_network(&mut self) -> Box<dyn NetworkModel> {
        if let Some(n) = self.network.take() {
            return n;
        }
        let topo = self.platform.topology().clone();
        match self.fidelity {
            Fidelity::TrioSim => Box::new(FlowNetwork::new(topo)),
            Fidelity::Reference => Box::new(FlowNetwork::with_config(
                topo,
                FlowNetworkConfig::reference(),
            )),
            Fidelity::Packet => Box::new(PacketNetwork::new(topo)),
        }
    }

    /// Builds the extrapolated task graph without executing it.
    pub fn build_graph(&self) -> TaskGraph {
        let compute = self.resolved_compute();
        self.build_graph_with(&compute)
    }

    /// [`build_graph`](Self::build_graph) with an already-resolved
    /// compute model (lets the profiled path time calibration and
    /// extrapolation separately).
    fn build_graph_with(&self, compute: &ComputeModel) -> TaskGraph {
        extrapolate_with_style(
            self.trace,
            self.platform,
            self.parallelism,
            self.resolved_batch(),
            compute,
            self.collective_style,
        )
    }

    /// Checks a non-empty plan against the platform: entity ranges and
    /// value domains via [`FaultPlan::validate`], plus that every link
    /// fault names a link the topology actually has.
    fn validate_plan(&self, plan: &FaultPlan) -> Result<(), SimError> {
        let topo = self.platform.topology();
        plan.validate(self.platform.gpu_count(), topo.node_count())
            .map_err(|e| SimError::InvalidPlan(e.to_string()))?;
        let has_link = |a: usize, b: usize| {
            topo.links_from(NodeId(a)).iter().any(|(n, _)| n.0 == b)
                || topo.links_from(NodeId(b)).iter().any(|(n, _)| n.0 == a)
        };
        for (i, d) in plan.link_degradations.iter().enumerate() {
            if !has_link(d.src, d.dst) {
                return Err(SimError::InvalidPlan(format!(
                    "invalid fault plan: link_degradations[{i}]: no link between n{} and n{}",
                    d.src, d.dst
                )));
            }
        }
        for (i, l) in plan.link_failures.iter().enumerate() {
            if !has_link(l.src, l.dst) {
                return Err(SimError::InvalidPlan(format!(
                    "invalid fault plan: link_failures[{i}]: no link between n{} and n{}",
                    l.src, l.dst
                )));
            }
        }
        Ok(())
    }

    /// Rejects pipelines with more stages than the model has layers:
    /// every stage needs at least one layer. A pipeline has one stage per
    /// GPU; a hybrid run, one per GPU of each data-parallel group.
    fn check_stages(&self) -> Result<(), SimError> {
        let gpus = self.platform.gpu_count();
        let stages = match self.parallelism {
            Parallelism::Pipeline { .. } => gpus,
            Parallelism::Hybrid { dp_groups, .. } => gpus / dp_groups.max(1),
            _ => return Ok(()),
        };
        let layers = self.trace.layer_count();
        if layers < stages {
            return Err(SimError::Unsupported(format!(
                "model has fewer layers ({layers}) than pipeline stages ({stages})"
            )));
        }
        Ok(())
    }

    /// Extrapolates and executes the simulation, surfacing unsupported
    /// configurations, invalid fault plans, and fault-induced or
    /// budget-induced early termination as typed errors.
    ///
    /// A supported configuration on a connected platform, without a
    /// fault plan (or with an empty one) and without a budget, cannot
    /// fail and produces a report bit-identical to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// [`SimError::Unsupported`] when a pipeline has more stages than the
    /// model has layers; [`SimError::InvalidPlan`] when the fault plan
    /// references GPUs, nodes, or links the platform does not have (or
    /// carries out-of-domain values); [`SimError::Partitioned`] when a
    /// transfer's endpoints have no connecting path;
    /// [`SimError::GpuLost`] when an injected GPU drop-out strands its
    /// tasks; [`SimError::BudgetExceeded`] when the run blows
    /// an axis of its [`budget`](Self::budget); [`SimError::Checkpoint`]
    /// when a snapshot cannot be written or restored.
    pub fn try_run(self) -> Result<SimReport, SimError> {
        self.try_run_profiled(&mut SelfProfiler::disabled())
    }

    /// [`try_run`](Self::try_run) with host self-profiling: wall-clock
    /// spans for Li's-Model calibration (`calibration`), graph
    /// extrapolation (`graph_build`), network construction
    /// (`network_build`), and the engine loop with its network share
    /// (`engine_loop`/`network`) and snapshot writes
    /// (`engine_loop`/`checkpoint_write`) accumulate into `prof`.
    ///
    /// Profiling is strictly diagnostic: the returned report — including
    /// its canonical bytes — is byte-identical to an unprofiled run. A
    /// [disabled](SelfProfiler::disabled) profiler reads no clock.
    ///
    /// # Errors
    ///
    /// Same as [`try_run`](Self::try_run).
    pub fn try_run_profiled(mut self, prof: &mut SelfProfiler) -> Result<SimReport, SimError> {
        let mut faults = self.faults.take().unwrap_or_default();
        if let Some(seed) = self.fault_seed {
            faults = faults.with_seed(seed);
        }
        if !faults.is_empty() {
            self.validate_plan(&faults)?;
        }
        self.check_stages()?;
        let compute = prof.time("calibration", || self.resolved_compute());
        let graph = prof.time("graph_build", || self.build_graph_with(&compute));
        let mut network = prof.time("network_build", || self.resolved_network());
        let budget = self.budget.take();
        let (checkpoint, restore) =
            self.snapshots(&graph, network.as_ref(), &faults, budget.as_ref())?;
        let opts = RunOptions {
            iterations: self.iterations,
            faults,
            budget,
            recorder: self.recorder.take(),
            progress: self.progress.take(),
            sample_period: self.sample_period,
            profiler: Some(prof),
            checkpoint,
            restore,
        };
        run(&graph, network.as_mut(), opts)
    }

    /// Resolves the requested checkpoint and restore against the built
    /// scenario: both need a network that can snapshot its state, and a
    /// snapshot to restore must carry this scenario's spec hash and no
    /// more completed iterations than the run requests.
    fn snapshots(
        &mut self,
        graph: &TaskGraph,
        network: &dyn NetworkModel,
        faults: &FaultPlan,
        budget: Option<&RunBudget>,
    ) -> Result<(Option<CheckpointConfig>, Option<SimSnapshot>), SimError> {
        if self.checkpoint.is_none() && self.restore.is_none() {
            return Ok((None, None));
        }
        if network.checkpoint_state().is_none() {
            return Err(SimError::Checkpoint(CheckpointError::Unsupported(
                "the network model does not expose snapshots".to_string(),
            )));
        }
        let hash = checkpoint::spec_hash(graph, network, faults, budget);
        let checkpoint = self
            .checkpoint
            .take()
            .map(|(path, every)| CheckpointConfig {
                path,
                every,
                spec_hash: hash,
            });
        let Some(path) = self.restore.take() else {
            return Ok((checkpoint, None));
        };
        let snap = checkpoint::read_snapshot(&path).map_err(SimError::Checkpoint)?;
        let found = snap.parsed_spec_hash().map_err(SimError::Checkpoint)?;
        if found != hash {
            return Err(SimError::Checkpoint(CheckpointError::SpecMismatch {
                expected: hash,
                found,
            }));
        }
        if snap.completed > self.iterations as u64 {
            return Err(SimError::Checkpoint(CheckpointError::Corrupt(format!(
                "snapshot completed {} iterations but the run requests only {}",
                snap.completed, self.iterations
            ))));
        }
        Ok((checkpoint, Some(snap)))
    }

    /// Extrapolates and executes the simulation.
    ///
    /// # Panics
    ///
    /// Panics on any condition [`try_run`](Self::try_run) reports as an
    /// error (unsupported configurations, invalid fault plans, partitions
    /// or GPU loss). Supported fault-free configurations never panic
    /// here.
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triosim_modelzoo::ModelId;
    use triosim_trace::Tracer;

    fn trace() -> Trace {
        Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(16))
    }

    #[test]
    fn default_run_completes() {
        let t = trace();
        let p = Platform::p2(2);
        let r = SimBuilder::new(&t, &p).run();
        assert!(r.total_time_s() > 0.0);
        assert!(r.tasks_executed() > 100);
    }

    #[test]
    fn default_dp_batch_is_weak_scaling() {
        let t = trace();
        let p = Platform::p2(4);
        let b = SimBuilder::new(&t, &p);
        assert_eq!(b.resolved_batch(), 16 * 4);
    }

    #[test]
    fn reference_differs_from_prediction_but_not_wildly() {
        let t = trace();
        let p = Platform::p2(2);
        let pred = SimBuilder::new(&t, &p).run();
        let truth = SimBuilder::new(&t, &p).fidelity(Fidelity::Reference).run();
        let err = (pred.total_time_s() - truth.total_time_s()).abs() / truth.total_time_s();
        assert!(err < 0.20, "error {err}");
        assert!(err > 0.0, "models are distinct");
    }

    #[test]
    fn more_gpus_scale_weakly() {
        let t = trace();
        let p2 = Platform::p2(2);
        let p4 = Platform::p2(4);
        let r2 = SimBuilder::new(&t, &p2).run();
        let r4 = SimBuilder::new(&t, &p4).run();
        // Weak scaling: total time grows only mildly with GPU count.
        assert!(r4.total_time_s() < 1.5 * r2.total_time_s());
    }

    #[test]
    fn pipeline_runs() {
        let t = trace();
        let p = Platform::p2(2);
        let r = SimBuilder::new(&t, &p)
            .parallelism(Parallelism::Pipeline { chunks: 2 })
            .run();
        assert!(r.total_time_s() > 0.0);
        assert!(r.comm_time_s() > 0.0, "activations crossed the wire");
    }

    #[test]
    fn event_budget_terminates_with_typed_error() {
        let t = trace();
        let p = Platform::p2(2);
        let err = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited().with_max_events(10))
            .try_run()
            .expect_err("10 events cannot finish a training iteration");
        assert_eq!(
            err.to_string(),
            "budget exceeded: more than 10 events delivered"
        );
    }

    #[test]
    fn sim_time_budget_terminates_with_typed_error() {
        let t = trace();
        let p = Platform::p2(2);
        let err = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited().with_max_sim_time_us(1))
            .try_run()
            .expect_err("1us cannot finish a training iteration");
        assert_eq!(
            err.to_string(),
            "budget exceeded: simulated time passed 1us"
        );
    }

    #[test]
    fn generous_budget_is_bit_identical_to_no_budget() {
        let t = trace();
        let p = Platform::p2(2);
        let plain = SimBuilder::new(&t, &p).run();
        let budgeted = SimBuilder::new(&t, &p)
            .budget(RunBudget::unlimited().with_max_events(u64::MAX))
            .try_run()
            .expect("generous budget never trips");
        assert_eq!(plain.to_canonical_json(), budgeted.to_canonical_json());
        // Unlimited budgets are dropped entirely.
        let unlimited = SimBuilder::new(&t, &p).budget(RunBudget::unlimited());
        assert!(unlimited.budget.is_none());
    }

    #[test]
    fn budget_composes_with_fault_plans() {
        use triosim_faults::GpuDropout;
        let t = trace();
        let p = Platform::p2(2);
        let plan = FaultPlan {
            gpu_dropouts: vec![GpuDropout { gpu: 1, at_s: 1e9 }],
            ..FaultPlan::default()
        };
        let err = SimBuilder::new(&t, &p)
            .faults(plan)
            .budget(RunBudget::unlimited().with_max_events(10))
            .try_run()
            .expect_err("budget trips long before the scheduled fault");
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }

    /// Runs `b` with checkpointing on, which keeps steady-state replay
    /// off: the fully simulated oracle for the same configuration.
    fn simulated(b: SimBuilder<'_>, tag: &str) -> Result<SimReport, SimError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "triosim-session-{tag}-{}-{n}.json",
            std::process::id()
        ));
        let every = b.iterations;
        let result = b.checkpoint(&path, every).try_run();
        let _ = std::fs::remove_file(&path);
        if let Ok(r) = &result {
            assert!(
                r.replay().is_none(),
                "checkpointed runs simulate everything"
            );
        }
        result
    }

    #[test]
    fn replayed_run_is_byte_identical_to_serial() {
        let t = trace();
        let p = Platform::p2(2);
        for iterations in [3, 5, 8] {
            let replayed = SimBuilder::new(&t, &p).iterations(iterations).run();
            let summary = replayed.replay().expect("a plain flow run replays");
            assert_eq!(summary.simulated + summary.synthesized, iterations);
            let serial = simulated(SimBuilder::new(&t, &p).iterations(iterations), "identity")
                .expect("fault-free runs succeed");
            assert_eq!(
                serial.to_canonical_json(),
                replayed.to_canonical_json(),
                "iterations={iterations}: replay diverged from the serial oracle"
            );
        }
    }

    #[test]
    fn replayed_budget_trip_matches_serial_kind_and_limit() {
        let t = trace();
        let p = Platform::p2(2);
        let budgeted = |limit: u64| {
            SimBuilder::new(&t, &p)
                .iterations(4)
                .budget(RunBudget::unlimited().with_max_events(limit))
        };
        // A family of limits sweeping from "trips in the first iteration"
        // through "trips after replay could have engaged" to "never
        // trips": replay-capable and serial runs agree at every point.
        for limit in [10, 1_000, 10_000, 100_000, u64::MAX - 1] {
            let replayable = budgeted(limit).try_run().map(|r| r.to_canonical_json());
            let serial = simulated(budgeted(limit), "budget").map(|r| r.to_canonical_json());
            match (&serial, &replayable) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "limit={limit}"),
                (Err(a), Err(b)) => {
                    assert!(
                        matches!(b, SimError::BudgetExceeded { .. }),
                        "limit={limit}"
                    );
                    assert_eq!(a.to_string(), b.to_string(), "limit={limit}");
                }
                _ => panic!("limit={limit}: replay-capable and serial runs disagree"),
            }
        }
    }

    #[test]
    fn replayed_run_composes_with_budget_byte_identically() {
        let t = trace();
        let p = Platform::p2(2);
        let generous = || {
            SimBuilder::new(&t, &p)
                .iterations(4)
                .budget(RunBudget::unlimited().with_max_events(u64::MAX))
        };
        let replayed = generous().try_run().expect("generous budget never trips");
        assert!(
            replayed.replay().is_some(),
            "a budget the run provably fits keeps replay on"
        );
        let serial = simulated(generous(), "compose").expect("generous budget never trips");
        assert_eq!(serial.to_canonical_json(), replayed.to_canonical_json());
    }

    #[test]
    fn faults_fall_back_to_the_serial_path() {
        use triosim_faults::GpuSlowdown;
        let t = trace();
        let p = Platform::p2(2);
        let plan = FaultPlan {
            gpu_slowdowns: vec![GpuSlowdown {
                gpu: 1,
                factor: 1.5,
            }],
            ..FaultPlan::default()
        };
        let faulted = || SimBuilder::new(&t, &p).iterations(3).faults(plan.clone());
        let plain = faulted().run();
        assert!(plain.replay().is_none(), "faulted runs are never replayed");
        let serial = simulated(faulted(), "faults").expect("a slowdown never fails a run");
        assert_eq!(serial.to_canonical_json(), plain.to_canonical_json());
    }

    #[test]
    #[should_panic(expected = "sample period must be positive")]
    fn zero_sample_period_rejected() {
        let t = trace();
        let p = Platform::p2(2);
        let _ = SimBuilder::new(&t, &p).sample_period(TimeSpan::ZERO);
    }

    #[test]
    fn checkpoint_cadence_must_be_positive() {
        let t = trace();
        let p = Platform::p2(2);
        let result = std::panic::catch_unwind(|| {
            let _ = SimBuilder::new(&t, &p).checkpoint("/tmp/x", 0);
        });
        assert!(result.is_err(), "zero cadence must panic");
    }

    #[test]
    fn tensor_parallel_runs() {
        let t = trace();
        let p = Platform::p2(2);
        let r = SimBuilder::new(&t, &p)
            .parallelism(Parallelism::TensorParallel)
            .run();
        assert!(r.total_time_s() > 0.0);
        assert!(r.comm_ratio() > 0.0);
    }
}
