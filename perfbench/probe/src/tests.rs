//! The timing decorator must be invisible to the simulation: decorated
//! and bare runs produce identical canonical bytes, and every trait
//! method forwards to the wrapped model.

use std::str::FromStr;
use std::sync::Arc;

use triosim::{CollectiveStyle, Fidelity, Parallelism, Platform, SimBuilder};
use triosim_des::VirtualTime;
use triosim_modelzoo::ModelId;
use triosim_network::{LinkFault, NetworkModel, NodeId};
use triosim_perfmodel::LisModel;
use triosim_trace::{GpuModel, Tracer};

use crate::pipeline::{self, Layers, SimConfig};
use crate::timednet::TimedNet;

/// The `steady_ddp_long` and `packet_incast` configurations at small
/// iteration counts.
fn configs() -> Vec<SimConfig> {
    let cfg = |model: ModelId, batch, platform: &str, fidelity, iterations| SimConfig {
        trace: Arc::new(Tracer::new(GpuModel::A100).trace(&model.build(batch))),
        platform: Platform::from_str(platform).unwrap(),
        parallelism: Parallelism::DataParallel { overlap: true },
        fidelity,
        collective: CollectiveStyle::default(),
        realloc: None,
        global_batch: None,
        iterations,
    };
    vec![
        cfg(ModelId::ResNet50, 64, "p2:8", Fidelity::TrioSim, 3),
        cfg(ModelId::ResNet18, 32, "fat:A100:8:4", Fidelity::Packet, 1),
    ]
}

fn canonical(cfg: &SimConfig, traced: bool) -> String {
    let compute = pipeline::resolve_compute(cfg, &mut Layers::default(), &mut LisModel::calibrated);
    pipeline::execute(cfg, &compute, traced, &mut Layers::default()).to_canonical_string()
}

#[test]
fn decorated_and_bare_runs_are_byte_identical() {
    for cfg in configs() {
        let bare = canonical(&cfg, false);
        let mut layers = Layers::default();
        let compute = pipeline::resolve_compute(&cfg, &mut layers, &mut LisModel::calibrated);
        let traced = pipeline::execute(&cfg, &compute, true, &mut layers).to_canonical_string();
        assert_eq!(bare, traced, "{}", cfg.platform.name());
        assert!(layers.0["network.calls"] > 0.0);
        assert!(layers.0["executor.run_s"] >= layers.0["network.in_run_s"]);
    }
}

#[test]
fn pipeline_matches_the_simulate_path() {
    for cfg in configs() {
        let cli = SimBuilder::new(&cfg.trace, &cfg.platform)
            .parallelism(cfg.parallelism)
            .fidelity(cfg.fidelity)
            .iterations(cfg.iterations)
            .run()
            .to_canonical_string();
        assert_eq!(cli, canonical(&cfg, true), "{}", cfg.platform.name());
    }
}

#[test]
fn every_trait_method_forwards() {
    for cfg in configs() {
        let (mut bare, mut timed) = (cfg.network(), TimedNet::new(cfg.network()));
        let (a, b) = (cfg.platform.gpu_node(0), cfg.platform.gpu_node(1));
        let t = VirtualTime::ZERO;
        assert_eq!(bare.send(t, a, b, 1 << 20), timed.send(t, a, b, 1 << 20));
        assert_eq!(
            bare.try_send(t, b, a, 1 << 16),
            timed.try_send(t, b, a, 1 << 16)
        );
        assert_eq!(bare.in_flight(), timed.in_flight());
        assert_eq!(bare.observe(), timed.observe());
        assert_eq!(bare.observe_packets(), timed.observe_packets());
        assert_eq!(
            format!("{:?}", bare.observe_links()),
            format!("{:?}", timed.observe_links())
        );
        assert_eq!(bare.iteration_invariant(), timed.iteration_invariant());
        assert_eq!(bare.spec_fingerprint(), timed.spec_fingerprint());
        assert_eq!(bare.checkpoint_state(), timed.checkpoint_state());
        assert_eq!(
            bare.fork_pristine().is_some(),
            timed.fork_pristine().is_some()
        );
        let neighbour = |n: NodeId| cfg.platform.topology().links_from(n)[0].0;
        let hop = neighbour(a);
        let fault = LinkFault::Degrade { factor: 0.5 };
        assert_eq!(
            bare.apply_link_fault(t, a, hop, fault),
            timed.apply_link_fault(t, a, hop, fault)
        );
        let snapshot = bare.stats_snapshot();
        assert_eq!(snapshot, timed.stats_snapshot());
        assert_eq!(timed.calls(), 12);
        assert!(timed.busy_s() > 0.0);

        let (mut bare, mut timed) = (cfg.network(), TimedNet::new(cfg.network()));
        if let Some(s) = &snapshot {
            bare.absorb_stats(s);
            timed.absorb_stats(s);
            assert_eq!(bare.stats_snapshot(), timed.stats_snapshot());
        }
        match bare.checkpoint_state() {
            Some(ck) => {
                assert_eq!(bare.restore_state(&ck), timed.restore_state(&ck));
                assert_eq!(bare.checkpoint_state(), timed.checkpoint_state());
            }
            None => assert!(timed.checkpoint_state().is_none()),
        }
    }
}
