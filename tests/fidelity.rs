//! Flow-vs-packet cross-validation suite.
//!
//! The packet tier ([`PacketNetwork`]) must agree with the flow tier
//! exactly where protocol effects cannot matter, and must disagree —
//! with structured evidence — exactly where they must. Three layers:
//!
//! * **Convergence oracle**: on an uncongested single-link topology the
//!   packet-tier delivery time equals the flow-tier analytic time within
//!   one MTU serialization delay, across proptest-generated sizes,
//!   latencies, and bandwidths.
//! * **Divergence evidence**: on an oversubscribed fat tree the packet
//!   tier reports a *longer* total than the flow tier, plus nonzero
//!   ECN marks (and a populated queue-depth histogram) the flow tier
//!   cannot see. Canonical packet reports are pinned as golden
//!   snapshots (`tests/golden/packet_{ddp,tp}.json`), re-blessable via
//!   `TRIOSIM_BLESS=1 cargo test --test fidelity`.
//! * **Determinism**: packet runs are byte-identical across invocations.
//!   The packet tier is not iteration-invariant, so steady-state replay
//!   never engages on it: every iteration is simulated.

use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;
use triosim::{Fidelity, Parallelism, Platform, SimBuilder};
use triosim_des::VirtualTime;
use triosim_modelzoo::ModelId;
use triosim_network::{FlowNetwork, NetCommand, NetworkModel, NodeId, PacketNetwork, Topology};
use triosim_trace::{GpuModel, Tracer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bless_mode() -> bool {
    std::env::var_os("TRIOSIM_BLESS").is_some_and(|v| v == "1")
}

/// The congested scenario both golden snapshots and the divergence test
/// share: two A100s on a 4:1-oversubscribed fat tree (one GPU per leaf,
/// so every collective byte crosses the thin 6.25 GB/s spine uplinks),
/// ResNet-18 at batch 8. Small enough for debug-mode CI, congested
/// enough that queues build, ECN fires, and the tiers diverge.
fn congested_platform() -> Platform {
    Platform::fat_tree(GpuModel::A100, 2, 1, 25e9, 5e-6, 4.0, "fat2")
}

/// A 4-GPU incast: one GPU per leaf on the same 4:1-oversubscribed fat
/// tree, so tensor parallelism funnels every shard's activations across
/// the thin spine at once and switch buffers overflow.
fn incast_platform() -> Platform {
    Platform::fat_tree(GpuModel::A100, 4, 1, 25e9, 5e-6, 4.0, "fat4")
}

fn report_on(
    platform: &Platform,
    parallelism: Parallelism,
    fidelity: Fidelity,
) -> triosim::SimReport {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    SimBuilder::new(&trace, platform)
        .parallelism(parallelism)
        .fidelity(fidelity)
        .run()
}

fn congested_report(parallelism: Parallelism, fidelity: Fidelity) -> triosim::SimReport {
    report_on(&congested_platform(), parallelism, fidelity)
}

fn check_golden(name: &str, parallelism: Parallelism) {
    let report = congested_report(parallelism, Fidelity::Packet);
    let actual =
        serde_json::to_string(&report.to_canonical_json()).expect("canonical JSON is finite");
    let path = golden_dir().join(format!("{name}.json"));
    if bless_mode() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `TRIOSIM_BLESS=1 cargo test --test fidelity` \
             and commit the result",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "\n`{name}` drifted from its golden snapshot.\n\
         If this change is intentional, re-bless with \
         `TRIOSIM_BLESS=1 cargo test --test fidelity` and commit the diff.\n\
         actual  : {actual}\n\
         expected: {expected}\n"
    );
}

#[test]
fn golden_packet_ddp() {
    check_golden("packet_ddp", Parallelism::DataParallel { overlap: true });
}

#[test]
fn golden_packet_tp() {
    check_golden("packet_tp", Parallelism::TensorParallel);
}

/// The headline divergence assertion: under congestion the packet tier
/// must be slower than the flow tier (queueing and congestion control
/// the flow model cannot see), and must say *why* via its structured
/// counters. The flow tier must carry no packet section at all — that
/// absence is what keeps flow reports byte-identical to pre-packet
/// builds. Two congested cases: DDP on the two-leaf tree, and the TP
/// incast, which must also drop.
#[test]
fn packet_tier_diverges_under_congestion_with_evidence() {
    // (platform, parallelism, must the run drop packets?)
    let cases = [
        (
            congested_platform(),
            Parallelism::DataParallel { overlap: true },
            false,
        ),
        (incast_platform(), Parallelism::TensorParallel, true),
    ];
    for (platform, parallelism, must_drop) in &cases {
        let name = platform.name();
        let flow = report_on(platform, *parallelism, Fidelity::TrioSim);
        let packet = report_on(platform, *parallelism, Fidelity::Packet);
        assert!(
            flow.packet_stats().is_none(),
            "{name}: flow tier reports no packets"
        );
        let ps = *packet
            .packet_stats()
            .expect("packet tier reports packet counters");
        let ratio = packet.total_time_s() / flow.total_time_s();
        assert!(
            ratio > 1.0,
            "{name}: congestion must slow the packet tier: ratio {ratio}"
        );
        assert!(ps.ecn_marks > 0, "{name}: congestion must mark: {ps:?}");
        assert!(
            ps.drops + ps.ecn_marks > 0 && ps.packets_sent > 0,
            "{name}: divergence needs structured evidence: {ps:?}"
        );
        assert!(
            ps.queue_depth_hist.iter().sum::<u64>() > 0,
            "{name}: switch queues were never observed: {ps:?}"
        );
        assert!(
            !must_drop || ps.drops > 0,
            "{name}: the incast must overflow a buffer: {ps:?}"
        );
    }
}

/// On an *uncongested* topology (every flow on its own NVLink) the two
/// tiers must agree closely: same total to within 2%, because without queueing the packet dynamics reduce to
/// serialization + propagation — exactly the flow model's arithmetic.
#[test]
fn tiers_converge_on_uncongested_topology() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    let platform = Platform::p2(2);
    let run = |fidelity| {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .fidelity(fidelity)
            .run()
            .total_time_s()
    };
    let flow = run(Fidelity::TrioSim);
    let packet = run(Fidelity::Packet);
    let ratio = packet / flow;
    assert!(
        (0.99..1.02).contains(&ratio),
        "uncongested tiers must agree: flow {flow} vs packet {packet} (ratio {ratio})"
    );
}

/// Packet runs are deterministic: byte-identical canonical reports
/// across two invocations. The packet tier is not iteration-invariant,
/// so steady-state replay never shortens it.
#[test]
fn packet_run_is_byte_identical_across_invocations() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
    let platform = congested_platform();
    let run = || {
        let r = SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .fidelity(Fidelity::Packet)
            .iterations(3)
            .run();
        assert!(r.replay().is_none(), "packet runs simulate every iteration");
        serde_json::to_string(&r.to_canonical_json()).expect("canonical JSON is finite")
    };
    assert_eq!(run(), run(), "rerun diverged");
}

/// Through the CLI, a multi-iteration packet run says it simulated every
/// iteration, and reruns write byte-identical reports.
#[test]
fn packet_cli_run_is_simulated_in_full() {
    let bin = env!("CARGO_BIN_EXE_triosim-cli");
    let dir = std::env::temp_dir().join(format!("triosim-fidelity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let out = Command::new(bin)
        .args([
            "trace", "--model", "resnet18", "--batch", "8", "--gpu", "A100",
        ])
        .arg("-o")
        .arg(&trace)
        .output()
        .expect("trace subcommand runs");
    assert!(out.status.success(), "trace failed: {out:?}");

    let simulate = |report: &PathBuf| {
        let out = Command::new(bin)
            .args([
                "simulate",
                "--fidelity",
                "packet",
                "--platform",
                "fat:A100:2",
                "--iterations",
                "3",
            ])
            .arg("--trace")
            .arg(&trace)
            .arg("--report")
            .arg(report)
            .output()
            .expect("simulate subcommand runs");
        assert!(out.status.success(), "simulate failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let first = dir.join("first.json");
    let stdout = simulate(&first);
    assert!(
        stdout.contains("replay        : simulated 3 of 3 iterations\n"),
        "the packet tier is never replayed, got: {stdout}"
    );
    let second = dir.join("second.json");
    simulate(&second);
    let a = std::fs::read(&first).expect("first report written");
    let b = std::fs::read(&second).expect("second report written");
    assert_eq!(a, b, "packet reruns changed report bytes");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flow==packet convergence oracle. On a 2-node single-link
    /// topology with no competing traffic, the packet tier's delivery
    /// time must equal the flow tier's (`latency + bytes/bandwidth`)
    /// within one MTU serialization delay — the only slack packetization
    /// is allowed to introduce. Ranges keep the bandwidth-delay product
    /// under the initial congestion window, which is precisely the
    /// uncongested regime the bound documents.
    #[test]
    fn packet_delivery_matches_flow_analytic_when_uncongested(
        bytes in 1u64..32_000_000,
        bw_gbps in 1u64..50,
        lat_ns in 1u64..5_000,
    ) {
        let bandwidth = bw_gbps as f64 * 1e9;
        let latency = lat_ns as f64 * 1e-9;
        let mut topo = Topology::new(2);
        topo.add_duplex(NodeId(0), NodeId(1), bandwidth, latency);

        let at_of = |cmds: &[NetCommand]| match cmds.last().expect("one schedule") {
            NetCommand::Schedule { at, .. } => *at,
            NetCommand::Cancel { .. } => panic!("expected a schedule"),
        };
        let mut flow_net = FlowNetwork::new(topo.clone());
        let (_, cmds) = flow_net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let flow_s = at_of(&cmds).as_seconds();

        let mut pkt_net = PacketNetwork::new(topo);
        let (_, cmds) = pkt_net.send(VirtualTime::ZERO, NodeId(0), NodeId(1), bytes);
        let pkt_s = at_of(&cmds).as_seconds();

        let bound = pkt_net.config().mtu_bytes as f64 / bandwidth;
        prop_assert!(
            (pkt_s - flow_s).abs() <= bound + 1e-12,
            "packet {pkt_s} vs flow {flow_s}: off by more than one MTU serialization ({bound})"
        );
    }
}
