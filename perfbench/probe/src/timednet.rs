//! A [`NetworkModel`] decorator that times every call into the wrapped
//! model. It forwards each trait method unchanged, so a decorated run
//! produces the same canonical report bytes as a bare one.

use std::cell::Cell;
use std::time::Instant;

use triosim_des::VirtualTime;
use triosim_network::{
    FlowId, LinkFault, LinkObservation, NetCheckpoint, NetCommand, NetObservation, NetRestoreError,
    NetStatsSnapshot, NetworkModel, NodeId, PacketObservation, PartitionedError,
};

/// Wraps a network model and accumulates the host time spent inside it.
#[derive(Debug)]
pub struct TimedNet {
    inner: Box<dyn NetworkModel>,
    busy_ns: Cell<u64>,
    calls: Cell<u64>,
}

impl TimedNet {
    pub fn new(inner: Box<dyn NetworkModel>) -> Self {
        TimedNet {
            inner,
            busy_ns: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// Host seconds spent inside the wrapped model so far.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.get() as f64 * 1e-9
    }

    /// Calls forwarded to the wrapped model so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    fn charge(&self, t0: Instant) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.set(self.busy_ns.get().saturating_add(ns));
        self.calls.set(self.calls.get() + 1);
    }

    fn time<R>(&self, f: impl FnOnce(&dyn NetworkModel) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_ref());
        self.charge(t0);
        r
    }

    fn time_mut<R>(&mut self, f: impl FnOnce(&mut dyn NetworkModel) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        self.charge(t0);
        r
    }
}

impl NetworkModel for TimedNet {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        self.time_mut(|n| n.send(now, src, dst, bytes))
    }

    fn try_send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<(FlowId, Vec<NetCommand>), PartitionedError> {
        self.time_mut(|n| n.try_send(now, src, dst, bytes))
    }

    fn apply_link_fault(
        &mut self,
        now: VirtualTime,
        a: NodeId,
        b: NodeId,
        fault: LinkFault,
    ) -> Result<Vec<NetCommand>, PartitionedError> {
        self.time_mut(|n| n.apply_link_fault(now, a, b, fault))
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        self.time_mut(|n| n.deliver(flow, now))
    }

    fn in_flight(&self) -> usize {
        self.time(|n| n.in_flight())
    }

    fn observe(&self) -> NetObservation {
        self.time(|n| n.observe())
    }

    fn observe_links(&self) -> Vec<LinkObservation> {
        self.time(|n| n.observe_links())
    }

    fn observe_packets(&self) -> Option<PacketObservation> {
        self.time(|n| n.observe_packets())
    }

    fn iteration_invariant(&self) -> bool {
        self.time(|n| n.iteration_invariant())
    }

    fn fork_pristine(&self) -> Option<Box<dyn NetworkModel + Send>> {
        self.time(|n| n.fork_pristine())
    }

    fn stats_snapshot(&self) -> Option<NetStatsSnapshot> {
        self.time(|n| n.stats_snapshot())
    }

    fn absorb_stats(&mut self, snapshot: &NetStatsSnapshot) {
        self.time_mut(|n| n.absorb_stats(snapshot));
    }

    fn spec_fingerprint(&self) -> u64 {
        self.time(|n| n.spec_fingerprint())
    }

    fn checkpoint_state(&self) -> Option<NetCheckpoint> {
        self.time(|n| n.checkpoint_state())
    }

    fn restore_state(&mut self, ck: &NetCheckpoint) -> Result<(), NetRestoreError> {
        self.time_mut(|n| n.restore_state(ck))
    }
}
