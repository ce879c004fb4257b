//! The routing-protocol abstraction: DSR or AODV under the same MAC.
//!
//! The paper pairs Rcast with DSR because DSR is the protocol that
//! *profits* from overhearing; AODV is its explicit contrast (no
//! overhearing, timeout-driven tables, hello beacons). Wiring both
//! behind one interface lets the extension experiments measure the
//! paper's claims about AODV under PSM — more RREQ flooding, and
//! periodic hello broadcasts that wake whole neighborhoods.

use rcast_aodv::{AodvAction, AodvConfig, AodvCounters, AodvNode, AodvPacket};
use rcast_dsr::{DsrAction, DsrConfig, DsrCounters, DsrNode, DsrPacket, SourceRoute};
use rcast_engine::{NodeId, SimTime};
use rcast_obs::PacketClass;

/// Which routing protocol a simulation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Dynamic Source Routing — the paper's protocol.
    #[default]
    Dsr,
    /// Ad hoc On-demand Distance Vector — the paper's contrast.
    Aodv,
}

impl RoutingKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RoutingKind::Dsr => "DSR",
            RoutingKind::Aodv => "AODV",
        }
    }

    /// The scenario-file, CLI and sweep-artifact token (`dsr`, `aodv`);
    /// `str::parse` reads it back.
    pub fn token(self) -> &'static str {
        match self {
            RoutingKind::Dsr => "dsr",
            RoutingKind::Aodv => "aodv",
        }
    }
}

/// The one routing-name parser: a [`token`](RoutingKind::token) in any
/// letter case.
impl std::str::FromStr for RoutingKind {
    type Err = String;

    fn from_str(name: &str) -> Result<RoutingKind, String> {
        [RoutingKind::Dsr, RoutingKind::Aodv]
            .into_iter()
            .find(|r| r.token().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown routing protocol '{name}' (expected dsr, aodv)"))
    }
}

impl std::fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A network-layer packet of either protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetPacket {
    /// A DSR packet.
    Dsr(DsrPacket),
    /// An AODV packet.
    Aodv(AodvPacket),
}

impl NetPacket {
    /// On-air size, octets.
    pub fn wire_bytes(&self) -> usize {
        match self {
            NetPacket::Dsr(p) => p.wire_bytes(),
            NetPacket::Aodv(p) => p.wire_bytes(),
        }
    }

    /// `true` for routing-control packets.
    pub fn is_control(&self) -> bool {
        match self {
            NetPacket::Dsr(p) => p.is_control(),
            NetPacket::Aodv(p) => p.is_control(),
        }
    }

    /// The `(flow, seq)` identity when this is a data packet.
    pub fn data_id(&self) -> Option<(u32, u64)> {
        match self {
            NetPacket::Dsr(DsrPacket::Data(d)) => Some((d.flow, d.seq)),
            NetPacket::Aodv(AodvPacket::Data(d)) => Some((d.flow, d.seq)),
            _ => None,
        }
    }
}

/// Delivery bookkeeping extracted from a protocol-specific data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataInfo {
    /// Flow id.
    pub flow: u32,
    /// Sequence within the flow.
    pub seq: u64,
    /// Generation instant.
    pub generated_at: SimTime,
    /// Hops travelled.
    pub hops: usize,
}

/// A protocol-agnostic routing action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteAction {
    /// Transmit to a neighbor.
    Unicast {
        /// Layer-2 receiver.
        next_hop: NodeId,
        /// The packet.
        packet: NetPacket,
    },
    /// Flood to all neighbors.
    Broadcast {
        /// The packet.
        packet: NetPacket,
    },
    /// This node is the data destination.
    Delivered(DataInfo),
    /// The node gave up on a data packet.
    Dropped(DataInfo),
}

fn from_dsr(a: DsrAction) -> RouteAction {
    match a {
        DsrAction::Unicast { next_hop, packet } => RouteAction::Unicast {
            next_hop,
            packet: NetPacket::Dsr(packet),
        },
        DsrAction::Broadcast { packet } => RouteAction::Broadcast {
            packet: NetPacket::Dsr(packet),
        },
        DsrAction::Delivered { packet } => RouteAction::Delivered(DataInfo {
            flow: packet.flow,
            seq: packet.seq,
            generated_at: packet.generated_at,
            hops: packet.route.hop_count(),
        }),
        DsrAction::Dropped { packet, .. } => RouteAction::Dropped(DataInfo {
            flow: packet.flow,
            seq: packet.seq,
            generated_at: packet.generated_at,
            hops: packet.route.hop_count(),
        }),
    }
}

fn from_aodv(a: AodvAction) -> RouteAction {
    match a {
        AodvAction::Unicast { next_hop, packet } => RouteAction::Unicast {
            next_hop,
            packet: NetPacket::Aodv(packet),
        },
        AodvAction::Broadcast { packet } => RouteAction::Broadcast {
            packet: NetPacket::Aodv(packet),
        },
        // `AodvData::hops` counts relays (each forwarder bumps it), so
        // the links a delivered packet crossed are one more: the same
        // unit DSR's `hop_count()` reports.
        AodvAction::Delivered { packet } => RouteAction::Delivered(DataInfo {
            flow: packet.flow,
            seq: packet.seq,
            generated_at: packet.generated_at,
            hops: packet.hops as usize + 1,
        }),
        AodvAction::Dropped { packet, .. } => RouteAction::Dropped(DataInfo {
            flow: packet.flow,
            seq: packet.seq,
            generated_at: packet.generated_at,
            hops: packet.hops as usize,
        }),
    }
}

/// Caller-owned output of the [`RouterNode`] handlers. Every handler
/// appends its protocol-agnostic actions to
/// [`actions`](Self::actions), which the caller drains; the
/// protocol-level buffers are staging space reused from call to call,
/// so once the capacities settle a handler call allocates nothing.
#[derive(Debug, Default)]
pub struct RouteOut {
    /// The handlers' actions, in emission order.
    pub actions: Vec<RouteAction>,
    dsr: Vec<DsrAction>,
    aodv: Vec<AodvAction>,
}

impl RouteOut {
    /// Moves the staged DSR actions into `actions`.
    fn flush_dsr(&mut self) {
        self.actions.extend(self.dsr.drain(..).map(from_dsr));
    }

    /// Moves the staged AODV actions into `actions`.
    fn flush_aodv(&mut self) {
        self.actions.extend(self.aodv.drain(..).map(from_aodv));
    }
}

/// One node's routing engine, either protocol.
#[derive(Debug, Clone)]
pub enum RouterNode {
    /// A DSR engine.
    Dsr(DsrNode),
    /// An AODV engine.
    Aodv(AodvNode),
}

impl RouterNode {
    /// Creates the engine of the configured kind.
    pub fn new(kind: RoutingKind, id: NodeId, dsr: DsrConfig, aodv: AodvConfig) -> Self {
        match kind {
            RoutingKind::Dsr => RouterNode::Dsr(DsrNode::new(id, dsr)),
            RoutingKind::Aodv => RouterNode::Aodv(AodvNode::new(id, aodv)),
        }
    }

    /// Application send.
    pub fn originate(
        &mut self,
        flow: u32,
        seq: u64,
        dst: NodeId,
        bytes: usize,
        now: SimTime,
        out: &mut RouteOut,
    ) {
        match self {
            RouterNode::Dsr(n) => {
                n.originate(flow, seq, dst, bytes, now, &mut out.dsr);
                out.flush_dsr();
            }
            RouterNode::Aodv(n) => {
                n.originate(flow, seq, dst, bytes, now, &mut out.aodv);
                out.flush_aodv();
            }
        }
    }

    /// Addressed (or broadcast) reception.
    ///
    /// # Panics
    ///
    /// Panics if the packet's protocol does not match the engine's
    /// (a wiring bug in the simulation core).
    pub fn receive(&mut self, packet: NetPacket, from: NodeId, now: SimTime, out: &mut RouteOut) {
        match (self, packet) {
            (RouterNode::Dsr(n), NetPacket::Dsr(p)) => {
                n.receive(p, from, now, &mut out.dsr);
                out.flush_dsr();
            }
            (RouterNode::Aodv(n), NetPacket::Aodv(p)) => {
                n.receive(p, from, now, &mut out.aodv);
                out.flush_aodv();
            }
            _ => panic!("routing protocol mismatch"),
        }
    }

    /// [`receive`](Self::receive) by reference, for broadcast fan-out
    /// where one interned packet reaches many recipients. Semantically
    /// identical to cloning the packet and calling `receive`; the
    /// engines avoid the clone on the paths that travel by broadcast
    /// (route requests, hellos).
    ///
    /// # Panics
    ///
    /// Panics on a protocol mismatch (a wiring bug).
    pub fn receive_ref(
        &mut self,
        packet: &NetPacket,
        from: NodeId,
        now: SimTime,
        out: &mut RouteOut,
    ) {
        match (self, packet) {
            (RouterNode::Dsr(n), NetPacket::Dsr(p)) => {
                n.receive_ref(p, from, now, &mut out.dsr);
                out.flush_dsr();
            }
            (RouterNode::Aodv(n), NetPacket::Aodv(p)) => {
                n.receive_ref(p, from, now, &mut out.aodv);
                out.flush_aodv();
            }
            _ => panic!("routing protocol mismatch"),
        }
    }

    /// Promiscuous overhearing. AODV ignores overheard traffic — the
    /// contrast the paper draws.
    ///
    /// # Panics
    ///
    /// Panics on a protocol mismatch (a wiring bug).
    pub fn overhear(
        &mut self,
        packet: &NetPacket,
        transmitter: NodeId,
        now: SimTime,
        out: &mut RouteOut,
    ) {
        match (self, packet) {
            (RouterNode::Dsr(n), NetPacket::Dsr(p)) => {
                n.overhear(p, transmitter, now, &mut out.dsr);
                out.flush_dsr();
            }
            (RouterNode::Aodv(_), NetPacket::Aodv(_)) => {}
            _ => panic!("routing protocol mismatch"),
        }
    }

    /// MAC-reported link break with the undeliverable packet.
    ///
    /// # Panics
    ///
    /// Panics on a protocol mismatch (a wiring bug).
    pub fn link_failure(
        &mut self,
        next_hop: NodeId,
        packet: NetPacket,
        now: SimTime,
        out: &mut RouteOut,
    ) {
        match (self, packet) {
            (RouterNode::Dsr(n), NetPacket::Dsr(p)) => {
                n.link_failure(next_hop, p, now, &mut out.dsr);
                out.flush_dsr();
            }
            (RouterNode::Aodv(n), NetPacket::Aodv(p)) => {
                n.link_failure(next_hop, p, now, &mut out.aodv);
                out.flush_aodv();
            }
            _ => panic!("routing protocol mismatch"),
        }
    }

    /// Crash recovery: wipes volatile protocol state (route cache or
    /// table, buffers, duplicate suppression, timers), preserving the
    /// cumulative counters. Returns the `(flow, seq)` ids of buffered
    /// data packets lost with the node.
    // det: cold — fault-rejoin lifecycle event: rebuilds node state outside the settled loop
    pub fn reboot(&mut self, now: SimTime) -> Vec<(u32, u64)> {
        match self {
            RouterNode::Dsr(n) => n.reboot(),
            RouterNode::Aodv(n) => n.reboot(now),
        }
    }

    /// Timer tick.
    pub fn tick(&mut self, now: SimTime, out: &mut RouteOut) {
        match self {
            RouterNode::Dsr(n) => {
                n.tick(now, &mut out.dsr);
                out.flush_dsr();
            }
            RouterNode::Aodv(n) => {
                n.tick(now, &mut out.aodv);
                out.flush_aodv();
            }
        }
    }

    /// Visits every cached source route (role-number sampling; DSR
    /// only — AODV's tables hold next hops, not paths).
    pub fn for_each_cached_path(&self, f: impl FnMut(&SourceRoute)) {
        match self {
            RouterNode::Dsr(n) => n.cache().for_each_path(f),
            RouterNode::Aodv(_) => {}
        }
    }

    /// DSR counters, when applicable.
    pub fn dsr_counters(&self) -> Option<DsrCounters> {
        match self {
            RouterNode::Dsr(n) => Some(n.counters()),
            RouterNode::Aodv(_) => None,
        }
    }

    /// AODV counters, when applicable.
    pub fn aodv_counters(&self) -> Option<AodvCounters> {
        match self {
            RouterNode::Dsr(_) => None,
            RouterNode::Aodv(n) => Some(n.counters()),
        }
    }
}

/// The frame metadata the simulation core consults on every hop,
/// denormalized out of the packet so a [`PacketHandle`] answers all
/// accounting questions without an arena lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// The packet class, in the event ledger's vocabulary.
    pub class: PacketClass,
    /// `true` for routing-control packets.
    pub control: bool,
    /// On-air size, octets.
    pub wire_bytes: usize,
    /// The `(flow, seq)` identity when this is a data packet.
    pub data_id: Option<(u32, u64)>,
}

/// A copyable ticket for a packet interned in a [`PacketArena`].
///
/// The MAC layer and channel move handles through queues and
/// deliveries; fanning a broadcast out to N receivers copies 32 bytes
/// per receiver instead of cloning a source route per receiver. The
/// embedded [`PacketHeader`] carries everything the bookkeeping needs;
/// the arena is only consulted to hand the actual packet to a routing
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHandle {
    id: u32,
    /// Cached frame metadata.
    pub header: PacketHeader,
}

impl PacketHandle {
    /// The packet class, in the event ledger's vocabulary.
    pub fn class(&self) -> PacketClass {
        self.header.class
    }

    /// `true` for routing-control packets.
    pub fn is_control(&self) -> bool {
        self.header.control
    }

    /// On-air size, octets.
    pub fn wire_bytes(&self) -> usize {
        self.header.wire_bytes
    }

    /// The `(flow, seq)` identity when this is a data packet.
    pub fn data_id(&self) -> Option<(u32, u64)> {
        self.header.data_id
    }
}

/// A slab of in-flight packets, indexed by [`PacketHandle`].
///
/// Lifetime discipline (see DESIGN.md §10): every interned handle is
/// consumed exactly once — taken by the unicast receiver or a link
/// failure, or released after a broadcast fan-out, an enqueue
/// rejection, or a crash purge. Freed slots are recycled through a free
/// list, so a steady-state simulation reuses a small working set of
/// slots instead of growing.
#[derive(Debug, Clone, Default)]
pub struct PacketArena {
    slots: Vec<Option<NetPacket>>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    fn header_of(packet: &NetPacket) -> PacketHeader {
        let class = match packet {
            NetPacket::Dsr(DsrPacket::Rreq(_)) | NetPacket::Aodv(AodvPacket::Rreq(_)) => {
                PacketClass::Rreq
            }
            NetPacket::Aodv(AodvPacket::Rrep(r)) if r.is_hello() => PacketClass::Hello,
            NetPacket::Dsr(DsrPacket::Rrep(_)) | NetPacket::Aodv(AodvPacket::Rrep(_)) => {
                PacketClass::Rrep
            }
            NetPacket::Dsr(DsrPacket::Rerr(_)) | NetPacket::Aodv(AodvPacket::Rerr(_)) => {
                PacketClass::Rerr
            }
            NetPacket::Dsr(DsrPacket::Data(_)) | NetPacket::Aodv(AodvPacket::Data(_)) => {
                PacketClass::Data
            }
        };
        PacketHeader {
            class,
            control: packet.is_control(),
            wire_bytes: packet.wire_bytes(),
            data_id: packet.data_id(),
        }
    }

    /// Interns a packet, returning its handle.
    pub fn intern(&mut self, packet: NetPacket) -> PacketHandle {
        let header = Self::header_of(&packet);
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(packet);
                id
            }
            None => {
                let id = self.slots.len() as u32;
                self.slots.push(Some(packet));
                id
            }
        };
        self.live += 1;
        PacketHandle { id, header }
    }

    /// Borrows the interned packet.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already taken or released (a lifetime
    /// bug in the simulation core).
    pub fn get(&self, h: PacketHandle) -> &NetPacket {
        self.slots[h.id as usize]
            .as_ref()
            .expect("packet handle used after release")
    }

    /// Removes and returns the interned packet, freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already taken or released.
    pub fn take(&mut self, h: PacketHandle) -> NetPacket {
        let p = self.slots[h.id as usize]
            .take()
            .expect("packet handle used after release");
        self.free.push(h.id);
        self.live -= 1;
        p
    }

    /// Drops the interned packet, freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already taken or released.
    pub fn release(&mut self, h: PacketHandle) {
        let _ = self.take(h);
    }

    /// Number of packets currently interned.
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Runs one handler call into a fresh out-buffer and returns its
    /// actions.
    fn acts(call: impl FnOnce(&mut RouteOut)) -> Vec<RouteAction> {
        let mut out = RouteOut::default();
        call(&mut out);
        out.actions
    }

    #[test]
    fn kind_labels() {
        assert_eq!(RoutingKind::Dsr.to_string(), "DSR");
        assert_eq!(RoutingKind::Aodv.to_string(), "AODV");
        assert_eq!(RoutingKind::default(), RoutingKind::Dsr);
    }

    #[test]
    fn both_engines_flood_on_unknown_destination() {
        for kind in [RoutingKind::Dsr, RoutingKind::Aodv] {
            let mut r = RouterNode::new(kind, n(0), DsrConfig::default(), AodvConfig::default());
            let actions = acts(|o| r.originate(0, 0, n(9), 512, SimTime::ZERO, o));
            let rreq = |a: &RouteAction| {
                matches!(
                    a,
                    RouteAction::Broadcast {
                        packet: NetPacket::Dsr(DsrPacket::Rreq(_))
                            | NetPacket::Aodv(AodvPacket::Rreq(_))
                    }
                )
            };
            assert!(actions.iter().any(rreq), "{kind}: {actions:?}");
        }
    }

    #[test]
    fn aodv_ignores_overheard_traffic() {
        let mut dsr = RouterNode::new(
            RoutingKind::Dsr,
            n(7),
            DsrConfig::default(),
            AodvConfig::default(),
        );
        let route =
            SourceRoute::new(vec![n(0), n(1), n(2)]).expect("valid route");
        let pkt = NetPacket::Dsr(DsrPacket::Data(rcast_dsr::DataPacket {
            flow: 0,
            seq: 0,
            route,
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            salvage_count: 0,
        }));
        // DSR learns silently: no action reports a cached route.
        let _ = acts(|o| dsr.overhear(&pkt, n(1), SimTime::ZERO, o));
        let mut learned = 0;
        dsr.for_each_cached_path(|_| learned += 1);
        assert!(learned > 0, "DSR must learn from overhearing");

        let mut aodv = RouterNode::new(
            RoutingKind::Aodv,
            n(7),
            DsrConfig::default(),
            AodvConfig::default(),
        );
        let apkt = NetPacket::Aodv(AodvPacket::Data(rcast_aodv::AodvData {
            flow: 0,
            seq: 0,
            src: n(0),
            dst: n(2),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            hops: 1,
        }));
        assert!(acts(|o| aodv.overhear(&apkt, n(1), SimTime::ZERO, o)).is_empty());
        let mut paths = 0;
        aodv.for_each_cached_path(|_| paths += 1);
        assert_eq!(paths, 0);
    }

    #[test]
    #[should_panic]
    fn protocol_mismatch_is_a_bug() {
        let mut aodv = RouterNode::new(
            RoutingKind::Aodv,
            n(0),
            DsrConfig::default(),
            AodvConfig::default(),
        );
        let rerr = NetPacket::Dsr(DsrPacket::Rerr(rcast_dsr::Rerr {
            detector: n(1),
            broken_from: n(1),
            broken_to: n(2),
            path: SourceRoute::new(vec![n(1), n(0)]).expect("valid"),
        }));
        let _ = acts(|o| aodv.receive(rerr, n(1), SimTime::ZERO, o));
    }
}
