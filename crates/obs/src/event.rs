//! The structured event model: one [`Event`] per protocol decision,
//! totally ordered by `(SimTime, NodeId, seq)`.

use rcast_engine::{NodeId, SimTime};
use rcast_radio::PowerState;

/// Routing-packet class. It lives here, below the routing crates, so
/// the ledger does not depend on them; the simulation core's packet
/// handles carry it in their cached header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketClass {
    /// Route request.
    Rreq,
    /// Route reply.
    Rrep,
    /// Route error.
    Rerr,
    /// Data payload.
    Data,
    /// AODV hello beacon.
    Hello,
}

impl PacketClass {
    /// Stable lowercase label used by `rcast-trace/v1`.
    pub const fn label(self) -> &'static str {
        match self {
            PacketClass::Rreq => "rreq",
            PacketClass::Rrep => "rrep",
            PacketClass::Rerr => "rerr",
            PacketClass::Data => "data",
            PacketClass::Hello => "hello",
        }
    }
}

/// What happened. Each variant carries only `Copy` payload so events
/// can live in pre-sized buffers without per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A unicast ATIM advertisement was acknowledged.
    AtimUnicast {
        /// The addressed receiver.
        to: NodeId,
    },
    /// A broadcast ATIM advertisement was sent.
    AtimBroadcast,
    /// A unicast ATIM drew no acknowledgment (receiver out of range).
    AtimNoAck {
        /// The silent receiver.
        to: NodeId,
    },
    /// An advertisement was deferred for lack of ATIM-window airtime.
    AtimDeferred,
    /// The MAC declared the link to `to` broken after repeated silent
    /// ATIMs.
    LinkBroken {
        /// The unreachable next hop.
        to: NodeId,
    },
    /// A randomized overhearer elected to stay awake for `sender`'s
    /// announced transfer (the Rcast decision itself).
    OverhearCommit {
        /// The announcing sender.
        sender: NodeId,
    },
    /// The node actually overheard a frame on the air.
    Overheard {
        /// The transmitting node.
        sender: NodeId,
    },
    /// The sender's data-window airtime reservation was granted.
    Airtime {
        /// Reserved airtime, nanoseconds.
        nanos: u64,
    },
    /// A unicast data frame was destroyed by injected channel loss.
    DataLost {
        /// The intended receiver.
        to: NodeId,
    },
    /// An announced transfer did not fit the data window.
    DataDeferred,
    /// Energy-accounting span: the node spent `nanos` in `state` during
    /// the interval that starts at the event time. Summing spans per
    /// `(node, state)` reproduces the report's meters bit-exactly.
    Span {
        /// The power state charged.
        state: PowerState,
        /// Span length, nanoseconds.
        nanos: u64,
    },
    /// A routing-control transmission completed on the air.
    ControlTx {
        /// RREQ / RREP / RERR / HELLO.
        class: PacketClass,
    },
    /// A data packet entered the network at its source.
    Originated {
        /// Flow id.
        flow: u32,
        /// Packet sequence number within the flow.
        seq: u64,
        /// Final destination.
        dst: NodeId,
    },
    /// A data packet advanced one on-air hop.
    Forwarded {
        /// Flow id.
        flow: u32,
        /// Packet sequence number within the flow.
        seq: u64,
        /// The next hop it reached.
        to: NodeId,
    },
    /// A data packet reached its destination.
    PacketDelivered {
        /// Flow id.
        flow: u32,
        /// Packet sequence number within the flow.
        seq: u64,
    },
    /// A data packet was dropped (routing gave up, a queue overflowed,
    /// or a fault destroyed it).
    PacketDropped {
        /// Flow id.
        flow: u32,
        /// Packet sequence number within the flow.
        seq: u64,
    },
    /// The node crashed (fault injection).
    Crash,
    /// The node rejoined after a crash.
    Rejoin,
    /// The node's battery depleted.
    BatteryDead,
    /// Link blackouts activated this interval (network-scoped; recorded
    /// against the pseudo-node one past the last real node).
    Blackouts {
        /// Newly activated blackout count.
        newly: u32,
    },
    /// Corruption bursts activated this interval (network-scoped).
    Bursts {
        /// Newly activated burst count.
        newly: u32,
    },
}

/// Every [`EventKind::name`] label, in declaration order: the kinds a
/// `--filter kind=` selector may name (besides `interval`, the
/// per-interval series rows).
pub const KIND_NAMES: [&str; 21] = [
    "atim_unicast",
    "atim_broadcast",
    "atim_no_ack",
    "atim_deferred",
    "link_broken",
    "overhear_commit",
    "overheard",
    "airtime",
    "data_lost",
    "data_deferred",
    "span",
    "control_tx",
    "originated",
    "forwarded",
    "packet_delivered",
    "packet_dropped",
    "crash",
    "rejoin",
    "battery_dead",
    "blackouts",
    "bursts",
];

impl EventKind {
    /// Stable lowercase label used by `rcast-trace/v1` and the
    /// `--filter kind=` selector; one of [`KIND_NAMES`].
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::AtimUnicast { .. } => "atim_unicast",
            EventKind::AtimBroadcast => "atim_broadcast",
            EventKind::AtimNoAck { .. } => "atim_no_ack",
            EventKind::AtimDeferred => "atim_deferred",
            EventKind::LinkBroken { .. } => "link_broken",
            EventKind::OverhearCommit { .. } => "overhear_commit",
            EventKind::Overheard { .. } => "overheard",
            EventKind::Airtime { .. } => "airtime",
            EventKind::DataLost { .. } => "data_lost",
            EventKind::DataDeferred => "data_deferred",
            EventKind::Span { .. } => "span",
            EventKind::ControlTx { .. } => "control_tx",
            EventKind::Originated { .. } => "originated",
            EventKind::Forwarded { .. } => "forwarded",
            EventKind::PacketDelivered { .. } => "packet_delivered",
            EventKind::PacketDropped { .. } => "packet_dropped",
            EventKind::Crash => "crash",
            EventKind::Rejoin => "rejoin",
            EventKind::BatteryDead => "battery_dead",
            EventKind::Blackouts { .. } => "blackouts",
            EventKind::Bursts { .. } => "bursts",
        }
    }

    /// The `(flow, seq)` data packet this event belongs to. `Some`
    /// exactly for the packet-lifecycle events (originated, forwarded,
    /// delivered, dropped).
    pub const fn packet(self) -> Option<(u32, u64)> {
        match self {
            EventKind::Originated { flow, seq, .. }
            | EventKind::Forwarded { flow, seq, .. }
            | EventKind::PacketDelivered { flow, seq }
            | EventKind::PacketDropped { flow, seq } => Some((flow, seq)),
            _ => None,
        }
    }

    /// The flow id this event belongs to, for `--filter flow=`.
    pub const fn flow(self) -> Option<u32> {
        match self.packet() {
            Some((flow, _)) => Some(flow),
            None => None,
        }
    }
}

/// One ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When it happened.
    pub at: SimTime,
    /// The node it happened at (or the network pseudo-node for
    /// network-scoped fault markers).
    pub node: NodeId,
    /// Global sequence number, assigned in record order. Unique per
    /// run, so `(at, node, seq)` is a *strict* total order.
    pub seq: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The total-ordering key: `(at, node, seq)`.
    pub fn key(&self) -> (SimTime, u32, u32) {
        (self.at, self.node.as_u32(), self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::AtimBroadcast.name(), "atim_broadcast");
        assert_eq!(
            EventKind::Span {
                state: PowerState::Sleep,
                nanos: 1
            }
            .name(),
            "span"
        );
        assert_eq!(PacketClass::Rerr.label(), "rerr");
    }

    #[test]
    fn kind_names_hold_every_label_once() {
        // Exhaustive on purpose: a new variant does not compile here
        // until it is given its slot in `KIND_NAMES` and a sample below.
        let slot = |k: EventKind| match k {
            EventKind::AtimUnicast { .. } => 0,
            EventKind::AtimBroadcast => 1,
            EventKind::AtimNoAck { .. } => 2,
            EventKind::AtimDeferred => 3,
            EventKind::LinkBroken { .. } => 4,
            EventKind::OverhearCommit { .. } => 5,
            EventKind::Overheard { .. } => 6,
            EventKind::Airtime { .. } => 7,
            EventKind::DataLost { .. } => 8,
            EventKind::DataDeferred => 9,
            EventKind::Span { .. } => 10,
            EventKind::ControlTx { .. } => 11,
            EventKind::Originated { .. } => 12,
            EventKind::Forwarded { .. } => 13,
            EventKind::PacketDelivered { .. } => 14,
            EventKind::PacketDropped { .. } => 15,
            EventKind::Crash => 16,
            EventKind::Rejoin => 17,
            EventKind::BatteryDead => 18,
            EventKind::Blackouts { .. } => 19,
            EventKind::Bursts { .. } => 20,
        };
        let n = NodeId::new(1);
        let samples = [
            EventKind::AtimUnicast { to: n },
            EventKind::AtimBroadcast,
            EventKind::AtimNoAck { to: n },
            EventKind::AtimDeferred,
            EventKind::LinkBroken { to: n },
            EventKind::OverhearCommit { sender: n },
            EventKind::Overheard { sender: n },
            EventKind::Airtime { nanos: 1 },
            EventKind::DataLost { to: n },
            EventKind::DataDeferred,
            EventKind::Span {
                state: PowerState::Awake,
                nanos: 1,
            },
            EventKind::ControlTx {
                class: PacketClass::Rreq,
            },
            EventKind::Originated {
                flow: 0,
                seq: 0,
                dst: n,
            },
            EventKind::Forwarded {
                flow: 0,
                seq: 0,
                to: n,
            },
            EventKind::PacketDelivered { flow: 0, seq: 0 },
            EventKind::PacketDropped { flow: 0, seq: 0 },
            EventKind::Crash,
            EventKind::Rejoin,
            EventKind::BatteryDead,
            EventKind::Blackouts { newly: 1 },
            EventKind::Bursts { newly: 1 },
        ];
        let slots: Vec<usize> = samples.iter().map(|&k| slot(k)).collect();
        assert_eq!(slots, (0..KIND_NAMES.len()).collect::<Vec<_>>());
        for k in samples {
            assert_eq!(KIND_NAMES[slot(k)], k.name());
        }
    }

    #[test]
    fn flow_is_exposed_only_by_packet_lifecycle_events() {
        assert_eq!(
            EventKind::Originated {
                flow: 3,
                seq: 9,
                dst: NodeId::new(1)
            }
            .flow(),
            Some(3)
        );
        assert_eq!(EventKind::Crash.flow(), None);
        assert_eq!(
            EventKind::Airtime { nanos: 5 }.flow(),
            None,
            "MAC events carry no flow id"
        );
    }

    #[test]
    fn key_orders_by_time_then_node_then_seq() {
        let a = Event {
            at: SimTime::from_millis(1),
            node: NodeId::new(9),
            seq: 0,
            kind: EventKind::Crash,
        };
        let b = Event {
            at: SimTime::from_millis(2),
            node: NodeId::new(0),
            seq: 1,
            kind: EventKind::Rejoin,
        };
        assert!(a.key() < b.key());
    }
}
