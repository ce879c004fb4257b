//! DSR packet formats.
//!
//! Four packet types, as in the protocol (and the paper's Section 2.1):
//! broadcast route requests ([`Rreq`]), unicast route replies
//! ([`Rrep`]), unicast route errors ([`Rerr`]), and source-routed data
//! ([`DataPacket`]). Wire sizes follow the DSR option encodings over
//! IPv4 (4-byte addresses) so MAC airtime is realistic.

use rcast_engine::{NodeId, SimTime};

use crate::route::{NodePath, SourceRoute};

/// IPv4 header length, octets.
const IP_HEADER: usize = 20;
/// DSR fixed option-header overhead, octets.
const DSR_FIXED: usize = 8;
/// Per-address overhead in DSR options, octets.
const PER_ADDR: usize = 4;

/// A route request, flooded by broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rreq {
    /// The node performing route discovery.
    pub origin: NodeId,
    /// The node being sought.
    pub target: NodeId,
    /// Discovery identifier, unique per origin.
    pub id: u32,
    /// Remaining hops the request may propagate (the expanding-ring
    /// search sends a non-propagating request with `ttl = 1` first).
    pub ttl: u8,
    /// The accumulated route record: origin through the latest forwarder.
    pub record: NodePath,
}

impl Rreq {
    /// On-air size, octets.
    pub fn wire_bytes(&self) -> usize {
        IP_HEADER + DSR_FIXED + PER_ADDR * self.record.len()
    }
}

/// A route reply, unicast back toward the request origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rrep {
    /// The complete discovered route, origin → target.
    pub route: SourceRoute,
    /// The node that generated this reply (the target, or a caching
    /// intermediate).
    pub replier: NodeId,
    /// `true` when an intermediate node answered from its route cache.
    pub from_cache: bool,
}

impl Rrep {
    /// On-air size, octets.
    pub fn wire_bytes(&self) -> usize {
        IP_HEADER + DSR_FIXED + PER_ADDR * self.route.nodes().len()
    }

    /// The discovery origin this reply answers.
    pub fn origin(&self) -> NodeId {
        self.route.origin()
    }

    /// The discovered destination.
    pub fn target(&self) -> NodeId {
        self.route.destination()
    }
}

/// A route error, unicast toward the source whose packet hit the break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rerr {
    /// The node that detected the broken link.
    pub detector: NodeId,
    /// The broken link, from the detector's side.
    pub broken_from: NodeId,
    /// The unreachable next hop.
    pub broken_to: NodeId,
    /// The path the error travels, detector → source.
    pub path: SourceRoute,
}

impl Rerr {
    /// On-air size, octets.
    pub fn wire_bytes(&self) -> usize {
        IP_HEADER + DSR_FIXED + 4 + PER_ADDR * self.path.nodes().len()
    }

    /// The node this error is heading to (the data source).
    pub fn destination(&self) -> NodeId {
        self.path.destination()
    }
}

/// A source-routed data packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Flow identifier (from the traffic layer).
    pub flow: u32,
    /// Sequence number within the flow.
    pub seq: u64,
    /// The full source route currently in the header, src → dst.
    pub route: SourceRoute,
    /// Application payload size, octets.
    pub payload_bytes: usize,
    /// When the application generated the packet (delay metric).
    pub generated_at: SimTime,
    /// How many times intermediate nodes have salvaged the packet.
    pub salvage_count: u8,
}

impl DataPacket {
    /// On-air size, octets (payload plus IP + DSR source-route header).
    pub fn wire_bytes(&self) -> usize {
        self.payload_bytes + IP_HEADER + PER_ADDR * self.route.nodes().len()
    }

    /// The originating application source.
    pub fn src(&self) -> NodeId {
        self.route.origin()
    }

    /// The application destination.
    pub fn dst(&self) -> NodeId {
        self.route.destination()
    }
}

/// Any DSR packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsrPacket {
    /// Broadcast route request.
    Rreq(Rreq),
    /// Unicast route reply.
    Rrep(Rrep),
    /// Unicast route error.
    Rerr(Rerr),
    /// Unicast source-routed data.
    Data(DataPacket),
}

impl DsrPacket {
    /// On-air size, octets.
    pub fn wire_bytes(&self) -> usize {
        match self {
            DsrPacket::Rreq(p) => p.wire_bytes(),
            DsrPacket::Rrep(p) => p.wire_bytes(),
            DsrPacket::Rerr(p) => p.wire_bytes(),
            DsrPacket::Data(p) => p.wire_bytes(),
        }
    }

    /// `true` for routing-control packets (RREQ/RREP/RERR) — the
    /// numerator of the paper's normalized-routing-overhead metric.
    pub fn is_control(&self) -> bool {
        !matches!(self, DsrPacket::Data(_))
    }

    /// A short kind tag for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            DsrPacket::Rreq(_) => "RREQ",
            DsrPacket::Rrep(_) => "RREP",
            DsrPacket::Rerr(_) => "RERR",
            DsrPacket::Data(_) => "DATA",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u32]) -> SourceRoute {
        SourceRoute::new(ids.iter().copied().map(NodeId::new).collect()).unwrap()
    }

    #[test]
    fn wire_sizes_grow_with_route_length() {
        let short = DataPacket {
            flow: 0,
            seq: 0,
            route: route(&[0, 1]),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            salvage_count: 0,
        };
        let long = DataPacket {
            route: route(&[0, 1, 2, 3, 4]),
            ..short.clone()
        };
        assert!(long.wire_bytes() > short.wire_bytes());
        assert_eq!(long.wire_bytes() - short.wire_bytes(), 3 * 4);
        assert_eq!(short.wire_bytes(), 512 + 20 + 8);
    }

    #[test]
    fn control_vs_data() {
        let rreq = DsrPacket::Rreq(Rreq {
            origin: NodeId::new(0),
            target: NodeId::new(5),
            id: 1,
            ttl: 16,
            record: NodePath::from_slice(&[NodeId::new(0)]),
        });
        assert!(rreq.is_control());
        assert_eq!(rreq.kind(), "RREQ");
        let data = DsrPacket::Data(DataPacket {
            flow: 0,
            seq: 0,
            route: route(&[0, 1]),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            salvage_count: 0,
        });
        assert!(!data.is_control());
        assert_eq!(data.kind(), "DATA");
    }

    #[test]
    fn rrep_endpoints() {
        let r = Rrep {
            route: route(&[3, 4, 5]),
            replier: NodeId::new(5),
            from_cache: false,
        };
        assert_eq!(r.origin(), NodeId::new(3));
        assert_eq!(r.target(), NodeId::new(5));
        assert_eq!(r.wire_bytes(), 20 + 8 + 12);
    }

    #[test]
    fn rerr_destination() {
        let e = Rerr {
            detector: NodeId::new(2),
            broken_from: NodeId::new(2),
            broken_to: NodeId::new(3),
            path: route(&[2, 1, 0]),
        };
        assert_eq!(e.destination(), NodeId::new(0));
        assert!(DsrPacket::Rerr(e).is_control());
    }

    #[test]
    fn rreq_size_counts_record() {
        let r = Rreq {
            origin: NodeId::new(0),
            target: NodeId::new(9),
            id: 7,
            ttl: 1,
            record: NodePath::from_slice(&[NodeId::new(0), NodeId::new(1), NodeId::new(2)]),
        };
        assert_eq!(r.wire_bytes(), 20 + 8 + 12);
    }
}
