//! The power-management schemes compared in the paper.

use rcast_dsr::DsrPacket;
use rcast_mac::OverhearingLevel;

use crate::routing::NetPacket;

/// A power-management scheme under evaluation.
///
/// The paper's Table 1 compares the first three; `Psm` and
/// `PsmNoOverhear` are the additional baselines quoted in the abstract
/// (unmodified 802.11 PSM with unconditional overhearing) and in the
/// introduction (the naïve no-overhearing fix that starves DSR's
/// caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// IEEE 802.11 without PSM: every node always awake, packets
    /// transmitted immediately. Best PDR/delay, worst energy.
    Dot11,
    /// Unmodified IEEE 802.11 PSM with unconditional overhearing: every
    /// advertised unicast keeps all neighbors awake.
    Psm,
    /// IEEE 802.11 PSM with overhearing disabled: neighbors sleep
    /// through all data they are not addressed by. Starves DSR's route
    /// caches and inflates RREQ flooding.
    PsmNoOverhear,
    /// On-Demand Power Management (Zheng & Kravets): nodes switch to AM
    /// on communication events with per-event timeouts.
    Odpm,
    /// RandomCast: all nodes in PS mode; overhearing level chosen per
    /// packet type, randomized for RREP/data.
    Rcast,
}

impl Scheme {
    /// All schemes, in the order the paper discusses them.
    pub const ALL: [Scheme; 5] = [
        Scheme::Dot11,
        Scheme::Psm,
        Scheme::PsmNoOverhear,
        Scheme::Odpm,
        Scheme::Rcast,
    ];

    /// The three schemes of the paper's evaluation figures.
    pub const PAPER_FIGURES: [Scheme; 3] = [Scheme::Dot11, Scheme::Odpm, Scheme::Rcast];

    /// The display name used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Dot11 => "802.11",
            Scheme::Psm => "PSM",
            Scheme::PsmNoOverhear => "PSM-none",
            Scheme::Odpm => "ODPM",
            Scheme::Rcast => "Rcast",
        }
    }

    /// The scenario-file and CLI token (`802.11`, `psm`, `psm-none`,
    /// `odpm`, `rcast`); `str::parse` reads it back.
    pub fn token(self) -> &'static str {
        match self {
            Scheme::Dot11 => "802.11",
            Scheme::Psm => "psm",
            Scheme::PsmNoOverhear => "psm-none",
            Scheme::Odpm => "odpm",
            Scheme::Rcast => "rcast",
        }
    }

    /// `true` when nodes use the PSM transmission path (buffered
    /// traffic, ATIM advertisement, beacon-interval delivery).
    pub fn uses_psm_path(self) -> bool {
        !matches!(self, Scheme::Dot11)
    }

    /// The overhearing level this scheme advertises for a unicast DSR
    /// packet — the heart of the paper's Section 3.3:
    ///
    /// * **Rcast**: randomized for RREP and data (exploit route-info
    ///   locality), unconditional for RERR (stale routes must die fast).
    /// * **PSM**: unconditional for everything (the DSR assumption).
    /// * **PSM-none / ODPM / 802.11**: no PSM-level overhearing request;
    ///   AM nodes overhear physically anyway.
    pub fn level_for(self, packet: &DsrPacket) -> OverhearingLevel {
        match self {
            Scheme::Rcast => match packet {
                DsrPacket::Rrep(_) | DsrPacket::Data(_) => OverhearingLevel::Randomized,
                DsrPacket::Rerr(_) => OverhearingLevel::Unconditional,
                DsrPacket::Rreq(_) => OverhearingLevel::Unconditional,
            },
            Scheme::Psm => OverhearingLevel::Unconditional,
            Scheme::PsmNoOverhear | Scheme::Odpm | Scheme::Dot11 => OverhearingLevel::None,
        }
    }

    /// The overhearing level for a protocol-agnostic packet. AODV never
    /// benefits from overhearing (nothing for a bystander in a
    /// distance-vector hop), so only the PSM scheme's unconditional
    /// promiscuity applies there — precisely the energy waste the paper
    /// attributes to pairing PSM with AODV-style protocols.
    pub fn level_for_net(self, packet: &NetPacket) -> OverhearingLevel {
        match packet {
            NetPacket::Dsr(p) => self.level_for(p),
            NetPacket::Aodv(_) => match self {
                Scheme::Psm => OverhearingLevel::Unconditional,
                _ => OverhearingLevel::None,
            },
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The one scheme-name parser (scenario files, CLI flags, sweep specs):
/// a [`token`](Scheme::token) or one of the aliases `80211`, `dot11`,
/// `always-on`, `no-overhear` and `randomcast`, in any letter case.
impl std::str::FromStr for Scheme {
    type Err = String;

    fn from_str(name: &str) -> Result<Scheme, String> {
        const ALIASES: [(&str, Scheme); 5] = [
            ("80211", Scheme::Dot11),
            ("dot11", Scheme::Dot11),
            ("always-on", Scheme::Dot11),
            ("no-overhear", Scheme::PsmNoOverhear),
            ("randomcast", Scheme::Rcast),
        ];
        Scheme::ALL
            .iter()
            .map(|&s| (s.token(), s))
            .chain(ALIASES)
            .find(|(token, _)| token.eq_ignore_ascii_case(name))
            .map(|(_, s)| s)
            .ok_or_else(|| {
                format!("unknown scheme '{name}' (expected 802.11, psm, psm-none, odpm, rcast)")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcast_dsr::{Rerr, Rrep, Rreq, SourceRoute};
    use rcast_engine::NodeId;

    fn route(ids: &[u32]) -> SourceRoute {
        SourceRoute::new(ids.iter().copied().map(NodeId::new).collect()).unwrap()
    }

    fn rrep() -> DsrPacket {
        DsrPacket::Rrep(Rrep {
            route: route(&[0, 1, 2]),
            replier: NodeId::new(2),
            from_cache: false,
        })
    }

    fn rerr() -> DsrPacket {
        DsrPacket::Rerr(Rerr {
            detector: NodeId::new(1),
            broken_from: NodeId::new(1),
            broken_to: NodeId::new(2),
            path: route(&[1, 0]),
        })
    }

    fn rreq() -> DsrPacket {
        DsrPacket::Rreq(Rreq {
            origin: NodeId::new(0),
            target: NodeId::new(2),
            id: 0,
            ttl: 16,
            record: vec![NodeId::new(0)],
        })
    }

    fn data() -> DsrPacket {
        DsrPacket::Data(rcast_dsr::DataPacket {
            flow: 0,
            seq: 0,
            route: route(&[0, 1, 2]),
            payload_bytes: 512,
            generated_at: rcast_engine::SimTime::ZERO,
            salvage_count: 0,
        })
    }

    #[test]
    fn rcast_levels_match_section_3_3() {
        assert_eq!(
            Scheme::Rcast.level_for(&rrep()),
            OverhearingLevel::Randomized
        );
        assert_eq!(
            Scheme::Rcast.level_for(&data()),
            OverhearingLevel::Randomized
        );
        assert_eq!(
            Scheme::Rcast.level_for(&rerr()),
            OverhearingLevel::Unconditional
        );
        assert_eq!(
            Scheme::Rcast.level_for(&rreq()),
            OverhearingLevel::Unconditional
        );
    }

    #[test]
    fn psm_overhears_everything() {
        for p in [rrep(), rerr(), rreq(), data()] {
            assert_eq!(Scheme::Psm.level_for(&p), OverhearingLevel::Unconditional);
        }
    }

    #[test]
    fn non_psm_schemes_request_nothing() {
        for s in [Scheme::Dot11, Scheme::Odpm, Scheme::PsmNoOverhear] {
            assert_eq!(s.level_for(&data()), OverhearingLevel::None, "{s}");
        }
    }

    #[test]
    fn psm_path_usage() {
        assert!(!Scheme::Dot11.uses_psm_path());
        for s in [Scheme::Psm, Scheme::PsmNoOverhear, Scheme::Odpm, Scheme::Rcast] {
            assert!(s.uses_psm_path(), "{s}");
        }
    }

    #[test]
    fn labels_are_paper_labels() {
        assert_eq!(Scheme::Dot11.to_string(), "802.11");
        assert_eq!(Scheme::Odpm.to_string(), "ODPM");
        assert_eq!(Scheme::Rcast.to_string(), "Rcast");
        assert_eq!(Scheme::ALL.len(), 5);
        assert_eq!(Scheme::PAPER_FIGURES.len(), 3);
    }
}
