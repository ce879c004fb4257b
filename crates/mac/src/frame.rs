//! MAC frame types and the Rcast ATIM-subtype extension.

use std::fmt;

use rcast_engine::NodeId;

/// The overhearing level a sender requests for a unicast frame.
///
/// This is the paper's core abstraction (Section 3.1): with PSM, packet
/// advertisement is decoupled from transmission, so neighbors that are
/// not the addressee get a *choice* about staying awake. The sender
/// encodes its wish in the ATIM frame subtype (see [`AtimSubtype`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OverhearingLevel {
    /// Only the addressed receiver stays awake (standard 802.11 PSM).
    #[default]
    None,
    /// Each non-addressed neighbor decides probabilistically
    /// (the RandomCast mechanism).
    Randomized,
    /// Every neighbor that heard the advertisement stays awake
    /// (the DSR assumption in always-on networks).
    Unconditional,
}

/// The 4-bit management-frame subtype carried in the 802.11 frame
/// control field, per the paper's Figure 4 encoding.
///
/// * `1001₂` — standard ATIM (interpreted as *no overhearing*),
/// * `1110₂` — reserved subtype claimed for *randomized* overhearing,
/// * `1111₂` — reserved subtype claimed for *unconditional* overhearing.
///
/// # Example
///
/// ```
/// use rcast_mac::{AtimSubtype, OverhearingLevel};
///
/// let st = AtimSubtype::from_level(OverhearingLevel::Randomized);
/// assert_eq!(st.bits(), 0b1110);
/// assert_eq!(AtimSubtype::from_bits(0b1001).unwrap().level(), OverhearingLevel::None);
/// assert!(AtimSubtype::from_bits(0b0000).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtimSubtype(u8);

impl AtimSubtype {
    /// Standard ATIM subtype bits (no overhearing).
    pub const STANDARD: AtimSubtype = AtimSubtype(0b1001);
    /// Reserved subtype claimed for randomized overhearing.
    pub const RANDOMIZED: AtimSubtype = AtimSubtype(0b1110);
    /// Reserved subtype claimed for unconditional overhearing.
    pub const UNCONDITIONAL: AtimSubtype = AtimSubtype(0b1111);

    /// Encodes an overhearing level as a subtype.
    pub fn from_level(level: OverhearingLevel) -> Self {
        match level {
            OverhearingLevel::None => Self::STANDARD,
            OverhearingLevel::Randomized => Self::RANDOMIZED,
            OverhearingLevel::Unconditional => Self::UNCONDITIONAL,
        }
    }

    /// Decodes subtype bits; `None` for bits that are not an ATIM
    /// subtype in this scheme.
    pub fn from_bits(bits: u8) -> Option<Self> {
        match bits {
            0b1001 | 0b1110 | 0b1111 => Some(AtimSubtype(bits)),
            _ => None,
        }
    }

    /// The raw subtype bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The overhearing level this subtype encodes.
    pub fn level(self) -> OverhearingLevel {
        match self.0 {
            0b1110 => OverhearingLevel::Randomized,
            0b1111 => OverhearingLevel::Unconditional,
            _ => OverhearingLevel::None,
        }
    }
}

impl fmt::Display for AtimSubtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04b}", self.0)
    }
}

/// Where a frame is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// A single addressed receiver (acknowledged).
    Unicast(NodeId),
    /// All neighbors (unacknowledged).
    Broadcast,
}

impl Destination {
    /// The addressed receiver, if unicast.
    pub fn receiver(self) -> Option<NodeId> {
        match self {
            Destination::Unicast(r) => Some(r),
            Destination::Broadcast => None,
        }
    }

    /// `true` for broadcast destinations.
    pub fn is_broadcast(self) -> bool {
        matches!(self, Destination::Broadcast)
    }
}

/// An outgoing layer-2 frame handed to the MAC by the network layer.
///
/// `P` is the opaque upper-layer payload (the simulator passes DSR
/// packets). `bytes` is the on-air payload size used for airtime
/// computation — the MAC adds its own header overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacFrame<P> {
    /// Receiver (or broadcast).
    pub to: Destination,
    /// The overhearing level advertised in the ATIM frame.
    pub level: OverhearingLevel,
    /// Upper-layer payload size in bytes.
    pub bytes: usize,
    /// Opaque upper-layer payload.
    pub payload: P,
}

impl<P> MacFrame<P> {
    /// A unicast frame.
    pub fn unicast(to: NodeId, level: OverhearingLevel, bytes: usize, payload: P) -> Self {
        MacFrame {
            to: Destination::Unicast(to),
            level,
            bytes,
            payload,
        }
    }

    /// A broadcast frame with standard (unconditional) receiving.
    pub fn broadcast(bytes: usize, payload: P) -> Self {
        MacFrame {
            to: Destination::Broadcast,
            level: OverhearingLevel::Unconditional,
            bytes,
            payload,
        }
    }

    /// A broadcast frame with an explicit receiving level —
    /// [`OverhearingLevel::Randomized`] enables the paper's
    /// randomized-rebroadcast extension.
    pub fn broadcast_with_level(level: OverhearingLevel, bytes: usize, payload: P) -> Self {
        MacFrame {
            to: Destination::Broadcast,
            level,
            bytes,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtype_round_trip() {
        for level in [
            OverhearingLevel::None,
            OverhearingLevel::Randomized,
            OverhearingLevel::Unconditional,
        ] {
            let st = AtimSubtype::from_level(level);
            assert_eq!(st.level(), level);
            assert_eq!(AtimSubtype::from_bits(st.bits()), Some(st));
        }
    }

    #[test]
    fn subtype_bits_match_paper_figure4() {
        assert_eq!(AtimSubtype::STANDARD.bits(), 0b1001);
        assert_eq!(AtimSubtype::RANDOMIZED.bits(), 0b1110);
        assert_eq!(AtimSubtype::UNCONDITIONAL.bits(), 0b1111);
        assert_eq!(AtimSubtype::RANDOMIZED.to_string(), "1110");
    }

    #[test]
    fn non_atim_bits_rejected() {
        for bits in 0..16u8 {
            let parsed = AtimSubtype::from_bits(bits);
            if [0b1001, 0b1110, 0b1111].contains(&bits) {
                assert!(parsed.is_some());
            } else {
                assert!(parsed.is_none(), "bits {bits:04b}");
            }
        }
    }

    #[test]
    fn destination_helpers() {
        let u = Destination::Unicast(NodeId::new(3));
        assert_eq!(u.receiver(), Some(NodeId::new(3)));
        assert!(!u.is_broadcast());
        assert_eq!(Destination::Broadcast.receiver(), None);
        assert!(Destination::Broadcast.is_broadcast());
    }

    #[test]
    fn frame_constructors() {
        let f = MacFrame::unicast(NodeId::new(1), OverhearingLevel::Randomized, 512, "pkt");
        assert_eq!(f.to, Destination::Unicast(NodeId::new(1)));
        assert_eq!(f.level, OverhearingLevel::Randomized);
        let b = MacFrame::broadcast(64, "rreq");
        assert!(b.to.is_broadcast());
        assert_eq!(b.level, OverhearingLevel::Unconditional);
    }
}
