//! Source routes: ordered node sequences with hop-lookup helpers.
//!
//! A route's nodes live in a [`NodePath`], which holds up to
//! [`INLINE_IDS`] ids inline, so building, copying, reversing and
//! splicing the routes DSR learns never touches the heap (DESIGN.md §10).

use std::hash::{Hash, Hasher};
use std::ops::Deref;

use rcast_engine::NodeId;

/// Ids a [`NodePath`] stores inline: DSR's default 16-hop TTL plus the
/// origin. Longer paths spill to one boxed slice; no length is capped.
pub const INLINE_IDS: usize = 17;

/// An ordered node sequence (a route, or an RREQ's route record).
///
/// Up to [`INLINE_IDS`] ids live inline, so a copy is a `memcpy`;
/// longer paths spill to the heap. Equality, hashing, `Debug` and
/// [`Deref`] see only the live ids, never stale inline slots.
///
/// # Example
///
/// ```
/// use rcast_engine::NodeId;
/// use rcast_dsr::NodePath;
///
/// let p: NodePath = (0..3).map(NodeId::new).rev().collect();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p[0], NodeId::new(2));
/// ```
#[derive(Clone)]
pub struct NodePath(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [NodeId; INLINE_IDS],
    },
    /// Always longer than [`INLINE_IDS`].
    Spilled(Box<[NodeId]>),
}

impl NodePath {
    /// A copy of `nodes`.
    pub fn from_slice(nodes: &[NodeId]) -> Self {
        nodes.iter().copied().collect()
    }

    /// The live ids.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled(ids) => ids,
        }
    }
}

impl Deref for NodePath {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl PartialEq for NodePath {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodePath {}

impl Hash for NodePath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for NodePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Fills the inline slots element by element (no `memcpy` call for
/// the short paths that dominate) and spills only what does not fit.
impl FromIterator<NodeId> for NodePath {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut ids = [NodeId::new(0); INLINE_IDS];
        for (len, slot) in ids.iter_mut().enumerate() {
            match iter.next() {
                Some(id) => *slot = id,
                None => {
                    return NodePath(Repr::Inline {
                        len: len as u8,
                        ids,
                    })
                }
            }
        }
        match iter.next() {
            None => NodePath(Repr::Inline {
                len: INLINE_IDS as u8,
                ids,
            }),
            Some(id) => {
                // Sized from the hint, so an exact-size source (a slice,
                // its reverse, a chain of them) allocates exactly once.
                let mut spilled = Vec::with_capacity(INLINE_IDS + 1 + iter.size_hint().0);
                spilled.extend_from_slice(&ids);
                spilled.push(id);
                spilled.extend(iter);
                NodePath(Repr::Spilled(spilled.into_boxed_slice()))
            }
        }
    }
}

/// A loop-free source route: the full node sequence from origin to
/// destination, inclusive.
///
/// # Example
///
/// ```
/// use rcast_engine::NodeId;
/// use rcast_dsr::SourceRoute;
///
/// let r = SourceRoute::new(vec![0, 1, 2, 3].into_iter().map(NodeId::new).collect()).unwrap();
/// assert_eq!(r.next_hop_after(NodeId::new(1)), Some(NodeId::new(2)));
/// assert_eq!(r.prev_hop_before(NodeId::new(1)), Some(NodeId::new(0)));
/// assert_eq!(r.hop_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceRoute {
    nodes: NodePath,
}

impl SourceRoute {
    /// Builds a route from a node sequence.
    ///
    /// Returns `None` when the sequence is shorter than two nodes or
    /// contains a repeated node (routes must be loop-free).
    pub fn new(nodes: Vec<NodeId>) -> Option<Self> {
        Self::from_slice(&nodes)
    }

    /// [`new`](Self::new) on a borrowed slice, copied into the route.
    pub fn from_slice(nodes: &[NodeId]) -> Option<Self> {
        Self::from_path(NodePath::from_slice(nodes))
    }

    /// [`new`](Self::new) on an owned [`NodePath`].
    pub fn from_path(nodes: NodePath) -> Option<Self> {
        Self::is_valid_path(&nodes).then_some(SourceRoute { nodes })
    }

    /// [`from_path`](Self::from_path) for a sequence the caller has
    /// already proven valid, so the O(n²) loop check runs once per path
    /// instead of once per layer it passes through.
    pub(crate) fn from_valid_path(nodes: NodePath) -> Self {
        debug_assert!(Self::is_valid_path(&nodes), "invalid route {nodes:?}");
        SourceRoute { nodes }
    }

    /// `true` when `nodes` would form a valid route (≥ 2 nodes,
    /// loop-free) — [`new`](Self::new)'s precondition.
    pub fn is_valid_path(nodes: &[NodeId]) -> bool {
        if nodes.len() < 2 {
            return false;
        }
        for (i, a) in nodes.iter().enumerate() {
            if nodes[i + 1..].contains(a) {
                return false;
            }
        }
        true
    }

    /// The origin (first node).
    pub fn origin(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination (last node).
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("routes have >= 2 nodes")
    }

    /// The full node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of hops (links), i.e. `len − 1`.
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Position of `node` on the route.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// `true` when `node` lies on the route.
    pub fn contains(&self, node: NodeId) -> bool {
        self.position_of(node).is_some()
    }

    /// The hop following `node` (toward the destination).
    pub fn next_hop_after(&self, node: NodeId) -> Option<NodeId> {
        let i = self.position_of(node)?;
        self.nodes.get(i + 1).copied()
    }

    /// The hop preceding `node` (toward the origin).
    pub fn prev_hop_before(&self, node: NodeId) -> Option<NodeId> {
        let i = self.position_of(node)?;
        if i == 0 {
            None
        } else {
            Some(self.nodes[i - 1])
        }
    }

    /// The intermediate (relay) nodes: everything but the endpoints.
    pub fn intermediates(&self) -> &[NodeId] {
        &self.nodes[1..self.nodes.len() - 1]
    }

    /// The reversed route (valid under DSR's bidirectional-link
    /// assumption).
    pub fn reversed(&self) -> SourceRoute {
        SourceRoute {
            nodes: self.nodes.iter().rev().copied().collect(),
        }
    }

    /// The sub-route from `node` to the destination, if `node` is on the
    /// route and not the destination itself.
    pub fn suffix_from(&self, node: NodeId) -> Option<SourceRoute> {
        let i = self.position_of(node)?;
        (i + 1 < self.nodes.len()).then(|| SourceRoute {
            nodes: NodePath::from_slice(&self.nodes[i..]),
        })
    }

    /// The sub-route from the origin to `node`, if `node` is on the
    /// route and not the origin itself.
    pub fn prefix_to(&self, node: NodeId) -> Option<SourceRoute> {
        let i = self.position_of(node)?;
        (i > 0).then(|| SourceRoute {
            nodes: NodePath::from_slice(&self.nodes[..=i]),
        })
    }

    /// `true` when the route uses the directed link `a → b` or `b → a`.
    pub fn uses_link(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
    }

    /// Concatenates `self` with `tail`, which must start where `self`
    /// ends. Returns `None` when the splice would introduce a loop.
    pub fn spliced_with(&self, tail: &SourceRoute) -> Option<SourceRoute> {
        if self.destination() != tail.origin() {
            return None;
        }
        let nodes = self
            .nodes()
            .iter()
            .chain(&tail.nodes()[1..])
            .copied()
            .collect();
        SourceRoute::from_path(nodes)
    }
}

impl std::fmt::Display for SourceRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for n in self.nodes.iter() {
            if !first {
                write!(f, "→")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u32]) -> SourceRoute {
        SourceRoute::new(ids.iter().copied().map(NodeId::new).collect()).unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(SourceRoute::new(vec![]).is_none());
        assert!(SourceRoute::new(vec![NodeId::new(1)]).is_none());
        assert!(SourceRoute::new(vec![NodeId::new(1), NodeId::new(1)]).is_none());
        assert!(SourceRoute::new(vec![
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(1)
        ])
        .is_none());
        assert!(SourceRoute::new(vec![NodeId::new(1), NodeId::new(2)]).is_some());
    }

    #[test]
    fn endpoints_and_hops() {
        let r = route(&[5, 6, 7, 8]);
        assert_eq!(r.origin(), NodeId::new(5));
        assert_eq!(r.destination(), NodeId::new(8));
        assert_eq!(r.hop_count(), 3);
        assert_eq!(r.intermediates(), &[NodeId::new(6), NodeId::new(7)]);
    }

    #[test]
    fn hop_lookup() {
        let r = route(&[0, 1, 2]);
        assert_eq!(r.next_hop_after(NodeId::new(0)), Some(NodeId::new(1)));
        assert_eq!(r.next_hop_after(NodeId::new(2)), None);
        assert_eq!(r.prev_hop_before(NodeId::new(0)), None);
        assert_eq!(r.prev_hop_before(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(r.next_hop_after(NodeId::new(9)), None);
    }

    #[test]
    fn reverse_and_subroutes() {
        let r = route(&[0, 1, 2, 3]);
        assert_eq!(r.reversed(), route(&[3, 2, 1, 0]));
        assert_eq!(r.suffix_from(NodeId::new(1)), Some(route(&[1, 2, 3])));
        assert_eq!(r.suffix_from(NodeId::new(3)), None, "dest has no suffix");
        assert_eq!(r.prefix_to(NodeId::new(2)), Some(route(&[0, 1, 2])));
        assert_eq!(r.prefix_to(NodeId::new(0)), None, "origin has no prefix");
    }

    #[test]
    fn link_usage() {
        let r = route(&[0, 1, 2]);
        assert!(r.uses_link(NodeId::new(0), NodeId::new(1)));
        assert!(r.uses_link(NodeId::new(1), NodeId::new(0)), "undirected");
        assert!(!r.uses_link(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn splice() {
        let a = route(&[0, 1, 2]);
        let b = route(&[2, 3]);
        assert_eq!(a.spliced_with(&b), Some(route(&[0, 1, 2, 3])));
        // Mismatched junction.
        assert_eq!(a.spliced_with(&route(&[5, 6])), None);
        // Splice that would loop.
        let looped = route(&[2, 1]);
        assert_eq!(a.spliced_with(&looped), None);
    }

    #[test]
    fn display() {
        assert_eq!(route(&[0, 1, 2]).to_string(), "n0→n1→n2");
    }

    /// FNV-1a: a fixed-key hasher, so equal inputs hash equal in any
    /// process.
    struct Fnv(u64);

    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn eq_and_hash_see_only_live_ids() {
        let live = [NodeId::new(0), NodeId::new(1)];
        let fresh = NodePath::from_slice(&live);
        // The same two live ids with different contents in the slots
        // behind them.
        let mut ids = [NodeId::new(9); INLINE_IDS];
        ids[..2].copy_from_slice(&live);
        let stale = NodePath(Repr::Inline { len: 2, ids });
        assert_eq!(stale, fresh);
        assert_eq!(hash_of(&stale), hash_of(&fresh));
        assert_eq!(format!("{stale:?}"), format!("{fresh:?}"));
        assert_ne!(stale, NodePath::from_slice(&live[..1]), "length counts");
        // Routes inherit it, and hash like the node slice they hold.
        let r = SourceRoute::from_path(stale).unwrap();
        assert_eq!(r, route(&[0, 1]));
        assert_eq!(hash_of(&r.nodes), hash_of(&live[..]));
    }

    #[test]
    fn routes_stay_small_enough_to_cache_inline() {
        // A cache entry holds one route inline; growing it would grow
        // every node's cache (and peak RSS) with it.
        assert!(std::mem::size_of::<SourceRoute>() <= 72);
        assert_eq!(
            std::mem::size_of::<NodePath>(),
            std::mem::size_of::<SourceRoute>()
        );
    }

    #[test]
    fn paths_spill_only_past_the_inline_limit() {
        let ids: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        for n in [0, 1, INLINE_IDS - 1, INLINE_IDS, INLINE_IDS + 1, 40] {
            let sliced = NodePath::from_slice(&ids[..n]);
            let reversed: NodePath = ids[..n].iter().rev().copied().collect();
            assert_eq!(sliced.as_slice(), &ids[..n]);
            assert!(reversed.iter().eq(ids[..n].iter().rev()));
            for p in [&sliced, &reversed] {
                assert_eq!(matches!(p.0, Repr::Spilled(_)), n > INLINE_IDS, "len {n}");
            }
        }
    }
}
