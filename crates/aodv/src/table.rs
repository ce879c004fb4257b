//! The AODV routing table: sequence-numbered, soft-state, hop-by-hop.

use std::collections::BTreeMap;

use rcast_engine::{NodeId, SimDuration, SimTime};

/// One routing-table entry (RFC 3561 §2, trimmed to the simulated
/// feature set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Next hop toward the destination.
    pub next_hop: NodeId,
    /// Hop count to the destination.
    pub hops: u32,
    /// Destination sequence number (freshness).
    pub dst_seq: u32,
    /// Soft-state expiry; the entry is invalid after this instant.
    pub expires: SimTime,
    /// Upstream neighbors using this route (RERR recipients on break).
    pub precursors: Vec<NodeId>,
}

/// A per-node AODV routing table.
///
/// # Example
///
/// ```
/// use rcast_aodv::RoutingTable;
/// use rcast_engine::{NodeId, SimDuration, SimTime};
///
/// let mut t = RoutingTable::new(SimDuration::from_secs(3));
/// t.update(NodeId::new(9), NodeId::new(1), 2, 5, SimTime::ZERO);
/// assert!(t.next_hop(NodeId::new(9), SimTime::from_secs(1)).is_some());
/// assert!(t.next_hop(NodeId::new(9), SimTime::from_secs(4)).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    lifetime: SimDuration,
    // Ordered map: `invalidate_via` iterates this, and the RERR batch
    // it builds must not depend on hasher state (rcast-lint D002).
    routes: BTreeMap<NodeId, Route>,
}

impl RoutingTable {
    /// An empty table whose entries live `lifetime` after each use
    /// (ACTIVE_ROUTE_TIMEOUT, RFC default 3 s).
    pub fn new(lifetime: SimDuration) -> Self {
        RoutingTable {
            lifetime,
            routes: BTreeMap::new(),
        }
    }

    /// Number of (possibly expired) entries.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Inserts or refreshes the route to `dst`, following RFC 3561's
    /// update rule: accept when the incoming sequence number is newer,
    /// or equal with a shorter hop count, or the existing entry expired.
    /// Returns `true` when the table changed.
    // det: hot-ok — precursor lists grow on route-learning events only
    pub fn update(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hops: u32,
        dst_seq: u32,
        now: SimTime,
    ) -> bool {
        let expires = now + self.lifetime;
        match self.routes.get_mut(&dst) {
            Some(existing) => {
                let stale = existing.expires <= now;
                let newer = dst_seq > existing.dst_seq;
                let better = dst_seq == existing.dst_seq && hops < existing.hops;
                if stale || newer || better {
                    let precursors = std::mem::take(&mut existing.precursors);
                    *existing = Route {
                        next_hop,
                        hops,
                        dst_seq,
                        expires,
                        precursors,
                    };
                    true
                } else {
                    // Same or older information: just refresh liveness
                    // when it confirms the current route.
                    if existing.next_hop == next_hop && existing.expires < expires {
                        existing.expires = expires;
                    }
                    false
                }
            }
            None => {
                self.routes.insert(
                    dst,
                    Route {
                        next_hop,
                        hops,
                        dst_seq,
                        expires,
                        precursors: Vec::new(),
                    },
                );
                true
            }
        }
    }

    /// The valid (unexpired) route to `dst`, refreshing its lifetime —
    /// using a route keeps it alive (RFC 3561 §6.2).
    pub fn route_for(&mut self, dst: NodeId, now: SimTime) -> Option<&Route> {
        let lifetime = self.lifetime;
        match self.routes.get_mut(&dst) {
            Some(r) if r.expires > now => {
                r.expires = now + lifetime;
                Some(&*r)
            }
            _ => None,
        }
    }

    /// The next hop toward `dst`, if a valid route exists (refreshes).
    pub fn next_hop(&mut self, dst: NodeId, now: SimTime) -> Option<NodeId> {
        self.route_for(dst, now).map(|r| r.next_hop)
    }

    /// Looks at the route without refreshing (metrics/tests).
    pub fn peek(&self, dst: NodeId) -> Option<&Route> {
        self.routes.get(&dst)
    }

    /// The freshest sequence number known for `dst` (valid or not).
    pub fn known_seq(&self, dst: NodeId) -> Option<u32> {
        self.routes.get(&dst).map(|r| r.dst_seq)
    }

    /// Registers `precursor` as using the route to `dst`.
    pub fn add_precursor(&mut self, dst: NodeId, precursor: NodeId) {
        if let Some(r) = self.routes.get_mut(&dst) {
            if !r.precursors.contains(&precursor) {
                r.precursors.push(precursor);
            }
        }
    }

    /// Invalidates every route whose next hop is `neighbor` (link
    /// break), bumping their sequence numbers as RFC 3561 requires.
    /// Appends `(destination, new_seq)` to `in_use` for each route that
    /// had precursors — the ones a RERR advertises — in key order.
    pub fn invalidate_via(
        &mut self,
        neighbor: NodeId,
        now: SimTime,
        in_use: &mut Vec<(NodeId, u32)>,
    ) {
        for (&dst, r) in self.routes.iter_mut() {
            if r.next_hop == neighbor && r.expires > now && retire(r, r.dst_seq + 1, now) {
                in_use.push((dst, r.dst_seq));
            }
        }
    }

    /// Invalidates the route to `dst` if it is at least as old as
    /// `dst_seq` (RERR processing). Returns `true` when it was, and had
    /// precursors to notify.
    pub fn invalidate_dst(&mut self, dst: NodeId, dst_seq: u32, now: SimTime) -> bool {
        match self.routes.get_mut(&dst) {
            Some(r) if r.expires > now && r.dst_seq <= dst_seq => retire(r, dst_seq, now),
            _ => false,
        }
    }
}

/// Ends `r` now at `dst_seq`, forgetting its precursors; `true` if any.
fn retire(r: &mut Route, dst_seq: u32, now: SimTime) -> bool {
    r.expires = now;
    r.dst_seq = dst_seq;
    let in_use = !r.precursors.is_empty();
    r.precursors.clear();
    in_use
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn table() -> RoutingTable {
        RoutingTable::new(SimDuration::from_secs(3))
    }

    #[test]
    fn fresh_sequence_numbers_win() {
        let mut t = table();
        assert!(t.update(n(9), n(1), 3, 5, SimTime::ZERO));
        // Older seq rejected even with fewer hops.
        assert!(!t.update(n(9), n(2), 1, 4, SimTime::ZERO));
        assert_eq!(t.peek(n(9)).unwrap().next_hop, n(1));
        // Newer seq accepted even with more hops.
        assert!(t.update(n(9), n(3), 7, 6, SimTime::ZERO));
        assert_eq!(t.peek(n(9)).unwrap().next_hop, n(3));
    }

    #[test]
    fn equal_seq_prefers_fewer_hops() {
        let mut t = table();
        t.update(n(9), n(1), 3, 5, SimTime::ZERO);
        assert!(t.update(n(9), n(2), 2, 5, SimTime::ZERO));
        assert!(!t.update(n(9), n(3), 2, 5, SimTime::ZERO), "ties keep current");
        assert_eq!(t.peek(n(9)).unwrap().next_hop, n(2));
    }

    #[test]
    fn routes_expire_and_are_replaceable() {
        let mut t = table();
        t.update(n(9), n(1), 2, 5, SimTime::ZERO);
        assert!(t.next_hop(n(9), SimTime::from_secs(2)).is_some());
        // Use refreshed the lifetime to 2 + 3 = 5 s.
        assert!(t.next_hop(n(9), SimTime::from_millis(4_900)).is_some());
        assert!(t.next_hop(n(9), SimTime::from_secs(9)).is_none());
        // An expired entry accepts any replacement, even older seq.
        assert!(t.update(n(9), n(2), 9, 1, SimTime::from_secs(9)));
    }

    #[test]
    fn invalidate_via_bumps_seq_and_reports_precursors() {
        let mut t = table();
        t.update(n(9), n(1), 2, 5, SimTime::ZERO);
        t.update(n(8), n(1), 3, 2, SimTime::ZERO);
        t.update(n(7), n(2), 1, 9, SimTime::ZERO);
        t.add_precursor(n(9), n(4));
        let mut in_use = Vec::new();
        t.invalidate_via(n(1), SimTime::from_secs(1), &mut in_use);
        // Only the route with a precursor is reported, with its
        // sequence number bumped; the unused one dies silently.
        assert_eq!(in_use, [(n(9), 6)], "sequence bumped on invalidation");
        assert_eq!(t.peek(n(8)).unwrap().dst_seq, 3);
        assert!(t.peek(n(9)).unwrap().precursors.is_empty());
        assert!(t.next_hop(n(8), SimTime::from_secs(1)).is_none());
        assert!(t.next_hop(n(9), SimTime::from_secs(1)).is_none());
        assert!(t.next_hop(n(7), SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn rerr_invalidation_respects_freshness() {
        let mut t = table();
        t.update(n(9), n(1), 2, 10, SimTime::ZERO);
        t.add_precursor(n(9), n(4));
        // A RERR about older state does nothing.
        assert!(!t.invalidate_dst(n(9), 7, SimTime::from_secs(1)));
        assert!(t.next_hop(n(9), SimTime::from_secs(1)).is_some());
        // A RERR with >= seq kills the route and reports its precursor.
        assert!(t.invalidate_dst(n(9), 11, SimTime::from_secs(1)));
        assert!(t.next_hop(n(9), SimTime::from_secs(1)).is_none());
        // A route nobody used dies silently.
        t.update(n(8), n(1), 2, 10, SimTime::ZERO);
        assert!(!t.invalidate_dst(n(8), 11, SimTime::from_secs(1)));
        assert!(t.next_hop(n(8), SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn precursors_deduplicate() {
        let mut t = table();
        t.update(n(9), n(1), 2, 5, SimTime::ZERO);
        t.add_precursor(n(9), n(4));
        t.add_precursor(n(9), n(4));
        assert_eq!(t.peek(n(9)).unwrap().precursors.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }
}
