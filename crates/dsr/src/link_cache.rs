//! The DSR link cache: Hu & Johnson's alternative to the path cache.
//!
//! Where a path cache stores whole source routes, a link cache
//! decomposes every learned route into individual links and answers
//! queries by shortest-path search over the link graph. Hu & Johnson
//! ("Caching Strategies in On-Demand Routing Protocols", MOBICOM 2000 —
//! reference [11] of the Rcast paper) show the choice materially affects
//! DSR's stale-route behaviour; the `ablation_cache` experiment measures
//! it under Rcast.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rcast_engine::{NodeId, SimDuration, SimTime};

use crate::route::{NodePath, SourceRoute};

/// Bookkeeping for one directed link.
#[derive(Debug, Clone, Copy)]
struct LinkEntry {
    inserted_at: SimTime,
    last_used: SimTime,
}

/// A per-node DSR link cache.
///
/// Links are stored directionally but inserted in both directions
/// (DSR's bidirectional-link assumption over 802.11). Capacity counts
/// directed links; eviction is LRU.
///
/// # Example
///
/// ```
/// use rcast_engine::{NodeId, SimTime};
/// use rcast_dsr::{LinkCache, SourceRoute};
///
/// let me = NodeId::new(0);
/// let mut cache = LinkCache::new(me, 64, None);
/// let learned = SourceRoute::new(vec![0, 1, 2].into_iter().map(NodeId::new).collect()).unwrap();
/// cache.insert(learned, SimTime::ZERO);
/// // Shortest-path search recombines links into a route.
/// let r = cache.find_route(NodeId::new(2), SimTime::ZERO).unwrap();
/// assert_eq!(r.nodes().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct LinkCache {
    owner: NodeId,
    capacity: usize,
    timeout: Option<SimDuration>,
    // Ordered map: eviction scans and BFS adjacency building iterate
    // this, and iteration order must never depend on hasher state
    // (rcast-lint D002).
    links: BTreeMap<(NodeId, NodeId), LinkEntry>,
}

impl LinkCache {
    /// An empty cache owned by `owner` holding at most `capacity`
    /// directed links, each expiring after `timeout` if set.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize, timeout: Option<SimDuration>) -> Self {
        assert!(capacity > 0, "link cache capacity must be positive");
        LinkCache {
            owner,
            capacity,
            timeout,
            links: BTreeMap::new(),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of directed links stored.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` when no links are stored.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    fn evict_to_capacity(&mut self) {
        while self.links.len() > self.capacity {
            // Tie-break by key: among equally-old links the smallest
            // key goes, so eviction is a pure function of the contents.
            let (&key, _) = self
                .links
                .iter()
                .min_by_key(|(&k, e)| (e.last_used, k))
                .expect("non-empty while over capacity");
            self.links.remove(&key);
        }
    }

    /// Decomposes `route` into links (both directions) and stores them.
    /// Returns `true` when at least one previously unknown link was
    /// added.
    pub fn insert(&mut self, route: SourceRoute, now: SimTime) -> bool {
        let mut added = false;
        for w in route.nodes().windows(2) {
            for (a, b) in [(w[0], w[1]), (w[1], w[0])] {
                match self.links.get_mut(&(a, b)) {
                    Some(e) => {
                        e.last_used = now;
                        e.inserted_at = now; // refreshed evidence
                    }
                    None => {
                        self.links.insert(
                            (a, b),
                            LinkEntry {
                                inserted_at: now,
                                last_used: now,
                            },
                        );
                        added = true;
                    }
                }
            }
        }
        self.evict_to_capacity();
        added
    }

    /// Drops expired links.
    pub fn purge_expired(&mut self, now: SimTime) {
        if let Some(ttl) = self.timeout {
            self.links.retain(|_, e| now - e.inserted_at <= ttl);
        }
    }

    /// Breadth-first shortest-path tree from the owner over stored
    /// links; returns each reachable node's predecessor.
    fn bfs_tree(&self) -> BTreeMap<NodeId, NodeId> {
        let mut pred: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut seen: BTreeSet<NodeId> = BTreeSet::from([self.owner]);
        let mut queue = VecDeque::from([self.owner]);
        // `links` iterates in key order, so each adjacency list comes
        // out sorted and the BFS visits ties deterministically.
        let mut adjacency: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &(a, b) in self.links.keys() {
            adjacency.entry(a).or_default().push(b);
        }
        while let Some(u) = queue.pop_front() {
            if let Some(neighbors) = adjacency.get(&u) {
                for &v in neighbors {
                    if seen.insert(v) {
                        pred.insert(v, u);
                        queue.push_back(v);
                    }
                }
            }
        }
        pred
    }

    fn path_to(&self, dst: NodeId, pred: &BTreeMap<NodeId, NodeId>) -> Option<SourceRoute> {
        if dst == self.owner || !pred.contains_key(&dst) {
            return None;
        }
        // Walk the predecessors from `dst` back to the owner straight
        // into an inline path, then turn it around.
        let back: NodePath = std::iter::successors(Some(dst), |cur| {
            (*cur != self.owner)
                .then(|| pred.get(cur).copied())
                .flatten()
        })
        .collect();
        if back.last() != Some(&self.owner) {
            return None;
        }
        Some(SourceRoute::from_path(back)?.reversed())
    }

    /// The shortest cached route from the owner to `dst`, touching the
    /// LRU stamps of its links.
    pub fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<SourceRoute> {
        self.purge_expired(now);
        let pred = self.bfs_tree();
        let route = self.path_to(dst, &pred)?;
        for w in route.nodes().windows(2) {
            // Touch both directions: links are one bidirectional fact.
            for key in [(w[0], w[1]), (w[1], w[0])] {
                if let Some(e) = self.links.get_mut(&key) {
                    e.last_used = now;
                }
            }
        }
        Some(route)
    }

    /// `true` when `dst` is reachable through stored links.
    pub fn has_route(&self, dst: NodeId) -> bool {
        dst != self.owner && self.bfs_tree().contains_key(&dst)
    }

    /// Removes the link `a ↔ b` (both directions). Returns how many
    /// directed entries were removed.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> usize {
        let mut removed = 0;
        for key in [(a, b), (b, a)] {
            if self.links.remove(&key).is_some() {
                removed += 1;
            }
        }
        removed
    }

    /// The shortest-path tree rendered as one route per reachable
    /// destination — the link cache's analog of "cache contents" for
    /// the role-number metric.
    pub fn paths(&self) -> Vec<SourceRoute> {
        let pred = self.bfs_tree();
        let dsts: Vec<NodeId> = pred.keys().copied().collect();
        dsts.into_iter()
            .filter_map(|d| self.path_to(d, &pred))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn route(ids: &[u32]) -> SourceRoute {
        SourceRoute::new(ids.iter().copied().map(NodeId::new).collect()).unwrap()
    }

    fn cache() -> LinkCache {
        LinkCache::new(n(0), 64, None)
    }

    #[test]
    fn recombines_links_across_routes() {
        let mut c = cache();
        // Learn 0-1-2 and, separately, 2-5: the link cache can answer
        // 0→5 even though no single learned route contains it — the
        // structural advantage over a path cache.
        c.insert(route(&[0, 1, 2]), SimTime::ZERO);
        c.insert(route(&[2, 5]), SimTime::ZERO);
        let r = c.find_route(n(5), SimTime::ZERO).unwrap();
        assert_eq!(r, route(&[0, 1, 2, 5]));
    }

    #[test]
    fn finds_shortest_combination() {
        let mut c = cache();
        c.insert(route(&[0, 1, 2, 3, 4]), SimTime::ZERO);
        c.insert(route(&[0, 7, 4]), SimTime::ZERO);
        let r = c.find_route(n(4), SimTime::ZERO).unwrap();
        assert_eq!(r.hop_count(), 2);
    }

    #[test]
    fn bidirectional_insertion() {
        let mut c = cache();
        // A route *toward* the owner still teaches usable links.
        c.insert(route(&[3, 2, 0]), SimTime::ZERO);
        assert!(c.has_route(n(3)));
        assert_eq!(
            c.find_route(n(3), SimTime::ZERO).unwrap(),
            route(&[0, 2, 3])
        );
    }

    #[test]
    fn link_removal_disconnects() {
        let mut c = cache();
        c.insert(route(&[0, 1, 2]), SimTime::ZERO);
        assert_eq!(c.remove_link(n(1), n(2)), 2);
        assert!(c.has_route(n(1)));
        assert!(!c.has_route(n(2)));
        assert_eq!(c.remove_link(n(1), n(2)), 0, "idempotent");
    }

    #[test]
    fn alternative_survives_removal() {
        let mut c = cache();
        c.insert(route(&[0, 1, 2]), SimTime::ZERO);
        c.insert(route(&[0, 3, 2]), SimTime::ZERO);
        c.remove_link(n(1), n(2));
        // Still reachable via 3 — the stale-route resilience Hu &
        // Johnson attribute to link caches.
        assert_eq!(
            c.find_route(n(2), SimTime::from_secs(1)).unwrap(),
            route(&[0, 3, 2])
        );
    }

    #[test]
    fn capacity_evicts_lru_links() {
        let mut c = LinkCache::new(n(0), 4, None);
        c.insert(route(&[0, 1]), SimTime::ZERO); // 2 directed links
        c.insert(route(&[0, 2]), SimTime::from_secs(1)); // 4 links
        // Touch 0↔1 so 0↔2 is LRU.
        let _ = c.find_route(n(1), SimTime::from_secs(2));
        c.insert(route(&[0, 3]), SimTime::from_secs(3)); // forces eviction
        assert!(c.len() <= 4);
        assert!(c.has_route(n(1)));
        assert!(c.has_route(n(3)));
        assert!(!c.has_route(n(2)), "LRU links evicted");
    }

    #[test]
    fn timeout_expires_links() {
        let mut c = LinkCache::new(n(0), 64, Some(SimDuration::from_secs(5)));
        c.insert(route(&[0, 1]), SimTime::ZERO);
        assert!(c.find_route(n(1), SimTime::from_secs(4)).is_some());
        assert!(c.find_route(n(1), SimTime::from_secs(6)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn owner_is_never_a_destination() {
        let mut c = cache();
        c.insert(route(&[0, 1]), SimTime::ZERO);
        assert!(!c.has_route(n(0)));
        assert!(c.find_route(n(0), SimTime::ZERO).is_none());
    }

    #[test]
    fn paths_render_the_tree() {
        let mut c = cache();
        c.insert(route(&[0, 1, 2]), SimTime::ZERO);
        c.insert(route(&[1, 5]), SimTime::ZERO);
        let paths = c.paths();
        // Reachable: 1, 2, 5.
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.origin() == n(0)));
        assert!(paths.iter().any(|p| p.destination() == n(5)));
    }

    #[test]
    fn deterministic_ties() {
        // Two equal-length options: BFS with sorted adjacency must pick
        // the same one every time.
        let build = || {
            let mut c = cache();
            c.insert(route(&[0, 1, 9]), SimTime::ZERO);
            c.insert(route(&[0, 2, 9]), SimTime::ZERO);
            c.find_route(n(9), SimTime::ZERO).unwrap()
        };
        assert_eq!(build(), build());
    }
}
