//! The DSR link cache: Hu & Johnson's alternative to the path cache.
//!
//! Where a path cache stores whole source routes, a link cache
//! decomposes every learned route into individual links and answers
//! queries by shortest-path search over the link graph. Hu & Johnson
//! ("Caching Strategies in On-Demand Routing Protocols", MOBICOM 2000 —
//! reference [11] of the Rcast paper) show the choice materially affects
//! DSR's stale-route behaviour; the `ablation_cache` experiment measures
//! it under Rcast.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rcast_engine::{NodeId, SimDuration, SimTime};

use crate::route::{NodePath, SourceRoute};

/// Bookkeeping for one directed link.
#[derive(Debug, Clone, Copy)]
struct LinkEntry {
    inserted_at: SimTime,
    last_used: SimTime,
}

/// The stored directed links, in key order.
type Links = BTreeMap<(NodeId, NodeId), LinkEntry>;

/// `Bfs::pred` of a node the search has not reached.
const UNSEEN: u32 = u32::MAX;

/// Breadth-first-search storage over a link set. The lanes are cleared
/// and refilled by each search, never shrunk, so a cache that keeps one
/// searches without touching the heap once they reach their high-water
/// marks. Searches stop early where they can, but always assign the
/// same predecessors as a full search would.
#[derive(Debug, Clone, Default)]
struct Bfs {
    /// Every link endpoint, sorted and deduplicated: the search calls
    /// node `ids[i]` by its index `i`.
    ids: Vec<NodeId>,
    /// `pred[i]`: the index of node `i`'s predecessor on the
    /// shortest-path tree, [`UNSEEN`] while unreached. The root is its
    /// own predecessor.
    pred: Vec<u32>,
    /// Reached nodes in visit order, which is also the FIFO queue.
    order: Vec<u32>,
}

impl Bfs {
    /// Searches `links` breadth-first from `root`, stopping as soon as
    /// `stop` is reached. `links` iterates in key order, so each node's
    /// out-links form one contiguous run with sorted targets and ties
    /// resolve the same way on every run.
    fn run(&mut self, links: &Links, root: NodeId, stop: Option<NodeId>) {
        self.ids.clear();
        self.ids.extend(links.keys().flat_map(|&(a, b)| [a, b]));
        self.ids.sort_unstable();
        self.ids.dedup();
        self.pred.clear();
        self.pred.resize(self.ids.len(), UNSEEN);
        self.order.clear();
        let Ok(r) = self.ids.binary_search(&root) else {
            return; // no stored link touches the root
        };
        self.pred[r] = r as u32;
        self.order.push(r as u32);
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            let from = self.ids[u as usize];
            let run = links.range((from, NodeId::new(0))..=(from, NodeId::new(u32::MAX)));
            for (&(_, to), _) in run {
                let v = self.index(to).expect("every endpoint is indexed");
                if self.pred[v] == UNSEEN {
                    self.pred[v] = u;
                    self.order.push(v as u32);
                    if stop == Some(to) {
                        return;
                    }
                }
            }
        }
    }

    fn index(&self, node: NodeId) -> Option<usize> {
        self.ids.binary_search(&node).ok()
    }

    /// `true` when the last search reached `node`.
    fn reached(&self, node: NodeId) -> bool {
        self.index(node).is_some_and(|i| self.pred[i] != UNSEEN)
    }

    /// The tree path from the last search's root to `dst`, if `dst` was
    /// reached and is not the root.
    fn path_to(&self, dst: NodeId) -> Option<SourceRoute> {
        let i = self.index(dst)?;
        if self.pred[i] == UNSEEN || self.pred[i] as usize == i {
            return None;
        }
        // Walk the predecessors from `dst` back to the root straight
        // into an inline path, then turn it around. A shortest-path
        // tree's paths are loop-free.
        let back: NodePath = std::iter::successors(Some(i), |&j| {
            let p = self.pred[j] as usize;
            (p != j).then_some(p)
        })
        .map(|j| self.ids[j])
        .collect();
        Some(SourceRoute::from_valid_path(back).reversed())
    }
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
    // Ordered map: eviction scans and the BFS iterate this, and
    // iteration order must never depend on hasher state (rcast-lint
    // D002).
    links: Links,
    /// The reusable search storage. Each search takes it out and puts
    /// it back (see [`search`](Self::search)), so the `&self` queries
    /// reuse it too, and a query nested inside
    /// [`for_each_path`](Self::for_each_path)'s visitor merely starts
    /// from empty storage.
    bfs: RefCell<Bfs>,
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
            bfs: RefCell::default(),
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

    /// Runs a breadth-first search from the owner (stopping once `stop`
    /// is reached) and hands the finished search to `read`.
    fn search<R>(&self, stop: Option<NodeId>, read: impl FnOnce(&Bfs) -> R) -> R {
        let mut bfs = self.bfs.take();
        bfs.run(&self.links, self.owner, stop);
        let result = read(&bfs);
        self.bfs.replace(bfs);
        result
    }

    /// The shortest cached route from the owner to `dst`, touching the
    /// LRU stamps of its links.
    pub fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<SourceRoute> {
        self.purge_expired(now);
        let route = self.search(Some(dst), |bfs| bfs.path_to(dst))?;
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
        dst != self.owner && self.search(Some(dst), |bfs| bfs.reached(dst))
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

    /// Visits the shortest-path tree as one route per reachable
    /// destination, in node-id order — the link cache's analog of
    /// "cache contents" for the role-number metric.
    pub fn for_each_path(&self, mut f: impl FnMut(&SourceRoute)) {
        self.search(None, |bfs| {
            for &dst in &bfs.ids {
                if let Some(route) = bfs.path_to(dst) {
                    f(&route);
                }
            }
        });
    }

    /// The routes [`for_each_path`](Self::for_each_path) visits,
    /// collected.
    pub fn paths(&self) -> Vec<SourceRoute> {
        let mut paths = Vec::new();
        self.for_each_path(|route| paths.push(route.clone()));
        paths
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

    /// The search as it was before it ran on reusable storage: a
    /// predecessor map grown by a BFS over a `BTreeMap` adjacency.
    fn model_routes(links: &Links, owner: NodeId) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut adjacency: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &(a, b) in links.keys() {
            adjacency.entry(a).or_default().push(b);
        }
        let mut pred = BTreeMap::new();
        let mut seen = std::collections::BTreeSet::from([owner]);
        let mut queue = std::collections::VecDeque::from([owner]);
        while let Some(u) = queue.pop_front() {
            for &v in adjacency.get(&u).into_iter().flatten() {
                if seen.insert(v) {
                    pred.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        let route_to = |dst: NodeId| {
            let mut back = vec![dst];
            while back.last() != Some(&owner) {
                back.push(pred[back.last().expect("non-empty")]);
            }
            back.reverse();
            back
        };
        pred.keys().map(|&d| (d, route_to(d))).collect()
    }

    /// Over random link sets (with evictions, removals and one-way
    /// leftovers), `find_route`, `has_route` and `paths` answer exactly
    /// what the old search did.
    #[test]
    fn search_matches_the_btreemap_model() {
        use rcast_testkit::{prop_assert_eq, Check};
        Check::new("link_search_matches_the_btreemap_model").run(|g| {
            let mut c = LinkCache::new(n(0), g.usize_range(1, 24), None);
            for step in 0..g.len(1, 60) as u64 {
                let now = SimTime::from_secs(step);
                let (a, b) = (n(g.u32_range(0, 12)), n(g.u32_range(0, 12)));
                if g.usize_range(0, 4) == 0 {
                    c.remove_link(a, b);
                } else if let Some(link) = SourceRoute::new(vec![a, b]) {
                    c.insert(link, now);
                }
                let model = model_routes(&c.links, c.owner);
                let rendered: Vec<Vec<NodeId>> =
                    c.paths().iter().map(|p| p.nodes().to_vec()).collect();
                prop_assert_eq!(rendered, model.values().cloned().collect::<Vec<_>>());
                for d in (0..12).map(n) {
                    let want = model.get(&d).map(|w| &w[..]);
                    prop_assert_eq!(c.has_route(d), want.is_some());
                    let got = c.find_route(d, now);
                    prop_assert_eq!(got.as_ref().map(|r| r.nodes()), want);
                }
            }
            Ok(())
        });
    }
}
