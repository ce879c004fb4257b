//! The DSR route cache (path cache).
//!
//! Every cached entry is a full path **starting at the cache owner**, as
//! in ns-2's path cache. Insertions of routes that merely *contain* the
//! owner are truncated to start there; routes that do not contain the
//! owner are rejected (a path cache cannot use them — overheard routes
//! are extended through the overheard transmitter before insertion, see
//! `DsrNode::overhear`).
//!
//! The paper's stale-route discussion (Section 2.1.2) drives two
//! features: link-based invalidation with *truncation* (a broken link
//! removes the unusable tail but keeps the still-valid prefix), and an
//! optional capacity/timeout pair for the cache-design ablation.

use rcast_engine::{NodeId, SimDuration, SimTime};

use crate::route::SourceRoute;

/// One cached path with bookkeeping.
#[derive(Debug, Clone)]
struct Entry {
    path: SourceRoute,
    inserted_at: SimTime,
    last_used: SimTime,
}

/// A deterministic fingerprint of a node sequence (FNV-1a over the raw
/// ids). The duplicate scan in [`PathCache::observe_path`] runs on
/// every flood arrival in the network; comparing one `u64` per entry
/// instead of two node slices is what keeps that scan cheap at
/// capacity. Fixed constants, no hasher state: identical across runs
/// and platforms (rcast-lint D002).
fn path_key(nodes: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in nodes {
        h ^= n.index() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 64-bit presence filter over the node ids on a path (bit `id % 64`).
/// [`PathCache::find_route`] and [`has_route`](PathCache::has_route)
/// test the destination's bit before walking an entry's node sequence,
/// so entries that cannot contain the destination cost one AND instead
/// of a linear scan. Purely an accelerator: a set bit is always
/// re-verified against the actual sequence.
fn node_mask(nodes: &[NodeId]) -> u64 {
    nodes
        .iter()
        .fold(0u64, |m, n| m | 1u64 << (n.index() & 63))
}

/// Configuration of a [`RouteCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of cached entries: paths for the path strategy,
    /// directed links for the link strategy (ns-2 DSR default: 64).
    pub capacity: usize,
    /// Optional entry lifetime; `None` reproduces stock DSR (entries die
    /// only via RERR invalidation or eviction).
    pub timeout: Option<SimDuration>,
    /// Which caching strategy to use.
    pub strategy: CacheStrategy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 64,
            timeout: None,
            strategy: CacheStrategy::Path,
        }
    }
}

/// The path-cache strategy: whole source routes, LRU-evicted.
///
#[derive(Debug, Clone)]
pub struct PathCache {
    owner: NodeId,
    cfg: CacheConfig,
    entries: Vec<Entry>,
    /// `path_key(entries[i].path.nodes())`, index-aligned with
    /// `entries`. Kept as a separate packed array so the duplicate scan
    /// — run on every flood arrival — touches 8 bytes per entry
    /// instead of striding over whole entries.
    keys: Vec<u64>,
    /// `node_mask(entries[i].path.nodes())`, index-aligned with
    /// `entries`; the route-lookup prefilter.
    masks: Vec<u64>,
    /// Index of the most recent duplicate hit. Data packets on an
    /// established route re-teach the same few paths over and over, so
    /// checking this slot first usually replaces the whole key scan
    /// with one compare. Purely an accelerator: always verified, falls
    /// back to the scan when stale, and a deterministic function of the
    /// call history.
    last_hit: usize,
}

impl PathCache {
    /// An empty cache owned by `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero.
    pub fn new(owner: NodeId, cfg: CacheConfig) -> Self {
        assert!(cfg.capacity > 0, "cache capacity must be positive");
        PathCache {
            owner,
            cfg,
            entries: Vec::new(),
            keys: Vec::new(),
            masks: Vec::new(),
            last_hit: 0,
        }
    }

    /// The node this cache belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a route. The route is normalized to start at the owner
    /// (truncating any prefix); routes not containing the owner are
    /// rejected. Returns `true` when a **new** path was stored (used by
    /// the role-number metric), `false` for duplicates, rejected routes,
    /// and paths subsumed by an identical existing entry.
    pub fn insert(&mut self, route: SourceRoute, now: SimTime) -> bool {
        self.observe_path(route.nodes(), now)
    }

    /// Slice form of [`insert`](Self::insert): observes a path without
    /// a materialized [`SourceRoute`]. The duplicate case — the steady
    /// state of a settled network, where every flood arrival re-teaches
    /// known topology — costs a linear scan and an LRU stamp; a new
    /// entry is an inline copy (DESIGN.md §10).
    pub fn observe_path(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        // Normalize to start at the owner (truncating any prefix);
        // paths not containing the owner are rejected.
        let slice = if nodes.first() == Some(&self.owner) {
            nodes
        } else {
            match nodes.iter().position(|&n| n == self.owner) {
                Some(pos) => &nodes[pos..],
                None => return false,
            }
        };
        if slice.len() < 2 {
            return false;
        }
        let key = path_key(slice);
        // Most-recently-hit slot first, then the packed-key scan — a
        // bare `u64` equality search the compiler can vectorize; a key
        // hit is verified against the sequence. Both run *before*
        // loop-freedom validation: the cache only ever stores valid
        // paths, so a byte-equal hit proves the incoming slice valid,
        // and the dominant duplicate arrival skips the O(n²) check
        // entirely.
        let lh = self.last_hit;
        if lh < self.keys.len() && self.keys[lh] == key && self.entries[lh].path.nodes() == slice {
            self.entries[lh].last_used = now;
            return false;
        }
        let mut from = 0;
        while let Some(off) = self.keys[from..].iter().position(|&k| k == key) {
            let i = from + off;
            if self.entries[i].path.nodes() == slice {
                self.entries[i].last_used = now;
                self.last_hit = i;
                return false;
            }
            from = i + 1;
        }
        if !SourceRoute::is_valid_path(slice) {
            return false;
        }
        if self.entries.len() >= self.cfg.capacity {
            // Evict the least recently used entry; the new path takes
            // the last slot.
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("capacity > 0 so entries is non-empty");
            self.entries.swap_remove(idx);
            self.keys.swap_remove(idx);
            self.masks.swap_remove(idx);
        }
        self.entries.push(Entry {
            path: SourceRoute::from_slice(slice).expect("slice was just validated"),
            inserted_at: now,
            last_used: now,
        });
        self.keys.push(key);
        self.masks.push(node_mask(slice));
        true
    }

    /// The best (shortest, then freshest) cached route from the owner to
    /// `dst`. Touches the entry's LRU stamp.
    pub fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<SourceRoute> {
        self.purge_expired(now);
        let dst_bit = 1u64 << (dst.index() & 63);
        let mut best: Option<(usize, usize, SimTime)> = None; // (idx, hops, inserted)
        for (i, e) in self.entries.iter().enumerate() {
            if self.masks[i] & dst_bit == 0 {
                continue; // dst is definitely not on this path
            }
            let Some(pos) = e.path.position_of(dst) else {
                continue;
            };
            if pos == 0 {
                continue; // dst == owner
            }
            let hops = pos;
            match best {
                Some((_, bh, bt)) if bh < hops || (bh == hops && bt >= e.inserted_at) => {}
                _ => best = Some((i, hops, e.inserted_at)),
            }
        }
        let (idx, _, _) = best?;
        self.entries[idx].last_used = now;
        let path = &self.entries[idx].path;
        path.prefix_to(dst)
    }

    /// `true` when a route to `dst` is cached (without touching LRU).
    pub fn has_route(&self, dst: NodeId) -> bool {
        let dst_bit = 1u64 << (dst.index() & 63);
        self.entries.iter().enumerate().any(|(i, e)| {
            self.masks[i] & dst_bit != 0 && e.path.position_of(dst).is_some_and(|p| p > 0)
        })
    }

    /// Invalidates the (undirected) link `a ↔ b`: every path using it is
    /// truncated just before the break; prefixes that still form a route
    /// (≥ 2 nodes) survive. Returns the number of affected entries.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> usize {
        // Most caches don't hold the broken link at all; the mask
        // prefilter lets those return without touching any entry.
        let ab = (1u64 << (a.index() & 63)) | (1u64 << (b.index() & 63));
        let any_hit = self
            .masks
            .iter()
            .zip(&self.entries)
            .any(|(&m, e)| m & ab == ab && e.path.uses_link(a, b));
        if !any_hit {
            return 0;
        }
        // Order-preserving compaction over the parallel arrays: an
        // entry using the link becomes its prefix up to the first use
        // (or goes, when that prefix is a single node).
        let mut affected = 0;
        let mut kept = 0;
        for i in 0..self.entries.len() {
            let path = &self.entries[i].path;
            let cut = path
                .nodes()
                .windows(2)
                .position(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a));
            if let Some(cut) = cut {
                affected += 1;
                let Some(prefix) = path.prefix_to(path.nodes()[cut]) else {
                    continue;
                };
                self.keys[i] = path_key(prefix.nodes());
                self.masks[i] = node_mask(prefix.nodes());
                self.entries[i].path = prefix;
            }
            self.entries.swap(kept, i);
            self.keys.swap(kept, i);
            self.masks.swap(kept, i);
            kept += 1;
        }
        self.entries.truncate(kept);
        self.keys.truncate(kept);
        self.masks.truncate(kept);
        affected
    }

    /// Drops entries older than the configured timeout.
    pub fn purge_expired(&mut self, now: SimTime) {
        if let Some(ttl) = self.cfg.timeout {
            // Order-preserving compaction over both parallel arrays.
            let mut w = 0;
            for i in 0..self.entries.len() {
                if now - self.entries[i].inserted_at <= ttl {
                    self.entries.swap(w, i);
                    self.keys.swap(w, i);
                    self.masks.swap(w, i);
                    w += 1;
                }
            }
            self.entries.truncate(w);
            self.keys.truncate(w);
            self.masks.truncate(w);
        }
    }

    /// The cached paths (metrics: role numbers are counted over cache
    /// contents).
    // det: hot-ok — link-cache fallback for the role sampler; the default path-cache strategy uses the allocation-free for_each_path
    pub fn paths(&self) -> Vec<SourceRoute> {
        self.entries.iter().map(|e| e.path.clone()).collect()
    }

    /// Visits every cached path by reference, in storage order —
    /// the allocation-free counterpart of [`paths`](Self::paths).
    pub fn for_each_path(&self, mut f: impl FnMut(&SourceRoute)) {
        for e in &self.entries {
            f(&e.path);
        }
    }
}

/// Which caching strategy a [`RouteCache`] uses — the design axis of
/// Hu & Johnson (reference 11 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CacheStrategy {
    /// Store whole source routes (ns-2 DSR's default).
    #[default]
    Path,
    /// Store individual links; answer queries by shortest-path search.
    Link,
}

/// A per-node DSR route cache, dispatching to the configured strategy.
///
/// # Example
///
/// ```
/// use rcast_engine::{NodeId, SimTime};
/// use rcast_dsr::{CacheConfig, RouteCache, SourceRoute};
///
/// let me = NodeId::new(0);
/// let mut cache = RouteCache::new(me, CacheConfig::default());
/// let route = SourceRoute::new(vec![0, 1, 2].into_iter().map(NodeId::new).collect()).unwrap();
/// assert!(cache.insert(route, SimTime::ZERO));
/// let found = cache.find_route(NodeId::new(2), SimTime::ZERO).unwrap();
/// assert_eq!(found.destination(), NodeId::new(2));
/// ```
#[derive(Debug, Clone)]
pub enum RouteCache {
    /// Path-cache strategy.
    Path(PathCache),
    /// Link-cache strategy.
    Link(crate::link_cache::LinkCache),
}

impl RouteCache {
    /// A cache of the configured strategy.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero.
    pub fn new(owner: NodeId, cfg: CacheConfig) -> Self {
        match cfg.strategy {
            CacheStrategy::Path => RouteCache::Path(PathCache::new(owner, cfg)),
            CacheStrategy::Link => RouteCache::Link(crate::link_cache::LinkCache::new(
                owner,
                cfg.capacity,
                cfg.timeout,
            )),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        match self {
            RouteCache::Path(c) => c.owner(),
            RouteCache::Link(c) => c.owner(),
        }
    }

    /// Number of stored entries (paths or directed links, by strategy).
    pub fn len(&self) -> usize {
        match self {
            RouteCache::Path(c) => c.len(),
            RouteCache::Link(c) => c.len(),
        }
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Learns a route. Returns `true` when new information was stored.
    pub fn insert(&mut self, route: SourceRoute, now: SimTime) -> bool {
        match self {
            RouteCache::Path(c) => c.insert(route, now),
            RouteCache::Link(c) => c.insert(route, now),
        }
    }

    /// Slice form of [`insert`](Self::insert). The link strategy has no
    /// slice-level fast path; it materializes the route as `insert`
    /// does.
    pub fn observe_path(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        match self {
            RouteCache::Path(c) => c.observe_path(nodes, now),
            RouteCache::Link(c) => {
                let owner = c.owner();
                let Some(pos) = nodes.iter().position(|&n| n == owner) else {
                    return false;
                };
                match SourceRoute::from_slice(&nodes[pos..]) {
                    Some(r) => c.insert(r, now),
                    None => false,
                }
            }
        }
    }

    /// The best cached route from the owner to `dst`.
    pub fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<SourceRoute> {
        match self {
            RouteCache::Path(c) => c.find_route(dst, now),
            RouteCache::Link(c) => c.find_route(dst, now),
        }
    }

    /// `true` when a route to `dst` is cached.
    pub fn has_route(&self, dst: NodeId) -> bool {
        match self {
            RouteCache::Path(c) => c.has_route(dst),
            RouteCache::Link(c) => c.has_route(dst),
        }
    }

    /// Invalidates the undirected link `a ↔ b`; returns affected entries.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> usize {
        match self {
            RouteCache::Path(c) => c.remove_link(a, b),
            RouteCache::Link(c) => c.remove_link(a, b),
        }
    }

    /// Drops expired entries.
    pub fn purge_expired(&mut self, now: SimTime) {
        match self {
            RouteCache::Path(c) => c.purge_expired(now),
            RouteCache::Link(c) => c.purge_expired(now),
        }
    }

    /// The cache contents rendered as routes from the owner (role
    /// numbers sample these).
    pub fn paths(&self) -> Vec<SourceRoute> {
        match self {
            RouteCache::Path(c) => c.paths(),
            RouteCache::Link(c) => c.paths(),
        }
    }

    /// Visits every cached path by reference. For a path cache this
    /// never allocates; a link cache has no materialized paths, so it
    /// falls back to rendering them (the role sampler only runs every
    /// fourth interval, and the link strategy is off the paper's
    /// default configuration).
    pub fn for_each_path(&self, mut f: impl FnMut(&SourceRoute)) {
        match self {
            RouteCache::Path(c) => c.for_each_path(f),
            RouteCache::Link(c) => {
                for p in c.paths() {
                    f(&p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u32]) -> SourceRoute {
        SourceRoute::new(ids.iter().copied().map(NodeId::new).collect()).unwrap()
    }

    fn cache(owner: u32) -> RouteCache {
        RouteCache::new(NodeId::new(owner), CacheConfig::default())
    }

    #[test]
    fn insert_and_find() {
        let mut c = cache(0);
        assert!(c.insert(route(&[0, 1, 2, 3]), SimTime::ZERO));
        // Duplicate rejected.
        assert!(!c.insert(route(&[0, 1, 2, 3]), SimTime::from_secs(1)));
        assert_eq!(c.len(), 1);
        // Sub-destination found via prefix.
        let r = c.find_route(NodeId::new(2), SimTime::from_secs(2)).unwrap();
        assert_eq!(r, route(&[0, 1, 2]));
        assert!(c.has_route(NodeId::new(3)));
        assert!(!c.has_route(NodeId::new(9)));
    }

    #[test]
    fn routes_not_containing_owner_rejected() {
        let mut c = cache(9);
        assert!(!c.insert(route(&[0, 1, 2]), SimTime::ZERO));
        assert!(c.is_empty());
    }

    #[test]
    fn routes_containing_owner_truncated() {
        let mut c = cache(1);
        assert!(c.insert(route(&[0, 1, 2, 3]), SimTime::ZERO));
        let r = c.find_route(NodeId::new(3), SimTime::ZERO).unwrap();
        assert_eq!(r, route(&[1, 2, 3]));
        // Upstream nodes are unreachable through this entry.
        assert!(!c.has_route(NodeId::new(0)));
    }

    #[test]
    fn shortest_route_wins() {
        let mut c = cache(0);
        c.insert(route(&[0, 1, 2, 3, 4]), SimTime::ZERO);
        c.insert(route(&[0, 5, 4]), SimTime::from_secs(1));
        let r = c.find_route(NodeId::new(4), SimTime::from_secs(2)).unwrap();
        assert_eq!(r, route(&[0, 5, 4]));
    }

    #[test]
    fn tie_breaks_by_freshness() {
        let mut c = cache(0);
        c.insert(route(&[0, 1, 4]), SimTime::ZERO);
        c.insert(route(&[0, 2, 4]), SimTime::from_secs(5));
        let r = c.find_route(NodeId::new(4), SimTime::from_secs(6)).unwrap();
        assert_eq!(r, route(&[0, 2, 4]), "fresher equal-length route wins");
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut c = RouteCache::new(
            NodeId::new(0),
            CacheConfig {
                capacity: 2,
                timeout: None,
                ..CacheConfig::default()
            },
        );
        c.insert(route(&[0, 1]), SimTime::ZERO);
        c.insert(route(&[0, 2]), SimTime::from_secs(1));
        // Touch [0,1] so [0,2] becomes LRU.
        let _ = c.find_route(NodeId::new(1), SimTime::from_secs(2));
        c.insert(route(&[0, 3]), SimTime::from_secs(3));
        assert_eq!(c.len(), 2);
        assert!(c.has_route(NodeId::new(1)));
        assert!(!c.has_route(NodeId::new(2)), "LRU entry evicted");
        assert!(c.has_route(NodeId::new(3)));
    }

    #[test]
    fn link_removal_truncates() {
        let mut c = cache(0);
        c.insert(route(&[0, 1, 2, 3]), SimTime::ZERO);
        c.insert(route(&[0, 4, 5]), SimTime::ZERO);
        let affected = c.remove_link(NodeId::new(2), NodeId::new(3));
        assert_eq!(affected, 1);
        // Prefix 0→1→2 survives.
        assert!(c.has_route(NodeId::new(2)));
        assert!(!c.has_route(NodeId::new(3)));
        // Untouched entry intact.
        assert!(c.has_route(NodeId::new(5)));
    }

    #[test]
    fn link_removal_is_undirected_and_can_empty_entries() {
        let mut c = cache(0);
        c.insert(route(&[0, 1, 2]), SimTime::ZERO);
        let affected = c.remove_link(NodeId::new(1), NodeId::new(0));
        assert_eq!(affected, 1);
        assert!(c.is_empty(), "first-hop break leaves no usable prefix");
    }

    #[test]
    fn timeout_purges_entries() {
        let mut c = RouteCache::new(
            NodeId::new(0),
            CacheConfig {
                capacity: 8,
                timeout: Some(SimDuration::from_secs(10)),
                ..CacheConfig::default()
            },
        );
        c.insert(route(&[0, 1]), SimTime::ZERO);
        assert!(c.find_route(NodeId::new(1), SimTime::from_secs(5)).is_some());
        assert!(c.find_route(NodeId::new(1), SimTime::from_secs(11)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn paths_expose_contents() {
        let mut c = cache(0);
        c.insert(route(&[0, 1, 2]), SimTime::ZERO);
        c.insert(route(&[0, 3]), SimTime::ZERO);
        let paths = c.paths();
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&route(&[0, 1, 2])));
    }

    #[test]
    fn link_strategy_dispatches() {
        let cfg = CacheConfig {
            strategy: CacheStrategy::Link,
            ..CacheConfig::default()
        };
        let mut c = RouteCache::new(NodeId::new(0), cfg);
        assert!(c.insert(route(&[0, 1, 2]), SimTime::ZERO));
        assert!(c.insert(route(&[2, 5]), SimTime::ZERO));
        // Link recombination: only the link strategy can answer this.
        assert_eq!(
            c.find_route(NodeId::new(5), SimTime::ZERO).unwrap(),
            route(&[0, 1, 2, 5])
        );
        assert_eq!(c.owner(), NodeId::new(0));
        assert!(!c.is_empty());
        c.remove_link(NodeId::new(1), NodeId::new(2));
        assert!(!c.has_route(NodeId::new(5)));
    }
}
