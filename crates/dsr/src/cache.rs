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
//!
//! A path cache is learned from RREQ floods and overheard traffic, so a
//! miss that stores a new path is the common case at scale, and it is
//! kept cheap (DESIGN.md §10):
//!
//! * **One validation per path.** The public entries ([`insert`],
//!   [`observe_path`]) check loop-freedom once, after the duplicate
//!   scan; `DsrNode` feeds paths that are valid by construction through
//!   a crate-private entry that skips the check.
//! * **Packed lanes.** The duplicate keys, node masks and LRU stamps
//!   each live in their own `u64`-sized lane beside the entries, so the
//!   duplicate scan, the route prefilter and the eviction scan stride
//!   8 bytes per entry.
//! * **Storage allocated once.** Every lane is sized for the configured
//!   capacity on the cache's first insert, so filling and churning a
//!   cache through evictions never reallocates.
//!
//! [`insert`]: PathCache::insert
//! [`observe_path`]: PathCache::observe_path

use rcast_engine::{NodeId, SimDuration, SimTime};

use crate::route::{NodePath, SourceRoute};

/// One cached path with its insertion time (its LRU stamp lives in
/// [`PathCache::stamps`]).
#[derive(Debug, Clone)]
struct Entry {
    path: SourceRoute,
    inserted_at: SimTime,
}

/// Entries a path cache reserves on its first insert: its configured
/// capacity, up to this many. Every preset's capacity fits (64 by
/// default, at most 256 in `ablation-cache`), so those caches never
/// reallocate; a larger configured capacity grows past this as it
/// fills, so an oversized setting costs memory only for what is stored.
const RESERVE_LIMIT: usize = 256;

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
/// `entries`, `keys`, `masks` and `stamps` are index-aligned lanes:
/// slot `i` of each describes the same cached path.
#[derive(Debug, Clone)]
pub struct PathCache {
    owner: NodeId,
    cfg: CacheConfig,
    entries: Vec<Entry>,
    /// `path_key(entries[i].path.nodes())`. Kept as a separate packed
    /// lane so the duplicate scan — run on every flood arrival — touches
    /// 8 bytes per entry instead of striding over whole entries.
    keys: Vec<u64>,
    /// `node_mask(entries[i].path.nodes())`; the route-lookup prefilter.
    masks: Vec<u64>,
    /// The LRU stamp of entry `i`: when it was last inserted, re-taught
    /// or returned by [`find_route`](Self::find_route). Packed, so the
    /// eviction scan at capacity reads 8 bytes per entry.
    stamps: Vec<SimTime>,
    /// Index of the most recent duplicate hit. Data packets on an
    /// established route re-teach the same few paths over and over, so
    /// checking this slot first usually replaces the whole key scan
    /// with one compare. Purely an accelerator: always verified, falls
    /// back to the scan when stale, and a deterministic function of the
    /// call history.
    last_hit: usize,
}

impl PathCache {
    /// An empty cache owned by `owner`. It allocates nothing until its
    /// first insert.
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
            stamps: Vec::new(),
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
    /// entry is one loop-freedom check and an inline copy (DESIGN.md
    /// §10).
    pub fn observe_path(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        self.observe(nodes, now, false)
    }

    /// [`observe_path`](Self::observe_path) for a path the caller has
    /// proven loop-free: reversals and suffixes of a [`SourceRoute`],
    /// routes extended through a transmitter they do not contain, an
    /// RREQ back path that passed [`SourceRoute::is_valid_path`]. The
    /// new entry is stored without checking it again.
    pub(crate) fn observe_valid_path(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        debug_assert!(
            SourceRoute::is_valid_path(nodes),
            "trusted path {nodes:?} is not a route"
        );
        self.observe(nodes, now, true)
    }

    fn observe(&mut self, nodes: &[NodeId], now: SimTime, valid: bool) -> bool {
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
            self.stamps[lh] = now;
            return false;
        }
        let mut from = 0;
        while let Some(off) = self.keys[from..].iter().position(|&k| k == key) {
            let i = from + off;
            if self.entries[i].path.nodes() == slice {
                self.stamps[i] = now;
                self.last_hit = i;
                return false;
            }
            from = i + 1;
        }
        // A suffix of a valid path is valid, so a trusted path skips
        // the check after truncation too.
        if !valid && !SourceRoute::is_valid_path(slice) {
            return false;
        }
        if self.entries.len() >= self.cfg.capacity {
            // Evict the least recently used entry (the first of equal
            // stamps); the new path takes the last slot.
            let (idx, _) = self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .expect("capacity > 0 so the cache is non-empty");
            self.entries.swap_remove(idx);
            self.keys.swap_remove(idx);
            self.masks.swap_remove(idx);
            self.stamps.swap_remove(idx);
        } else if self.entries.capacity() == 0 {
            self.allocate_lanes();
        }
        self.entries.push(Entry {
            path: SourceRoute::from_valid_path(NodePath::from_slice(slice)),
            inserted_at: now,
        });
        self.keys.push(key);
        self.masks.push(node_mask(slice));
        self.stamps.push(now);
        true
    }

    /// Sizes every lane for the configured capacity (up to
    /// [`RESERVE_LIMIT`]) at once, so filling the cache and churning it
    /// through evictions never reallocates.
    // det: hot-ok — runs once per cache, on its first insert; replaces the lanes' growth by doubling
    fn allocate_lanes(&mut self) {
        let n = self.cfg.capacity.min(RESERVE_LIMIT);
        self.entries = Vec::with_capacity(n);
        self.keys = Vec::with_capacity(n);
        self.masks = Vec::with_capacity(n);
        self.stamps = Vec::with_capacity(n);
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
        self.stamps[idx] = now;
        self.entries[idx].path.prefix_to(dst)
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
        // Order-preserving compaction over the lanes: an entry using
        // the link becomes its prefix up to the first use (or goes,
        // when that prefix is a single node).
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
            self.swap_slots(kept, i);
            kept += 1;
        }
        self.truncate(kept);
        affected
    }

    /// Drops entries older than the configured timeout.
    pub fn purge_expired(&mut self, now: SimTime) {
        if let Some(ttl) = self.cfg.timeout {
            // Order-preserving compaction over the lanes.
            let mut w = 0;
            for i in 0..self.entries.len() {
                if now - self.entries[i].inserted_at <= ttl {
                    self.swap_slots(w, i);
                    w += 1;
                }
            }
            self.truncate(w);
        }
    }

    /// Swaps slots `i` and `j` in every lane.
    fn swap_slots(&mut self, i: usize, j: usize) {
        self.entries.swap(i, j);
        self.keys.swap(i, j);
        self.masks.swap(i, j);
        self.stamps.swap(i, j);
    }

    /// Keeps the first `len` slots of every lane.
    fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
        self.keys.truncate(len);
        self.masks.truncate(len);
        self.stamps.truncate(len);
    }

    /// The cached paths (metrics: role numbers are counted over cache
    /// contents).
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

    /// [`observe_path`](Self::observe_path) for a path the caller has
    /// proven loop-free (see [`PathCache::observe_valid_path`]). The
    /// link strategy, off the paper's default, keeps its check.
    pub(crate) fn observe_valid_path(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        match self {
            RouteCache::Path(c) => c.observe_valid_path(nodes, now),
            RouteCache::Link(_) => self.observe_path(nodes, now),
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

    /// Visits every cached path by reference. A link cache has no
    /// materialized paths, so it visits its shortest-path tree, built in
    /// its reusable search storage. Once warmed up, neither allocates
    /// except to build a link-cache route past the inline limit.
    pub fn for_each_path(&self, f: impl FnMut(&SourceRoute)) {
        match self {
            RouteCache::Path(c) => c.for_each_path(f),
            RouteCache::Link(c) => c.for_each_path(f),
        }
    }
}

/// The path cache as it was before its miss path was made cheap: LRU
/// stamps inline in each entry, the loop check run again when storing,
/// lanes grown by doubling. [`tests::path_cache_matches_its_reference_model`]
/// drives it and [`PathCache`] with the same operations.
#[cfg(test)]
mod model {
    use super::{node_mask, path_key, CacheConfig};
    use crate::route::SourceRoute;
    use rcast_engine::{NodeId, SimTime};

    struct Entry {
        path: SourceRoute,
        inserted_at: SimTime,
        last_used: SimTime,
    }

    pub struct ModelCache {
        owner: NodeId,
        cfg: CacheConfig,
        entries: Vec<Entry>,
        keys: Vec<u64>,
        masks: Vec<u64>,
        last_hit: usize,
    }

    impl ModelCache {
        pub fn new(owner: NodeId, cfg: CacheConfig) -> Self {
            ModelCache {
                owner,
                cfg,
                entries: Vec::new(),
                keys: Vec::new(),
                masks: Vec::new(),
                last_hit: 0,
            }
        }

        pub fn observe_path(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
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
            let lh = self.last_hit;
            if lh < self.keys.len()
                && self.keys[lh] == key
                && self.entries[lh].path.nodes() == slice
            {
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

        pub fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<SourceRoute> {
            self.purge_expired(now);
            let dst_bit = 1u64 << (dst.index() & 63);
            let mut best: Option<(usize, usize, SimTime)> = None;
            for (i, e) in self.entries.iter().enumerate() {
                if self.masks[i] & dst_bit == 0 {
                    continue;
                }
                let Some(pos) = e.path.position_of(dst) else {
                    continue;
                };
                if pos == 0 {
                    continue;
                }
                match best {
                    Some((_, bh, bt)) if bh < pos || (bh == pos && bt >= e.inserted_at) => {}
                    _ => best = Some((i, pos, e.inserted_at)),
                }
            }
            let (idx, _, _) = best?;
            self.entries[idx].last_used = now;
            self.entries[idx].path.prefix_to(dst)
        }

        pub fn has_route(&self, dst: NodeId) -> bool {
            self.entries
                .iter()
                .any(|e| e.path.position_of(dst).is_some_and(|p| p > 0))
        }

        pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> usize {
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

        pub fn purge_expired(&mut self, now: SimTime) {
            if let Some(ttl) = self.cfg.timeout {
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

        pub fn paths(&self) -> Vec<Vec<NodeId>> {
            self.entries
                .iter()
                .map(|e| e.path.nodes().to_vec())
                .collect()
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
    fn first_insert_reserves_at_most_the_limit() {
        // Any positive capacity is a valid configuration; reserving it
        // whole would abort on the first insert.
        let cfg = CacheConfig {
            capacity: usize::MAX,
            ..CacheConfig::default()
        };
        let mut c = PathCache::new(NodeId::new(0), cfg);
        assert!(c.insert(route(&[0, 1]), SimTime::ZERO));
        assert_eq!(c.entries.capacity(), RESERVE_LIMIT);
        let past = RESERVE_LIMIT as u32 + 9;
        for i in 2..=past {
            assert!(c.insert(route(&[0, i]), SimTime::ZERO));
        }
        assert_eq!(c.len(), past as usize, "past the reserve, lanes still grow");
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

    /// A node sequence over a small id pool, so paths repeat, share
    /// links and collide in the 64-bit node mask (ids 64+ alias 0..).
    /// With `loop_free` the ids are distinct; otherwise the sequence may
    /// repeat a node or miss the owner.
    fn draw_path(g: &mut rcast_testkit::Gen, loop_free: bool) -> Vec<NodeId> {
        const POOL: [u32; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 64, 65, 71];
        let len = g.usize_range(1, 8);
        let mut ids: Vec<NodeId> = Vec::with_capacity(len);
        while ids.len() < len {
            let id = NodeId::new(POOL[g.usize_range(0, POOL.len())]);
            if !(loop_free && ids.contains(&id)) {
                ids.push(id);
            }
        }
        ids
    }

    /// Random operation sequences give [`PathCache`] and the reference
    /// model the same return values and the same storage order after
    /// every step: the stamp lane, the single validation and the
    /// allocate-once storage change no path, order or tie-break.
    #[test]
    fn path_cache_matches_its_reference_model() {
        use rcast_testkit::{prop_assert_eq, Check};
        Check::new("path_cache_matches_its_reference_model")
            .cases(256)
            .run(|g| {
                let capacity = [1, 2, 8, 64][g.usize_range(0, 4)];
                let timeout = g.bool().then(|| SimDuration::from_secs(g.u64_range(1, 20)));
                let cfg = CacheConfig {
                    capacity,
                    timeout,
                    ..CacheConfig::default()
                };
                let owner = NodeId::new(0);
                let mut cache = PathCache::new(owner, cfg);
                let mut model = model::ModelCache::new(owner, cfg);
                let mut now = SimTime::ZERO;
                for step in 0..g.len(1, 400) {
                    // Equal stamps are common, so LRU ties are exercised.
                    now += SimDuration::from_secs(g.u64_range(0, 3));
                    let dst = NodeId::new(
                        [0, 1, 2, 3, 4, 5, 6, 7, 8, 64, 65, 71, 9][g.usize_range(0, 13)],
                    );
                    let (what, got, want): (&str, usize, usize) = match g.usize_range(0, 7) {
                        0 | 1 => {
                            let p = draw_path(g, false);
                            let got = cache.observe_path(&p, now);
                            ("observe", got.into(), model.observe_path(&p, now).into())
                        }
                        2 | 3 => {
                            let p = draw_path(g, true);
                            let got = if SourceRoute::is_valid_path(&p) {
                                cache.observe_valid_path(&p, now)
                            } else {
                                cache.observe_path(&p, now) // a lone node: not a path
                            };
                            (
                                "trusted observe",
                                got.into(),
                                model.observe_path(&p, now).into(),
                            )
                        }
                        4 => {
                            let got = cache.find_route(dst, now);
                            let want = model.find_route(dst, now);
                            prop_assert_eq!(&got, &want, "step {step}: find_route({dst})");
                            ("find_route", got.is_some().into(), want.is_some().into())
                        }
                        5 => {
                            let (a, b) = (draw_path(g, false)[0], dst);
                            (
                                "remove_link",
                                cache.remove_link(a, b),
                                model.remove_link(a, b),
                            )
                        }
                        _ => {
                            cache.purge_expired(now);
                            model.purge_expired(now);
                            (
                                "has_route",
                                cache.has_route(dst).into(),
                                model.has_route(dst).into(),
                            )
                        }
                    };
                    prop_assert_eq!(got, want, "step {step}: {what}");
                    let mut stored = Vec::new();
                    cache.for_each_path(|p| stored.push(p.nodes().to_vec()));
                    prop_assert_eq!(
                        stored,
                        model.paths(),
                        "step {step}: storage order after {what}"
                    );
                }
                Ok(())
            });
    }
}
