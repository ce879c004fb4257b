//! Property-based tests for DSR's route cache and source routes, on the
//! in-tree `rcast-testkit` harness (hermetic: no proptest).

use rcast_dsr::{CacheConfig, NodePath, RouteCache, SourceRoute, INLINE_IDS};
use rcast_engine::{NodeId, SimTime};
use rcast_testkit::{prop_assert, prop_assert_eq, Check, Gen};

/// Generator: a loop-free route of 2..=40 nodes drawn from ids 0..96,
/// so routes cross the inline/spill boundary ([`INLINE_IDS`]) and reach
/// ids ≥ 64, where the cache's 64-bit node mask aliases.
/// Returns `None` when the draw collapses below two distinct nodes.
fn route(g: &mut Gen) -> Option<SourceRoute> {
    let ids = g.vec(2, 41, |g| g.u32_range(0, 96));
    let mut seen = std::collections::HashSet::new();
    let nodes: Vec<NodeId> = ids
        .into_iter()
        .filter(|&i| seen.insert(i))
        .map(NodeId::new)
        .collect();
    SourceRoute::new(nodes)
}

/// Generator: keeps drawing until a valid route appears.
fn some_route(g: &mut Gen) -> SourceRoute {
    loop {
        if let Some(r) = route(g) {
            return r;
        }
    }
}

/// Reversal is an involution and preserves hop count.
#[test]
fn reverse_involution() {
    Check::new("reverse_involution").run(|g| {
        let r = some_route(g);
        prop_assert_eq!(r.reversed().reversed(), r.clone());
        prop_assert_eq!(r.reversed().hop_count(), r.hop_count());
        prop_assert_eq!(r.reversed().origin(), r.destination());
        Ok(())
    });
}

/// Every node on the route except the destination has a next hop,
/// and following next hops walks the whole route.
#[test]
fn next_hops_walk_the_route() {
    Check::new("next_hops_walk_the_route").run(|g| {
        let r = some_route(g);
        let mut cur = r.origin();
        let mut walked = vec![cur];
        while let Some(next) = r.next_hop_after(cur) {
            walked.push(next);
            cur = next;
        }
        prop_assert_eq!(&walked[..], r.nodes());
        prop_assert_eq!(cur, r.destination());
        Ok(())
    });
}

/// Splicing prefix_to(x) with suffix_from(x) reconstructs the route.
#[test]
fn prefix_suffix_splice_identity() {
    Check::new("prefix_suffix_splice_identity").run(|g| {
        let r = some_route(g);
        for &x in r.intermediates() {
            let prefix = r.prefix_to(x).expect("intermediate has a prefix");
            let suffix = r.suffix_from(x).expect("intermediate has a suffix");
            prop_assert_eq!(prefix.spliced_with(&suffix), Some(r.clone()));
        }
        Ok(())
    });
}

/// Whatever is inserted, every cached path starts at the owner and
/// the cache never exceeds its capacity.
#[test]
fn cache_invariants() {
    Check::new("cache_invariants").run(|g| {
        let routes = g.vec(1, 40, some_route);
        let capacity = g.usize_range(1, 16);
        let owner = NodeId::new(0);
        let mut cache = RouteCache::new(
            owner,
            CacheConfig {
                capacity,
                ..CacheConfig::default()
            },
        );
        for (i, r) in routes.iter().enumerate() {
            cache.insert(r.clone(), SimTime::from_secs(i as u64));
            prop_assert!(cache.len() <= capacity);
        }
        for path in cache.paths() {
            prop_assert_eq!(path.origin(), owner);
        }
        Ok(())
    });
}

/// `find_route` returns a route from the owner to the destination,
/// and never one using a removed link.
#[test]
fn find_route_is_correct_and_respects_removals() {
    Check::new("find_route_is_correct_and_respects_removals").run(|g| {
        let routes = g.vec(1, 30, some_route);
        let dst = NodeId::new(g.u32_range(1, 20));
        let link = (
            NodeId::new(g.u32_range(0, 20)),
            NodeId::new(g.u32_range(0, 20)),
        );
        let owner = NodeId::new(0);
        let mut cache = RouteCache::new(owner, CacheConfig::default());
        for r in &routes {
            cache.insert(r.clone(), SimTime::ZERO);
        }
        if let Some(found) = cache.find_route(dst, SimTime::from_secs(1)) {
            prop_assert_eq!(found.origin(), owner);
            prop_assert_eq!(found.destination(), dst);
        }
        let (a, b) = link;
        cache.remove_link(a, b);
        if let Some(found) = cache.find_route(dst, SimTime::from_secs(2)) {
            prop_assert!(!found.uses_link(a, b), "returned a route over a dead link");
        }
        Ok(())
    });
}

/// Shortest-route preference: with a direct 1-hop route cached, the
/// cache never prefers a longer alternative.
#[test]
fn shortest_route_preferred() {
    Check::new("shortest_route_preferred").run(|g| {
        let routes = g.vec(0, 20, some_route);
        let dst = NodeId::new(g.u32_range(1, 20));
        let owner = NodeId::new(0);
        let mut cache = RouteCache::new(
            owner,
            CacheConfig {
                capacity: 64,
                ..CacheConfig::default()
            },
        );
        for r in &routes {
            cache.insert(r.clone(), SimTime::ZERO);
        }
        cache.insert(
            SourceRoute::new(vec![owner, dst]).expect("direct route"),
            SimTime::from_secs(1),
        );
        let found = cache
            .find_route(dst, SimTime::from_secs(2))
            .expect("direct route cached");
        prop_assert_eq!(found.hop_count(), 1);
        Ok(())
    });
}

/// `len` distinct ids drawn from 0..96.
fn distinct_ids(g: &mut Gen, len: usize) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(len);
    while ids.len() < len {
        let id = NodeId::new(g.u32_range(0, 96));
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// A length in 2..=40 that lands on the inline/spill boundary (one below,
/// at or one past [`INLINE_IDS`]) in about half the cases.
fn boundary_len(g: &mut Gen) -> usize {
    if g.bool() {
        g.usize_range(INLINE_IDS - 1, INLINE_IDS + 2)
    } else {
        g.usize_range(2, 41)
    }
}

/// Every route operation agrees with the same operation on a plain
/// `Vec<NodeId>`, for routes on both sides of the inline/spill boundary.
#[test]
fn route_operations_match_a_vec_model() {
    Check::new("route_operations_match_a_vec_model").run(|g| {
        let len = boundary_len(g);
        let v = distinct_ids(g, len);
        let n = v.len();
        let path = NodePath::from_slice(&v);
        prop_assert_eq!(path.as_slice(), &v[..]);
        prop_assert_eq!(&path, &v.iter().copied().collect::<NodePath>());
        let r = SourceRoute::from_path(path).expect("distinct ids form a route");
        prop_assert_eq!(r.nodes(), &v[..]);
        prop_assert_eq!(SourceRoute::new(v.clone()), Some(r.clone()));
        prop_assert_eq!(r.origin(), v[0]);
        prop_assert_eq!(r.destination(), v[n - 1]);
        prop_assert_eq!(r.hop_count(), n - 1);
        prop_assert_eq!(r.intermediates(), &v[1..n - 1]);
        let rev: Vec<NodeId> = v.iter().rev().copied().collect();
        let reversed = r.reversed();
        prop_assert_eq!(reversed.nodes(), &rev[..]);
        // Every member, plus one id that is not on the route.
        let outsider = NodeId::new(96);
        for (i, &x) in v.iter().chain([&outsider]).enumerate() {
            let on = i < n;
            prop_assert_eq!(r.position_of(x), on.then_some(i));
            prop_assert_eq!(r.contains(x), on);
            prop_assert_eq!(r.next_hop_after(x), v.get(i + 1).copied().filter(|_| on));
            prop_assert_eq!(r.prev_hop_before(x), (on && i > 0).then(|| v[i - 1]));
            let suffix = r.suffix_from(x);
            prop_assert_eq!(
                suffix.as_ref().map(|s| s.nodes()),
                (on && i + 1 < n).then(|| &v[i..])
            );
            let prefix = r.prefix_to(x);
            prop_assert_eq!(
                prefix.as_ref().map(|p| p.nodes()),
                (on && i > 0).then(|| &v[..=i])
            );
        }
        let (a, b) = (v[g.usize_range(0, n)], v[g.usize_range(0, n)]);
        let model_uses = v
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a));
        prop_assert_eq!(r.uses_link(a, b), model_uses);
        // Splicing any split back together rebuilds the route; a tail
        // that revisits the head is rejected.
        let k = g.usize_range(1, n);
        let head = SourceRoute::from_slice(&v[..=k]).expect("prefix");
        if k + 1 < n {
            let tail = SourceRoute::from_slice(&v[k..]).expect("suffix");
            prop_assert_eq!(head.spliced_with(&tail), Some(r.clone()));
        }
        let looped = SourceRoute::from_slice(&[v[k], v[0]]).expect("two distinct ids");
        prop_assert_eq!(head.spliced_with(&looped), None);
        // A repeated id makes the sequence invalid, whatever its length.
        let mut dup = v.clone();
        dup.push(v[g.usize_range(0, n)]);
        prop_assert!(SourceRoute::from_slice(&dup).is_none());
        Ok(())
    });
}
