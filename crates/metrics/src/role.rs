//! Role numbers: the paper's packet-forwarding-influence metric.
//!
//! Section 4.2 defines a node's *role number* as "a measure of the
//! extent to which the node lies on the paths between others",
//! calculated by examining every node's route cache and counting the
//! intermediate nodes stored there. The simulation core samples every
//! node's cache once a simulated second and accumulates the counts,
//! which integrates cache contents over the run as the paper describes.

use rcast_engine::NodeId;

/// Accumulates role numbers over a run.
///
/// # Example
///
/// ```
/// use rcast_engine::NodeId;
/// use rcast_metrics::RoleNumbers;
///
/// let mut roles = RoleNumbers::new(4);
/// // A route 0→1→2→3 was cached somewhere: 1 and 2 are intermediates.
/// roles.record_cached_route(&[0, 1, 2, 3].map(NodeId::new));
/// assert_eq!(roles.role(NodeId::new(1)), 1);
/// assert_eq!(roles.role(NodeId::new(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleNumbers {
    counts: Vec<u64>,
}

impl RoleNumbers {
    /// Zeroed counters for `n` nodes.
    pub fn new(n: usize) -> Self {
        RoleNumbers {
            counts: vec![0; n],
        }
    }

    /// Records a route inserted into some node's cache: every
    /// intermediate node's role number increments.
    pub fn record_cached_route(&mut self, route: &[NodeId]) {
        if route.len() < 3 {
            return; // one-hop routes have no intermediates
        }
        for &node in &route[1..route.len() - 1] {
            self.counts[node.index()] += 1;
        }
    }

    /// The role number of one node.
    pub fn role(&self, node: NodeId) -> u64 {
        self.counts[node.index()]
    }

    /// All role numbers, indexed by node id.
    pub fn all(&self) -> &[u64] {
        &self.counts
    }

    /// The largest role number — Fig. 9 compares maxima (~500 for ODPM
    /// vs ~300 for Rcast at high rate).
    pub fn max_role(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Merges counts from another accumulator (multi-seed runs).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &RoleNumbers) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn endpoints_do_not_count() {
        let mut r = RoleNumbers::new(5);
        r.record_cached_route(&ids(&[0, 1, 2]));
        assert_eq!(r.role(NodeId::new(0)), 0);
        assert_eq!(r.role(NodeId::new(1)), 1);
        assert_eq!(r.role(NodeId::new(2)), 0);
    }

    #[test]
    fn one_hop_routes_add_nothing() {
        let mut r = RoleNumbers::new(3);
        r.record_cached_route(&ids(&[0, 1]));
        assert_eq!(r.all(), &[0, 0, 0]);
    }

    #[test]
    fn accumulation_and_max() {
        let mut r = RoleNumbers::new(4);
        r.record_cached_route(&ids(&[0, 1, 2, 3]));
        r.record_cached_route(&ids(&[3, 1, 0]));
        r.record_cached_route(&ids(&[0, 1, 3]));
        assert_eq!(r.role(NodeId::new(1)), 3);
        assert_eq!(r.role(NodeId::new(2)), 1);
        assert_eq!(r.max_role(), 3);
        assert_eq!(r.all(), [0, 3, 1, 0]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = RoleNumbers::new(3);
        a.record_cached_route(&ids(&[0, 1, 2]));
        let mut b = RoleNumbers::new(3);
        b.record_cached_route(&ids(&[2, 1, 0]));
        a.merge(&b);
        assert_eq!(a.role(NodeId::new(1)), 2);
    }

    #[test]
    fn empty_max_is_zero() {
        assert_eq!(RoleNumbers::new(0).max_role(), 0);
    }
}
