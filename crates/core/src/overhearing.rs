//! The RandomCast overhearing decision engine.
//!
//! Section 3.2 of the paper lists four criteria for the probabilistic
//! overhearing decision a PS node makes when it hears a
//! randomized-overhearing ATIM:
//!
//! 1. **Number of neighbors** — the more neighbors, the likelier one of
//!    them overhears instead: `P_R = 1 / #neighbors`. This is the only
//!    factor the paper's evaluation enables, and the default here.
//! 2. **Sender ID** — senders repeat the same route information in
//!    consecutive packets, so overhearing a sender that was heard
//!    recently is redundant; a sender unheard for a while is
//!    deterministically overheard.
//! 3. **Mobility** — under high mobility, overheard routes go stale
//!    quickly, so overhear more conservatively.
//! 4. **Remaining battery energy** — low battery, less overhearing.
//!
//! [`RcastDecider`] implements all four as composable multipliers so the
//! ablation benches can measure each one's contribution (the paper
//! leaves 2–4 as future work).

use std::collections::HashMap;

use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_mobility::NeighborTable;

/// Which decision factors are active, plus their tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverhearFactors {
    /// Factor 1: `P_R = 1 / #neighbors` (the paper's evaluated scheme).
    pub neighbors: bool,
    /// Factor 2: deterministically overhear senders not heard recently.
    pub sender_id: bool,
    /// Factor 3: scale the probability down with local link churn.
    pub mobility: bool,
    /// Factor 4: scale the probability with remaining battery fraction.
    pub battery: bool,
    /// Silence threshold for the sender-ID factor.
    pub sender_silence: SimDuration,
    /// Receiving probability for randomized *broadcasts* (the paper's
    /// broadcast extension; must stay conservative so RREQs still
    /// propagate). `1.0` disables the extension.
    pub broadcast_probability: f64,
}

impl Default for OverhearFactors {
    /// The paper's evaluated configuration: neighbor count only.
    fn default() -> Self {
        OverhearFactors {
            neighbors: true,
            sender_id: false,
            mobility: false,
            battery: false,
            sender_silence: SimDuration::from_secs(10),
            broadcast_probability: 1.0,
        }
    }
}

impl OverhearFactors {
    /// Validates the tuning knobs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.broadcast_probability) {
            return Err(format!(
                "broadcast probability {} outside [0,1]",
                self.broadcast_probability
            ));
        }
        if self.sender_id && self.sender_silence.is_zero() {
            return Err("sender-ID factor needs a positive silence threshold".into());
        }
        Ok(())
    }
}

/// The stateful Rcast decision engine shared by all nodes.
///
/// Nodes do not need private deciders: decisions are independent draws,
/// and per-observer state (last-heard tables, mobility estimates,
/// battery fractions) is indexed by node id.
///
/// # Example
///
/// ```
/// use rcast_core::{OverhearFactors, RcastDecider};
/// use rcast_engine::{NodeId, SimTime, rng::StreamRng};
/// use rcast_mobility::{Area, NeighborTable, Snapshot, Vec2};
///
/// let snap = Snapshot::from_positions(
///     vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0), Vec2::new(200.0, 0.0)],
///     Area::new(1000.0, 10.0), SimTime::ZERO);
/// let nt = NeighborTable::build(&snap, 250.0);
/// let mut decider = RcastDecider::new(3, OverhearFactors::default(), StreamRng::from_seed(1));
/// // Node 0 has 2 neighbors, so it overhears with probability 1/2.
/// let hits: usize = (0..1000)
///     .filter(|_| decider.decide(NodeId::new(0), NodeId::new(1), &nt, SimTime::ZERO))
///     .count();
/// assert!(hits > 400 && hits < 600);
/// ```
#[derive(Debug, Clone)]
pub struct RcastDecider {
    factors: OverhearFactors,
    rng: StreamRng,
    /// Per observer: sender → when last heard (sender-ID factor).
    last_heard: Vec<HashMap<NodeId, SimTime>>,
    /// Per node: smoothed link changes per interval (mobility factor).
    link_churn: Vec<f64>,
    /// Per node: remaining battery fraction in `[0, 1]` (battery factor).
    battery_fraction: Vec<f64>,
}

impl RcastDecider {
    /// A decider for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `factors` fail [`OverhearFactors::validate`].
    pub fn new(n: usize, factors: OverhearFactors, rng: StreamRng) -> Self {
        if let Err(e) = factors.validate() {
            panic!("invalid overhearing factors: {e}");
        }
        RcastDecider {
            factors,
            rng,
            last_heard: vec![HashMap::new(); n],
            link_churn: vec![0.0; n],
            battery_fraction: vec![1.0; n],
        }
    }

    /// The active factor set.
    pub fn factors(&self) -> OverhearFactors {
        self.factors
    }

    /// The probability `observer` would use right now (before the
    /// sender-ID short-circuit). Exposed for tests and analysis.
    pub fn probability(&self, observer: NodeId, nt: &NeighborTable) -> f64 {
        let mut p = 1.0;
        if self.factors.neighbors {
            p /= nt.degree(observer).max(1) as f64;
        }
        if self.factors.mobility {
            p /= 1.0 + self.link_churn[observer.index()];
        }
        if self.factors.battery {
            p *= self.battery_fraction[observer.index()];
        }
        p.clamp(0.0, 1.0)
    }

    /// The randomized-overhearing decision for `observer` on an ATIM
    /// advertised by `sender`.
    pub fn decide(
        &mut self,
        observer: NodeId,
        sender: NodeId,
        nt: &NeighborTable,
        now: SimTime,
    ) -> bool {
        if self.factors.sender_id {
            let heard = self.last_heard[observer.index()].get(&sender).copied();
            let silent = match heard {
                None => true,
                Some(t) => now.saturating_since(t) >= self.factors.sender_silence,
            };
            if silent {
                // An unheard sender means new traffic or too many skipped
                // packets: overhear deterministically (Section 3.2).
                self.note_heard(observer, sender, now);
                return true;
            }
        }
        let p = self.probability(observer, nt);
        let yes = self.rng.chance(p);
        if yes {
            self.note_heard(observer, sender, now);
        }
        yes
    }

    /// The randomized *broadcast* receiving decision (the paper's
    /// broadcast extension — conservative by construction).
    pub fn decide_broadcast(&mut self, _observer: NodeId, _sender: NodeId) -> bool {
        self.rng.chance(self.factors.broadcast_probability)
    }

    /// Records that `observer` actually heard `sender` (reception or
    /// overhearing) — feeds the sender-ID factor.
    pub fn note_heard(&mut self, observer: NodeId, sender: NodeId, now: SimTime) {
        if self.factors.sender_id {
            self.last_heard[observer.index()].insert(sender, now);
        }
    }

    /// Feeds the mobility factor with this interval's link changes,
    /// exponentially smoothed (α = 0.25).
    pub fn note_link_changes(&mut self, node: NodeId, changes: usize) {
        let churn = &mut self.link_churn[node.index()];
        *churn = 0.75 * *churn + 0.25 * changes as f64;
    }

    /// Feeds the battery factor.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn note_battery(&mut self, node: NodeId, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "battery fraction {fraction} outside [0,1]"
        );
        self.battery_fraction[node.index()] = fraction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcast_mobility::{Area, Snapshot, Vec2};

    fn line_nt(xs: &[f64]) -> NeighborTable {
        let snap = Snapshot::from_positions(
            xs.iter().map(|&x| Vec2::new(x, 0.0)).collect(),
            Area::new(100_000.0, 10.0),
            SimTime::ZERO,
        );
        NeighborTable::build(&snap, 250.0)
    }

    fn decider(n: usize, factors: OverhearFactors, seed: u64) -> RcastDecider {
        RcastDecider::new(n, factors, StreamRng::from_seed(seed))
    }

    #[test]
    fn probability_is_one_over_degree() {
        // A 6-node clique: every node has 5 neighbors.
        let nt = line_nt(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
        let d = decider(6, OverhearFactors::default(), 0);
        assert!((d.probability(NodeId::new(0), &nt) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn isolated_node_has_probability_one() {
        let nt = line_nt(&[0.0, 100_000.0 - 1.0]);
        let d = decider(2, OverhearFactors::default(), 0);
        assert_eq!(d.probability(NodeId::new(0), &nt), 1.0);
    }

    #[test]
    fn empirical_rate_matches_probability() {
        let nt = line_nt(&[0.0, 10.0, 20.0, 30.0]); // degree 3 each
        let mut d = decider(4, OverhearFactors::default(), 42);
        let n = 30_000;
        let hits = (0..n)
            .filter(|_| d.decide(NodeId::new(0), NodeId::new(1), &nt, SimTime::ZERO))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 1.0 / 3.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn sender_id_factor_short_circuits_unheard_senders() {
        let nt = line_nt(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]);
        let factors = OverhearFactors {
            sender_id: true,
            ..OverhearFactors::default()
        };
        let mut d = decider(8, factors, 7);
        // First encounter: always overhear.
        assert!(d.decide(NodeId::new(0), NodeId::new(1), &nt, SimTime::ZERO));
        // Immediately after, the sender is "recently heard": probabilistic
        // again (1/7 each; over many trials some fail).
        let hits = (0..1000)
            .filter(|_| {
                d.note_heard(NodeId::new(0), NodeId::new(1), SimTime::from_secs(1));
                d.decide(NodeId::new(0), NodeId::new(1), &nt, SimTime::from_secs(1))
            })
            .count();
        assert!(hits < 400, "recently-heard sender must not short-circuit");
        // After a long silence: deterministic again.
        assert!(d.decide(
            NodeId::new(0),
            NodeId::new(1),
            &nt,
            SimTime::from_secs(1000)
        ));
    }

    #[test]
    fn mobility_factor_reduces_probability() {
        let nt = line_nt(&[0.0, 10.0]);
        let factors = OverhearFactors {
            neighbors: false,
            mobility: true,
            ..OverhearFactors::default()
        };
        let mut d = decider(2, factors, 1);
        assert_eq!(d.probability(NodeId::new(0), &nt), 1.0);
        for _ in 0..50 {
            d.note_link_changes(NodeId::new(0), 8);
        }
        let p = d.probability(NodeId::new(0), &nt);
        assert!(p < 0.2, "high churn must suppress overhearing: {p}");
    }

    #[test]
    fn battery_factor_scales_probability() {
        let nt = line_nt(&[0.0, 10.0]);
        let factors = OverhearFactors {
            neighbors: false,
            battery: true,
            ..OverhearFactors::default()
        };
        let mut d = decider(2, factors, 1);
        d.note_battery(NodeId::new(0), 0.25);
        assert!((d.probability(NodeId::new(0), &nt) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn combined_factors_multiply() {
        let nt = line_nt(&[0.0, 10.0, 20.0]); // degree 2
        let factors = OverhearFactors {
            neighbors: true,
            battery: true,
            ..OverhearFactors::default()
        };
        let mut d = decider(3, factors, 1);
        d.note_battery(NodeId::new(0), 0.5);
        assert!((d.probability(NodeId::new(0), &nt) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn broadcast_probability_controls_extension() {
        let factors = OverhearFactors {
            broadcast_probability: 0.0,
            ..OverhearFactors::default()
        };
        let mut d = decider(2, factors, 3);
        assert!(!d.decide_broadcast(NodeId::new(0), NodeId::new(1)));
        let mut d2 = decider(2, OverhearFactors::default(), 3);
        assert!(d2.decide_broadcast(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let nt = line_nt(&[0.0, 10.0, 20.0, 30.0]);
        let run = |seed| {
            let mut d = decider(4, OverhearFactors::default(), seed);
            (0..100)
                .map(|_| d.decide(NodeId::new(0), NodeId::new(1), &nt, SimTime::ZERO))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn validation() {
        assert!(OverhearFactors::default().validate().is_ok());
        assert!(OverhearFactors {
            broadcast_probability: 1.5,
            ..OverhearFactors::default()
        }
        .validate()
        .is_err());
        assert!(OverhearFactors {
            sender_id: true,
            sender_silence: SimDuration::ZERO,
            ..OverhearFactors::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic]
    fn battery_fraction_out_of_range_panics() {
        let mut d = decider(1, OverhearFactors::default(), 0);
        d.note_battery(NodeId::new(0), 1.5);
    }
}
