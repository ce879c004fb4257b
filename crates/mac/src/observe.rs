//! Interval-resolution observer: a tap on the MAC's per-interval
//! decisions for structured tracing.
//!
//! The resolver already *counts* everything in
//! [`MacCounters`](crate::MacCounters); an observer additionally sees
//! *which* node did what, *when*.
//! [`MacLayer::run_interval`](crate::MacLayer::run_interval) is generic
//! over its observer, so every hook call is static and can inline.
//! Every hook has a no-op default: callers with nobody listening pass
//! [`NullMacObserver`], whose calls compile away.
//!
//! Implementations must not allocate per call if they are driven from
//! the simulation hot loop (DESIGN.md §10); the event ledger records
//! into pre-sized buffers.

use rcast_engine::{NodeId, SimDuration, SimTime};

/// Receives one callback per MAC decision during interval resolution.
///
/// `at` arguments are exact simulated instants: ATIM-phase decisions
/// carry the interval start, data-phase decisions carry the scheduled
/// on-air time.
pub trait MacObserver {
    /// A unicast ATIM from `sender` to `to` was acknowledged.
    fn atim_unicast(&mut self, _at: SimTime, _sender: NodeId, _to: NodeId) {}

    /// A broadcast ATIM from `sender` went out.
    fn atim_broadcast(&mut self, _at: SimTime, _sender: NodeId) {}

    /// A unicast ATIM from `sender` to `to` drew no acknowledgment.
    fn atim_no_ack(&mut self, _at: SimTime, _sender: NodeId, _to: NodeId) {}

    /// An advertisement by `sender` was deferred for lack of
    /// ATIM-window airtime.
    fn atim_deferred(&mut self, _at: SimTime, _sender: NodeId) {}

    /// `sender` declared its link to `to` broken after repeated silent
    /// ATIMs; the queued frames go back to the network layer.
    fn link_broken(&mut self, _at: SimTime, _sender: NodeId, _to: NodeId) {}

    /// Randomized overhearer `node` elected to stay awake for
    /// `sender`'s announced transfer — the Rcast coin flip came up
    /// heads.
    fn overhear_commit(&mut self, _at: SimTime, _node: NodeId, _sender: NodeId) {}

    /// `sender` was granted `dur` of data-window airtime starting at
    /// `at`. Fired for every granted reservation, including transfers
    /// subsequently destroyed by injected loss — the airtime is spent
    /// either way.
    fn airtime_reserved(&mut self, _at: SimTime, _sender: NodeId, _dur: SimDuration) {}

    /// A granted transfer from `sender` to `to` was destroyed by
    /// injected channel loss; the frame stays queued.
    fn data_lost(&mut self, _at: SimTime, _sender: NodeId, _to: NodeId) {}

    /// An announced transfer by `sender` did not fit the data window.
    fn data_deferred(&mut self, _at: SimTime, _sender: NodeId) {}
}

/// The observer that observes nothing. Every hook keeps its no-op
/// default, so the optimizer erases the calls entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMacObserver;

impl MacObserver for NullMacObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Tally {
        calls: usize,
    }

    impl MacObserver for Tally {
        fn atim_unicast(&mut self, _at: SimTime, _s: NodeId, _t: NodeId) {
            self.calls += 1;
        }
    }

    #[test]
    fn defaults_are_no_ops_and_overrides_fire() {
        let mut null = NullMacObserver;
        null.atim_unicast(SimTime::ZERO, NodeId::new(0), NodeId::new(1));
        null.data_deferred(SimTime::ZERO, NodeId::new(0));

        let mut tally = Tally::default();
        tally.atim_unicast(SimTime::ZERO, NodeId::new(0), NodeId::new(1));
        tally.atim_deferred(SimTime::ZERO, NodeId::new(0)); // default no-op
        assert_eq!(tally.calls, 1);
    }
}
