//! The machinery both on-demand routing protocols share.
//!
//! DSR and AODV discover routes alike: a packet with no route waits in a
//! send buffer while its source floods requests in expanding rings, and
//! every node drops request copies it has seen. [`OnDemand`] holds that
//! state in flat lanes that stop allocating once warm; each protocol
//! keeps its packets, built from [`Event`]s, and its [`RingSchedule`].

use crate::{NodeId, SimDuration, SimTime};

/// A data packet parked at its source while a route is sought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parked {
    /// Flow identifier.
    pub flow: u32,
    /// Sequence within the flow.
    pub seq: u64,
    /// The destination a route is sought for.
    pub dst: NodeId,
    /// Payload size, octets.
    pub payload_bytes: usize,
    /// When the application generated the packet.
    pub generated_at: SimTime,
    /// When the packet entered the buffer: its timeout runs from here.
    pub buffered_at: SimTime,
}

/// One round of an expanding-ring search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    /// The round's number, as the schedule counts rounds.
    pub round: u32,
    /// The request's TTL.
    pub ttl: u8,
    /// How long to wait for a reply before the next round.
    pub timeout: SimDuration,
}

/// A protocol's expanding-ring search.
pub trait RingSchedule {
    /// The round after `prev`, or the first round when `prev` is
    /// `None`; `None` gives the discovery up.
    fn next_ring(&self, prev: Option<&Ring>) -> Option<Ring>;
}

/// What [`OnDemand::park`] and [`OnDemand::tick`] hand the protocol,
/// in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The packet waited in the buffer past its timeout.
    Expired(Parked),
    /// The packet's discovery gave up.
    Abandoned(Parked),
    /// Flood a route request for `target`; its `id` is already taken
    /// and marked seen.
    Flood {
        /// The sought destination.
        target: NodeId,
        /// The request's TTL.
        ttl: u8,
        /// The request id, unique per origin.
        id: u32,
    },
}

/// Duplicate-RREQ filter with the semantics of a never-pruned
/// `BTreeSet<(NodeId, u32)>`, stored as inclusive `(origin, lo, hi)`
/// runs sorted by `(origin, lo)`, disjoint and never adjacent. Request
/// ids are monotone per origin and never reused, so they compress to a
/// handful of runs: a lookup is one binary search, and an insertion
/// shifts the array in place.
#[derive(Debug, Clone, Default)]
struct SeenRreq {
    runs: Vec<(NodeId, u32, u32)>,
}

impl SeenRreq {
    /// Inserts `(origin, id)`; returns `true` when it was not already
    /// present (mirrors `BTreeSet::insert`).
    #[inline]
    fn insert(&mut self, origin: NodeId, id: u32) -> bool {
        // `pos` is the first run starting after `(origin, id)`; only the
        // run before it can contain `id` or end right below it.
        let pos = self
            .runs
            .partition_point(|&(o, lo, _)| (o, lo) <= (origin, id));
        let prev = pos.checked_sub(1).filter(|&p| self.runs[p].0 == origin);
        if prev.is_some_and(|p| id <= self.runs[p].2) {
            return false; // inside an existing run: duplicate
        }
        let joins_prev = prev.is_some_and(|p| self.runs[p].2.checked_add(1) == Some(id));
        let joins_next = pos < self.runs.len()
            && self.runs[pos].0 == origin
            && id.checked_add(1) == Some(self.runs[pos].1);
        match (joins_prev, joins_next) {
            (true, true) => {
                // Bridges the gap between two runs: merge them.
                self.runs[pos - 1].2 = self.runs[pos].2;
                self.runs.remove(pos);
            }
            (true, false) => self.runs[pos - 1].2 = id,
            (false, true) => self.runs[pos].1 = id,
            (false, false) => self.runs.insert(pos, (origin, id, id)),
        }
        true
    }
}

/// One node's on-demand routing state: send buffer, discovery table,
/// duplicate-RREQ filter and request-id sequence.
#[derive(Debug, Clone)]
pub struct OnDemand {
    owner: NodeId,
    buffer: Vec<Parked>,
    /// Outstanding discoveries (target, round, deadline) by target.
    discoveries: Vec<(NodeId, Ring, SimTime)>,
    seen: SeenRreq,
    next_rreq_id: u32,
}

impl OnDemand {
    /// Empty state for node `owner`.
    #[inline]
    pub fn new(owner: NodeId) -> Self {
        OnDemand {
            owner,
            buffer: Vec::new(),
            discoveries: Vec::new(),
            seen: SeenRreq::default(),
            next_rreq_id: 0,
        }
    }

    /// Packets currently parked.
    #[inline]
    pub fn parked(&self) -> usize {
        self.buffer.len()
    }

    /// `true` while a discovery for `target` is outstanding.
    #[inline]
    pub fn discovering(&self, target: NodeId) -> bool {
        slot(&self.discoveries, target).is_ok()
    }

    /// Records a sighting of request `(origin, id)`; `true` the first
    /// time, `false` for every duplicate.
    #[inline]
    pub fn first_sighting(&mut self, origin: NodeId, id: u32) -> bool {
        self.seen.insert(origin, id)
    }

    /// Parks `p`, or hands it back as `Err` when `capacity` packets
    /// already wait. A packet whose destination has no discovery running
    /// starts one, clocked from `p.buffered_at`; its request goes to `emit`.
    pub fn park(
        &mut self,
        p: Parked,
        capacity: usize,
        schedule: &impl RingSchedule,
        mut emit: impl FnMut(Event),
    ) -> Result<(), Parked> {
        if self.buffer.len() >= capacity {
            return Err(p);
        }
        self.buffer.push(p);
        if let (Err(at), Some(ring)) = (slot(&self.discoveries, p.dst), schedule.next_ring(None)) {
            let deadline = p.buffered_at + ring.timeout;
            self.discoveries.insert(at, (p.dst, ring, deadline));
            emit(self.flood(p.dst, ring.ttl));
        }
        Ok(())
    }

    /// Ends the discovery for `target`, if any (a reply arrived).
    #[inline]
    pub fn complete(&mut self, target: NodeId) {
        if let Ok(at) = slot(&self.discoveries, target) {
            self.discoveries.remove(at);
        }
    }

    /// Offers every parked packet, in buffer order, to `send`, which
    /// returns `true` when it sent it. Sent packets leave the buffer, in
    /// place, and complete their destination's discovery.
    pub fn drain(&mut self, mut send: impl FnMut(&Parked) -> bool) {
        let discoveries = &mut self.discoveries;
        self.buffer.retain(|p| {
            if !send(p) {
                return true;
            }
            if let Ok(at) = slot(discoveries, p.dst) {
                discoveries.remove(at);
            }
            false
        });
    }

    /// Advances the timers, in this order: packets parked for longer
    /// than `timeout` expire; discoveries with nothing left to send are
    /// cancelled; then each due discovery, in [`NodeId`] order, escalates
    /// to its next round or gives up, abandoning its packets in order.
    pub fn tick(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
        schedule: &impl RingSchedule,
        mut emit: impl FnMut(Event),
    ) {
        let expired = |p: &Parked| now - p.buffered_at > timeout;
        self.drop_parked(expired, &mut |p| emit(Event::Expired(p)));

        let buffer = &self.buffer;
        self.discoveries
            .retain(|(t, _, _)| buffer.iter().any(|p| p.dst == *t));

        let mut i = 0;
        while let Some(&(target, ring, deadline)) = self.discoveries.get(i) {
            if deadline > now {
                i += 1;
            } else if let Some(next) = schedule.next_ring(Some(&ring)) {
                self.discoveries[i] = (target, next, now + next.timeout);
                i += 1;
                emit(self.flood(target, next.ttl));
            } else {
                self.discoveries.remove(i);
                let abandoned = |p: &Parked| p.dst == target;
                self.drop_parked(abandoned, &mut |p| emit(Event::Abandoned(p)));
            }
        }
    }

    /// Wipes all but the request-id sequence — a crash — and returns
    /// the `(flow, seq)` ids of the lost packets. Ids stay monotone, so
    /// no neighbor mistakes a fresh request for a duplicate.
    // det: cold — fault-rejoin lifecycle event: rebuilds node state outside the settled loop
    pub fn reboot(&mut self) -> Vec<(u32, u64)> {
        let lost = self.buffer.iter().map(|p| (p.flow, p.seq)).collect();
        self.buffer.clear();
        self.discoveries.clear();
        self.seen.runs.clear();
        lost
    }

    /// Takes the next request id, marks it seen and describes the flood.
    fn flood(&mut self, target: NodeId, ttl: u8) -> Event {
        let id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.seen.insert(self.owner, id);
        Event::Flood { target, ttl, id }
    }

    /// Removes every parked packet matching `dead`, in buffer order,
    /// handing each to `dropped` first.
    fn drop_parked(&mut self, dead: impl Fn(&Parked) -> bool, dropped: &mut impl FnMut(Parked)) {
        self.buffer.retain(|&p| {
            let keep = !dead(&p);
            if !keep {
                dropped(p);
            }
            keep
        });
    }
}

/// `target`'s slot in a sorted discovery lane (`Err`: where it goes).
#[inline]
fn slot(lane: &[(NodeId, Ring, SimTime)], target: NodeId) -> Result<usize, usize> {
    lane.binary_search_by_key(&target, |&(t, _, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn parked(seq: u64, dst: u32, at_ms: u64) -> Parked {
        Parked {
            flow: 0,
            seq,
            dst: n(dst),
            payload_bytes: 512,
            generated_at: SimTime::from_millis(at_ms),
            buffered_at: SimTime::from_millis(at_ms),
        }
    }

    /// Round `r` waits `r + 1` seconds with TTL `r + 1`; three rounds,
    /// then give up.
    struct Linear;

    impl RingSchedule for Linear {
        fn next_ring(&self, prev: Option<&Ring>) -> Option<Ring> {
            let round = prev.map_or(0, |d| d.round + 1);
            (round < 3).then_some(Ring {
                round,
                ttl: round as u8 + 1,
                timeout: SimDuration::from_secs(u64::from(round) + 1),
            })
        }
    }

    /// Parks `p`, returning the request flood it started.
    fn park(od: &mut OnDemand, p: Parked, capacity: usize) -> Result<Option<Event>, Parked> {
        let mut flood = None;
        od.park(p, capacity, &Linear, |ev| {
            assert!(matches!(ev, Event::Flood { .. }), "park emitted {ev:?}");
            flood = Some(ev);
        })?;
        Ok(flood)
    }

    /// Collects the events of one tick with a 30 s buffer timeout as
    /// comparable tuples.
    fn tick(od: &mut OnDemand, at_ms: u64) -> Vec<(&'static str, u64, u32)> {
        tick_with(od, at_ms, 30)
    }

    fn tick_with(od: &mut OnDemand, at_ms: u64, timeout_s: u64) -> Vec<(&'static str, u64, u32)> {
        let mut events = Vec::new();
        od.tick(
            SimTime::from_millis(at_ms),
            SimDuration::from_secs(timeout_s),
            &Linear,
            |ev| {
                events.push(match ev {
                    Event::Expired(p) => ("expired", p.seq, p.dst.as_u32()),
                    Event::Abandoned(p) => ("abandoned", p.seq, p.dst.as_u32()),
                    Event::Flood { target, ttl, .. } => ("flood", u64::from(ttl), target.as_u32()),
                })
            },
        );
        events
    }

    #[test]
    fn park_starts_one_discovery_per_destination() {
        let mut od = OnDemand::new(n(0));
        let first = park(&mut od, parked(0, 9, 0), 8).unwrap();
        assert_eq!(
            first,
            Some(Event::Flood {
                target: n(9),
                ttl: 1,
                id: 0
            })
        );
        assert_eq!(park(&mut od, parked(1, 9, 5), 8).unwrap(), None);
        let other = park(&mut od, parked(2, 4, 5), 8).unwrap();
        assert_eq!(
            other,
            Some(Event::Flood {
                target: n(4),
                ttl: 1,
                id: 1
            })
        );
        assert!(od.discovering(n(9)) && od.discovering(n(4)));
        // Our own requests count as seen.
        assert!(!od.first_sighting(n(0), 0));
        assert!(!od.first_sighting(n(0), 1));
        assert!(od.first_sighting(n(0), 2));
        // Ids stay monotone across a reboot.
        od.reboot();
        assert!(matches!(
            park(&mut od, parked(3, 4, 6), 8),
            Ok(Some(Event::Flood { id: 2, .. }))
        ));
    }

    #[test]
    fn overflow_reports_the_newcomer() {
        let mut od = OnDemand::new(n(0));
        for seq in 0..3 {
            park(&mut od, parked(seq, 9, 0), 3).unwrap();
        }
        assert_eq!(park(&mut od, parked(99, 9, 0), 3), Err(parked(99, 9, 0)));
        assert_eq!(od.parked(), 3);
    }

    /// Due discoveries run in `NodeId` order, not start order; one of
    /// them gives up mid-loop and the ones after it still escalate.
    #[test]
    fn due_loop_runs_in_node_id_order_and_escalates_mid_loop() {
        let mut od = OnDemand::new(n(0));
        // Start order 7, 2, 5; node 5's discovery starts later and is
        // not yet due at 1.5 s.
        park(&mut od, parked(0, 7, 0), 8).unwrap();
        park(&mut od, parked(1, 2, 0), 8).unwrap();
        park(&mut od, parked(2, 5, 1000), 8).unwrap();
        assert_eq!(
            tick(&mut od, 1500),
            [("flood", 2, 2), ("flood", 2, 7)],
            "2 before 7; 5 not due"
        );
        // At 6 s: 2 and 7 are in round 1 (due at 3.5 s) and escalate to
        // round 2; 5 (due at 2 s) escalates to round 1.
        assert_eq!(
            tick(&mut od, 6000),
            [("flood", 3, 2), ("flood", 2, 5), ("flood", 3, 7)]
        );
        // At 9.5 s, 2 and 7 (round 2, due at 9 s) give up, abandoning
        // their packets, while 5 (round 1, due at 8 s) between them
        // escalates.
        assert_eq!(
            tick(&mut od, 9500),
            [("abandoned", 1, 2), ("flood", 3, 5), ("abandoned", 0, 7)]
        );
        assert!(od.discovering(n(5)) && !od.discovering(n(2)) && !od.discovering(n(7)));
        assert_eq!(od.parked(), 1);
    }

    #[test]
    fn discoveries_with_nothing_waiting_are_cancelled() {
        let mut od = OnDemand::new(n(0));
        park(&mut od, parked(0, 3, 0), 8).unwrap();
        park(&mut od, parked(1, 6, 0), 8).unwrap();
        // Something else sent node 3's packet without completing its
        // discovery (e.g. the drain's caller lost the race).
        od.buffer.retain(|p| p.dst != n(3));
        assert!(od.discovering(n(3)));
        // The cancel runs before the due loop: no flood for 3.
        assert_eq!(tick(&mut od, 1500), [("flood", 2, 6)]);
        assert!(!od.discovering(n(3)));
        assert!(od.discovering(n(6)));
    }

    #[test]
    fn expiry_and_give_up_drop_in_buffer_order() {
        let mut od = OnDemand::new(n(0));
        for (seq, dst, at) in [
            (0, 4, 0),
            (1, 8, 500),
            (2, 4, 600),
            (3, 8, 40_000),
            (4, 4, 700),
        ] {
            park(&mut od, parked(seq, dst, at), 8).unwrap();
        }
        // At 30.6 s the packets parked at 0 and 500 ms are past 30 s;
        // the one parked at 600 ms is exactly at it and stays.
        let events = tick(&mut od, 30_600);
        assert_eq!(&events[..2], [("expired", 0, 4), ("expired", 1, 8)]);
        assert_eq!(
            events.len(),
            4,
            "then both discoveries escalate: {events:?}"
        );
        // With a longer timeout both discoveries run out of rounds: each
        // abandons its destination's packets in buffer order.
        assert_eq!(tick_with(&mut od, 33_000, 100).len(), 2);
        assert_eq!(
            tick_with(&mut od, 36_000, 100),
            [
                ("abandoned", 2, 4),
                ("abandoned", 4, 4),
                ("abandoned", 3, 8)
            ]
        );
        assert_eq!(od.parked(), 0);
    }

    #[test]
    fn drain_sends_in_order_and_keeps_the_rest_in_order() {
        let mut od = OnDemand::new(n(0));
        for (seq, dst) in [(0, 1), (1, 2), (2, 1), (3, 3), (4, 2), (5, 1)] {
            park(&mut od, parked(seq, dst, 0), 8).unwrap();
        }
        let mut sent = Vec::new();
        od.drain(|p| {
            let routed = p.dst == n(1) || p.dst == n(3);
            if routed {
                sent.push(p.seq);
            }
            routed
        });
        assert_eq!(sent, [0, 2, 3, 5]);
        assert_eq!(od.buffer.iter().map(|p| p.seq).collect::<Vec<_>>(), [1, 4]);
        assert!(!od.discovering(n(1)) && !od.discovering(n(3)));
        assert!(od.discovering(n(2)));
        // Completing a discovery leaves its packets parked.
        od.complete(n(2));
        assert!(!od.discovering(n(2)));
        assert_eq!(od.parked(), 2);
    }

    /// Once the lanes have held their high-water population, starting,
    /// escalating, completing and abandoning discoveries never moves or
    /// regrows them.
    #[test]
    fn the_lanes_stop_reallocating_once_warm() {
        let mut od = OnDemand::new(n(0));
        let churn = |od: &mut OnDemand, round: u64| {
            let t = round * 100_000;
            for dst in 1..=16 {
                park(od, parked(round, dst, t), 64).unwrap();
            }
            tick(od, t + 1500);
            od.drain(|p| p.dst.as_u32() % 2 == 0);
            tick(od, t + 50_000);
            assert_eq!(od.parked(), 0);
        };
        churn(&mut od, 0);
        let lanes = |od: &OnDemand| {
            (
                od.buffer.as_ptr(),
                od.buffer.capacity(),
                od.discoveries.as_ptr(),
                od.discoveries.capacity(),
            )
        };
        let warm = lanes(&od);
        for round in 1..50 {
            churn(&mut od, round);
            assert_eq!(lanes(&od), warm, "round {round} reallocated a lane");
        }
    }

    /// The flat run list answers exactly like the ordered set of pairs
    /// it replaces, including id 0 and `u32::MAX` at the run edges.
    #[test]
    fn seen_rreq_matches_a_btreeset_model() {
        use rcast_testkit::{prop_assert, prop_assert_eq, Check};
        use std::collections::BTreeSet;
        Check::new("seen_rreq_matches_a_btreeset_model").run(|g| {
            let mut seen = SeenRreq::default();
            let mut model = BTreeSet::new();
            let base = if g.bool() { 0 } else { u32::MAX - 40 };
            for _ in 0..g.usize_range(1, 300) {
                let origin = NodeId::new(g.u32_range(0, 6));
                let id = base + g.u32_range(0, 41);
                prop_assert_eq!(seen.insert(origin, id), model.insert((origin, id)));
            }
            let runs: Vec<_> = seen
                .runs
                .iter()
                .flat_map(|&(o, lo, hi)| (lo..=hi).map(move |id| (o, id)))
                .collect();
            prop_assert_eq!(runs, model.iter().copied().collect::<Vec<_>>());
            // Runs are disjoint and never adjacent within an origin.
            for w in seen.runs.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].2.checked_add(1) < Some(w[1].1));
                }
            }
            Ok(())
        });
    }
}
