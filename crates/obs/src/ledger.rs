//! The event ledger: pre-sized per-interval buffers feeding a run-long
//! archive, plus the end-of-run [`ObsReport`] and the per-packet and
//! energy-trajectory views derived from it.
//!
//! # Memory discipline
//!
//! The ledger participates in the simulator's zero-steady-state-
//! allocation contract (DESIGN.md §10): every buffer is sized at
//! construction from the run geometry, so [`Ledger::record_event`],
//! [`Ledger::record_span`] and [`Ledger::end_interval`] never touch the
//! allocator. The buffer has three lanes:
//!
//! * ordinary events get a budget of `4·nodes + 32` per interval;
//!   overflow is *counted* in [`Ledger::dropped`], never grown;
//! * energy spans get at most two per node per interval, which always
//!   fits, so the energy audit is unconditional;
//! * packet-lifecycle events (originated, forwarded, delivered,
//!   dropped) get a run-long reserve of
//!   [`LedgerParams::packet_events`], an upper bound the simulation
//!   computes from its traffic configuration and the longest
//!   loop-free path (`nodes - 1` hops per packet), so every packet's
//!   history is complete however loaded an interval is.
//!
//! # Ordering
//!
//! Events are recorded in simulation order, not in the report's
//! `(at, node, seq)` order: spans land at their interval's start after
//! the interval's other events, and a node whose battery runs out in
//! interval `k` records `BatteryDead` at the *end* of `k`. Every event
//! is dated at or after the start of the interval it is recorded in
//! (debug builds assert it), and [`Ledger::end_interval`] notes where
//! each interval's records end. [`Ledger::into_report`] therefore
//! sorts one interval's chunk at a time instead of the whole run: after
//! sorting chunk `k`, the events dated before interval `k`'s end can
//! only precede everything recorded later, so they are final; events
//! dated at or past that end (today only `BatteryDead`) are carried
//! into chunk `k + 1` and sorted again with it. The result is the same
//! permutation one whole-run sort by [`Event::key`] gives, since the
//! key is a strict total order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_metrics::IntervalSeries;
use rcast_radio::{EnergyMeter, EnergyModel, PowerState};

use crate::event::{Event, EventKind};

/// Run geometry the ledger sizes its buffers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerParams {
    /// Number of real nodes (the pseudo-node for network-scoped events
    /// is `nodes`, one past the last real id).
    pub nodes: u32,
    /// Number of beacon intervals in the run.
    pub intervals: u64,
    /// Beacon-interval length, nanoseconds.
    pub beacon_nanos: u64,
    /// Upper bound on the run's packet-lifecycle events: the size of
    /// their reserved lane.
    pub packet_events: u64,
}

/// Column order of the per-interval series carried by [`ObsReport`].
pub const SERIES_COLUMNS: [&str; 3] = ["awake_ns", "overheard", "airtime_ns"];

/// The deterministic event ledger threaded through one simulation run.
#[derive(Debug, Clone)]
pub struct Ledger {
    nodes: u32,
    beacon_nanos: u64,
    /// Ordinary-event budget per interval (spans and packet events
    /// ride separate, guaranteed lanes).
    cap_per_interval: usize,
    /// Packet-lifecycle slots left in their reserved lane.
    packet_room: u64,
    /// Total capacity reserved at construction; never exceeded.
    capacity: usize,
    events: Vec<Event>,
    next_seq: u32,
    /// Ordinary events recorded in the current interval.
    cur_events: usize,
    dropped: u64,
    cur_awake_ns: u64,
    cur_overheard: u64,
    cur_airtime_ns: u64,
    series: IntervalSeries,
    /// `events.len()` at each [`end_interval`](Self::end_interval):
    /// where each interval's records end, for the chunked sort in
    /// [`into_report`](Self::into_report). Sized for the run's
    /// intervals; a closing past them records no boundary.
    interval_ends: Vec<usize>,
}

impl Ledger {
    /// The per-interval ordinary-event budget for a network of `nodes`.
    fn interval_budget(nodes: u32) -> usize {
        4 * nodes as usize + 32
    }

    /// Builds a ledger with every buffer sized for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `beacon_nanos` is zero.
    pub fn new(p: LedgerParams) -> Self {
        assert!(p.nodes > 0, "need at least one node");
        assert!(p.beacon_nanos > 0, "beacon interval must be positive");
        let cap_per_interval = Self::interval_budget(p.nodes);
        // Spans: at most two per node per interval (awake + sleep, or a
        // single off span). Packet events have their own run-long
        // reserve; everything else fits the ordinary budget.
        let per_interval = cap_per_interval + 2 * p.nodes as usize;
        let capacity = per_interval * p.intervals as usize + p.packet_events as usize;
        Ledger {
            nodes: p.nodes,
            beacon_nanos: p.beacon_nanos,
            cap_per_interval,
            packet_room: p.packet_events,
            capacity,
            events: Vec::with_capacity(capacity),
            next_seq: 0,
            cur_events: 0,
            dropped: 0,
            cur_awake_ns: 0,
            cur_overheard: 0,
            cur_airtime_ns: 0,
            series: IntervalSeries::with_capacity(SERIES_COLUMNS.len(), p.intervals as usize),
            interval_ends: Vec::with_capacity(p.intervals as usize),
        }
    }

    /// The pseudo-node id network-scoped events are recorded against.
    pub fn network_node(&self) -> NodeId {
        NodeId::new(self.nodes)
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events counted instead of stored: ordinary events over their
    /// interval budget. Spans and packet events have reserved lanes and
    /// land here only if a lane's bound were breached: never for spans,
    /// and for packets only if the caller's `packet_events` bound
    /// failed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        debug_assert!(self.events.len() < self.capacity, "ledger lane overflow");
        debug_assert!(
            at.as_nanos() >= self.series.rows() as u64 * self.beacon_nanos,
            "an event dated before its interval's start breaks the chunked sort"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event {
            at,
            node,
            seq,
            kind,
        });
    }

    /// Records one event. Packet-lifecycle events take their reserved
    /// lane; every other kind is subject to the interval budget, whose
    /// overflow increments [`dropped`](Self::dropped) and stores
    /// nothing, so steady-state recording never reallocates.
    pub fn record_event(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        if kind.packet().is_some() {
            if self.packet_room == 0 {
                // Unreachable while `packet_events` bounds the run;
                // a breach is counted rather than grown.
                self.dropped += 1;
                return;
            }
            self.packet_room -= 1;
        } else {
            if self.cur_events >= self.cap_per_interval || self.events.len() >= self.capacity {
                self.dropped += 1;
                return;
            }
            match kind {
                EventKind::Overheard { .. } => self.cur_overheard += 1,
                EventKind::Airtime { nanos } => self.cur_airtime_ns += nanos,
                _ => {}
            }
            self.cur_events += 1;
        }
        self.push(at, node, kind);
    }

    /// Records one energy span on the reserved lane. The caller invokes
    /// this adjacent to the meter's `accumulate` with the *same*
    /// `(state, duration)` arguments, in the same order — that adjacency
    /// is what makes [`ObsReport::replay_energy`] bit-exact.
    pub fn record_span(&mut self, at: SimTime, node: NodeId, state: PowerState, dur: SimDuration) {
        if self.events.len() >= self.capacity {
            // Unreachable by construction; counted defensively rather
            // than grown so the no-allocation contract survives bugs.
            self.dropped += 1;
            return;
        }
        if state == PowerState::Awake {
            self.cur_awake_ns += dur.as_nanos();
        }
        self.push(
            at,
            node,
            EventKind::Span {
                state,
                nanos: dur.as_nanos(),
            },
        );
    }

    /// Closes the current interval: pushes the per-interval series row
    /// (`awake_ns`, `overheard`, `airtime_ns`) and resets the interval
    /// budget and accumulators.
    pub fn end_interval(&mut self) {
        self.series.push_row(&[
            self.cur_awake_ns as f64,
            self.cur_overheard as f64,
            self.cur_airtime_ns as f64,
        ]);
        self.cur_awake_ns = 0;
        self.cur_overheard = 0;
        self.cur_airtime_ns = 0;
        self.cur_events = 0;
        if self.interval_ends.len() < self.interval_ends.capacity() {
            self.interval_ends.push(self.events.len());
        }
    }

    /// Finalizes the ledger: sorts events into the `(SimTime, NodeId,
    /// seq)` total order and packages the report.
    ///
    /// The sort runs one interval's chunk at a time (see the module
    /// docs): chunk `k` holds interval `k`'s records plus the events
    /// carried from chunk `k - 1`; once sorted, its events dated before
    /// the interval's end are final and the rest carry on.
    pub fn into_report(mut self) -> ObsReport {
        let mut closed = 0;
        for (k, &end) in self.interval_ends.iter().enumerate() {
            let chunk = &mut self.events[closed..end];
            chunk.sort_unstable_by_key(Event::key);
            let interval_end =
                SimTime::from_nanos((k as u64 + 1).saturating_mul(self.beacon_nanos));
            closed += chunk.partition_point(|e| e.at < interval_end);
        }
        self.events[closed..].sort_unstable_by_key(Event::key);
        ObsReport {
            nodes: self.nodes,
            beacon_nanos: self.beacon_nanos,
            dropped: self.dropped,
            events: self.events,
            series: self.series,
        }
    }
}

/// The finalized ledger carried by a `SimReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    nodes: u32,
    beacon_nanos: u64,
    dropped: u64,
    events: Vec<Event>,
    series: IntervalSeries,
}

impl ObsReport {
    /// Number of real nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Beacon-interval length, nanoseconds.
    pub fn beacon_nanos(&self) -> u64 {
        self.beacon_nanos
    }

    /// Events counted instead of stored (see [`Ledger::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All events in `(at, node, seq)` order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The per-interval series; columns per [`SERIES_COLUMNS`].
    pub fn series(&self) -> &IntervalSeries {
        &self.series
    }

    /// Number of closed intervals.
    pub fn intervals(&self) -> u64 {
        self.series.rows() as u64
    }

    /// The pseudo-node id carrying network-scoped events.
    pub fn network_node(&self) -> NodeId {
        NodeId::new(self.nodes)
    }

    /// Replays every [`EventKind::Span`] through fresh meters of
    /// `model`, returning per-node joules.
    ///
    /// **Reconciliation invariant:** because spans are recorded adjacent
    /// to the simulator's own `accumulate` calls with identical
    /// arguments — and the `(at, node, seq)` order preserves each
    /// node's accumulation order — the result equals the report's
    /// per-node energy *to the bit*, for every scheme and fault plan.
    pub fn replay_energy(&self, model: EnergyModel) -> Vec<f64> {
        self.replay(model, |_| {})
            .iter()
            .map(EnergyMeter::total_joules)
            .collect()
    }

    /// The energy trajectory: row `k` holds every node's cumulative
    /// joules at the end of interval `k`, one column per node. The
    /// last row is [`replay_energy`](Self::replay_energy), so it equals
    /// the report's per-node energy to the bit.
    pub fn energy_by_interval(&self, model: EnergyModel) -> IntervalSeries {
        let mut series = IntervalSeries::with_capacity(self.nodes as usize, self.series.rows());
        let mut row = Vec::with_capacity(self.nodes as usize);
        self.replay(model, |meters| {
            row.clear();
            row.extend(meters.iter().map(EnergyMeter::total_joules));
            series.push_row(&row);
        });
        series
    }

    /// Runs the span replay and returns the final meters, calling
    /// `close` with the meters at the end of every closed interval.
    /// Spans are stamped at their interval's start, so a span of a
    /// later interval closes the ones before it.
    fn replay(
        &self,
        model: EnergyModel,
        mut close: impl FnMut(&[EnergyMeter]),
    ) -> Vec<EnergyMeter> {
        let mut meters: Vec<EnergyMeter> =
            (0..self.nodes).map(|_| EnergyMeter::new(model)).collect();
        let mut k = 0;
        for e in &self.events {
            if let EventKind::Span { state, nanos } = e.kind {
                while k < e.at.as_nanos() / self.beacon_nanos {
                    close(&meters);
                    k += 1;
                }
                if let Some(m) = meters.get_mut(e.node.index()) {
                    m.accumulate(state, SimDuration::from_nanos(nanos));
                }
            }
        }
        while k < self.intervals() {
            close(&meters);
            k += 1;
        }
        meters
    }

    /// Every data packet's lifecycle events, keyed by `(flow, seq)`,
    /// each history in recording (`seq`) order. Recording order, not
    /// the report's `(at, node, seq)` order, is the packet's causal
    /// order: a hop's `Forwarded` (at the sender) and its
    /// `PacketDelivered` (at the receiver) share one timestamp.
    pub fn packet_histories(&self) -> BTreeMap<(u32, u64), Vec<Event>> {
        let mut lifecycle: Vec<((u32, u64), Event)> = self
            .events
            .iter()
            .filter_map(|e| e.kind.packet().map(|p| (p, *e)))
            .collect();
        lifecycle.sort_unstable_by_key(|(_, e)| e.seq);
        let mut out: BTreeMap<(u32, u64), Vec<Event>> = BTreeMap::new();
        for (p, e) in lifecycle {
            out.entry(p).or_default().push(e);
        }
        out
    }

    /// One packet's lifecycle events in recording order (empty for an
    /// unknown packet).
    pub fn packet_history(&self, packet: (u32, u64)) -> Vec<Event> {
        let mut history: Vec<Event> = self
            .events
            .iter()
            .filter(|e| e.kind.packet() == Some(packet))
            .copied()
            .collect();
        history.sort_unstable_by_key(|e| e.seq);
        history
    }

    /// The end-to-end latency of every delivered packet, in packet
    /// order.
    pub fn delivery_latencies(&self) -> Vec<((u32, u64), SimDuration)> {
        self.packet_histories()
            .into_iter()
            .filter_map(|(p, h)| {
                let sent = h
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::Originated { .. }))?;
                let done = h
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::PacketDelivered { .. }))?;
                Some((p, done.at - sent.at))
            })
            .collect()
    }

    /// The on-air hops (`Forwarded` events) of every delivered packet,
    /// in packet order.
    pub fn delivered_hop_counts(&self) -> Vec<((u32, u64), usize)> {
        self.packet_histories()
            .into_iter()
            .filter(|(_, h)| {
                h.iter()
                    .any(|e| matches!(e.kind, EventKind::PacketDelivered { .. }))
            })
            .map(|(p, h)| {
                let hops = h
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Forwarded { .. }))
                    .count();
                (p, hops)
            })
            .collect()
    }

    /// Packets originated but neither delivered nor dropped by the end
    /// of the run (still queued or in flight), in packet order.
    pub fn unresolved(&self) -> Vec<(u32, u64)> {
        self.packet_histories()
            .into_iter()
            .filter(|(_, h)| {
                h.iter()
                    .any(|e| matches!(e.kind, EventKind::Originated { .. }))
                    && !h.iter().any(|e| {
                        matches!(
                            e.kind,
                            EventKind::PacketDelivered { .. } | EventKind::PacketDropped { .. }
                        )
                    })
            })
            .map(|(p, _)| p)
            .collect()
    }

    /// Renders one packet's journey as human-readable lines.
    pub fn render_packet(&self, packet: (u32, u64)) -> String {
        let mut out = String::new();
        for e in self.packet_history(packet) {
            let (at, node) = (e.at, e.node);
            let _ = match e.kind {
                EventKind::Originated { dst, .. } => {
                    writeln!(out, "{at} originated {node} → {dst}")
                }
                EventKind::Forwarded { to, .. } => writeln!(out, "{at} hop {node} → {to}"),
                EventKind::PacketDelivered { .. } => writeln!(out, "{at} delivered at {node}"),
                _ => writeln!(out, "{at} dropped at {node}"),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LedgerParams {
        LedgerParams {
            nodes: 3,
            intervals: 2,
            beacon_nanos: 250_000_000,
            packet_events: 4,
        }
    }

    fn pkt(flow: u32, seq: u64, i: u32) -> EventKind {
        match i {
            0 => EventKind::Originated {
                flow,
                seq,
                dst: NodeId::new(2),
            },
            1 => EventKind::Forwarded {
                flow,
                seq,
                to: NodeId::new(2),
            },
            2 => EventKind::PacketDelivered { flow, seq },
            _ => EventKind::PacketDropped { flow, seq },
        }
    }

    #[test]
    fn recording_within_capacity_never_reallocates() {
        let mut l = Ledger::new(params());
        let ptr = l.events.as_ptr();
        for k in 0..2u64 {
            let t = SimTime::from_millis(250 * k);
            for i in 0..3 {
                let id = NodeId::new(i);
                l.record_event(t, id, EventKind::AtimBroadcast);
                l.record_span(t, id, PowerState::Awake, SimDuration::from_millis(50));
                l.record_span(t, id, PowerState::Sleep, SimDuration::from_millis(200));
            }
            l.record_event(t, NodeId::new(0), pkt(0, k, 0));
            l.record_event(t, NodeId::new(0), pkt(0, k, 1));
            l.end_interval();
        }
        assert_eq!(l.events.as_ptr(), ptr, "pre-sized buffer must be reused");
        assert_eq!(l.dropped(), 0);
        let r = l.into_report();
        assert_eq!(r.intervals(), 2);
        assert_eq!(r.events().len(), 22);
        // awake_ns column: 3 nodes × 50 ms each interval.
        assert_eq!(r.series().column(0), vec![150e6, 150e6]);
    }

    #[test]
    fn interval_budget_overflow_is_counted_not_grown() {
        let mut l = Ledger::new(params());
        let budget = l.cap_per_interval;
        let cap_before = l.events.capacity();
        for _ in 0..budget + 5 {
            l.record_event(SimTime::ZERO, NodeId::new(0), EventKind::AtimDeferred);
        }
        assert_eq!(l.dropped(), 5);
        assert_eq!(l.len(), budget);
        assert_eq!(l.events.capacity(), cap_before);
        // Spans still land on the reserved lane after overflow.
        l.record_span(
            SimTime::ZERO,
            NodeId::new(0),
            PowerState::Off,
            SimDuration::from_millis(250),
        );
        assert_eq!(l.len(), budget + 1);
    }

    #[test]
    fn packet_events_skip_the_interval_budget_and_fill_their_reserve() {
        let mut l = Ledger::new(params());
        let budget = l.cap_per_interval;
        for _ in 0..budget + 1 {
            l.record_event(SimTime::ZERO, NodeId::new(0), EventKind::AtimDeferred);
        }
        assert_eq!(l.dropped(), 1);
        for i in 0..4 {
            l.record_event(SimTime::ZERO, NodeId::new(0), pkt(7, 1, i));
        }
        assert_eq!(l.dropped(), 1, "packet events land after the budget is spent");
        assert_eq!(l.len(), budget + 4);
        // A fifth packet event breaches the reserve: counted, not grown.
        let cap_before = l.events.capacity();
        l.record_event(SimTime::ZERO, NodeId::new(0), pkt(7, 2, 0));
        assert_eq!(l.dropped(), 2);
        assert_eq!(l.events.capacity(), cap_before);
    }

    #[test]
    fn packet_history_keeps_recording_order_within_an_instant() {
        let mut l = Ledger::new(LedgerParams {
            nodes: 6,
            ..params()
        });
        let t = SimTime::from_millis(100);
        // A hop's `Forwarded` is recorded at the sender (node 5) before
        // the receiver's (node 2) `PacketDelivered`, at the same instant;
        // the report's (at, node, seq) sort puts node 2 first.
        l.record_event(t, NodeId::new(5), pkt(1, 3, 1));
        l.record_event(t, NodeId::new(2), pkt(1, 3, 2));
        l.end_interval();
        let r = l.into_report();
        assert_eq!(r.events()[0].node, NodeId::new(2));
        let h = r.packet_history((1, 3));
        assert_eq!(h.len(), 2);
        assert!(matches!(h[0].kind, EventKind::Forwarded { .. }));
        assert!(matches!(h[1].kind, EventKind::PacketDelivered { .. }));
    }

    /// Three packets: (1, 7) crosses two hops and is delivered, (2, 0)
    /// is dropped, (3, 4) is still in flight at the end.
    fn journeys() -> ObsReport {
        let mut l = Ledger::new(LedgerParams {
            nodes: 10,
            intervals: 4,
            packet_events: 16,
            ..params()
        });
        let n = NodeId::new;
        let ms = SimTime::from_millis;
        let sent = |flow, seq, dst| EventKind::Originated {
            flow,
            seq,
            dst: n(dst),
        };
        let hop = |to| EventKind::Forwarded {
            flow: 1,
            seq: 7,
            to: n(to),
        };
        l.record_event(ms(100), n(0), sent(1, 7, 3));
        l.record_event(ms(200), n(5), sent(2, 0, 9));
        l.record_event(ms(300), n(2), sent(3, 4, 8));
        l.record_event(ms(350), n(0), hop(1));
        l.record_event(ms(600), n(1), hop(3));
        l.record_event(ms(600), n(3), EventKind::PacketDelivered { flow: 1, seq: 7 });
        l.record_event(ms(900), n(5), EventKind::PacketDropped { flow: 2, seq: 0 });
        l.into_report()
    }

    #[test]
    fn packet_views_follow_each_packet() {
        let r = journeys();
        assert_eq!(r.packet_histories().len(), 3);
        for (p, h) in r.packet_histories() {
            assert_eq!(r.packet_history(p), h, "{p:?}");
        }
        assert_eq!(r.packet_history((1, 7)).len(), 4);
        assert_eq!(r.packet_history((2, 0)).len(), 2);
        assert!(r.packet_history((9, 9)).is_empty());
        assert_eq!(
            r.delivery_latencies(),
            vec![((1, 7), SimDuration::from_millis(500))]
        );
        assert_eq!(r.delivered_hop_counts(), vec![((1, 7), 2)]);
        assert_eq!(r.unresolved(), vec![(3, 4)]);
        let text = r.render_packet((1, 7));
        assert!(text.contains("originated n0 → n3"));
        assert!(text.contains("hop n1 → n3"));
        assert!(text.contains("delivered at n3"));
        assert_eq!(text.lines().count(), 4);
        assert!(r.render_packet((2, 0)).contains("dropped at n5"));
    }

    #[test]
    fn energy_by_interval_is_cumulative_and_ends_at_the_replay() {
        let model = EnergyModel::wavelan_ii();
        let mut l = Ledger::new(params());
        for k in 0..2u64 {
            let t = SimTime::from_millis(250 * k);
            for i in 0..3 {
                let awake = SimDuration::from_millis(10 * (i as u64 + 1));
                let id = NodeId::new(i);
                l.record_span(t, id, PowerState::Awake, awake);
                l.record_span(t, id, PowerState::Sleep, SimDuration::from_millis(250) - awake);
            }
            l.end_interval();
        }
        let r = l.into_report();
        let s = r.energy_by_interval(model);
        assert_eq!((s.rows(), s.width()), (2, 3));
        for i in 0..3 {
            assert!(s.row(0)[i] > 0.0 && s.row(1)[i] > s.row(0)[i], "node {i}");
        }
        let replayed = r.replay_energy(model);
        for (a, b) in s.row(1).iter().zip(&replayed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn report_events_are_sorted_into_a_strict_total_order() {
        let mut l = Ledger::new(params());
        // Record deliberately out of (at, node) order within an interval:
        // spans land at the interval start after later-timestamped events.
        let t = SimTime::ZERO;
        l.record_event(
            t + SimDuration::from_millis(60),
            NodeId::new(2),
            EventKind::Airtime { nanos: 7 },
        );
        l.record_span(t, NodeId::new(1), PowerState::Awake, SimDuration::from_millis(50));
        l.record_span(t, NodeId::new(0), PowerState::Off, SimDuration::from_millis(250));
        l.end_interval();
        let r = l.into_report();
        let keys: Vec<_> = r.events().iter().map(Event::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "events must come out ordered");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "(at, node, seq) must be strict"
        );
        assert_eq!(r.events()[0].node, NodeId::new(0), "node 0's span first");
    }

    #[test]
    fn replay_matches_a_mirror_meter_bit_for_bit() {
        let model = EnergyModel::wavelan_ii();
        let mut l = Ledger::new(params());
        let mut mirror: Vec<EnergyMeter> = (0..3).map(|_| EnergyMeter::new(model)).collect();
        // Irregular durations exercise f64 accumulation order.
        let durs = [3_333_333u64, 77_777_777, 250_000_000, 1, 199_999_999];
        for (k, &d) in durs.iter().enumerate() {
            let t = SimTime::from_millis(250 * k as u64);
            for (i, m) in mirror.iter_mut().enumerate() {
                let id = NodeId::new(i as u32);
                let dur = SimDuration::from_nanos(d + i as u64);
                let state = if k % 2 == 0 {
                    PowerState::Awake
                } else {
                    PowerState::Sleep
                };
                l.record_span(t, id, state, dur);
                m.accumulate(state, dur);
            }
        }
        let replayed = l.into_report().replay_energy(model);
        for (i, m) in mirror.iter().enumerate() {
            assert_eq!(
                replayed[i].to_bits(),
                m.total_joules().to_bits(),
                "node {i}"
            );
        }
    }

    #[test]
    fn network_node_is_one_past_the_last_real_node() {
        let l = Ledger::new(params());
        assert_eq!(l.network_node(), NodeId::new(3));
    }
}
