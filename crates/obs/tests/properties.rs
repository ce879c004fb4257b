//! Property tests for the event ledger (DESIGN.md §11), on the
//! workspace's hermetic [`rcast_testkit`] harness: arbitrary
//! interleavings of interval advances, in-interval events, energy
//! spans and fault markers must always come out of
//! [`Ledger::into_report`] in the strict `(at, node, seq)` total
//! order, with exact overflow accounting. Failures shrink to the
//! smallest still-failing interleaving via the harness's size dial.

use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_obs::{Event, EventKind, Ledger, LedgerParams, ObsReport, PacketClass};
use rcast_testkit::{prop_assert, prop_assert_eq, Check, Gen};

const BEACON_NS: u64 = 250_000_000;
/// Most in-interval events one interleaving records per interval.
const MAX_EVENTS: u64 = 40;

/// Draws one ordinary event kind, spanning MAC, routing and fault
/// markers so the ordering property sees every record path.
fn arbitrary_kind(g: &mut Gen, nodes: u32) -> EventKind {
    let peer = NodeId::new(g.u32_range(0, nodes));
    match g.u32_range(0, 10) {
        0 => EventKind::AtimUnicast { to: peer },
        1 => EventKind::AtimBroadcast,
        2 => EventKind::AtimNoAck { to: peer },
        3 => EventKind::Overheard { sender: peer },
        4 => EventKind::Airtime {
            nanos: g.u64_range(1, 2_000_000),
        },
        5 => EventKind::ControlTx {
            class: PacketClass::Rreq,
        },
        6 => EventKind::Originated {
            flow: g.u32_range(0, 4),
            seq: g.u64_range(0, 100),
            dst: peer,
        },
        7 => EventKind::PacketDropped {
            flow: g.u32_range(0, 4),
            seq: g.u64_range(0, 100),
        },
        8 => EventKind::Crash,
        _ => EventKind::Rejoin,
    }
}

/// Runs one random interleaving and returns the report plus the counts
/// of *attempted* events (packet events included), of spans and of
/// packet events.
fn run_interleaving(g: &mut Gen) -> (ObsReport, u64, u64, u64, LedgerParams) {
    let intervals = g.u64_range(1, 2 + g.size() as u64 / 8);
    let params = LedgerParams {
        nodes: g.u32_range(2, 9),
        intervals,
        beacon_nanos: BEACON_NS,
        // At most 40 events an interval, so packet events never breach.
        packet_events: MAX_EVENTS * intervals,
    };
    let mut ledger = Ledger::new(params);
    let (mut attempted, mut spans, mut packets) = (0u64, 0u64, 0u64);
    for k in 0..params.intervals {
        let start = SimTime::from_nanos(k * BEACON_NS);
        // Faults and packet events land at arbitrary in-interval
        // offsets, in arbitrary node order.
        let n_events = g.len(0, MAX_EVENTS as usize);
        for _ in 0..n_events {
            let at = start + SimDuration::from_nanos(g.u64_range(0, BEACON_NS));
            let node = if g.u32_range(0, 8) == 0 {
                ledger.network_node()
            } else {
                NodeId::new(g.u32_range(0, params.nodes))
            };
            let kind = if node == ledger.network_node() {
                EventKind::Blackouts {
                    newly: g.u32_range(1, 4),
                }
            } else {
                arbitrary_kind(g, params.nodes)
            };
            ledger.record_event(at, node, kind);
            attempted += 1;
            packets += u64::from(kind.packet().is_some());
        }
        // Spans mirror the simulator: recorded at the interval start,
        // after the interval's events, at most two per node.
        for i in 0..params.nodes {
            let id = NodeId::new(i);
            if g.bool() {
                ledger.record_span(
                    start,
                    id,
                    rcast_radio::PowerState::Off,
                    SimDuration::from_nanos(BEACON_NS),
                );
                spans += 1;
            } else {
                let awake = g.u64_range(1, BEACON_NS);
                ledger.record_span(
                    start,
                    id,
                    rcast_radio::PowerState::Awake,
                    SimDuration::from_nanos(awake),
                );
                ledger.record_span(
                    start,
                    id,
                    rcast_radio::PowerState::Sleep,
                    SimDuration::from_nanos(BEACON_NS - awake),
                );
                spans += 2;
            }
        }
        ledger.end_interval();
    }
    (ledger.into_report(), attempted, spans, packets, params)
}

#[test]
fn ledger_order_is_a_strict_total_order_consistent_with_sim_time() {
    Check::new("ledger_total_order").cases(96).run(|g: &mut Gen| {
        let (report, _, _, _, params) = run_interleaving(g);
        prop_assert_eq!(report.intervals(), params.intervals);
        let events = report.events();
        for w in events.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            prop_assert!(
                a.key() < b.key(),
                "strict (at, node, seq) order violated: {a:?} !< {b:?}"
            );
            prop_assert!(a.at <= b.at, "time must never run backwards");
            // Within one (at, node) group, seq preserves record order.
            if a.at == b.at && a.node == b.node {
                prop_assert!(a.seq < b.seq, "record order lost within a group");
            }
        }
        // seq values are unique across the whole run.
        let mut seqs: Vec<u32> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), events.len());
        Ok(())
    });
}

#[test]
fn overflow_is_counted_exactly_and_spans_and_packets_always_land() {
    Check::new("ledger_overflow_accounting")
        .cases(96)
        .run(|g: &mut Gen| {
            let (report, attempted, spans, packets, _) = run_interleaving(g);
            let stored = report.events().len() as u64;
            prop_assert_eq!(
                stored + report.dropped(),
                attempted + spans,
                "every record attempt is stored or counted"
            );
            let stored_spans = report
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Span { .. }))
                .count() as u64;
            prop_assert_eq!(stored_spans, spans, "the span lane never drops");
            let stored_packets = report
                .events()
                .iter()
                .filter(|e| e.kind.packet().is_some())
                .count() as u64;
            prop_assert_eq!(stored_packets, packets, "the packet lane never drops");
            Ok(())
        });
}

#[test]
fn ordering_key_is_the_documented_triple() {
    // A unit-style anchor for the property above: the key must stay
    // `(at, node.as_u32(), seq)` — renames or reorderings of the tuple
    // break golden-trace stability.
    let e = Event {
        at: SimTime::from_nanos(5),
        node: NodeId::new(2),
        seq: 9,
        kind: EventKind::AtimBroadcast,
    };
    assert_eq!(e.key(), (SimTime::from_nanos(5), 2, 9));
}
