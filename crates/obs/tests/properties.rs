//! Property tests for the event ledger (DESIGN.md §11), on the
//! workspace's hermetic [`rcast_testkit`] harness: arbitrary
//! interleavings of interval advances, in-interval events, energy
//! spans and fault markers must always come out of
//! [`Ledger::into_report`] in the strict `(at, node, seq)` total
//! order, with exact overflow accounting, and that order must be the
//! one a single whole-run sort gives, events dated past their interval
//! included. Failures shrink to the smallest still-failing
//! interleaving via the harness's size dial. The export's length pass
//! must size every line shape exactly, at extreme payloads too.
//! Mutated `--filter` texts must parse to a filter or an error that
//! quotes the offending text, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_obs::{
    render_jsonl, Event, EventKind, Ledger, LedgerParams, ObsReport, PacketClass, TraceFilter,
    KIND_NAMES,
};
use rcast_radio::PowerState;
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

/// Records a random run the way the simulator does and returns the
/// report with the events in record order, each stamped with the
/// `seq` the ledger assigns. Dates mix interval starts, a coarse grid
/// (so many events share one `at`) and arbitrary offsets, up to one
/// whole interval past the recording interval's end, where a battery
/// death is dated. Some runs close fewer intervals than they planned
/// and leave records after the last closing.
fn run_recorded(g: &mut Gen) -> (ObsReport, Vec<Event>) {
    let planned = g.u64_range(1, 2 + g.size() as u64 / 8);
    let closed = if g.bool() {
        planned
    } else {
        g.u64_range(0, planned + 1)
    };
    let params = LedgerParams {
        nodes: g.u32_range(2, 9),
        intervals: planned,
        beacon_nanos: BEACON_NS,
        packet_events: MAX_EVENTS * (planned + 1),
    };
    let mut ledger = Ledger::new(params);
    let mut recorded = Vec::new();
    let mut record = |ledger: &mut Ledger, at: SimTime, node: NodeId, kind: EventKind| {
        match kind {
            EventKind::Span { state, nanos } => {
                ledger.record_span(at, node, state, SimDuration::from_nanos(nanos));
            }
            _ => ledger.record_event(at, node, kind),
        }
        let seq = recorded.len() as u32;
        recorded.push(Event {
            at,
            node,
            seq,
            kind,
        });
    };
    for k in 0..=closed {
        let start = SimTime::from_nanos(k * BEACON_NS);
        // At most 40 ordinary events an interval: under the 4·nodes + 32
        // budget, so every record is stored and `seq` is record order.
        for _ in 0..g.len(0, MAX_EVENTS as usize) {
            let offset = match g.u32_range(0, 3) {
                0 => 0,
                1 => g.u64_range(0, 9) * (BEACON_NS / 4),
                _ => g.u64_range(0, 2 * BEACON_NS + 1),
            };
            let node = NodeId::new(g.u32_range(0, params.nodes + 1));
            let kind = if g.u32_range(0, 6) == 0 {
                EventKind::BatteryDead
            } else {
                arbitrary_kind(g, params.nodes)
            };
            record(
                &mut ledger,
                start + SimDuration::from_nanos(offset),
                node,
                kind,
            );
        }
        for i in 0..params.nodes {
            let nanos = g.u64_range(1, BEACON_NS);
            let kind = EventKind::Span {
                state: PowerState::Awake,
                nanos,
            };
            record(&mut ledger, start, NodeId::new(i), kind);
        }
        if k < closed {
            ledger.end_interval();
        }
    }
    (ledger.into_report(), recorded)
}

#[test]
fn chunked_into_report_equals_one_whole_run_sort() {
    Check::new("ledger_chunked_sort")
        .cases(192)
        .run(|g: &mut Gen| {
            let (report, mut recorded) = run_recorded(g);
            prop_assert_eq!(report.dropped(), 0);
            recorded.sort_unstable_by_key(Event::key);
            prop_assert_eq!(report.events(), recorded.as_slice());
            Ok(())
        });
}

/// Every event kind, its integer payloads set to `id` (node ids, flow
/// ids, counts) or `wide` (nanoseconds, packet sequence numbers).
fn every_kind(id: u32, wide: u64) -> Vec<EventKind> {
    let n = NodeId::new(id);
    let mut kinds = vec![
        EventKind::AtimUnicast { to: n },
        EventKind::AtimBroadcast,
        EventKind::AtimNoAck { to: n },
        EventKind::AtimDeferred,
        EventKind::LinkBroken { to: n },
        EventKind::OverhearCommit { sender: n },
        EventKind::Overheard { sender: n },
        EventKind::Airtime { nanos: wide },
        EventKind::DataLost { to: n },
        EventKind::DataDeferred,
        EventKind::Originated {
            flow: id,
            seq: wide,
            dst: n,
        },
        EventKind::Forwarded {
            flow: id,
            seq: wide,
            to: n,
        },
        EventKind::PacketDelivered {
            flow: id,
            seq: wide,
        },
        EventKind::PacketDropped {
            flow: id,
            seq: wide,
        },
        EventKind::Crash,
        EventKind::Rejoin,
        EventKind::BatteryDead,
        EventKind::Blackouts { newly: id },
        EventKind::Bursts { newly: id },
    ];
    for state in [
        PowerState::Awake,
        PowerState::Sleep,
        PowerState::Off,
        PowerState::Transmit,
        PowerState::Receive,
    ] {
        kinds.push(EventKind::Span { state, nanos: wide });
    }
    for class in [
        PacketClass::Rreq,
        PacketClass::Rrep,
        PacketClass::Rerr,
        PacketClass::Data,
        PacketClass::Hello,
    ] {
        kinds.push(EventKind::ControlTx { class });
    }
    kinds
}

#[test]
fn export_length_pass_sizes_every_line_shape_exactly() {
    const IDS: [u32; 5] = [0, 9, 10, 99, u32::MAX];
    const WIDE: [u64; 7] = [0, 9, 10, 99, 100, u32::MAX as u64, u64::MAX];
    let named: Vec<&str> = every_kind(0, 0).iter().map(|k| k.name()).collect();
    for name in KIND_NAMES {
        assert!(named.contains(&name), "no sample of {name}");
    }
    let filters = [
        None,
        Some(TraceFilter::Node(9)),
        Some(TraceFilter::Flow(10)),
        Some(TraceFilter::Kind("interval".into())),
    ];
    for id in IDS {
        for wide in WIDE {
            for kind in every_kind(id, wide) {
                // One event per ledger: an `Airtime` or awake `Span` of
                // `u64::MAX` nanos saturates the series row on its own.
                let mut ledger = Ledger::new(LedgerParams {
                    nodes: 10,
                    intervals: 1,
                    beacon_nanos: BEACON_NS,
                    packet_events: 1,
                });
                let (at, node) = (SimTime::from_nanos(wide), NodeId::new(id));
                match kind {
                    EventKind::Span { state, nanos } => {
                        ledger.record_span(at, node, state, SimDuration::from_nanos(nanos));
                    }
                    _ => ledger.record_event(at, node, kind),
                }
                ledger.end_interval();
                let report = ledger.into_report();
                assert_eq!(report.events().len(), 1, "{kind:?}");
                let kind_filter = Some(TraceFilter::Kind(kind.name().into()));
                for filter in filters.iter().chain([&kind_filter]) {
                    for range in [None, Some((0, 1)), Some((1, u64::MAX))] {
                        let out = render_jsonl(&report, "rcast", wide, filter.as_ref(), range);
                        // `String::with_capacity(n)` holds exactly `n`
                        // bytes: a length pass that over-counts leaves
                        // spare capacity, and one that under-counts
                        // makes the write pass grow the buffer past
                        // its length.
                        assert_eq!(
                            out.capacity(),
                            out.len(),
                            "{kind:?} at {wide} ns, {filter:?}, {range:?}:\n{out}"
                        );
                        assert!(out.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
                    }
                }
            }
        }
    }
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

/// The filters `ci.sh`, the CLI tests and the exporter's own tests use.
const FILTERS: [&str; 7] = [
    "kind=span",
    "node=3",
    "flow=1",
    "kind=interval",
    "flow=0",
    "kind=atim_unicast",
    "kind=battery_dead",
];

#[test]
fn mutated_trace_filters_never_panic_and_errors_quote_the_input() {
    const BAD: [&str; 13] = [
        "NaN",
        "inf",
        "-1",
        "1e30",
        "4294967296",
        "18446744073709551616",
        "",
        "=",
        "kind=",
        " 3",
        "3 ",
        "+7",
        "\u{e9}",
    ];
    for text in FILTERS {
        assert!(TraceFilter::parse(text).is_ok(), "corpus filter fails: {text}");
    }
    Check::new("trace_filter_mutations").cases(1024).run(|g: &mut Gen| {
        let text = FILTERS[g.usize_range(0, FILTERS.len())];
        let other = FILTERS[g.usize_range(0, FILTERS.len())];
        let bad = BAD[g.usize_range(0, BAD.len())];
        let (key, value) = text.split_once('=').expect("corpus is key=value");
        let mutated = match g.usize_range(0, 5) {
            // Truncate anywhere (the corpus is ASCII).
            0 => text[..g.usize_range(0, text.len() + 1)].to_string(),
            // Splice a prefix of one filter onto a suffix of another.
            1 => format!(
                "{}{}",
                &text[..g.usize_range(0, text.len() + 1)],
                &other[g.usize_range(0, other.len() + 1)..]
            ),
            // Swap the key and the value.
            2 => format!("{value}={key}"),
            // A hostile value under a real key.
            3 => format!("{key}={bad}"),
            // A hostile token inserted anywhere.
            _ => {
                let at = g.usize_range(0, text.len() + 1);
                format!("{}{bad}{}", &text[..at], &text[at..])
            }
        };
        let parsed = catch_unwind(AssertUnwindSafe(|| TraceFilter::parse(&mutated)))
            .map_err(|_| format!("TraceFilter::parse panicked on {mutated:?}"))?;
        match parsed {
            Ok(TraceFilter::Node(n)) => {
                prop_assert_eq!(TraceFilter::parse(&format!("node={n}")), Ok(TraceFilter::Node(n)));
            }
            Ok(TraceFilter::Flow(f)) => {
                prop_assert_eq!(TraceFilter::parse(&format!("flow={f}")), Ok(TraceFilter::Flow(f)));
            }
            Ok(TraceFilter::Kind(k)) => prop_assert!(
                k == "interval" || KIND_NAMES.contains(&k.as_str()),
                "kind {k:?} accepted from {mutated:?}"
            ),
            // The error's first quoted text is the part of the input it
            // rejects.
            Err(e) => {
                let quoted = e.split('\'').nth(1);
                prop_assert!(
                    quoted.is_some_and(|q| mutated.contains(q)),
                    "error {e:?} does not quote {mutated:?}"
                );
            }
        }
        Ok(())
    });
}
