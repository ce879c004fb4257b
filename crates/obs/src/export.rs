//! `rcast-trace/v1` JSONL rendering and trace filters.
//!
//! The format is hand-rolled, like `rcast-bench/v1`: fixed key order,
//! integer nanosecond timestamps, no floats, no timestamps of the host
//! machine — so the same run renders byte-identically on every
//! platform and at every worker-thread count.
//!
//! Line shapes:
//!
//! ```text
//! {"schema":"rcast-trace/v1","scheme":"rcast","seed":7,"nodes":12,...}
//! {"at_ns":0,"interval":0,"node":4,"seq":12,"kind":"atim_unicast","to":9}
//! {"kind":"interval","k":0,"awake_ns":600000000,"overheard":3,"airtime_ns":5471999}
//! ```
//!
//! The header counts *event* lines; per-interval rows trail the events
//! and are selected by `--filter kind=interval` (a node or flow filter
//! excludes them, since they aggregate the whole network).

use std::fmt::Write as _;

use rcast_engine::SimDuration;

use crate::event::{Event, EventKind, KIND_NAMES};
use crate::ledger::ObsReport;

/// An event selector, parsed from `--filter node=N|flow=N|kind=K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFilter {
    /// Keep events recorded at one node.
    Node(u32),
    /// Keep the lifecycle events of one flow.
    Flow(u32),
    /// Keep events of one kind (one of [`KIND_NAMES`], or `interval`
    /// for the per-interval series rows).
    Kind(String),
}

impl TraceFilter {
    /// Parses `node=N`, `flow=N` or `kind=K`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown selector, a malformed value, or
    /// a kind that names no event (the message lists the kinds).
    pub fn parse(s: &str) -> Result<TraceFilter, String> {
        let Some((key, value)) = s.split_once('=') else {
            return Err(format!(
                "bad filter '{s}' (expected node=N, flow=N or kind=K)"
            ));
        };
        match key {
            "node" => value
                .parse()
                .map(TraceFilter::Node)
                .map_err(|_| format!("bad node id '{value}'")),
            "flow" => value
                .parse()
                .map(TraceFilter::Flow)
                .map_err(|_| format!("bad flow id '{value}'")),
            "kind" => {
                if value == "interval" || KIND_NAMES.contains(&value) {
                    Ok(TraceFilter::Kind(value.to_string()))
                } else {
                    Err(format!(
                        "unknown kind '{value}' (expected one of {}, interval)",
                        KIND_NAMES.join(", ")
                    ))
                }
            }
            other => Err(format!(
                "unknown filter '{other}' (expected node, flow or kind)"
            )),
        }
    }

    /// Does `e` pass this filter?
    pub fn matches(&self, e: &Event) -> bool {
        match self {
            TraceFilter::Node(n) => e.node.as_u32() == *n,
            TraceFilter::Flow(f) => e.kind.flow() == Some(*f),
            TraceFilter::Kind(k) => e.kind.name() == k,
        }
    }

    /// Do the per-interval series rows pass this filter?
    pub fn matches_series(&self) -> bool {
        matches!(self, TraceFilter::Kind(k) if k == "interval")
    }
}

fn push_event_line(out: &mut String, e: &Event, beacon: SimDuration) {
    let _ = write!(
        out,
        "{{\"at_ns\":{},\"interval\":{},\"node\":{},\"seq\":{},\"kind\":\"{}\"",
        e.at.as_nanos(),
        e.at.interval_index(beacon),
        e.node.as_u32(),
        e.seq,
        e.kind.name()
    );
    match e.kind {
        EventKind::AtimUnicast { to }
        | EventKind::AtimNoAck { to }
        | EventKind::LinkBroken { to }
        | EventKind::DataLost { to } => {
            let _ = write!(out, ",\"to\":{}", to.as_u32());
        }
        EventKind::OverhearCommit { sender } | EventKind::Overheard { sender } => {
            let _ = write!(out, ",\"sender\":{}", sender.as_u32());
        }
        EventKind::Airtime { nanos } => {
            let _ = write!(out, ",\"nanos\":{nanos}");
        }
        EventKind::Span { state, nanos } => {
            let _ = write!(out, ",\"state\":\"{}\",\"nanos\":{nanos}", state.label());
        }
        EventKind::ControlTx { class } => {
            let _ = write!(out, ",\"class\":\"{}\"", class.label());
        }
        EventKind::Originated { flow, seq, dst } => {
            let _ = write!(out, ",\"flow\":{flow},\"pkt\":{seq},\"dst\":{}", dst.as_u32());
        }
        EventKind::Forwarded { flow, seq, to } => {
            let _ = write!(out, ",\"flow\":{flow},\"pkt\":{seq},\"to\":{}", to.as_u32());
        }
        EventKind::PacketDelivered { flow, seq } | EventKind::PacketDropped { flow, seq } => {
            let _ = write!(out, ",\"flow\":{flow},\"pkt\":{seq}");
        }
        EventKind::Blackouts { newly } | EventKind::Bursts { newly } => {
            let _ = write!(out, ",\"newly\":{newly}");
        }
        EventKind::AtimBroadcast
        | EventKind::AtimDeferred
        | EventKind::DataDeferred
        | EventKind::Crash
        | EventKind::Rejoin
        | EventKind::BatteryDead => {}
    }
    out.push_str("}\n");
}

/// Renders a report as `rcast-trace/v1` JSONL: one header line, then
/// the selected events in `(at, node, seq)` order, then the selected
/// per-interval series rows.
///
/// `scheme` and `seed` identify the run in the header. `filter`
/// selects events (see [`TraceFilter`]); `interval_range` keeps only
/// intervals `k` with `lo <= k < hi`.
pub fn render_jsonl(
    report: &ObsReport,
    scheme: &str,
    seed: u64,
    filter: Option<&TraceFilter>,
    interval_range: Option<(u64, u64)>,
) -> String {
    let beacon = SimDuration::from_nanos(report.beacon_nanos());
    let in_range = |k: u64| interval_range.is_none_or(|(lo, hi)| k >= lo && k < hi);
    let selected = report
        .events()
        .iter()
        .filter(|e| in_range(e.at.interval_index(beacon)) && filter.is_none_or(|f| f.matches(e)));
    // The header carries the event count, so count before rendering:
    // the lines then go straight into the one output buffer.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"rcast-trace/v1\",\"scheme\":\"{scheme}\",\"seed\":{seed},\
\"nodes\":{},\"intervals\":{},\"beacon_ns\":{},\"events\":{},\"dropped\":{}}}",
        report.nodes(),
        report.intervals(),
        report.beacon_nanos(),
        selected.clone().count(),
        report.dropped()
    );
    for e in selected {
        push_event_line(&mut out, e, beacon);
    }
    if filter.is_none_or(TraceFilter::matches_series) {
        let series = report.series();
        for k in 0..series.rows() {
            if !in_range(k as u64) {
                continue;
            }
            let row = series.row(k);
            let _ = writeln!(
                out,
                "{{\"kind\":\"interval\",\"k\":{k},\"awake_ns\":{},\"overheard\":{},\"airtime_ns\":{}}}",
                row[0] as u64, row[1] as u64, row[2] as u64
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Ledger, LedgerParams};
    use rcast_engine::{NodeId, SimTime};
    use rcast_radio::PowerState;

    fn sample_report() -> ObsReport {
        let mut l = Ledger::new(LedgerParams {
            nodes: 4,
            intervals: 2,
            beacon_nanos: 250_000_000,
            packet_events: 2,
        });
        for k in 0..2u64 {
            let t = SimTime::from_millis(250 * k);
            l.record_event(
                t,
                NodeId::new(1),
                EventKind::Originated {
                    flow: 2,
                    seq: k,
                    dst: NodeId::new(3),
                },
            );
            l.record_event(
                t + SimDuration::from_millis(60),
                NodeId::new(2),
                EventKind::Overheard {
                    sender: NodeId::new(1),
                },
            );
            l.record_span(t, NodeId::new(0), PowerState::Awake, SimDuration::from_millis(50));
            l.end_interval();
        }
        l.into_report()
    }

    #[test]
    fn header_then_events_then_intervals() {
        let out = render_jsonl(&sample_report(), "rcast", 7, None, None);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + 6 + 2);
        assert!(lines[0].starts_with(
            "{\"schema\":\"rcast-trace/v1\",\"scheme\":\"rcast\",\"seed\":7,\"nodes\":4,"
        ));
        assert!(lines[0].contains("\"events\":6,\"dropped\":0"));
        // At t=0 the span on node 0 sorts before node 1's origination.
        assert!(lines[1].contains("\"kind\":\"span\""));
        assert!(lines[2].contains("\"kind\":\"originated\""));
        assert!(lines[2].contains("\"flow\":2,\"pkt\":0,\"dst\":3"));
        assert!(lines[7].starts_with("{\"kind\":\"interval\",\"k\":0,"));
        // Every line is self-contained JSON-ish: braces balance.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn node_filter_selects_one_node_and_drops_series() {
        let out = render_jsonl(&sample_report(), "rcast", 7, Some(&TraceFilter::Node(2)), None);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + 2, "two overheard events at node 2");
        assert!(lines.iter().skip(1).all(|l| l.contains("\"node\":2,")));
        assert!(!out.contains("\"kind\":\"interval\""));
    }

    #[test]
    fn flow_and_kind_filters() {
        let r = sample_report();
        let flow = render_jsonl(&r, "rcast", 7, Some(&TraceFilter::Flow(2)), None);
        assert_eq!(flow.lines().count(), 1 + 2);
        let none = render_jsonl(&r, "rcast", 7, Some(&TraceFilter::Flow(9)), None);
        assert_eq!(none.lines().count(), 1);
        let spans =
            render_jsonl(&r, "rcast", 7, Some(&TraceFilter::Kind("span".into())), None);
        assert!(spans.lines().skip(1).all(|l| l.contains("\"kind\":\"span\"")));
        let intervals = render_jsonl(
            &r,
            "rcast",
            7,
            Some(&TraceFilter::Kind("interval".into())),
            None,
        );
        assert_eq!(intervals.lines().count(), 1 + 2);
    }

    #[test]
    fn interval_range_is_half_open() {
        let out = render_jsonl(&sample_report(), "rcast", 7, None, Some((1, 2)));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + 3 + 1);
        assert!(lines.iter().skip(1).all(|l| l.contains("\"interval\":1") || l.contains("\"k\":1")));
    }

    #[test]
    fn filter_parsing_round_trips() {
        assert_eq!(TraceFilter::parse("node=5"), Ok(TraceFilter::Node(5)));
        assert_eq!(TraceFilter::parse("flow=0"), Ok(TraceFilter::Flow(0)));
        assert_eq!(
            TraceFilter::parse("kind=span"),
            Ok(TraceFilter::Kind("span".into()))
        );
        assert!(TraceFilter::parse("node=x").is_err());
        assert!(TraceFilter::parse("speed=1").is_err());
        assert!(TraceFilter::parse("nofilter").is_err());
        assert!(TraceFilter::parse("kind=").is_err());
        assert_eq!(
            TraceFilter::parse("kind=interval"),
            Ok(TraceFilter::Kind("interval".into()))
        );
        let err = TraceFilter::parse("kind=atim_unicst").unwrap_err();
        assert!(err.contains("'atim_unicst'"), "{err}");
        for kind in KIND_NAMES {
            assert!(err.contains(kind), "{err} lacks {kind}");
            assert_eq!(
                TraceFilter::parse(&format!("kind={kind}")),
                Ok(TraceFilter::Kind(kind.into()))
            );
        }
    }

    #[test]
    fn output_is_deterministic() {
        let a = render_jsonl(&sample_report(), "rcast", 7, None, None);
        let b = render_jsonl(&sample_report(), "rcast", 7, None, None);
        assert_eq!(a, b);
    }
}
