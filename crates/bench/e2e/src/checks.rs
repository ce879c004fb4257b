//! Output checks. Each is computed apart from the program's own
//! aggregates, or is a property the method must have; a violated
//! check fails the operation it belongs to.

use std::sync::Arc;

use rcast_core::{Scheme, SimConfig, SimReport, Simulation};
use rcast_sweep::{SweepReport, SweepSpec};

/// The paper's WaveLAN-II awake (idle = rx = tx) power, W.
const AWAKE_W: f64 = 1.15;
/// The paper's WaveLAN-II doze power, W.
const DOZE_W: f64 = 0.045;
/// Relative slack for comparisons against closed-form energies, which
/// the simulator reaches by summing thousands of spans.
const REL_EPS: f64 = 1e-9;

/// Checks every run must pass: per-node energy between the doze and
/// awake bounds, delivered ≤ originated, originated within what the
/// CBR flows can generate, and (Rcast) total energy strictly below the
/// always-on bound.
pub fn run(cfg: &SimConfig, r: &SimReport) -> Result<(), String> {
    let t = cfg.duration.as_secs_f64();
    let (lo, hi) = (DOZE_W * t, AWAKE_W * t);
    for (i, &j) in r.energy.per_node_joules().iter().enumerate() {
        if !(j >= lo * (1.0 - REL_EPS) && j <= hi * (1.0 + REL_EPS)) {
            return Err(format!("node {i} used {j} J, outside [{lo}, {hi}] J"));
        }
    }
    let (orig, dlv) = (r.delivery.originated(), r.delivery.delivered());
    if dlv > orig {
        return Err(format!("delivered {dlv} > originated {orig}"));
    }
    let flows = f64::from(cfg.traffic.flows);
    let rate = cfg.traffic.rate_pps;
    let stagger = cfg.traffic.stagger.as_secs_f64();
    let min = flows * ((t - stagger).max(0.0) * rate).floor();
    let max = flows * (t * rate).ceil();
    if !(orig as f64 >= min && orig as f64 <= max) {
        return Err(format!("originated {orig} outside [{min}, {max}]"));
    }
    if r.scheme == Scheme::Rcast {
        let total: f64 = r.energy.per_node_joules().iter().sum();
        let bound = f64::from(cfg.nodes) * hi;
        if total >= bound {
            return Err(format!(
                "Rcast used {total} J, not below always-on {bound} J"
            ));
        }
    }
    Ok(())
}

/// Checks of a ledger run and its rcast-trace/v1 export: energy replay
/// equals the report to the bit, the header's event count matches the
/// event lines, and events are in `(at, node, seq)` order.
pub fn trace(cfg: &SimConfig, r: &SimReport, jsonl: &str) -> Result<(), String> {
    let obs = r.obs.as_ref().ok_or("ledger run without an ObsReport")?;
    let replay = obs.replay_energy(cfg.energy);
    let direct = r.energy.per_node_joules();
    if replay.len() != direct.len() {
        return Err(format!(
            "replay has {} nodes, report {}",
            replay.len(),
            direct.len()
        ));
    }
    if let Some(i) = (0..direct.len()).find(|&i| replay[i].to_bits() != direct[i].to_bits()) {
        return Err(format!(
            "node {i}: replay {} J != report {} J",
            replay[i], direct[i]
        ));
    }
    let mut lines = jsonl.lines();
    let header = lines.next().ok_or("empty export")?;
    if !header.starts_with("{\"schema\":\"rcast-trace/v1\"") {
        return Err(format!("bad header {header:?}"));
    }
    let declared = field(header, "events").ok_or("header without an event count")?;
    let mut events = 0u64;
    let mut last = (0u64, 0u64, 0u64);
    for line in event_lines(jsonl) {
        let key = match (
            field(line, "at_ns"),
            field(line, "node"),
            field(line, "seq"),
        ) {
            (Some(a), Some(n), Some(s)) => (a, n, s),
            _ => return Err(format!("malformed event line {line:?}")),
        };
        if events > 0 && key < last {
            return Err(format!(
                "event {key:?} after {last:?}: not in (at, node, seq) order"
            ));
        }
        last = key;
        events += 1;
    }
    if events != declared {
        return Err(format!(
            "header declares {declared} events, export has {events}"
        ));
    }
    Ok(())
}

/// The export's originated and delivered lines must equal the
/// `DeliveryTracker` totals.
///
/// At trace-150's load the ledger's per-interval event budget
/// overflows and drops packet events (the header's `dropped` counts
/// them), so this check fails every trace-150 operation.
pub fn trace_packets(r: &SimReport, jsonl: &str) -> Result<(), String> {
    let (mut originated, mut delivered) = (0u64, 0u64);
    for line in event_lines(jsonl) {
        if line.contains("\"kind\":\"originated\"") {
            originated += 1;
        } else if line.contains("\"kind\":\"packet_delivered\"") {
            delivered += 1;
        }
    }
    if (originated, delivered) != (r.delivery.originated(), r.delivery.delivered()) {
        let dropped = jsonl
            .lines()
            .next()
            .and_then(|h| field(h, "dropped"))
            .unwrap_or(0);
        return Err(format!(
            "export has {originated} originated / {delivered} delivered lines, \
             tracker counts {} / {} (ledger dropped {dropped} events)",
            r.delivery.originated(),
            r.delivery.delivered()
        ));
    }
    Ok(())
}

/// The event lines of an export: everything after the header but the
/// per-interval series rows.
fn event_lines(jsonl: &str) -> impl Iterator<Item = &str> {
    jsonl
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("{\"kind\":\"interval\""))
}

/// The unsigned integer value of `"key":<n>` in one JSON line.
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits = line[start..].split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// The two-sided 95% Student-t critical value at 2 degrees of freedom
/// (three seeds), as printed in the standard tables.
const T95_DF2: f64 = 4.303;

/// Checks of one campaign's summary and artifacts: one cell per
/// scheme × rate; every metric's 95% interval well-formed (finite, the
/// Student-t half-width t·sd/√n of its own n = 3 samples, positive
/// unless the samples agree); and every 802.11 cell at exactly the
/// always-on energy with zero spread. [`campaign_runs`] adds that each
/// mean lies within its runs' range.
pub fn campaign(spec: &SweepSpec, r: &SweepReport, json: &str, csv: &str) -> Result<(), String> {
    let want = spec.schemes.len() * spec.rates.len();
    if r.cells.len() != want {
        return Err(format!(
            "{} cells, expected schemes × rates = {want}",
            r.cells.len()
        ));
    }
    if !json.contains("\"schema\": \"rcast-sweep/v1\"") {
        return Err("JSON artifact lacks the rcast-sweep/v1 schema".into());
    }
    if csv.lines().count() != want + 1 {
        return Err(format!(
            "CSV has {} lines, expected header + {want}",
            csv.lines().count()
        ));
    }
    if spec.seeds.len() != 3 {
        return Err(format!("{} seeds, expected 3", spec.seeds.len()));
    }
    let t = spec.base.duration.as_secs_f64();
    for c in &r.cells {
        for m in &c.metrics {
            interval95(m.n, m.mean, m.stddev, m.half_width95)
                .map_err(|e| format!("cell {}: {e}", c.cell.key()))?;
        }
        if c.cell.scheme == Scheme::Dot11 {
            let e = c.metric("energy_j");
            let always_on = f64::from(c.cell.nodes) * AWAKE_W * t;
            if (e.mean - always_on).abs() > always_on * REL_EPS || e.stddev != 0.0 {
                return Err(format!(
                    "802.11 cell {}: energy {} J ± {} (sd), expected {always_on} J with zero spread",
                    c.cell.key(),
                    e.mean,
                    e.stddev
                ));
            }
        }
    }
    Ok(())
}

/// A three-sample 95% interval is well-formed: finite, the Student-t
/// half-width t·sd/√3, and positive exactly when the samples differ.
fn interval95(n: u64, mean: f64, sd: f64, hw: f64) -> Result<(), String> {
    let expect = T95_DF2 * sd / 3f64.sqrt();
    let well_formed = n == 3
        && mean.is_finite()
        && sd.is_finite()
        && sd >= 0.0
        && hw.is_finite()
        && (hw > 0.0) == (sd > 0.0)
        && (hw - expect).abs() <= expect * REL_EPS;
    if well_formed {
        Ok(())
    } else {
        Err(format!(
            "n {n}, mean {mean}, sd {sd}: 95% half-width {hw}, expected {expect}"
        ))
    }
}

/// Per-run checks of a campaign: re-runs each of its runs outside the
/// sweep engine, applies [`run`] to each, and compares each cell's mean
/// energy and delivery ratio with means computed here; each mean must
/// also lie within the range of its runs' values.
pub fn campaign_runs(r: &SweepReport) -> Result<(), String> {
    let spec = &r.spec;
    for summary in &r.cells {
        let cell = &summary.cell;
        let cfg = Arc::new(cell.config(spec));
        let (mut energy, mut pdr) = (Vec::new(), Vec::new());
        for &s in &spec.seeds {
            let report = Simulation::with_seed(cfg.clone(), cell.run_seed(s, spec.pairing))?.run();
            run(&cfg, &report).map_err(|e| format!("cell {} seed {s}: {e}", cell.key()))?;
            energy.push(report.energy.per_node_joules().iter().sum::<f64>());
            let (o, d) = (report.delivery.originated(), report.delivery.delivered());
            pdr.push(d as f64 / o as f64);
        }
        for (name, runs) in [("energy_j", energy), ("pdr", pdr)] {
            let mine = runs.iter().sum::<f64>() / runs.len() as f64;
            let theirs = summary.metric(name).mean;
            if (mine - theirs).abs() > mine.abs() * REL_EPS {
                return Err(format!(
                    "cell {}: {name} mean {theirs}, recomputed {mine}",
                    cell.key()
                ));
            }
            let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let slack = hi.abs() * REL_EPS;
            if !(theirs >= lo - slack && theirs <= hi + slack) {
                return Err(format!(
                    "cell {}: {name} mean {theirs} outside its runs' range [{lo}, {hi}]",
                    cell.key()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_unsigned_values() {
        let l = "{\"at_ns\":250000000,\"interval\":1,\"node\":12,\"seq\":7,\"kind\":\"span\"}";
        assert_eq!(field(l, "at_ns"), Some(250_000_000));
        assert_eq!(field(l, "node"), Some(12));
        assert_eq!(field(l, "seq"), Some(7));
        assert_eq!(field(l, "flow"), None);
    }

    #[test]
    fn interval_check_can_fail() {
        // Samples 1, 2, 3: mean 2, sd 1, half-width 4.303 / √3.
        let hw = 4.303 / 3f64.sqrt();
        assert!(interval95(3, 2.0, 1.0, hw).is_ok());
        assert!(interval95(3, 5.0, 0.0, 0.0).is_ok());
        for (n, sd, hw) in [
            (3, 1.0, 2.0 * hw),
            (3, 1.0, f64::INFINITY),
            (3, 1.0, 0.0),
            (3, 0.0, hw),
            (1, 0.0, f64::INFINITY),
            (2, 1.0, hw),
            (3, f64::NAN, hw),
        ] {
            assert!(interval95(n, 2.0, sd, hw).is_err(), "{n} {sd} {hw}");
        }
    }
}
