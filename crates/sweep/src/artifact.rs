//! Stable `rcast-sweep/v1` artifacts: JSON and CSV renderings of a
//! [`SweepReport`].
//!
//! Hand-rolled and canonical, like the `rcast-bench/v1` document: fixed
//! key order, shortest-round-trip number rendering, no timestamps, no
//! host or thread-count fields. Two runs of the same spec — at any
//! `--threads` width — render **byte-identical** files, so artifacts can
//! be checked in and diffed, and CI can `cmp` them against goldens.

use std::fmt::Display;

use rcast_core::FIGURE_METRICS;
use rcast_metrics::{CsvTable, SampleSummary};

use crate::run::{CellSummary, SweepReport};
use crate::spec::Variant;

/// A JSON number: shortest round-trip `Display` for finite values,
/// `null` otherwise (JSON has no NaN/infinity).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of rendered items.
fn array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

/// A JSON array of numbers.
fn num_array(xs: impl Iterator<Item = f64>) -> String {
    array(xs.map(num))
}

/// A JSON array of strings (no escaping needed: every value here is a
/// scheme label or variant label, both escape-free by construction).
fn str_array(xs: impl Iterator<Item = impl Display>) -> String {
    array(xs.map(|x| format!("\"{x}\"")))
}

/// A cell's metric columns, figure metrics first, then the spec's
/// extra metrics.
fn columns(cell: &CellSummary) -> impl Iterator<Item = (&str, &SampleSummary)> {
    FIGURE_METRICS
        .iter()
        .copied()
        .zip(&cell.metrics)
        .chain(cell.extra.iter().map(|(name, m)| (*name, m)))
}

/// Renders the `rcast-sweep/v1` JSON document. See the
/// [module docs](self) for the stability contract.
pub fn to_json(report: &SweepReport) -> String {
    let spec = &report.spec;
    let labels: Vec<String> = spec.variants.iter().map(Variant::label).collect();
    let mut s = String::from("{\n  \"schema\": \"rcast-sweep/v1\",\n");
    s.push_str(&format!("  \"name\": \"{}\",\n", spec.name));
    s.push_str(&format!("  \"pairing\": \"{}\",\n", spec.pairing.label()));
    s.push_str(&format!(
        "  \"seeds\": {},\n",
        num_array(spec.seeds.iter().map(|&x| x as f64))
    ));
    s.push_str("  \"axes\": {\n");
    s.push_str(&format!(
        "    \"schemes\": {},\n",
        str_array(spec.schemes.iter().map(|x| x.label()))
    ));
    s.push_str(&format!("    \"rates_pps\": {},\n", num_array(spec.rates.iter().copied())));
    s.push_str(&format!("    \"pauses_s\": {},\n", num_array(spec.pauses.iter().copied())));
    s.push_str(&format!(
        "    \"nodes\": {},\n",
        num_array(spec.nodes.iter().map(|&x| f64::from(x)))
    ));
    s.push_str(&format!(
        "    \"fault_plans\": {}\n",
        str_array(labels.iter())
    ));
    s.push_str("  },\n");
    s.push_str(&format!(
        "  \"base\": {{\"routing\": \"{}\", \"duration_s\": {}, \"flows\": {}, \
\"packet_bytes\": {}, \"area_m\": [{}, {}]}},\n",
        spec.base.routing.token(),
        num(spec.base.duration.as_secs_f64()),
        spec.base.traffic.flows,
        spec.base.traffic.packet_bytes,
        num(spec.base.area.width()),
        num(spec.base.area.height()),
    ));
    s.push_str(&format!("  \"total_runs\": {},\n", report.total_runs));
    s.push_str("  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"rate_pps\": {}, \"pause_s\": {}, \
\"nodes\": {}, \"fault_plan\": \"{}\", \"runs\": {},\n",
            cell.cell.scheme.label(),
            num(cell.cell.rate_pps),
            num(cell.cell.pause_s),
            cell.cell.nodes,
            labels[cell.cell.variant_index],
            cell.runs,
        ));
        s.push_str("     \"metrics\": {");
        for (j, (name, m)) in columns(cell).enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{name}\": {{\"mean\": {}, \"stddev\": {}, \"ci95\": {}}}",
                num(m.mean),
                num(m.stddev),
                num(m.half_width95),
            ));
        }
        s.push('}');
        if let Some(curve) = &cell.per_node_energy_j {
            s.push_str(&format!(
                ",\n     \"per_node_energy_j\": {}",
                num_array(curve.iter().copied())
            ));
        }
        if let Some(roles) = &cell.per_node_roles {
            let roles = num_array(roles.iter().map(|&r| r as f64));
            s.push_str(&format!(",\n     \"per_node_roles\": {roles}"));
        }
        s.push_str(&format!(
            "}}{}\n",
            if i + 1 < report.cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders the CSV table: one row per cell, scalar summaries only
/// (per-node curves live in the JSON document). Columns are the cell
/// coordinates followed by `mean`/`stddev`/`ci95` triples per
/// [`FIGURE_METRICS`](rcast_core::FIGURE_METRICS) column.
pub fn to_csv(report: &SweepReport) -> String {
    let mut header: Vec<String> = [
        "name", "scheme", "rate_pps", "pause_s", "nodes", "fault_plan", "runs",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let labels: Vec<String> = report.spec.variants.iter().map(Variant::label).collect();
    for name in FIGURE_METRICS.iter().chain(&report.spec.metrics) {
        header.push(format!("{name}_mean"));
        header.push(format!("{name}_stddev"));
        header.push(format!("{name}_ci95"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = CsvTable::new(&header_refs);
    for cell in &report.cells {
        let mut row = vec![
            report.spec.name.clone(),
            cell.cell.scheme.label().to_string(),
            CsvTable::num(cell.cell.rate_pps),
            CsvTable::num(cell.cell.pause_s),
            cell.cell.nodes.to_string(),
            labels[cell.cell.variant_index].clone(),
            cell.runs.to_string(),
        ];
        for (_, m) in columns(cell) {
            row.push(CsvTable::num(m.mean));
            row.push(CsvTable::num(m.stddev));
            row.push(CsvTable::num(m.half_width95));
        }
        table.row(row);
    }
    table.render()
}

/// A human-readable summary table for the terminal: one line per cell
/// with every [`FIGURE_METRICS`](rcast_core::FIGURE_METRICS) column —
/// energy (mean ± CI95), per-node energy variance, PDR, delay, routing
/// overhead and energy per bit. Variants other than the healthy plan
/// are listed by their `f` index first. Each cell line is followed by
/// the means of the spec's extra metrics, if any, and, when the spec
/// asked for per-node curves, by its sorted curve sampled at every 10th
/// position plus the last (Fig. 5's shape at a glance) and its largest
/// and mean role numbers (Fig. 9's).
pub fn human_summary(report: &SweepReport) -> String {
    let mut s = format!(
        "sweep {}: {} cells x {} seeds = {} runs ({} simulated seconds)\n",
        report.spec.name,
        report.cells.len(),
        report.spec.seeds.len(),
        report.total_runs,
        report.total_sim_seconds,
    );
    let labels: Vec<String> = report.spec.variants.iter().map(Variant::label).collect();
    if labels.iter().any(|l| l != "none") {
        for (i, label) in labels.iter().enumerate() {
            s.push_str(&format!("  f{i}: {label}\n"));
        }
    }
    s.push_str(&format!(
        "{:<32} {:>16} {:>10} {:>7} {:>10} {:>9} {:>11}\n",
        "cell", "energy (J)", "variance", "PDR", "delay (ms)", "overhead", "EPB (J/bit)"
    ));
    for cell in &report.cells {
        let e = cell.metric("energy_j");
        // One seed gives no interval: `summarize95` reports an infinite
        // half-width (the JSON artifact writes `null`).
        let half_width = if e.half_width95.is_finite() {
            format!("{:>5.0}", e.half_width95)
        } else {
            format!("{:>5}", "n/a")
        };
        s.push_str(&format!(
            "{:<32} {:>9.0} ±{} {:>10.0} {:>6.1}% {:>10.0} {:>9.2} {:>11.3e}\n",
            cell.cell.key(),
            e.mean,
            half_width,
            cell.metric("energy_variance").mean,
            cell.metric("pdr").mean * 100.0,
            cell.metric("delay_s").mean * 1e3,
            cell.metric("overhead").mean,
            cell.metric("epb_j_per_bit").mean,
        ));
        if !cell.extra.is_empty() {
            let extra: Vec<String> =
                cell.extra.iter().map(|(name, m)| format!("{name} {:.3}", m.mean)).collect();
            s.push_str(&format!("    {}\n", extra.join(" | ")));
        }
        if let Some(curve) = &cell.per_node_energy_j {
            s.push_str("    sorted per-node energy (J):");
            let last = curve.len().saturating_sub(1);
            for i in (0..curve.len())
                .step_by(10)
                .chain((last % 10 != 0).then_some(last))
            {
                s.push_str(&format!(" #{i} {:.1}", curve[i]));
            }
            s.push('\n');
        }
        if let Some(roles) = &cell.per_node_roles {
            let max = roles.iter().max().unwrap_or(&0);
            let mean = roles.iter().sum::<u64>() as f64 / roles.len() as f64;
            s.push_str(&format!("    role numbers: max {max} | mean {mean:.1}\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_spec;
    use crate::spec::SweepSpec;
    use rcast_core::Scheme;
    use rcast_engine::SimDuration;

    fn tiny_report() -> SweepReport {
        let mut spec = SweepSpec::paper_default("artifact-test");
        spec.base.duration = SimDuration::from_secs(8);
        spec.base.area = rcast_core::Area::new(600.0, 300.0);
        spec.base.traffic.flows = 3;
        spec.schemes = vec![Scheme::Dot11, Scheme::Rcast];
        spec.rates = vec![0.4];
        spec.pauses = vec![8.0];
        spec.nodes = vec![10];
        spec.seeds = vec![1, 2];
        spec.per_node = true;
        run_spec(&spec, 2).expect("tiny sweep runs")
    }

    #[test]
    fn json_has_schema_axes_and_every_cell() {
        let report = tiny_report();
        let json = to_json(&report);
        assert!(json.starts_with("{\n  \"schema\": \"rcast-sweep/v1\""));
        assert!(json.contains("\"name\": \"artifact-test\""));
        assert!(json.contains("\"schemes\": [\"802.11\", \"Rcast\"]"));
        assert!(json.contains("\"fault_plans\": [\"none\"]"));
        assert!(json.contains("\"per_node_energy_j\": ["));
        assert_eq!(json.matches("\"per_node_roles\": [").count(), 2, "one per cell");
        assert!(json.contains("\"total_runs\": 4"));
        for name in FIGURE_METRICS {
            assert!(json.contains(&format!("\"{name}\": {{\"mean\": ")), "{name}");
        }
        assert_eq!(json.matches("\"scheme\": ").count(), 2, "one per cell");
        assert!(!json.contains("threads"), "no execution-environment fields");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn csv_is_rectangular_with_one_row_per_cell() {
        let report = tiny_report();
        let csv = to_csv(&report);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + report.cells.len());
        let cols = lines[0].split(',').count();
        assert_eq!(cols, 7 + 3 * FIGURE_METRICS.len());
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
        assert!(lines[0].starts_with("name,scheme,rate_pps"));
        assert!(lines[1].starts_with("artifact-test,802.11,0.4,8,10,none,2,"));
    }

    #[test]
    fn artifacts_are_stable_across_renders_and_widths() {
        let spec = tiny_report().spec;
        let a = run_spec(&spec, 1).expect("serial");
        let b = run_spec(&spec, 8).expect("parallel");
        assert_eq!(to_json(&a), to_json(&b));
        assert_eq!(to_csv(&a), to_csv(&b));
        assert_eq!(to_json(&a), to_json(&a), "rendering is pure");
    }

    #[test]
    fn human_summary_lists_every_cell() {
        let report = tiny_report();
        let text = human_summary(&report);
        assert!(text.contains("artifact-test"));
        for column in [
            "energy (J)",
            "variance",
            "PDR",
            "delay (ms)",
            "overhead",
            "EPB (J/bit)",
        ] {
            assert!(text.lines().nth(1).unwrap().contains(column), "{column}");
        }
        for cell in &report.cells {
            assert!(text.contains(&cell.cell.key()), "{}", cell.cell.key());
        }
        // Ten nodes per cell: the curve samples positions 0 and 9.
        let curves: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("    sorted per-node energy (J): #0 "))
            .collect();
        assert_eq!(curves.len(), report.cells.len(), "one curve line per cell");
        for (line, cell) in curves.iter().zip(&report.cells) {
            let curve = cell.per_node_energy_j.as_ref().unwrap();
            assert!(line.ends_with(&format!(" #9 {:.1}", curve[9])), "{line}");
            assert_eq!(line.matches(" #").count(), 2, "{line}");
        }
    }

    #[test]
    fn a_fault_plan_line_is_a_faults_variant() {
        let base = "schemes rcast\nrates 0.4\npauses 8\nnodes 10\nseeds 1,2\n\
                    duration 8\narea 600 300\nflows 3\npairing independent\nfault-plan none\n";
        let render = |line: &str| {
            let spec = crate::parse_spec(&format!("{base}{line}\n")).expect("valid spec");
            let report = run_spec(&spec, 2).expect("runs");
            (to_json(&report), to_csv(&report))
        };
        let (json, csv) = render("fault-plan crash=0.3,downtime=20");
        assert_eq!((json.clone(), csv), render("variant faults crash=0.3,downtime=20"));
        assert!(json.contains("\"fault_plans\": [\"none\", \"crash=0.3,downtime=20,"), "{json}");
    }

    #[test]
    fn every_preset_smoke_grid_runs_and_renders() {
        for name in crate::PRESETS {
            let spec = crate::preset(name).expect(name).smoke();
            let report = run_spec(&spec, 2).expect(name);
            assert_eq!(report.cells.len(), spec.normalized().unwrap().expand().len(), "{name}");
            let (json, csv) = (to_json(&report), to_csv(&report));
            assert!(json.contains(&format!("\"name\": \"{name}-smoke\"")), "{name}");
            for metric in &report.spec.metrics {
                assert!(csv.lines().next().unwrap().contains(&format!("{metric}_mean")), "{name}");
                assert!(json.contains(&format!("\"{metric}\": {{\"mean\": ")), "{name}");
            }
            assert_eq!(csv.lines().count(), 1 + report.cells.len(), "{name}");
            assert!(human_summary(&report).lines().count() > report.cells.len(), "{name}");
        }
    }

    #[test]
    fn a_one_seed_cell_prints_no_interval() {
        let mut spec = tiny_report().spec;
        spec.seeds = vec![1];
        let one = run_spec(&spec, 1).expect("one-seed sweep runs");
        let text = human_summary(&one);
        let rows: Vec<&str> = text.lines().filter(|l| l.contains(" ±")).collect();
        assert_eq!(rows.len(), one.cells.len(), "{text}");
        for row in rows {
            assert!(row.contains(" ±  n/a "), "{row}");
            assert!(!row.contains("inf"), "{row}");
        }
        // The two-seed report keeps its numeric intervals, in the same
        // column.
        let two = human_summary(&tiny_report());
        let (a, b) = (text.lines().nth(2).unwrap(), two.lines().nth(2).unwrap());
        assert_eq!(a.find('±'), b.find('±'));
        assert_eq!(a.len(), b.len(), "fixed width:\n{a}\n{b}");
        assert!(!b.contains("n/a"), "{b}");
        assert!(to_json(&one).contains("\"ci95\": null"));
    }
}
