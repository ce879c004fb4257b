//! The metric table and the one-line JSON result.
//!
//! The table is the benchmark's contract with BENCHMARK.json: the same
//! names, units, directions and bounds (a test keeps the two in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The BENCHMARK.json spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the table.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which
    /// the metric may worsen. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    e2e("sim_s_per_s", "sim-s/ref-s", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("heap_allocs", "count", Lower, 0.25),
];

/// Metrics of the traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 31] = [
    layer("core.new_ms", "ms", Lower),
    layer("core.step_ms_p50", "ms", Lower),
    layer("core.step_ms_p99", "ms", Lower),
    layer("core.finish_ms", "ms", Lower),
    layer("core.downstream_ms_per_interval", "ms", Lower),
    layer("core.step_allocs_per_interval", "1/interval", Lower),
    layer("mobility.advance_ms_per_interval", "ms", Lower),
    layer("mobility.refilled_per_interval", "1/interval", Lower),
    layer("mac.atim_per_interval", "1/interval", Lower),
    layer("mac.data_frames_per_interval", "1/interval", Higher),
    layer("mac.deferred_per_interval", "1/interval", Lower),
    layer("mac.link_failures", "count", Lower),
    layer("dsr.rreq_per_interval", "1/interval", Lower),
    layer("dsr.rrep_per_interval", "1/interval", Lower),
    layer("dsr.rerr_per_interval", "1/interval", Lower),
    layer("dsr.data_forwarded_per_interval", "1/interval", Higher),
    layer("dsr.data_salvaged", "count", Higher),
    layer("traffic.originated", "count", Higher),
    layer("metrics.delivered", "count", Higher),
    layer("obs.events_per_interval", "1/interval", Lower),
    layer("obs.ledger_overhead", "%", Lower),
    layer("obs.export_ms", "ms", Lower),
    layer("obs.export_mb_per_s", "MB/s", Higher),
    layer("obs.export_allocs", "count", Lower),
    layer("obs.replay_ms", "ms", Lower),
    layer("sweep.run_ms_per_run", "ms", Lower),
    layer("sweep.allocs_per_run", "count", Lower),
    layer("sweep.render_ms", "ms", Lower),
    layer("engine.pool_speedup", "x", Higher),
    layer("traced.sim_s_per_s", "sim-s/ref-s", Higher),
    layer("traced.overhead", "%", Lower),
];

/// The result line: every metric of `table`, in table order, from
/// `values` (which must hold exactly those names, each once, finite).
///
/// # Errors
///
/// Returns the first missing, unknown, duplicate or non-finite metric.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {name} is not in the table"));
    }
    let mut body = Vec::with_capacity(table.len());
    for m in table {
        let mut hits = values.iter().filter(|(n, _)| *n == m.name);
        let value = match (hits.next(), hits.next()) {
            (Some(&(_, v)), None) => v,
            (None, _) => return Err(format!("metric {} was not measured", m.name)),
            (Some(_), Some(_)) => return Err(format!("metric {} measured twice", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line() {
        let line = render(
            true,
            12,
            0,
            &END_TO_END,
            &[
                ("heap_allocs", 4096.0),
                ("sim_s_per_s", 101.25),
                ("setup_s", 0.000_31),
                ("peak_rss_mb", 12.5),
            ],
        )
        .expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"sim_s_per_s\": {\"value\": 101.25, \"unit\": \"sim-s/ref-s\"}, \
             \"setup_s\": {\"value\": 0.00031, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.5, \"unit\": \"MB\"}, \
             \"heap_allocs\": {\"value\": 4096, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn small_values_print_without_an_exponent() {
        let line =
            render(true, 1, 0, &END_TO_END[..1], &[("sim_s_per_s", 1e-7)]).expect("complete");
        assert!(line.contains("\"value\": 0.0000001,"), "{line}");
    }

    #[test]
    fn refuses_incomplete_or_invalid_metrics() {
        let t = &END_TO_END[..2];
        assert!(render(true, 1, 0, t, &[("sim_s_per_s", 1.0)]).is_err());
        assert!(render(
            true,
            1,
            0,
            t,
            &[("sim_s_per_s", 1.0), ("setup_s", f64::NAN)]
        )
        .is_err());
        assert!(render(
            true,
            1,
            0,
            t,
            &[("sim_s_per_s", 1.0), ("setup_s", 1.0), ("x", 1.0)]
        )
        .is_err());
        assert!(render(
            true,
            1,
            0,
            t,
            &[("sim_s_per_s", 1.0), ("setup_s", 1.0), ("setup_s", 2.0)]
        )
        .is_err());
    }

    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.label()
            );
            if let Some(b) = m.bound {
                entry.push_str(&format!(", \"bound\": {b}"));
            }
            entry.push('}');
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = json.matches("{\"name\": ").count();
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in crate::workload::Workload::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{w:?}"
            );
        }
    }
}
