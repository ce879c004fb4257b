//! Matrix execution: from a [`SweepSpec`] to per-cell statistics.
//!
//! [`run_spec`] expands the spec, fans every `(cell, seed)` run across
//! up to `threads` workers through [`ScopedPool::map_grid`] — workers
//! steal across *cells*, not just within one cell's seeds, so the grid
//! stays balanced even when cells cost wildly different amounts — and
//! reduces each cell's runs to mean/stddev/CI95 summaries per figure
//! metric. Every run is a pure function of `(config, seed)` and the
//! reduction happens in canonical cell × seed order on the caller's
//! thread, so the report (and any artifact rendered from it) is
//! **byte-identical** for any thread count.

use std::sync::Arc;

use rcast_core::{
    AggregateReport, RunMetric, SimConfig, SimReport, Simulation, FIGURE_METRICS, RUN_METRICS,
};
use rcast_engine::pool::ScopedPool;
use rcast_metrics::{summarize95, SampleSummary};

use crate::spec::{SweepCell, SweepSpec};

/// One executed cell: its matrix point plus seed-averaged statistics.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// The matrix point.
    pub cell: SweepCell,
    /// Runs (seeds) aggregated.
    pub runs: usize,
    /// Per-metric summaries, indexed like
    /// [`FIGURE_METRICS`](rcast_core::FIGURE_METRICS).
    pub metrics: [SampleSummary; FIGURE_METRICS.len()],
    /// Summaries of the spec's extra [`metrics`](SweepSpec::metrics),
    /// by name, in the spec's order.
    pub extra: Vec<(&'static str, SampleSummary)>,
    /// Seed-averaged per-node energy sorted ascending (Fig. 5's curve),
    /// when the spec set [`per_node`](SweepSpec::per_node).
    pub per_node_energy_j: Option<Vec<f64>>,
    /// Per-node role numbers summed over the runs, in the order of
    /// [`per_node_energy_j`](Self::per_node_energy_j): entry `i` of
    /// both is one node, a point of Fig. 9's scatter.
    pub per_node_roles: Option<Vec<u64>>,
}

impl CellSummary {
    /// The summary for one metric by its
    /// [`FIGURE_METRICS`](rcast_core::FIGURE_METRICS) column name or
    /// the name of one of the spec's extra metrics.
    ///
    /// # Panics
    ///
    /// Panics on a name that is neither.
    pub fn metric(&self, name: &str) -> &SampleSummary {
        match FIGURE_METRICS.iter().position(|&m| m == name) {
            Some(i) => &self.metrics[i],
            None => self.extra.iter().find(|(m, _)| *m == name).map_or_else(
                || panic!("unknown figure metric '{name}', and not one of the spec's metrics"),
                |(_, summary)| summary,
            ),
        }
    }
}

/// The result of one campaign: the normalized spec it ran plus every
/// cell's statistics, in canonical matrix order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The spec as executed (normalized — axes sorted and deduplicated).
    pub spec: SweepSpec,
    /// Per-cell statistics, in [`SweepSpec::expand`] order.
    pub cells: Vec<CellSummary>,
    /// Total simulation runs executed.
    pub total_runs: usize,
    /// Total beacon intervals simulated, summed over runs — the
    /// throughput denominator the bench suite uses.
    pub total_intervals: u64,
    /// Total simulated seconds, summed over runs.
    pub total_sim_seconds: f64,
}

impl SweepReport {
    /// The cell at an exact matrix point, if the grid has it.
    pub fn find_cell(
        &self,
        scheme: rcast_core::Scheme,
        rate_pps: f64,
        pause_s: f64,
    ) -> Option<&CellSummary> {
        self.cells.iter().find(|c| {
            c.cell.scheme == scheme
                && c.cell.rate_pps == rate_pps
                && c.cell.pause_s == pause_s
        })
    }
}

/// One simulation run of a sweep cell. Hot: the whole campaign budget is
/// spent inside this call.
fn run_cell_seed(cfg: &Arc<SimConfig>, seed: u64) -> SimReport {
    Simulation::with_seed(Arc::clone(cfg), seed)
        .expect("sweep cell configs are validated by normalization")
        .run()
}

/// Executes a campaign. See the `run.rs` module docs.
///
/// # Errors
///
/// Returns the spec's normalization/validation error, if any, before
/// any simulation starts.
pub fn run_spec(spec: &SweepSpec, threads: usize) -> Result<SweepReport, String> {
    let spec = spec.normalized()?;
    let cells = spec.expand();
    // Per-cell shared config and per-run master seeds, precomputed so
    // the worker closure is pure lookup + simulate.
    let jobs: Vec<(Arc<SimConfig>, Vec<u64>)> = cells
        .iter()
        .map(|c| {
            let seeds = spec
                .seeds
                .iter()
                .map(|&s| c.run_seed(s, spec.pairing))
                .collect();
            (Arc::new(c.config(&spec)), seeds)
        })
        .collect();

    let reports: Vec<Vec<SimReport>> = ScopedPool::new(threads).map_grid(
        &jobs,
        spec.seeds.len(),
        |_, (cfg, seeds), i| run_cell_seed(cfg, seeds[i]),
    );

    let extra: Vec<RunMetric> = RUN_METRICS
        .into_iter()
        .filter(|(name, _)| spec.metrics.contains(name))
        .collect();
    let mut out = Vec::with_capacity(cells.len());
    let mut total_intervals = 0u64;
    let mut total_sim_seconds = 0.0;
    for (cell, ((cfg, _), runs)) in
        cells.into_iter().zip(jobs.iter().zip(&reports))
    {
        total_intervals += cfg.beacon_intervals() * runs.len() as u64;
        total_sim_seconds += cfg.duration.as_secs_f64() * runs.len() as f64;
        let packet_bytes = cfg.traffic.packet_bytes;
        let mut samples: [Vec<f64>; FIGURE_METRICS.len()] =
            std::array::from_fn(|_| Vec::with_capacity(runs.len()));
        for r in runs {
            for (col, value) in
                samples.iter_mut().zip(r.figure_metrics(packet_bytes))
            {
                col.push(value);
            }
        }
        let metrics = std::array::from_fn(|j| summarize95(&samples[j]));
        let extra = extra
            .iter()
            .map(|&(name, read)| (name, summarize95(&runs.iter().map(read).collect::<Vec<_>>())))
            .collect();
        let (per_node_energy_j, per_node_roles) = if spec.per_node {
            let (energy, roles) = AggregateReport::from_runs(runs).per_node_by_energy();
            (Some(energy), Some(roles))
        } else {
            (None, None)
        };
        out.push(CellSummary {
            cell,
            runs: runs.len(),
            metrics,
            extra,
            per_node_energy_j,
            per_node_roles,
        });
    }
    let total_runs = out.iter().map(|c| c.runs).sum();
    Ok(SweepReport {
        spec,
        cells: out,
        total_runs,
        total_intervals,
        total_sim_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Pairing;
    use rcast_core::Scheme;
    use rcast_engine::SimDuration;

    /// A seconds-scale grid: 2 schemes × 2 rates × 1 pause on a small
    /// static field, 2 seeds.
    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::paper_default("tiny");
        spec.base.duration = SimDuration::from_secs(10);
        spec.base.area = rcast_core::Area::new(600.0, 300.0);
        spec.base.traffic.flows = 3;
        spec.schemes = vec![Scheme::Dot11, Scheme::Rcast];
        spec.rates = vec![0.4, 2.0];
        spec.pauses = vec![10.0];
        spec.nodes = vec![12];
        spec.seeds = vec![1, 2];
        spec
    }

    #[test]
    fn runs_the_whole_matrix_and_summarizes() {
        let report = run_spec(&tiny_spec(), 2).expect("runs");
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.total_runs, 8);
        assert!(report.total_intervals > 0);
        assert!((report.total_sim_seconds - 80.0).abs() < 1e-9);
        for cell in &report.cells {
            assert_eq!(cell.runs, 2);
            assert!(cell.per_node_energy_j.is_none());
            let energy = cell.metric("energy_j");
            assert_eq!(energy.n, 2);
            assert!(energy.mean > 0.0, "{}", cell.cell.key());
            assert!(energy.half_width95.is_finite());
            assert!(cell.metric("pdr").mean >= 0.0);
        }
        assert!(report.find_cell(Scheme::Rcast, 0.4, 10.0).is_some());
        assert!(report.find_cell(Scheme::Odpm, 0.4, 10.0).is_none());
    }

    #[test]
    fn thread_width_never_changes_the_numbers() {
        let spec = tiny_spec();
        let serial = run_spec(&spec, 1).expect("serial");
        for threads in [2, 8] {
            let parallel = run_spec(&spec, threads).expect("parallel");
            // Debug rendering covers every f64 exactly (shortest
            // round-trip), so this is bit-for-bit equality.
            assert_eq!(
                format!("{:?}", parallel.cells),
                format!("{:?}", serial.cells),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn per_node_curves_are_sorted_when_requested() {
        let mut spec = tiny_spec();
        spec.per_node = true;
        spec.schemes = vec![Scheme::Rcast];
        spec.rates = vec![0.4];
        let report = run_spec(&spec, 2).expect("runs");
        let curve = report.cells[0]
            .per_node_energy_j
            .as_ref()
            .expect("per-node curve requested");
        assert_eq!(curve.len(), 12);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
    }

    #[test]
    fn independent_pairing_changes_runs_but_not_determinism() {
        let mut spec = tiny_spec();
        spec.schemes = vec![Scheme::Rcast];
        spec.rates = vec![0.4];
        let common = run_spec(&spec, 2).expect("common");
        spec.pairing = Pairing::Independent;
        let a = run_spec(&spec, 1).expect("independent serial");
        let b = run_spec(&spec, 4).expect("independent parallel");
        assert_eq!(format!("{:?}", a.cells), format!("{:?}", b.cells));
        assert_ne!(
            format!("{:?}", a.cells),
            format!("{:?}", common.cells),
            "pairing modes draw different seed streams"
        );
    }

    /// The tiny grid as spec text, for the spec-file paths.
    const TINY: &str = "schemes rcast\nrates 0.4\npauses 10\nnodes 12\nseeds 1,2\n\
                        duration 10\narea 600 300\nflows 3\n";

    #[test]
    fn a_variant_runs_like_the_same_base_line() {
        let run = |text: String| {
            let report = run_spec(&crate::parse_spec(&text).expect("valid spec"), 2).expect("runs");
            format!("{:?}", report.cells.iter().map(|c| &c.metrics).collect::<Vec<_>>())
        };
        let variant = run(format!("{TINY}variant broadcast_p 0.5\n"));
        assert_eq!(variant, run(format!("{TINY}broadcast_p 0.5\n")));
        assert_ne!(variant, run(TINY.to_string()), "the assignment reaches the runs");
    }

    #[test]
    fn per_node_roles_align_with_the_energy_curve() {
        let mut spec = crate::parse_spec(&format!("{TINY}per-node true\n")).unwrap();
        spec.schemes = vec![Scheme::Odpm];
        let report = run_spec(&spec, 2).expect("runs");
        let cell = &report.cells[0];
        let roles = cell.per_node_roles.as_ref().expect("per-node roles");
        assert_eq!(roles.len(), 12, "one per node");
        let cfg = cell.cell.config(&report.spec);
        let runs: Vec<SimReport> = spec.seeds.iter().map(|&s| run_cell_seed(&Arc::new(cfg.clone()), s)).collect();
        let agg = AggregateReport::from_runs(&runs);
        assert_eq!(roles.iter().sum::<u64>(), agg.roles.all().iter().sum::<u64>());
        assert!(roles.iter().sum::<u64>() > 0, "a grid this small still caches routes");
        assert_eq!((cell.per_node_energy_j.clone().unwrap(), roles.clone()), agg.per_node_by_energy());
    }

    #[test]
    fn a_tiny_battery_reads_as_depleted() {
        let text = format!("{TINY}battery 0.5\nmetrics depleted,first_depletion_s\n");
        let report = run_spec(&crate::parse_spec(&text).unwrap(), 2).expect("runs");
        let cell = &report.cells[0];
        assert_eq!(cell.metric("depleted").mean, 1.0);
        let first = cell.metric("first_depletion_s");
        assert!(first.mean > 0.0 && first.mean < 10.0, "{first:?}");
        assert_eq!(cell.extra.len(), 2);
        // Without a battery, no run depletes and the lifetime is the run.
        let report = run_spec(&crate::parse_spec(&format!("{TINY}metrics depleted,first_depletion_s\n")).unwrap(), 2)
            .expect("runs");
        assert_eq!(report.cells[0].metric("depleted").mean, 0.0);
        assert_eq!(report.cells[0].metric("first_depletion_s").mean, 10.0);
    }

    #[test]
    fn invalid_specs_fail_before_any_run() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        assert!(run_spec(&spec, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown figure metric")]
    fn unknown_metric_names_panic() {
        let report = run_spec(
            &{
                let mut s = tiny_spec();
                s.schemes = vec![Scheme::Rcast];
                s.rates = vec![0.4];
                s.seeds = vec![1];
                s
            },
            1,
        )
        .expect("runs");
        let _ = report.cells[0].metric("goodput");
    }
}
