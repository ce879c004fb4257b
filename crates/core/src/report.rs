//! Run results and multi-seed aggregation.

use rcast_aodv::AodvCounters;
use rcast_dsr::DsrCounters;
use rcast_engine::{SimDuration, SimTime};
use rcast_mac::MacCounters;
use rcast_metrics::{DeliveryTracker, EnergyReport, RoleNumbers};
use rcast_obs::ObsReport;

use crate::config::SimConfig;
use crate::faults::FaultCounters;
use crate::scheme::Scheme;
use crate::sim::run_seeds_parallel;

/// The scalar metric columns of [`SimReport::figure_metrics`], in
/// order — the stable column names sweep artifacts and CSV headers use.
pub const FIGURE_METRICS: [&str; 6] = [
    "energy_j",
    "energy_variance",
    "pdr",
    "delay_s",
    "overhead",
    "epb_j_per_bit",
];

/// Everything measured over one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The scheme that produced these numbers.
    pub scheme: Scheme,
    /// The run seed.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-node energy consumption.
    pub energy: EnergyReport,
    /// Data-plane outcomes (PDR, delay, overhead).
    pub delivery: DeliveryTracker,
    /// Role numbers (packet-forwarding influence).
    pub roles: RoleNumbers,
    /// MAC-level counters.
    pub mac: MacCounters,
    /// Network-wide DSR counters (summed over nodes; zero under AODV).
    pub dsr: DsrCounters,
    /// Network-wide AODV counters (summed over nodes; zero under DSR).
    pub aodv: AodvCounters,
    /// Injected-fault bookkeeping (all zero when no faults were
    /// configured).
    pub faults: FaultCounters,
    /// First battery depletion, if batteries were finite and one died.
    pub first_depletion: Option<SimTime>,
    /// The cross-layer event ledger, when `SimConfig::obs` was set:
    /// per-packet histories and the energy trajectory derive from it.
    pub obs: Option<ObsReport>,
}

impl SimReport {
    /// Energy to deliver one bit, J/bit (the paper's EPB; Fig. 7c/7f).
    pub fn energy_per_bit(&self, packet_bytes: usize) -> f64 {
        let bits = self.delivery.delivered() * packet_bytes as u64 * 8;
        self.energy.energy_per_bit(bits)
    }

    /// The six scalar figure metrics of one run, in the paper's
    /// artifact order: total energy (J), per-node energy variance,
    /// delivery ratio, mean delay (s), normalized routing overhead,
    /// and energy per delivered bit (J/bit, clamped to `0` when
    /// nothing was delivered so means stay finite).
    ///
    /// [`AggregateReport::from_runs`] and the sweep engine's per-cell
    /// sampling both read runs through this accessor, so a scalar added
    /// here flows into every artifact.
    pub fn figure_metrics(&self, packet_bytes: usize) -> [f64; FIGURE_METRICS.len()] {
        let epb = self.energy_per_bit(packet_bytes);
        [
            self.energy.total_joules(),
            self.energy.variance(),
            self.delivery.delivery_ratio(),
            self.delivery.mean_delay().as_secs_f64(),
            self.delivery.normalized_routing_overhead(),
            if epb.is_finite() { epb } else { 0.0 },
        ]
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: energy {:.0} J, PDR {:.1}%, delay {:.0} ms, overhead {:.2}, variance {:.0}",
            self.scheme,
            self.energy.total_joules(),
            self.delivery.delivery_ratio() * 100.0,
            self.delivery.mean_delay().as_millis_f64(),
            self.delivery.normalized_routing_overhead(),
            self.energy.variance(),
        )
    }
}

/// Seed-averaged results for one `(scheme, parameter point)`.
///
/// The paper repeats each scenario ten times; this aggregates the same
/// way — arithmetic means over runs for scalars, and per-node means for
/// the energy vector (so Fig. 5's sorted curve is an average curve).
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// The scheme aggregated.
    pub scheme: Scheme,
    /// Runs aggregated.
    pub runs: usize,
    /// Mean network-wide energy, joules.
    pub mean_total_energy_j: f64,
    /// Mean per-node energy variance (Fig. 6).
    pub mean_energy_variance: f64,
    /// Mean packet delivery ratio.
    pub mean_pdr: f64,
    /// Mean end-to-end delay, seconds.
    pub mean_delay_s: f64,
    /// Mean normalized routing overhead.
    pub mean_overhead: f64,
    /// Mean energy per delivered bit, J/bit.
    pub mean_epb: f64,
    /// Seed-averaged per-node energy, indexed by node id.
    pub mean_per_node_energy_j: Vec<f64>,
    /// Summed role numbers across runs, indexed by node id.
    pub roles: RoleNumbers,
}

impl AggregateReport {
    /// Aggregates runs of the same scheme.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty, mixes schemes, or mixes node counts.
    pub fn from_runs(reports: &[SimReport], packet_bytes: usize) -> Self {
        assert!(!reports.is_empty(), "no runs to aggregate");
        let scheme = reports[0].scheme;
        let n_nodes = reports[0].energy.len();
        assert!(
            reports.iter().all(|r| r.scheme == scheme),
            "mixed schemes in aggregation"
        );
        assert!(
            reports.iter().all(|r| r.energy.len() == n_nodes),
            "mixed node counts in aggregation"
        );
        let runs = reports.len();
        let k = runs as f64;

        let mut per_node = vec![0.0; n_nodes];
        let mut roles = RoleNumbers::new(n_nodes);
        let (mut energy, mut var, mut pdr, mut delay, mut overhead, mut epb) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for r in reports {
            let [e, v, p, d, o, b] = r.figure_metrics(packet_bytes);
            energy += e;
            var += v;
            pdr += p;
            delay += d;
            overhead += o;
            epb += b;
            for (acc, &j) in per_node.iter_mut().zip(r.energy.per_node_joules()) {
                *acc += j / k;
            }
            roles.merge(&r.roles);
        }
        AggregateReport {
            scheme,
            runs,
            mean_total_energy_j: energy / k,
            mean_energy_variance: var / k,
            mean_pdr: pdr / k,
            mean_delay_s: delay / k,
            mean_overhead: overhead / k,
            mean_epb: epb / k,
            mean_per_node_energy_j: per_node,
            roles,
        }
    }

    /// Runs `cfg` under every seed — fanned out across up to `threads`
    /// worker threads — and aggregates, exactly as
    /// [`from_runs`](Self::from_runs) over
    /// [`run_seeds`](crate::run_seeds) would: parallel execution merges
    /// reports in seed order and each run is a pure function of
    /// `(config, seed)`, so the aggregate is byte-identical to the
    /// serial path for any thread count. `tests/paper_shapes.rs` reads
    /// its figure orderings through this entry point; the figure grid
    /// itself runs on the sweep engine (`rcast_sweep::run_spec`).
    ///
    /// # Errors
    ///
    /// Returns the configuration error, if any, or a message when
    /// `seeds` is empty.
    pub fn from_parallel(
        cfg: &SimConfig,
        seeds: &[u64],
        threads: usize,
    ) -> Result<Self, String> {
        if seeds.is_empty() {
            return Err("no seeds to aggregate".to_string());
        }
        let reports = run_seeds_parallel(cfg, seeds.iter().copied(), threads)?;
        Ok(Self::from_runs(&reports, cfg.traffic.packet_bytes))
    }

    /// Per-node mean energy sorted ascending — Fig. 5's curve.
    pub fn sorted_per_node_energy(&self) -> Vec<f64> {
        let mut v = self.mean_per_node_energy_j.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite energies"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcast_engine::SimDuration;

    fn report(scheme: Scheme, seed: u64, energies: Vec<f64>, delivered: u64) -> SimReport {
        let mut delivery = DeliveryTracker::new();
        for _ in 0..delivered + 1 {
            delivery.record_originated();
        }
        for i in 0..delivered {
            delivery.record_delivered(
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_millis(100 * (i + 1)),
            );
        }
        let n = energies.len();
        SimReport {
            scheme,
            seed,
            duration: SimDuration::from_secs(10),
            energy: EnergyReport::new(energies),
            delivery,
            roles: RoleNumbers::new(n),
            mac: MacCounters::default(),
            dsr: DsrCounters::default(),
            aodv: AodvCounters::default(),
            faults: FaultCounters::default(),
            first_depletion: None,
            obs: None,
        }
    }

    #[test]
    fn epb_uses_delivered_bits() {
        let r = report(Scheme::Rcast, 0, vec![50.0, 50.0], 100);
        // 100 × 512 B × 8 = 409600 bits; 100 J / 409600 ≈ 2.44e-4.
        let epb = r.energy_per_bit(512);
        assert!((epb - 100.0 / 409_600.0).abs() < 1e-12);
        let empty = report(Scheme::Rcast, 0, vec![1.0], 0);
        assert!(empty.energy_per_bit(512).is_infinite());
    }

    #[test]
    fn figure_metrics_order_matches_the_column_names() {
        let r = report(Scheme::Rcast, 0, vec![50.0, 50.0], 100);
        let m = r.figure_metrics(512);
        assert_eq!(m.len(), FIGURE_METRICS.len());
        assert_eq!(m[0], r.energy.total_joules());
        assert_eq!(m[1], r.energy.variance());
        assert_eq!(m[2], r.delivery.delivery_ratio());
        assert_eq!(m[3], r.delivery.mean_delay().as_secs_f64());
        assert_eq!(m[4], r.delivery.normalized_routing_overhead());
        assert_eq!(m[5], r.energy_per_bit(512));
        // Undeliverable runs clamp EPB to zero instead of poisoning means.
        let empty = report(Scheme::Rcast, 0, vec![1.0], 0);
        assert_eq!(empty.figure_metrics(512)[5], 0.0);
    }

    #[test]
    fn summary_mentions_scheme() {
        let r = report(Scheme::Odpm, 0, vec![10.0], 1);
        assert!(r.summary().contains("ODPM"));
    }

    #[test]
    fn aggregation_means_scalars_and_vectors() {
        let a = report(Scheme::Rcast, 0, vec![10.0, 20.0], 4);
        let b = report(Scheme::Rcast, 1, vec![30.0, 40.0], 2);
        let agg = AggregateReport::from_runs(&[a, b], 512);
        assert_eq!(agg.runs, 2);
        assert!((agg.mean_total_energy_j - 50.0).abs() < 1e-12);
        assert_eq!(agg.mean_per_node_energy_j, vec![20.0, 30.0]);
        assert_eq!(agg.sorted_per_node_energy(), vec![20.0, 30.0]);
        // PDRs: 4/5 and 2/3 → mean ≈ 0.7333.
        assert!((agg.mean_pdr - (0.8 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mixed_schemes_panic() {
        let a = report(Scheme::Rcast, 0, vec![1.0], 1);
        let b = report(Scheme::Odpm, 0, vec![1.0], 1);
        let _ = AggregateReport::from_runs(&[a, b], 512);
    }

    #[test]
    #[should_panic]
    fn empty_aggregation_panics() {
        let _ = AggregateReport::from_runs(&[], 512);
    }
}
