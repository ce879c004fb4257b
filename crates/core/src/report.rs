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

/// One optional per-run metric column: its name and how it reads a run.
pub type RunMetric = (&'static str, fn(&SimReport) -> f64);

/// The optional per-run metric columns, each with how it reads a run.
/// A sweep spec's `metrics` line adds any of them after
/// [`FIGURE_METRICS`]:
///
/// * `rreq_tx` — route-request transmissions, originated plus
///   forwarded, DSR and AODV together;
/// * `rreq_share` — `rreq_tx` over all routing control transmissions
///   (`0` when there were none);
/// * `hellos` — AODV hello beacons sent;
/// * `first_depletion_s` — when the first battery ran out, or the run's
///   duration when none did (a lifetime censored at the run's end);
/// * `depleted` — `1` when a battery ran out, else `0`.
pub const RUN_METRICS: [RunMetric; 5] = [
    ("rreq_tx", |r| r.rreq_transmissions() as f64),
    ("rreq_share", |r| match r.delivery.control_transmissions() {
        0 => 0.0,
        control => r.rreq_transmissions() as f64 / control as f64,
    }),
    ("hellos", |r| r.aodv.hello_sent as f64),
    ("first_depletion_s", |r| {
        r.first_depletion.map_or(r.duration.as_secs_f64(), |t| t.as_secs_f64())
    }),
    ("depleted", |r| if r.first_depletion.is_some() { 1.0 } else { 0.0 }),
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

    /// Route-request transmissions, originated plus forwarded, under
    /// either routing protocol.
    pub fn rreq_transmissions(&self) -> u64 {
        self.dsr.rreq_originated
            + self.dsr.rreq_forwarded
            + self.aodv.rreq_originated
            + self.aodv.rreq_forwarded
    }

    /// The six scalar figure metrics of one run, in the paper's
    /// artifact order: total energy (J), per-node energy variance,
    /// delivery ratio, mean delay (s), normalized routing overhead,
    /// and energy per delivered bit (J/bit, clamped to `0` when
    /// nothing was delivered so means stay finite).
    ///
    /// The sweep engine's per-cell sampling reads runs through this
    /// accessor, so a scalar added here flows into every artifact.
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

/// Seed-aggregated per-node results for one `(scheme, parameter point)`.
///
/// The paper repeats each scenario ten times; this aggregates the
/// per-node vectors over the runs: means for energy (so Fig. 5's sorted
/// curve is an average curve) and sums for role numbers (Fig. 9). The
/// scalar metrics are reduced per sweep cell (`rcast_sweep::run_spec`).
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// The scheme aggregated.
    pub scheme: Scheme,
    /// Runs aggregated.
    pub runs: usize,
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
    pub fn from_runs(reports: &[SimReport]) -> Self {
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
        for r in reports {
            for (acc, &j) in per_node.iter_mut().zip(r.energy.per_node_joules()) {
                *acc += j / k;
            }
            roles.merge(&r.roles);
        }
        AggregateReport {
            scheme,
            runs,
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
        Ok(Self::from_runs(&reports))
    }

    /// Per-node mean energy sorted ascending — Fig. 5's curve — and
    /// each of those nodes' summed role numbers in the same order, so
    /// the two read as Fig. 9's (role, energy) scatter. Ties keep node
    /// order.
    pub fn per_node_by_energy(&self) -> (Vec<f64>, Vec<u64>) {
        let energy = &self.mean_per_node_energy_j;
        let mut order: Vec<usize> = (0..energy.len()).collect();
        order.sort_by(|&a, &b| energy[a].partial_cmp(&energy[b]).expect("finite energies"));
        let roles = self.roles.all();
        order.iter().map(|&i| (energy[i], roles[i])).unzip()
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
    fn aggregation_means_per_node_vectors() {
        let a = report(Scheme::Rcast, 0, vec![10.0, 20.0], 4);
        let b = report(Scheme::Rcast, 1, vec![30.0, 40.0], 2);
        let agg = AggregateReport::from_runs(&[a, b]);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.mean_per_node_energy_j, vec![20.0, 30.0]);
        assert_eq!(agg.per_node_by_energy(), (vec![20.0, 30.0], vec![0, 0]));
    }

    #[test]
    #[should_panic]
    fn mixed_schemes_panic() {
        let a = report(Scheme::Rcast, 0, vec![1.0], 1);
        let b = report(Scheme::Odpm, 0, vec![1.0], 1);
        let _ = AggregateReport::from_runs(&[a, b]);
    }

    #[test]
    #[should_panic]
    fn empty_aggregation_panics() {
        let _ = AggregateReport::from_runs(&[]);
    }
}
