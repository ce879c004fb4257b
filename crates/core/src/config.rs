//! Whole-simulation configuration.

use rcast_engine::SimDuration;
use rcast_mac::MacConfig;
use rcast_mobility::{Area, WaypointConfig};
use rcast_radio::EnergyModel;
use rcast_traffic::TrafficConfig;

use crate::faults::FaultsConfig;
use crate::odpm::OdpmConfig;
use crate::overhearing::OverhearFactors;
use crate::routing::RoutingKind;
use crate::scheme::Scheme;
use rcast_aodv::AodvConfig;
use rcast_dsr::DsrConfig;

/// Everything a simulation run needs; a run is a pure function of
/// `(SimConfig, seed)`.
///
/// [`SimConfig::paper`] reproduces the paper's testbed (Section 4.1):
/// 100 nodes on 1500 × 300 m², 250 m range, 2 Mbps, 20 CBR flows of
/// 512-byte packets, random waypoint at ≤ 20 m/s, 1125 s simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of mobile nodes.
    pub nodes: u32,
    /// The field they roam.
    pub area: Area,
    /// Radio range, meters.
    pub range_m: f64,
    /// Channel bit rate, bits/second.
    pub data_rate_bps: f64,
    /// The power-management scheme under test.
    pub scheme: Scheme,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// MAC parameters (beacon interval, ATIM window, queues).
    pub mac: MacConfig,
    /// Which routing protocol runs on top of the MAC (paper: DSR).
    pub routing: RoutingKind,
    /// DSR parameters (cache, discovery, salvaging).
    pub dsr: DsrConfig,
    /// AODV parameters (used only with [`RoutingKind::Aodv`]).
    pub aodv: AodvConfig,
    /// Workload parameters (flows, rate, packet size).
    pub traffic: TrafficConfig,
    /// Mobility parameters (speed, pause time).
    pub waypoint: WaypointConfig,
    /// Radio power profile.
    pub energy: EnergyModel,
    /// ODPM timeouts (used only by [`Scheme::Odpm`]).
    pub odpm: OdpmConfig,
    /// Rcast decision factors (used only by [`Scheme::Rcast`]).
    pub factors: OverhearFactors,
    /// Optional finite battery per node, joules. A node whose battery
    /// drains is `Off` for the rest of the run from the next beacon
    /// interval on, through the fault path's crash handling. Depletion
    /// is checked once per interval, so a node can exceed its capacity
    /// by at most one interval of awake draw (`beacon_interval ×
    /// idle_w`: 0.2875 J with the WaveLAN-II numbers).
    pub battery_capacity_j: Option<f64>,
    /// When `true`, record the cross-layer event ledger into the
    /// report's [`rcast_obs::ObsReport`]: MAC interval phases, routing
    /// packet lifecycle, fault markers, and per-interval energy spans.
    /// It is the source of every per-packet and energy-trajectory view.
    /// Storage is fully pre-sized (costs memory on long runs).
    pub obs: bool,
    /// Fault injection (crashes, blackouts, corruption bursts); the
    /// default injects nothing.
    pub faults: FaultsConfig,
}

impl SimConfig {
    /// The paper's testbed with the given scheme, seed, packet rate
    /// (packets/second) and pause time (seconds).
    pub fn paper(scheme: Scheme, seed: u64, rate_pps: f64, pause_secs: f64) -> Self {
        SimConfig {
            nodes: 100,
            area: Area::paper_default(),
            range_m: 250.0,
            data_rate_bps: 2_000_000.0,
            scheme,
            duration: SimDuration::from_secs(1125),
            seed,
            mac: MacConfig::default(),
            routing: RoutingKind::Dsr,
            dsr: DsrConfig::default(),
            aodv: AodvConfig::default(),
            traffic: TrafficConfig {
                rate_pps,
                ..TrafficConfig::default()
            },
            waypoint: WaypointConfig {
                pause_secs,
                ..WaypointConfig::default()
            },
            energy: EnergyModel::wavelan_ii(),
            odpm: OdpmConfig::default(),
            factors: OverhearFactors::default(),
            battery_capacity_j: None,
            obs: false,
            faults: FaultsConfig::default(),
        }
    }

    /// A scaled-down testbed (shorter run, fewer nodes) for fast tests
    /// and Criterion benches; same densities and protocol parameters.
    pub fn smoke(scheme: Scheme, seed: u64) -> Self {
        SimConfig {
            nodes: 50,
            area: Area::new(1000.0, 300.0),
            duration: SimDuration::from_secs(120),
            traffic: TrafficConfig {
                flows: 10,
                rate_pps: 0.4,
                ..TrafficConfig::default()
            },
            ..SimConfig::paper(scheme, seed, 0.4, 60.0)
        }
    }

    /// Number of whole beacon intervals in the run.
    pub fn beacon_intervals(&self) -> u64 {
        self.duration / self.mac.beacon_interval
    }

    /// Validates the whole configuration tree.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, prefixed by its layer.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("need at least two nodes".into());
        }
        if !(self.range_m.is_finite() && self.range_m > 0.0) {
            return Err(format!("invalid range {}", self.range_m));
        }
        if self.duration.is_zero() {
            return Err("duration must be positive".into());
        }
        if let Some(cap) = self.battery_capacity_j {
            if !(cap.is_finite() && cap > 0.0) {
                return Err(format!("invalid battery capacity {cap}"));
            }
        }
        self.mac.validate().map_err(|e| format!("mac: {e}"))?;
        self.dsr.validate().map_err(|e| format!("dsr: {e}"))?;
        self.aodv.validate().map_err(|e| format!("aodv: {e}"))?;
        self.traffic
            .validate()
            .map_err(|e| format!("traffic: {e}"))?;
        self.waypoint
            .validate()
            .map_err(|e| format!("waypoint: {e}"))?;
        self.energy.validate().map_err(|e| format!("energy: {e}"))?;
        self.factors
            .validate()
            .map_err(|e| format!("factors: {e}"))?;
        self.faults
            .validate(self.nodes)
            .map_err(|e| format!("faults: {e}"))?;
        if self.traffic.flows > 0 && self.nodes < 2 {
            return Err("traffic requires at least two nodes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_4_1() {
        let c = SimConfig::paper(Scheme::Rcast, 1, 0.4, 600.0);
        assert_eq!(c.nodes, 100);
        assert_eq!(c.area.width(), 1500.0);
        assert_eq!(c.area.height(), 300.0);
        assert_eq!(c.range_m, 250.0);
        assert_eq!(c.data_rate_bps, 2_000_000.0);
        assert_eq!(c.duration, SimDuration::from_secs(1125));
        assert_eq!(c.traffic.flows, 20);
        assert_eq!(c.traffic.packet_bytes, 512);
        assert_eq!(c.waypoint.max_speed_mps, 20.0);
        assert_eq!(c.waypoint.pause_secs, 600.0);
        assert!(c.validate().is_ok());
        // 1125 s / 250 ms = 4500 beacon intervals.
        assert_eq!(c.beacon_intervals(), 4500);
    }

    #[test]
    fn smoke_config_validates() {
        for scheme in Scheme::ALL {
            assert!(SimConfig::smoke(scheme, 0).validate().is_ok(), "{scheme}");
        }
    }

    #[test]
    fn validation_propagates_layer_errors() {
        let mut c = SimConfig::smoke(Scheme::Rcast, 0);
        c.nodes = 1;
        assert!(c.validate().is_err());

        let mut c = SimConfig::smoke(Scheme::Rcast, 0);
        c.range_m = -5.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::smoke(Scheme::Rcast, 0);
        c.mac.queue_capacity = 0;
        assert!(c.validate().unwrap_err().starts_with("mac:"));

        let mut c = SimConfig::smoke(Scheme::Rcast, 0);
        c.traffic.rate_pps = 0.0;
        assert!(c.validate().unwrap_err().starts_with("traffic:"));

        let mut c = SimConfig::smoke(Scheme::Rcast, 0);
        c.battery_capacity_j = Some(0.0);
        assert!(c.validate().is_err());
    }
}
