//! Regression gate for DESIGN.md §10: the steady-state interval loop
//! performs **zero heap allocations** once the reusable scratch storage
//! has warmed up, and loaded runs stay within measured budgets.
//!
//! This integration test installs [`rcast_bench::AllocProbe`] as its
//! process's global allocator, warms a simulation past its high-water
//! marks, then steps the remaining intervals and counts the
//! process-wide allocations. Any reintroduced `Vec::new`/`clone`/
//! `to_vec` on the hot path fails this test with an exact count (the
//! lint rule D007 catches the same class statically by call-graph
//! reachability; this is the dynamic proof).

use rcast_bench::alloc_probe;
use rcast_core::{Scheme, SimConfig, Simulation};
use rcast_engine::SimDuration;
use rcast_mobility::{Area, WaypointConfig};

#[global_allocator]
static PROBE: rcast_bench::AllocProbe = rcast_bench::AllocProbe::new();

/// A quiet steady state: static nodes (a pause longer than the run) and
/// one almost-silent flow (traffic validation requires >= 1 flow, and a
/// 0.001 pps rate means the flow's first packet falls outside the run),
/// so intervals exercise the full PSM/beacon/energy machinery without
/// data traffic forcing route discoveries mid-measurement.
fn quiet_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
    cfg.waypoint.pause_secs = 1e9;
    cfg.traffic.flows = 1;
    cfg.traffic.rate_pps = 0.001;
    cfg
}

/// The `rcast bench` medium tier's shape (150 nodes on 1800 × 360 m,
/// 30 flows at 0.4 pkt/s, 60 s pauses), cut to 60 s.
fn medium_config() -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 3, 0.4, 60.0);
    cfg.nodes = 150;
    cfg.area = Area::new(1800.0, 360.0);
    cfg.traffic.flows = 30;
    cfg.duration = SimDuration::from_secs(60);
    cfg
}

/// The e2e benchmark's storm-150 shape (150 always-moving nodes on
/// 1800 × 360 m, 40 flows at 2 pkt/s): route discovery, cache churn,
/// RERRs and salvaging at their densest, cut to 40 s.
fn storm_config() -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 3, 2.0, 0.0);
    cfg.nodes = 150;
    cfg.area = Area::new(1800.0, 360.0);
    cfg.traffic.flows = 40;
    cfg.duration = SimDuration::from_secs(40);
    cfg.waypoint = WaypointConfig::default();
    cfg
}

/// Runs the second half of a simulation under the probe and returns the
/// mean allocations per interval over those steady-state intervals.
fn steady_state_allocs_per_interval(cfg: SimConfig) -> f64 {
    let total = cfg.beacon_intervals();
    let mut sim = Simulation::new(cfg).expect("valid config");

    // Warm-up: let every scratch buffer, queue and table reach its
    // high-water capacity.
    for _ in 0..total / 2 {
        assert!(sim.step_interval());
    }

    assert!(
        alloc_probe::is_installed(),
        "the probe must be this process's global allocator"
    );
    let before = alloc_probe::allocations();
    let mut stepped = 0u64;
    while sim.step_interval() {
        stepped += 1;
    }
    let after = alloc_probe::allocations();
    assert_eq!(stepped, total - total / 2, "ran to the configured end");
    (after - before) as f64 / stepped as f64
}

/// A loaded case: its name, its configuration and its budget.
type LoadedBudget = (&'static str, fn() -> SimConfig, f64);

/// The loaded steady states' hard mean per-interval budgets. Moving
/// nodes, real CBR traffic, route discoveries and repairs may allocate
/// only where a structure reaches a new high-water mark or a route
/// spills past the inline limit, so traffic-path regressions (packet
/// clones, per-arrival route materialization, per-interval `Vec`
/// rebuilds) fail loudly instead of hiding behind the quiet-state zero
/// gate. Each run is seeded and deterministic, so the measured count is
/// exact; each budget sits just above its measured value (0.64, 0.07
/// and 3.54 per interval), leaving headroom only for standard-library
/// drift.
const LOADED_BUDGETS: [LoadedBudget; 3] = [
    ("smoke", || SimConfig::smoke(Scheme::Rcast, 3), 1.0),
    ("medium", medium_config, 0.25),
    ("storm-150", storm_config, 4.0),
];

/// All measurements in one test, run in turn: the probe counts
/// allocations process-wide, so measurements running as parallel tests
/// would count each other's simulations.
#[test]
fn steady_state_allocations_stay_within_their_budgets() {
    assert!(
        !alloc_probe::is_installed() || alloc_probe::allocations() > 0,
        "sanity: flag only flips once counting starts"
    );

    let per_interval = steady_state_allocs_per_interval(quiet_config());
    assert_eq!(
        per_interval, 0.0,
        "steady-state intervals must not touch the heap \
         ({per_interval}/interval)",
    );

    for (name, config, budget) in LOADED_BUDGETS {
        let per_interval = steady_state_allocs_per_interval(config());
        assert!(
            per_interval <= budget,
            "{name}: loaded steady-state allocations {per_interval:.3}/interval \
             exceed the {budget}/interval budget",
        );
    }

    // DESIGN.md §11: turning the event ledger on must not reintroduce
    // steady-state allocations — every ring buffer, span lane and series
    // row is pre-sized at construction, and overflow increments a
    // counter instead of growing.
    let mut cfg = quiet_config();
    cfg.obs = true;
    let per_interval = steady_state_allocs_per_interval(cfg);
    assert_eq!(
        per_interval, 0.0,
        "ledger-on steady-state intervals must not touch the heap \
         ({per_interval}/interval)",
    );
}
