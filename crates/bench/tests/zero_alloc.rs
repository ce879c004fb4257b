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
use rcast_core::{
    render_jsonl, FaultEvent, RoutingKind, Scheme, SimConfig, Simulation, TraceFilter,
};
use rcast_dsr::{CacheConfig, CacheStrategy, PathCache};
use rcast_engine::ondemand::{OnDemand, Parked, Ring, RingSchedule};
use rcast_engine::{NodeId, SimDuration, SimTime};
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

/// The quiet steady state with the fault hooks switched on: a scripted
/// blackout covering the whole run and a battery too large to drain,
/// so every interval consults the plan and the battery lanes without
/// changing a node's state.
fn quiet_faulted_config() -> SimConfig {
    let mut cfg = quiet_config();
    cfg.faults.script.push(FaultEvent::LinkBlackout {
        a: 0,
        b: 1,
        at_s: 0.0,
        for_s: cfg.duration.as_secs_f64(),
    });
    cfg.battery_capacity_j = Some(1e6);
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

/// The medium shape under AODV: hello beacons, soft-state route
/// expiry and RERR cascades on top of the send buffer and ring search.
fn medium_aodv_config() -> SimConfig {
    let mut cfg = medium_config();
    cfg.routing = RoutingKind::Aodv;
    cfg
}

/// The storm-150 shape under AODV: discoveries, buffer overflow and
/// broken links at their densest.
fn storm_aodv_config() -> SimConfig {
    let mut cfg = storm_config();
    cfg.routing = RoutingKind::Aodv;
    cfg
}

/// The large bench tier's density (300 nodes on 1800 × 720 m, as 600 on
/// 3600 × 720 m) with 2 flows and no pauses, cut to 40 s: RREQ floods
/// cross the whole field while routes keep breaking, which keeps the
/// path cache's miss-and-evict path busy.
fn flood_config() -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 3, 0.4, 0.0);
    cfg.nodes = 300;
    cfg.area = Area::new(1800.0, 720.0);
    cfg.traffic.flows = 2;
    cfg.duration = SimDuration::from_secs(40);
    cfg.waypoint = WaypointConfig::default();
    cfg
}

/// The small testbed under Hu & Johnson's link cache (`cache_strategy
/// link`, 128 directed links, as in the `ablation-cache` preset): every
/// route lookup is a breadth-first search over the stored links.
fn link_cache_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
    cfg.dsr.cache.strategy = CacheStrategy::Link;
    cfg.dsr.cache.capacity = 128;
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
/// exact; each budget sits just above its measured value (0.59, 0.07,
/// 3.54, 1.11, 2.22, 1.175 and 30.05 per interval), leaving headroom
/// only for standard-library drift. What AODV still allocates under
/// storm load is mostly the one list each RERR packet owns (about 11 of
/// the 30) and its routing tables' growth.
const LOADED_BUDGETS: [LoadedBudget; 7] = [
    ("smoke", || SimConfig::smoke(Scheme::Rcast, 3), 1.0),
    ("medium", medium_config, 0.25),
    ("storm-150", storm_config, 4.0),
    ("flood-300", flood_config, 1.15),
    ("smoke, link cache", link_cache_config, 2.25),
    ("medium, aodv", medium_aodv_config, 1.2),
    ("storm-150, aodv", storm_aodv_config, 30.5),
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
    let per_interval = steady_state_allocs_per_interval(quiet_faulted_config());
    assert_eq!(
        per_interval, 0.0,
        "an active blackout and a battery must not touch the heap \
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

    // DESIGN.md §10: a path cache sizes its storage on its first insert
    // and never reallocates after, however many evictions churn it.
    let owner = NodeId::new(0);
    let mut cache = PathCache::new(owner, CacheConfig::default());
    let before = alloc_probe::allocations();
    assert!(cache.observe_path(&[owner, NodeId::new(1)], SimTime::ZERO));
    let first = alloc_probe::allocations() - before;
    let mut stored = 1;
    for i in 2..5000u32 {
        // Distinct 3-node paths: every one is a miss, and past the
        // 64-path capacity every one evicts.
        let path = [owner, NodeId::new(i), NodeId::new(i + 1)];
        stored += usize::from(cache.observe_path(&path, SimTime::from_secs(u64::from(i))));
    }
    let churn = alloc_probe::allocations() - before - first;
    assert_eq!(first, 4, "the first insert sizes the four lanes at once");
    assert_eq!(stored, 4999, "every path was new");
    assert_eq!(cache.len(), CacheConfig::default().capacity);
    assert_eq!(
        churn, 0,
        "{churn} allocations while churning a full path cache"
    );

    // The on-demand core's send buffer and discovery lane stop
    // allocating once they have held their high-water population.
    struct TwoRounds;
    impl RingSchedule for TwoRounds {
        fn next_ring(&self, prev: Option<&Ring>) -> Option<Ring> {
            let round = prev.map_or(0, |d| d.round + 1);
            (round < 2).then_some(Ring {
                round,
                ttl: 1 + round as u8,
                timeout: SimDuration::from_secs(1),
            })
        }
    }
    let mut od = OnDemand::new(owner);
    let churn = |od: &mut OnDemand, round: u64| {
        let t = SimTime::from_secs(100 * round);
        for dst in 1..=32 {
            let p = Parked {
                flow: dst,
                seq: round,
                dst: NodeId::new(dst),
                payload_bytes: 512,
                generated_at: t,
                buffered_at: t,
            };
            od.park(p, 64, &TwoRounds, |_| {}).expect("room");
        }
        // Escalate every discovery, send a third of the packets, then
        // let the rest give up.
        let timeout = SimDuration::from_secs(30);
        od.tick(t + SimDuration::from_secs(2), timeout, &TwoRounds, |_| {});
        od.drain(|p| p.dst.as_u32() % 3 == 0);
        od.tick(t + SimDuration::from_secs(9), timeout, &TwoRounds, |_| {});
        assert_eq!(od.parked(), 0, "every packet was sent or abandoned");
    };
    churn(&mut od, 0);
    let before = alloc_probe::allocations();
    for round in 1..200 {
        churn(&mut od, round);
    }
    let churned = alloc_probe::allocations() - before;
    assert_eq!(
        churned, 0,
        "{churned} allocations while churning a warm send buffer and discovery lane"
    );

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

    // The rcast-trace/v1 export sizes its output in a length pass and
    // writes it in a second one: one allocation, filtered or not.
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
    cfg.obs = true;
    let report = Simulation::new(cfg).expect("valid config").run();
    let obs = report.obs.as_ref().expect("ledger enabled");
    let filter = TraceFilter::parse("kind=span").expect("valid filter");
    for (what, filter, range) in [
        ("unfiltered", None, None),
        (
            "--filter kind=span --interval-range 0..8",
            Some(&filter),
            Some((0, 8)),
        ),
    ] {
        let before = alloc_probe::allocations();
        let jsonl = render_jsonl(obs, "rcast", 3, filter, range);
        let allocs = alloc_probe::allocations() - before;
        assert!(
            jsonl.lines().count() > 1,
            "{what}: the export has event lines"
        );
        assert_eq!(
            allocs, 1,
            "{what} export must allocate once, not {allocs} times"
        );
    }
}
