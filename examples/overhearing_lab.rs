//! Scenario: a protocol-design lab for the overhearing decision.
//!
//! ```sh
//! cargo run --release --example overhearing_lab
//! ```
//!
//! Uses the lower-level crates directly — the MAC's beacon-interval
//! resolver, a hand-built topology, and the Rcast decider — to show
//! what each overhearing level does to one beacon interval, the way the
//! paper's Figures 1–3 walk through it. This is the example to start
//! from if you want to embed the MAC or the decider in your own
//! simulator.

use randomcast::engine::rng::StreamRng;
use randomcast::engine::{NodeId, SimTime};
use randomcast::mac::{
    AllPowerSave, IntervalOutcome, MacConfig, MacFrame, MacLayer, NullMacObserver, OverhearingLevel,
};
use randomcast::mobility::{Area, NeighborTable, Snapshot, Vec2};
use randomcast::radio::Phy;
use randomcast::{OverhearFactors, RcastDecider};

fn main() {
    // The paper's Fig. 2 topology: a chain S → A → B → C → D with two
    // bystanders X and Y parked next to the middle of the route.
    //            S(0) A(1) B(2) C(3) D(4)    X(5), Y(6) near A–B
    let positions = vec![
        Vec2::new(0.0, 0.0),    // S
        Vec2::new(200.0, 0.0),  // A
        Vec2::new(400.0, 0.0),  // B
        Vec2::new(600.0, 0.0),  // C
        Vec2::new(800.0, 0.0),  // D
        Vec2::new(300.0, 150.0), // X
        Vec2::new(300.0, -150.0), // Y
    ];
    let names = ["S", "A", "B", "C", "D", "X", "Y"];
    let snap = Snapshot::from_positions(positions, Area::new(1000.0, 400.0), SimTime::ZERO);
    let nt = NeighborTable::build(&snap, 250.0);

    println!("Topology: S→A→B→C→D chain; X and Y overhear the A–B segment\n");
    for level in [
        OverhearingLevel::None,
        OverhearingLevel::Unconditional,
        OverhearingLevel::Randomized,
    ] {
        println!("--- A transmits one data frame to B with {level:?} overhearing ---");
        let mut mac: MacLayer<&str> = MacLayer::new(
            7,
            MacConfig::default(),
            Phy::default(),
            StreamRng::from_seed(1),
        );
        mac.enqueue(
            NodeId::new(1),
            MacFrame::unicast(NodeId::new(2), level, 512, "payload"),
            SimTime::ZERO,
        )
        .expect("queue has room");
        // Fixed-answer policy stands in for the Rcast decider here so
        // the randomized case is visible without averaging.
        let mut policy = AllPowerSave {
            overhear_randomized: true,
        };
        let mut out = IntervalOutcome::default();
        mac.run_interval(SimTime::ZERO, &nt, &mut policy, &mut out, &mut NullMacObserver);
        let awake: Vec<&str> = (0..7)
            .filter(|&i| out.awake[i])
            .map(|i| names[i])
            .collect();
        let d = &out.deliveries[0];
        let overhearers: Vec<&str> = d
            .fanout
            .overhearers(&out.fanout)
            .iter()
            .map(|o| names[o.index()])
            .collect();
        println!("  awake past the ATIM window: {awake:?}");
        println!("  overheard by: {overhearers:?}\n");
    }

    // And the actual probabilistic decision, as the paper configures it:
    // P_R = 1 / number of neighbors.
    let mut decider = RcastDecider::new(7, OverhearFactors::default(), StreamRng::from_seed(9));
    let x = NodeId::new(5);
    println!(
        "X has {} neighbors, so the paper's rule gives P_R = {:.2}",
        nt.degree(x),
        decider.probability(x, &nt)
    );
    let trials = 10_000;
    let overheard = (0..trials)
        .filter(|_| decider.decide(x, NodeId::new(1), &nt, SimTime::ZERO))
        .count();
    println!(
        "measured over {trials} advertised packets: X overhears {:.1} % of them",
        100.0 * overheard as f64 / trials as f64
    );
}
