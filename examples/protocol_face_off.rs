//! Scenario: choosing a routing protocol for a power-saving network.
//!
//! ```sh
//! cargo run --release --example protocol_face_off
//! ```
//!
//! The paper chooses DSR over AODV because AODV's conservative route
//! maintenance (no overhearing, timeouts, hello beacons) fights the
//! power-saving MAC. This example runs the same workload over both
//! protocols under the Rcast scheme, prints the head-to-head, and shows
//! how to archive the loser's configuration as a scenario file for
//! later replay.

use randomcast::{run_sim, RoutingKind, Scheme, SimConfig, SimDuration};

fn main() -> Result<(), String> {
    println!("Protocol face-off: DSR vs AODV under the Rcast scheme\n");

    println!(
        "{:>7}  {:>10}  {:>7}  {:>10}  {:>7}  {:>6}",
        "routing", "energy (J)", "PDR (%)", "control tx", "RREQ tx", "hellos"
    );

    let mut archived = None;
    for routing in [RoutingKind::Dsr, RoutingKind::Aodv] {
        let mut cfg = SimConfig::paper(Scheme::Rcast, 21, 0.4, 300.0);
        cfg.nodes = 60;
        cfg.area = randomcast::mobility::Area::new(1200.0, 300.0);
        cfg.duration = SimDuration::from_secs(240);
        cfg.traffic.flows = 12;
        cfg.routing = routing;
        let report = run_sim(cfg.clone())?;
        println!(
            "{:>7}  {:>10.0}  {:>7.1}  {:>10}  {:>7}  {:>6}",
            routing.label(),
            report.energy.total_joules(),
            report.delivery.delivery_ratio() * 100.0,
            report.delivery.control_transmissions(),
            report.rreq_transmissions(),
            report.aodv.hello_sent,
        );
        if routing == RoutingKind::Aodv {
            archived = Some(randomcast::write_scenario(&cfg));
        }
    }
    println!();
    println!("DSR wins on control traffic and energy: its route caches feed");
    println!("on (randomized) overhearing, while AODV re-floods and beacons.");
    println!();
    println!("The AODV configuration, archived as a replayable scenario file");
    println!("(`rcast scenario <file>` reruns it bit-identically):");
    println!();
    for line in archived.expect("AODV ran").lines() {
        println!("    {line}");
    }
    Ok(())
}
