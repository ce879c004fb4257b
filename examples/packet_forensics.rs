//! Scenario: debugging one packet's journey with the event ledger.
//!
//! ```sh
//! cargo run --release --example packet_forensics
//! ```
//!
//! Enables `SimConfig::obs` and uses the ledger's per-packet views to
//! answer the questions an operator asks when a flow misbehaves: which
//! packets died, where the survivors went hop by hop, and how the
//! per-flow latency distribution looks — detail the aggregate report
//! cannot give.

use randomcast::{run_sim, Scheme, SimConfig};

fn main() -> Result<(), String> {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 12);
    cfg.obs = true;
    let report = run_sim(cfg)?;
    let obs = report.obs.as_ref().expect("ledger enabled");

    println!(
        "run: {} packets originated, {} delivered, {} dropped, {} ledger events\n",
        report.delivery.originated(),
        report.delivery.delivered(),
        report.delivery.dropped(),
        obs.events().len(),
    );

    // Slowest delivery, dissected hop by hop.
    let mut latencies = obs.delivery_latencies();
    latencies.sort_by_key(|&(_, d)| d);
    if let Some(&(worst, latency)) = latencies.last() {
        println!(
            "slowest packet: flow {} seq {} took {latency}",
            worst.0, worst.1
        );
        print!("{}", obs.render_packet(worst));
    }

    // Per-flow latency spread.
    println!("\nper-flow mean latency (ms):");
    let mut per_flow: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for (id, d) in &latencies {
        per_flow.entry(id.0).or_default().push(d.as_millis_f64());
    }
    for (flow, ms) in per_flow {
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        println!("  flow {flow:>2}: {mean:>6.0} ms over {} packets", ms.len());
    }

    // Anything unaccounted for at the end of the run?
    let unresolved = obs.unresolved();
    println!(
        "\npackets still queued/in flight at the end of the run: {}",
        unresolved.len()
    );
    Ok(())
}
