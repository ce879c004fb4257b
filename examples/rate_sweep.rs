//! Scenario: a capacity-planning sweep over traffic intensity.
//!
//! ```sh
//! cargo run --release --example rate_sweep
//! ```
//!
//! Answers the operator's question the paper's Figure 7 answers for
//! researchers: *as offered load grows, how do the energy savings and
//! the delivery guarantees of each power-management scheme move?*
//! Sweeps the per-flow packet rate on a mid-sized network as an inline
//! sweep spec and prints the sweep engine's summary, energy per
//! delivered bit included.

use randomcast::engine::pool::available_threads;
use randomcast::mobility::Area;
use randomcast::sweep::{human_summary, run_spec, SweepSpec};
use randomcast::SimDuration;

fn main() -> Result<(), String> {
    // 802.11, ODPM and Rcast at four rates: 60 nodes, 12 flows, one
    // 240-second run per cell.
    let mut spec = SweepSpec::paper_default("rate-sweep");
    spec.rates = vec![0.2, 0.5, 1.0, 2.0];
    spec.pauses = vec![300.0];
    spec.nodes = vec![60];
    spec.seeds = vec![11];
    spec.base.area = Area::new(1200.0, 300.0);
    spec.base.duration = SimDuration::from_secs(240);
    spec.base.traffic.flows = 12;
    let report = run_spec(&spec, available_threads())?;
    println!("{}", human_summary(&report));

    println!("Reading the frontier: Rcast's energy-per-bit stays the lowest");
    println!("across the sweep; the price is delay pinned near the beacon");
    println!("pace (~ hops x 250 ms), which 802.11 and ODPM avoid.");
    Ok(())
}
