//! RandomCast (Rcast): the paper's contribution and the full simulation
//! assembly.
//!
//! This crate reproduces *Lim, Yu & Das, "Rcast: A Randomized
//! Communication Scheme for Improving Energy Efficiency in MANETs"*
//! (ICDCS 2005) on top of the substrate crates (`rcast-engine`,
//! `rcast-mobility`, `rcast-radio`, `rcast-mac`, `rcast-dsr`,
//! `rcast-traffic`, `rcast-metrics`):
//!
//! * [`Scheme`] — the compared power-management schemes: 802.11 without
//!   PSM, unmodified PSM (unconditional overhearing), PSM without
//!   overhearing, ODPM, and Rcast; with the per-packet-type overhearing
//!   levels of Section 3.3.
//! * [`RcastDecider`] / [`OverhearFactors`] — the randomized-overhearing
//!   decision with all four factors of Section 3.2 (neighbor count —
//!   the paper's `P_R = 1/#neighbors` default — plus sender ID,
//!   mobility and battery as the paper's future-work extensions).
//! * [`OdpmState`] — the On-Demand Power Management baseline.
//! * [`Simulation`] / [`SimConfig`] / [`SimReport`] — the end-to-end
//!   runner reproducing the testbed of Section 4.1.
//! * [`run_seeds`] / [`run_seeds_parallel`] — the multi-seed experiment
//!   runner (the paper repeats every scenario ten times). The parallel
//!   variant fans seeds across cores and is **byte-identical** to the
//!   serial one for any thread count.
//!
//! # Quickstart
//!
//! ```
//! use rcast_core::{run_sim, Scheme, SimConfig};
//!
//! let report = run_sim(SimConfig::smoke(Scheme::Rcast, 1))?;
//! println!("{}", report.summary());
//! assert!(report.delivery.delivery_ratio() > 0.0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod faults;
mod odpm;
mod overhearing;
mod report;
mod routing;
mod scenario;
mod scheme;
mod sim;

pub use config::SimConfig;
pub use faults::{FaultCounters, FaultEvent, FaultPlan, FaultsConfig};
pub use odpm::{OdpmConfig, OdpmState};
pub use overhearing::{OverhearFactors, RcastDecider};
pub use report::{AggregateReport, RunMetric, SimReport, FIGURE_METRICS, RUN_METRICS};
pub use routing::{
    DataInfo, NetPacket, PacketArena, PacketHandle, PacketHeader, PacketKind, RouteAction,
    RouteOut, RouterNode, RoutingKind,
};
pub use rcast_mobility::Area;
pub use scenario::{parse_scenario, set_key, write_scenario};
pub use rcast_obs::{
    render_jsonl, Event as ObsEvent, EventKind as ObsEventKind, Ledger, LedgerParams, ObsReport,
    PacketClass, TraceFilter, SERIES_COLUMNS,
};
pub use scheme::Scheme;
pub use sim::{run_seeds, run_seeds_parallel, run_sim, Simulation};
