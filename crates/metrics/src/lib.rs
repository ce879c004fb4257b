//! Evaluation metrics for the RandomCast reproduction.
//!
//! Every number in the paper's Section 4 maps to a type here:
//!
//! | Paper metric | Type |
//! |---|---|
//! | Per-node energy, total energy, EPB (Figs. 5, 7a/c/d/f) | [`EnergyReport`] |
//! | Variance of energy consumption (Fig. 6) | [`EnergyReport::variance`] |
//! | Packet delivery ratio, delay (Figs. 7b/e, 8a/c) | [`DeliveryTracker`] |
//! | Normalized routing overhead (Fig. 8b/d) | [`DeliveryTracker::normalized_routing_overhead`] |
//! | Role numbers (Fig. 9) | [`RoleNumbers`] |
//!
//! [`RunningStats`] provides the underlying streaming statistics and
//! [`TextTable`] renders the figure-regeneration binaries' output.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod confidence;
mod csv;
mod delivery;
mod histogram;
mod energy;
mod role;
mod stats;
mod table;
mod timeseries;

pub use confidence::{confidence95, summarize95, t_critical_95, Confidence, SampleSummary};
pub use csv::CsvTable;
pub use delivery::DeliveryTracker;
pub use histogram::Histogram;
pub use energy::EnergyReport;
pub use role::RoleNumbers;
pub use stats::{mean, population_variance, RunningStats};
pub use table::{fmt_f64, TextTable};
pub use timeseries::IntervalSeries;
