//! Radio layer: propagation, frame airtime, and energy accounting.
//!
//! The paper's testbed is an ns-2 two-ray-ground channel with a 250 m
//! nominal transmission range, 2 Mbps data rate, and the Lucent
//! WaveLAN-II power profile (1.15 W awake in idle/receive/transmit,
//! 0.045 W in the low-power doze state). This crate reproduces those
//! three ingredients:
//!
//! * [`Propagation`] — a two-ray-ground / Friis hybrid path-loss model
//!   whose reception threshold is calibrated so the reception disk is
//!   exactly the configured nominal range (matching how ns-2 scenarios
//!   are tuned),
//! * [`Phy`] — data-rate and 802.11 timing constants with frame airtime
//!   computation,
//! * [`EnergyModel`] / [`EnergyMeter`] — power-state
//!   bookkeeping that integrates watts over simulated state intervals.
//!
//! # Example
//!
//! ```
//! use rcast_engine::SimDuration;
//! use rcast_radio::{EnergyMeter, EnergyModel, PowerState};
//!
//! let model = EnergyModel::wavelan_ii();
//! let mut meter = EnergyMeter::new(model);
//! meter.accumulate(PowerState::Awake, SimDuration::from_secs(1));
//! meter.accumulate(PowerState::Sleep, SimDuration::from_secs(1));
//! assert!((meter.total_joules() - (1.15 + 0.045)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod energy;
mod phy;
mod propagation;

pub use energy::{EnergyMeter, EnergyModel, PowerState};
pub use phy::{Phy, PhyTimings};
pub use propagation::Propagation;
