//! IEEE 802.11 DCF + power-saving MAC for the RandomCast reproduction.
//!
//! The paper's mechanism lives at this layer: with the 802.11 power
//! saving mode (PSM), every beacon interval opens with an **ATIM
//! window** in which senders advertise buffered traffic; nodes that are
//! neither addressed nor interested may sleep through the remaining
//! **data window**. Rcast extends the ATIM frame with two reserved
//! subtypes so a sender can request *no*, *randomized*, or
//! *unconditional* overhearing ([`AtimSubtype`], [`OverhearingLevel`]).
//!
//! Two transmission paths are modelled:
//!
//! * [`MacLayer::run_interval`] — the PSM path: queued frames advertised
//!   and delivered at beacon-interval granularity, with per-neighborhood
//!   airtime budgeting, link-break detection via missing ATIM-ACKs, and
//!   explicit overhearing resolution. It is the one interval entry
//!   point: it refills a caller-owned [`IntervalOutcome`] in place and
//!   reports each decision to a [`MacObserver`] (pass
//!   [`NullMacObserver`] when nobody listens).
//! * [`Channel::transmit`] — the active-mode path used by 802.11 without
//!   PSM and by ODPM's AM fast path: immediate CSMA transmission with
//!   carrier-sense deferral, backoff, and retries.
//!
//! Scheme-specific behaviour (who is in AM, who overhears) is injected
//! through the [`WakePolicy`] trait, implemented by `rcast-core` for
//! each of the paper's schemes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod budget;
mod channel;
mod config;
mod frame;
mod interval;
mod observe;
mod queue;
mod wake;

pub use budget::AirtimeBudget;
pub use channel::{Channel, ImmediateResult};
pub use config::MacConfig;
pub use frame::{AtimSubtype, Destination, MacFrame, OverhearingLevel};
pub use interval::{Delivery, Fanout, IntervalOutcome, LinkFailure, MacCounters, MacLayer};
pub use observe::{MacObserver, NullMacObserver};
pub use queue::{Queued, TxQueue};
pub use wake::{AllActive, AllPowerSave, PowerMode, WakePolicy};
