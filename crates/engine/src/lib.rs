//! Discrete-event simulation core for the RandomCast reproduction.
//!
//! This crate provides the three primitives every other layer builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulation
//!   clock with saturating arithmetic and convenient constructors,
//! * [`EventQueue`] — a deterministic priority queue of timestamped
//!   events with FIFO tie-breaking,
//! * [`rng`] — seedable, splittable random-number streams so that each
//!   simulation component draws from an independent, reproducible stream,
//! * [`pool`] — a deterministic scoped-thread pool that fans independent
//!   work (e.g. one simulation per seed) across cores while returning
//!   results in input order, byte-identical to a serial loop,
//! * [`ondemand`] — the state both on-demand routing protocols share:
//!   the send buffer, the expanding-ring discovery table and the
//!   duplicate-RREQ filter.
//!
//! The engine is intentionally minimal. Upper layers (`rcast-mac`,
//! `rcast-dsr`, `rcast-core`) define their own event payload types and
//! drive an [`EventQueue`] in a loop. The one piece of protocol
//! knowledge here is [`ondemand`]: it holds no packet format, only
//! the machinery `rcast-dsr` and `rcast-aodv` would otherwise each
//! keep a copy of. It lives in this crate because both already depend
//! on it and on nothing else; a crate of its own would add a dependency
//! edge, and with it a change to the end-to-end benchmark's lockfile.
//!
//! # Example
//!
//! ```
//! use rcast_engine::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Beacon, Arrival(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(250), Ev::Beacon);
//! q.schedule(SimTime::from_millis(100), Ev::Arrival(7));
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(100));
//! assert_eq!(ev, Ev::Arrival(7));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ids;
pub mod ondemand;
pub mod pool;
mod queue;
pub mod rng;
mod time;

pub use ids::NodeId;
pub use queue::{EventQueue, ScheduledEvent};
pub use time::{SimDuration, SimTime};
