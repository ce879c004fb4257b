//! Dynamic Source Routing (DSR) for the RandomCast reproduction.
//!
//! DSR (Johnson & Maltz) is the routing protocol the paper pairs with
//! the 802.11 PSM, chosen because it gathers route state by
//! **overhearing** rather than periodic control broadcasts. This crate
//! implements the protocol slice the evaluation exercises:
//!
//! * [`SourceRoute`] — loop-free full-path routes, stored inline in a
//!   [`NodePath`] up to [`INLINE_IDS`] nodes,
//! * [`RouteCache`] — the per-node path cache with LRU capacity,
//!   link-based invalidation (with prefix truncation), and an optional
//!   timeout for the cache-strategy ablation,
//! * [`DsrPacket`] — RREQ / RREP / RERR / source-routed data with
//!   realistic wire sizes,
//! * [`DsrNode`] — the event-driven state machine: route discovery with
//!   expanding-ring search, cached replies, multiple RREPs per
//!   discovery, send buffering, salvaging, RERR propagation, and the
//!   promiscuous-overhearing learning path that Rcast throttles.
//!
//! The crate is MAC-agnostic: [`DsrNode`] consumes events and produces
//! [`DsrAction`]s; the simulation core (`rcast-core`) maps actions onto
//! MAC frames and assigns each packet type its overhearing level
//! (randomized for RREP/data, unconditional for RERR — Section 3.3 of
//! the paper).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod config;
mod link_cache;
mod node;
mod packet;
mod route;

pub use cache::{CacheConfig, CacheStrategy, PathCache, RouteCache};
pub use link_cache::LinkCache;
pub use config::DsrConfig;
pub use node::{DropReason, DsrAction, DsrCounters, DsrNode};
pub use packet::{DataPacket, DsrPacket, Rerr, Rreq, Rrep};
pub use route::{NodePath, SourceRoute, INLINE_IDS};
