//! Deterministic cross-layer observability for the RandomCast
//! reproduction: a structured event ledger plus energy audit.
//!
//! The simulation records one [`Event`] per protocol decision — MAC
//! interval phases, routing packet lifecycle, fault markers, and
//! per-interval energy spans — into a [`Ledger`] whose storage is fully
//! pre-sized at construction, so recording never touches the allocator
//! on the hot path (DESIGN.md §10 applies to this crate too).
//!
//! Two invariants make the ledger useful as ground truth:
//!
//! 1. **Total order.** Every event carries a `(SimTime, NodeId, seq)`
//!    key; [`Ledger::into_report`] sorts by that key, which is a
//!    *strict* total order (seq is unique per run).
//! 2. **Energy reconciliation.** `Span` events mirror every
//!    `EnergyMeter::accumulate` call the simulation makes, in the same
//!    per-node order, so [`ObsReport::replay_energy`] reproduces the
//!    report's per-node joule totals bit-for-bit.
//!
//! [`render_jsonl`] exports the ledger as stable `rcast-trace/v1`
//! JSONL, byte-identical across worker-thread counts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod export;
mod ledger;

pub use event::{Event, EventKind, PacketClass, KIND_NAMES};
pub use export::{render_jsonl, TraceFilter};
pub use ledger::{Ledger, LedgerParams, ObsReport, SERIES_COLUMNS};
