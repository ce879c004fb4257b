//! The tracked benchmark suite behind `rcast bench` ([`perf`]) and the
//! allocation probe ([`alloc_probe`]).
//!
//! The paper's figures and the ablation and extension experiments are
//! sweep presets (`rcast sweep --spec fig5` … `aodv-comparison`; see
//! `rcast_sweep::PRESETS`), not binaries of this crate.

// det: unsafe-ok — deny (not forbid) so alloc_probe can carve out the
// single GlobalAlloc impl this workspace needs; everything else in the
// crate still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod alloc_probe;
pub mod perf;

pub use alloc_probe::AllocProbe;
