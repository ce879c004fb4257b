//! Paper-figure sweep campaigns: declarative run matrices, deterministic
//! parallel execution, stable artifacts.
//!
//! The paper's evaluation is a grid — every scheme at every packet rate
//! and pause time, repeated over seeds, averaged, plotted. This crate
//! makes that grid a first-class object:
//!
//! * [`SweepSpec`] — the declarative campaign: axes over scheme × rate ×
//!   pause × node count × [`Variant`] (scenario assignments such as a
//!   fault plan), a seed list, a base configuration and optional extra
//!   metric columns; parsed from spec files ([`parse_spec`]) or built
//!   from the presets ([`preset`]: the figures `fig5`–`fig8` and the
//!   experiments listed in [`PRESETS`]).
//! * [`run_spec`] — canonical expansion into [`SweepCell`]s, execution
//!   across cores via `ScopedPool::map_grid` (workers steal across
//!   cells, not just seeds), and per-cell reduction to
//!   mean/stddev/CI95 per figure metric.
//! * [`to_json`] / [`to_csv`] — the `rcast-sweep/v1` artifacts: fixed
//!   key order, shortest-round-trip numbers, no timestamps or
//!   thread-count fields, **byte-identical at any `--threads` width**.
//!
//! # Quickstart
//!
//! ```
//! use rcast_engine::SimDuration;
//! use rcast_sweep::{preset, run_spec, to_csv};
//!
//! // The Fig. 7 grid, scaled to doctest size.
//! let mut spec = preset("fig7").expect("built-in preset").smoke();
//! spec.base.duration = SimDuration::from_secs(4);
//! spec.pauses = vec![4.0];
//! spec.rates.truncate(1);
//! spec.seeds.truncate(1);
//!
//! let report = run_spec(&spec, 2)?;
//! assert_eq!(report.cells.len(), spec.schemes.len());
//! assert!(to_csv(&report).lines().count() == 1 + report.cells.len());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod artifact;
mod run;
mod spec;

pub use artifact::{human_summary, to_csv, to_json};
pub use run::{run_spec, CellSummary, SweepReport};
pub use spec::{
    parse_spec, preset, Pairing, SweepCell, SweepSpec, Variant, AXIS_KEYS, MAX_SEEDS, PRESETS,
};
