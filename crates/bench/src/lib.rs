//! Shared harness for the experiment binaries, plus the tracked
//! benchmark suite behind `rcast bench` ([`perf`]) and the allocation
//! probe ([`alloc_probe`]).
//!
//! The paper's figure grid (Figs. 5–8 and Table 1) is regenerated by
//! the sweep presets (`rcast sweep --spec fig5` … `fig8`; Table 1 reads
//! the rate 0.4 and 2.0 cells at pause 600 of the `fig7` artifact). The
//! binaries in `src/bin/` report what sweep artifacts do not carry:
//!
//! | binary | reports |
//! |---|---|
//! | `fig9`   | Fig. 9 — role number vs energy scatter |
//! | `ablation_factors` | Rcast decision factors (Section 3.2 / future work) |
//! | `ablation_broadcast` | randomized RREQ rebroadcast extension |
//! | `ablation_cache` | route-cache capacity & timeout sensitivity |
//! | `ablation_odpm` | ODPM timeout sensitivity |
//! | `lifetime` | network-lifetime extension (finite batteries) |
//! | `aodv_comparison` | DSR vs AODV under each power-management scheme |
//!
//! All binaries accept `--full` (paper-scale: 1125 s, 10 seeds) and
//! default to a quick mode (375 s, 3 seeds) so each finishes in
//! minutes. Every binary fans its seeds across cores with
//! [`rcast_core::run_seeds_parallel`]; pass `--threads N` to pin the
//! worker count (results are byte-identical at any width — see the
//! determinism contract in `rcast_engine::pool`).

// det: unsafe-ok — deny (not forbid) so alloc_probe can carve out the
// single GlobalAlloc impl this workspace needs; everything else in the
// crate still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![deny(missing_docs)]

use rcast_core::{Scheme, SimConfig, SimReport};
use rcast_engine::SimDuration;

pub mod alloc_probe;
pub mod perf;

pub use alloc_probe::AllocProbe;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 375 simulated seconds, 3 seeds.
    Quick,
    /// The paper's testbed: 1125 s, 10 seeds.
    Full,
}

impl Scale {
    /// Parses `--full` from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Simulated duration at this scale.
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(375),
            Scale::Full => SimDuration::from_secs(1125),
        }
    }

    /// Seeds averaged per data point (the paper repeats ten times).
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1, 2, 3],
            Scale::Full => (1..=10).collect(),
        }
    }
}

/// The paper's testbed configuration at a given scale.
///
/// Pause times scale with the duration (ns-2 setdest nodes pause
/// *before* their first trip, so an unscaled 600 s pause would leave a
/// 375 s quick run entirely static and erase the paper's mobile/static
/// distinction).
pub fn config(scheme: Scheme, rate_pps: f64, pause_secs: f64, scale: Scale) -> SimConfig {
    let ratio = scale.duration().as_secs_f64() / 1125.0;
    let mut cfg = SimConfig::paper(scheme, 0, rate_pps, pause_secs * ratio);
    cfg.duration = scale.duration();
    cfg
}

/// Worker threads for the parallel seed fan-out: `--threads N` (or
/// `--threads=N`) from the process arguments, else the machine width.
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(n) = a
            .strip_prefix("--threads=")
            .and_then(|v| v.parse().ok())
        {
            return n;
        }
    }
    rcast_engine::pool::available_threads()
}

/// Runs the scale's seeds for `cfg` in parallel; reports come back in
/// seed order, byte-identical to a serial loop.
///
/// # Panics
///
/// Panics if the configuration is invalid (a bug in the harness).
pub fn run_reports(cfg: &SimConfig, scale: Scale) -> Vec<SimReport> {
    rcast_core::run_seeds_parallel(cfg, scale.seeds(), threads_from_args())
        .expect("valid harness config")
}

/// Prints a standard experiment banner.
pub fn banner(what: &str, scale: Scale) {
    println!("=== {what} ===");
    println!(
        "scale: {:?} ({} s simulated, {} seeds; pass --full for the paper-scale run)",
        scale,
        scale.duration().as_secs_f64(),
        scale.seeds().len()
    );
    println!(
        "threads: {} (pass --threads N to change; results are identical at any width)",
        threads_from_args()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcast_core::AggregateReport;

    #[test]
    fn scales_differ_sensibly() {
        assert!(Scale::Quick.duration() < Scale::Full.duration());
        assert!(Scale::Quick.seeds().len() < Scale::Full.seeds().len());
        assert_eq!(Scale::Full.seeds().len(), 10, "the paper averages 10 runs");
    }

    #[test]
    fn config_respects_scale() {
        let c = config(Scheme::Rcast, 0.4, 600.0, Scale::Quick);
        assert_eq!(c.duration, SimDuration::from_secs(375));
        assert_eq!(c.traffic.rate_pps, 0.4);
        // Pause scales with duration: 600 x 375/1125 = 200 s.
        assert_eq!(c.waypoint.pause_secs, 200.0);
        assert!(c.validate().is_ok());
        let full = config(Scheme::Rcast, 0.4, 600.0, Scale::Full);
        assert_eq!(full.waypoint.pause_secs, 600.0);
    }

    #[test]
    fn parallel_seed_reports_aggregate() {
        let cfg = SimConfig::smoke(Scheme::Rcast, 0);
        let reports = rcast_core::run_seeds_parallel(&cfg, [1, 2], 2).unwrap();
        let agg = AggregateReport::from_runs(&reports, cfg.traffic.packet_bytes);
        assert_eq!(agg.runs, 2);
        assert!(agg.mean_total_energy_j > 0.0);
    }

    #[test]
    fn threads_default_is_positive() {
        assert!(threads_from_args() >= 1);
    }
}
