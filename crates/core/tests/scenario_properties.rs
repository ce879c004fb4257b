//! Property tests for the scenario format's key table.
//!
//! Pinned here, over generated configurations that set every key:
//!
//! * `write_scenario` → `parse_scenario` is the **identity** — seeds
//!   past 2^53, nanosecond durations, non-default Rcast factors next to
//!   a `broadcast_p` below 1, fault plans, batteries, the ledger
//!   switch and the route-cache and ODPM timeout keys all survive;
//! * mutated exports (truncated, tokens swapped, values replaced by
//!   NaN, inf, −1, 0, 1e30, 2.7 or a zero-sided area, values dropped)
//!   never panic, and every error names its line.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rcast_core::{
    parse_scenario, write_scenario, Area, FaultsConfig, RoutingKind, Scheme, SimConfig,
};
use rcast_dsr::CacheStrategy;
use rcast_engine::SimDuration;
use rcast_testkit::{prop_assert, prop_assert_eq, Check, Gen};

/// A valid configuration with every scenario key drawn at random.
fn arb_config(g: &mut Gen) -> SimConfig {
    let scheme = Scheme::ALL[g.usize_range(0, Scheme::ALL.len())];
    let (seed, rate, pause) = (g.u64(), g.f64_range(0.01, 20.0), g.f64_range(0.0, 2000.0));
    let mut c = SimConfig::paper(scheme, seed, rate, pause);
    if g.bool() {
        // Just past f64's exact integers: a float-parsed seed loses it.
        c.seed = (1 << 53) + 1;
    }
    c.routing = if g.bool() { RoutingKind::Aodv } else { RoutingKind::Dsr };
    c.nodes = g.u32_range(2, u32::MAX);
    c.area = Area::new(g.f64_range(1.0, 1e5), g.f64_range(1.0, 1e5));
    c.range_m = g.f64_range(1.0, 1e3);
    c.data_rate_bps = g.f64_range(1e3, 1e8);
    c.duration = SimDuration::from_nanos(g.u64_range(1, u64::MAX));
    let beacon = g.u64_range(2, 10_000_000_000);
    c.mac.beacon_interval = SimDuration::from_nanos(beacon);
    c.mac.atim_window = SimDuration::from_nanos(g.u64_range(1, beacon));
    c.traffic.flows = g.u32_range(1, u32::MAX);
    c.traffic.packet_bytes = g.usize_range(1, 1 << 40);
    c.waypoint.max_speed_mps = c.waypoint.min_speed_mps + g.f64_range(0.0, 100.0);
    c.factors.neighbors = g.bool();
    c.factors.sender_id = g.bool();
    c.factors.mobility = g.bool();
    c.factors.battery = g.bool();
    c.factors.broadcast_probability = if g.bool() { 1.0 } else { g.f64_range(0.0, 1.0) };
    c.battery_capacity_j = if g.bool() { Some(g.f64_range(0.001, 1e6)) } else { None };
    c.obs = g.bool();
    if g.bool() {
        c.faults = FaultsConfig {
            crash_prob: g.f64_range(0.0, 1.0),
            downtime_s: g.f64_range(0.0, 600.0),
            link_blackouts: g.u32_range(0, 100),
            blackout_s: g.f64_range(0.0, 600.0),
            corruption_bursts: g.u32_range(0, 100),
            burst_s: g.f64_range(0.0, 600.0),
            corruption_prob: g.f64_range(0.0, 1.0),
            script: Vec::new(),
        };
    }
    c.dsr.cache.capacity = g.usize_range(1, 1 << 20);
    c.dsr.cache.timeout = g.bool().then(|| SimDuration::from_nanos(g.u64_range(0, u64::MAX)));
    c.dsr.cache.strategy = if g.bool() { CacheStrategy::Link } else { CacheStrategy::Path };
    c.odpm.rrep_timeout = SimDuration::from_nanos(g.u64_range(0, u64::MAX));
    c.odpm.data_timeout = SimDuration::from_nanos(g.u64_range(0, u64::MAX));
    c
}

/// Parses without letting a panic escape: a panic becomes a property
/// failure carrying the offending text and the runner's replay seed.
fn parse_caught(text: &str) -> Result<Result<SimConfig, String>, String> {
    catch_unwind(AssertUnwindSafe(|| parse_scenario(text)))
        .map_err(|_| format!("parse_scenario panicked on {text:?}"))
}

#[test]
fn export_then_parse_is_the_identity() {
    Check::new("scenario_round_trip").cases(256).run(|g: &mut Gen| {
        let cfg = arb_config(g);
        prop_assert!(cfg.validate().is_ok(), "generator made an invalid config: {cfg:?}");
        let text = write_scenario(&cfg);
        let parsed = parse_caught(&text)?;
        prop_assert_eq!(parsed, Ok(cfg));
        Ok(())
    });
}

#[test]
fn mutated_exports_never_panic_and_errors_name_a_line() {
    const BAD: [&str; 10] = [
        "NaN", "inf", "-inf", "-1", "0", "1e30", "2.7", "18446744073709551616", "0x300", "300 0",
    ];
    Check::new("scenario_mutations").cases(512).run(|g: &mut Gen| {
        let text = write_scenario(&arb_config(g));
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Line 0 is the header comment; every later line is `key value`.
        let at = g.usize_range(1, lines.len());
        let key = lines[at].split(' ').next().unwrap_or("").to_string();
        let mutated = match g.usize_range(0, 4) {
            // Truncate anywhere (the text is ASCII).
            0 => text[..g.usize_range(0, text.len() + 1)].to_string(),
            // Swap two tokens, possibly across lines.
            1 => {
                let mut tokens: Vec<&str> = text.split(' ').collect();
                let (a, b) = (g.usize_range(0, tokens.len()), g.usize_range(0, tokens.len()));
                tokens.swap(a, b);
                tokens.join(" ")
            }
            // Replace one value with a hostile number.
            2 => {
                lines[at] = format!("{key} {}", BAD[g.usize_range(0, BAD.len())]);
                lines.join("\n")
            }
            // Drop one line's value.
            _ => {
                lines[at] = key;
                lines.join("\n")
            }
        };
        if let Err(e) = parse_caught(&mutated)? {
            prop_assert!(e.starts_with("line "), "error without a line: {e} for {mutated:?}");
        }
        Ok(())
    });
}
