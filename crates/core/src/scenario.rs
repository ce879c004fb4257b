//! Scenario files: a plain-text serialization of [`SimConfig`].
//!
//! ns-2 experiments live in scenario files; this library's equivalent is
//! a line-oriented `key value` format covering every knob the paper
//! sweeps, so experiments can be archived, diffed and replayed:
//!
//! ```text
//! # RandomCast scenario
//! scheme rcast
//! nodes 100
//! area 1500 300
//! seed 9007199254740993
//! factors neighbors,sender-id
//! ```
//!
//! Every key appears once in one table, with a setter that reads its
//! value text and a printer that writes it back. [`parse_scenario`] and
//! [`write_scenario`] loop over that table, the `rcast` CLI's
//! configuration flags go through [`set_key`] (`--broadcast-p` sets
//! `broadcast_p`), and sweep spec base lines go through
//! [`parse_scenario`]; so parsing the written text restores every keyed
//! field. The keys, in printing order, with the paper defaults:
//!
//! | key | value | default |
//! |---|---|---|
//! | `scheme` | `802.11`, `psm`, `psm-none`, `odpm`, `rcast` (any case, CLI aliases too) | `rcast` |
//! | `routing` | `dsr`, `aodv` | `dsr` |
//! | `nodes`, `flows`, `packet_bytes`, `seed` | integers | `100`, `20`, `512`, `1` |
//! | `area` | `W H` or `WxH`, meters; printed `W H` | `1500 300` |
//! | `range`, `data_rate` | meters, bits/second | `250`, `2000000` |
//! | `duration` | seconds | `1125` |
//! | `beacon_interval_ms`, `atim_window_ms` | milliseconds | `250`, `50` |
//! | `rate`, `pause`, `max_speed` | packets/s per flow, seconds, m/s | `0.4`, `600`, `20` |
//! | `factors` | comma list of `neighbors`, `sender-id`, `mobility`, `battery`, or `none` | `neighbors` |
//! | `broadcast_p` | Rcast broadcast receive probability | `1` |
//! | `battery` | joules per node; a drained node is off for the rest of the run, and overshoots its capacity by at most one interval of awake draw (0.2875 J) | unlimited |
//! | `obs` | `true` / `false` | `false` |
//! | `faults` | a `--faults` spec (`crash=0.3,downtime=10`) or `none` | none |
//! | `cache_capacity` | DSR route-cache entries (paths or links) | `64` |
//! | `cache_timeout` | DSR route-cache entry lifetime, seconds | none |
//! | `cache_strategy` | `path`, `link` | `path` |
//! | `odpm_rrep_timeout_ms`, `odpm_data_timeout_ms` | ODPM keep-alives, milliseconds | `5000`, `2000` |
//!
//! `factors` sets only the four factor switches, never `broadcast_p`.
//! `factors`, `battery`, `obs`, `faults` and the five cache and ODPM
//! keys print nothing at their default. Values are checked before they reach a field: numbers must
//! be finite and non-negative, integer keys take integers that fit
//! their field (`2.7` and `1e30` are errors, not casts), and durations
//! must fit the nanosecond clock, which they keep exactly. Unlisted
//! keys keep the paper defaults; unknown keys are errors (typos must
//! not silently change an experiment). Every error names its line; the
//! whole-configuration check ([`SimConfig::validate`]) runs after the
//! last line and names that.

use std::num::{IntErrorKind, ParseIntError};
use std::str::FromStr;

use rcast_engine::SimDuration;
use rcast_mobility::Area;

use rcast_dsr::{CacheConfig, CacheStrategy};

use crate::config::SimConfig;
use crate::faults::FaultsConfig;
use crate::odpm::OdpmConfig;
use crate::overhearing::OverhearFactors;
use crate::scheme::Scheme;

/// One scenario key: the setter that reads its value text into a
/// configuration and the printer that writes it back (`None`: at its
/// default, print nothing).
struct Key {
    name: &'static str,
    set: fn(&mut SimConfig, &str) -> Result<(), String>,
    print: fn(&SimConfig) -> Option<String>,
}

/// `key!(name, |c, v| field = parse, print)` builds a [`Key`];
/// `key!(name, field, parse_fn)` is a number field printed by `Display`.
macro_rules! key {
    ($name:literal, $($field:ident).+, $parse:ident) => {
        key!($name, |c, v| $($field).+ = $parse(v)?, Some(c.$($field).+.to_string()))
    };
    ($name:literal, |$c:ident, $v:ident| $($field:ident).+ = $parse:expr, $print:expr) => {
        Key {
            name: $name,
            set: |$c, $v| {
                $c.$($field).+ = $parse;
                Ok(())
            },
            print: |$c| $print,
        }
    };
}

/// Nanoseconds per second and per millisecond: the duration keys' units.
const SECOND: u64 = 1_000_000_000;
const MILLI: u64 = 1_000_000;

/// The Rcast decision factors, in the order `factors` prints them.
const FACTORS: [&str; 4] = ["neighbors", "sender-id", "mobility", "battery"];

/// The route-cache strategies, by their `cache_strategy` names.
const STRATEGIES: [(&str, CacheStrategy); 2] =
    [("path", CacheStrategy::Path), ("link", CacheStrategy::Link)];

/// Every scenario key, in the order [`write_scenario`] prints them.
const KEYS: [Key; 25] = [
    key!("scheme", |c, v| scheme = one(v)?.parse()?, Some(c.scheme.token().into())),
    key!("routing", |c, v| routing = one(v)?.parse()?, Some(c.routing.token().into())),
    key!("nodes", nodes, integer),
    key!("area", |c, v| area = area(v)?, Some(format!("{} {}", c.area.width(), c.area.height()))),
    key!("range", range_m, number),
    key!("data_rate", data_rate_bps, number),
    key!("duration", |c, v| duration = span(v, SECOND)?, Some(print_span(c.duration, SECOND))),
    key!("seed", seed, integer),
    key!("beacon_interval_ms", |c, v| mac.beacon_interval = span(v, MILLI)?,
        Some(print_span(c.mac.beacon_interval, MILLI))),
    key!("atim_window_ms", |c, v| mac.atim_window = span(v, MILLI)?,
        Some(print_span(c.mac.atim_window, MILLI))),
    key!("flows", traffic.flows, integer),
    key!("rate", traffic.rate_pps, number),
    key!("packet_bytes", traffic.packet_bytes, integer),
    key!("pause", waypoint.pause_secs, number),
    key!("max_speed", waypoint.max_speed_mps, number),
    key!("factors", |c, v| factors = factors(c.factors, v)?, print_factors(&c.factors)),
    key!("broadcast_p", factors.broadcast_probability, number),
    key!("battery", |c, v| battery_capacity_j = Some(number(v)?),
        c.battery_capacity_j.map(|b| b.to_string())),
    key!("obs", |c, v| obs = one(v)?.parse().map_err(|_| format!("expects true/false, got '{v}'"))?,
        c.obs.then(|| "true".into())),
    // Scripted faults have no spec syntax and are deliberately not
    // serialized: scenario files capture sweepable experiments, not
    // hand-placed test fixtures.
    key!("faults", |c, v| faults = match one(v)? {
            "none" => FaultsConfig::default(),
            spec => FaultsConfig::parse_spec(spec)?,
        },
        (c.faults != FaultsConfig::default()).then(|| c.faults.spec_string()).flatten()),
    key!("cache_capacity", |c, v| dsr.cache.capacity = integer(v)?,
        changed(c.dsr.cache.capacity, CacheConfig::default().capacity, |n| n.to_string())),
    key!("cache_timeout", |c, v| dsr.cache.timeout = Some(span(v, SECOND)?),
        c.dsr.cache.timeout.map(|t| print_span(t, SECOND))),
    key!("cache_strategy", |c, v| dsr.cache.strategy = strategy(v)?,
        changed(c.dsr.cache.strategy, CacheStrategy::default(), |s| {
            STRATEGIES.iter().find(|(_, k)| *k == s).map_or("", |(name, _)| name).into()
        })),
    key!("odpm_rrep_timeout_ms", |c, v| odpm.rrep_timeout = span(v, MILLI)?,
        changed(c.odpm.rrep_timeout, OdpmConfig::default().rrep_timeout, |t| print_span(t, MILLI))),
    key!("odpm_data_timeout_ms", |c, v| odpm.data_timeout = span(v, MILLI)?,
        changed(c.odpm.data_timeout, OdpmConfig::default().data_timeout, |t| print_span(t, MILLI))),
];

/// `print(value)`, or `None` when the value is `default`.
fn changed<T: PartialEq>(value: T, default: T, print: impl FnOnce(T) -> String) -> Option<String> {
    (value != default).then(|| print(value))
}

/// A `cache_strategy` name.
fn strategy(v: &str) -> Result<CacheStrategy, String> {
    let name = one(v)?;
    STRATEGIES.iter().find(|(n, _)| *n == name).map(|&(_, s)| s).ok_or_else(|| {
        format!("expects path or link, got '{name}'")
    })
}

/// The value as exactly one token.
fn one(v: &str) -> Result<&str, String> {
    let mut tokens = v.split_whitespace();
    match (tokens.next(), tokens.next()) {
        (Some(token), None) => Ok(token),
        _ => Err(format!("expects one value, got '{v}'")),
    }
}

/// A finite, non-negative number.
fn number(v: &str) -> Result<f64, String> {
    let x: f64 = one(v)?.parse().map_err(|_| format!("expects a number, got '{v}'"))?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("expects a finite non-negative number, got '{v}'"))
    }
}

/// A non-negative integer that fits its field's type.
fn integer<T: FromStr<Err = ParseIntError>>(v: &str) -> Result<T, String> {
    let token = one(v)?;
    token.parse().map_err(|e: ParseIntError| match e.kind() {
        IntErrorKind::PosOverflow => format!("'{token}' is too large"),
        _ => format!("expects a non-negative integer, got '{token}'"),
    })
}

/// A duration in `unit` nanoseconds (seconds or milliseconds): exact
/// for a plain decimal, rounded to the nanosecond for other float
/// syntax (`1e3`). Past the clock's `u64` nanoseconds it is an error.
fn span(v: &str, unit: u64) -> Result<SimDuration, String> {
    let x = number(v)?;
    let token = one(v)?;
    let places = unit.ilog10() as usize;
    let (int, frac) = token.split_once('.').unwrap_or((token, ""));
    let nanos = match format!("{int}{frac:0<places$}").parse::<u64>() {
        Ok(nanos) if frac.len() <= places => Some(nanos),
        // `u64::MAX as f64` is 2^64, the first value past the clock.
        _ => Some(x * unit as f64).filter(|n| *n < u64::MAX as f64).map(|n| n.round() as u64),
    };
    nanos
        .map(SimDuration::from_nanos)
        .ok_or_else(|| format!("'{token}' is too long for the nanosecond clock"))
}

/// A duration in `unit` nanoseconds as the shortest exact decimal.
fn print_span(d: SimDuration, unit: u64) -> String {
    let (nanos, places) = (d.as_nanos(), unit.ilog10() as usize);
    let text = format!("{}.{:0places$}", nanos / unit, nanos % unit);
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// A field size, `W H` or `WxH`, both positive.
fn area(v: &str) -> Result<Area, String> {
    let (w, h) = v
        .split_once(char::is_whitespace)
        .or_else(|| v.split_once(['x', 'X']))
        .ok_or_else(|| format!("expects W H or WxH, got '{v}'"))?;
    let (w, h) = (number(w)?, number(h)?);
    if w > 0.0 && h > 0.0 {
        Ok(Area::new(w, h))
    } else {
        Err(format!("expects a positive width and height, got '{v}'"))
    }
}

/// `f` with the four factor switches set from a `factors` list.
fn factors(mut f: OverhearFactors, v: &str) -> Result<OverhearFactors, String> {
    let mut on = [false; 4];
    for part in one(v)?.split(',').filter(|p| *p != "none") {
        let i = FACTORS.iter().position(|name| *name == part).ok_or_else(|| {
            format!("unknown factor '{part}' (expected {} or none)", FACTORS.join(","))
        })?;
        on[i] = true;
    }
    [f.neighbors, f.sender_id, f.mobility, f.battery] = on;
    Ok(f)
}

/// The `factors` list, or `None` at the default switches.
fn print_factors(f: &OverhearFactors) -> Option<String> {
    let (on, d) = ([f.neighbors, f.sender_id, f.mobility, f.battery], OverhearFactors::default());
    let names: Vec<&str> = FACTORS.into_iter().zip(on).filter_map(|(n, on)| on.then_some(n)).collect();
    let list = if names.is_empty() { "none".to_string() } else { names.join(",") };
    (on != [d.neighbors, d.sender_id, d.mobility, d.battery]).then_some(list)
}

/// Sets scenario key `key` of `cfg` from its value text. The error
/// names neither the key nor a location; callers prefix their own
/// (`line 3: nodes: …`, `--nodes: …`).
///
/// # Errors
///
/// Returns a message for an unknown key or a value its setter rejects.
pub fn set_key(cfg: &mut SimConfig, key: &str, value: &str) -> Result<(), String> {
    let k = KEYS.iter().find(|k| k.name == key).ok_or("not a scenario key")?;
    (k.set)(cfg, value.trim())
}

/// Serializes a configuration to scenario text.
pub fn write_scenario(cfg: &SimConfig) -> String {
    let mut out = String::from("# RandomCast scenario\n");
    for key in &KEYS {
        if let Some(value) = (key.print)(cfg) {
            out.push_str(&format!("{} {value}\n", key.name));
        }
    }
    out
}

/// Parses scenario text into a configuration (starting from the paper
/// defaults).
///
/// # Errors
///
/// Returns a message naming the offending line for unknown keys,
/// malformed values, or (naming the last line) a configuration that
/// fails validation.
pub fn parse_scenario(text: &str) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 1, 0.4, 600.0);
    let mut lines = 0;
    for (lineno, raw) in text.lines().enumerate() {
        lines = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        set_key(&mut cfg, key, value).map_err(|e| format!("line {lines}: {key}: {e}"))?;
    }
    cfg.validate().map_err(|e| format!("line {lines} (end of scenario): {e}"))?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingKind;

    #[test]
    fn round_trip_preserves_config() {
        let mut cfg = SimConfig::paper(Scheme::Odpm, 17, 1.6, 300.0);
        cfg.routing = RoutingKind::Aodv;
        cfg.nodes = 64;
        cfg.battery_capacity_j = Some(800.0);
        cfg.factors.broadcast_probability = 0.8;
        let text = write_scenario(&cfg);
        let parsed = parse_scenario(&text).expect("round trip");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn faults_spec_round_trips_through_scenario_text() {
        let mut cfg = SimConfig::paper(Scheme::Rcast, 3, 0.4, 600.0);
        cfg.faults.crash_prob = 0.3;
        cfg.faults.downtime_s = 45.0;
        cfg.faults.link_blackouts = 2;
        cfg.faults.corruption_bursts = 1;
        let text = write_scenario(&cfg);
        assert!(text.contains("faults crash=0.3"), "{text}");
        let parsed = parse_scenario(&text).expect("round trip");
        assert_eq!(parsed, cfg);
        // A clean config emits no faults line at all.
        let clean = write_scenario(&SimConfig::paper(Scheme::Rcast, 3, 0.4, 600.0));
        assert!(!clean.contains("faults"), "{clean}");
    }

    #[test]
    fn obs_flag_round_trips_and_defaults_off() {
        let mut cfg = SimConfig::paper(Scheme::Rcast, 3, 0.4, 600.0);
        cfg.obs = true;
        let text = write_scenario(&cfg);
        assert!(text.contains("obs true"), "{text}");
        let parsed = parse_scenario(&text).expect("round trip");
        assert_eq!(parsed, cfg);
        // A default config emits no obs line and parses back off.
        let clean = write_scenario(&SimConfig::paper(Scheme::Rcast, 3, 0.4, 600.0));
        assert!(!clean.contains("obs"), "{clean}");
        assert!(!parse_scenario(&clean).unwrap().obs);
        assert!(parse_scenario("obs maybe\n").is_err());
    }

    #[test]
    fn defaults_fill_unlisted_keys() {
        let cfg = parse_scenario("scheme odpm\nrate 2.0\n").unwrap();
        assert_eq!(cfg.scheme, Scheme::Odpm);
        assert_eq!(cfg.traffic.rate_pps, 2.0);
        assert_eq!(cfg.nodes, 100, "paper default survives");
        assert_eq!(cfg.waypoint.pause_secs, 600.0);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let cfg = parse_scenario("# a comment\n\n  \nseed 9\n").unwrap();
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn unknown_keys_are_errors_with_line_numbers() {
        let err = parse_scenario("nodes 50\nspeed_of_light 3e8\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("speed_of_light"), "{err}");
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(parse_scenario("nodes many\n").is_err());
        assert!(parse_scenario("area 100\n").is_err());
        assert!(parse_scenario("scheme span\n").is_err());
        assert!(parse_scenario("nodes 1 2\n").is_err());
    }

    #[test]
    fn validation_applies() {
        // One node is structurally valid text but an invalid scenario.
        assert!(parse_scenario("nodes 1\n").is_err());
    }

    #[test]
    fn factors_set_only_the_four_switches_and_round_trip() {
        let mut cfg = SimConfig::paper(Scheme::Rcast, 1, 0.4, 600.0);
        cfg.factors.broadcast_probability = 0.5;
        set_key(&mut cfg, "factors", "sender-id,mobility").unwrap();
        let f = cfg.factors;
        assert_eq!([f.neighbors, f.sender_id, f.mobility, f.battery], [false, true, true, false]);
        assert_eq!(cfg.factors.broadcast_probability, 0.5, "broadcast_p survives");
        let text = write_scenario(&cfg);
        assert!(text.contains("factors sender-id,mobility\n"), "{text}");
        assert_eq!(parse_scenario(&text).unwrap(), cfg);
        set_key(&mut cfg, "factors", "none").unwrap();
        assert!(write_scenario(&cfg).contains("factors none\n"));
        assert!(set_key(&mut cfg, "factors", "psychic").is_err());
    }

    #[test]
    fn area_takes_both_spellings_and_prints_w_h() {
        let a = parse_scenario("area 800x200\n").unwrap();
        let b = parse_scenario("area 800 200\n").unwrap();
        assert_eq!(a, b);
        assert!(write_scenario(&a).contains("area 800 200\n"));
        for bad in ["area 0x300", "area 1500 inf", "area 1500 300 7", "area x", "area"] {
            let err = parse_scenario(bad).expect_err(bad);
            assert!(err.contains("line 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn durations_are_exact_to_the_nanosecond() {
        for nanos in [1, 250_000_001, 1_125 * SECOND, u64::MAX] {
            let d = SimDuration::from_nanos(nanos);
            for unit in [SECOND, MILLI] {
                assert_eq!(span(&print_span(d, unit), unit), Ok(d), "{nanos} / {unit}");
            }
        }
        assert_eq!(print_span(SimDuration::from_millis(250), MILLI), "250");
        assert_eq!(span("1e3", SECOND), Ok(SimDuration::from_secs(1000)));
        assert!(span("18446744073.709551616", SECOND).is_err(), "one past u64");
        assert!(span("1e30", SECOND).is_err());
    }

    #[test]
    fn cache_and_odpm_keys_round_trip_and_print_nothing_at_default() {
        let clean = write_scenario(&SimConfig::paper(Scheme::Odpm, 1, 0.4, 600.0));
        assert!(!clean.contains("cache_") && !clean.contains("odpm_"), "{clean}");
        let cfg = parse_scenario(
            "cache_capacity 128\ncache_timeout 30\ncache_strategy link\n\
             odpm_rrep_timeout_ms 1000\nodpm_data_timeout_ms 500.5\n",
        )
        .unwrap();
        assert_eq!(cfg.dsr.cache.capacity, 128);
        assert_eq!(cfg.dsr.cache.timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(cfg.dsr.cache.strategy, CacheStrategy::Link);
        assert_eq!(cfg.odpm.rrep_timeout, SimDuration::from_secs(1));
        assert_eq!(cfg.odpm.data_timeout, SimDuration::from_micros(500_500));
        let text = write_scenario(&cfg);
        assert!(text.contains("cache_strategy link\nodpm_rrep_timeout_ms 1000\n"), "{text}");
        assert_eq!(parse_scenario(&text).unwrap(), cfg);
        assert!(parse_scenario("cache_strategy tree\n").is_err());
        assert!(parse_scenario("cache_capacity 0\n").is_err(), "validation runs");
        let healed = parse_scenario("faults crash=0.3\nfaults none\n").unwrap();
        assert_eq!(healed.faults, FaultsConfig::default());
    }

    #[test]
    fn seeds_past_f64_precision_survive() {
        let cfg = parse_scenario("seed 9007199254740993\n").unwrap();
        assert_eq!(cfg.seed, 9_007_199_254_740_993);
        assert!(parse_scenario("seed 18446744073709551616\n").is_err(), "past u64");
    }
}
