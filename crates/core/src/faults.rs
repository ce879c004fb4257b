//! Deterministic, seed-driven fault injection.
//!
//! The paper evaluates clean networks only, yet Rcast's argument — that
//! randomized overhearing keeps DSR caches warm enough to survive
//! churn — is really a claim about *faulty* networks. This module adds
//! the missing half of the testbed: a [`FaultPlan`] that schedules
//!
//! * **node crashes and rejoins** — a crashed node's radio is off
//!   ([`rcast_radio::PowerState::Off`]), its MAC queue is purged, and
//!   its routing state is wiped; neighbors discover the loss through
//!   missing ATIM-ACKs, which feeds DSR a link error and drives the
//!   RERR → unconditional-overhearing policy of Section 3.3;
//! * **link blackouts** — a node pair stops hearing each other for a
//!   window (fading, obstruction) while both stay alive;
//! * **frame-corruption bursts** — windows in which the MAC channel
//!   drops data frames with some probability.
//!
//! A node whose finite battery
//! ([`SimConfig::battery_capacity_j`]) drains goes down through the
//! same crash path, permanently; that is battery accounting, not a
//! fault knob, so the plan holds no state for it.
//!
//! Faults are generated from their own [`StreamRng`] stream
//! (`root.child("faults")`), so a fault-injected run remains a pure
//! function of `(SimConfig, seed)` and stays byte-identical across
//! worker widths. Generation uses *nested coupling*: the random
//! draws for each potential fault happen unconditionally and the
//! probability only gates whether the fault activates, so raising
//! [`FaultsConfig::crash_prob`] yields a superset of identically-timed
//! crashes — the property the chaos harness leans on to check that
//! delivery degrades monotonically in the fault rate.
//!
//! Fault times are quantized to beacon-interval boundaries: a node is
//! either up or down for a whole interval, which keeps the MAC's
//! interval-granular bookkeeping (and the trace invariant "every hop of
//! a delivered packet ran between alive nodes") exact.

use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimDuration, SimTime};

use crate::config::SimConfig;

/// Fault-injection knobs; the default injects nothing.
///
/// Random faults (crashes, blackouts, bursts) are drawn from the run's
/// `"faults"` RNG stream; [`FaultsConfig::script`] adds exact,
/// hand-placed faults on top for scripted tests.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsConfig {
    /// Per-node probability of one scheduled crash during the run.
    pub crash_prob: f64,
    /// How long a crashed node stays down, seconds; `0` means it never
    /// rejoins.
    pub downtime_s: f64,
    /// Number of random link blackouts (node pairs that stop hearing
    /// each other for a window).
    pub link_blackouts: u32,
    /// Blackout window length, seconds.
    pub blackout_s: f64,
    /// Number of random frame-corruption bursts.
    pub corruption_bursts: u32,
    /// Corruption-burst window length, seconds.
    pub burst_s: f64,
    /// Data-frame loss probability while a burst is active.
    pub corruption_prob: f64,
    /// Exact scripted faults, applied on top of the random ones.
    pub script: Vec<FaultEvent>,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            crash_prob: 0.0,
            downtime_s: 30.0,
            link_blackouts: 0,
            blackout_s: 20.0,
            corruption_bursts: 0,
            burst_s: 10.0,
            corruption_prob: 0.5,
            script: Vec::new(),
        }
    }
}

impl FaultsConfig {
    /// `true` when this configuration injects no fault of any kind.
    pub fn is_none(&self) -> bool {
        self.crash_prob == 0.0
            && self.link_blackouts == 0
            && self.corruption_bursts == 0
            && self.script.is_empty()
    }

    /// Validates the fault configuration against a node count.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, nodes: u32) -> Result<(), String> {
        let prob = |name: &str, p: f64| {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
            Ok(())
        };
        let span = |name: &str, s: f64| {
            if !(s.is_finite() && s >= 0.0) {
                return Err(format!("{name} must be a non-negative duration, got {s}"));
            }
            Ok(())
        };
        prob("crash", self.crash_prob)?;
        prob("corrupt", self.corruption_prob)?;
        span("downtime", self.downtime_s)?;
        span("blackout", self.blackout_s)?;
        span("burst", self.burst_s)?;
        for ev in &self.script {
            match *ev {
                FaultEvent::Crash { node, at_s, down_s } => {
                    if node >= nodes {
                        return Err(format!("scripted crash of unknown node {node}"));
                    }
                    span("scripted crash time", at_s)?;
                    span("scripted crash downtime", down_s)?;
                }
                FaultEvent::LinkBlackout { a, b, at_s, for_s } => {
                    if a >= nodes || b >= nodes || a == b {
                        return Err(format!("scripted blackout of invalid pair ({a}, {b})"));
                    }
                    span("scripted blackout time", at_s)?;
                    span("scripted blackout length", for_s)?;
                }
                FaultEvent::CorruptionBurst { at_s, for_s, prob: p } => {
                    span("scripted burst time", at_s)?;
                    span("scripted burst length", for_s)?;
                    prob("scripted burst", p)?;
                }
            }
        }
        Ok(())
    }

    /// Parses the compact `--faults` spec string, e.g.
    /// `crash=0.3,downtime=15,blackouts=4,blackout=10,bursts=2,burst=10,corrupt=0.4`.
    ///
    /// Every key is optional; omitted keys keep their defaults.
    /// Scripted events are not expressible in a spec. A `battery=` key
    /// is an error: a finite battery always depletes, so it is not a
    /// fault.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or value.
    pub fn parse_spec(spec: &str) -> Result<FaultsConfig, String> {
        let mut cfg = FaultsConfig::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("faults spec entry {part:?} is not key=value"))?;
            let f64_val = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("faults spec: invalid number {value:?} for {key}"))
            };
            let u32_val = || -> Result<u32, String> {
                value
                    .parse::<u32>()
                    .map_err(|_| format!("faults spec: invalid count {value:?} for {key}"))
            };
            match key {
                "crash" => cfg.crash_prob = f64_val()?,
                "downtime" => cfg.downtime_s = f64_val()?,
                "blackouts" => cfg.link_blackouts = u32_val()?,
                "blackout" => cfg.blackout_s = f64_val()?,
                "bursts" => cfg.corruption_bursts = u32_val()?,
                "burst" => cfg.burst_s = f64_val()?,
                "corrupt" => cfg.corruption_prob = f64_val()?,
                "battery" => {
                    return Err(format!(
                        "faults spec: battery={value} is not a fault; \
                         a finite `battery` capacity always depletes"
                    ))
                }
                other => return Err(format!("faults spec: unknown key {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// The canonical spec string: `parse_spec(&spec_string())` restores
    /// every field except [`FaultsConfig::script`], which has no spec
    /// syntax. Returns `None` when the script is non-empty.
    pub fn spec_string(&self) -> Option<String> {
        if !self.script.is_empty() {
            return None;
        }
        Some(format!(
            "crash={},downtime={},blackouts={},blackout={},bursts={},burst={},corrupt={}",
            self.crash_prob,
            self.downtime_s,
            self.link_blackouts,
            self.blackout_s,
            self.corruption_bursts,
            self.burst_s,
            self.corruption_prob,
        ))
    }
}

/// One scripted fault, for exact per-test scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Node `node` crashes at `at_s` seconds and stays down `down_s`
    /// seconds (`0` = forever).
    Crash {
        /// Index of the crashing node.
        node: u32,
        /// Crash time, seconds from the start of the run.
        at_s: f64,
        /// Downtime in seconds; `0` means the node never rejoins.
        down_s: f64,
    },
    /// Nodes `a` and `b` stop hearing each other for a window.
    LinkBlackout {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// Blackout start, seconds from the start of the run.
        at_s: f64,
        /// Blackout length, seconds.
        for_s: f64,
    },
    /// The channel corrupts data frames with probability `prob` for a
    /// window.
    CorruptionBurst {
        /// Burst start, seconds from the start of the run.
        at_s: f64,
        /// Burst length, seconds.
        for_s: f64,
        /// Data-frame loss probability during the burst.
        prob: f64,
    },
}

/// Per-run fault bookkeeping, carried in the
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Scheduled or scripted crashes that activated.
    pub crashes: u64,
    /// Crashed nodes that came back up.
    pub rejoins: u64,
    /// Nodes that died because their battery drained.
    pub battery_deaths: u64,
    /// Link blackouts that activated.
    pub link_blackouts: u64,
    /// Corruption bursts that activated.
    pub corruption_bursts: u64,
    /// MAC link-failure events caused by an injected fault (each one
    /// reaches the routing layer and can trigger a RERR).
    pub rerrs_triggered: u64,
    /// Data packets destroyed by faults: purged from a crashed node's
    /// MAC queue or route buffer, or originated by a dead source.
    pub packets_lost_to_faults: u64,
}

#[derive(Debug, Clone)]
struct Blackout {
    a: NodeId,
    b: NodeId,
    from: SimTime,
    until: SimTime,
    started: bool,
}

#[derive(Debug, Clone)]
struct Burst {
    from: SimTime,
    until: SimTime,
    prob: f64,
    started: bool,
}

/// The materialized fault schedule for one run.
///
/// Built deterministically from the config by [`FaultPlan::build`]; the
/// simulation consults it at every beacon-interval boundary. Tests can
/// rebuild the identical plan from the same config to cross-check what
/// the simulation did (e.g. which nodes were down when a hop ran).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Per-node down windows, `[from, until)`, quantized to intervals.
    down: Vec<Vec<(SimTime, SimTime)>>,
    blackouts: Vec<Blackout>,
    bursts: Vec<Burst>,
}

impl FaultPlan {
    /// Materializes the schedule for `cfg`. Deterministic: the draws
    /// come from `StreamRng::from_seed(cfg.seed).child("faults")`, the
    /// same stream the simulation uses.
    pub fn build(cfg: &SimConfig) -> FaultPlan {
        FaultPlan::build_seeded(cfg, cfg.seed)
    }

    /// [`build`](Self::build) with the seed supplied separately, for
    /// per-seed runs that share one config (`cfg.seed` is ignored).
    pub fn build_seeded(cfg: &SimConfig, seed: u64) -> FaultPlan {
        let fc = &cfg.faults;
        let bi = cfg.mac.beacon_interval;
        let dur_s = cfg.duration.as_secs_f64();
        let rng = StreamRng::from_seed(seed).child("faults");

        let quantize = |at_s: f64| -> SimTime {
            let k = SimTime::from_secs_f64(at_s.min(dur_s)).elapsed_from_origin() / bi;
            SimTime::ZERO + bi * k
        };
        let window = |at_s: f64, len_s: f64| -> (SimTime, SimTime) {
            let from = quantize(at_s);
            if len_s <= 0.0 {
                return (from, SimTime::MAX);
            }
            let intervals = ((len_s / bi.as_secs_f64()).ceil() as u64).max(1);
            (from, from + bi * intervals)
        };

        let n = cfg.nodes as usize;
        let mut down: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n];
        let mut blackouts = Vec::new();
        let mut bursts = Vec::new();

        // Nested coupling: draw unconditionally, gate on the threshold,
        // so a higher crash_prob produces a superset of the same faults.
        for i in 0..cfg.nodes {
            let mut r = rng.child_indexed("crash", u64::from(i));
            let u = r.uniform();
            let at_s = r.range_f64(0.0, dur_s);
            if u < fc.crash_prob {
                down[i as usize].push(window(at_s, fc.downtime_s));
            }
        }
        for j in 0..fc.link_blackouts {
            let mut r = rng.child_indexed("blackout", u64::from(j));
            let a = r.below(u64::from(cfg.nodes)) as u32;
            let mut b = r.below(u64::from(cfg.nodes)) as u32;
            while b == a {
                b = r.below(u64::from(cfg.nodes)) as u32;
            }
            let at_s = r.range_f64(0.0, dur_s);
            let (from, until) = window(at_s, fc.blackout_s);
            blackouts.push(Blackout {
                a: NodeId::new(a),
                b: NodeId::new(b),
                from,
                until,
                started: false,
            });
        }
        for j in 0..fc.corruption_bursts {
            let mut r = rng.child_indexed("burst", u64::from(j));
            let at_s = r.range_f64(0.0, dur_s);
            let (from, until) = window(at_s, fc.burst_s);
            bursts.push(Burst {
                from,
                until,
                prob: fc.corruption_prob,
                started: false,
            });
        }

        for ev in &fc.script {
            match *ev {
                FaultEvent::Crash { node, at_s, down_s } => {
                    down[node as usize].push(window(at_s, down_s));
                }
                FaultEvent::LinkBlackout { a, b, at_s, for_s } => {
                    let (from, until) = window(at_s, for_s);
                    blackouts.push(Blackout {
                        a: NodeId::new(a),
                        b: NodeId::new(b),
                        from,
                        until,
                        started: false,
                    });
                }
                FaultEvent::CorruptionBurst { at_s, for_s, prob } => {
                    let (from, until) = window(at_s, for_s);
                    bursts.push(Burst {
                        from,
                        until,
                        prob,
                        started: false,
                    });
                }
            }
        }
        for windows in &mut down {
            windows.sort_by_key(|w| w.0);
        }

        FaultPlan {
            down,
            blackouts,
            bursts,
        }
    }

    /// `true` when the plan holds no scheduled fault, i.e. consulting it
    /// can never change the run.
    pub fn is_empty(&self) -> bool {
        self.down.iter().all(Vec::is_empty) && self.blackouts.is_empty() && self.bursts.is_empty()
    }

    /// Whether scripted faults never activate within `duration` — the
    /// plan is *effectively* empty for a run of that length.
    pub fn is_vacuous_for(&self, duration: SimDuration) -> bool {
        let end = SimTime::ZERO + duration;
        self.down
            .iter()
            .all(|ws| ws.iter().all(|&(from, _)| from >= end))
            && self.blackouts.iter().all(|b| b.from >= end)
            && self.bursts.iter().all(|b| b.from >= end)
    }

    /// Does a scheduled crash window (random or scripted) cover `t` for
    /// `node`? Battery deaths are not in the plan: the simulation's
    /// battery lanes record them.
    pub fn is_down(&self, node: NodeId, t: SimTime) -> bool {
        self.down[node.index()]
            .iter()
            .any(|&(from, until)| t >= from && t < until)
    }

    /// Is the link between `a` and `b` blacked out at time `t`?
    pub fn link_cut(&self, a: NodeId, b: NodeId, t: SimTime) -> bool {
        self.blackouts.iter().any(|bl| {
            t >= bl.from && t < bl.until && ((bl.a, bl.b) == (a, b) || (bl.a, bl.b) == (b, a))
        })
    }

    /// Blackouts active at `t`, as endpoint pairs.
    pub fn cut_links_at(&self, t: SimTime) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.blackouts
            .iter()
            .filter(move |bl| t >= bl.from && t < bl.until)
            .map(|bl| (bl.a, bl.b))
    }

    /// The effective frame-corruption probability at `t` (the strongest
    /// active burst, or `0`).
    pub fn corruption_prob(&self, t: SimTime) -> f64 {
        self.bursts
            .iter()
            .filter(|b| t >= b.from && t < b.until)
            .fold(0.0, |acc, b| acc.max(b.prob))
    }

    /// Marks blackouts whose window has begun as started; returns how
    /// many newly activated (for the report counters).
    pub fn activate_blackouts(&mut self, t: SimTime) -> u64 {
        let mut n = 0;
        for bl in &mut self.blackouts {
            if !bl.started && t >= bl.from && t < bl.until {
                bl.started = true;
                n += 1;
            }
        }
        n
    }

    /// Marks bursts whose window has begun as started; returns how many
    /// newly activated.
    pub fn activate_bursts(&mut self, t: SimTime) -> u64 {
        let mut n = 0;
        for b in &mut self.bursts {
            if !b.started && t >= b.from && t < b.until {
                b.started = true;
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;

    fn cfg_with(fc: FaultsConfig) -> SimConfig {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 7);
        cfg.faults = fc;
        cfg
    }

    #[test]
    fn default_config_is_none_and_plan_is_empty() {
        let fc = FaultsConfig::default();
        assert!(fc.is_none());
        let plan = FaultPlan::build(&cfg_with(fc));
        assert!(plan.is_empty());
    }

    #[test]
    fn spec_round_trips() {
        let fc = FaultsConfig {
            crash_prob: 0.25,
            downtime_s: 15.0,
            link_blackouts: 3,
            corruption_bursts: 2,
            corruption_prob: 0.4,
            ..FaultsConfig::default()
        };
        let spec = fc.spec_string().expect("no script");
        assert_eq!(FaultsConfig::parse_spec(&spec), Ok(fc));
    }

    #[test]
    fn spec_rejects_junk() {
        assert!(FaultsConfig::parse_spec("crash").is_err());
        assert!(FaultsConfig::parse_spec("crash=x").is_err());
        assert!(FaultsConfig::parse_spec("wat=1").is_err());
        for retired in ["battery=true", "battery=false", "crash=0.1,battery=maybe"] {
            let err = FaultsConfig::parse_spec(retired).unwrap_err();
            assert!(err.contains("battery") && err.contains("depletes"), "{err}");
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        let nodes = 10;
        let fc = FaultsConfig { crash_prob: 1.5, ..FaultsConfig::default() };
        assert!(fc.validate(nodes).is_err());

        let fc = FaultsConfig { burst_s: f64::NAN, ..FaultsConfig::default() };
        assert!(fc.validate(nodes).is_err());

        let mut fc = FaultsConfig::default();
        fc.script.push(FaultEvent::Crash {
            node: 10,
            at_s: 1.0,
            down_s: 1.0,
        });
        assert!(fc.validate(nodes).is_err());

        let mut fc = FaultsConfig::default();
        fc.script.push(FaultEvent::LinkBlackout {
            a: 3,
            b: 3,
            at_s: 1.0,
            for_s: 1.0,
        });
        assert!(fc.validate(nodes).is_err());
    }

    #[test]
    fn higher_crash_prob_is_a_superset_with_identical_times() {
        let low = FaultsConfig { crash_prob: 0.2, ..FaultsConfig::default() };
        let mut high = low.clone();
        high.crash_prob = 0.6;
        let lo = FaultPlan::build(&cfg_with(low));
        let hi = FaultPlan::build(&cfg_with(high));
        let count = |p: &FaultPlan| p.down.iter().filter(|w| !w.is_empty()).count();
        assert!(count(&lo) < count(&hi), "{} vs {}", count(&lo), count(&hi));
        for (l, h) in lo.down.iter().zip(&hi.down) {
            if !l.is_empty() {
                assert_eq!(l, h, "a low-rate crash moved at the higher rate");
            }
        }
    }

    #[test]
    fn scripted_crash_windows_quantize_to_intervals() {
        let mut fc = FaultsConfig::default();
        fc.script.push(FaultEvent::Crash {
            node: 4,
            at_s: 10.1,
            down_s: 0.6,
        });
        let cfg = cfg_with(fc);
        let bi = cfg.mac.beacon_interval;
        let plan = FaultPlan::build(&cfg);
        let id = NodeId::new(4);
        // 10.1 s quantizes down to interval 40 (10.0 s); 0.6 s of
        // downtime rounds up to 3 × 250 ms intervals.
        assert!(!plan.is_down(id, SimTime::from_secs_f64(9.9)));
        assert!(plan.is_down(id, SimTime::from_secs(10)));
        assert!(plan.is_down(id, SimTime::from_secs_f64(10.5)));
        assert!(!plan.is_down(id, SimTime::from_secs_f64(10.75)));
        assert_eq!(SimTime::from_secs(10).elapsed_from_origin() / bi, 40);
    }

    #[test]
    fn permanent_crash_never_rejoins() {
        let mut fc = FaultsConfig::default();
        fc.script.push(FaultEvent::Crash {
            node: 0,
            at_s: 5.0,
            down_s: 0.0,
        });
        let plan = FaultPlan::build(&cfg_with(fc));
        assert!(plan.is_down(NodeId::new(0), SimTime::from_secs(100_000)));
    }

    #[test]
    fn link_cut_is_symmetric_and_windowed() {
        let mut fc = FaultsConfig::default();
        fc.script.push(FaultEvent::LinkBlackout {
            a: 1,
            b: 2,
            at_s: 20.0,
            for_s: 10.0,
        });
        let mut plan = FaultPlan::build(&cfg_with(fc));
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let t = SimTime::from_secs(25);
        assert!(plan.link_cut(a, b, t));
        assert!(plan.link_cut(b, a, t));
        assert!(!plan.link_cut(a, b, SimTime::from_secs(31)));
        assert!(!plan.link_cut(a, NodeId::new(3), t));
        assert_eq!(plan.activate_blackouts(t), 1);
        assert_eq!(plan.activate_blackouts(t), 0, "activation counted once");
    }

    #[test]
    fn corruption_prob_takes_strongest_active_burst() {
        let mut fc = FaultsConfig::default();
        fc.script.push(FaultEvent::CorruptionBurst {
            at_s: 10.0,
            for_s: 20.0,
            prob: 0.3,
        });
        fc.script.push(FaultEvent::CorruptionBurst {
            at_s: 15.0,
            for_s: 5.0,
            prob: 0.8,
        });
        let plan = FaultPlan::build(&cfg_with(fc));
        assert_eq!(plan.corruption_prob(SimTime::from_secs(12)), 0.3);
        assert_eq!(plan.corruption_prob(SimTime::from_secs(16)), 0.8);
        assert_eq!(plan.corruption_prob(SimTime::from_secs(40)), 0.0);
    }

    #[test]
    fn plan_is_reproducible_from_the_config() {
        let fc = FaultsConfig {
            crash_prob: 0.4,
            link_blackouts: 5,
            corruption_bursts: 2,
            ..FaultsConfig::default()
        };
        let cfg = cfg_with(fc);
        let a = FaultPlan::build(&cfg);
        let b = FaultPlan::build(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
