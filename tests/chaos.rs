//! The chaos harness: a fault matrix (crashes, link blackouts,
//! corruption bursts) and battery exhaustion crossed with every scheme,
//! checked against graceful-degradation invariants:
//!
//! * **no panic** — every faulted run completes and reports;
//! * **energy conservation** — each node's consumption stays within
//!   the physical bounds of the seconds it was actually alive
//!   (cross-checked against a [`FaultPlan`] rebuilt from the config);
//! * **monotone degradation** — raising the crash probability never
//!   improves the delivery ratio (the plan's nested-coupling draws make
//!   a higher rate a strict superset of identically-timed crashes);
//! * **determinism** — fault-injected runs are byte-identical at any
//!   worker width;
//! * **ledger integrity** — every delivered packet's hop chain in the
//!   event ledger is contiguous from source to destination and runs
//!   through alive nodes only;
//! * **clean-path equivalence** — a plan that schedules nothing inside
//!   the run leaves the report byte-identical to the no-faults path.

use randomcast::{
    obs::EventKind, radio::PowerState, run_seeds, run_seeds_parallel, run_sim, FaultEvent,
    FaultPlan, FaultsConfig, NodeId, Scheme, SimConfig, SimDuration, SimReport,
};

fn chaos_config(scheme: Scheme, seed: u64, faults: FaultsConfig) -> SimConfig {
    let mut cfg = SimConfig::paper(scheme, seed, 0.8, 100.0);
    cfg.nodes = 25;
    cfg.area = randomcast::mobility::Area::new(700.0, 300.0);
    cfg.duration = SimDuration::from_secs(40);
    cfg.traffic.flows = 6;
    cfg.faults = faults;
    cfg
}

fn crash_faults(crash_prob: f64) -> FaultsConfig {
    FaultsConfig {
        crash_prob,
        downtime_s: 10.0,
        ..FaultsConfig::default()
    }
}

fn blackout_faults() -> FaultsConfig {
    FaultsConfig {
        link_blackouts: 6,
        blackout_s: 10.0,
        ..FaultsConfig::default()
    }
}

fn corruption_faults() -> FaultsConfig {
    FaultsConfig {
        corruption_bursts: 3,
        burst_s: 10.0,
        corruption_prob: 0.6,
        ..FaultsConfig::default()
    }
}

fn combined_faults() -> FaultsConfig {
    FaultsConfig {
        crash_prob: 0.25,
        downtime_s: 10.0,
        link_blackouts: 4,
        blackout_s: 8.0,
        corruption_bursts: 2,
        burst_s: 8.0,
        corruption_prob: 0.4,
        ..FaultsConfig::default()
    }
}

/// Seconds each node spends alive, computed from a plan rebuilt from
/// the config — exact, because fault windows are interval-quantized.
fn alive_seconds(cfg: &SimConfig) -> Vec<f64> {
    let plan = FaultPlan::build(cfg);
    let bi = cfg.mac.beacon_interval;
    let bi_s = bi.as_secs_f64();
    (0..cfg.nodes)
        .map(|i| {
            let id = NodeId::new(i);
            (0..cfg.beacon_intervals())
                .filter(|&k| !plan.is_down(id, randomcast::SimTime::ZERO + bi * k))
                .count() as f64
                * bi_s
        })
        .collect()
}

/// The energy-conservation invariant: every node within the physical
/// bounds of its alive time (0 W while down, [sleep floor, always-on
/// ceiling] while up).
fn assert_energy_conserved(r: &SimReport, cfg: &SimConfig) {
    let alive = alive_seconds(cfg);
    for (i, (&j, &alive_s)) in r.energy.per_node_joules().iter().zip(&alive).enumerate() {
        let ceiling = 1.15 * alive_s + 1e-6;
        assert!(
            j <= ceiling,
            "{}: node {i} burned {j} J in {alive_s} alive seconds (ceiling {ceiling})",
            cfg.scheme
        );
        if cfg.scheme == Scheme::Dot11 {
            // Always-on while alive, off while down: the bound is exact.
            assert!(
                (j - 1.15 * alive_s).abs() < 1e-6,
                "{}: node {i} burned {j} J, expected {}",
                cfg.scheme,
                1.15 * alive_s
            );
        } else {
            // Even a silent PS node wakes for every ATIM window (20 %).
            let floor = (1.15 * 0.2 + 0.045 * 0.8) * alive_s - 1e-6;
            assert!(
                j >= floor,
                "{}: node {i} burned {j} J in {alive_s} alive seconds (floor {floor})",
                cfg.scheme
            );
        }
    }
}

fn sanity(r: &SimReport, label: &str) {
    assert!(r.delivery.originated() > 0, "{label}: no traffic");
    assert!(
        r.delivery.delivered() <= r.delivery.originated(),
        "{label}: delivered more than originated"
    );
    let pdr = r.delivery.delivery_ratio();
    assert!((0.0..=1.0).contains(&pdr), "{label}: PDR {pdr}");
    assert!(r.faults.rejoins <= r.faults.crashes, "{label}: phantom rejoins");
}

#[test]
fn fault_matrix_completes_with_energy_conserved_across_all_schemes() {
    let scenarios: [(&str, FaultsConfig); 4] = [
        ("crashes", crash_faults(0.4)),
        ("blackouts", blackout_faults()),
        ("corruption", corruption_faults()),
        ("combined", combined_faults()),
    ];
    for scheme in Scheme::ALL {
        for (name, faults) in &scenarios {
            let cfg = chaos_config(scheme, 11, faults.clone());
            let r = run_sim(cfg.clone()).expect("valid chaos config");
            let label = format!("{scheme}/{name}");
            sanity(&r, &label);
            assert_energy_conserved(&r, &cfg);
            match *name {
                "crashes" => assert!(r.faults.crashes > 0, "{label}: no crash activated"),
                "blackouts" => {
                    assert!(r.faults.link_blackouts > 0, "{label}: no blackout activated");
                }
                "corruption" => {
                    assert!(r.faults.corruption_bursts > 0, "{label}: no burst activated");
                }
                _ => {
                    assert!(
                        r.faults.crashes + r.faults.link_blackouts + r.faults.corruption_bursts
                            > 0,
                        "{label}: nothing activated"
                    );
                }
            }
        }
    }
}

#[test]
fn delivery_degrades_monotonically_in_crash_rate() {
    // The plan's nested coupling makes crash sets supersets as the rate
    // rises, with identical times — so, per seed, delivery can only get
    // worse. Averaging three seeds irons out the residual routing noise
    // a lucky crash can cause.
    let seeds = [11u64, 29, 47];
    for scheme in Scheme::ALL {
        let mut prev: Option<f64> = None;
        for crash_prob in [0.0, 0.3, 0.6] {
            let mut pdr = 0.0;
            for &seed in &seeds {
                let cfg = chaos_config(scheme, seed, crash_faults(crash_prob));
                let r = run_sim(cfg).expect("valid chaos config");
                pdr += r.delivery.delivery_ratio() / seeds.len() as f64;
            }
            if let Some(prev) = prev {
                assert!(
                    pdr <= prev + 1e-9,
                    "{scheme}: PDR rose from {prev} to {pdr} at crash={crash_prob}"
                );
            }
            prev = Some(pdr);
        }
    }
}

#[test]
fn fault_injected_runs_are_identical_at_any_thread_width() {
    for scheme in [Scheme::Rcast, Scheme::Odpm] {
        let cfg = chaos_config(scheme, 5, combined_faults());
        let serial = run_seeds(&cfg, [5, 6]).expect("valid");
        for threads in [1, 2, 8] {
            let parallel = run_seeds_parallel(&cfg, [5, 6], threads).expect("valid");
            for (s, p) in serial.iter().zip(&parallel) {
                // Debug formatting round-trips every f64 exactly, so
                // equal strings means bit-identical reports.
                assert_eq!(
                    format!("{s:?}"),
                    format!("{p:?}"),
                    "{scheme} diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn delivered_packets_hop_through_alive_nodes_in_contiguous_chains() {
    for scheme in [Scheme::Rcast, Scheme::Dot11] {
        let mut cfg = chaos_config(scheme, 11, crash_faults(0.5));
        cfg.obs = true;
        let plan = FaultPlan::build(&cfg);
        let r = run_sim(cfg).expect("valid chaos config");
        assert!(r.faults.crashes > 0, "{scheme}: want an actually-faulty run");
        let obs = r.obs.as_ref().expect("ledger enabled");

        let delivered: Vec<_> = obs
            .packet_histories()
            .into_iter()
            .filter(|(_, h)| {
                h.iter()
                    .any(|e| matches!(e.kind, EventKind::PacketDelivered { .. }))
            })
            .collect();
        assert!(!delivered.is_empty(), "{scheme}: nothing delivered");
        for (packet, history) in delivered {
            let EventKind::Originated { dst, .. } = history[0].kind else {
                panic!("{scheme}: {packet:?} does not start with Originated");
            };
            let mut at = history[0].node;
            let mut done = false;
            for rec in &history[1..] {
                assert!(!done, "{scheme}: {packet:?} has events after delivery");
                match rec.kind {
                    EventKind::Originated { .. } => {
                        panic!("{scheme}: {packet:?} originated twice")
                    }
                    EventKind::Forwarded { to, .. } => {
                        let from = rec.node;
                        assert_eq!(from, at, "{scheme}: {packet:?} hop chain broke");
                        assert!(
                            !plan.is_down(from, rec.at) && !plan.is_down(to, rec.at),
                            "{scheme}: {packet:?} hopped through a dead node at {}",
                            rec.at
                        );
                        at = to;
                    }
                    EventKind::PacketDelivered { .. } => {
                        assert_eq!(rec.node, dst, "{scheme}: {packet:?} delivered elsewhere");
                        assert_eq!(at, dst, "{scheme}: {packet:?} delivered without reaching dst");
                        done = true;
                    }
                    _ => panic!("{scheme}: {packet:?} both delivered and dropped"),
                }
            }
            assert!(done, "{scheme}: {packet:?} never delivered despite Delivered record");
        }
    }
}

#[test]
fn battery_exhaustion_turns_depletion_into_permanent_crashes() {
    // A battery alone, no fault plan. 5 J drains every node within the
    // 40 s run under every scheme: even a silent PS node draws 0.266 W
    // (ATIM windows plus doze), so it is empty by ~19 s.
    let capacity = 5.0;
    for scheme in Scheme::ALL {
        let mut cfg = chaos_config(scheme, 3, FaultsConfig::default());
        cfg.battery_capacity_j = Some(capacity);
        cfg.obs = true;
        let r = run_sim(cfg.clone()).expect("valid chaos config");
        assert_eq!(
            r.faults.battery_deaths,
            u64::from(cfg.nodes),
            "{scheme}: every node's battery must drain"
        );
        assert_eq!(r.faults.crashes, 0, "{scheme}: no crash was scheduled");
        assert_eq!(r.faults.rejoins, 0, "{scheme}: battery death is permanent");
        // Depletion is checked once per interval: a node overshoots its
        // capacity by at most one interval of awake draw.
        let bound = capacity + cfg.mac.beacon_interval.as_secs_f64() * cfg.energy.idle_w;
        for (i, &j) in r.energy.per_node_joules().iter().enumerate() {
            assert!(j <= bound + 1e-9, "{scheme}: node {i} kept burning: {j} J > {bound} J");
        }

        // From its death on, a node's radio is off and it takes part
        // in nothing: no span but `Off`, no hop to or from it, no
        // transmission. Its flows' new packets are lost at birth.
        let obs = r.obs.as_ref().expect("ledger enabled");
        let mut died = vec![None; cfg.nodes as usize];
        for e in obs.events() {
            if e.kind == EventKind::BatteryDead {
                assert!(died[e.node.index()].replace(e.at).is_none(), "{scheme}: died twice");
            }
        }
        let dead_at = |node: NodeId, at| died[node.index()].is_some_and(|d| at >= d);
        for e in obs.events() {
            if let EventKind::Forwarded { to, .. } = e.kind {
                assert!(!dead_at(to, e.at), "{scheme}: {e:?} reached a dead node");
            }
            if e.node.index() >= died.len() || !dead_at(e.node, e.at) {
                continue;
            }
            let idle = match e.kind {
                EventKind::Span { state, .. } => state == PowerState::Off,
                EventKind::BatteryDead
                | EventKind::Crash
                | EventKind::Originated { .. }
                | EventKind::PacketDropped { .. } => true,
                _ => false,
            };
            assert!(idle, "{scheme}: dead node {} active: {e:?}", e.node.index());
        }
    }
}

#[test]
fn a_vacuous_fault_plan_is_byte_identical_to_the_clean_path() {
    // A scripted crash far beyond the horizon never activates, but it
    // keeps the whole fault machinery switched on — so this pins the
    // zero-cost-when-unused property: consulting an inert plan changes
    // nothing, to the last bit.
    for scheme in Scheme::ALL {
        let clean = chaos_config(scheme, 21, FaultsConfig::default());
        let mut inert = clean.clone();
        inert.faults.script.push(FaultEvent::Crash {
            node: 0,
            at_s: 1e6,
            down_s: 5.0,
        });
        assert!(FaultPlan::build(&inert).is_vacuous_for(inert.duration));
        let a = run_sim(clean).expect("valid");
        let b = run_sim(inert).expect("valid");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{scheme}: an inert plan perturbed the run"
        );
    }
}
