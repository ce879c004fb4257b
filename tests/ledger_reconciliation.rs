//! The ledger's energy-audit invariant (DESIGN.md §11): for **every**
//! scheme, with and without fault injection, replaying the ledger's
//! span events through fresh meters reproduces the report's per-node
//! energy **to the bit**.
//!
//! This is the strongest form of cross-layer reconciliation: every
//! joule the simulator accounts must appear as a `(node, power-state,
//! interval)` span in the ledger, in the same per-node accumulation
//! order — any missed, duplicated or reordered accumulation changes
//! the f64 operation sequence and fails the `to_bits` comparison.
//!
//! The packet audit is the same idea for the data plane: even when a
//! loaded run overflows the per-interval event budget, the ledger
//! holds every packet-lifecycle event the `DeliveryTracker` counts.

use randomcast::{run_sim, FaultsConfig, Scheme, SimConfig, SimDuration};

fn smoke(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::smoke(scheme, 0);
    cfg.duration = SimDuration::from_secs(60);
    cfg.obs = true;
    cfg
}

fn faulted(scheme: Scheme) -> SimConfig {
    let mut cfg = smoke(scheme);
    cfg.faults = FaultsConfig {
        crash_prob: 0.3,
        downtime_s: 10.0,
        link_blackouts: 3,
        blackout_s: 8.0,
        corruption_bursts: 2,
        burst_s: 8.0,
        corruption_prob: 0.5,
        ..FaultsConfig::default()
    };
    cfg
}

fn assert_reconciles(cfg: SimConfig, label: &str) {
    let energy_model = cfg.energy;
    let report = run_sim(cfg).expect("valid config");
    let obs = report.obs.as_ref().expect("obs was requested");
    assert_eq!(
        obs.intervals(),
        240,
        "{label}: 60 s at 250 ms beacons closes 240 intervals"
    );
    assert!(!obs.events().is_empty(), "{label}: ledger must not be empty");

    let replayed = obs.replay_energy(energy_model);
    let reported = report.energy.per_node_joules();
    assert_eq!(replayed.len(), reported.len(), "{label}: node count");
    for (i, (r, e)) in replayed.iter().zip(reported).enumerate() {
        assert_eq!(
            r.to_bits(),
            e.to_bits(),
            "{label}: node {i} ledger replay {r} J != report {e} J"
        );
    }
    // Totals follow from the per-node identity, but assert the headline
    // number too: summing in the same order gives the same f64.
    let total: f64 = replayed.iter().sum();
    let reported_total: f64 = reported.iter().sum();
    assert_eq!(total.to_bits(), reported_total.to_bits(), "{label}: total");
    // The trajectory's last row is the same replay.
    let series = obs.energy_by_interval(energy_model);
    assert_eq!(series.rows(), 240, "{label}: one row per interval");
    for (i, (r, e)) in series.row(239).iter().zip(reported).enumerate() {
        assert_eq!(r.to_bits(), e.to_bits(), "{label}: node {i} trajectory end");
    }
}

#[test]
fn every_scheme_reconciles_joule_exact() {
    for scheme in Scheme::ALL {
        assert_reconciles(smoke(scheme), scheme.label());
    }
}

#[test]
fn every_scheme_reconciles_joule_exact_under_faults() {
    for scheme in Scheme::ALL {
        let report = run_sim(faulted(scheme)).expect("valid config");
        assert!(
            report.faults.crashes > 0 || report.faults.link_blackouts > 0,
            "{scheme}: faults must actually fire or this pins nothing"
        );
        assert_reconciles(faulted(scheme), scheme.label());
    }
}

/// Recording is read-only: for every scheme, clean and with faults,
/// the run with the ledger on reports exactly what the same run with it
/// off does, apart from the ledger itself. The `Debug` rendering covers
/// every counter and prints each `f64` as its shortest round-tripping
/// string, so equal renderings are equal bits; the per-node energy bits
/// are compared on their own too, so a failure names its node.
#[test]
fn recording_leaves_every_scheme_s_report_unchanged() {
    for scheme in Scheme::ALL {
        for (label, cfg) in [("clean", smoke(scheme)), ("faults", faulted(scheme))] {
            let mut plain_cfg = cfg.clone();
            plain_cfg.obs = false;
            let mut recorded = run_sim(cfg).expect("valid config");
            let plain = run_sim(plain_cfg).expect("valid config");
            assert!(recorded.obs.take().is_some(), "{scheme} {label}: ledger on");
            assert!(plain.obs.is_none(), "{scheme} {label}: ledger off");
            let energy = recorded.energy.per_node_joules();
            for (i, (r, p)) in energy
                .iter()
                .zip(plain.energy.per_node_joules())
                .enumerate()
            {
                assert_eq!(
                    r.to_bits(),
                    p.to_bits(),
                    "{scheme} {label}: node {i} energy"
                );
            }
            assert_eq!(
                format!("{recorded:?}"),
                format!("{plain:?}"),
                "{scheme} {label}: recording changed the report"
            );
        }
    }
}

/// Crashed nodes spend their downtime in `Off` spans, so the audit
/// stays exact through crash/rejoin cycles — and the ledger carries
/// the matching fault markers.
#[test]
fn faulted_ledger_carries_crash_markers_and_off_spans() {
    use randomcast::obs::EventKind;

    let cfg = faulted(Scheme::Rcast);
    let report = run_sim(cfg).expect("valid config");
    let obs = report.obs.as_ref().expect("obs was requested");
    let crashes = obs
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash))
        .count() as u64;
    assert_eq!(crashes, report.faults.crashes, "one marker per crash");
    assert!(
        obs.events().iter().any(|e| matches!(
            e.kind,
            EventKind::Span {
                state: randomcast::radio::PowerState::Off,
                ..
            }
        )),
        "downtime must appear as Off spans"
    );
}

/// A loaded network whose ordinary events overflow the ledger's
/// per-interval budget: Rcast, 150 nodes on 1800 × 360 m, 30 flows at
/// 1 pkt/s, nodes always moving.
fn loaded(faults: bool) -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 3, 1.0, 0.0);
    cfg.nodes = 150;
    cfg.area = randomcast::mobility::Area::new(1800.0, 360.0);
    cfg.traffic.flows = 30;
    cfg.duration = SimDuration::from_secs(20);
    cfg.obs = true;
    if faults {
        cfg.faults = faulted(Scheme::Rcast).faults;
    }
    cfg
}

/// Packet-lifecycle events ride a reserved lane, so an overflowing
/// interval budget costs MAC events only: the ledger's packet counts
/// equal the `DeliveryTracker`'s and every delivered packet's history
/// is one contiguous hop chain from source to destination.
#[test]
fn packet_events_survive_an_overflowing_interval_budget() {
    use randomcast::obs::EventKind;

    for faults in [false, true] {
        let report = run_sim(loaded(faults)).expect("valid config");
        let obs = report.obs.as_ref().expect("obs was requested");
        let d = &report.delivery;
        assert!(obs.dropped() > 0, "faults={faults}: the budget must overflow");
        if faults {
            assert!(d.fault_drops() > 0, "faults must destroy packets");
        }
        let count = |pick: fn(&EventKind) -> bool| {
            obs.events().iter().filter(|e| pick(&e.kind)).count() as u64
        };
        let originated = count(|k| matches!(k, EventKind::Originated { .. }));
        let forwarded = count(|k| matches!(k, EventKind::Forwarded { .. }));
        let delivered = count(|k| matches!(k, EventKind::PacketDelivered { .. }));
        let dropped = count(|k| matches!(k, EventKind::PacketDropped { .. }));
        assert_eq!(
            (originated, forwarded, delivered, dropped),
            (d.originated(), d.data_transmissions(), d.delivered(), d.dropped()),
            "faults={faults}: ledger vs tracker (originated, forwarded, delivered, dropped)"
        );

        let mut chains = 0u64;
        for (packet, history) in obs.packet_histories() {
            // The lane is sized for DSR's loop-free paths: `nodes - 1`
            // hops per packet at most.
            let hops = history
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Forwarded { .. }))
                .count();
            assert!(hops < 150, "faults={faults}: {packet:?} made {hops} hops");
            let Some(end) = history
                .iter()
                .position(|e| matches!(e.kind, EventKind::PacketDelivered { .. }))
            else {
                continue;
            };
            let EventKind::Originated { dst, .. } = history[0].kind else {
                panic!("faults={faults}: {packet:?} does not start with Originated");
            };
            let mut at = history[0].node;
            for e in &history[1..end] {
                let EventKind::Forwarded { to, .. } = e.kind else {
                    panic!("faults={faults}: {packet:?} has {:?} before delivery", e.kind);
                };
                assert_eq!(e.node, at, "faults={faults}: {packet:?} hop chain broke");
                at = to;
            }
            assert_eq!(end, history.len() - 1, "faults={faults}: {packet:?} after delivery");
            assert_eq!(history[end].node, dst, "faults={faults}: {packet:?} delivered elsewhere");
            assert_eq!(at, dst, "faults={faults}: {packet:?} delivered without reaching dst");
            chains += 1;
        }
        assert_eq!(chains, d.delivered(), "faults={faults}: one chain per delivery");
    }
}
