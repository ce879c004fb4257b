//! Property-based invariants of the full simulation: whatever the
//! (small) configuration and seed, physical conservation laws hold.
//! On the in-tree `rcast-testkit` harness.

use randomcast::{obs::EventKind, run_sim, Scheme, SimConfig, SimDuration};
use rcast_testkit::{prop_assert, prop_assert_eq, Check, Gen};

fn small_config(
    scheme_idx: usize,
    seed: u64,
    nodes: u32,
    rate: f64,
    pause: f64,
    flows: u32,
) -> SimConfig {
    let scheme = Scheme::ALL[scheme_idx % Scheme::ALL.len()];
    let mut cfg = SimConfig::paper(scheme, seed, rate, pause);
    cfg.nodes = nodes;
    cfg.area = randomcast::mobility::Area::new(700.0, 300.0);
    cfg.duration = SimDuration::from_secs(40);
    cfg.traffic.flows = flows;
    cfg
}

fn draw_config(g: &mut Gen) -> SimConfig {
    let scheme_idx = g.usize_range(0, 5);
    let seed = g.u64_range(0, 1_000);
    let nodes = g.u32_range(10, 40);
    let rate = g.f64_range(0.2, 2.0);
    let pause = g.f64_range(0.0, 200.0);
    let flows = g.u32_range(1, 8);
    small_config(scheme_idx, seed, nodes, rate, pause, flows)
}

/// Energy bounds: every node consumes at least the all-sleep floor
/// and at most the always-awake ceiling; delivered <= originated;
/// PDR in [0,1]; delays non-negative.
#[test]
fn physical_invariants() {
    Check::new("physical_invariants").cases(12).run(|g| {
        let cfg = draw_config(g);
        let duration_s = cfg.duration.as_secs_f64();
        let report = run_sim(cfg).expect("valid config");

        let ceiling = 1.15 * duration_s + 1e-6;
        // Even a silent PS node wakes for every ATIM window (20 %).
        let floor = (1.15 * 0.2 + 0.045 * 0.8) * duration_s - 1e-6;
        for &j in report.energy.per_node_joules() {
            prop_assert!(j <= ceiling, "node exceeds always-on ceiling: {j}");
            if report.scheme != Scheme::Dot11 {
                prop_assert!(j >= floor, "node below PSM floor: {j}");
            }
        }

        prop_assert!(report.delivery.delivered() <= report.delivery.originated());
        let pdr = report.delivery.delivery_ratio();
        prop_assert!((0.0..=1.0).contains(&pdr));
        prop_assert!(report.delivery.mean_delay() >= randomcast::SimDuration::ZERO);
        prop_assert!(report.delivery.normalized_routing_overhead() >= 0.0);
        Ok(())
    });
}

/// Determinism: the same configuration and seed produce bit-identical
/// reports, whatever the parameters.
#[test]
fn determinism_across_parameters() {
    Check::new("determinism_across_parameters").cases(12).run(|g| {
        let scheme_idx = g.usize_range(0, 5);
        let seed = g.u64_range(0, 1_000);
        let rate = g.f64_range(0.2, 2.0);
        let cfg = small_config(scheme_idx, seed, 20, rate, 50.0, 4);
        let a = run_sim(cfg.clone()).expect("valid");
        let b = run_sim(cfg).expect("valid");
        prop_assert_eq!(a.energy.per_node_joules(), b.energy.per_node_joules());
        prop_assert_eq!(a.delivery.delivered(), b.delivery.delivered());
        prop_assert_eq!(a.delivery.originated(), b.delivery.originated());
        prop_assert_eq!(a.roles.all(), b.roles.all());
        prop_assert_eq!(a.mac, b.mac);
        prop_assert_eq!(a.dsr, b.dsr);
        Ok(())
    });
}

/// Ledger conformance: every delivered packet's history in the event
/// ledger holds exactly one origination, a contiguous hop chain from
/// source to destination, and nothing after the delivery record.
#[test]
fn delivered_packet_traces_are_contiguous_chains() {
    Check::new("delivered_packet_traces_are_contiguous_chains")
        .cases(10)
        .run(|g| {
            let mut cfg = draw_config(g);
            cfg.obs = true;
            let report = run_sim(cfg).expect("valid config");
            let obs = report.obs.as_ref().expect("ledger enabled");
            let delivered: Vec<_> = obs
                .packet_histories()
                .into_iter()
                .filter(|(_, h)| {
                    h.iter()
                        .any(|e| matches!(e.kind, EventKind::PacketDelivered { .. }))
                })
                .collect();
            prop_assert_eq!(delivered.len() as u64, report.delivery.delivered());
            for (packet, history) in delivered {
                let EventKind::Originated { dst, .. } = history[0].kind else {
                    return Err(format!("{packet:?} does not start with Originated"));
                };
                let mut at = history[0].node;
                let mut done = false;
                for rec in &history[1..] {
                    prop_assert!(!done, "{packet:?} has events after delivery");
                    match rec.kind {
                        EventKind::Originated { .. } => {
                            return Err(format!("{packet:?} originated twice"));
                        }
                        EventKind::Forwarded { to, .. } => {
                            prop_assert_eq!(rec.node, at, "{packet:?} hop chain broke");
                            at = to;
                        }
                        EventKind::PacketDelivered { .. } => {
                            prop_assert_eq!(rec.node, dst);
                            prop_assert_eq!(at, dst, "{packet:?} delivered without reaching dst");
                            done = true;
                        }
                        _ => {
                            return Err(format!("{packet:?} both delivered and dropped"));
                        }
                    }
                }
                prop_assert!(done);
            }
            Ok(())
        });
}

/// The 802.11 scheme's per-node energy is always exactly flat.
#[test]
fn dot11_flatness() {
    Check::new("dot11_flatness").cases(12).run(|g| {
        let seed = g.u64_range(0, 1_000);
        let nodes = g.u32_range(5, 30);
        let cfg = small_config(0, seed, nodes, 0.4, 50.0, 3);
        prop_assert_eq!(cfg.scheme, Scheme::Dot11);
        let report = run_sim(cfg).expect("valid");
        prop_assert_eq!(report.energy.variance(), 0.0);
        Ok(())
    });
}
