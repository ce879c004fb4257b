//! Differential byte-identity suite for deterministic intra-interval
//! parallelism (DESIGN.md §14).
//!
//! [`Simulation::set_shard_width`] shards the MAC resolver's
//! prepass/post-pass and the neighbor-churn scan across worker threads
//! *within one run*. The contract is strict: the sharded run must be
//! **byte-identical** to the serial width-1 run — same `SimReport`
//! (every float bit), same observability ledger and so the same
//! per-packet histories, same replayed energy — at every width, for
//! every scheme, with and without faults. Identity is checked on the
//! `Debug` rendering of the full report: `f64`'s `Debug` prints the
//! shortest round-tripping string, so string equality is bit equality.

use randomcast::{FaultEvent, Scheme, SimConfig, SimDuration, SimReport, Simulation};
use rcast_testkit::{prop_assert, Check, Gen};

const WIDTHS: [usize; 2] = [2, 8];

fn run_at(cfg: &SimConfig, width: usize) -> SimReport {
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    sim.set_shard_width(width);
    assert_eq!(sim.shard_width(), width);
    sim.run()
}

/// A smoke-sized config exercising the full cross-layer surface:
/// ledger on or off, optional fault script.
fn config(scheme: Scheme, faults: bool, observed: bool) -> SimConfig {
    let mut cfg = SimConfig::smoke(scheme, 11);
    cfg.duration = SimDuration::from_secs(45);
    cfg.obs = observed;
    if faults {
        cfg.faults.script.push(FaultEvent::Crash {
            node: 5,
            at_s: 10.0,
            down_s: 15.0,
        });
        cfg.faults.link_blackouts = 3;
        cfg.faults.blackout_s = 5.0;
        cfg.faults.corruption_bursts = 2;
        cfg.faults.burst_s = 4.0;
        cfg.faults.corruption_prob = 0.2;
    }
    cfg
}

fn assert_sharded_matches_serial(scheme: Scheme) {
    for faults in [false, true] {
        for observed in [false, true] {
            let cfg = config(scheme, faults, observed);
            let serial = format!("{:?}", run_at(&cfg, 1));
            for width in WIDTHS {
                let sharded = format!("{:?}", run_at(&cfg, width));
                assert_eq!(
                    serial, sharded,
                    "{scheme} (faults={faults}, observed={observed}): \
                     width {width} diverged from serial"
                );
            }
        }
    }
}

#[test]
fn dot11_sharded_interval_is_byte_identical() {
    assert_sharded_matches_serial(Scheme::Dot11);
}

#[test]
fn psm_sharded_interval_is_byte_identical() {
    assert_sharded_matches_serial(Scheme::Psm);
}

#[test]
fn psm_no_overhear_sharded_interval_is_byte_identical() {
    assert_sharded_matches_serial(Scheme::PsmNoOverhear);
}

#[test]
fn odpm_sharded_interval_is_byte_identical() {
    assert_sharded_matches_serial(Scheme::Odpm);
}

#[test]
fn rcast_sharded_interval_is_byte_identical() {
    assert_sharded_matches_serial(Scheme::Rcast);
}

/// Large-n fingerprint: the `large` bench tier's 600-node geometry
/// (density-matched to the medium workload) must shard byte-identically
/// too. The small configs above never fill more than a few grid cells,
/// so this is the only differential point where the spatial fan-out,
/// the churn-scan skip and the per-interval RNG lane run at the
/// populations the scaling gate measures. Short duration: enough
/// intervals for routes, queues and wake cycles to interact, cheap
/// enough for a debug-build CI run. (1200 nodes is bench-only — the
/// hot paths it exercises are identical, just bigger.)
#[test]
fn large_network_sharded_interval_is_byte_identical() {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 7, 0.4, 60.0);
    cfg.nodes = 600;
    cfg.area = randomcast::mobility::Area::new(3600.0, 720.0);
    cfg.duration = SimDuration::from_secs(10);
    cfg.traffic.flows = 30;
    let serial = format!("{:?}", run_at(&cfg, 1));
    for width in WIDTHS {
        let sharded = format!("{:?}", run_at(&cfg, width));
        assert_eq!(
            serial, sharded,
            "600-node Rcast: width {width} diverged from serial"
        );
    }
}

/// The ledger's energy replay must close against the meters at every
/// width — and produce the same bits across widths (DESIGN.md §11's
/// ordering contract survives the shard merge).
#[test]
fn ledger_energy_replay_closes_at_every_width() {
    let cfg = config(Scheme::Rcast, true, true);
    let mut reference: Option<Vec<u64>> = None;
    for width in [1, 2, 8] {
        let report = run_at(&cfg, width);
        let obs = report.obs.as_ref().expect("ledger enabled");
        let replayed = obs.replay_energy(cfg.energy);
        let meters = report.energy.per_node_joules();
        assert_eq!(replayed.len(), meters.len(), "width {width}");
        let bits: Vec<u64> = replayed.iter().map(|j| j.to_bits()).collect();
        for (i, (r, m)) in replayed.iter().zip(meters).enumerate() {
            assert_eq!(
                r.to_bits(),
                m.to_bits(),
                "width {width}: node {i} replay diverged from its meter"
            );
        }
        match &reference {
            None => reference = Some(bits),
            Some(first) => assert_eq!(first, &bits, "width {width} energy"),
        }
    }
}

/// Property: under *random* fault scripts and traffic loads, a sharded
/// run matches serial bit-for-bit. Randomizing the interleaving of
/// crashes, blackouts, corruption bursts and flow load probes shard
/// boundaries the fixed scripts above never hit.
#[test]
fn random_fault_and_traffic_interleavings_shard_identically() {
    Check::new("sharded run matches serial under random faults/traffic")
        .cases(6)
        .run(|g: &mut Gen| {
            let scheme = [Scheme::Rcast, Scheme::Psm, Scheme::Odpm, Scheme::Dot11]
                [g.usize_range(0, 3)];
            let mut cfg = SimConfig::smoke(scheme, g.u64_range(1, 1 << 40));
            cfg.duration = SimDuration::from_secs(g.u64_range(20, 40));
            cfg.traffic.flows = g.u32_range(1, 12);
            cfg.traffic.rate_pps = g.f64_range(0.5, 6.0);
            cfg.obs = g.bool();
            for _ in 0..g.len(0, 3) {
                cfg.faults.script.push(FaultEvent::Crash {
                    node: g.u32_range(0, cfg.nodes - 1),
                    at_s: g.f64_range(1.0, 30.0),
                    down_s: g.f64_range(0.0, 10.0),
                });
            }
            cfg.faults.link_blackouts = g.u32_range(0, 4);
            cfg.faults.blackout_s = g.f64_range(1.0, 8.0);
            cfg.faults.corruption_bursts = g.u32_range(0, 2);
            cfg.faults.burst_s = g.f64_range(1.0, 6.0);
            cfg.faults.corruption_prob = g.f64_range(0.0, 0.4);
            let width = [2, 3, 8][g.usize_range(0, 2)];
            let serial = format!("{:?}", run_at(&cfg, 1));
            let sharded = format!("{:?}", run_at(&cfg, width));
            prop_assert!(
                serial == sharded,
                "{scheme} at width {width} diverged (flows={}, rate={})",
                cfg.traffic.flows,
                cfg.traffic.rate_pps
            );
            Ok(())
        });
}
