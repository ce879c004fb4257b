//! Property-based tests for the MAC: airtime budgets never oversubscribe
//! any node's channel, queues keep FIFO order, and the interval resolver
//! conserves frames. On the in-tree `rcast-testkit` harness.

use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_mac::{
    AirtimeBudget, AllPowerSave, IntervalOutcome, MacConfig, MacFrame, MacLayer, NullMacObserver,
    OverhearingLevel, TxQueue,
};
use rcast_mobility::{Area, NeighborTable, Snapshot, Vec2};
use rcast_radio::Phy;
use rcast_testkit::{prop_assert, prop_assert_eq, Check};

/// No node's charged airtime ever exceeds the window, for arbitrary
/// reservation sequences.
#[test]
fn budget_never_oversubscribes() {
    Check::new("budget_never_oversubscribes").run(|g| {
        let limit_ms = g.u64_range(1, 50);
        let reservations = g.vec(1, 60, |g| {
            (
                g.vec(1, 6, |g| g.u32_range(0, 20)),
                g.u64_range(1, 20_000),
            )
        });
        let limit = SimDuration::from_millis(limit_ms);
        let mut budget = AirtimeBudget::new(20, limit);
        for (nodes, micros) in reservations {
            let affected: Vec<NodeId> = nodes.into_iter().map(NodeId::new).collect();
            let _ = budget.try_reserve(affected.iter().copied(), SimDuration::from_micros(micros));
        }
        for i in 0..20u32 {
            prop_assert!(budget.used(NodeId::new(i)) <= limit);
        }
        Ok(())
    });
}

/// Accepted reservations end within the window (offset + duration
/// never spills past the limit).
#[test]
fn accepted_reservations_fit() {
    Check::new("accepted_reservations_fit").run(|g| {
        let reservations = g.vec(1, 40, |g| {
            (
                g.vec(1, 4, |g| g.u32_range(0, 10)),
                g.u64_range(1, 30_000),
            )
        });
        let limit = SimDuration::from_millis(20);
        let mut budget = AirtimeBudget::new(10, limit);
        for (nodes, micros) in reservations {
            let dur = SimDuration::from_micros(micros);
            let affected: Vec<NodeId> = nodes.into_iter().map(NodeId::new).collect();
            if let Some(offset) = budget.try_reserve(affected.iter().copied(), dur) {
                prop_assert!(offset + dur <= limit);
            }
        }
        Ok(())
    });
}

/// TxQueue preserves FIFO order per destination under arbitrary
/// push/remove interleavings.
#[test]
fn queue_fifo_per_destination() {
    Check::new("queue_fifo_per_destination").run(|g| {
        let ops = g.vec(1, 60, |g| (g.u32_range(0, 4), g.u64_range(0, 100)));
        let mut q: TxQueue<u64> = TxQueue::new(1_000);
        let mut expected: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for (dest, tag) in ops {
            q.push(
                MacFrame::unicast(NodeId::new(dest), OverhearingLevel::None, 64, tag),
                SimTime::ZERO,
            )
            .expect("capacity is large");
            expected.entry(dest).or_default().push(tag);
        }
        for (dest, tags) in expected {
            let d = rcast_mac::Destination::Unicast(NodeId::new(dest));
            let mut got = Vec::new();
            while let Some(idx) = q.first_for(d) {
                got.push(q.remove(idx).frame.payload);
            }
            prop_assert_eq!(got, tags);
        }
        Ok(())
    });
}

/// Frame conservation: over enough intervals on a connected clique,
/// every enqueued unicast frame is either delivered or still queued —
/// none vanish. (No failures possible: everyone is in range.)
#[test]
fn interval_resolver_conserves_frames() {
    Check::new("interval_resolver_conserves_frames").run(|g| {
        let sends = g.vec(1, 25, |g| (g.u32_range(0, 6), g.u32_range(0, 6)));
        let seed = g.u64();
        let positions: Vec<Vec2> = (0..6).map(|i| Vec2::new(10.0 * i as f64, 0.0)).collect();
        let snap = Snapshot::from_positions(positions, Area::new(100.0, 10.0), SimTime::ZERO);
        let nt = NeighborTable::build(&snap, 250.0);
        let mut mac: MacLayer<usize> = MacLayer::new(
            6,
            MacConfig::default(),
            Phy::default(),
            StreamRng::from_seed(seed),
        );
        let mut enqueued = 0usize;
        for (i, &(from, to)) in sends.iter().enumerate() {
            if from == to {
                continue;
            }
            mac.enqueue(
                NodeId::new(from),
                MacFrame::unicast(NodeId::new(to), OverhearingLevel::None, 256, i),
                SimTime::ZERO,
            )
            .expect("under capacity");
            enqueued += 1;
        }
        let mut delivered = 0usize;
        let mut policy = AllPowerSave {
            overhear_randomized: false,
        };
        for k in 0..20u64 {
            let mut out = IntervalOutcome::default();
            let start = SimTime::from_millis(250 * k);
            mac.run_interval(start, &nt, &mut policy, &mut out, &mut NullMacObserver);
            prop_assert!(out.failures.is_empty(), "clique cannot break links");
            delivered += out.deliveries.len();
        }
        let still_queued: usize = (0..6).map(|i| mac.queue_len(NodeId::new(i))).sum();
        prop_assert_eq!(delivered + still_queued, enqueued);
        Ok(())
    });
}

/// The committed-awake duration is always within
/// [ATIM window, beacon interval].
#[test]
fn committed_awake_bounds() {
    Check::new("committed_awake_bounds").run(|g| {
        let sends = g.vec(0, 15, |g| (g.u32_range(0, 5), g.u32_range(0, 5)));
        let seed = g.u64();
        let positions: Vec<Vec2> = (0..5).map(|i| Vec2::new(40.0 * i as f64, 0.0)).collect();
        let snap = Snapshot::from_positions(positions, Area::new(400.0, 10.0), SimTime::ZERO);
        let nt = NeighborTable::build(&snap, 250.0);
        let cfg = MacConfig::default();
        let mut mac: MacLayer<usize> =
            MacLayer::new(5, cfg, Phy::default(), StreamRng::from_seed(seed));
        for (i, &(from, to)) in sends.iter().enumerate() {
            if from == to {
                continue;
            }
            let _ = mac.enqueue(
                NodeId::new(from),
                MacFrame::unicast(NodeId::new(to), OverhearingLevel::Randomized, 512, i),
                SimTime::ZERO,
            );
        }
        let mut policy = AllPowerSave {
            overhear_randomized: true,
        };
        let mut out = IntervalOutcome::default();
        mac.run_interval(
            SimTime::ZERO,
            &nt,
            &mut policy,
            &mut out,
            &mut NullMacObserver,
        );
        for (i, &dur) in out.committed_awake.iter().enumerate() {
            prop_assert!(dur >= cfg.atim_window, "node {i}: {dur}");
            prop_assert!(dur <= cfg.beacon_interval, "node {i}: {dur}");
            if !out.awake[i] {
                prop_assert_eq!(dur, cfg.atim_window);
            }
        }
        Ok(())
    });
}
