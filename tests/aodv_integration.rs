//! AODV + MAC integration on hand-built topologies, mirroring the DSR
//! protocol-integration suite: discovery, delivery, breaks and repair —
//! all across beacon intervals.

use randomcast::aodv::{AodvAction, AodvConfig, AodvNode, AodvPacket};
use randomcast::engine::rng::StreamRng;
use randomcast::engine::{NodeId, SimDuration, SimTime};
use randomcast::mac::{AllPowerSave, MacConfig, MacFrame, MacLayer, OverhearingLevel};
use randomcast::mobility::{Area, NeighborTable, Snapshot, Vec2};
use randomcast::radio::Phy;

/// Runs one handler call into a fresh out-buffer and returns it.
fn acts(call: impl FnOnce(&mut Vec<AodvAction>)) -> Vec<AodvAction> {
    let mut out = Vec::new();
    call(&mut out);
    out
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn chain(len: usize) -> NeighborTable {
    let snap = Snapshot::from_positions(
        (0..len).map(|i| Vec2::new(200.0 * i as f64, 0.0)).collect(),
        Area::new(10_000.0, 10.0),
        SimTime::ZERO,
    );
    NeighborTable::build(&snap, 250.0)
}

struct Net {
    mac: MacLayer<AodvPacket>,
    nodes: Vec<AodvNode>,
    nt: NeighborTable,
    now: SimTime,
    delivered: Vec<(u32, u64)>,
}

impl Net {
    fn new(len: usize, hello: bool) -> Net {
        let mut cfg = AodvConfig::default();
        if !hello {
            cfg.hello_interval = None;
        }
        // The PSM path paces hops at 250 ms; stretch the soft-state
        // lifetime accordingly so routes survive between packets.
        cfg.active_route_timeout = SimDuration::from_secs(6);
        Net {
            mac: MacLayer::new(
                len,
                MacConfig::default(),
                Phy::default(),
                StreamRng::from_seed(3),
            ),
            nodes: (0..len).map(|i| AodvNode::new(n(i as u32), cfg)).collect(),
            nt: chain(len),
            now: SimTime::ZERO,
            delivered: Vec::new(),
        }
    }

    fn apply(&mut self, node: NodeId, actions: Vec<AodvAction>) {
        for a in actions {
            match a {
                AodvAction::Unicast { next_hop, packet } => {
                    let bytes = packet.wire_bytes();
                    self.mac
                        .enqueue(
                            node,
                            MacFrame::unicast(next_hop, OverhearingLevel::None, bytes, packet),
                            self.now,
                        )
                        .expect("queue space");
                }
                AodvAction::Broadcast { packet } => {
                    let bytes = packet.wire_bytes();
                    self.mac
                        .enqueue(node, MacFrame::broadcast(bytes, packet), self.now)
                        .expect("queue space");
                }
                AodvAction::Delivered { packet } => {
                    self.delivered.push((packet.flow, packet.seq));
                }
                AodvAction::Dropped { .. } => {}
            }
        }
    }

    fn step(&mut self) {
        let mut policy = AllPowerSave {
            overhear_randomized: false,
        };
        let t = self.now;
        for i in 0..self.nodes.len() {
            let actions = acts(|buf| self.nodes[i].tick(t, buf));
            self.apply(n(i as u32), actions);
        }
        let out = self.mac.run_interval(t, &self.nt, &mut policy);
        for d in &out.deliveries {
            let sender = d.sender;
            let payload = &d.frame.payload;
            match d.receiver {
                Some(r) => {
                    let actions = acts(|buf| {
                        self.nodes[r.index()].receive(payload.clone(), sender, d.at, buf)
                    });
                    self.apply(r, actions);
                }
                None => {
                    for &r in d.fanout.recipients(&out.fanout) {
                        let actions = acts(|buf| {
                            self.nodes[r.index()].receive(payload.clone(), sender, d.at, buf)
                        });
                        self.apply(r, actions);
                    }
                }
            }
        }
        for f in out.failures {
            let actions = acts(|buf| {
                self.nodes[f.sender.index()].link_failure(f.receiver, f.frame.payload, f.at, buf)
            });
            self.apply(f.sender, actions);
        }
        self.now += SimDuration::from_millis(250);
    }
}

/// Discovery floods forward, the reply retraces the reverse route, and
/// the buffered packet follows the freshly installed forward route.
#[test]
fn aodv_discovery_and_delivery_across_a_chain() {
    let mut net = Net::new(4, false);
    let actions = acts(|buf| net.nodes[0].originate(1, 0, n(3), 512, SimTime::ZERO, buf));
    net.apply(n(0), actions);
    for _ in 0..60 {
        net.step();
        if !net.delivered.is_empty() {
            break;
        }
    }
    assert_eq!(net.delivered, vec![(1, 0)]);
    // Forward route installed at the source; reverse at the target.
    assert!(net.nodes[0].table().peek(n(3)).is_some());
    assert!(net.nodes[3].table().peek(n(0)).is_some());
    // Relays hold both directions.
    assert!(net.nodes[1].table().peek(n(3)).is_some());
    assert!(net.nodes[1].table().peek(n(0)).is_some());
}

/// Consecutive packets reuse the installed route without a second
/// discovery (soft state refreshed by use).
#[test]
fn aodv_route_reuse_without_reflooding() {
    let mut net = Net::new(3, false);
    let actions = acts(|buf| net.nodes[0].originate(0, 0, n(2), 512, SimTime::ZERO, buf));
    net.apply(n(0), actions);
    for _ in 0..40 {
        net.step();
        if !net.delivered.is_empty() {
            break;
        }
    }
    let floods_after_first = net.nodes[0].counters().rreq_originated;
    // Send nine more packets, paced one per interval.
    for seq in 1..10u64 {
        let t = net.now;
        let actions = acts(|buf| net.nodes[0].originate(0, seq, n(2), 512, t, buf));
        net.apply(n(0), actions);
        net.step();
        net.step();
    }
    for _ in 0..10 {
        net.step();
    }
    assert_eq!(net.delivered.len(), 10, "all packets arrive");
    assert_eq!(
        net.nodes[0].counters().rreq_originated,
        floods_after_first,
        "no additional discoveries needed"
    );
}

/// When the destination walks away, the relay reports the break and the
/// source rediscovers — and succeeds once the node returns.
#[test]
fn aodv_break_detection_and_rediscovery() {
    let mut net = Net::new(4, false);
    let actions = acts(|buf| net.nodes[0].originate(0, 0, n(3), 512, SimTime::ZERO, buf));
    net.apply(n(0), actions);
    for _ in 0..60 {
        net.step();
        if !net.delivered.is_empty() {
            break;
        }
    }
    assert_eq!(net.delivered.len(), 1);

    // Node 3 leaves.
    let snap = Snapshot::from_positions(
        vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(200.0, 0.0),
            Vec2::new(400.0, 0.0),
            Vec2::new(5_000.0, 0.0),
        ],
        Area::new(10_000.0, 10.0),
        SimTime::ZERO,
    );
    net.nt = NeighborTable::build(&snap, 250.0);
    let t = net.now;
    let actions = acts(|buf| net.nodes[0].originate(0, 1, n(3), 512, t, buf));
    net.apply(n(0), actions);
    for _ in 0..20 {
        net.step();
    }
    assert_eq!(net.delivered.len(), 1, "unreachable destination");
    // The source's route must be gone (invalidated by RERR or expiry).
    let t = net.now;
    let mut probe = net.nodes[0].clone();
    assert!(
        probe.table_next_hop_for_test(n(3), t).is_none(),
        "stale route must not survive the break"
    );

    // Node 3 comes back; traffic resumes after rediscovery.
    net.nt = chain(4);
    let t = net.now;
    let actions = acts(|buf| net.nodes[0].originate(0, 2, n(3), 512, t, buf));
    net.apply(n(0), actions);
    for _ in 0..80 {
        net.step();
        if net.delivered.len() >= 2 {
            break;
        }
    }
    assert!(
        net.delivered.iter().any(|&(_, seq)| seq == 2),
        "delivery resumes after the node returns: {:?}",
        net.delivered
    );
}

/// Hello beacons from active nodes reach neighbors through the
/// PSM broadcast path and are recognized (not forwarded).
#[test]
fn aodv_hellos_flow_through_psm_broadcasts() {
    let mut net = Net::new(3, true);
    // Make node 1 active so it beacons.
    let actions = acts(|buf| net.nodes[1].originate(0, 0, n(2), 64, SimTime::ZERO, buf));
    net.apply(n(1), actions);
    for _ in 0..20 {
        net.step();
    }
    assert!(net.nodes[1].counters().hello_sent > 0, "active node beacons");
    // Hellos install 1-hop routes at the neighbors.
    assert!(net.nodes[0].table().peek(n(1)).is_some());
    assert!(net.nodes[2].table().peek(n(1)).is_some());
    // And nobody relays a hello (hop_count stays 0 / no forwarded RREPs
    // beyond the data-path ones).
    assert_eq!(net.nodes[0].counters().rrep_forwarded, 0);
}

// A small test-only accessor shim: `RoutingTable::next_hop` needs &mut.
trait NextHopForTest {
    fn table_next_hop_for_test(&mut self, dst: NodeId, now: SimTime) -> Option<NodeId>;
}

impl NextHopForTest for AodvNode {
    fn table_next_hop_for_test(&mut self, dst: NodeId, now: SimTime) -> Option<NodeId> {
        // Peek without refresh: valid means unexpired.
        self.table()
            .peek(dst)
            .filter(|r| r.expires > now)
            .map(|r| r.next_hop)
    }
}
