//! The per-node AODV state machine.
//!
//! Event-driven like its DSR sibling: receptions, link failures and
//! timer ticks come in; [`AodvAction`]s come out. AODV differs from DSR
//! in exactly the ways the Rcast paper highlights (Section 1, footnote
//! 1): no overhearing — route state lives in soft-state tables kept
//! alive by timeouts and hello beacons — so route information decays
//! unless refreshed by *more flooding*.

use rcast_engine::ondemand::{Event, OnDemand, Parked, Ring, RingSchedule};
use rcast_engine::{NodeId, SimDuration, SimTime};

use crate::config::AodvConfig;
use crate::packet::{AodvData, AodvPacket, AodvRerr, AodvRrep, AodvRreq};
use crate::table::RoutingTable;

/// Why a data packet was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AodvDropReason {
    /// The send buffer was full.
    BufferFull,
    /// The packet outlived the buffer timeout.
    BufferTimeout,
    /// Discovery exhausted its retries.
    DiscoveryFailed,
    /// A relay had no route (and is not the source).
    NoRoute,
    /// The next hop broke mid-flight at a relay.
    LinkBroken,
}

/// An output of the AODV state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AodvAction {
    /// Transmit `packet` to `next_hop`.
    Unicast {
        /// Layer-2 receiver.
        next_hop: NodeId,
        /// The packet.
        packet: AodvPacket,
    },
    /// Flood `packet` to all neighbors.
    Broadcast {
        /// The packet.
        packet: AodvPacket,
    },
    /// This node is the data packet's destination.
    Delivered {
        /// The arrived packet.
        packet: AodvData,
    },
    /// The node gave up on a data packet.
    Dropped {
        /// The abandoned packet.
        packet: AodvData,
        /// Why.
        reason: AodvDropReason,
    },
}

/// Cumulative per-node statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AodvCounters {
    /// Discoveries initiated (including ring-search rounds).
    pub rreq_originated: u64,
    /// RREQ rebroadcasts.
    pub rreq_forwarded: u64,
    /// Replies generated as the target.
    pub rrep_from_target: u64,
    /// Replies generated from the routing table.
    pub rrep_from_table: u64,
    /// Replies relayed.
    pub rrep_forwarded: u64,
    /// Hello beacons sent.
    pub hello_sent: u64,
    /// Route errors sent.
    pub rerr_sent: u64,
    /// Data packets sent as source.
    pub data_sent: u64,
    /// Data packets relayed.
    pub data_forwarded: u64,
    /// Data packets delivered here.
    pub data_delivered: u64,
    /// Data packets abandoned here.
    pub data_dropped: u64,
}

impl AodvCounters {
    /// Labeled control-plane totals, for trace summaries: how many
    /// RREQ/RREP/RERR/HELLO events this node produced, by label.
    pub fn control_events(&self) -> [(&'static str, u64); 4] {
        [
            ("rreq", self.rreq_originated + self.rreq_forwarded),
            (
                "rrep",
                self.rrep_from_target + self.rrep_from_table + self.rrep_forwarded,
            ),
            ("rerr", self.rerr_sent),
            ("hello", self.hello_sent),
        ]
    }
}

/// A parked packet as sent (or reported dropped) by its source `src`.
fn data(p: &Parked, src: NodeId) -> AodvData {
    AodvData {
        flow: p.flow,
        seq: p.seq,
        src,
        dst: p.dst,
        payload_bytes: p.payload_bytes,
        generated_at: p.generated_at,
        hops: 0,
    }
}

/// Counts `packet` as dropped here for `reason` and reports it.
fn dropped(counters: &mut AodvCounters, packet: AodvData, reason: AodvDropReason) -> AodvAction {
    counters.data_dropped += 1;
    AodvAction::Dropped { packet, reason }
}

/// The action for what the on-demand core of node `origin` reports: a
/// route request to flood, or a parked packet given up. RFC 3561 §6.3:
/// the origin increments its own sequence number `seq` before a request.
fn on_demand(
    origin: NodeId,
    seq: &mut u32,
    table: &RoutingTable,
    counters: &mut AodvCounters,
    ev: Event,
) -> AodvAction {
    let (p, reason) = match ev {
        Event::Flood { target, ttl, id } => {
            *seq += 1;
            counters.rreq_originated += 1;
            return AodvAction::Broadcast {
                packet: AodvPacket::Rreq(AodvRreq {
                    origin,
                    origin_seq: *seq,
                    target,
                    target_seq: table.known_seq(target),
                    id,
                    hop_count: 0,
                    ttl,
                }),
            };
        }
        Event::Expired(p) => (p, AodvDropReason::BufferTimeout),
        Event::Abandoned(p) => (p, AodvDropReason::DiscoveryFailed),
    };
    dropped(counters, data(&p, origin), reason)
}

/// AODV's expanding-ring search (RFC 3561 §6.4): TTL_START, growing by
/// TTL_INCREMENT up to TTL_THRESHOLD, then NET_DIAMETER for
/// RREQ_RETRIES more rounds.
impl RingSchedule for AodvConfig {
    fn next_ring(&self, prev: Option<&Ring>) -> Option<Ring> {
        let timeout = self.discovery_timeout;
        let (round, ttl) = match prev {
            None => (0, self.ttl_start),
            Some(r) if r.ttl >= self.net_diameter && r.round >= self.rreq_retries => return None,
            Some(r) if r.ttl >= self.net_diameter => (r.round + 1, self.net_diameter),
            Some(r) if r.ttl >= self.ttl_threshold => (r.round, self.net_diameter),
            Some(r) => (r.round, (r.ttl + self.ttl_increment).min(self.net_diameter)),
        };
        Some(Ring {
            round,
            ttl,
            timeout,
        })
    }
}

/// The AODV protocol engine for one node.
///
/// Every handler appends its actions to a caller-owned `out` buffer.
///
/// # Example
///
/// ```
/// use rcast_aodv::{AodvAction, AodvConfig, AodvNode, AodvPacket};
/// use rcast_engine::{NodeId, SimTime};
///
/// let mut node = AodvNode::new(NodeId::new(0), AodvConfig::default());
/// let mut actions = Vec::new();
/// node.originate(0, 0, NodeId::new(5), 512, SimTime::ZERO, &mut actions);
/// assert!(matches!(
///     actions.as_slice(),
///     [AodvAction::Broadcast { packet: AodvPacket::Rreq(_) }]
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct AodvNode {
    id: NodeId,
    cfg: AodvConfig,
    table: RoutingTable,
    seq: u32,
    od: OnDemand,
    /// Last time each neighbor was heard (hello liveness), by NodeId.
    last_heard: Vec<(NodeId, SimTime)>,
    /// Last time this node sent or relayed anything (hello gating).
    last_activity: Option<SimTime>,
    next_hello_at: SimTime,
    /// RERR rate limiting: window start and count within it.
    rerr_window: (SimTime, u32),
    /// The `(destination, seq)` pairs of the RERR being assembled.
    unreachable: Vec<(NodeId, u32)>,
    counters: AodvCounters,
}

impl AodvNode {
    /// Creates the engine for node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AodvConfig::validate`].
    pub fn new(id: NodeId, cfg: AodvConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid AODV config: {e}");
        }
        AodvNode {
            id,
            cfg,
            table: RoutingTable::new(cfg.active_route_timeout),
            seq: 0,
            od: OnDemand::new(id),
            last_heard: Vec::new(),
            last_activity: None,
            next_hello_at: SimTime::ZERO,
            rerr_window: (SimTime::ZERO, 0),
            unreachable: Vec::new(),
            counters: AodvCounters::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Cumulative statistics.
    pub fn counters(&self) -> AodvCounters {
        self.counters
    }

    /// Read access to the routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Packets parked awaiting routes.
    pub fn buffer_len(&self) -> usize {
        self.od.parked()
    }

    /// `true` while a discovery for `target` is outstanding.
    pub fn discovering(&self, target: NodeId) -> bool {
        self.od.discovering(target)
    }

    /// Wipes all volatile protocol state — what a crash does to a node.
    ///
    /// Routing table, on-demand state, neighbor liveness and timers are
    /// lost. The sequence number is incremented rather than reset (RFC
    /// 3561 §6.1), the RREQ id stays monotone ([`OnDemand::reboot`]) and
    /// the counters survive. Returns the lost packets' `(flow, seq)` ids.
    // det: cold — fault-rejoin lifecycle event: rebuilds node state outside the settled loop
    pub fn reboot(&mut self, now: SimTime) -> Vec<(u32, u64)> {
        self.table = RoutingTable::new(self.cfg.active_route_timeout);
        self.seq += 1;
        self.last_heard.clear();
        self.last_activity = None;
        self.next_hello_at = now;
        self.rerr_window = (now, 0);
        self.od.reboot()
    }

    fn note_activity(&mut self, now: SimTime) {
        self.last_activity = Some(now);
    }

    fn note_neighbor(&mut self, from: NodeId, now: SimTime) {
        match self.last_heard.binary_search_by_key(&from, |&(n, _)| n) {
            Ok(i) => self.last_heard[i].1 = now,
            Err(i) => self.last_heard.insert(i, (from, now)),
        }
        // A heard neighbor is a valid 1-hop route (RFC 3561 §6.2:
        // create/refresh the route to the previous hop).
        let seq = self.table.known_seq(from).unwrap_or(0);
        self.table.update(from, from, 1, seq, now);
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// The application asks to send `payload_bytes` to `dst`.
    pub fn originate(
        &mut self,
        flow: u32,
        seq: u64,
        dst: NodeId,
        payload_bytes: usize,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        self.note_activity(now);
        let p = Parked {
            flow,
            seq,
            dst,
            payload_bytes,
            generated_at: now,
            buffered_at: now,
        };
        if let Some(next_hop) = self.table.next_hop(dst, now) {
            self.counters.data_sent += 1;
            out.push(AodvAction::Unicast {
                next_hop,
                packet: AodvPacket::Data(data(&p, self.id)),
            });
            return;
        }
        self.park(p, data(&p, self.id), out);
    }

    /// Parks `p`, flooding a request if that starts a discovery; a full
    /// buffer drops `full` instead.
    fn park(&mut self, p: Parked, full: AodvData, out: &mut Vec<AodvAction>) {
        let (id, seq, table, counters) = (self.id, &mut self.seq, &self.table, &mut self.counters);
        let flood = |ev| out.push(on_demand(id, seq, table, counters, ev));
        let cap = self.cfg.buffer_capacity;
        if self.od.park(p, cap, &self.cfg, flood).is_err() {
            out.push(dropped(counters, full, AodvDropReason::BufferFull));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances protocol timers; call at least once per beacon interval.
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<AodvAction>) {
        // Buffer expiry, then the ring searches (OnDemand::tick).
        let (id, seq, table, counters) = (self.id, &mut self.seq, &self.table, &mut self.counters);
        let emit = |ev| out.push(on_demand(id, seq, table, counters, ev));
        self.od.tick(now, self.cfg.buffer_timeout, &self.cfg, emit);

        // Hello beacons.
        if let Some(interval) = self.cfg.hello_interval {
            if now >= self.next_hello_at {
                self.next_hello_at = now + interval;
                let active = self
                    .last_activity
                    .is_some_and(|t| now.saturating_since(t) <= self.cfg.active_route_timeout);
                if active {
                    self.counters.hello_sent += 1;
                    out.push(AodvAction::Broadcast {
                        packet: AodvPacket::Rrep(AodvRrep {
                            target: self.id,
                            target_seq: self.seq,
                            origin: self.id,
                            hop_count: 0,
                        }),
                    });
                }
            }
            // Hello-based liveness, evaluated continuously: next hops
            // silent for allowed_hello_loss intervals are gone, in
            // NodeId order.
            let deadline = interval * u64::from(self.cfg.allowed_hello_loss);
            let mut i = 0;
            while let Some(&(neighbor, heard)) = self.last_heard.get(i) {
                if now.saturating_since(heard) > deadline {
                    self.last_heard.remove(i);
                    self.break_link(neighbor, now, out);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Broadcasts a RERR for the pairs in `self.unreachable` unless the
    /// RFC's RERR_RATELIMIT window is exhausted, then clears them. The
    /// packet's own list is built only once the limit lets it through.
    fn emit_rerr(&mut self, now: SimTime, out: &mut Vec<AodvAction>) {
        if now.saturating_since(self.rerr_window.0) >= SimDuration::from_secs(1) {
            self.rerr_window = (now, 0);
        }
        if self.rerr_window.1 < self.cfg.rerr_rate_limit {
            self.rerr_window.1 += 1;
            self.counters.rerr_sent += 1;
            out.push(AodvAction::Broadcast {
                packet: AodvPacket::Rerr(AodvRerr {
                    // det: hot-ok — the packet owns its list: one allocation per RERR the rate limit lets through
                    unreachable: self.unreachable.to_vec(),
                }),
            });
        }
        self.unreachable.clear();
    }

    fn break_link(&mut self, neighbor: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        // RFC 3561 §6.11: a RERR advertises only routes *in use* —
        // those with precursors (upstream nodes forwarding through us).
        // Unused entries (e.g. idle 1-hop neighbor routes learned from
        // hellos) die silently.
        self.table
            .invalidate_via(neighbor, now, &mut self.unreachable);
        if !self.unreachable.is_empty() {
            self.emit_rerr(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Reception
    // ------------------------------------------------------------------

    /// Handles a packet addressed to this node (or a received broadcast).
    pub fn receive(
        &mut self,
        packet: AodvPacket,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        self.receive_ref(&packet, from, now, out);
    }

    /// Borrowing variant of [`receive`](Self::receive) for broadcast
    /// fan-out: one interned packet is handed to every recipient, and
    /// every handler reads it in place.
    pub fn receive_ref(
        &mut self,
        packet: &AodvPacket,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        self.note_neighbor(from, now);
        match packet {
            AodvPacket::Rreq(r) => self.receive_rreq(r, from, now, out),
            AodvPacket::Rrep(r) => self.receive_rrep(r, from, now, out),
            AodvPacket::Rerr(e) => self.receive_rerr(e, from, now, out),
            AodvPacket::Data(d) => self.receive_data(d, from, now, out),
        }
    }

    fn receive_rreq(
        &mut self,
        r: &AodvRreq,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        if r.origin == self.id || !self.od.first_sighting(r.origin, r.id) {
            return;
        }
        // Reverse route to the origin through the previous hop.
        self.table
            .update(r.origin, from, r.hop_count + 1, r.origin_seq, now);

        if r.target == self.id {
            // RFC 3561 §6.6.1: the destination bumps its sequence number
            // to at least the requested one.
            self.seq = self.seq.max(r.target_seq.unwrap_or(0)).max(self.seq);
            if r.target_seq == Some(self.seq) {
                self.seq += 1;
            }
            self.note_activity(now);
            self.counters.rrep_from_target += 1;
            out.push(AodvAction::Unicast {
                next_hop: from,
                packet: AodvPacket::Rrep(AodvRrep {
                    target: self.id,
                    target_seq: self.seq,
                    origin: r.origin,
                    hop_count: 0,
                }),
            });
            return;
        }

        // Intermediate reply when we know a fresh-enough route.
        if self.cfg.intermediate_reply {
            if let Some(route) = self.table.route_for(r.target, now) {
                let fresh = match r.target_seq {
                    None => true,
                    Some(wanted) => route.dst_seq >= wanted,
                };
                if fresh {
                    let (hops, seq, fwd_next) = (route.hops, route.dst_seq, route.next_hop);
                    self.table.add_precursor(r.target, from);
                    self.table.add_precursor(r.origin, fwd_next);
                    self.counters.rrep_from_table += 1;
                    out.push(AodvAction::Unicast {
                        next_hop: from,
                        packet: AodvPacket::Rrep(AodvRrep {
                            target: r.target,
                            target_seq: seq,
                            origin: r.origin,
                            hop_count: hops,
                        }),
                    });
                    return;
                }
            }
        }

        if r.ttl > 1 {
            self.counters.rreq_forwarded += 1;
            out.push(AodvAction::Broadcast {
                packet: AodvPacket::Rreq(AodvRreq {
                    hop_count: r.hop_count + 1,
                    ttl: r.ttl - 1,
                    ..*r
                }),
            });
        }
    }

    fn receive_rrep(
        &mut self,
        r: &AodvRrep,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        if r.is_hello() {
            // note_neighbor already refreshed the 1-hop route; upgrade
            // its sequence number.
            self.table.update(from, from, 1, r.target_seq, now);
            return;
        }
        // Forward route to the target via the reply's sender.
        self.table
            .update(r.target, from, r.hop_count + 1, r.target_seq, now);

        if r.origin == self.id {
            self.od.complete(r.target);
            self.drain_buffer(now, out);
            return;
        }
        // Relay toward the origin along the reverse route.
        if let Some(back) = self.table.next_hop(r.origin, now) {
            self.table.add_precursor(r.target, back);
            self.table.add_precursor(r.origin, from);
            self.note_activity(now);
            self.counters.rrep_forwarded += 1;
            out.push(AodvAction::Unicast {
                next_hop: back,
                packet: AodvPacket::Rrep(AodvRrep {
                    hop_count: r.hop_count + 1,
                    ..*r
                }),
            });
        }
    }

    fn receive_rerr(
        &mut self,
        e: &AodvRerr,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        for &(dst, seq) in &e.unreachable {
            let via_sender = self.table.peek(dst).is_some_and(|r| r.next_hop == from);
            // Cascade only for routes someone upstream was using.
            if via_sender && self.table.invalidate_dst(dst, seq, now) {
                self.unreachable.push((dst, seq));
            }
        }
        if !self.unreachable.is_empty() {
            self.emit_rerr(now, out);
        }
    }

    fn receive_data(
        &mut self,
        d: &AodvData,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        if d.dst == self.id {
            self.note_activity(now);
            self.counters.data_delivered += 1;
            out.push(AodvAction::Delivered { packet: *d });
            return;
        }
        match self.table.next_hop(d.dst, now) {
            Some(next_hop) => {
                self.table.add_precursor(d.dst, from);
                // Keep the reverse route alive for replies.
                let _ = self.table.next_hop(d.src, now);
                self.note_activity(now);
                self.counters.data_forwarded += 1;
                out.push(AodvAction::Unicast {
                    next_hop,
                    packet: AodvPacket::Data(AodvData {
                        hops: d.hops + 1,
                        ..*d
                    }),
                });
            }
            None => {
                // No route: drop and advertise the hole (RFC §6.11 case
                // ii), subject to the RERR rate limit.
                let seq = self.table.known_seq(d.dst).map_or(0, |s| s + 1);
                out.push(dropped(&mut self.counters, *d, AodvDropReason::NoRoute));
                self.unreachable.push((d.dst, seq));
                self.emit_rerr(now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Link failures
    // ------------------------------------------------------------------

    /// The MAC reports `next_hop` unreachable and returns the packet.
    pub fn link_failure(
        &mut self,
        next_hop: NodeId,
        packet: AodvPacket,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        self.break_link(next_hop, now, out);
        if let Ok(i) = self.last_heard.binary_search_by_key(&next_hop, |&(n, _)| n) {
            self.last_heard.remove(i);
        }
        let AodvPacket::Data(d) = packet else {
            return;
        };
        if d.src == self.id {
            // Re-enter discovery.
            let p = Parked {
                flow: d.flow,
                seq: d.seq,
                dst: d.dst,
                payload_bytes: d.payload_bytes,
                generated_at: d.generated_at,
                buffered_at: now,
            };
            self.park(p, d, out);
        } else {
            out.push(dropped(&mut self.counters, d, AodvDropReason::LinkBroken));
        }
    }

    /// Sends every buffered packet that now has a route, in buffer
    /// order, keeping the rest in place.
    fn drain_buffer(&mut self, now: SimTime, out: &mut Vec<AodvAction>) {
        let (id, table, counters) = (self.id, &mut self.table, &mut self.counters);
        self.od.drain(|p| {
            let Some(next_hop) = table.next_hop(p.dst, now) else {
                return false;
            };
            counters.data_sent += 1;
            out.push(AodvAction::Unicast {
                next_hop,
                packet: AodvPacket::Data(data(p, id)),
            });
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcast_engine::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Runs one handler call into a fresh out-buffer and returns it.
    fn acts(call: impl FnOnce(&mut Vec<AodvAction>)) -> Vec<AodvAction> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn node(i: u32) -> AodvNode {
        AodvNode::new(n(i), AodvConfig::default())
    }

    fn no_hello(i: u32) -> AodvNode {
        let cfg = AodvConfig {
            hello_interval: None,
            ..AodvConfig::default()
        };
        AodvNode::new(n(i), cfg)
    }

    #[test]
    fn originate_without_route_ring_searches() {
        let mut s = node(0);
        let actions = acts(|o| s.originate(0, 0, n(9), 512, SimTime::ZERO, o));
        match &actions[..] {
            [AodvAction::Broadcast { packet: AodvPacket::Rreq(r) }] => {
                assert_eq!(r.origin, n(0));
                assert_eq!(r.target, n(9));
                assert_eq!(r.ttl, AodvConfig::default().ttl_start);
                assert_eq!(r.origin_seq, 1, "own seq bumped before RREQ");
                assert_eq!(r.target_seq, None, "unknown destination seq");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.discovering(n(9)));
        assert_eq!(s.buffer_len(), 1);
    }

    #[test]
    fn rreq_builds_reverse_route_and_target_replies() {
        let mut t = node(2);
        let rreq = AodvRreq {
            origin: n(0),
            origin_seq: 4,
            target: n(2),
            target_seq: None,
            id: 0,
            hop_count: 1,
            ttl: 14,
        };
        let actions = acts(|o| t.receive(AodvPacket::Rreq(rreq), n(1), SimTime::ZERO, o));
        match &actions[..] {
            [AodvAction::Unicast { next_hop, packet: AodvPacket::Rrep(r) }] => {
                assert_eq!(*next_hop, n(1));
                assert_eq!(r.target, n(2));
                assert_eq!(r.origin, n(0));
                assert_eq!(r.hop_count, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Reverse route: origin reachable via the previous hop, 2 hops.
        let route = t.table().peek(n(0)).expect("reverse route");
        assert_eq!(route.next_hop, n(1));
        assert_eq!(route.hops, 2);
    }

    #[test]
    fn duplicate_rreq_suppressed_and_ttl_respected() {
        let mut m = node(1);
        let rreq = AodvRreq {
            origin: n(0),
            origin_seq: 1,
            target: n(9),
            target_seq: None,
            id: 3,
            hop_count: 0,
            ttl: 5,
        };
        let first = acts(|o| m.receive(AodvPacket::Rreq(rreq), n(0), SimTime::ZERO, o));
        match &first[..] {
            [AodvAction::Broadcast { packet: AodvPacket::Rreq(f) }] => {
                assert_eq!(f.ttl, 4);
                assert_eq!(f.hop_count, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(acts(|o| m.receive(AodvPacket::Rreq(rreq), n(5), SimTime::ZERO, o)).is_empty());
        // TTL 1 dies here.
        let mut m2 = node(4);
        let dying = AodvRreq { ttl: 1, id: 9, ..rreq };
        assert!(acts(|o| m2.receive(AodvPacket::Rreq(dying), n(0), SimTime::ZERO, o)).is_empty());
    }

    #[test]
    fn intermediate_replies_from_fresh_table() {
        let mut m = node(1);
        // Seed a fresh route to the target.
        m.table.update(n(9), n(5), 2, 7, SimTime::ZERO);
        let rreq = AodvRreq {
            origin: n(0),
            origin_seq: 1,
            target: n(9),
            target_seq: Some(6),
            id: 0,
            hop_count: 0,
            ttl: 10,
        };
        let actions = acts(|o| m.receive(AodvPacket::Rreq(rreq), n(0), SimTime::ZERO, o));
        match &actions[..] {
            [AodvAction::Unicast { next_hop, packet: AodvPacket::Rrep(r) }] => {
                assert_eq!(*next_hop, n(0));
                assert_eq!(r.target_seq, 7);
                assert_eq!(r.hop_count, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.counters().rrep_from_table, 1);
        // A staler table entry does not satisfy a fresher request.
        let mut m2 = node(2);
        m2.table.update(n(9), n(5), 2, 4, SimTime::ZERO);
        let picky = AodvRreq { target_seq: Some(6), id: 1, ..rreq };
        let actions = acts(|o| m2.receive(AodvPacket::Rreq(picky), n(0), SimTime::ZERO, o));
        assert!(matches!(
            &actions[..],
            [AodvAction::Broadcast { packet: AodvPacket::Rreq(_) }]
        ));
    }

    #[test]
    fn rrep_installs_forward_route_and_drains_buffer() {
        let mut s = no_hello(0);
        acts(|o| s.originate(3, 0, n(2), 512, SimTime::ZERO, o));
        let rrep = AodvRrep {
            target: n(2),
            target_seq: 5,
            origin: n(0),
            hop_count: 0,
        };
        let actions = acts(|o| s.receive(AodvPacket::Rrep(rrep), n(1), SimTime::from_secs(1), o));
        let sent = actions.iter().find_map(|a| match a {
            AodvAction::Unicast { next_hop, packet: AodvPacket::Data(d) } => {
                Some((*next_hop, *d))
            }
            _ => None,
        });
        let (hop, d) = sent.expect("buffered packet must flush");
        assert_eq!(hop, n(1));
        assert_eq!(d.flow, 3);
        assert!(!s.discovering(n(2)));
        assert_eq!(s.buffer_len(), 0);
    }

    #[test]
    fn data_forwards_by_table_and_delivers() {
        let mut relay = no_hello(1);
        relay.table.update(n(2), n(2), 1, 1, SimTime::ZERO);
        let d = AodvData {
            flow: 0,
            seq: 0,
            src: n(0),
            dst: n(2),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            hops: 0,
        };
        let actions = acts(|o| relay.receive(AodvPacket::Data(d), n(0), SimTime::ZERO, o));
        assert!(actions.iter().any(|a| matches!(
            a,
            AodvAction::Unicast { next_hop, packet: AodvPacket::Data(x) }
                if *next_hop == n(2) && x.hops == 1
        )));
        let mut dest = no_hello(2);
        let actions = acts(|o| dest.receive(AodvPacket::Data(d), n(1), SimTime::ZERO, o));
        assert!(actions
            .iter()
            .any(|a| matches!(a, AodvAction::Delivered { .. })));
    }

    #[test]
    fn routeless_relay_drops_and_advertises() {
        let mut relay = no_hello(1);
        let d = AodvData {
            flow: 0,
            seq: 0,
            src: n(0),
            dst: n(9),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            hops: 0,
        };
        let actions = acts(|o| relay.receive(AodvPacket::Data(d), n(0), SimTime::ZERO, o));
        assert!(actions
            .iter()
            .any(|a| matches!(a, AodvAction::Dropped { reason: AodvDropReason::NoRoute, .. })));
        assert!(actions.iter().any(|a| matches!(
            a,
            AodvAction::Broadcast { packet: AodvPacket::Rerr(_) }
        )));
    }

    #[test]
    fn link_failure_invalidates_and_rediscovers_at_source() {
        let mut s = no_hello(0);
        s.table.update(n(9), n(1), 2, 3, SimTime::ZERO);
        let d = AodvData {
            flow: 0,
            seq: 0,
            src: n(0),
            dst: n(9),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            hops: 0,
        };
        let actions = acts(|o| s.link_failure(n(1), AodvPacket::Data(d), SimTime::from_secs(1), o));
        // The source has no upstream precursors, so no RERR goes out —
        // it simply rediscovers.
        assert!(!actions.iter().any(|a| matches!(
            a,
            AodvAction::Broadcast { packet: AodvPacket::Rerr(_) }
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            AodvAction::Broadcast { packet: AodvPacket::Rreq(_) }
        )));
        assert!(s.discovering(n(9)));
        assert!(s.table().peek(n(9)).unwrap().expires <= SimTime::from_secs(1));
    }

    #[test]
    fn link_failure_at_relay_reports_to_precursors() {
        let mut relay = no_hello(1);
        relay.table.update(n(9), n(2), 2, 3, SimTime::ZERO);
        relay.table.add_precursor(n(9), n(0));
        let d = AodvData {
            flow: 0,
            seq: 0,
            src: n(0),
            dst: n(9),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            hops: 1,
        };
        let actions =
            acts(|o| relay.link_failure(n(2), AodvPacket::Data(d), SimTime::from_secs(1), o));
        assert!(actions.iter().any(|a| matches!(
            a,
            AodvAction::Broadcast { packet: AodvPacket::Rerr(e) }
                if e.unreachable.iter().any(|&(dst, _)| dst == n(9))
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            AodvAction::Dropped { reason: AodvDropReason::LinkBroken, .. }
        )));
    }

    #[test]
    fn rerr_cascades_only_over_matching_next_hops() {
        let mut m = no_hello(1);
        m.table.update(n(9), n(2), 2, 3, SimTime::ZERO);
        m.table.add_precursor(n(9), n(0));
        m.table.update(n(8), n(5), 2, 3, SimTime::ZERO);
        m.table.add_precursor(n(8), n(0));
        let rerr = AodvRerr {
            unreachable: vec![(n(9), 4), (n(8), 4)],
        };
        let actions = acts(|o| m.receive(AodvPacket::Rerr(rerr), n(2), SimTime::ZERO, o));
        match &actions[..] {
            [AodvAction::Broadcast { packet: AodvPacket::Rerr(e) }] => {
                assert_eq!(e.unreachable, vec![(n(9), 4)], "only the route via the sender dies");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(m.table.peek(n(8)).unwrap().expires > SimTime::ZERO);
    }

    #[test]
    fn hello_emitted_only_when_active_and_silence_breaks_links() {
        let mut m = node(1);
        // Idle node: no hello.
        let t1 = SimTime::from_secs(1);
        assert!(acts(|o| m.tick(t1, o)).is_empty());
        // Activity enables hellos.
        acts(|o| m.originate(0, 0, n(9), 64, t1, o)); // buffers + RREQ, marks activity
        let actions = acts(|o| m.tick(SimTime::from_secs(2), o));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                AodvAction::Broadcast { packet: AodvPacket::Rrep(h) } if h.is_hello()
            )),
            "{actions:?}"
        );
        // A neighbor heard once and then silent for > 2 intervals breaks.
        let mut x = node(3);
        x.note_activity(SimTime::ZERO);
        let hello = AodvPacket::Rrep(AodvRrep {
            target: n(7),
            target_seq: 1,
            origin: n(7),
            hop_count: 0,
        });
        acts(|o| x.receive(hello, n(7), SimTime::ZERO, o));
        assert!(x.table().peek(n(7)).is_some());
        // Someone upstream routes through us via 7, making it "in use".
        x.table.add_precursor(n(7), n(5));
        let mut broke = false;
        for half_s in 1..12u64 {
            let actions = acts(|o| x.tick(SimTime::from_millis(half_s * 500), o));
            if actions.iter().any(|a| matches!(
                a,
                AodvAction::Broadcast { packet: AodvPacket::Rerr(_) }
            )) {
                broke = true;
            }
        }
        assert!(broke, "silent neighbor must be declared broken");
    }

    #[test]
    fn ring_search_escalates_to_network_and_gives_up() {
        let cfg = AodvConfig::default();
        let mut s = no_hello(0);
        acts(|o| s.originate(0, 0, n(9), 64, SimTime::ZERO, o));
        let mut t = SimTime::ZERO;
        let mut ttls = Vec::new();
        let mut dropped = false;
        for _ in 0..12 {
            t += SimDuration::from_secs(5);
            for a in acts(|o| s.tick(t, o)) {
                match a {
                    AodvAction::Broadcast { packet: AodvPacket::Rreq(r) } => ttls.push(r.ttl),
                    AodvAction::Dropped { reason: AodvDropReason::DiscoveryFailed, .. } => {
                        dropped = true
                    }
                    AodvAction::Dropped { reason: AodvDropReason::BufferTimeout, .. } => {
                        dropped = true
                    }
                    _ => {}
                }
            }
            if dropped {
                break;
            }
        }
        assert!(ttls.windows(2).all(|w| w[0] <= w[1]), "TTLs escalate: {ttls:?}");
        assert!(ttls.contains(&cfg.net_diameter));
        assert!(dropped, "discovery must eventually give up");
        assert_eq!(s.buffer_len(), 0);
    }
}
