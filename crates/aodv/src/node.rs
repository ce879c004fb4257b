//! The per-node AODV state machine.
//!
//! Event-driven like its DSR sibling: receptions, link failures and
//! timer ticks come in; [`AodvAction`]s come out. AODV differs from DSR
//! in exactly the ways the Rcast paper highlights (Section 1, footnote
//! 1): no overhearing — route state lives in soft-state tables kept
//! alive by timeouts and hello beacons — so route information decays
//! unless refreshed by *more flooding*.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use rcast_engine::{NodeId, SimTime};

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

#[derive(Debug, Clone)]
struct Buffered {
    flow: u32,
    seq: u64,
    dst: NodeId,
    payload_bytes: usize,
    generated_at: SimTime,
    buffered_at: SimTime,
}

impl Buffered {
    /// The packet as a `Dropped` report from source `src`.
    fn orphan(&self, src: NodeId) -> AodvData {
        AodvData {
            flow: self.flow,
            seq: self.seq,
            src,
            dst: self.dst,
            payload_bytes: self.payload_bytes,
            generated_at: self.generated_at,
            hops: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Discovery {
    round: u32,
    ttl: u8,
    deadline: SimTime,
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
    next_rreq_id: u32,
    // BTree collections throughout: protocol state iteration must be
    // ordered so results never depend on hasher state (rcast-lint D002).
    seen_rreq: BTreeSet<(NodeId, u32)>,
    buffer: Vec<Buffered>,
    discoveries: BTreeMap<NodeId, Discovery>,
    /// Last time each neighbor was heard (hello liveness).
    last_heard: BTreeMap<NodeId, SimTime>,
    /// Last time this node sent or relayed anything (hello gating).
    last_activity: Option<SimTime>,
    next_hello_at: SimTime,
    /// RERR rate limiting: window start and count within it.
    rerr_window: (SimTime, u32),
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
            next_rreq_id: 0,
            seen_rreq: BTreeSet::new(),
            buffer: Vec::new(),
            discoveries: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            last_activity: None,
            next_hello_at: SimTime::ZERO,
            rerr_window: (SimTime::ZERO, 0),
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
        self.buffer.len()
    }

    /// `true` while a discovery for `target` is outstanding.
    pub fn discovering(&self, target: NodeId) -> bool {
        self.discoveries.contains_key(&target)
    }

    /// Wipes all volatile protocol state — what a crash does to a node.
    ///
    /// Routing table, buffered packets, duplicate suppression, neighbor
    /// liveness and timers are lost. The sequence number is incremented
    /// rather than reset (RFC 3561 §6.1: a rebooting node must not reuse
    /// stale sequence numbers), the RREQ id stays monotone, and the
    /// cumulative counters survive. Returns the `(flow, seq)` ids of
    /// the buffered data packets that died with the node.
    // det: cold — fault-rejoin lifecycle event: rebuilds node state outside the settled loop
    pub fn reboot(&mut self, now: SimTime) -> Vec<(u32, u64)> {
        let lost = self.buffer.iter().map(|b| (b.flow, b.seq)).collect();
        self.table = RoutingTable::new(self.cfg.active_route_timeout);
        self.seq += 1;
        self.seen_rreq.clear();
        self.buffer.clear();
        self.discoveries.clear();
        self.last_heard.clear();
        self.last_activity = None;
        self.next_hello_at = now;
        self.rerr_window = (now, 0);
        lost
    }

    fn note_activity(&mut self, now: SimTime) {
        self.last_activity = Some(now);
    }

    fn note_neighbor(&mut self, from: NodeId, now: SimTime) {
        self.last_heard.insert(from, now);
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
        if let Some(next_hop) = self.table.next_hop(dst, now) {
            self.counters.data_sent += 1;
            out.push(AodvAction::Unicast {
                next_hop,
                packet: AodvPacket::Data(AodvData {
                    flow,
                    seq,
                    src: self.id,
                    dst,
                    payload_bytes,
                    generated_at: now,
                    hops: 0,
                }),
            });
            return;
        }
        let b = Buffered {
            flow,
            seq,
            dst,
            payload_bytes,
            generated_at: now,
            buffered_at: now,
        };
        if self.buffer.len() >= self.cfg.buffer_capacity {
            self.counters.data_dropped += 1;
            out.push(AodvAction::Dropped {
                packet: b.orphan(self.id),
                reason: AodvDropReason::BufferFull,
            });
            return;
        }
        self.buffer.push(b);
        if !self.discoveries.contains_key(&dst) {
            self.start_discovery(dst, now, out);
        }
    }

    fn start_discovery(&mut self, target: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        let ttl = self.cfg.ttl_start;
        self.discoveries.insert(
            target,
            Discovery {
                round: 0,
                ttl,
                deadline: now + self.cfg.discovery_timeout,
            },
        );
        out.push(self.emit_rreq(target, ttl));
    }

    fn emit_rreq(&mut self, target: NodeId, ttl: u8) -> AodvAction {
        // RFC 3561 §6.3: increment own sequence number before a RREQ.
        self.seq += 1;
        let id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.seen_rreq.insert((self.id, id));
        self.counters.rreq_originated += 1;
        AodvAction::Broadcast {
            packet: AodvPacket::Rreq(AodvRreq {
                origin: self.id,
                origin_seq: self.seq,
                target,
                target_seq: self.table.known_seq(target),
                id,
                hop_count: 0,
                ttl,
            }),
        }
    }

    /// Drops every buffered packet matching `dead`, in buffer order,
    /// reporting each as `reason`.
    fn drop_buffered(
        &mut self,
        dead: impl Fn(&Buffered) -> bool,
        reason: AodvDropReason,
        out: &mut Vec<AodvAction>,
    ) {
        let (id, counters) = (self.id, &mut self.counters);
        self.buffer.retain(|b| {
            if !dead(b) {
                return true;
            }
            counters.data_dropped += 1;
            out.push(AodvAction::Dropped {
                packet: b.orphan(id),
                reason,
            });
            false
        });
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances protocol timers; call at least once per beacon interval.
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<AodvAction>) {
        // Buffer expiry.
        let timeout = self.cfg.buffer_timeout;
        self.drop_buffered(
            |b| now.saturating_since(b.buffered_at) > timeout,
            AodvDropReason::BufferTimeout,
            out,
        );

        // Cancel discoveries with nothing waiting.
        let buffer = &self.buffer;
        self.discoveries
            .retain(|t, _| buffer.iter().any(|b| b.dst == *t));

        // Ring-search escalation / abandonment. The BTreeMap iterates
        // in NodeId order, so event order never depends on hasher state.
        let mut after = None;
        while let Some((target, d)) = next_after(&self.discoveries, after, |d| d.deadline <= now) {
            after = Some(target);
            let at_network_ttl = d.ttl >= self.cfg.net_diameter;
            if at_network_ttl && d.round >= self.cfg.rreq_retries {
                self.discoveries.remove(&target);
                self.drop_buffered(|b| b.dst == target, AodvDropReason::DiscoveryFailed, out);
                continue;
            }
            let next_ttl = if d.ttl >= self.cfg.ttl_threshold {
                self.cfg.net_diameter
            } else {
                (d.ttl + self.cfg.ttl_increment).min(self.cfg.net_diameter)
            };
            let next_round = if at_network_ttl { d.round + 1 } else { d.round };
            if let Some(entry) = self.discoveries.get_mut(&target) {
                entry.ttl = next_ttl;
                entry.round = next_round;
                entry.deadline = now + self.cfg.discovery_timeout;
            }
            out.push(self.emit_rreq(target, next_ttl));
        }

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
            // silent for allowed_hello_loss intervals are gone.
            let deadline = interval * u64::from(self.cfg.allowed_hello_loss);
            let mut after = None;
            while let Some((neighbor, _)) = next_after(&self.last_heard, after, |&t| {
                now.saturating_since(t) > deadline
            }) {
                after = Some(neighbor);
                self.last_heard.remove(&neighbor);
                self.break_link(neighbor, now, out);
            }
        }
    }

    /// Emits a RERR unless the RFC's RERR_RATELIMIT window is exhausted.
    fn emit_rerr(&mut self, unreachable: Vec<(NodeId, u32)>, now: SimTime) -> Option<AodvAction> {
        let (window_start, count) = self.rerr_window;
        let one_second = rcast_engine::SimDuration::from_secs(1);
        if now.saturating_since(window_start) >= one_second {
            self.rerr_window = (now, 0);
        }
        if self.rerr_window.1 >= self.cfg.rerr_rate_limit {
            let _ = count;
            return None;
        }
        self.rerr_window.1 += 1;
        self.counters.rerr_sent += 1;
        Some(AodvAction::Broadcast {
            packet: AodvPacket::Rerr(AodvRerr { unreachable }),
        })
    }

    // det: hot-ok — link-breakage repair path, driven by MAC failure events
    fn break_link(&mut self, neighbor: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        let broken = self.table.invalidate_via(neighbor, now);
        // RFC 3561 §6.11: a RERR advertises only routes *in use* —
        // those with precursors (upstream nodes forwarding through us).
        // Unused entries (e.g. idle 1-hop neighbor routes learned from
        // hellos) die silently.
        let unreachable: Vec<(NodeId, u32)> = broken
            .iter()
            .filter(|(_, _, pre)| !pre.is_empty())
            .map(|&(d, s, _)| (d, s))
            .collect();
        if unreachable.is_empty() {
            return;
        }
        out.extend(self.emit_rerr(unreachable, now));
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
        self.note_neighbor(from, now);
        match packet {
            AodvPacket::Rreq(r) => self.receive_rreq(r, from, now, out),
            AodvPacket::Rrep(r) => self.receive_rrep(r, from, now, out),
            AodvPacket::Rerr(e) => self.receive_rerr(e, from, now, out),
            AodvPacket::Data(d) => self.receive_data(d, from, now, out),
        }
    }

    /// Borrowing variant of [`receive`](Self::receive) for broadcast
    /// fan-out: one interned packet is handed to every recipient.
    /// Every AODV packet except RERR is fixed-size (no heap payload),
    /// so the clone here is a plain memcpy; RERRs carry a short
    /// unreachable-set and are never broadcast on the hot path.
    pub fn receive_ref(
        &mut self,
        packet: &AodvPacket,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<AodvAction>,
    ) {
        // det: hot-ok — fixed-size packets; the clone is a plain memcpy
        self.receive(packet.clone(), from, now, out)
    }

    fn receive_rreq(&mut self, r: AodvRreq, from: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        if r.origin == self.id || !self.seen_rreq.insert((r.origin, r.id)) {
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
                    ..r
                }),
            });
        }
    }

    fn receive_rrep(&mut self, r: AodvRrep, from: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
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
            self.discoveries.remove(&r.target);
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
                    ..r
                }),
            });
        }
    }

    // det: hot-ok — error-propagation path, driven by link-failure events
    fn receive_rerr(&mut self, e: AodvRerr, from: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        let mut cascaded = Vec::new();
        for &(dst, seq) in &e.unreachable {
            let via_sender = self
                .table
                .peek(dst)
                .is_some_and(|r| r.next_hop == from);
            if !via_sender {
                continue;
            }
            match self.table.invalidate_dst(dst, seq, now) {
                // Cascade only for routes someone upstream was using.
                Some(precursors) if !precursors.is_empty() => cascaded.push((dst, seq)),
                _ => {}
            }
        }
        if cascaded.is_empty() {
            return;
        }
        out.extend(self.emit_rerr(cascaded, now));
    }

    // det: hot-ok — per-packet data-plane event, outside the quiet-interval zero-alloc contract (crates/bench/tests/zero_alloc.rs)
    fn receive_data(&mut self, d: AodvData, from: NodeId, now: SimTime, out: &mut Vec<AodvAction>) {
        if d.dst == self.id {
            self.note_activity(now);
            self.counters.data_delivered += 1;
            out.push(AodvAction::Delivered { packet: d });
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
                        ..d
                    }),
                });
            }
            None => {
                // No route: drop and advertise the hole (RFC §6.11 case
                // ii), subject to the RERR rate limit.
                let seq = self.table.known_seq(d.dst).map_or(0, |s| s + 1);
                self.counters.data_dropped += 1;
                out.push(AodvAction::Dropped {
                    packet: d,
                    reason: AodvDropReason::NoRoute,
                });
                out.extend(self.emit_rerr(vec![(d.dst, seq)], now));
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
        self.last_heard.remove(&next_hop);
        let AodvPacket::Data(d) = packet else {
            return;
        };
        if d.src == self.id {
            // Re-enter discovery.
            if self.buffer.len() < self.cfg.buffer_capacity {
                self.buffer.push(Buffered {
                    flow: d.flow,
                    seq: d.seq,
                    dst: d.dst,
                    payload_bytes: d.payload_bytes,
                    generated_at: d.generated_at,
                    buffered_at: now,
                });
                if !self.discoveries.contains_key(&d.dst) {
                    self.start_discovery(d.dst, now, out);
                }
            } else {
                self.counters.data_dropped += 1;
                out.push(AodvAction::Dropped {
                    packet: d,
                    reason: AodvDropReason::BufferFull,
                });
            }
        } else {
            self.counters.data_dropped += 1;
            out.push(AodvAction::Dropped {
                packet: d,
                reason: AodvDropReason::LinkBroken,
            });
        }
    }

    /// Sends every buffered packet that now has a route, in buffer
    /// order, keeping the rest in place.
    fn drain_buffer(&mut self, now: SimTime, out: &mut Vec<AodvAction>) {
        let mut i = 0;
        while i < self.buffer.len() {
            let Some(next_hop) = self.table.next_hop(self.buffer[i].dst, now) else {
                i += 1;
                continue;
            };
            let b = self.buffer.remove(i);
            self.counters.data_sent += 1;
            self.discoveries.remove(&b.dst);
            out.push(AodvAction::Unicast {
                next_hop,
                packet: AodvPacket::Data(AodvData {
                    flow: b.flow,
                    seq: b.seq,
                    src: self.id,
                    dst: b.dst,
                    payload_bytes: b.payload_bytes,
                    generated_at: b.generated_at,
                    hops: 0,
                }),
            });
        }
    }
}

/// The first entry of `map` after key `after` (from the start when
/// `None`), in key order, whose value passes `due`.
fn next_after<V: Copy>(
    map: &BTreeMap<NodeId, V>,
    after: Option<NodeId>,
    due: impl Fn(&V) -> bool,
) -> Option<(NodeId, V)> {
    let lower = after.map_or(Bound::Unbounded, Bound::Excluded);
    map.range((lower, Bound::Unbounded))
        .find(|(_, v)| due(v))
        .map(|(&k, &v)| (k, v))
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
