//! The per-node DSR state machine.
//!
//! [`DsrNode`] is a pure protocol engine: events come in (packet
//! receptions, overhearings, link failures, timer ticks, application
//! sends) and [`DsrAction`]s come out (transmissions, deliveries,
//! drops). It owns no clock, radio or queue — the simulation core
//! wires it to the MAC — which makes every protocol rule unit-testable
//! in isolation.

use std::collections::BTreeMap;

use rcast_engine::ondemand::{Event, OnDemand, Parked, Ring, RingSchedule};
use rcast_engine::{NodeId, SimTime};

use crate::cache::RouteCache;
use crate::config::DsrConfig;
use crate::packet::{DataPacket, DsrPacket, Rerr, Rreq, Rrep};
use crate::route::{NodePath, SourceRoute};

/// Why a data packet was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The send buffer was full when the packet arrived.
    SendBufferFull,
    /// The packet waited in the send buffer past the timeout.
    SendBufferTimeout,
    /// Route discovery exhausted its retries.
    DiscoveryFailed,
    /// A relay hit a broken link and could not salvage.
    SalvageFailed,
    /// The relay was not on the packet's source route (malformed).
    NotOnRoute,
}

/// An output of the DSR state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsrAction {
    /// Transmit `packet` to `next_hop`.
    Unicast {
        /// Layer-2 receiver.
        next_hop: NodeId,
        /// The packet to send.
        packet: DsrPacket,
    },
    /// Flood `packet` to all neighbors.
    Broadcast {
        /// The packet to flood.
        packet: DsrPacket,
    },
    /// This node is the packet's final destination.
    Delivered {
        /// The arrived data packet.
        packet: DataPacket,
    },
    /// The node gave up on a data packet.
    Dropped {
        /// The abandoned packet (route reflects its last known header).
        packet: DataPacket,
        /// Why it was abandoned.
        reason: DropReason,
    },
}

/// Cumulative per-node protocol statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsrCounters {
    /// Route discoveries initiated (including retries).
    pub rreq_originated: u64,
    /// RREQ rebroadcasts performed.
    pub rreq_forwarded: u64,
    /// RREPs generated as the discovery target.
    pub rrep_from_target: u64,
    /// RREPs generated from the route cache.
    pub rrep_from_cache: u64,
    /// RREPs relayed toward their origin.
    pub rrep_forwarded: u64,
    /// RERRs generated at a detected break.
    pub rerr_originated: u64,
    /// RERRs relayed toward the source.
    pub rerr_forwarded: u64,
    /// Data packets sent with a route at this node (as source).
    pub data_sent: u64,
    /// Data packets relayed.
    pub data_forwarded: u64,
    /// Data packets re-routed around a break.
    pub data_salvaged: u64,
    /// Data packets delivered to this node.
    pub data_delivered: u64,
    /// Data packets abandoned here, any reason.
    pub data_dropped: u64,
}

impl DsrCounters {
    /// Labeled control-plane totals, for trace summaries: how many
    /// RREQ/RREP/RERR events this node produced, by label.
    pub fn control_events(&self) -> [(&'static str, u64); 3] {
        [
            ("rreq", self.rreq_originated + self.rreq_forwarded),
            (
                "rrep",
                self.rrep_from_target + self.rrep_from_cache + self.rrep_forwarded,
            ),
            ("rerr", self.rerr_originated + self.rerr_forwarded),
        ]
    }
}

/// The data packet a parked one becomes once `route` is found.
fn routed(p: &Parked, route: SourceRoute) -> DataPacket {
    DataPacket {
        flow: p.flow,
        seq: p.seq,
        route,
        payload_bytes: p.payload_bytes,
        generated_at: p.generated_at,
        salvage_count: 0,
    }
}

/// A parked packet as a `Dropped` report from source `src`: it never
/// had a valid route, so it carries the direct `src → dst` pair.
fn orphan(p: &Parked, src: NodeId) -> DataPacket {
    let route = SourceRoute::from_slice(&[src, p.dst]).unwrap_or_else(|| {
        // dst == src can't occur for traffic, but stay total.
        SourceRoute::from_slice(&[src, NodeId::new(u32::MAX)]).expect("distinct ids")
    });
    routed(p, route)
}

/// Counts `packet` as dropped here for `reason` and reports it.
fn dropped(counters: &mut DsrCounters, packet: DataPacket, reason: DropReason) -> DsrAction {
    counters.data_dropped += 1;
    DsrAction::Dropped { packet, reason }
}

/// The action for what the on-demand core of node `origin` reports: a
/// route request to flood, or a parked packet given up.
fn on_demand(origin: NodeId, counters: &mut DsrCounters, ev: Event) -> DsrAction {
    let (p, reason) = match ev {
        Event::Flood { target, ttl, id } => {
            counters.rreq_originated += 1;
            return DsrAction::Broadcast {
                packet: DsrPacket::Rreq(Rreq {
                    origin,
                    target,
                    id,
                    ttl,
                    record: NodePath::from_slice(&[origin]),
                }),
            };
        }
        Event::Expired(p) => (p, DropReason::SendBufferTimeout),
        Event::Abandoned(p) => (p, DropReason::DiscoveryFailed),
    };
    dropped(counters, orphan(&p, origin), reason)
}

/// DSR's discovery: a non-propagating first round when ring search is
/// on, then network-wide floods with exponential backoff.
impl RingSchedule for DsrConfig {
    fn next_ring(&self, prev: Option<&Ring>) -> Option<Ring> {
        let (round, ttl, timeout) = match prev {
            None if self.ring_search => (0, 1, self.nonprop_timeout),
            None => (0, self.network_ttl, self.discovery_timeout),
            Some(r) if r.round >= self.max_discovery_retries => return None,
            Some(r) => {
                let backoff = f64::from(1u32 << r.round.min(4));
                let timeout = self.discovery_timeout.mul_f64(backoff);
                (r.round + 1, self.network_ttl, timeout)
            }
        };
        Some(Ring {
            round,
            ttl,
            timeout,
        })
    }
}

/// The DSR protocol engine for one node.
///
/// Every handler appends its actions to a caller-owned `out` buffer, so
/// an embedder that clears and reuses one buffer handles events without
/// allocating per call.
///
/// # Example
///
/// ```
/// use rcast_engine::{NodeId, SimTime};
/// use rcast_dsr::{DsrAction, DsrConfig, DsrNode, DsrPacket};
///
/// let mut node = DsrNode::new(NodeId::new(0), DsrConfig::default());
/// // No route yet: the node buffers the packet and floods a request.
/// let mut actions = Vec::new();
/// node.originate(0, 0, NodeId::new(5), 512, SimTime::ZERO, &mut actions);
/// assert!(matches!(
///     actions.as_slice(),
///     [DsrAction::Broadcast { packet: DsrPacket::Rreq(_) }]
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct DsrNode {
    id: NodeId,
    cfg: DsrConfig,
    cache: RouteCache,
    od: OnDemand,
    // BTree collections throughout: protocol state iteration must be
    // ordered so results never depend on hasher state (rcast-lint D002).
    replies_sent: BTreeMap<(NodeId, u32), u32>,
    /// Last time a RERR for (broken_to, source) was sent, for suppression.
    recent_rerrs: BTreeMap<(NodeId, NodeId), SimTime>,
    counters: DsrCounters,
}

impl DsrNode {
    /// Creates the engine for node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DsrConfig::validate`].
    pub fn new(id: NodeId, cfg: DsrConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DSR config: {e}");
        }
        DsrNode {
            id,
            cfg,
            cache: RouteCache::new(id, cfg.cache),
            od: OnDemand::new(id),
            replies_sent: BTreeMap::new(),
            recent_rerrs: BTreeMap::new(),
            counters: DsrCounters::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Cumulative statistics.
    pub fn counters(&self) -> DsrCounters {
        self.counters
    }

    /// Read access to the route cache (metrics, tests).
    pub fn cache(&self) -> &RouteCache {
        &self.cache
    }

    /// Packets currently parked awaiting routes.
    pub fn send_buffer_len(&self) -> usize {
        self.od.parked()
    }

    /// `true` while a discovery for `target` is outstanding.
    pub fn discovering(&self, target: NodeId) -> bool {
        self.od.discovering(target)
    }

    /// Wipes all volatile protocol state — what a crash does to a node.
    ///
    /// The route cache and the on-demand state are lost; cumulative
    /// counters and the RREQ id sequence survive (see
    /// [`OnDemand::reboot`]). Returns the `(flow, seq)` ids of the
    /// buffered data packets that died with the node.
    // det: cold — fault-rejoin lifecycle event: rebuilds node state outside the settled loop
    pub fn reboot(&mut self) -> Vec<(u32, u64)> {
        self.cache = RouteCache::new(self.id, self.cfg.cache);
        self.replies_sent.clear();
        self.recent_rerrs.clear();
        self.od.reboot()
    }

    // ------------------------------------------------------------------
    // Cache plumbing
    // ------------------------------------------------------------------

    /// Learns `route` (which must start at or contain this node) and its
    /// reverse, and drains any now-routable buffered packets.
    fn learn_route(&mut self, route: &SourceRoute, now: SimTime, out: &mut Vec<DsrAction>) {
        // The cache normalizes to start at the owner and rejects paths
        // that don't contain it. A route and its reversal are valid by
        // construction, so neither is checked again.
        self.cache.observe_valid_path(route.nodes(), now);
        self.cache.observe_valid_path(route.reversed().nodes(), now);
        self.drain_send_buffer(now, out);
    }

    /// Learns from an *overheard* route the node is not on: extend it
    /// through the overheard transmitter, which is known reachable.
    fn learn_via_transmitter(
        &mut self,
        transmitter: NodeId,
        route: &SourceRoute,
        now: SimTime,
        out: &mut Vec<DsrAction>,
    ) {
        debug_assert!(!route.contains(self.id));
        if transmitter == self.id {
            return; // nonsensical: we cannot be our own next hop
        }
        let nodes = route.nodes();
        let Some(pos) = nodes.iter().position(|&n| n == transmitter) else {
            self.drain_send_buffer(now, out);
            return;
        };
        // Both extensions are loop-free: the route is, and this node is
        // not on it.
        // Toward the route's destination: self → transmitter → … → dst.
        if pos + 1 < nodes.len() {
            let path: NodePath = std::iter::once(self.id)
                .chain(nodes[pos..].iter().copied())
                .collect();
            self.cache.observe_valid_path(&path, now);
        }
        // Toward the route's origin: self → transmitter → … → origin.
        if pos >= 1 {
            let path: NodePath = std::iter::once(self.id)
                .chain(nodes[..=pos].iter().rev().copied())
                .collect();
            self.cache.observe_valid_path(&path, now);
        }
        self.drain_send_buffer(now, out);
    }

    /// Sends every buffered packet that now has a route; completes
    /// discoveries whose target became reachable.
    fn drain_send_buffer(&mut self, now: SimTime, out: &mut Vec<DsrAction>) {
        let (id, cache, counters) = (self.id, &mut self.cache, &mut self.counters);
        self.od.drain(|p| {
            let Some(route) = cache.find_route(p.dst, now) else {
                return false;
            };
            let next_hop = route.next_hop_after(id).expect("non-trivial route");
            counters.data_sent += 1;
            out.push(DsrAction::Unicast {
                next_hop,
                packet: DsrPacket::Data(routed(p, route)),
            });
            true
        });
    }

    /// Parks `p`, flooding a request if that starts a discovery; a full
    /// buffer drops `full` instead.
    fn park(&mut self, p: Parked, full: DataPacket, out: &mut Vec<DsrAction>) {
        let (id, cap, counters) = (self.id, self.cfg.send_buffer_capacity, &mut self.counters);
        let flood = |ev| out.push(on_demand(id, counters, ev));
        if self.od.park(p, cap, &self.cfg, flood).is_err() {
            out.push(dropped(counters, full, DropReason::SendBufferFull));
        }
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
        out: &mut Vec<DsrAction>,
    ) {
        let p = Parked {
            flow,
            seq,
            dst,
            payload_bytes,
            generated_at: now,
            buffered_at: now,
        };
        if let Some(route) = self.cache.find_route(dst, now) {
            let next_hop = route.next_hop_after(self.id).expect("non-trivial route");
            self.counters.data_sent += 1;
            out.push(DsrAction::Unicast {
                next_hop,
                packet: DsrPacket::Data(routed(&p, route)),
            });
            return;
        }
        // Buffer and (maybe) start a discovery.
        self.park(p, orphan(&p, self.id), out);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances protocol timers (call at least once per beacon interval).
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<DsrAction>) {
        // Buffer expiry, then the ring searches (OnDemand::tick).
        let (id, timeout, counters) = (self.id, self.cfg.send_buffer_timeout, &mut self.counters);
        let emit = |ev| out.push(on_demand(id, counters, ev));
        self.od.tick(now, timeout, &self.cfg, emit);
        self.cache.purge_expired(now);
    }

    // ------------------------------------------------------------------
    // Reception
    // ------------------------------------------------------------------

    /// Handles a packet addressed to this node (or a broadcast it
    /// received). `from` is the transmitting neighbor.
    pub fn receive(
        &mut self,
        packet: DsrPacket,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<DsrAction>,
    ) {
        match packet {
            DsrPacket::Rreq(r) => self.receive_rreq(&r, from, now, out),
            DsrPacket::Rrep(r) => self.receive_rrep(r, now, out),
            DsrPacket::Rerr(e) => self.receive_rerr(e, now, out),
            DsrPacket::Data(d) => self.receive_data(d, now, out),
        }
    }

    /// Borrowing variant of [`receive`](Self::receive) for broadcast
    /// fan-out: one interned packet is handed to every recipient without
    /// copying it per receiver. RREQs — the only packet kind that
    /// actually floods — are processed entirely by reference; the rare
    /// non-RREQ broadcast falls back to a copy.
    pub fn receive_ref(
        &mut self,
        packet: &DsrPacket,
        from: NodeId,
        now: SimTime,
        out: &mut Vec<DsrAction>,
    ) {
        match packet {
            DsrPacket::Rreq(r) => self.receive_rreq(r, from, now, out),
            // det: hot-ok — inline copy; allocates only past 17 hops
            other => self.receive(other.clone(), from, now, out),
        }
    }

    /// The extended record of `r` as seen from this node: `r.record`
    /// plus our own id. Only built on the paths that transmit it.
    fn extended_record(&self, r: &Rreq) -> NodePath {
        r.record.iter().copied().chain([self.id]).collect()
    }

    fn receive_rreq(&mut self, r: &Rreq, from: NodeId, now: SimTime, out: &mut Vec<DsrAction>) {
        if r.origin == self.id || r.record.contains(&self.id) {
            return; // our own flood, or a loop
        }

        // The accumulated record teaches us the path back to the
        // origin. In a flood, every neighbor's rebroadcast re-delivers
        // the same record; the cache's duplicate check keeps those
        // arrivals to a key scan. This is the back path's one
        // loop-freedom check.
        let back: NodePath = std::iter::once(self.id)
            .chain(r.record.iter().rev().copied())
            .collect();
        if SourceRoute::is_valid_path(&back) {
            self.cache.observe_valid_path(&back, now);
            self.drain_send_buffer(now, out);
        }

        if r.target == self.id {
            // Answer every distinct arrival (up to the cap): DSR offers
            // the origin alternative routes.
            let sent = self.replies_sent.entry((r.origin, r.id)).or_insert(0);
            if *sent < self.cfg.max_replies_per_request {
                *sent += 1;
                if let Some(full) = SourceRoute::from_path(self.extended_record(r)) {
                    self.counters.rrep_from_target += 1;
                    out.push(DsrAction::Unicast {
                        next_hop: from,
                        packet: DsrPacket::Rrep(Rrep {
                            route: full,
                            replier: self.id,
                            from_cache: false,
                        }),
                    });
                }
            }
            return;
        }

        if !self.od.first_sighting(r.origin, r.id) {
            return; // duplicate: already forwarded or answered
        }

        // Cached reply by an intermediate node.
        if self.cfg.reply_from_cache {
            if let Some(tail) = self.cache.find_route(r.target, now) {
                if let Some(prefix) = SourceRoute::from_path(self.extended_record(r)) {
                    if let Some(full) = prefix.spliced_with(&tail) {
                        self.counters.rrep_from_cache += 1;
                        out.push(DsrAction::Unicast {
                            next_hop: from,
                            packet: DsrPacket::Rrep(Rrep {
                                route: full,
                                replier: self.id,
                                from_cache: true,
                            }),
                        });
                        return; // reply suppresses propagation here
                    }
                }
            }
        }

        if r.ttl > 1 {
            self.counters.rreq_forwarded += 1;
            out.push(DsrAction::Broadcast {
                packet: DsrPacket::Rreq(Rreq {
                    origin: r.origin,
                    target: r.target,
                    id: r.id,
                    ttl: r.ttl - 1,
                    record: self.extended_record(r),
                }),
            });
        }
    }

    fn receive_rrep(&mut self, r: Rrep, now: SimTime, out: &mut Vec<DsrAction>) {
        self.learn_route(&r.route, now, out);
        if r.origin() == self.id {
            // Discovery complete; drain already happened in learn_route.
            self.od.complete(r.target());
            return;
        }
        // Relay toward the origin.
        if let Some(next_hop) = r.route.prev_hop_before(self.id) {
            self.counters.rrep_forwarded += 1;
            out.push(DsrAction::Unicast {
                next_hop,
                packet: DsrPacket::Rrep(r),
            });
        }
    }

    fn receive_rerr(&mut self, e: Rerr, now: SimTime, out: &mut Vec<DsrAction>) {
        self.cache.remove_link(e.broken_from, e.broken_to);
        let _ = now;
        if e.destination() == self.id {
            return;
        }
        if let Some(next_hop) = e.path.next_hop_after(self.id) {
            self.counters.rerr_forwarded += 1;
            out.push(DsrAction::Unicast {
                next_hop,
                packet: DsrPacket::Rerr(e),
            });
        }
    }

    fn receive_data(&mut self, d: DataPacket, now: SimTime, out: &mut Vec<DsrAction>) {
        if d.dst() == self.id {
            // Destination also learns the (reverse) route.
            self.learn_route(&d.route, now, out);
            self.counters.data_delivered += 1;
            out.push(DsrAction::Delivered { packet: d });
            return;
        }
        // Relays learn the route they carry.
        self.learn_route(&d.route, now, out);
        match d.route.next_hop_after(self.id) {
            Some(next_hop) => {
                self.counters.data_forwarded += 1;
                out.push(DsrAction::Unicast {
                    next_hop,
                    packet: DsrPacket::Data(d),
                });
            }
            None => out.push(dropped(&mut self.counters, d, DropReason::NotOnRoute)),
        }
    }

    // ------------------------------------------------------------------
    // Overhearing
    // ------------------------------------------------------------------

    /// Handles a packet this node overheard from `transmitter` without
    /// being addressed. This is where DSR's eavesdropping-based route
    /// learning — the subject of the paper — happens.
    pub fn overhear(
        &mut self,
        packet: &DsrPacket,
        transmitter: NodeId,
        now: SimTime,
        out: &mut Vec<DsrAction>,
    ) {
        match packet {
            DsrPacket::Data(d) => {
                if d.route.contains(self.id) {
                    self.learn_route(&d.route, now, out);
                } else {
                    self.learn_via_transmitter(transmitter, &d.route, now, out);
                }
            }
            DsrPacket::Rrep(r) => {
                if r.route.contains(self.id) {
                    self.learn_route(&r.route, now, out);
                } else {
                    self.learn_via_transmitter(transmitter, &r.route, now, out);
                }
            }
            DsrPacket::Rerr(e) => {
                // Stale-route eradication: the reason the paper keeps
                // RERR overhearing *unconditional*.
                self.cache.remove_link(e.broken_from, e.broken_to);
            }
            DsrPacket::Rreq(_) => {
                // Broadcasts are received, not overheard.
            }
        }
    }

    // ------------------------------------------------------------------
    // Link failures
    // ------------------------------------------------------------------

    /// The MAC reports that `next_hop` is unreachable and returns the
    /// undeliverable packet.
    pub fn link_failure(
        &mut self,
        next_hop: NodeId,
        packet: DsrPacket,
        now: SimTime,
        out: &mut Vec<DsrAction>,
    ) {
        self.cache.remove_link(self.id, next_hop);
        let DsrPacket::Data(mut d) = packet else {
            // Lost control packets are not retried: DSR regenerates them
            // through its normal timeout machinery.
            return;
        };

        // Report the break to the source (unless we are the source).
        // Identical reports within the suppression window are elided: a
        // break returns whole queues, and every RERR is overheard
        // unconditionally — redundant copies would storm the channel.
        if d.src() != self.id {
            let key = (next_hop, d.src());
            let suppressed = self
                .recent_rerrs
                .get(&key)
                .is_some_and(|&t| now.saturating_since(t) < self.cfg.rerr_suppression);
            if !suppressed {
                if let Some(prefix) = d.route.prefix_to(self.id) {
                    let path = prefix.reversed();
                    if let Some(hop) = path.next_hop_after(self.id) {
                        self.recent_rerrs.insert(key, now);
                        self.counters.rerr_originated += 1;
                        out.push(DsrAction::Unicast {
                            next_hop: hop,
                            packet: DsrPacket::Rerr(Rerr {
                                detector: self.id,
                                broken_from: self.id,
                                broken_to: next_hop,
                                path,
                            }),
                        });
                    }
                }
            }
        }

        // Try to salvage with an alternative cached route.
        if d.salvage_count < self.cfg.max_salvage {
            if let Some(tail) = self.cache.find_route(d.dst(), now) {
                let new_route = if d.src() == self.id {
                    Some(tail)
                } else {
                    d.route
                        .prefix_to(self.id)
                        .and_then(|p| p.spliced_with(&tail))
                };
                if let Some(route) = new_route {
                    let hop = route
                        .next_hop_after(self.id)
                        .expect("salvage route has a next hop");
                    d.route = route;
                    d.salvage_count += 1;
                    self.counters.data_salvaged += 1;
                    out.push(DsrAction::Unicast {
                        next_hop: hop,
                        packet: DsrPacket::Data(d),
                    });
                    return;
                }
            }
        }

        if d.src() == self.id {
            // Re-enter the discovery path.
            let p = Parked {
                flow: d.flow,
                seq: d.seq,
                dst: d.dst(),
                payload_bytes: d.payload_bytes,
                generated_at: d.generated_at,
                buffered_at: now,
            };
            self.park(p, d, out);
        } else {
            out.push(dropped(&mut self.counters, d, DropReason::SalvageFailed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcast_engine::SimDuration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn route(ids: &[u32]) -> SourceRoute {
        SourceRoute::new(ids.iter().copied().map(NodeId::new).collect()).unwrap()
    }

    /// Runs one handler call into a fresh out-buffer and returns it.
    fn acts(call: impl FnOnce(&mut Vec<DsrAction>)) -> Vec<DsrAction> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn node(id: u32) -> DsrNode {
        DsrNode::new(n(id), DsrConfig::default())
    }

    fn data(route_ids: &[u32], flow: u32, seq: u64) -> DataPacket {
        DataPacket {
            flow,
            seq,
            route: route(route_ids),
            payload_bytes: 512,
            generated_at: SimTime::ZERO,
            salvage_count: 0,
        }
    }

    #[test]
    fn originate_with_cached_route_sends_immediately() {
        let mut s = node(0);
        let mut scratch = Vec::new();
        s.learn_route(&route(&[0, 1, 2]), SimTime::ZERO, &mut scratch);
        let actions = acts(|o| s.originate(7, 3, n(2), 512, SimTime::from_secs(1), o));
        match &actions[..] {
            [DsrAction::Unicast { next_hop, packet: DsrPacket::Data(d) }] => {
                assert_eq!(*next_hop, n(1));
                assert_eq!(d.flow, 7);
                assert_eq!(d.seq, 3);
                assert_eq!(d.route, route(&[0, 1, 2]));
            }
            other => panic!("unexpected actions {other:?}"),
        }
        assert_eq!(s.counters().data_sent, 1);
    }

    #[test]
    fn originate_without_route_starts_ring_search() {
        let mut s = node(0);
        let actions = acts(|o| s.originate(0, 0, n(9), 512, SimTime::ZERO, o));
        match &actions[..] {
            [DsrAction::Broadcast { packet: DsrPacket::Rreq(r) }] => {
                assert_eq!(r.origin, n(0));
                assert_eq!(r.target, n(9));
                assert_eq!(r.ttl, 1, "ring search starts non-propagating");
                assert_eq!(r.record.as_slice(), [n(0)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.discovering(n(9)));
        assert_eq!(s.send_buffer_len(), 1);
        // A second packet to the same target does not re-flood.
        let again = acts(|o| s.originate(0, 1, n(9), 512, SimTime::from_millis(100), o));
        assert!(again.is_empty());
        assert_eq!(s.send_buffer_len(), 2);
    }

    #[test]
    fn target_replies_to_rreq() {
        let mut t = node(2);
        let rreq = Rreq {
            origin: n(0),
            target: n(2),
            id: 0,
            ttl: 16,
            record: NodePath::from_slice(&[n(0), n(1)]),
        };
        let actions = acts(|o| t.receive(DsrPacket::Rreq(rreq), n(1), SimTime::ZERO, o));
        let rrep = actions.iter().find_map(|a| match a {
            DsrAction::Unicast { next_hop, packet: DsrPacket::Rrep(r) } => {
                Some((*next_hop, r.clone()))
            }
            _ => None,
        });
        let (hop, r) = rrep.expect("target must reply");
        assert_eq!(hop, n(1));
        assert_eq!(r.route, route(&[0, 1, 2]));
        assert!(!r.from_cache);
        assert_eq!(t.counters().rrep_from_target, 1);
        // The target also learned the reverse route to the origin.
        assert!(t.cache().has_route(n(0)));
    }

    #[test]
    fn target_reply_cap_limits_alternates() {
        let cap = DsrConfig::default().max_replies_per_request;
        let mut t = node(2);
        let mut replies = 0;
        for k in 0..(cap + 3) {
            let rreq = Rreq {
                origin: n(0),
                target: n(2),
                id: 0,
                ttl: 16,
                // Distinct arrival paths.
                record: NodePath::from_slice(&[n(0), n(10 + k)]),
            };
            let actions = acts(|o| t.receive(DsrPacket::Rreq(rreq), n(10 + k), SimTime::ZERO, o));
            replies += actions
                .iter()
                .filter(|a| matches!(a, DsrAction::Unicast { packet: DsrPacket::Rrep(_), .. }))
                .count();
        }
        assert_eq!(replies as u32, cap);
    }

    #[test]
    fn intermediate_forwards_rreq_once() {
        let mut m = node(1);
        let rreq = Rreq {
            origin: n(0),
            target: n(9),
            id: 4,
            ttl: 16,
            record: NodePath::from_slice(&[n(0)]),
        };
        let first = acts(|o| m.receive(DsrPacket::Rreq(rreq.clone()), n(0), SimTime::ZERO, o));
        let fwd = first.iter().find_map(|a| match a {
            DsrAction::Broadcast { packet: DsrPacket::Rreq(r) } => Some(r.clone()),
            _ => None,
        });
        let r = fwd.expect("must rebroadcast");
        assert_eq!(r.ttl, 15);
        assert_eq!(r.record.as_slice(), [n(0), n(1)]);
        // Duplicate suppressed.
        let second = acts(|o| m.receive(DsrPacket::Rreq(rreq), n(5), SimTime::ZERO, o));
        assert!(!second
            .iter()
            .any(|a| matches!(a, DsrAction::Broadcast { .. })));
        assert_eq!(m.counters().rreq_forwarded, 1);
    }

    #[test]
    fn nonpropagating_rreq_dies_at_ttl_1() {
        let mut m = node(1);
        let rreq = Rreq {
            origin: n(0),
            target: n(9),
            id: 4,
            ttl: 1,
            record: NodePath::from_slice(&[n(0)]),
        };
        let actions = acts(|o| m.receive(DsrPacket::Rreq(rreq), n(0), SimTime::ZERO, o));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, DsrAction::Broadcast { .. })));
    }

    #[test]
    fn intermediate_replies_from_cache_and_suppresses_flood() {
        let mut m = node(1);
        let mut scratch = Vec::new();
        m.learn_route(&route(&[1, 5, 9]), SimTime::ZERO, &mut scratch);
        let rreq = Rreq {
            origin: n(0),
            target: n(9),
            id: 4,
            ttl: 16,
            record: NodePath::from_slice(&[n(0)]),
        };
        let actions = acts(|o| m.receive(DsrPacket::Rreq(rreq), n(0), SimTime::ZERO, o));
        let rrep = actions.iter().find_map(|a| match a {
            DsrAction::Unicast { packet: DsrPacket::Rrep(r), .. } => Some(r.clone()),
            _ => None,
        });
        let r = rrep.expect("cached reply");
        assert!(r.from_cache);
        assert_eq!(r.route, route(&[0, 1, 5, 9]));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, DsrAction::Broadcast { .. })));
        assert_eq!(m.counters().rrep_from_cache, 1);
    }

    #[test]
    fn cache_reply_with_loop_falls_back_to_flood() {
        let mut m = node(1);
        let mut scratch = Vec::new();
        // Cached tail goes back through the origin: splicing would loop.
        m.learn_route(&route(&[1, 0, 9]), SimTime::ZERO, &mut scratch);
        let rreq = Rreq {
            origin: n(0),
            target: n(9),
            id: 4,
            ttl: 16,
            record: NodePath::from_slice(&[n(0)]),
        };
        let actions = acts(|o| m.receive(DsrPacket::Rreq(rreq), n(0), SimTime::ZERO, o));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, DsrAction::Broadcast { .. })),
            "loopy cache reply must not suppress the flood"
        );
    }

    #[test]
    fn rrep_relays_toward_origin_and_origin_drains_buffer() {
        // Node 1 relays an RREP for origin 0.
        let mut relay = node(1);
        let rrep = Rrep {
            route: route(&[0, 1, 2]),
            replier: n(2),
            from_cache: false,
        };
        let actions =
            acts(|o| relay.receive(DsrPacket::Rrep(rrep.clone()), n(2), SimTime::ZERO, o));
        assert!(actions.iter().any(|a| matches!(
            a,
            DsrAction::Unicast { next_hop, packet: DsrPacket::Rrep(_) } if *next_hop == n(0)
        )));
        assert_eq!(relay.counters().rrep_forwarded, 1);

        // Origin 0 was waiting on a buffered packet to 2.
        let mut origin = node(0);
        let start = acts(|o| origin.originate(3, 0, n(2), 512, SimTime::ZERO, o));
        assert!(matches!(start[0], DsrAction::Broadcast { .. }));
        let actions =
            acts(|o| origin.receive(DsrPacket::Rrep(rrep), n(1), SimTime::from_millis(600), o));
        let sent = actions.iter().find_map(|a| match a {
            DsrAction::Unicast { next_hop, packet: DsrPacket::Data(d) } => {
                Some((*next_hop, d.clone()))
            }
            _ => None,
        });
        let (hop, d) = sent.expect("buffered packet must flush");
        assert_eq!(hop, n(1));
        assert_eq!(d.flow, 3);
        assert!(!origin.discovering(n(2)));
        assert_eq!(origin.send_buffer_len(), 0);
    }

    #[test]
    fn data_forwarding_and_delivery() {
        let mut relay = node(1);
        let actions = acts(|o| {
            relay.receive(
                DsrPacket::Data(data(&[0, 1, 2], 0, 0)),
                n(0),
                SimTime::ZERO,
                o,
            )
        });
        assert!(actions.iter().any(|a| matches!(
            a,
            DsrAction::Unicast { next_hop, packet: DsrPacket::Data(_) } if *next_hop == n(2)
        )));
        assert_eq!(relay.counters().data_forwarded, 1);
        // The relay learned both directions.
        assert!(relay.cache().has_route(n(0)));
        assert!(relay.cache().has_route(n(2)));

        let mut dest = node(2);
        let actions = acts(|o| {
            dest.receive(
                DsrPacket::Data(data(&[0, 1, 2], 0, 5)),
                n(1),
                SimTime::ZERO,
                o,
            )
        });
        assert!(actions
            .iter()
            .any(|a| matches!(a, DsrAction::Delivered { packet } if packet.seq == 5)));
        assert_eq!(dest.counters().data_delivered, 1);
    }

    #[test]
    fn overhearing_data_caches_routes_through_transmitter() {
        // Node 7 overhears node 1 relaying 0→1→2 data.
        let mut x = node(7);
        let pkt = DsrPacket::Data(data(&[0, 1, 2], 0, 0));
        acts(|o| x.overhear(&pkt, n(1), SimTime::ZERO, o));
        let cached = x.cache().paths();
        assert!(cached.contains(&route(&[7, 1, 2])), "toward destination");
        assert!(cached.contains(&route(&[7, 1, 0])), "toward source");
    }

    #[test]
    fn overhearing_rerr_purges_stale_link() {
        let mut x = node(7);
        let mut scratch = Vec::new();
        x.learn_route(&route(&[7, 3, 4, 5]), SimTime::ZERO, &mut scratch);
        assert!(x.cache().has_route(n(5)));
        let rerr = DsrPacket::Rerr(Rerr {
            detector: n(3),
            broken_from: n(4),
            broken_to: n(5),
            path: route(&[3, 2, 0]),
        });
        acts(|o| x.overhear(&rerr, n(3), SimTime::ZERO, o));
        assert!(!x.cache().has_route(n(5)), "stale tail invalidated");
        assert!(x.cache().has_route(n(4)), "prefix survives");
    }

    #[test]
    fn link_failure_at_relay_sends_rerr_and_salvages() {
        let mut relay = node(1);
        let mut scratch = Vec::new();
        relay.learn_route(&route(&[1, 5, 3]), SimTime::ZERO, &mut scratch);
        // Relaying 0→1→2→3 data; link 1→2 fails.
        let actions = acts(|o| {
            relay.link_failure(
                n(2),
                DsrPacket::Data(data(&[0, 1, 2, 3], 0, 0)),
                SimTime::ZERO,
                o,
            )
        });
        let rerr = actions.iter().find_map(|a| match a {
            DsrAction::Unicast { next_hop, packet: DsrPacket::Rerr(e) } => {
                Some((*next_hop, e.clone()))
            }
            _ => None,
        });
        let (hop, e) = rerr.expect("RERR to source");
        assert_eq!(hop, n(0));
        assert_eq!((e.broken_from, e.broken_to), (n(1), n(2)));
        assert_eq!(e.destination(), n(0));
        let salvaged = actions.iter().find_map(|a| match a {
            DsrAction::Unicast { next_hop, packet: DsrPacket::Data(d) } => {
                Some((*next_hop, d.clone()))
            }
            _ => None,
        });
        let (hop, d) = salvaged.expect("salvage via 5");
        assert_eq!(hop, n(5));
        assert_eq!(d.route, route(&[0, 1, 5, 3]));
        assert_eq!(d.salvage_count, 1);
        assert_eq!(relay.counters().data_salvaged, 1);
    }

    #[test]
    fn link_failure_without_alternative_drops_at_relay() {
        let mut relay = node(1);
        let actions = acts(|o| {
            relay.link_failure(
                n(2),
                DsrPacket::Data(data(&[0, 1, 2], 0, 0)),
                SimTime::ZERO,
                o,
            )
        });
        assert!(actions
            .iter()
            .any(|a| matches!(a, DsrAction::Dropped { reason: DropReason::SalvageFailed, .. })));
    }

    #[test]
    fn link_failure_at_source_rediscovers() {
        let mut src = node(0);
        let actions = acts(|o| {
            src.link_failure(
                n(1),
                DsrPacket::Data(data(&[0, 1, 2], 0, 0)),
                SimTime::ZERO,
                o,
            )
        });
        assert!(actions
            .iter()
            .any(|a| matches!(a, DsrAction::Broadcast { packet: DsrPacket::Rreq(_) })));
        assert_eq!(src.send_buffer_len(), 1);
        assert!(src.discovering(n(2)));
    }

    #[test]
    fn salvage_cap_is_respected() {
        let mut relay = node(1);
        let mut scratch = Vec::new();
        relay.learn_route(&route(&[1, 5, 3]), SimTime::ZERO, &mut scratch);
        let mut d = data(&[0, 1, 2, 3], 0, 0);
        d.salvage_count = DsrConfig::default().max_salvage;
        let actions = acts(|o| relay.link_failure(n(2), DsrPacket::Data(d), SimTime::ZERO, o));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, DsrAction::Dropped { .. })),
            "over-salvaged packet must drop"
        );
    }

    #[test]
    fn discovery_escalates_then_gives_up() {
        let cfg = DsrConfig::default();
        let mut s = node(0);
        let first = acts(|o| s.originate(0, 0, n(9), 512, SimTime::ZERO, o));
        assert!(matches!(
            &first[..],
            [DsrAction::Broadcast { packet: DsrPacket::Rreq(r) }] if r.ttl == 1
        ));
        // After the non-propagating timeout, a network-wide flood goes out.
        let t1 = SimTime::ZERO + cfg.nonprop_timeout + SimDuration::from_millis(1);
        let retry = acts(|o| s.tick(t1, o));
        assert!(matches!(
            &retry[..],
            [DsrAction::Broadcast { packet: DsrPacket::Rreq(r) }] if r.ttl == cfg.network_ttl
        ));
        // Exhaust the retries. Whichever timeout fires first — the
        // discovery retry cap or the 30 s send-buffer lifetime — the
        // packet must eventually be abandoned.
        let mut t = t1;
        let mut dropped = false;
        for _ in 0..cfg.max_discovery_retries + 2 {
            t += SimDuration::from_secs(120);
            let actions = acts(|o| s.tick(t, o));
            if actions.iter().any(|a| {
                matches!(
                    a,
                    DsrAction::Dropped {
                        reason: DropReason::DiscoveryFailed | DropReason::SendBufferTimeout,
                        ..
                    }
                )
            }) {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "discovery must eventually abandon the packet");
        assert!(!s.discovering(n(9)));
        assert_eq!(s.send_buffer_len(), 0);
    }

    #[test]
    fn send_buffer_times_out() {
        let mut s = node(0);
        acts(|o| s.originate(0, 0, n(9), 512, SimTime::ZERO, o));
        let late = SimTime::ZERO + DsrConfig::default().send_buffer_timeout
            + SimDuration::from_secs(1);
        let actions = acts(|o| s.tick(late, o));
        assert!(actions
            .iter()
            .any(|a| matches!(a, DsrAction::Dropped { reason: DropReason::SendBufferTimeout, .. })));
        assert_eq!(s.send_buffer_len(), 0);
    }

    #[test]
    fn send_buffer_overflow_drops_newcomer() {
        let cfg = DsrConfig::default();
        let mut s = node(0);
        for seq in 0..cfg.send_buffer_capacity as u64 {
            acts(|o| s.originate(0, seq, n(9), 512, SimTime::ZERO, o));
        }
        let actions = acts(|o| s.originate(0, 999, n(9), 512, SimTime::ZERO, o));
        assert!(actions
            .iter()
            .any(|a| matches!(a, DsrAction::Dropped { reason: DropReason::SendBufferFull, .. })));
    }

    #[test]
    fn overheard_route_flushes_waiting_traffic() {
        // The Rcast premise: an overheard route substitutes for a flood.
        let mut s = node(0);
        acts(|o| s.originate(0, 0, n(2), 512, SimTime::ZERO, o));
        assert_eq!(s.send_buffer_len(), 1);
        let pkt = DsrPacket::Data(data(&[5, 1, 2], 9, 9));
        let actions = acts(|o| s.overhear(&pkt, n(1), SimTime::from_millis(300), o));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                DsrAction::Unicast { packet: DsrPacket::Data(d), .. } if d.flow == 0
            )),
            "buffered packet should ride the overheard route 0→1→2"
        );
        assert_eq!(s.send_buffer_len(), 0);
    }
}
