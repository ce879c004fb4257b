//! Beacon-interval resolution: the heart of the PSM MAC.
//!
//! A beacon interval (250 ms) splits into an ATIM window (50 ms) and a
//! data window (200 ms). The resolver performs, in order:
//!
//! 1. **ATIM phase** — every node advertises its queued traffic, one
//!    ATIM per destination, budgeted against the ATIM window's airtime
//!    per neighborhood. A unicast ATIM whose receiver is out of range
//!    gets no acknowledgment; after [`MacConfig::atim_retry_limit`]
//!    silent intervals the link is declared broken and the frames are
//!    returned to the network layer. A broadcast ATIM commits *every*
//!    neighbor to stay awake.
//! 2. **Overhearing decisions** — for each announced unicast, neighbors
//!    that are not the addressee resolve the advertised
//!    [`OverhearingLevel`]: `None` lets them sleep, `Unconditional`
//!    keeps them awake, `Randomized` consults the [`WakePolicy`]
//!    (the Rcast mechanism).
//! 3. **Data phase** — announced transfers execute in announcement
//!    order, budgeted against the data window per neighborhood.
//!    Transfers that do not fit stay queued (and re-advertise next
//!    interval). Each completed unicast is overheard by every node that
//!    is awake and within range of the sender — the radio is
//!    promiscuous, so an awake node hears everything around it
//!    regardless of why it is awake.
//!
//! The resolver reports per-node committed-awake durations so the
//! energy layer can integrate `P_awake × awake + P_sleep × sleep` —
//! exactly the arithmetic the paper uses in Figure 5.

use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_mobility::NeighborTable;
use rcast_radio::Phy;

use crate::budget::AirtimeBudget;
use crate::config::MacConfig;
use crate::frame::{Destination, MacFrame, OverhearingLevel};
use crate::observe::{MacObserver, NullMacObserver};
use crate::queue::TxQueue;
use crate::wake::{PowerMode, WakePolicy};

/// Where a delivery's receivers live inside the interval's shared
/// fanout buffer ([`IntervalOutcome::fanout`], or the caller-supplied
/// buffer for the immediate path): `recipients` node ids starting at
/// `start`, immediately followed by `overhearers` node ids.
///
/// Keeping ranges instead of per-delivery `Vec`s removes two heap
/// allocations per delivered frame from the hot loop and lets the
/// post-pass write all fanouts into one flat buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fanout {
    /// First index of this delivery's span in the fanout buffer.
    pub start: u32,
    /// Number of recipients (broadcast receivers, or 1 for unicast).
    pub recipients: u32,
    /// Number of overhearers (awake in-range non-addressees; unicast
    /// only — broadcasts have none, every awake neighbor receives).
    pub overhearers: u32,
}

impl Fanout {
    /// The recipient slice within `buf`.
    pub fn recipients<'a>(&self, buf: &'a [NodeId]) -> &'a [NodeId] {
        let s = self.start as usize;
        &buf[s..s + self.recipients as usize]
    }

    /// The overhearer slice within `buf`.
    pub fn overhearers<'a>(&self, buf: &'a [NodeId]) -> &'a [NodeId] {
        let s = self.start as usize + self.recipients as usize;
        &buf[s..s + self.overhearers as usize]
    }
}

/// A frame the MAC delivered during an interval (or immediately).
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// Transmitting node.
    pub sender: NodeId,
    /// Addressed receiver; `None` for broadcast.
    pub receiver: Option<NodeId>,
    /// Recipient/overhearer ranges into the interval's fanout buffer.
    pub fanout: Fanout,
    /// When the exchange completed on the air.
    pub at: SimTime,
    /// When the frame entered the MAC queue (for delay accounting).
    pub enqueued_at: SimTime,
    /// The delivered frame.
    pub frame: MacFrame<P>,
}

/// A frame the MAC gave up on: the ATIM advertisement went
/// unacknowledged for the configured number of intervals, i.e. the link
/// to the next hop broke.
#[derive(Debug, Clone)]
pub struct LinkFailure<P> {
    /// The node that was trying to transmit.
    pub sender: NodeId,
    /// The unreachable next hop.
    pub receiver: NodeId,
    /// When the MAC gave up.
    pub at: SimTime,
    /// The undeliverable frame, returned to the network layer.
    pub frame: MacFrame<P>,
}

/// Everything that happened during one resolved beacon interval.
///
/// [`MacLayer::run_interval_into`] refills a caller-owned outcome in
/// place, so the per-node vectors and the delivery/failure lists keep
/// their allocations across intervals.
#[derive(Debug, Clone)]
pub struct IntervalOutcome<P> {
    /// Start of the interval.
    pub start: SimTime,
    /// Completed transfers, in on-air order.
    pub deliveries: Vec<Delivery<P>>,
    /// Shared recipient/overhearer buffer the deliveries' [`Fanout`]
    /// ranges index into, in on-air delivery order.
    pub fanout: Vec<NodeId>,
    /// Broken-link frames returned to the network layer.
    pub failures: Vec<LinkFailure<P>>,
    /// Per node: was the radio on past the ATIM window for any reason?
    /// (AM nodes are always `true`.)
    pub awake: Vec<bool>,
    /// Per node: did a PSM commitment (sending, receiving, a broadcast,
    /// or an overhearing decision) keep it awake past the ATIM window?
    /// Unlike [`awake`](Self::awake), this excludes baseline AM-ness —
    /// the ODPM energy integrator needs the distinction.
    pub ps_awake: Vec<bool>,
    /// Per node: radio-on time attributable to PSM commitments, in
    /// `[atim_window, beacon_interval]`, *ignoring* AM mode. With
    /// [`MacConfig::doze_after_transfer`] enabled, a node committed to
    /// specific unicast transfers is charged only until its last
    /// transfer completes; unbounded commitments (broadcasts,
    /// unconditional overhearing, deferred/lost transfers) are charged
    /// the whole interval.
    pub committed_awake: Vec<SimDuration>,
}

impl<P> Default for IntervalOutcome<P> {
    fn default() -> Self {
        IntervalOutcome {
            start: SimTime::ZERO,
            deliveries: Vec::new(),
            fanout: Vec::new(),
            failures: Vec::new(),
            awake: Vec::new(),
            ps_awake: Vec::new(),
            committed_awake: Vec::new(),
        }
    }
}

/// Cumulative MAC statistics across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounters {
    /// Unicast ATIM advertisements acknowledged.
    pub atim_unicast: u64,
    /// Broadcast ATIM advertisements sent.
    pub atim_broadcast: u64,
    /// Advertisements deferred for lack of ATIM-window airtime.
    pub atim_deferred: u64,
    /// Unicast advertisements that drew no acknowledgment
    /// (receiver out of range).
    pub atim_no_ack: u64,
    /// Unicast frames delivered through the data window.
    pub data_delivered: u64,
    /// Broadcast frames delivered through the data window.
    pub broadcast_delivered: u64,
    /// Announced frames that did not fit the data window.
    pub data_deferred: u64,
    /// Frames destroyed by injected channel loss (retried next interval).
    pub data_lost: u64,
    /// Links declared broken after repeated silent ATIMs.
    pub link_failures: u64,
    /// Frames rejected by full transmit queues.
    pub queue_drops: u64,
}

/// The PSM MAC for the whole network: per-node queues plus the
/// beacon-interval resolver.
///
/// `P` is the opaque network-layer payload type.
///
/// # Example
///
/// ```
/// use rcast_engine::{NodeId, SimTime, rng::StreamRng};
/// use rcast_mac::{AllPowerSave, MacConfig, MacFrame, MacLayer, OverhearingLevel};
/// use rcast_mobility::{Area, NeighborTable, Snapshot, Vec2};
/// use rcast_radio::Phy;
///
/// let snap = Snapshot::from_positions(
///     vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0)],
///     Area::new(1000.0, 10.0), SimTime::ZERO);
/// let nt = NeighborTable::build(&snap, 250.0);
/// let mut mac: MacLayer<&str> = MacLayer::new(
///     2, MacConfig::default(), Phy::default(), StreamRng::from_seed(0));
/// mac.enqueue(NodeId::new(0),
///     MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "hello"),
///     SimTime::ZERO);
/// let out = mac.run_interval(SimTime::ZERO, &nt,
///     &mut AllPowerSave { overhear_randomized: false });
/// assert_eq!(out.deliveries.len(), 1);
/// assert_eq!(out.deliveries[0].frame.payload, "hello");
/// ```
#[derive(Debug, Clone)]
pub struct MacLayer<P> {
    cfg: MacConfig,
    phy: Phy,
    queues: Vec<TxQueue<P>>,
    /// Pending-traffic lane: `pending[i]` is false only when node `i`'s
    /// queue is known empty. Maintained at every queue mutation site
    /// (enqueue, purge, phase-1 evictions, phase-3 removals) so the
    /// ATIM prepass can skip idle nodes without touching their queue at
    /// all — at large n most nodes are idle in any given interval, and
    /// an empty queue emits no candidates anyway, so the skip is
    /// byte-identical. A stale `true` is harmless (the prepass just
    /// reads an empty queue); a stale `false` would drop traffic, hence
    /// the conservative refresh-after-mutation discipline.
    pending: Vec<bool>,
    rng: StreamRng,
    counters: MacCounters,
    scratch: IntervalScratch,
}

/// One announced (acknowledged) advertisement awaiting its data phase.
#[derive(Debug, Clone, Copy)]
struct Announcement {
    sender: NodeId,
    dest: Destination,
    level: OverhearingLevel,
}

/// Per-interval working state, kept on the layer so the resolver reuses
/// its allocations every interval instead of rebuilding them (the MAC
/// runs once per 250 ms of simulated time — these buffers dominated the
/// allocator profile before they were hoisted).
#[derive(Debug, Clone, Default)]
struct IntervalScratch {
    awake: Vec<bool>,
    committed: Vec<bool>,
    full_wake: Vec<bool>,
    doze_at: Vec<SimTime>,
    accepted: Vec<Vec<NodeId>>,
    announcements: Vec<Announcement>,
    atim_budget: AirtimeBudget,
    data_budget: AirtimeBudget,
    affected: Vec<NodeId>,
    /// Per-node scratch for `destinations_into`.
    dests: Vec<Destination>,
    /// The ATIM prepass's `(sender, dest, strongest advertised level)`
    /// candidates, in node order.
    candidates: Vec<(NodeId, Destination, Option<OverhearingLevel>)>,
}

/// Appends `d`'s recipients-then-overhearers to `buf`; returns the
/// `(recipients, overhearers)` counts. Pure in `awake`, which is final
/// once phase 2 ends — phase 3 only advances doze bookkeeping — so the
/// fanout can be resolved after the data phase.
fn delivery_fanout<P>(
    d: &Delivery<P>,
    nt: &NeighborTable,
    awake: &[bool],
    buf: &mut Vec<NodeId>,
) -> (u32, u32) {
    match d.receiver {
        Some(r) => {
            buf.push(r);
            let mut ovh = 0u32;
            for &x in nt.neighbors(d.sender) {
                if x != r && awake[x.index()] {
                    buf.push(x);
                    ovh += 1;
                }
            }
            (1, ovh)
        }
        None => {
            // Only awake neighbors receive: with the randomized-
            // broadcast extension some may have chosen to sleep.
            let mut rec = 0u32;
            for &x in nt.neighbors(d.sender) {
                if awake[x.index()] {
                    buf.push(x);
                    rec += 1;
                }
            }
            (rec, 0)
        }
    }
}

impl<P> MacLayer<P> {
    /// Creates the MAC for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MacConfig::validate`].
    pub fn new(n: usize, cfg: MacConfig, phy: Phy, rng: StreamRng) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MAC config: {e}");
        }
        MacLayer {
            cfg,
            phy,
            queues: (0..n).map(|_| TxQueue::new(cfg.queue_capacity)).collect(),
            pending: vec![false; n],
            rng,
            counters: MacCounters::default(),
            scratch: IntervalScratch::default(),
        }
    }

    /// The MAC configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// The PHY in use.
    pub fn phy(&self) -> &Phy {
        &self.phy
    }

    /// Cumulative statistics.
    pub fn counters(&self) -> MacCounters {
        self.counters
    }

    /// Queue length of a node.
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.queues[node.index()].len()
    }

    /// Replaces the injected frame-loss probability. Fault injection
    /// raises this during corruption bursts and restores the configured
    /// baseline afterwards.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is a probability.
    pub fn set_frame_loss_prob(&mut self, p: f64) {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "invalid loss probability {p}"
        );
        self.cfg.frame_loss_prob = p;
    }

    /// Empties a node's transmit queue, returning the abandoned frames —
    /// what a crash does to buffered traffic. The frames are not counted
    /// as queue-full drops; the caller owns their accounting.
    pub fn purge_node(&mut self, node: NodeId) -> Vec<crate::queue::Queued<P>> {
        self.pending[node.index()] = false;
        self.queues[node.index()].drain_all()
    }

    /// Hands a frame to the MAC for transmission via the PSM path.
    /// Returns the frame when the queue is full.
    pub fn enqueue(
        &mut self,
        from: NodeId,
        frame: MacFrame<P>,
        now: SimTime,
    ) -> Result<(), MacFrame<P>> {
        match self.queues[from.index()].push(frame, now) {
            Ok(()) => {
                self.pending[from.index()] = true;
                Ok(())
            }
            Err(f) => {
                self.counters.queue_drops += 1;
                Err(f)
            }
        }
    }

    /// Airtime of a unicast ATIM/ACK handshake.
    fn atim_unicast_time(&self) -> SimDuration {
        self.phy
            .unicast_exchange_time(self.cfg.atim_bytes, self.cfg.ack_bytes)
    }

    /// Airtime of a broadcast ATIM.
    fn atim_broadcast_time(&self) -> SimDuration {
        self.phy.broadcast_time(self.cfg.atim_bytes)
    }

    /// Airtime of a unicast data/ACK exchange for `payload_bytes`.
    fn data_unicast_time(&self, payload_bytes: usize) -> SimDuration {
        self.phy.unicast_exchange_time(
            payload_bytes + self.cfg.mac_header_bytes,
            self.cfg.ack_bytes,
        )
    }

    /// Airtime of a broadcast data frame for `payload_bytes`.
    fn data_broadcast_time(&self, payload_bytes: usize) -> SimDuration {
        self.phy
            .broadcast_time(payload_bytes + self.cfg.mac_header_bytes)
    }

    /// Fills `out` with the nodes whose channel an `s → r` exchange
    /// occupies.
    fn affected_unicast_into(nt: &NeighborTable, s: NodeId, r: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(s);
        out.push(r);
        out.extend_from_slice(nt.neighbors(s));
        out.extend_from_slice(nt.neighbors(r));
        // The sender and receiver neighbor slices overlap; the budget
        // charges duplicates once, so deduplicating only trims the
        // per-reservation scan.
        out.sort_unstable();
        out.dedup();
    }

    /// Fills `out` with the nodes whose channel a broadcast from `s`
    /// occupies.
    fn affected_broadcast_into(nt: &NeighborTable, s: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(s);
        out.extend_from_slice(nt.neighbors(s));
    }

    /// Resolves one beacon interval starting at `start` on the caller's
    /// thread, returning a freshly allocated outcome. Convenience wrapper
    /// over [`run_interval_into`](Self::run_interval_into) — the
    /// simulator's hot loop uses the latter with a reused outcome.
    pub fn run_interval(
        &mut self,
        start: SimTime,
        nt: &NeighborTable,
        policy: &mut dyn WakePolicy,
    ) -> IntervalOutcome<P> {
        let mut out = IntervalOutcome::default();
        self.run_interval_into(start, nt, policy, &mut out);
        out
    }

    /// Resolves one beacon interval starting at `start` into a
    /// caller-owned outcome, clearing and refilling every field so the
    /// outcome's allocations survive across intervals.
    ///
    /// `nt` must describe node positions at `start`; `policy` supplies
    /// per-node power modes and randomized-overhearing decisions.
    /// Allocation-free once the working buffers have grown.
    pub fn run_interval_into(
        &mut self,
        start: SimTime,
        nt: &NeighborTable,
        policy: &mut dyn WakePolicy,
        out: &mut IntervalOutcome<P>,
    ) {
        self.run_interval_observed(start, nt, policy, out, &mut NullMacObserver);
    }

    /// Like [`run_interval_into`](Self::run_interval_into), but reports
    /// each per-node decision to `obs` as it is made. The resolution
    /// itself is byte-identical with or without an observer — the tap
    /// is strictly read-only.
    pub fn run_interval_observed(
        &mut self,
        start: SimTime,
        nt: &NeighborTable,
        policy: &mut dyn WakePolicy,
        out: &mut IntervalOutcome<P>,
        obs: &mut dyn MacObserver,
    ) {
        let n = self.queues.len();
        debug_assert_eq!(nt.len(), n, "neighbor table size mismatch");

        out.start = start;
        let deliveries = &mut out.deliveries;
        let failures = &mut out.failures;
        deliveries.clear();
        failures.clear();

        // Working state lives on `self` between intervals; detach it so
        // the resolver can borrow queues/counters/rng freely.
        let mut scr = std::mem::take(&mut self.scratch);

        // AM nodes are awake regardless of traffic; PSM commitments are
        // tracked separately in `committed`.
        let awake = &mut scr.awake;
        awake.clear();
        awake.extend((0..n).map(|i| policy.mode(NodeId::new(i as u32)) == PowerMode::Active));
        let committed = &mut scr.committed;
        committed.clear();
        committed.resize(n, false);
        // Doze bookkeeping: `full_wake` marks unbounded commitments;
        // `doze_at` tracks when a bounded commitment lets the node doze.
        let full_wake = &mut scr.full_wake;
        full_wake.clear();
        full_wake.resize(n, false);
        let doze_at = &mut scr.doze_at;
        doze_at.clear();
        doze_at.resize(n, start + self.cfg.atim_window);
        // Which randomized overhearers accepted which sender's ATIM.
        // Inner vectors are cleared, not dropped, to keep their storage.
        let accepted = &mut scr.accepted;
        // det: hot-ok — resize pads with empty (allocation-free) vecs
        // once; steady state reuses the cleared inner storage below.
        accepted.resize(n, Vec::new());
        for a in accepted.iter_mut() {
            a.clear();
        }
        let affected = &mut scr.affected;

        // ---- Prepass: per-node advertisement candidates ---------------
        // `destinations_into` and `strongest_level_for` are pure reads
        // of one node's queue; phase 1 only mutates the queue of the
        // node it is processing, and evicting one destination's frames
        // never changes another destination's strongest level. So the
        // candidate lists can be read off the queues up front without
        // changing a byte of phase 1's behavior.
        let candidates = &mut scr.candidates;
        candidates.clear();
        for (i, q) in self.queues.iter().enumerate() {
            // Idle nodes emit no candidates; the pending lane lets the
            // scan skip them without touching the queue's storage.
            if !self.pending[i] {
                continue;
            }
            let sender = NodeId::new(i as u32);
            q.destinations_into(&mut scr.dests);
            for &dest in scr.dests.iter() {
                candidates.push((sender, dest, q.strongest_level_for(dest)));
            }
        }

        // ---- Phase 1: ATIM window -------------------------------------
        let atim_budget = &mut scr.atim_budget;
        atim_budget.reset(n, self.cfg.atim_window);
        let atim_uni = self.atim_unicast_time();
        let atim_bc = self.atim_broadcast_time();
        let announcements = &mut scr.announcements;
        announcements.clear();

        for &(sender, dest, advertised) in candidates.iter() {
            let i = sender.index();
            match dest {
                Destination::Broadcast => {
                    Self::affected_broadcast_into(nt, sender, affected);
                    if atim_budget
                        .try_reserve(affected.iter().copied(), atim_bc)
                        .is_some()
                    {
                        self.counters.atim_broadcast += 1;
                        obs.atim_broadcast(start, sender);
                        awake[i] = true;
                        committed[i] = true;
                        full_wake[i] = true;
                        let level = advertised.unwrap_or(OverhearingLevel::Unconditional);
                        for &x in nt.neighbors(sender) {
                            // Standard PSM commits every neighbor to
                            // the broadcast; the randomized level is
                            // the paper's broadcast-Rcast extension.
                            if level == OverhearingLevel::Randomized {
                                if !awake[x.index()] && policy.overhear_broadcast(x, sender, nt) {
                                    awake[x.index()] = true;
                                    committed[x.index()] = true;
                                    full_wake[x.index()] = true;
                                }
                            } else {
                                awake[x.index()] = true;
                                committed[x.index()] = true;
                                full_wake[x.index()] = true;
                            }
                        }
                        announcements.push(Announcement {
                            sender,
                            dest,
                            level,
                        });
                    } else {
                        self.counters.atim_deferred += 1;
                        obs.atim_deferred(start, sender);
                    }
                }
                Destination::Unicast(r) => {
                    if !nt.are_neighbors(sender, r) {
                        // No ATIM-ACK: the receiver moved away.
                        self.counters.atim_no_ack += 1;
                        obs.atim_no_ack(start, sender, r);
                        let attempts = self.queues[i].bump_attempts_for(dest);
                        if attempts >= self.cfg.atim_retry_limit {
                            self.counters.link_failures += 1;
                            let fail_at = start + self.cfg.atim_window;
                            obs.link_broken(fail_at, sender, r);
                            self.queues[i].remove_all_for_with(dest, |q| {
                                failures.push(LinkFailure {
                                    sender,
                                    receiver: r,
                                    at: fail_at,
                                    frame: q.frame,
                                });
                            });
                            self.pending[i] = !self.queues[i].is_empty();
                        }
                        continue;
                    }
                    Self::affected_unicast_into(nt, sender, r, affected);
                    if atim_budget
                        .try_reserve(affected.iter().copied(), atim_uni)
                        .is_some()
                    {
                        self.counters.atim_unicast += 1;
                        obs.atim_unicast(start, sender, r);
                        awake[i] = true;
                        committed[i] = true;
                        awake[r.index()] = true;
                        committed[r.index()] = true;
                        self.queues[i].reset_attempts_for(dest);
                        let level = advertised.unwrap_or(OverhearingLevel::None);
                        announcements.push(Announcement {
                            sender,
                            dest,
                            level,
                        });
                    } else {
                        self.counters.atim_deferred += 1;
                        obs.atim_deferred(start, sender);
                    }
                }
            }
        }

        // ---- Phase 2: overhearing decisions ----------------------------
        for a in announcements.iter() {
            let Destination::Unicast(r) = a.dest else {
                continue; // broadcast already woke everyone in range
            };
            match a.level {
                OverhearingLevel::None => {}
                OverhearingLevel::Unconditional => {
                    // Promiscuous listening has no announced end: the
                    // whole interval is committed.
                    for &x in nt.neighbors(a.sender) {
                        if x != r {
                            awake[x.index()] = true;
                            committed[x.index()] = true;
                            full_wake[x.index()] = true;
                        }
                    }
                }
                OverhearingLevel::Randomized => {
                    for &x in nt.neighbors(a.sender) {
                        if x != r
                            && !awake[x.index()]
                            && policy.overhear(x, a.sender, a.level, nt)
                        {
                            awake[x.index()] = true;
                            committed[x.index()] = true;
                            accepted[a.sender.index()].push(x);
                            obs.overhear_commit(start, x, a.sender);
                        }
                    }
                }
            }
        }

        // ---- Phase 3: data window --------------------------------------
        let data_start = start + self.cfg.atim_window;
        let data_budget = &mut scr.data_budget;
        data_budget.reset(n, self.cfg.data_window());

        for a in announcements.iter() {
            let qi = a.sender.index();
            match a.dest {
                Destination::Broadcast => {
                    while let Some(idx) = self.queues[qi].first_for(Destination::Broadcast) {
                        let bytes = self.queues[qi].get(idx).expect("valid index").frame.bytes;
                        let dur = self.data_broadcast_time(bytes);
                        Self::affected_broadcast_into(nt, a.sender, affected);
                        match data_budget.try_reserve(affected.iter().copied(), dur) {
                            Some(offset) => {
                                obs.airtime_reserved(data_start + offset, a.sender, dur);
                                let q = self.queues[qi].remove(idx);
                                self.counters.broadcast_delivered += 1;
                                // Recipients are resolved in the fanout
                                // post-pass: `awake` is final by now.
                                deliveries.push(Delivery {
                                    sender: a.sender,
                                    receiver: None,
                                    fanout: Fanout::default(),
                                    at: data_start + offset + dur,
                                    enqueued_at: q.enqueued_at,
                                    frame: q.frame,
                                });
                            }
                            None => {
                                self.counters.data_deferred += 1;
                                obs.data_deferred(data_start, a.sender);
                                full_wake[qi] = true;
                                break;
                            }
                        }
                    }
                }
                Destination::Unicast(r) => {
                    while let Some(idx) = self.queues[qi].first_for(a.dest) {
                        let bytes = self.queues[qi].get(idx).expect("valid index").frame.bytes;
                        let dur = self.data_unicast_time(bytes);
                        Self::affected_unicast_into(nt, a.sender, r, affected);
                        match data_budget.try_reserve(affected.iter().copied(), dur) {
                            Some(offset) => {
                                obs.airtime_reserved(data_start + offset, a.sender, dur);
                                if self.cfg.frame_loss_prob > 0.0
                                    && self.rng.chance(self.cfg.frame_loss_prob)
                                {
                                    // Lost on the air: the sender retries
                                    // next interval (frame stays queued);
                                    // both ends keep waiting.
                                    self.counters.data_lost += 1;
                                    obs.data_lost(data_start + offset + dur, a.sender, r);
                                    full_wake[qi] = true;
                                    full_wake[r.index()] = true;
                                    break;
                                }
                                let q = self.queues[qi].remove(idx);
                                self.counters.data_delivered += 1;
                                let end = data_start + offset + dur;
                                for x in [a.sender, r]
                                    .into_iter()
                                    .chain(accepted[qi].iter().copied())
                                {
                                    if doze_at[x.index()] < end {
                                        doze_at[x.index()] = end;
                                    }
                                }
                                deliveries.push(Delivery {
                                    sender: a.sender,
                                    receiver: Some(r),
                                    fanout: Fanout::default(),
                                    at: data_start + offset + dur,
                                    enqueued_at: q.enqueued_at,
                                    frame: q.frame,
                                });
                            }
                            None => {
                                // The pair waits out the window hoping
                                // for airtime that never comes.
                                self.counters.data_deferred += 1;
                                obs.data_deferred(data_start, a.sender);
                                full_wake[qi] = true;
                                full_wake[r.index()] = true;
                                break;
                            }
                        }
                    }
                }
            }
            // Phase 3 removed frames for this sender; refresh its
            // pending-traffic flag for the next interval's prepass.
            self.pending[qi] = !self.queues[qi].is_empty();
        }

        // Keep on-air ordering for downstream consumers. Sorting
        // happens *before* fanout resolution so the fanout buffer is
        // laid out in on-air order.
        deliveries.sort_by_key(|d| d.at);

        // ---- Post-pass: fanout + committed-awake -----------------------
        // Both are pure functions of the settled phase-2 `awake` and
        // phase-3 doze state, computed per delivery / per node.
        out.fanout.clear();
        for d in deliveries.iter_mut() {
            let off = out.fanout.len() as u32;
            let (recipients, overhearers) = delivery_fanout(d, nt, awake, &mut out.fanout);
            d.fanout = Fanout {
                start: off,
                recipients,
                overhearers,
            };
        }
        // Node `i`'s PSM-committed radio-on time for the interval.
        let bi = self.cfg.beacon_interval;
        let aw = self.cfg.atim_window;
        out.committed_awake.clear();
        out.committed_awake.extend((0..n).map(|i| {
            if !committed[i] {
                aw
            } else if full_wake[i] || !self.cfg.doze_after_transfer {
                bi
            } else {
                (doze_at[i] - start).max(aw).min(bi)
            }
        }));

        out.awake.clear();
        out.awake.extend_from_slice(awake);
        out.ps_awake.clear();
        out.ps_awake.extend_from_slice(committed);

        self.scratch = scr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wake::AllPowerSave;
    use rcast_mobility::{Area, Snapshot, Vec2};

    type Mac = MacLayer<&'static str>;

    fn line_topology(xs: &[f64]) -> NeighborTable {
        let snap = Snapshot::from_positions(
            xs.iter().map(|&x| Vec2::new(x, 0.0)).collect(),
            Area::new(10_000.0, 10.0),
            SimTime::ZERO,
        );
        NeighborTable::build(&snap, 250.0)
    }

    fn mac(n: usize) -> Mac {
        MacLayer::new(
            n,
            MacConfig::default(),
            Phy::default(),
            StreamRng::from_seed(7),
        )
    }

    fn ps(overhear: bool) -> AllPowerSave {
        AllPowerSave {
            overhear_randomized: overhear,
        }
    }

    #[test]
    fn unicast_delivery_with_no_overhearing() {
        // 0 -- 1 -- 2: node 2 hears node 1's ATIM but not the data for
        // level None, so it sleeps.
        let nt = line_topology(&[0.0, 200.0, 400.0]);
        let mut m = mac(3);
        m.enqueue(
            NodeId::new(1),
            MacFrame::unicast(NodeId::new(0), OverhearingLevel::None, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert_eq!(out.deliveries.len(), 1);
        let d = &out.deliveries[0];
        assert_eq!(d.sender, NodeId::new(1));
        assert_eq!(d.receiver, Some(NodeId::new(0)));
        assert!(d.fanout.overhearers(&out.fanout).is_empty());
        assert_eq!(out.awake, vec![true, true, false]);
        assert!(d.at > SimTime::ZERO + MacConfig::default().atim_window);
        assert_eq!(m.counters().data_delivered, 1);
    }

    #[test]
    fn unconditional_overhearing_wakes_all_neighbors() {
        let nt = line_topology(&[0.0, 200.0, 400.0]);
        let mut m = mac(3);
        m.enqueue(
            NodeId::new(1),
            MacFrame::unicast(NodeId::new(0), OverhearingLevel::Unconditional, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert_eq!(out.awake, vec![true, true, true]);
        assert_eq!(
            out.deliveries[0].fanout.overhearers(&out.fanout),
            [NodeId::new(2)]
        );
    }

    #[test]
    fn randomized_overhearing_consults_policy() {
        let nt = line_topology(&[0.0, 200.0, 400.0]);
        for (ans, expect_awake) in [(false, false), (true, true)] {
            let mut m = mac(3);
            m.enqueue(
                NodeId::new(1),
                MacFrame::unicast(NodeId::new(0), OverhearingLevel::Randomized, 512, "d"),
                SimTime::ZERO,
            )
            .unwrap();
            let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(ans));
            assert_eq!(out.awake[2], expect_awake, "policy answer {ans}");
        }
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let nt = line_topology(&[0.0, 200.0, 400.0]);
        let mut m = mac(3);
        m.enqueue(NodeId::new(1), MacFrame::broadcast(64, "rreq"), SimTime::ZERO)
            .unwrap();
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert_eq!(out.deliveries.len(), 1);
        let d = &out.deliveries[0];
        assert_eq!(d.receiver, None);
        assert_eq!(
            d.fanout.recipients(&out.fanout),
            [NodeId::new(0), NodeId::new(2)]
        );
        // Everyone who must receive the broadcast stays awake.
        assert_eq!(out.awake, vec![true, true, true]);
        assert_eq!(m.counters().broadcast_delivered, 1);
    }

    #[test]
    fn randomized_broadcast_lets_neighbors_sleep() {
        struct NeverReceive;
        impl crate::wake::WakePolicy for NeverReceive {
            fn mode(&self, _n: NodeId) -> crate::wake::PowerMode {
                crate::wake::PowerMode::PowerSave
            }
            fn overhear(
                &mut self,
                _o: NodeId,
                _s: NodeId,
                _l: OverhearingLevel,
                _nt: &NeighborTable,
            ) -> bool {
                false
            }
            fn overhear_broadcast(
                &mut self,
                _o: NodeId,
                _s: NodeId,
                _nt: &NeighborTable,
            ) -> bool {
                false
            }
        }
        let nt = line_topology(&[0.0, 200.0, 400.0]);
        let mut m = mac(3);
        m.enqueue(
            NodeId::new(1),
            MacFrame::broadcast_with_level(OverhearingLevel::Randomized, 64, "rreq"),
            SimTime::ZERO,
        )
        .unwrap();
        let out = m.run_interval(SimTime::ZERO, &nt, &mut NeverReceive);
        assert_eq!(out.deliveries.len(), 1);
        assert!(
            out.deliveries[0].fanout.recipients(&out.fanout).is_empty(),
            "all neighbors elected to sleep through the broadcast"
        );
        assert_eq!(out.awake, vec![false, true, false]);
    }

    #[test]
    fn out_of_range_receiver_breaks_link_after_retries() {
        let nt = line_topology(&[0.0, 1000.0]);
        let mut m = mac(2);
        m.enqueue(
            NodeId::new(0),
            MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        let limit = MacConfig::default().atim_retry_limit;
        let mut failures = Vec::new();
        for k in 0..limit {
            let out = m.run_interval(
                SimTime::from_millis(250 * k as u64),
                &nt,
                &mut ps(false),
            );
            assert!(out.deliveries.is_empty());
            failures.extend(out.failures);
        }
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].receiver, NodeId::new(1));
        assert_eq!(failures[0].frame.payload, "d");
        assert_eq!(m.counters().link_failures, 1);
        assert_eq!(m.queue_len(NodeId::new(0)), 0);
    }

    #[test]
    fn receiver_back_in_range_resets_attempts() {
        let far = line_topology(&[0.0, 1000.0]);
        let near = line_topology(&[0.0, 100.0]);
        let mut m = mac(2);
        m.enqueue(
            NodeId::new(0),
            MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        // Two silent intervals (limit is 3), then the receiver returns.
        for k in 0..2 {
            let out = m.run_interval(SimTime::from_millis(250 * k), &far, &mut ps(false));
            assert!(out.failures.is_empty());
        }
        let out = m.run_interval(SimTime::from_millis(500), &near, &mut ps(false));
        assert_eq!(out.deliveries.len(), 1);
        assert!(out.failures.is_empty());
    }

    #[test]
    fn data_window_capacity_defers_excess_traffic() {
        // One sender, one receiver, queue far more than 200 ms of data.
        let nt = line_topology(&[0.0, 100.0]);
        let mut m = mac(2);
        // 512 B + 28 B header at 2 Mbps ≈ 2.7 ms per exchange;
        // 200 ms fits ~70 frames. Queue 50 (capacity) — all fit.
        // Use 12 000-byte frames instead: ~48.8 ms each, only 4 fit.
        for _ in 0..10 {
            m.enqueue(
                NodeId::new(0),
                MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 12_000, "big"),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert!(out.deliveries.len() < 10, "{}", out.deliveries.len());
        assert!(!out.deliveries.is_empty());
        assert_eq!(
            m.queue_len(NodeId::new(0)),
            10 - out.deliveries.len()
        );
        assert!(m.counters().data_deferred > 0);
    }

    #[test]
    fn spatially_separated_pairs_transmit_in_parallel() {
        // Two pairs far apart: both fully drain in one interval even
        // with frames that would exceed the window if serialized.
        let nt = line_topology(&[0.0, 100.0, 5000.0, 5100.0]);
        let mut m = mac(4);
        for _ in 0..4 {
            m.enqueue(
                NodeId::new(0),
                MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 12_000, "a"),
                SimTime::ZERO,
            )
            .unwrap();
            m.enqueue(
                NodeId::new(2),
                MacFrame::unicast(NodeId::new(3), OverhearingLevel::None, 12_000, "b"),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert_eq!(out.deliveries.len(), 8);
    }

    #[test]
    fn active_nodes_always_awake_and_overhear() {
        let nt = line_topology(&[0.0, 200.0, 400.0]);
        let mut m = mac(3);
        m.enqueue(
            NodeId::new(1),
            MacFrame::unicast(NodeId::new(0), OverhearingLevel::None, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        let mut policy = crate::wake::AllActive;
        let out = m.run_interval(SimTime::ZERO, &nt, &mut policy);
        assert_eq!(out.awake, vec![true, true, true]);
        // Node 2 is awake (AM), so it physically overhears even though
        // the sender requested no overhearing.
        assert_eq!(
            out.deliveries[0].fanout.overhearers(&out.fanout),
            [NodeId::new(2)]
        );
    }

    #[test]
    fn injected_loss_keeps_frame_queued() {
        let nt = line_topology(&[0.0, 100.0]);
        let cfg = MacConfig {
            frame_loss_prob: 1.0, // always lose
            ..MacConfig::default()
        };
        let mut m: Mac = MacLayer::new(2, cfg, Phy::default(), StreamRng::from_seed(1));
        m.enqueue(
            NodeId::new(0),
            MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert!(out.deliveries.is_empty());
        assert_eq!(m.queue_len(NodeId::new(0)), 1);
        assert_eq!(m.counters().data_lost, 1);
    }

    #[test]
    fn loss_prob_override_and_purge() {
        let nt = line_topology(&[0.0, 100.0]);
        let mut m = mac(2);
        m.enqueue(
            NodeId::new(0),
            MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "d"),
            SimTime::ZERO,
        )
        .unwrap();
        // A full-loss burst keeps the frame queued…
        m.set_frame_loss_prob(1.0);
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert!(out.deliveries.is_empty());
        assert_eq!(m.queue_len(NodeId::new(0)), 1);
        // …then a crash purges it without touching drop counters.
        let purged = m.purge_node(NodeId::new(0));
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].frame.payload, "d");
        assert_eq!(m.queue_len(NodeId::new(0)), 0);
        assert_eq!(m.counters().queue_drops, 0);
        // Restoring the baseline lets traffic flow again.
        m.set_frame_loss_prob(0.0);
        m.enqueue(
            NodeId::new(0),
            MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "e"),
            SimTime::from_millis(250),
        )
        .unwrap();
        let out = m.run_interval(SimTime::from_millis(250), &nt, &mut ps(false));
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let nt = line_topology(&[0.0, 100.0, 5000.0, 5100.0]);
        let mut m = mac(4);
        for i in 0..3 {
            m.enqueue(
                NodeId::new(0),
                MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512 + i, "a"),
                SimTime::ZERO,
            )
            .unwrap();
            m.enqueue(
                NodeId::new(2),
                MacFrame::unicast(NodeId::new(3), OverhearingLevel::None, 512 + i, "b"),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let out = m.run_interval(SimTime::ZERO, &nt, &mut ps(false));
        assert!(out.deliveries.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn queue_overflow_counted() {
        let nt = line_topology(&[0.0, 100.0]);
        let mut m = mac(2);
        let cap = MacConfig::default().queue_capacity;
        for _ in 0..cap {
            m.enqueue(
                NodeId::new(0),
                MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "d"),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert!(m
            .enqueue(
                NodeId::new(0),
                MacFrame::unicast(NodeId::new(1), OverhearingLevel::None, 512, "x"),
                SimTime::ZERO,
            )
            .is_err());
        assert_eq!(m.counters().queue_drops, 1);
        let _ = nt;
    }
}
