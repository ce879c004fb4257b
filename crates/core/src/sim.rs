//! The full-network simulation: all layers wired together.
//!
//! One [`Simulation`] owns mobility, the PSM MAC, the active-mode
//! channel, one routing engine per node, the scheme-specific controllers
//! (ODPM timeouts, the Rcast decider), the per-node energy lanes, and
//! the metric collectors. [`Simulation::step_interval`] advances one
//! beacon interval ([`Simulation::run`] loops it to completion) with one
//! method call per phase:
//!
//! 1. refresh positions and the incrementally maintained neighbor
//!    index;
//! 2. apply the fault plan: crashes, rejoins, battery deaths, link
//!    blackouts and corruption bursts;
//! 3. feed every node's link churn to the Rcast decider;
//! 4. fire the routing timers;
//! 5. resolve the PSM beacon interval (ATIM window + data window) and
//!    feed every delivery, overhearing and link failure back into the
//!    routing engines;
//! 6. inject the interval's CBR arrivals (immediate transmission for
//!    802.11/ODPM-AM paths, MAC queueing otherwise);
//! 7. sample role numbers from the route caches, once a second;
//! 8. integrate energy per node from awake/sleep durations;
//! 9. close the ledger's interval.
//!
//! The world (mobility, positions, the neighbor index, the traffic
//! schedule, the interval counter) lives on [`Simulation`]. Everything
//! a transmission touches lives in one `Stack` beside it, so a phase
//! borrows the neighbor table and the stack at once, and a delivery
//! method needs nothing but the stack and the table.
//!
//! The result is a [`SimReport`] carrying every metric of the paper's
//! Section 4.
//!
//! # Hot path & memory discipline
//!
//! The steady-state interval loop is allocation-free (see DESIGN.md
//! §10): the neighbor index ([`rcast_mobility::NeighborIndex`])
//! refilters each node's list in place from skin-radius candidate lists
//! that are rebuilt only after enough motion, packets are interned once
//! in a [`PacketArena`] and travel through the MAC as copyable
//! [`PacketHandle`]s, and the per-interval working storage (the action
//! queues and the MAC's interval outcome) lives on the stack, cleared,
//! never dropped. `crates/bench` carries a counting-allocator
//! regression test pinning quiet intervals to zero heap allocations.

use std::collections::VecDeque;
use std::sync::Arc;

use rcast_aodv::{AodvCounters, AodvPacket};
use rcast_dsr::{DsrCounters, DsrPacket};
use rcast_engine::pool::ScopedPool;
use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_mac::{
    Channel, Delivery, ImmediateResult, IntervalOutcome, LinkFailure, MacFrame, MacLayer,
    MacObserver, OverhearingLevel, PowerMode, WakePolicy,
};
use rcast_mobility::{MobilityField, NeighborIndex, NeighborTable, Snapshot};
use rcast_obs::{EventKind as ObsKind, Ledger, LedgerParams, PacketClass};
use rcast_radio::{EnergyModel, Phy, PowerState};
use rcast_metrics::{DeliveryTracker, EnergyReport, RoleNumbers};
use rcast_traffic::{Arrival, FlowSchedule};

use crate::config::SimConfig;
use crate::faults::{FaultCounters, FaultPlan};
use crate::odpm::OdpmState;
use crate::routing::{NetPacket, PacketArena, PacketHandle, RouteAction, RouteOut, RouterNode};
use crate::overhearing::RcastDecider;
use crate::report::SimReport;
use crate::scheme::Scheme;

/// The per-interval wake policy handed to the MAC resolver.
struct IntervalPolicy<'a> {
    scheme: Scheme,
    interval_start: SimTime,
    odpm: &'a OdpmState,
    rcast: &'a mut RcastDecider,
}

impl WakePolicy for IntervalPolicy<'_> {
    fn mode(&self, node: NodeId) -> PowerMode {
        match self.scheme {
            Scheme::Dot11 => PowerMode::Active,
            Scheme::Psm | Scheme::PsmNoOverhear | Scheme::Rcast => PowerMode::PowerSave,
            Scheme::Odpm => {
                if self.odpm.is_am(node, self.interval_start) {
                    PowerMode::Active
                } else {
                    PowerMode::PowerSave
                }
            }
        }
    }

    fn overhear(
        &mut self,
        observer: NodeId,
        sender: NodeId,
        _level: OverhearingLevel,
        neighbors: &NeighborTable,
    ) -> bool {
        // Only Rcast advertises the randomized level.
        self.rcast
            .decide(observer, sender, neighbors, self.interval_start)
    }

    fn overhear_broadcast(
        &mut self,
        observer: NodeId,
        sender: NodeId,
        _neighbors: &NeighborTable,
    ) -> bool {
        self.rcast.decide_broadcast(observer, sender)
    }
}

/// A routing action awaiting dispatch, stamped with its node and time.
type Pending = (NodeId, SimTime, RouteAction);

/// Moves the actions a router handler just emitted onto `to`, stamped
/// with the node that emitted them and the time.
fn queue_actions(out: &mut RouteOut, node: NodeId, at: SimTime, to: &mut impl Extend<Pending>) {
    to.extend(out.actions.drain(..).map(|a| (node, at, a)));
}

/// The run's event [`Ledger`] when `SimConfig::obs` is on, and nothing
/// otherwise. Every hook is a no-op on an empty recorder, so the
/// interval path records unconditionally; no hook feeds anything back
/// into the run. It is also the MAC's observer, implemented here
/// because `rcast-mac` and `rcast-obs` both sit upstream of this crate.
struct Recorder(Option<Ledger>);

impl Recorder {
    /// Records one event.
    fn record(&mut self, at: SimTime, node: NodeId, kind: ObsKind) {
        if let Some(l) = &mut self.0 {
            l.record_event(at, node, kind);
        }
    }

    /// Records a network-scoped marker on the ledger's pseudo-node,
    /// one past the last real node.
    fn record_network(&mut self, at: SimTime, kind: ObsKind) {
        if let Some(l) = &mut self.0 {
            l.record_event(at, l.network_node(), kind);
        }
    }

    /// Records one energy span, mirroring one lane accumulation.
    fn span(&mut self, at: SimTime, node: NodeId, state: PowerState, dur: SimDuration) {
        if let Some(l) = &mut self.0 {
            l.record_span(at, node, state, dur);
        }
    }

    /// Closes the current interval's row.
    fn end_interval(&mut self) {
        if let Some(l) = &mut self.0 {
            l.end_interval();
        }
    }
}

impl MacObserver for Recorder {
    fn atim_unicast(&mut self, at: SimTime, sender: NodeId, to: NodeId) {
        self.record(at, sender, ObsKind::AtimUnicast { to });
    }
    fn atim_broadcast(&mut self, at: SimTime, sender: NodeId) {
        self.record(at, sender, ObsKind::AtimBroadcast);
    }
    fn atim_no_ack(&mut self, at: SimTime, sender: NodeId, to: NodeId) {
        self.record(at, sender, ObsKind::AtimNoAck { to });
    }
    fn atim_deferred(&mut self, at: SimTime, sender: NodeId) {
        self.record(at, sender, ObsKind::AtimDeferred);
    }
    fn link_broken(&mut self, at: SimTime, sender: NodeId, to: NodeId) {
        self.record(at, sender, ObsKind::LinkBroken { to });
    }
    fn overhear_commit(&mut self, at: SimTime, node: NodeId, sender: NodeId) {
        self.record(at, node, ObsKind::OverhearCommit { sender });
    }
    fn airtime_reserved(&mut self, at: SimTime, sender: NodeId, dur: SimDuration) {
        self.record(
            at,
            sender,
            ObsKind::Airtime {
                nanos: dur.as_nanos(),
            },
        );
    }
    fn data_lost(&mut self, at: SimTime, sender: NodeId, to: NodeId) {
        self.record(at, sender, ObsKind::DataLost { to });
    }
    fn data_deferred(&mut self, at: SimTime, sender: NodeId) {
        self.record(at, sender, ObsKind::DataDeferred);
    }
}

/// The per-packet hop budget (ledger `Forwarded` events) that, with
/// each packet's origination and its delivery or drop, sizes the
/// ledger's packet lane: `nodes - 1`, the longest loop-free path.
///
/// Under DSR it bounds every packet. A source route is loop-free
/// (`SourceRoute::new` rejects a repeated node), and a salvage splices
/// the prefix the packet has travelled onto a cached tail and keeps the
/// result only if it is still loop-free, so a packet's whole path is one
/// loop-free route; a packet back in its source's send buffer has made
/// no hop. AODV's sequence numbers keep its next-hop graph loop-free at
/// each instant, but a packet that outlives a route change may revisit
/// a node, so under AODV the figure bounds the run's average, not each
/// packet. The lane is shared by all packets, so a breach needs the
/// average packet to make `nodes - 1` hops; it would be counted in
/// `Ledger::dropped`, not grown.
fn max_data_hops(cfg: &SimConfig) -> u64 {
    u64::from(cfg.nodes.saturating_sub(1))
}

/// Struct-of-arrays per-node hot state: the crash/power lane, the
/// per-state energy-seconds lanes and the battery lanes, each one flat
/// array indexed by node id.
///
/// The interval phases walk nodes in index order; holding this state
/// as lanes instead of per-node structs turns the energy integration,
/// fault scan and battery drain into sequential streams over small
/// contiguous arrays. The arithmetic mirrors
/// `EnergyMeter::accumulate`/`total_joules` operation-for-operation —
/// same adds, same order — so reports and ledger replays (which replay
/// spans into real `EnergyMeter`s) stay bit-identical. `EnergyMeter`
/// remains the single-node oracle type.
struct NodeLanes {
    /// Power draw per state; identical for every node.
    model: EnergyModel,
    /// Crashed (radio off) this interval.
    down: Vec<bool>,
    /// Seconds spent awake — meter slot 0.
    awake_s: Vec<f64>,
    /// Seconds spent dozing — meter slot 3.
    sleep_s: Vec<f64>,
    /// Seconds spent off — meter slot 4. Draws nothing; kept so the
    /// per-node accounted wall-clock invariant stays checkable.
    off_s: Vec<f64>,
    /// Battery lanes; `None` when capacity is unlimited.
    battery: Option<BatteryLanes>,
}

/// Finite-battery lanes, one entry per node.
struct BatteryLanes {
    capacity_j: f64,
    consumed_j: Vec<f64>,
    /// The one record that a node has died: set when its drain crosses
    /// capacity, after which the node is `Off` from the next interval
    /// boundary for the rest of the run.
    depleted: Vec<bool>,
}

impl NodeLanes {
    // det: cold — construction: runs once per simulation
    fn new(n: usize, model: EnergyModel, battery_capacity_j: Option<f64>) -> Self {
        NodeLanes {
            model,
            down: vec![false; n],
            awake_s: vec![0.0; n],
            sleep_s: vec![0.0; n],
            off_s: vec![0.0; n],
            battery: battery_capacity_j.map(|cap| {
                assert!(
                    cap.is_finite() && cap > 0.0,
                    "invalid capacity {cap}"
                );
                BatteryLanes {
                    capacity_j: cap,
                    consumed_j: vec![0.0; n],
                    depleted: vec![false; n],
                }
            }),
        }
    }

    /// Number of nodes covered.
    fn len(&self) -> usize {
        self.down.len()
    }

    /// Node `i`'s total energy, bit-identical to
    /// `EnergyMeter::total_joules` fed the same durations: the tx/rx
    /// slots are never charged by the interval loop, and `x + 0.0 == x`
    /// exactly for the finite non-negative products involved, so
    /// dropping the two zero terms cannot change a bit.
    fn total_joules(&self, i: usize) -> f64 {
        self.awake_s[i] * self.model.idle_w + self.sleep_s[i] * self.model.sleep_w
    }
}

impl BatteryLanes {
    /// Consumes `joules` from node `i`'s battery; returns `true` when
    /// this drain crossed capacity. Only a live node drains, so the
    /// crossing happens once.
    fn drain(&mut self, i: usize, joules: f64) -> bool {
        self.consumed_j[i] += joules;
        self.depleted[i] = self.consumed_j[i] >= self.capacity_j;
        self.depleted[i]
    }

    /// Remaining charge as a fraction of capacity, in `[0, 1]`.
    fn remaining_fraction(&self, i: usize) -> f64 {
        (self.capacity_j - self.consumed_j[i]).max(0.0) / self.capacity_j
    }
}

/// The assembled network simulation.
///
/// # Example
///
/// ```
/// use rcast_core::{Scheme, SimConfig, Simulation};
///
/// let report = Simulation::new(SimConfig::smoke(Scheme::Rcast, 7))
///     .expect("valid config")
///     .run();
/// assert!(report.energy.total_joules() > 0.0);
/// assert!(report.delivery.delivery_ratio() > 0.0);
/// ```
pub struct Simulation {
    cfg: Arc<SimConfig>,
    /// The seed actually driving this run — overrides `cfg.seed`, so
    /// one shared configuration can fan out across seeds without being
    /// cloned per run.
    seed: u64,
    mobility: MobilityField,
    /// Position snapshot, refreshed in place each interval.
    snap: Snapshot,
    /// Incrementally maintained neighbor index (current + previous
    /// table, double-buffered).
    neighbors: NeighborIndex,
    schedule: FlowSchedule,
    next_arrival: Option<Arrival>,
    roles: RoleNumbers,
    /// The next beacon interval to execute.
    k: u64,
    stack: Stack,
}

/// Everything a transmission touches: the MAC and channel, the packet
/// arena, the routing engines, the scheme controllers, the per-node
/// lanes, the fault state, the metric and event recorders, and the
/// reusable action queues.
struct Stack {
    cfg: Arc<SimConfig>,
    mac: MacLayer<PacketHandle>,
    channel: Channel,
    /// In-flight packet storage: the MAC and channel move
    /// [`PacketHandle`]s; the packets themselves are interned here once
    /// per transmission.
    arena: PacketArena,
    routers: Vec<RouterNode>,
    odpm: OdpmState,
    rcast: RcastDecider,
    /// Per-node hot state as struct-of-arrays lanes (crash flag,
    /// energy seconds, battery) — see [`NodeLanes`].
    lanes: NodeLanes,
    tracker: DeliveryTracker,
    faults: FaultPlan,
    /// `false` for a clean run without a battery: every fault hook
    /// short-circuits and the run is bit-identical to one built before
    /// faults existed.
    faults_active: bool,
    fault_counters: FaultCounters,
    first_depletion: Option<SimTime>,
    ledger: Recorder,
    /// The routers' caller-owned action buffer: each handler call fills
    /// it and [`queue_actions`] empties it straight away.
    route_out: RouteOut,
    /// The pending-action queue drained by [`Stack::dispatch`].
    work: VecDeque<Pending>,
    /// Broadcast fan-out staging for reply-storm suppression.
    batch: Vec<Pending>,
    /// The MAC interval outcome, refilled in place each interval. The
    /// immediate (active-mode) path writes its one transmission's
    /// recipients into the same `fanout` buffer: the interval's own
    /// deliveries are all processed before anything is dispatched.
    outcome: IntervalOutcome<PacketHandle>,
}

impl Simulation {
    /// Builds a simulation from a validated configuration, seeded by
    /// `cfg.seed`.
    ///
    /// # Errors
    ///
    /// Returns the configuration error, if any.
    pub fn new(cfg: SimConfig) -> Result<Self, String> {
        let seed = cfg.seed;
        Simulation::with_seed(Arc::new(cfg), seed)
    }

    /// Builds a simulation over a shared configuration with an explicit
    /// seed override. `cfg.seed` is ignored: every random stream, the
    /// fault plan, and the report's `seed` field all derive from `seed`,
    /// so seed sweeps share one configuration allocation instead of
    /// cloning it per run.
    ///
    /// # Errors
    ///
    /// Returns the configuration error, if any.
    // det: cold — construction: runs once per (config, seed) before the interval loop
    pub fn with_seed(cfg: Arc<SimConfig>, seed: u64) -> Result<Self, String> {
        cfg.validate()?;
        let n = cfg.nodes as usize;
        let root = StreamRng::from_seed(seed);
        let mut mobility = MobilityField::random_waypoint(
            cfg.nodes,
            cfg.area,
            cfg.waypoint,
            root.child("mobility"),
        );
        let flows = cfg.traffic.generate(cfg.nodes, root.child("traffic"));
        let horizon = SimTime::ZERO + cfg.duration;
        let phy = Phy::new(cfg.data_rate_bps);
        let faults = FaultPlan::build_seeded(&cfg, seed);
        // A finite battery can take a node down, through the same path.
        let faults_active = !faults.is_empty() || cfg.battery_capacity_j.is_some();
        let mut schedule = FlowSchedule::new(&flows, horizon);
        let next_arrival = schedule.next();
        let snap = mobility.snapshot(SimTime::ZERO);
        let neighbors = NeighborIndex::new(&snap, cfg.range_m);
        let stack = Stack {
            mac: MacLayer::new(n, cfg.mac, phy, root.child("mac")),
            channel: Channel::new(n, cfg.mac, phy, root.child("channel")),
            arena: PacketArena::new(),
            routers: (0..n)
                .map(|i| RouterNode::new(cfg.routing, NodeId::new(i as u32), cfg.dsr, cfg.aodv))
                .collect(),
            odpm: OdpmState::new(n, cfg.odpm),
            rcast: RcastDecider::new(n, cfg.factors, root.child("rcast")),
            lanes: NodeLanes::new(n, cfg.energy, cfg.battery_capacity_j),
            tracker: DeliveryTracker::new(),
            faults,
            faults_active,
            fault_counters: FaultCounters::default(),
            first_depletion: None,
            ledger: Recorder(cfg.obs.then(|| {
                Ledger::new(LedgerParams {
                    nodes: cfg.nodes,
                    intervals: cfg.beacon_intervals(),
                    beacon_nanos: cfg.mac.beacon_interval.as_nanos(),
                    // Bounded from the configuration alone, like the other
                    // lanes, so every seed allocates the same buffer.
                    packet_events: cfg.traffic.max_packets_before(horizon)
                        * (2 + max_data_hops(&cfg)),
                })
            })),
            route_out: RouteOut::default(),
            work: VecDeque::new(),
            batch: Vec::new(),
            outcome: IntervalOutcome::default(),
            cfg: Arc::clone(&cfg),
        };
        Ok(Simulation {
            mobility,
            snap,
            neighbors,
            schedule,
            next_arrival,
            roles: RoleNumbers::new(n),
            k: 0,
            stack,
            seed,
            cfg,
        })
    }

    /// The configuration driving this run.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Does nothing: a beacon interval always runs on the caller's
    /// thread, and results never depended on this width. Kept only so
    /// existing callers still build; it will be removed.
    pub fn set_shard_width(&mut self, _: usize) {}

    /// Runs the simulation to completion and reports.
    pub fn run(mut self) -> SimReport {
        while self.step_interval() {}
        self.finish()
    }

    /// Executes one beacon interval. Returns `false` once the
    /// configured duration has elapsed (and performs no work then).
    pub fn step_interval(&mut self) -> bool {
        if self.k >= self.cfg.beacon_intervals() {
            return false;
        }
        let bi = self.cfg.mac.beacon_interval;
        let t = SimTime::ZERO + bi * self.k;
        self.advance_world(t);
        self.stack.apply_faults(t, &mut self.neighbors);
        self.scan_link_churn();
        self.stack.fire_timers(t, self.neighbors.current());
        self.stack.resolve_interval(t, self.neighbors.current());
        self.originate_arrivals(t + bi);
        self.sample_roles();
        self.stack.account_energy(t);
        self.stack.ledger.end_interval();
        self.k += 1;
        true
    }

    /// Moves every node to its position at `t` and advances the
    /// neighbor index. Interval 0 runs on the construction snapshot.
    fn advance_world(&mut self, t: SimTime) {
        if self.k > 0 {
            self.mobility.snapshot_into(t, &mut self.snap);
            self.neighbors.advance(&self.snap);
        }
    }

    /// Feeds the decider every node's link churn in node order.
    /// Carried-forward lists (byte-equal to the previous interval's, no
    /// fault mutation since) have zero churn, so the symmetric-difference
    /// merge runs only for lists that actually changed — the decider
    /// still sees every node (its EWMA decays on 0).
    fn scan_link_churn(&mut self) {
        if self.k == 0 {
            return;
        }
        let (cur, prev) = (self.neighbors.current(), self.neighbors.previous());
        for i in 0..self.cfg.nodes as usize {
            let id = NodeId::new(i as u32);
            let changes = if self.neighbors.carried_forward(id) {
                0
            } else {
                cur.link_changes_since(prev, id)
            };
            self.stack.rcast.note_link_changes(id, changes);
        }
    }

    /// Hands every CBR arrival before `end` to its source, in arrival
    /// order, dispatching each before the next.
    fn originate_arrivals(&mut self, end: SimTime) {
        let nt = self.neighbors.current();
        while let Some(a) = self.next_arrival.filter(|a| a.at < end) {
            self.stack.originate(a, nt);
            self.next_arrival = self.schedule.next();
        }
    }

    /// Role-number accounting: the paper computes role numbers "by
    /// examining each node's route cache" — sample cache contents once
    /// a second and count intermediates.
    fn sample_roles(&mut self) {
        if !self.k.is_multiple_of(4) {
            return;
        }
        let roles = &mut self.roles;
        for node in &self.stack.routers {
            node.for_each_cached_path(|path| roles.record_cached_route(path.nodes()));
        }
    }

    /// Closes the run and reports. Pairs with
    /// [`step_interval`](Self::step_interval); calling it before the
    /// final interval reports the simulation as of the intervals
    /// executed so far.
    pub fn finish(self) -> SimReport {
        let stack = self.stack;
        let mut dsr_total = DsrCounters::default();
        let mut aodv_total = AodvCounters::default();
        for node in &stack.routers {
            if let Some(c) = node.dsr_counters() {
                dsr_total.rreq_originated += c.rreq_originated;
                dsr_total.rreq_forwarded += c.rreq_forwarded;
                dsr_total.rrep_from_target += c.rrep_from_target;
                dsr_total.rrep_from_cache += c.rrep_from_cache;
                dsr_total.rrep_forwarded += c.rrep_forwarded;
                dsr_total.rerr_originated += c.rerr_originated;
                dsr_total.rerr_forwarded += c.rerr_forwarded;
                dsr_total.data_sent += c.data_sent;
                dsr_total.data_forwarded += c.data_forwarded;
                dsr_total.data_salvaged += c.data_salvaged;
                dsr_total.data_delivered += c.data_delivered;
                dsr_total.data_dropped += c.data_dropped;
            }
            if let Some(c) = node.aodv_counters() {
                aodv_total.rreq_originated += c.rreq_originated;
                aodv_total.rreq_forwarded += c.rreq_forwarded;
                aodv_total.rrep_from_target += c.rrep_from_target;
                aodv_total.rrep_from_table += c.rrep_from_table;
                aodv_total.rrep_forwarded += c.rrep_forwarded;
                aodv_total.hello_sent += c.hello_sent;
                aodv_total.rerr_sent += c.rerr_sent;
                aodv_total.data_sent += c.data_sent;
                aodv_total.data_forwarded += c.data_forwarded;
                aodv_total.data_delivered += c.data_delivered;
                aodv_total.data_dropped += c.data_dropped;
            }
        }
        SimReport {
            scheme: self.cfg.scheme,
            seed: self.seed,
            duration: self.cfg.duration,
            energy: EnergyReport::new(
                (0..stack.lanes.len())
                    .map(|i| stack.lanes.total_joules(i))
                    .collect(),
            ),
            delivery: stack.tracker,
            roles: self.roles,
            mac: stack.mac.counters(),
            dsr: dsr_total,
            aodv: aodv_total,
            faults: stack.fault_counters,
            first_depletion: stack.first_depletion,
            obs: stack.ledger.0.map(Ledger::into_report),
        }
    }
}

impl Stack {
    /// Applies the fault plan at the interval boundary `t`: resolves
    /// node up/down transitions (a crash, or a battery that drained in
    /// the previous interval, purges the node's MAC queue and wipes its
    /// volatile routing state), masks crashed nodes and
    /// blacked-out links out of the neighbor index — neighbors then
    /// discover the loss through missing ATIM-ACKs, which feeds DSR a
    /// link error — and sets the interval's frame-corruption
    /// probability.
    fn apply_faults(&mut self, t: SimTime, index: &mut NeighborIndex) {
        if !self.faults_active {
            return;
        }
        let new_blackouts = self.faults.activate_blackouts(t);
        let new_bursts = self.faults.activate_bursts(t);
        self.fault_counters.link_blackouts += new_blackouts;
        self.fault_counters.corruption_bursts += new_bursts;
        if new_blackouts > 0 {
            self.ledger.record_network(
                t,
                ObsKind::Blackouts {
                    newly: new_blackouts as u32,
                },
            );
        }
        if new_bursts > 0 {
            self.ledger.record_network(
                t,
                ObsKind::Bursts {
                    newly: new_bursts as u32,
                },
            );
        }
        for i in 0..self.cfg.nodes as usize {
            let id = NodeId::new(i as u32);
            let crashed = self.faults.is_down(id, t);
            let is_down = crashed || self.lanes.battery.as_ref().is_some_and(|b| b.depleted[i]);
            if is_down && !self.lanes.down[i] {
                if crashed {
                    self.fault_counters.crashes += 1;
                }
                self.ledger.record(t, id, ObsKind::Crash);
                // Volatile state dies with the node: queued frames and
                // route-pending buffered packets are lost for good.
                for q in self.mac.purge_node(id) {
                    let h = q.frame.payload;
                    self.arena.release(h);
                    if h.is_control() {
                        continue;
                    }
                    self.tracker.record_fault_drop();
                    self.fault_counters.packets_lost_to_faults += 1;
                    if let Some((flow, seq)) = h.data_id() {
                        self.ledger
                            .record(t, id, ObsKind::PacketDropped { flow, seq });
                    }
                }
                for (flow, seq) in self.routers[i].reboot(t) {
                    self.tracker.record_fault_drop();
                    self.fault_counters.packets_lost_to_faults += 1;
                    self.ledger
                        .record(t, id, ObsKind::PacketDropped { flow, seq });
                }
            } else if !is_down && self.lanes.down[i] {
                self.fault_counters.rejoins += 1;
                self.ledger.record(t, id, ObsKind::Rejoin);
            }
            self.lanes.down[i] = is_down;
            if is_down {
                index.isolate(id);
            }
        }
        for (a, b) in self.faults.cut_links_at(t) {
            index.cut_link(a, b);
        }
        let p = self
            .faults
            .corruption_prob(t)
            .max(self.cfg.mac.frame_loss_prob);
        self.mac.set_frame_loss_prob(p);
        self.channel.set_frame_loss_prob(p);
    }

    /// Fires every live node's routing timers (crashed nodes hold
    /// none) and dispatches what they emit.
    fn fire_timers(&mut self, t: SimTime, nt: &NeighborTable) {
        for i in 0..self.routers.len() {
            if self.lanes.down[i] {
                continue;
            }
            self.routers[i].tick(t, &mut self.route_out);
            queue_actions(
                &mut self.route_out,
                NodeId::new(i as u32),
                t,
                &mut self.work,
            );
        }
        self.dispatch(nt);
    }

    /// Resolves the PSM beacon interval starting at `t` and feeds its
    /// deliveries, then its link failures, back into the routers. 802.11
    /// has no PSM path and skips this phase.
    fn resolve_interval(&mut self, t: SimTime, nt: &NeighborTable) {
        if !self.cfg.scheme.uses_psm_path() {
            return;
        }
        let mut policy = IntervalPolicy {
            scheme: self.cfg.scheme,
            interval_start: t,
            odpm: &self.odpm,
            rcast: &mut self.rcast,
        };
        self.mac
            .run_interval(t, nt, &mut policy, &mut self.outcome, &mut self.ledger);
        for i in 0..self.outcome.deliveries.len() {
            self.process_delivery(self.outcome.deliveries[i]);
        }
        for i in 0..self.outcome.failures.len() {
            self.link_failure(self.outcome.failures[i], t);
        }
        self.dispatch(nt);
    }

    /// Hands one CBR arrival to its source's router and dispatches the
    /// result.
    fn originate(&mut self, a: Arrival, nt: &NeighborTable) {
        self.tracker.record_originated();
        let (flow, seq) = (a.flow, a.seq);
        self.ledger.record(
            a.at,
            a.src,
            ObsKind::Originated {
                flow,
                seq,
                dst: a.dst,
            },
        );
        if self.lanes.down[a.src.index()] {
            // A crashed source generates nothing on the air; the
            // packet is lost at birth.
            self.tracker.record_fault_drop();
            self.fault_counters.packets_lost_to_faults += 1;
            self.ledger
                .record(a.at, a.src, ObsKind::PacketDropped { flow, seq });
            return;
        }
        if self.cfg.scheme == Scheme::Odpm {
            // A generating source is an endpoint event.
            self.odpm.on_data(a.src, a.at);
        }
        self.routers[a.src.index()].originate(flow, seq, a.dst, a.bytes, a.at, &mut self.route_out);
        queue_actions(&mut self.route_out, a.src, a.at, &mut self.work);
        self.dispatch(nt);
    }

    /// Charges every node's meter for the interval starting at `t`.
    ///
    /// When the ledger is on, every `accumulate` call is mirrored by a
    /// `Span` event with the same state and duration, in the same
    /// per-node order — that is what makes
    /// [`rcast_obs::ObsReport::replay_energy`] reproduce the meters
    /// bit-for-bit.
    // The loop drives five parallel lanes plus `committed_awake` off
    // one index; an iterator over any single lane would obscure that.
    #[allow(clippy::needless_range_loop)]
    fn account_energy(&mut self, t: SimTime) {
        let bi = self.cfg.mac.beacon_interval;
        let aw = self.cfg.mac.atim_window;
        let model = self.lanes.model;
        for i in 0..self.cfg.nodes as usize {
            let id = NodeId::new(i as u32);
            if self.lanes.down[i] {
                // A crashed node's radio is off for the whole interval:
                // the wall clock still advances but nothing drains.
                self.lanes.off_s[i] += bi.as_secs_f64();
                self.ledger.span(t, id, PowerState::Off, bi);
                continue;
            }
            let committed = &self.outcome.committed_awake;
            let awake_dur = match self.cfg.scheme {
                Scheme::Dot11 => bi,
                // PS schemes: the MAC already integrated commitment time
                // (ATIM window when idle, through the last committed
                // transfer otherwise, the whole interval for unbounded
                // commitments).
                Scheme::Psm | Scheme::PsmNoOverhear | Scheme::Rcast => committed[i],
                // PSM commitments and the AM keep-alive overlap; the
                // node is awake for whichever reaches further.
                Scheme::Odpm => committed[i].max(aw.max(self.odpm.am_overlap(id, t, bi))),
            };
            // Same adds in the same order as `EnergyMeter::accumulate`
            // (the ledger replay reconstructs real meters from the
            // mirrored spans and must land on the same bits).
            self.lanes.awake_s[i] += awake_dur.as_secs_f64();
            self.lanes.sleep_s[i] += (bi - awake_dur).as_secs_f64();
            self.ledger.span(t, id, PowerState::Awake, awake_dur);
            self.ledger.span(t, id, PowerState::Sleep, bi - awake_dur);
            if let Some(bat) = &mut self.lanes.battery {
                let joules = awake_dur.as_secs_f64() * model.idle_w
                    + (bi - awake_dur).as_secs_f64() * model.sleep_w;
                if bat.drain(i, joules) {
                    // The node finishes this interval and is down from
                    // the next boundary on (`apply_faults`).
                    let died = t + bi;
                    self.first_depletion.get_or_insert(died);
                    self.fault_counters.battery_deaths += 1;
                    self.ledger.record(died, id, ObsKind::BatteryDead);
                }
                self.rcast.note_battery(id, bat.remaining_fraction(i));
            }
        }
    }

    /// Drains the pending-action queue, routing transmissions through
    /// the scheme-appropriate path.
    fn dispatch(&mut self, nt: &NeighborTable) {
        while let Some((node, at, action)) = self.work.pop_front() {
            match action {
                RouteAction::Unicast { next_hop, packet } => {
                    self.send_unicast(node, next_hop, packet, at, nt);
                }
                RouteAction::Broadcast { packet } => self.send_broadcast(node, packet, at, nt),
                RouteAction::Delivered(info) => {
                    self.tracker.record_delivered(info.generated_at, at);
                    self.tracker.record_hops(info.hops);
                    let (flow, seq) = (info.flow, info.seq);
                    self.ledger
                        .record(at, node, ObsKind::PacketDelivered { flow, seq });
                }
                RouteAction::Dropped(info) => {
                    self.tracker.record_dropped();
                    let (flow, seq) = (info.flow, info.seq);
                    self.ledger
                        .record(at, node, ObsKind::PacketDropped { flow, seq });
                }
            }
        }
    }

    /// `true` when the immediate (active-mode) path applies to a unicast
    /// from `from` to `to` at time `at`.
    fn immediate_path(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        match self.cfg.scheme {
            Scheme::Dot11 => true,
            Scheme::Odpm => self.odpm.is_am(from, at) && self.odpm.is_am(to, at),
            _ => false,
        }
    }

    fn send_unicast(
        &mut self,
        from: NodeId,
        next_hop: NodeId,
        packet: NetPacket,
        at: SimTime,
        nt: &NeighborTable,
    ) {
        let level = self.cfg.scheme.level_for_net(&packet);
        let bytes = packet.wire_bytes();
        let handle = self.arena.intern(packet);
        let frame = MacFrame::unicast(next_hop, level, bytes, handle);
        if self.immediate_path(from, next_hop, at) {
            let scheme = self.cfg.scheme;
            let odpm = &self.odpm;
            let result = self.channel.transmit(
                at,
                from,
                frame,
                nt,
                |x| match scheme {
                    Scheme::Dot11 => true,
                    Scheme::Odpm => odpm.is_am(x, at),
                    _ => unreachable!("immediate path is 802.11/ODPM only"),
                },
                &mut self.outcome.fanout,
            );
            match result {
                ImmediateResult::Delivered(d) => self.process_delivery(d),
                ImmediateResult::Failed(f) => self.link_failure(f, f.at),
            }
        } else if let Err(frame) = self.mac.enqueue(from, frame, at) {
            let h = frame.payload;
            if !h.is_control() {
                self.tracker.record_dropped();
                if let Some((flow, seq)) = h.data_id() {
                    self.ledger
                        .record(at, from, ObsKind::PacketDropped { flow, seq });
                }
            }
            self.arena.release(h);
        }
    }

    /// Hands a failed unicast back to its sender's router, for both the
    /// PSM path (failures collected over an interval) and the immediate
    /// path. The failure counts as fault-caused when the receiver is
    /// down or the link is cut at `fault_at` (the interval start on the
    /// PSM path, the failure time on the immediate path). The packet
    /// leaves the arena, and the router's recovery actions are queued.
    fn link_failure(&mut self, f: LinkFailure<PacketHandle>, fault_at: SimTime) {
        if self.faults_active
            && (self.lanes.down[f.receiver.index()]
                || self.faults.link_cut(f.sender, f.receiver, fault_at))
        {
            self.fault_counters.rerrs_triggered += 1;
        }
        let packet = self.arena.take(f.frame.payload);
        self.routers[f.sender.index()].link_failure(f.receiver, packet, f.at, &mut self.route_out);
        queue_actions(&mut self.route_out, f.sender, f.at, &mut self.work);
    }

    fn send_broadcast(&mut self, from: NodeId, packet: NetPacket, at: SimTime, nt: &NeighborTable) {
        let bytes = packet.wire_bytes();
        let handle = self.arena.intern(packet);
        if self.cfg.scheme == Scheme::Dot11 {
            let frame = MacFrame::broadcast(bytes, handle);
            match self
                .channel
                .transmit(at, from, frame, nt, |_| true, &mut self.outcome.fanout)
            {
                ImmediateResult::Delivered(d) => self.process_delivery(d),
                ImmediateResult::Failed(_) => unreachable!("broadcasts never fail"),
            }
        } else {
            // The randomized-broadcast extension kicks in only when the
            // Rcast factors ask for it (probability < 1).
            let level = if self.cfg.scheme == Scheme::Rcast
                && self.cfg.factors.broadcast_probability < 1.0
            {
                OverhearingLevel::Randomized
            } else {
                OverhearingLevel::Unconditional
            };
            let frame = MacFrame::broadcast_with_level(level, bytes, handle);
            if let Err(frame) = self.mac.enqueue(from, frame, at) {
                self.arena.release(frame.payload);
            }
        }
    }

    /// Feeds one completed transmission back into the protocol stack.
    /// Its recipients and overhearers are the ranges `d.fanout` names
    /// in the outcome's fanout buffer.
    ///
    /// Arena lifetime: the interned packet is *borrowed* by overhearers
    /// and broadcast recipients, then consumed exactly once — taken by
    /// the unicast receiver, or released after the broadcast fan-out.
    fn process_delivery(&mut self, d: Delivery<PacketHandle>) {
        let recipients = d.fanout.recipients(&self.outcome.fanout);
        let overhearers = d.fanout.overhearers(&self.outcome.fanout);
        let h = d.frame.payload;
        // Overhead accounting: one on-air transmission. The handle's
        // cached header answers everything without touching the arena.
        if h.is_control() {
            self.tracker.record_control_transmission();
            self.ledger
                .record(d.at, d.sender, ObsKind::ControlTx { class: h.class() });
        } else {
            self.tracker.record_data_transmission();
            if let (Some((flow, seq)), Some(to)) = (h.data_id(), d.receiver) {
                self.ledger
                    .record(d.at, d.sender, ObsKind::Forwarded { flow, seq, to });
            }
        }
        for &o in overhearers {
            self.ledger
                .record(d.at, o, ObsKind::Overheard { sender: d.sender });
        }
        // ODPM keep-alive events. DSR runs the radio promiscuously, so
        // an AM node's *overheard* traffic is indistinguishable from
        // received traffic at the power-management layer — overhearers
        // refresh their timers too. This stickiness is what keeps ODPM's
        // active corridors lit at high rates (the paper's Fig. 5(d)
        // explanation). AODV hellos are broadcast RREPs but carry their
        // own `Hello` class, so they do not refresh RREP timers.
        if self.cfg.scheme == Scheme::Odpm {
            match h.class() {
                PacketClass::Rrep => {
                    if let Some(r) = d.receiver {
                        self.odpm.on_rrep(r, d.at);
                    }
                }
                PacketClass::Data => {
                    self.odpm.on_data(d.sender, d.at);
                    if let Some(r) = d.receiver {
                        self.odpm.on_data(r, d.at);
                    }
                }
                PacketClass::Rreq => {
                    // Route-discovery keep-alive: request recipients stay
                    // active briefly so the reply can race back along the
                    // reverse path — the source of ODPM's low delay.
                    for &r in recipients {
                        self.odpm.on_rreq(r, d.at);
                    }
                }
                _ => {}
            }
        }
        // Sender-ID factor bookkeeping.
        for &x in recipients
            .iter()
            .chain(overhearers.iter())
            .chain(d.receiver.iter())
        {
            self.rcast.note_heard(x, d.sender, d.at);
        }
        // Overhearers first (they only borrow the interned packet).
        for &o in overhearers {
            self.routers[o.index()].overhear(
                self.arena.get(h),
                d.sender,
                d.at,
                &mut self.route_out,
            );
            queue_actions(&mut self.route_out, o, d.at, &mut self.work);
        }
        // Then the addressed receiver(s).
        match d.receiver {
            Some(r) => {
                let packet = self.arena.take(h);
                self.routers[r.index()].receive(packet, d.sender, d.at, &mut self.route_out);
                queue_actions(&mut self.route_out, r, d.at, &mut self.work);
            }
            None => {
                self.batch.clear();
                for &r in recipients {
                    let packet = self.arena.get(h);
                    self.routers[r.index()].receive_ref(
                        packet,
                        d.sender,
                        d.at,
                        &mut self.route_out,
                    );
                    queue_actions(&mut self.route_out, r, d.at, &mut self.batch);
                }
                self.arena.release(h);
                if h.class() == PacketClass::Rreq {
                    Self::suppress_reply_storm(&mut self.batch);
                }
                self.work.extend(self.batch.drain(..));
            }
        }
    }

    /// DSR's *route reply storm prevention* (Johnson & Maltz §: cached
    /// replies are jittered proportionally to route length and canceled
    /// when a shorter reply is overheard). The recipients of one RREQ
    /// transmission all hear each other, so among their cached replies
    /// only the shortest-route one survives.
    fn suppress_reply_storm(batch: &mut Vec<Pending>) {
        fn rrep_hops(a: &RouteAction) -> Option<usize> {
            match a {
                RouteAction::Unicast {
                    packet: NetPacket::Dsr(DsrPacket::Rrep(r)),
                    ..
                } => Some(r.route.hop_count()),
                RouteAction::Unicast {
                    packet: NetPacket::Aodv(AodvPacket::Rrep(r)),
                    ..
                } if !r.is_hello() => Some(r.hop_count as usize),
                _ => None,
            }
        }
        let best: Option<usize> = batch
            .iter()
            .enumerate()
            .filter_map(|(i, (_, _, a))| rrep_hops(a).map(|h| (i, h)))
            .min_by_key(|&(_, hops)| hops)
            .map(|(i, _)| i);
        let Some(best) = best else { return };
        let mut idx = 0usize;
        batch.retain(|(_, _, a)| {
            let keep = rrep_hops(a).is_none() || idx == best;
            // `retain` visits in order; track the original index.
            idx += 1;
            keep
        });
    }
}

/// Builds and runs one simulation.
///
/// # Errors
///
/// Returns the configuration error, if any.
pub fn run_sim(cfg: SimConfig) -> Result<SimReport, String> {
    Ok(Simulation::new(cfg)?.run())
}

/// Runs the same configuration under `seeds` different seeds, serially.
/// The configuration is shared (one clone total), with only the seed
/// varying per run.
///
/// # Errors
///
/// Returns the configuration error, if any.
pub fn run_seeds(cfg: &SimConfig, seeds: impl IntoIterator<Item = u64>) -> Result<Vec<SimReport>, String> {
    cfg.validate()?;
    let shared = Arc::new(cfg.clone());
    let mut out = Vec::new();
    for seed in seeds {
        out.push(Simulation::with_seed(Arc::clone(&shared), seed)?.run());
    }
    Ok(out)
}

/// Runs the same configuration under `seeds` different seeds, fanned out
/// across up to `threads` worker threads.
///
/// **Determinism contract:** the returned reports are byte-identical to
/// [`run_seeds`]' — same seeds, same order, same bits — for any thread
/// count. Each run is a pure function of `(config, seed)` with its own
/// [splittable RNG streams](rcast_engine::rng), and the
/// [pool](rcast_engine::pool) merges results in seed order, so
/// scheduling cannot leak into the output. `threads == 1` (or a single
/// seed) degenerates to the serial path on the calling thread. Pass
/// [`rcast_engine::pool::available_threads()`] to use every core.
///
/// The configuration is validated once and shared across workers
/// behind an [`Arc`]; only the seed differs per run.
///
/// # Errors
///
/// Returns the configuration error, if any, before any thread is
/// spawned.
pub fn run_seeds_parallel(
    cfg: &SimConfig,
    seeds: impl IntoIterator<Item = u64>,
    threads: usize,
) -> Result<Vec<SimReport>, String> {
    cfg.validate()?;
    let shared = Arc::new(cfg.clone());
    let seeds: Vec<u64> = seeds.into_iter().collect();
    Ok(ScopedPool::new(threads)
        .map(seeds, |_, seed| {
            Simulation::with_seed(Arc::clone(&shared), seed)
                .expect("validated above")
                .run()
        }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(scheme: Scheme, seed: u64) -> SimReport {
        run_sim(SimConfig::smoke(scheme, seed)).expect("valid smoke config")
    }

    #[test]
    fn all_schemes_complete_and_deliver() {
        for scheme in Scheme::ALL {
            let r = smoke(scheme, 1);
            assert!(
                r.delivery.originated() > 100,
                "{scheme}: {} originated",
                r.delivery.originated()
            );
            assert!(
                r.delivery.delivery_ratio() > 0.3,
                "{scheme}: PDR {}",
                r.delivery.delivery_ratio()
            );
            assert!(r.energy.total_joules() > 0.0, "{scheme}");
        }
    }

    #[test]
    fn identical_seeds_reproduce_bit_identical_reports() {
        for scheme in [Scheme::Rcast, Scheme::Odpm, Scheme::Dot11] {
            let a = smoke(scheme, 42);
            let b = smoke(scheme, 42);
            assert_eq!(
                a.energy.per_node_joules(),
                b.energy.per_node_joules(),
                "{scheme}"
            );
            assert_eq!(a.delivery.delivered(), b.delivery.delivered());
            assert_eq!(a.delivery.originated(), b.delivery.originated());
            assert_eq!(a.roles.all(), b.roles.all());
        }
    }

    #[test]
    fn determinism_holds_for_aodv_and_link_cache() {
        // HashMap-backed state (AODV tables, DSR link caches) must not
        // leak iteration order into results: every HashMap instance has
        // its own RandomState, so two runs in the same process already
        // catch ordering leaks.
        let mut aodv_cfg = SimConfig::smoke(Scheme::Rcast, 8);
        aodv_cfg.routing = crate::routing::RoutingKind::Aodv;
        let a = run_sim(aodv_cfg.clone()).unwrap();
        let b = run_sim(aodv_cfg).unwrap();
        assert_eq!(a.energy.per_node_joules(), b.energy.per_node_joules());
        assert_eq!(a.aodv, b.aodv);

        let mut link_cfg = SimConfig::smoke(Scheme::Rcast, 8);
        link_cfg.dsr.cache.strategy = rcast_dsr::CacheStrategy::Link;
        let a = run_sim(link_cfg.clone()).unwrap();
        let b = run_sim(link_cfg).unwrap();
        assert_eq!(a.energy.per_node_joules(), b.energy.per_node_joules());
        assert_eq!(a.dsr, b.dsr);
        assert_eq!(a.roles.all(), b.roles.all());
    }

    #[test]
    fn different_seeds_differ() {
        let a = smoke(Scheme::Rcast, 1);
        let b = smoke(Scheme::Rcast, 2);
        assert_ne!(a.energy.per_node_joules(), b.energy.per_node_joules());
    }

    #[test]
    fn stepwise_api_matches_one_shot_run() {
        let cfg = SimConfig::smoke(Scheme::Rcast, 13);
        let one = run_sim(cfg.clone()).unwrap();
        let mut sim = Simulation::new(cfg).unwrap();
        let mut steps = 0u64;
        while sim.step_interval() {
            steps += 1;
        }
        // Stepping past the end is a no-op.
        assert!(!sim.step_interval());
        let report = sim.finish();
        assert_eq!(steps, 480, "120 s at 250 ms per interval");
        assert_eq!(format!("{one:?}"), format!("{report:?}"));
    }

    #[test]
    fn with_seed_overrides_the_config_seed() {
        // One shared config fanned across seeds must equal per-seed
        // configs bit-for-bit: nothing may read `cfg.seed` directly.
        let shared = Arc::new(SimConfig::smoke(Scheme::Rcast, 1));
        let direct = run_sim(SimConfig::smoke(Scheme::Rcast, 5)).unwrap();
        let fanned = Simulation::with_seed(shared, 5).unwrap().run();
        assert_eq!(fanned.seed, 5);
        assert_eq!(format!("{direct:?}"), format!("{fanned:?}"));
    }

    #[test]
    fn dot11_energy_is_flat_and_maximal() {
        let r = smoke(Scheme::Dot11, 3);
        // Every node awake for the whole run: 1.15 W × 120 s = 138 J.
        let expect = 1.15 * 120.0;
        for &j in r.energy.per_node_joules() {
            assert!((j - expect).abs() < 1e-6, "{j} vs {expect}");
        }
        assert_eq!(r.energy.variance(), 0.0);
    }

    #[test]
    fn scheme_energy_ordering_matches_table1() {
        // The paper's Table 1 / Fig. 7: 802.11 worst, PSM baselines in
        // between, Rcast best (or tied) among PSM schemes.
        let dot11 = smoke(Scheme::Dot11, 5);
        let psm = smoke(Scheme::Psm, 5);
        let odpm = smoke(Scheme::Odpm, 5);
        let rcast = smoke(Scheme::Rcast, 5);
        let (e_dot11, e_psm, e_odpm, e_rcast) = (
            dot11.energy.total_joules(),
            psm.energy.total_joules(),
            odpm.energy.total_joules(),
            rcast.energy.total_joules(),
        );
        assert!(e_dot11 > e_psm, "802.11 {e_dot11} vs PSM {e_psm}");
        assert!(e_dot11 > e_odpm, "802.11 {e_dot11} vs ODPM {e_odpm}");
        assert!(e_rcast < e_odpm, "Rcast {e_rcast} vs ODPM {e_odpm}");
        assert!(e_rcast < e_psm, "Rcast {e_rcast} vs PSM {e_psm}");
    }

    #[test]
    fn rcast_delay_exceeds_dot11_delay() {
        let dot11 = smoke(Scheme::Dot11, 7);
        let rcast = smoke(Scheme::Rcast, 7);
        assert!(
            rcast.delivery.mean_delay() > dot11.delivery.mean_delay() * 5,
            "PSM path must pay beacon-interval latency: {} vs {}",
            rcast.delivery.mean_delay(),
            dot11.delivery.mean_delay()
        );
    }

    #[test]
    fn odpm_energy_variance_exceeds_rcast() {
        let odpm = smoke(Scheme::Odpm, 11);
        let rcast = smoke(Scheme::Rcast, 11);
        assert!(
            odpm.energy.variance() > rcast.energy.variance(),
            "ODPM {} vs Rcast {}",
            odpm.energy.variance(),
            rcast.energy.variance()
        );
    }

    #[test]
    fn aodv_routing_delivers_under_every_scheme() {
        for scheme in [Scheme::Dot11, Scheme::Odpm, Scheme::Rcast] {
            let mut cfg = SimConfig::smoke(scheme, 3);
            cfg.routing = crate::routing::RoutingKind::Aodv;
            let r = run_sim(cfg).expect("valid config");
            assert!(
                r.delivery.delivery_ratio() > 0.3,
                "{scheme}+AODV: PDR {}",
                r.delivery.delivery_ratio()
            );
            assert!(r.aodv.rreq_originated > 0, "{scheme}: AODV must flood");
            assert_eq!(r.dsr.rreq_originated, 0, "no DSR activity under AODV");
        }
    }

    #[test]
    fn aodv_floods_more_than_dsr() {
        // The paper's footnote 1: AODV's conservative route maintenance
        // "necessitates more RREQ messages" than DSR's cached,
        // overheard route state.
        let dsr = run_sim(SimConfig::smoke(Scheme::Rcast, 9)).unwrap();
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 9);
        cfg.routing = crate::routing::RoutingKind::Aodv;
        let aodv = run_sim(cfg).unwrap();
        let dsr_rreq = dsr.dsr.rreq_originated + dsr.dsr.rreq_forwarded;
        let aodv_rreq = aodv.aodv.rreq_originated + aodv.aodv.rreq_forwarded;
        assert!(
            aodv_rreq > dsr_rreq,
            "AODV RREQ traffic {aodv_rreq} must exceed DSR's {dsr_rreq}"
        );
    }

    #[test]
    fn aodv_hellos_cost_energy_under_psm() {
        // Section 1 of the paper: protocols with periodic control
        // broadcasts "tend to consume more energy with IEEE 802.11 PSM".
        let mut with_hello = SimConfig::smoke(Scheme::Rcast, 4);
        with_hello.routing = crate::routing::RoutingKind::Aodv;
        let mut without = with_hello.clone();
        without.aodv.hello_interval = None;
        let h = run_sim(with_hello).unwrap();
        let q = run_sim(without).unwrap();
        assert!(h.aodv.hello_sent > 0);
        assert!(
            h.energy.total_joules() > q.energy.total_joules(),
            "hellos {} J must cost more than silence {} J",
            h.energy.total_joules(),
            q.energy.total_joules()
        );
    }

    #[test]
    fn link_cache_strategy_runs_and_delivers() {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 6);
        cfg.dsr.cache.strategy = rcast_dsr::CacheStrategy::Link;
        cfg.dsr.cache.capacity = 128;
        let r = run_sim(cfg).expect("valid config");
        assert!(
            r.delivery.delivery_ratio() > 0.5,
            "link cache PDR {}",
            r.delivery.delivery_ratio()
        );
        // Role sampling still works: link caches render path trees.
        assert!(r.roles.max_role() > 0);
    }

    #[test]
    fn ledger_packet_views_are_consistent_with_the_tracker() {
        for routing in [
            crate::routing::RoutingKind::Dsr,
            crate::routing::RoutingKind::Aodv,
        ] {
            let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
            cfg.routing = routing;
            cfg.obs = true;
            let r = run_sim(cfg).expect("valid config");
            let obs = r.obs.as_ref().expect("ledger enabled");
            assert_eq!(obs.dropped(), 0, "{routing}");
            let latencies = obs.delivery_latencies();
            assert!(!latencies.is_empty(), "{routing}: something delivered");
            assert_eq!(
                latencies.len() as u64,
                r.delivery.delivered(),
                "{routing}: one latency per delivered packet"
            );
            // Ledger-derived mean delay matches the tracker's.
            let mean = latencies.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>()
                / latencies.len() as f64;
            assert!(
                (mean - r.delivery.mean_delay().as_secs_f64()).abs() < 1e-9,
                "{routing}: ledger mean {mean} vs tracker {}",
                r.delivery.mean_delay()
            );
            // Every delivered packet shows at least one on-air hop, and
            // the tracker's route length counts the same links.
            let hops = obs.delivered_hop_counts();
            assert!(hops.iter().all(|&(_, h)| h >= 1), "{routing}");
            let on_air = hops.iter().map(|&(_, h)| h as f64).sum::<f64>() / hops.len() as f64;
            assert!(
                (on_air - r.delivery.mean_hops()).abs() < 1e-9,
                "{routing}: ledger mean hops {on_air} vs tracker {}",
                r.delivery.mean_hops()
            );
            // Accounting closes: originated = delivered + dropped + in-flight.
            let unresolved = obs.unresolved().len() as u64;
            assert_eq!(
                r.delivery.originated(),
                r.delivery.delivered() + r.delivery.dropped() + unresolved,
                "{routing}: origination ledger must balance"
            );
        }
    }

    #[test]
    fn ledger_records_cross_layer_events_and_replays_energy() {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
        cfg.obs = true;
        let r = run_sim(cfg.clone()).expect("valid config");
        let obs = r.obs.as_ref().expect("ledger enabled");
        assert_eq!(obs.intervals(), 480);
        assert!(!obs.events().is_empty());
        // Strict total order out of into_report.
        assert!(obs
            .events()
            .windows(2)
            .all(|w| w[0].key() < w[1].key()));
        // Energy reconciliation: replaying the span events through a
        // fresh meter set reproduces the report bit-for-bit.
        let replayed = obs.replay_energy(cfg.energy);
        assert_eq!(replayed.len(), r.energy.per_node_joules().len());
        for (a, b) in replayed.iter().zip(r.energy.per_node_joules()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The ledger is observation-only: the run with it must be
        // bit-identical to the run without it.
        let mut plain_cfg = cfg;
        plain_cfg.obs = false;
        let plain = run_sim(plain_cfg).unwrap();
        assert_eq!(
            plain.energy.per_node_joules(),
            r.energy.per_node_joules()
        );
        assert_eq!(plain.delivery.delivered(), r.delivery.delivered());
        assert_eq!(plain.mac, r.mac);
    }

    #[test]
    fn scripted_crashes_activate_rejoin_and_save_energy() {
        use crate::faults::FaultEvent;
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 7);
        cfg.faults.script.push(FaultEvent::Crash {
            node: 3,
            at_s: 30.0,
            down_s: 20.0,
        });
        cfg.faults.script.push(FaultEvent::Crash {
            node: 9,
            at_s: 60.0,
            down_s: 0.0, // never rejoins
        });
        let r = run_sim(cfg).unwrap();
        assert_eq!(r.faults.crashes, 2);
        assert_eq!(r.faults.rejoins, 1);
        // Node 9 is off for the second half of the run; its meter keeps
        // ticking at 0 W, so it burns well under the network mean.
        let per_node = r.energy.per_node_joules();
        let mean = per_node.iter().sum::<f64>() / per_node.len() as f64;
        assert!(per_node[9] < 0.7 * mean, "{} vs mean {mean}", per_node[9]);
    }

    #[test]
    fn energy_by_interval_tracks_cumulative_consumption() {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 2);
        cfg.obs = true;
        let r = run_sim(cfg.clone()).expect("valid config");
        let series = r.obs.as_ref().expect("ledger enabled").energy_by_interval(cfg.energy);
        assert_eq!(series.rows(), 480, "120 s / 250 ms");
        // Cumulative energy is nondecreasing and ends at the report total.
        let totals: Vec<f64> = (0..series.rows())
            .map(|k| series.row(k).iter().sum())
            .collect();
        assert!(totals.windows(2).all(|w| w[1] >= w[0]));
        let last = *totals.last().unwrap();
        assert!((last - r.energy.total_joules()).abs() < 1e-6);
        for (a, b) in series.row(479).iter().zip(r.energy.per_node_joules()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Mean slope from the end of the first interval to the end of
        // the run is the network's average power draw: between the
        // all-sleep floor and the all-awake ceiling.
        let watts = (last - totals[0]) / (120.0 - 0.25);
        assert!(watts > 50.0 * 0.045 && watts < 50.0 * 1.15, "{watts} W");
    }

    #[test]
    fn batteries_track_depletion() {
        let mut cfg = SimConfig::smoke(Scheme::Dot11, 1);
        cfg.battery_capacity_j = Some(10.0); // dies in ~8.7 s at 1.15 W
        let r = run_sim(cfg).unwrap();
        let died = r.first_depletion.expect("tiny battery must deplete");
        assert!(died <= SimTime::from_secs(10), "{died}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 0);
        cfg.nodes = 1;
        assert!(Simulation::new(cfg).is_err());
    }

    #[test]
    fn run_seeds_produces_one_report_per_seed() {
        let cfg = SimConfig::smoke(Scheme::Rcast, 0);
        let reports = run_seeds(&cfg, [1, 2, 3]).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].seed, 1);
        assert_eq!(reports[2].seed, 3);
    }

    #[test]
    fn run_seeds_parallel_matches_serial_bitwise() {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 0);
        cfg.duration = SimDuration::from_secs(60);
        let serial = run_seeds(&cfg, [1, 2]).unwrap();
        for threads in [1, 2, 8] {
            let parallel = run_seeds_parallel(&cfg, [1, 2], threads).unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.seed, p.seed);
                // Debug formatting round-trips every f64 exactly, so
                // equal strings means bit-identical reports.
                assert_eq!(format!("{s:?}"), format!("{p:?}"), "threads={threads}");
            }
        }
    }

    #[test]
    fn run_seeds_parallel_rejects_invalid_configs_up_front() {
        let mut cfg = SimConfig::smoke(Scheme::Rcast, 0);
        cfg.nodes = 1;
        assert!(run_seeds_parallel(&cfg, [1, 2], 4).is_err());
    }

    #[test]
    fn run_seeds_parallel_with_no_seeds_is_empty() {
        let cfg = SimConfig::smoke(Scheme::Rcast, 0);
        assert!(run_seeds_parallel(&cfg, [], 4).unwrap().is_empty());
    }
}
