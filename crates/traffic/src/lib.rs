//! Constant-bit-rate traffic generation.
//!
//! The paper's workload is 20 CBR sources sending 512-byte packets at a
//! swept rate of 0.2–2.0 packets/second over randomly chosen
//! source/destination pairs. [`CbrFlow`] describes one flow;
//! [`TrafficConfig::generate`] draws a reproducible flow set; and
//! [`FlowSchedule`] iterates the global packet arrival sequence in time
//! order for the event loop.
//!
//! # Example
//!
//! ```
//! use rcast_engine::{SimTime, rng::StreamRng};
//! use rcast_traffic::TrafficConfig;
//!
//! let cfg = TrafficConfig { flows: 20, rate_pps: 0.4, ..TrafficConfig::default() };
//! let flows = cfg.generate(100, StreamRng::from_seed(1));
//! assert_eq!(flows.len(), 20);
//! assert!(flows.iter().all(|f| f.src != f.dst));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimDuration, SimTime};

/// One constant-bit-rate flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbrFlow {
    /// Flow identifier (dense, `0..flows`).
    pub id: u32,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// When the first packet is generated.
    pub start: SimTime,
    /// Inter-packet interval.
    pub interval: SimDuration,
    /// Payload size in bytes.
    pub packet_bytes: usize,
}

impl CbrFlow {
    /// The generation time of packet `seq` (0-based).
    pub fn packet_time(&self, seq: u64) -> SimTime {
        self.start + self.interval * seq
    }

    /// Number of packets generated within `[0, horizon)`.
    pub fn packets_before(&self, horizon: SimTime) -> u64 {
        if self.start >= horizon {
            return 0;
        }
        (horizon - self.start) / self.interval + 1
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of concurrent CBR flows (paper: 20).
    pub flows: u32,
    /// Packet rate per flow, packets/second (paper sweep: 0.2–2.0).
    pub rate_pps: f64,
    /// Payload size, bytes (paper: 512).
    pub packet_bytes: usize,
    /// Flow start times are staggered uniformly in `[0, stagger)` so
    /// sources do not beat in lockstep.
    pub stagger: SimDuration,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            flows: 20,
            rate_pps: 0.4,
            packet_bytes: 512,
            stagger: SimDuration::from_secs(10),
        }
    }
}

impl TrafficConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.flows == 0 {
            return Err("at least one flow required".into());
        }
        if !(self.rate_pps.is_finite() && self.rate_pps > 0.0) {
            return Err(format!("rate must be positive: {}", self.rate_pps));
        }
        if self.packet_bytes == 0 {
            return Err("packet size must be positive".into());
        }
        Ok(())
    }

    /// The inter-packet interval implied by `rate_pps`.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.rate_pps)
    }

    /// The most packets a flow set drawn from this configuration can
    /// generate within `[0, horizon)`, whatever its start offsets: each
    /// flow's count if it started at time zero.
    pub fn max_packets_before(&self, horizon: SimTime) -> u64 {
        u64::from(self.flows) * ((horizon - SimTime::ZERO) / self.interval() + 1)
    }

    /// Draws a reproducible flow set over `n_nodes` nodes.
    ///
    /// Source/destination pairs are uniform without self-loops. Distinct
    /// flows may share endpoints, as in the paper's ns-2 scenarios.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `n_nodes < 2`.
    pub fn generate(&self, n_nodes: u32, mut rng: StreamRng) -> Vec<CbrFlow> {
        if let Err(e) = self.validate() {
            panic!("invalid traffic config: {e}");
        }
        assert!(n_nodes >= 2, "need at least two nodes for traffic");
        (0..self.flows)
            .map(|id| {
                let src = NodeId::new(rng.below(n_nodes as u64) as u32);
                let dst = loop {
                    let d = NodeId::new(rng.below(n_nodes as u64) as u32);
                    if d != src {
                        break d;
                    }
                };
                let start = SimTime::ZERO
                    + SimDuration::from_secs_f64(
                        rng.range_f64(0.0, self.stagger.as_secs_f64().max(1e-9)),
                    );
                CbrFlow {
                    id,
                    src,
                    dst,
                    start,
                    interval: self.interval(),
                    packet_bytes: self.packet_bytes,
                }
            })
            .collect()
    }
}

/// A time-ordered iterator over every packet arrival of a flow set.
///
/// # Example
///
/// ```
/// use rcast_engine::{SimTime, rng::StreamRng};
/// use rcast_traffic::{FlowSchedule, TrafficConfig};
///
/// let flows = TrafficConfig::default().generate(50, StreamRng::from_seed(2));
/// let mut sched = FlowSchedule::new(&flows, SimTime::from_secs(60));
/// let mut last = SimTime::ZERO;
/// while let Some(arrival) = sched.next() {
///     assert!(arrival.at >= last);
///     last = arrival.at;
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FlowSchedule {
    flows: Vec<CbrFlow>,
    next_seq: Vec<u64>,
    horizon: SimTime,
}

/// One packet arrival produced by a [`FlowSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Which flow generated the packet.
    pub flow: u32,
    /// Packet sequence number within the flow (0-based).
    pub seq: u64,
    /// Generation instant.
    pub at: SimTime,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size, bytes.
    pub bytes: usize,
}

impl FlowSchedule {
    /// A schedule over `flows`, generating arrivals strictly before
    /// `horizon`.
    pub fn new(flows: &[CbrFlow], horizon: SimTime) -> Self {
        FlowSchedule {
            flows: flows.to_vec(),
            next_seq: vec![0; flows.len()],
            horizon,
        }
    }

    /// The next arrival in global time order, if any remain.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Arrival> {
        let mut best: Option<(usize, SimTime)> = None;
        for (i, f) in self.flows.iter().enumerate() {
            let t = f.packet_time(self.next_seq[i]);
            if t >= self.horizon {
                continue;
            }
            match best {
                Some((_, bt)) if bt <= t => {}
                _ => best = Some((i, t)),
            }
        }
        let (i, at) = best?;
        let f = &self.flows[i];
        let seq = self.next_seq[i];
        self.next_seq[i] += 1;
        Some(Arrival {
            flow: f.id,
            seq,
            at,
            src: f.src,
            dst: f.dst,
            bytes: f.packet_bytes,
        })
    }

    /// Total arrivals this schedule will produce.
    pub fn total_packets(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| f.packets_before(self.horizon))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_generation_is_deterministic() {
        let cfg = TrafficConfig::default();
        let a = cfg.generate(100, StreamRng::from_seed(9));
        let b = cfg.generate(100, StreamRng::from_seed(9));
        assert_eq!(a, b);
        let c = cfg.generate(100, StreamRng::from_seed(10));
        assert_ne!(a, c);
    }

    #[test]
    fn no_self_flows_and_ids_dense() {
        let flows = TrafficConfig::default().generate(5, StreamRng::from_seed(3));
        for (i, f) in flows.iter().enumerate() {
            assert_ne!(f.src, f.dst);
            assert_eq!(f.id, i as u32);
            assert!(f.src.index() < 5 && f.dst.index() < 5);
        }
    }

    #[test]
    fn interval_matches_rate() {
        let cfg = TrafficConfig {
            rate_pps: 2.0,
            ..TrafficConfig::default()
        };
        assert_eq!(cfg.interval(), SimDuration::from_millis(500));
        let cfg = TrafficConfig {
            rate_pps: 0.2,
            ..TrafficConfig::default()
        };
        assert_eq!(cfg.interval(), SimDuration::from_secs(5));
    }

    #[test]
    fn packet_times_are_arithmetic() {
        let f = CbrFlow {
            id: 0,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            start: SimTime::from_secs(3),
            interval: SimDuration::from_millis(2500),
            packet_bytes: 512,
        };
        assert_eq!(f.packet_time(0), SimTime::from_secs(3));
        assert_eq!(f.packet_time(2), SimTime::from_secs(8));
        assert_eq!(f.packets_before(SimTime::from_secs(3)), 0);
        assert_eq!(f.packets_before(SimTime::from_millis(3001)), 1);
        assert_eq!(f.packets_before(SimTime::from_secs(11)), 4);
    }

    #[test]
    fn schedule_is_time_ordered_and_complete() {
        let flows = TrafficConfig {
            flows: 7,
            rate_pps: 1.0,
            ..TrafficConfig::default()
        }
        .generate(30, StreamRng::from_seed(4));
        let horizon = SimTime::from_secs(100);
        let mut sched = FlowSchedule::new(&flows, horizon);
        let expected = sched.total_packets();
        let mut count = 0u64;
        let mut last = SimTime::ZERO;
        while let Some(a) = sched.next() {
            assert!(a.at >= last);
            assert!(a.at < horizon);
            last = a.at;
            count += 1;
        }
        assert_eq!(count, expected);
        let bound = TrafficConfig {
            flows: 7,
            rate_pps: 1.0,
            ..TrafficConfig::default()
        }
        .max_packets_before(horizon);
        assert!(count <= bound && bound == 7 * 101, "{count} of {bound}");
        // 7 flows × 1 pps × ~(100 − stagger) s each.
        assert!((7 * 85..=7 * 100).contains(&count), "{count}");
    }

    #[test]
    fn paper_rate_sweep_packet_counts() {
        // At 2.0 pps over 1125 s, each flow sends ~2250 packets; the
        // paper's 20 flows give ~45 000 total.
        let flows = TrafficConfig {
            flows: 20,
            rate_pps: 2.0,
            stagger: SimDuration::from_secs(1),
            ..TrafficConfig::default()
        }
        .generate(100, StreamRng::from_seed(8));
        let sched = FlowSchedule::new(&flows, SimTime::from_secs(1125));
        let total = sched.total_packets();
        assert!((44_000..=45_100).contains(&total), "{total}");
    }

    #[test]
    fn validation() {
        assert!(TrafficConfig::default().validate().is_ok());
        assert!(TrafficConfig {
            flows: 0,
            ..TrafficConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrafficConfig {
            rate_pps: 0.0,
            ..TrafficConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrafficConfig {
            packet_bytes: 0,
            ..TrafficConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic]
    fn one_node_panics() {
        let _ = TrafficConfig::default().generate(1, StreamRng::from_seed(0));
    }
}
