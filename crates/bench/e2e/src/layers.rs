//! The traced run: per-layer metrics.
//!
//! Spans are taken from outside, around calls into each crate's public
//! functions; counts come from the `SimReport`/`ObsReport` counters the
//! program already keeps, summed over the first pass's operations so
//! that they repeat exactly for a given seed. The run first makes the
//! untraced run's minimum of passes, then the first pass again traced;
//! the ratio of the two `sim_s_per_s` figures is the tracing overhead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rcast_core::{render_jsonl, SimConfig, SimReport, Simulation};
use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimTime};
use rcast_mobility::{MobilityField, NeighborIndex};
use rcast_sweep::{run_spec, to_csv, to_json, SweepSpec};

use crate::clock::{timed, Meter};
use crate::stats::{median, tail_percentile};
use crate::workload::{self, Output, Workload};

/// Intervals of each simulation left out of the per-step allocation
/// figure while caches, queues and the route cache reach their
/// working size.
const WARMUP_INTERVALS: u64 = 20;

/// Simulations run twice, ledger on and off, for the ledger's cost.
const OBS_PAIRS: usize = 2;

/// Intervals per block of the paired ledger on/off stepping.
const PAIR_BLOCK: usize = 10;

/// Seeds of the campaign built from a single-simulation workload, for
/// the sweep and pool metrics.
const SWEEP_SEEDS: usize = 4;

/// What a traced run reports.
pub struct Traced {
    /// Operations attempted (untraced and traced passes).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Per-report counters, summed.
#[derive(Default)]
struct Counters {
    intervals: u64,
    atim: u64,
    data_frames: u64,
    deferred: u64,
    link_failures: u64,
    rreq: u64,
    rrep: u64,
    rerr: u64,
    data_forwarded: u64,
    salvaged: u64,
    originated: u64,
    delivered: u64,
}

impl Counters {
    fn add(&mut self, r: &SimReport, intervals: u64) {
        let (m, d) = (&r.mac, &r.dsr);
        self.intervals += intervals;
        self.atim += m.atim_unicast + m.atim_broadcast;
        self.data_frames += m.data_delivered + m.broadcast_delivered;
        self.deferred += m.atim_deferred + m.data_deferred;
        self.link_failures += m.link_failures;
        self.rreq += d.rreq_originated + d.rreq_forwarded;
        self.rrep += d.rrep_from_target + d.rrep_from_cache + d.rrep_forwarded;
        self.rerr += d.rerr_originated + d.rerr_forwarded;
        self.data_forwarded += d.data_forwarded;
        self.salvaged += d.data_salvaged;
        self.originated += r.delivery.originated();
        self.delivered += r.delivery.delivered();
    }

    fn per_interval(&self, n: u64) -> f64 {
        n as f64 / self.intervals as f64
    }
}

/// Spans and counts of simulations stepped one interval at a time.
#[derive(Default)]
struct Steps {
    new_ms: Vec<f64>,
    step_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    warm_allocs: u64,
    warm_intervals: u64,
    counters: Counters,
    obs: ObsSpans,
    sim_s: f64,
    attempted: u64,
    failed: u64,
}

/// Ledger spans: events recorded, export and replay.
#[derive(Default)]
struct ObsSpans {
    events: u64,
    intervals: u64,
    export_ms: Vec<f64>,
    export_bytes: u64,
    export_allocs: u64,
    replay_ms: Vec<f64>,
}

impl ObsSpans {
    /// Exports one ledger run, timing the export.
    fn export(&mut self, r: &SimReport, seed: u64) -> Option<String> {
        let obs = r.obs.as_ref()?;
        let (jsonl, dt, allocs) = timed(|| render_jsonl(obs, r.scheme.label(), seed, None, None));
        self.export_ms.push(ms(dt));
        self.export_bytes += jsonl.len() as u64;
        self.export_allocs += allocs;
        Some(jsonl)
    }

    /// Replays one ledger run's energy, timing the replay, and counts
    /// its events.
    fn replay(&mut self, cfg: &SimConfig, r: &SimReport, intervals: u64) {
        if let Some(obs) = r.obs.as_ref() {
            let (_, dt, _) = timed(|| obs.replay_energy(cfg.energy));
            self.replay_ms.push(ms(dt));
            self.events += obs.events().len() as u64;
            self.intervals += intervals;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Steps {
    /// Steps one simulation with a span around every call, inside
    /// meter blocks of `block` intervals, and checks its output.
    fn run(&mut self, cfg: &Arc<SimConfig>, seed: u64, block: u64, meter: &mut Meter) {
        let (sim, new, _) = timed(|| Simulation::with_seed(cfg.clone(), seed));
        let mut sim = sim.expect("workload configurations validate");
        self.new_ms.push(ms(new));
        let mut k = 0;
        let mut more = true;
        while more {
            more = meter.block(|| {
                for _ in 0..block {
                    let (stepped, dt, allocs) = timed(|| sim.step_interval());
                    if !stepped {
                        return false;
                    }
                    self.step_ms.push(ms(dt));
                    if k >= WARMUP_INTERVALS {
                        self.warm_allocs += allocs;
                        self.warm_intervals += 1;
                    }
                    k += 1;
                }
                true
            });
        }
        // The untraced clock stops once the export is in hand, so the
        // export shares the last block with `finish`.
        let ((report, fin, _), export) = meter.block(|| {
            let done = timed(|| sim.finish());
            let export = self.obs.export(&done.0, seed);
            (done, export)
        });
        self.finish_ms.push(ms(fin));
        self.obs.replay(cfg, &report, k);
        self.counters.add(&report, k);
        self.sim_s += cfg.duration.as_secs_f64();
        self.attempted += 1;
        let out = match export {
            Some(jsonl) => Output::Trace(report, jsonl),
            None => Output::Sim(report),
        };
        if let Err(e) = workload::check(Some(cfg), None, &out) {
            self.failed += 1;
            eprintln!("traced operation {} failed a check: {e}", self.attempted);
        }
    }
}

/// Replays a simulation's own mobility stream from outside: the same
/// waypoint field and neighbor index, advanced interval by interval.
/// Returns the advance time and the number of refilled node lists.
fn replay_mobility(cfg: &SimConfig, seed: u64) -> (Duration, u64) {
    let root = StreamRng::from_seed(seed);
    let mut field =
        MobilityField::random_waypoint(cfg.nodes, cfg.area, cfg.waypoint, root.child("mobility"));
    let mut snap = field.snapshot(SimTime::ZERO);
    let mut index = NeighborIndex::new(&snap, cfg.range_m);
    let (mut busy, mut refilled) = (Duration::ZERO, 0);
    for k in 1..cfg.beacon_intervals() {
        let t = SimTime::ZERO + cfg.mac.beacon_interval * k;
        let t0 = Instant::now();
        field.snapshot_into(t, &mut snap);
        index.advance(&snap);
        busy += t0.elapsed();
        refilled += (0..cfg.nodes)
            .filter(|&i| !index.carried_forward(NodeId::new(i)))
            .count() as u64;
    }
    (busy, refilled)
}

/// The ledger's cost, as a percentage of the stepping time without it:
/// each job is built twice, ledger on and off, and the two are stepped
/// in alternating blocks of [`PAIR_BLOCK`] intervals (alternating which
/// goes first), so both see the same host. The ledger runs also feed
/// the export and replay spans when the workload itself records none.
fn ledger_overhead(jobs: &[(Arc<SimConfig>, u64)], spans: Option<&mut ObsSpans>) -> f64 {
    let mut own = ObsSpans::default();
    let spans = spans.unwrap_or(&mut own);
    let mut busy = [Duration::ZERO; 2];
    for (cfg, seed) in jobs.iter().take(OBS_PAIRS) {
        let mut sims = [false, true].map(|obs| {
            let cfg = Arc::new(SimConfig {
                obs,
                ..(**cfg).clone()
            });
            Simulation::with_seed(cfg, *seed).expect("workload configurations validate")
        });
        let mut more = true;
        let mut round = 0;
        while more {
            for i in [round % 2, 1 - round % 2] {
                let t0 = Instant::now();
                for _ in 0..PAIR_BLOCK {
                    more &= sims[i].step_interval();
                }
                busy[i] += t0.elapsed();
            }
            round += 1;
        }
        let [off, on] = sims;
        std::hint::black_box(off.finish());
        let report = on.finish();
        spans.export(&report, *seed);
        spans.replay(cfg, &report, cfg.beacon_intervals());
    }
    (busy[1].as_secs_f64() / busy[0].as_secs_f64() - 1.0) * 100.0
}

/// A one-cell campaign over a single-simulation workload's
/// configuration and seeds.
fn sweep_of(cfg: &SimConfig, seeds: &[u64], name: &str) -> SweepSpec {
    let mut spec = SweepSpec::paper_default(name);
    spec.base = SimConfig {
        obs: false,
        ..cfg.clone()
    };
    spec.schemes = vec![cfg.scheme];
    spec.rates = vec![cfg.traffic.rate_pps];
    spec.pauses = vec![cfg.waypoint.pause_secs];
    spec.nodes = vec![cfg.nodes];
    spec.seeds = seeds.to_vec();
    spec
}

/// Campaign spans: per-run time and allocations at `threads` workers,
/// rendering time, and the speedup over one worker.
fn sweep_spans(spec: &SweepSpec, threads: usize) -> [(&'static str, f64); 4] {
    let (serial, t1, _) = timed(|| run_spec(spec, 1).expect("campaign spec validates"));
    let (report, tn, allocs) = timed(|| run_spec(spec, threads).expect("campaign spec validates"));
    let (_, render, _) = timed(|| (to_json(&report), to_csv(&report)));
    let runs = report.total_runs as f64;
    std::hint::black_box(serial);
    [
        ("sweep.run_ms_per_run", ms(tn) / runs),
        ("sweep.allocs_per_run", allocs as f64 / runs),
        ("sweep.render_ms", ms(render)),
        ("engine.pool_speedup", t1.as_secs_f64() / tn.as_secs_f64()),
    ]
}

/// The traced run of `w`: the untraced minimum of passes, the first
/// pass again traced, and the layer probes.
pub fn run(w: Workload, seed: u64, threads: usize) -> Traced {
    let untraced = workload::measure(w, seed, 0.0, threads);
    let mut steps = Steps::default();
    let mut meter = Meter::new(1);
    let (jobs, traced_rate, sweep): (Vec<(Arc<SimConfig>, u64)>, f64, _) = match w.sim_config() {
        Some(cfg) => {
            let cfg = Arc::new(cfg);
            let seeds = w.pass_seeds(seed, 0);
            for &s in &seeds {
                steps.run(&cfg, s, w.block_intervals(), &mut meter);
            }
            let rate = steps.sim_s / meter.ref_s();
            let spec = sweep_of(&cfg, &seeds[..SWEEP_SEEDS], &format!("e2e-{}", w.name()));
            (
                seeds.iter().map(|&s| (cfg.clone(), s)).collect(),
                rate,
                sweep_spans(&spec, threads),
            )
        }
        None => {
            // The campaign's own pass, with spans around the sweep calls;
            // its simulations are then stepped one by one for the core,
            // MAC and DSR figures.
            let mut pass = Meter::new(threads);
            let mut sim_s = 0.0;
            for spec in workload::pass_specs(seed, 0) {
                let (out, _, _) = workload::campaign_op(&spec, threads, &mut pass);
                steps.attempted += 1;
                if let Err(e) = workload::check(None, Some(&spec), &out) {
                    steps.failed += 1;
                    eprintln!("traced campaign failed a check: {e}");
                }
                sim_s += workload::sim_seconds(&out);
            }
            let spec = workload::pass_specs(seed, 0)
                .swap_remove(0)
                .normalized()
                .expect("campaign spec validates");
            let jobs: Vec<_> = spec
                .expand()
                .iter()
                .flat_map(|cell| {
                    let cfg = Arc::new(cell.config(&spec));
                    spec.seeds
                        .iter()
                        .map(move |&s| (cfg.clone(), cell.run_seed(s, spec.pairing)))
                })
                .collect();
            let mut probe = Steps::default();
            for (cfg, s) in &jobs {
                probe.run(cfg, *s, w.block_intervals(), &mut meter);
            }
            probe.attempted += steps.attempted;
            probe.failed += steps.failed;
            steps = probe;
            (jobs, sim_s / pass.ref_s(), sweep_spans(&spec, threads))
        }
    };
    let (mut busy, mut refilled, mut advanced, mut intervals) = (Duration::ZERO, 0, 0, 0);
    for (cfg, s) in &jobs {
        let (b, r) = replay_mobility(cfg, *s);
        busy += b;
        refilled += r;
        advanced += cfg.beacon_intervals() - 1;
        intervals += cfg.beacon_intervals();
    }
    let advance_ms = ms(busy) / intervals as f64;
    let own_ledger = steps.obs.intervals > 0;
    let overhead = ledger_overhead(&jobs, (!own_ledger).then_some(&mut steps.obs));
    let step_mean = steps.step_ms.iter().sum::<f64>() / steps.step_ms.len() as f64;
    let c = &steps.counters;
    let o = &steps.obs;
    let mut metrics = vec![
        ("core.new_ms", median(&steps.new_ms)),
        ("core.step_ms_p50", median(&steps.step_ms)),
        (
            "core.step_ms_p99",
            tail_percentile(&steps.step_ms, 99.0)
                .expect("every workload steps at least 1000 intervals"),
        ),
        ("core.finish_ms", median(&steps.finish_ms)),
        ("core.downstream_ms_per_interval", step_mean - advance_ms),
        (
            "core.step_allocs_per_interval",
            steps.warm_allocs as f64 / steps.warm_intervals as f64,
        ),
        ("mobility.advance_ms_per_interval", advance_ms),
        (
            "mobility.refilled_per_interval",
            refilled as f64 / advanced as f64,
        ),
        ("mac.atim_per_interval", c.per_interval(c.atim)),
        (
            "mac.data_frames_per_interval",
            c.per_interval(c.data_frames),
        ),
        ("mac.deferred_per_interval", c.per_interval(c.deferred)),
        ("mac.link_failures", c.link_failures as f64),
        ("dsr.rreq_per_interval", c.per_interval(c.rreq)),
        ("dsr.rrep_per_interval", c.per_interval(c.rrep)),
        ("dsr.rerr_per_interval", c.per_interval(c.rerr)),
        (
            "dsr.data_forwarded_per_interval",
            c.per_interval(c.data_forwarded),
        ),
        ("dsr.data_salvaged", c.salvaged as f64),
        ("traffic.originated", c.originated as f64),
        ("metrics.delivered", c.delivered as f64),
        (
            "obs.events_per_interval",
            o.events as f64 / o.intervals as f64,
        ),
        ("obs.ledger_overhead", overhead),
        ("obs.export_ms", median(&o.export_ms)),
        (
            "obs.export_mb_per_s",
            o.export_bytes as f64 / 1048576.0 / (o.export_ms.iter().sum::<f64>() / 1e3),
        ),
        (
            "obs.export_allocs",
            o.export_allocs as f64 / o.export_ms.len() as f64,
        ),
        ("obs.replay_ms", median(&o.replay_ms)),
        ("traced.sim_s_per_s", traced_rate),
        (
            "traced.overhead",
            (untraced.sim_s_per_s / traced_rate - 1.0) * 100.0,
        ),
    ];
    metrics.extend(sweep);
    Traced {
        attempted: untraced.attempted + steps.attempted,
        failed: untraced.failed + steps.failed,
        metrics,
    }
}
