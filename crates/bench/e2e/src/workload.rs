//! The four workloads and the untraced measurement loop.
//!
//! Every workload is a closed loop with one caller: the next operation
//! starts when the previous one has returned. An operation is one
//! simulation (idle-1200, storm-150), one ledger simulation plus its
//! export (trace-150), or one sweep campaign with its rendered
//! artifacts (campaign). Operations come in passes of a fixed size; a
//! run makes whole passes until `--seconds` have gone by. Pass `p`
//! draws its own seeds from `--seed`, so a run averages over many
//! topologies and flow sets while a given seed always yields the same
//! inputs.

use std::sync::Arc;
use std::time::Instant;

use rcast_core::{render_jsonl, Area, Scheme, SimConfig, SimReport, Simulation};
use rcast_engine::rng::StreamRng;
use rcast_engine::SimDuration;
use rcast_mobility::WaypointConfig;
use rcast_sweep::{run_spec, to_csv, to_json, SweepReport, SweepSpec};

use crate::checks;
use crate::clock::{timed, Meter};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1200 mostly idle nodes: per-node infrastructure and RREQ floods.
    Idle1200,
    /// 150 always-moving nodes under 40 flows: DSR and MAC contention.
    Storm150,
    /// 150 nodes with the event ledger on, then export and replay.
    Trace150,
    /// A fig7-shaped sweep over 802.11, ODPM and Rcast on the pool.
    Campaign,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::Idle1200,
        Workload::Storm150,
        Workload::Trace150,
        Workload::Campaign,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Idle1200 => "idle-1200",
            Workload::Storm150 => "storm-150",
            Workload::Trace150 => "trace-150",
            Workload::Campaign => "campaign",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per pass. A pass takes 5 to 10 s on the calibration
    /// host, so a 20-second run makes two to four. The first
    /// [`COUNTED_PASSES`] passes' allocations are `heap_allocs`, so they
    /// must also hold enough operations that the count varies little
    /// from seed to seed.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Workload::Idle1200 => 30,
            Workload::Storm150 => 50,
            Workload::Trace150 => 8,
            Workload::Campaign => 18,
        }
    }

    /// Beacon intervals per timed block (each block is followed by one
    /// reference sample; see `clock`).
    pub fn block_intervals(self) -> u64 {
        match self {
            Workload::Idle1200 => 8,
            _ => 20,
        }
    }

    /// The simulation configuration of the single-simulation workloads.
    /// The seed field is unused: each operation passes its own.
    pub fn sim_config(self) -> Option<SimConfig> {
        let cfg = match self {
            Workload::Idle1200 => sim(1200, Area::new(7200.0, 720.0), 2, 0.4, 20),
            Workload::Storm150 => sim(150, Area::new(1800.0, 360.0), 40, 2.0, 20),
            Workload::Trace150 => {
                let mut cfg = sim(150, Area::new(1800.0, 360.0), 30, 1.0, 60);
                cfg.obs = true;
                cfg
            }
            Workload::Campaign => return None,
        };
        Some(cfg)
    }

    /// The seeds of pass `pass`, drawn from the run seed.
    pub fn pass_seeds(self, seed: u64, pass: u64) -> Vec<u64> {
        let mut rng = StreamRng::from_seed(seed)
            .child("rcast-e2e")
            .child(self.name())
            .child_indexed("pass", pass);
        (0..self.ops_per_pass()).map(|_| rng.next_u64()).collect()
    }
}

/// Rcast on the paper's waypoint model (speeds in (0, 20] m/s, no
/// pause, so every node is always moving) and its CBR traffic.
fn sim(nodes: u32, area: Area, flows: u32, rate_pps: f64, secs: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 0, rate_pps, 0.0);
    cfg.nodes = nodes;
    cfg.area = area;
    cfg.traffic.flows = flows;
    cfg.duration = SimDuration::from_secs(secs);
    cfg.waypoint = WaypointConfig::default();
    cfg
}

/// Simulated seconds of each campaign run. The runs are short so that
/// a pass holds many campaigns: the reference kernel runs once per
/// campaign, and more, shorter campaigns let it follow the host more
/// closely.
const CAMPAIGN_RUN_S: u64 = 20;

/// The campaign's sweep: the fig7 preset's schemes (802.11, ODPM,
/// Rcast) and rates (0.2, 0.4, 1.0, 2.0 pkt/s) on the paper's
/// 100-node field, three seeds, [`CAMPAIGN_RUN_S`]-second runs with
/// the fig7 600-s pause scaled to the run length (as the preset's
/// smoke version does).
pub fn campaign_spec(seeds: [u64; 3]) -> SweepSpec {
    let mut spec = rcast_sweep::preset("fig7").expect("fig7 is a built-in preset");
    spec.name = "e2e-campaign".into();
    let full = spec.base.duration.as_secs_f64();
    spec.base.duration = SimDuration::from_secs(CAMPAIGN_RUN_S);
    spec.nodes = vec![100];
    spec.pauses = vec![600.0 * CAMPAIGN_RUN_S as f64 / full];
    spec.seeds = seeds.to_vec();
    spec
}

/// The campaign specs of one pass: each operation takes three seeds.
pub fn pass_specs(seed: u64, pass: u64) -> Vec<SweepSpec> {
    let mut rng = StreamRng::from_seed(seed)
        .child("rcast-e2e")
        .child(Workload::Campaign.name())
        .child_indexed("pass", pass);
    (0..Workload::Campaign.ops_per_pass())
        .map(|_| campaign_spec(std::array::from_fn(|_| rng.next_u64())))
        .collect()
}

/// What one operation produced.
pub enum Output {
    /// A plain simulation's report.
    Sim(SimReport),
    /// A ledger simulation's report and its rcast-trace/v1 export.
    Trace(SimReport, String),
    /// A campaign's summary and its rendered JSON and CSV artifacts.
    Campaign(SweepReport, String, String),
}

/// Runs one simulation from construction to its final output: steps in
/// timed blocks, then `finish` (and, with the ledger on, the export) as
/// the last block. Returns the output and the construction time.
pub fn sim_op(
    cfg: &Arc<SimConfig>,
    seed: u64,
    block: u64,
    meter: &mut Meter,
) -> (Output, f64, u64) {
    let (sim, setup, setup_allocs) = timed(|| Simulation::with_seed(cfg.clone(), seed));
    let mut sim = sim.expect("workload configurations validate");
    let mut more = true;
    while more {
        more = meter.block(|| {
            for _ in 0..block {
                if !sim.step_interval() {
                    return false;
                }
            }
            true
        });
    }
    let out = meter.block(|| {
        let report = sim.finish();
        match &report.obs {
            Some(obs) => {
                let jsonl = render_jsonl(obs, report.scheme.label(), seed, None, None);
                Output::Trace(report, jsonl)
            }
            None => Output::Sim(report),
        }
    });
    (out, setup.as_secs_f64(), setup_allocs)
}

/// Runs one campaign at `threads` workers as a single timed block.
/// Returns the output and the set-up time: the spec's normalize and
/// expand plus one construction per run, replayed here apart from the
/// campaign because `run_spec` does not expose them. The replay's
/// allocations are not the campaign's (its own set-up is inside the
/// block), so the third value is 0.
pub fn campaign_op(spec: &SweepSpec, threads: usize, meter: &mut Meter) -> (Output, f64, u64) {
    let ((), setup, _) = timed(|| {
        let spec = spec.normalized().expect("campaign spec validates");
        for cell in spec.expand() {
            let cfg = Arc::new(cell.config(&spec));
            for &s in &spec.seeds {
                let sim = Simulation::with_seed(cfg.clone(), cell.run_seed(s, spec.pairing));
                drop(sim.expect("campaign cells validate"));
            }
        }
    });
    let out = meter.block(|| {
        let report = run_spec(spec, threads).expect("campaign spec validates");
        let json = to_json(&report);
        let csv = to_csv(&report);
        Output::Campaign(report, json, csv)
    });
    (out, setup.as_secs_f64(), 0)
}

/// Applies the workload's output checks to one operation.
pub fn check(
    cfg: Option<&SimConfig>,
    spec: Option<&SweepSpec>,
    out: &Output,
) -> Result<(), String> {
    match (out, cfg, spec) {
        (Output::Sim(r), Some(cfg), _) => checks::run(cfg, r),
        (Output::Trace(r, jsonl), Some(cfg), _) => {
            checks::run(cfg, r)?;
            checks::trace(cfg, r, jsonl)?;
            checks::trace_packets(r, jsonl)
        }
        (Output::Campaign(r, json, csv), _, Some(spec)) => checks::campaign(spec, r, json, csv),
        _ => Err("operation output does not match its workload".into()),
    }
}

/// Simulated seconds one operation covers.
pub fn sim_seconds(out: &Output) -> f64 {
    match out {
        Output::Sim(r) | Output::Trace(r, _) => r.duration.as_secs_f64(),
        Output::Campaign(r, _, _) => r.total_sim_seconds,
    }
}

/// Passes every run makes, whatever `--seconds`. Their allocations are
/// `heap_allocs`, an exact count for a given seed, and the peak memory
/// after them is `peak_rss_mb`: later passes, whose number depends on
/// the host's speed, could only raise it. `main` fixes glibc's mmap
/// threshold so that this peak does not depend on the order of the
/// operations' output sizes.
pub const COUNTED_PASSES: u64 = 2;

/// The totals of an untraced run.
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Simulated seconds per ref-second over every pass.
    pub sim_s_per_s: f64,
    /// Median set-up time of one operation, seconds.
    pub setup_s: f64,
    /// Allocations of the first [`COUNTED_PASSES`] passes, set-up
    /// included.
    pub heap_allocs: u64,
    /// Peak resident memory after the first [`COUNTED_PASSES`] passes,
    /// MB.
    pub peak_rss_mb: Result<f64, String>,
}

/// Running totals of the operations made so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    sim_s: f64,
    setups: Vec<f64>,
    setup_allocs: u64,
}

impl Tally {
    /// Counts one operation and checks its output on the spot, so that
    /// no more than one output is alive at a time.
    fn add(
        &mut self,
        w: Workload,
        (out, setup, allocs): (Output, f64, u64),
        verdict: Result<(), String>,
    ) {
        self.attempted += 1;
        self.sim_s += sim_seconds(&out);
        self.setups.push(setup);
        self.setup_allocs += allocs;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!(
                "{}: operation {} failed a check: {e}",
                w.name(),
                self.attempted
            );
        }
    }
}

/// The untraced measurement: whole passes, at least
/// [`COUNTED_PASSES`], until `seconds` have gone by.
pub fn measure(w: Workload, seed: u64, seconds: f64, threads: usize) -> Measured {
    let started = Instant::now();
    let cfg = w.sim_config().map(Arc::new);
    let mut meter = Meter::new(if cfg.is_some() { 1 } else { threads });
    let mut tally = Tally::default();
    let mut heap_allocs = 0;
    let mut peak_rss_mb = Err(String::new());
    let mut pass = 0;
    // Another pass starts while it would end, on average, no later than
    // `seconds` plus half a pass.
    while pass < COUNTED_PASSES
        || started.elapsed().as_secs_f64() * (1.0 + 0.5 / pass as f64) < seconds
    {
        match &cfg {
            Some(cfg) => {
                for s in w.pass_seeds(seed, pass) {
                    let op = sim_op(cfg, s, w.block_intervals(), &mut meter);
                    let verdict = check(Some(cfg), None, &op.0);
                    tally.add(w, op, verdict);
                }
            }
            None => {
                for spec in pass_specs(seed, pass) {
                    let op = campaign_op(&spec, threads, &mut meter);
                    let verdict = check(None, Some(&spec), &op.0);
                    tally.add(w, op, verdict);
                }
            }
        }
        pass += 1;
        if pass == COUNTED_PASSES {
            heap_allocs = meter.allocs() + tally.setup_allocs;
            peak_rss_mb = crate::rss::peak_rss_mb();
        }
    }
    eprintln!(
        "{}: {pass} passes, {} operations, {:.3} s in blocks, mean reference sample {:.4} ms",
        w.name(),
        tally.attempted,
        meter.work_s(),
        meter.sample_ms()
    );
    Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        sim_s_per_s: tally.sim_s / meter.ref_s(),
        setup_s: crate::stats::median(&tally.setups),
        heap_allocs,
        peak_rss_mb,
    }
}
