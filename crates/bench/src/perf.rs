//! The tracked simulator-throughput benchmark behind `rcast bench`.
//!
//! Unlike the sweep presets (which reproduce the *paper's* numbers),
//! this suite tracks the *simulator's* own performance so hot-path
//! regressions show up in review: wall time per simulated second,
//! beacon intervals per second, and — when the [`alloc_probe`] is the
//! process's global allocator — heap allocations per steady-state
//! interval. Results are emitted as a stable, hand-rolled JSON document
//! (`rcast-bench/v1`) checked in as `BENCH_rcast.json`; timing fields
//! vary with the host, the schema and workloads do not.
//!
//! [`alloc_probe`]: crate::alloc_probe

use std::time::Instant;

use rcast_core::{Scheme, SimConfig, Simulation};
use rcast_engine::SimDuration;
use rcast_mobility::Area;

use crate::alloc_probe;

/// Intervals stepped before allocation counting starts: long enough for
/// every reusable buffer to reach its high-water capacity.
const WARMUP_INTERVALS: u64 = 120;

/// One measured workload cell.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (`small`, `medium`).
    pub workload: &'static str,
    /// Scheme label as the paper prints it (`802.11`, `PSM`, `Rcast`).
    pub scheme: &'static str,
    /// Node count.
    pub nodes: u32,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Beacon intervals executed.
    pub intervals: u64,
    /// Wall-clock seconds for the full run.
    pub wall_seconds: f64,
    /// Beacon intervals per wall-clock second.
    pub intervals_per_sec: f64,
    /// Wall-clock milliseconds per simulated second.
    pub ms_per_sim_second: f64,
    /// Mean heap allocations per post-warm-up interval; `None` when no
    /// [`alloc_probe`] is installed as the global allocator.
    pub allocs_per_interval: Option<f64>,
}

/// A named workload: `(name, configure)`.
type Workload = (&'static str, fn(Scheme) -> SimConfig);

/// The benchmark workloads. `small` is the `SimConfig::smoke` testbed;
/// `medium` triples it in every dimension.
fn workloads(smoke: bool) -> Vec<Workload> {
    fn small(scheme: Scheme) -> SimConfig {
        SimConfig::smoke(scheme, 1)
    }
    fn medium(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::paper(scheme, 1, 0.4, 60.0);
        cfg.nodes = 150;
        cfg.area = Area::new(1800.0, 360.0);
        cfg.duration = SimDuration::from_secs(240);
        cfg.traffic.flows = 30;
        cfg
    }
    if smoke {
        vec![("small", small)]
    } else {
        vec![("small", small), ("medium", medium)]
    }
}

/// The `large` scaling tier: node counts double at constant density
/// (the medium tier's 150 nodes / 648 000 m²) and constant offered
/// load (30 flows), so the per-interval wall-time ratio between
/// consecutive points isolates per-node infrastructure cost — the
/// near-linearity claim the scaling gate checks. Rcast-only: the hot
/// paths under test (neighbor maintenance, churn scan, ATIM prepass,
/// wake draws) are scheme-independent, and one scheme keeps the tier
/// cheap enough to run in CI.
fn large_workloads(smoke: bool) -> Vec<Workload> {
    fn large600(scheme: Scheme) -> SimConfig {
        large_cfg(scheme, 600, 3600.0, 720.0, 60)
    }
    fn large1200(scheme: Scheme) -> SimConfig {
        large_cfg(scheme, 1200, 7200.0, 720.0, 60)
    }
    fn large600_smoke(scheme: Scheme) -> SimConfig {
        large_cfg(scheme, 600, 3600.0, 720.0, 45)
    }
    fn large1200_smoke(scheme: Scheme) -> SimConfig {
        large_cfg(scheme, 1200, 7200.0, 720.0, 45)
    }
    if smoke {
        vec![
            ("large-600", large600_smoke as fn(Scheme) -> SimConfig),
            ("large-1200", large1200_smoke),
        ]
    } else {
        vec![("large-600", large600), ("large-1200", large1200)]
    }
}

/// One large-tier configuration. Durations stay past
/// [`WARMUP_INTERVALS`] so the allocation figure is measured, not
/// `None`.
fn large_cfg(scheme: Scheme, nodes: u32, w_m: f64, h_m: f64, secs: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(scheme, 1, 0.4, 60.0);
    cfg.nodes = nodes;
    cfg.area = Area::new(w_m, h_m);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.traffic.flows = 30;
    cfg
}

/// The schemes tracked: the always-on ceiling, the PSM baseline, and
/// the paper's contribution.
const SCHEMES: &[Scheme] = &[Scheme::Dot11, Scheme::Psm, Scheme::Rcast];

/// Wall-clock noise on a shared host dwarfs real regressions for the
/// sub-second cells, so every tracked point reports the best
/// (minimum-wall) of this many runs. Allocation counts are
/// deterministic — every repeat measures the same figure — so the
/// first run's count is kept regardless of which repeat was fastest.
const BENCH_REPS: usize = 3;

/// Runs one workload cell [`BENCH_REPS`] times and keeps the fastest.
fn run_cell(workload: &'static str, cfg: SimConfig) -> BenchResult {
    let mut best = run_cell_once(workload, cfg.clone());
    let allocs = best.allocs_per_interval;
    for _ in 1..BENCH_REPS {
        let rerun = run_cell_once(workload, cfg.clone());
        if rerun.wall_seconds < best.wall_seconds {
            best = rerun;
        }
    }
    best.allocs_per_interval = allocs;
    best
}

/// Runs one workload cell: step the whole run, timing it, and count
/// allocations over the post-warm-up intervals.
fn run_cell_once(workload: &'static str, cfg: SimConfig) -> BenchResult {
    let scheme = cfg.scheme.label();
    let nodes = cfg.nodes;
    let sim_seconds = cfg.duration.as_secs_f64();
    let mut sim = Simulation::new(cfg).expect("valid bench config");
    let started = Instant::now();
    let mut intervals = 0u64;
    let mut allocs_at_warmup = None;
    loop {
        if intervals == WARMUP_INTERVALS {
            allocs_at_warmup = Some(alloc_probe::allocations());
        }
        if !sim.step_interval() {
            break;
        }
        intervals += 1;
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    std::hint::black_box(sim.finish());
    let allocs_per_interval = match allocs_at_warmup {
        Some(base) if alloc_probe::is_installed() && intervals > WARMUP_INTERVALS => Some(
            (alloc_probe::allocations() - base) as f64 / (intervals - WARMUP_INTERVALS) as f64,
        ),
        _ => None,
    };
    BenchResult {
        workload,
        scheme,
        nodes,
        sim_seconds,
        intervals,
        wall_seconds,
        intervals_per_sec: intervals as f64 / wall_seconds,
        ms_per_sim_second: wall_seconds * 1e3 / sim_seconds,
        allocs_per_interval,
    }
}

/// Runs the suite: every scheme at every workload (smoke = the small
/// workload only), plus one `sweep_point` tracking campaign-engine
/// throughput. The per-scheme cells are serial on purpose — each
/// measures single-run latency, which thread contention would pollute;
/// the sweep point deliberately runs machine-wide, because cross-cell
/// scaling is exactly what it tracks.
pub fn run_suite(smoke: bool) -> Vec<BenchResult> {
    run_suite_with(smoke, false)
}

/// [`run_suite`] with the optional `large` scaling tier appended
/// (before the sweep point, which stays last): the Rcast 600- and
/// 1200-node cells feeding [`scaling_failures`].
pub fn run_suite_with(smoke: bool, large: bool) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for (name, build) in workloads(smoke) {
        for &scheme in SCHEMES {
            out.push(run_cell(name, build(scheme)));
        }
    }
    if large {
        for (name, build) in large_workloads(smoke) {
            out.push(run_cell(name, build(Scheme::Rcast)));
        }
    }
    out.push(sweep_point());
    out
}

/// Maximum per-interval wall-time growth allowed when node count
/// doubles 600 → 1200 on the `large` tier. Strict linearity would be
/// 2.0×; the slack absorbs longer routes (network diameter grows with
/// the constant-density area) and cache effects, while still failing
/// any reintroduced O(n²) scan, which would score ≈ 4×.
pub const SCALING_MAX_RATIO: f64 = 2.5;

/// Steady-state allocation budget per interval for the large tier —
/// generous against the measured figure, tight against any per-node
/// allocation creeping into the interval loop (which would scale the
/// count with n, not with traffic).
pub const LARGE_ALLOC_BUDGET: f64 = 2000.0;

/// The per-interval wall cost of one point, milliseconds.
fn ms_per_interval(r: &BenchResult) -> f64 {
    r.wall_seconds * 1e3 / r.intervals.max(1) as f64
}

/// Renders the nodes-doubling scaling table over the Rcast medium +
/// large points present in `results` (medium is the 150-node anchor;
/// the smoke suite omits it and the table simply starts at 600).
pub fn scaling_table(results: &[BenchResult]) -> String {
    let mut s = String::from(
        "nodes-doubling scaling (Rcast):\n  workload     nodes  int/s      ms/interval  ratio\n",
    );
    let mut prev: Option<&BenchResult> = None;
    for name in ["medium", "large-600", "large-1200"] {
        let Some(r) = results
            .iter()
            .find(|r| r.workload == name && r.scheme == "Rcast")
        else {
            continue;
        };
        let ratio = match prev {
            Some(p) => format!(
                "{:.2}x over {} nodes",
                ms_per_interval(r) / ms_per_interval(p),
                p.nodes
            ),
            None => "-".to_string(),
        };
        s.push_str(&format!(
            "  {:<11}  {:<5}  {:<9.1}  {:<11.3}  {}\n",
            r.workload,
            r.nodes,
            r.intervals_per_sec,
            ms_per_interval(r),
            ratio
        ));
        prev = Some(r);
    }
    s
}

/// The `large` tier's CI gate: the 600- and 1200-node Rcast points
/// must both be present, their per-interval wall-time ratio must stay
/// under [`SCALING_MAX_RATIO`], and neither may exceed
/// [`LARGE_ALLOC_BUDGET`] steady-state allocations per interval.
/// Returns the failure messages; empty means the gate passed.
pub fn scaling_failures(results: &[BenchResult]) -> Vec<String> {
    let mut failures = Vec::new();
    let find = |name: &str| {
        results
            .iter()
            .find(|r| r.workload == name && r.scheme == "Rcast")
    };
    let (Some(lo), Some(hi)) = (find("large-600"), find("large-1200")) else {
        failures.push("scaling gate needs the large-600 and large-1200 Rcast points".into());
        return failures;
    };
    let ratio = ms_per_interval(hi) / ms_per_interval(lo);
    if ratio > SCALING_MAX_RATIO {
        failures.push(format!(
            "600 -> 1200 nodes: {:.3} -> {:.3} ms/interval is {ratio:.2}x \
(budget {SCALING_MAX_RATIO}x)",
            ms_per_interval(lo),
            ms_per_interval(hi),
        ));
    }
    for r in [lo, hi] {
        if let Some(a) = r.allocs_per_interval {
            if a > LARGE_ALLOC_BUDGET {
                failures.push(format!(
                    "{}: {a:.2} allocs/interval exceeds the {LARGE_ALLOC_BUDGET} budget",
                    r.workload,
                ));
            }
        }
    }
    failures
}

/// One sweep-campaign throughput point: the `fig7` CI smoke grid
/// (3 schemes × 2 rates × 2 pauses × 2 seeds = 24 runs) executed at
/// machine width through `rcast_sweep::run_spec`. Tracks the
/// cell × seed work-stealing path end to end. The allocation probe is
/// process-global, so the reported figure is the campaign-wide mean —
/// every allocation on every worker (including per-run construction;
/// there is no warm-up window to subtract across runs) divided by the
/// total intervals executed. Like the workload cells, the wall figure
/// is the best of [`BENCH_REPS`] runs with the first run's allocation
/// count.
fn sweep_point() -> BenchResult {
    let mut best = sweep_point_once();
    let allocs = best.allocs_per_interval;
    for _ in 1..BENCH_REPS {
        let rerun = sweep_point_once();
        if rerun.wall_seconds < best.wall_seconds {
            best = rerun;
        }
    }
    best.allocs_per_interval = allocs;
    best
}

fn sweep_point_once() -> BenchResult {
    let spec = rcast_sweep::preset("fig7")
        .expect("built-in preset")
        .smoke();
    let threads = rcast_engine::pool::available_threads();
    let allocs_before = alloc_probe::allocations();
    let started = Instant::now();
    let report = rcast_sweep::run_spec(&spec, threads).expect("smoke grid runs");
    let wall_seconds = started.elapsed().as_secs_f64();
    let allocs_per_interval = if alloc_probe::is_installed() && report.total_intervals > 0 {
        Some((alloc_probe::allocations() - allocs_before) as f64 / report.total_intervals as f64)
    } else {
        None
    };
    BenchResult {
        workload: "sweep",
        scheme: "mixed",
        nodes: report.spec.nodes[0],
        sim_seconds: report.total_sim_seconds,
        intervals: report.total_intervals,
        wall_seconds,
        intervals_per_sec: report.total_intervals as f64 / wall_seconds,
        ms_per_sim_second: wall_seconds * 1e3 / report.total_sim_seconds,
        allocs_per_interval,
    }
}

/// Paired ledger-overhead measurement behind the `rcast bench --smoke`
/// CI gate (DESIGN.md §11): with the event ledger off, the steady state
/// must not allocate (the §10 guarantee is untouched); with it on, the
/// steady state must *still* not allocate (storage is pre-sized) and
/// the wall-clock cost must stay under 10%.
#[derive(Debug, Clone, Copy)]
pub struct LedgerOverhead {
    /// Best-round wall nanoseconds per steady-state interval, ledger off.
    pub off_nanos_per_interval: u64,
    /// Best-round wall nanoseconds per steady-state interval, ledger on.
    pub on_nanos_per_interval: u64,
    /// Worst-round steady-state allocation count, ledger off (0 when no
    /// probe is installed).
    pub off_allocs: u64,
    /// Worst-round steady-state allocation count, ledger on.
    pub on_allocs: u64,
}

impl LedgerOverhead {
    /// Fractional wall-clock overhead of the ledger:
    /// `(on − off) / off`, clamped at zero when the ledger run was not
    /// slower.
    pub fn overhead_fraction(&self) -> f64 {
        if self.on_nanos_per_interval <= self.off_nanos_per_interval {
            0.0
        } else {
            (self.on_nanos_per_interval - self.off_nanos_per_interval) as f64
                / self.off_nanos_per_interval as f64
        }
    }
}

/// One ledger-overhead run: warm `cfg` past its high-water marks, then
/// time and allocation-count the remaining intervals.
fn ledger_cell(mut cfg: SimConfig, obs: bool) -> (u64, u64) {
    cfg.obs = obs;
    let mut sim = Simulation::new(cfg).expect("valid ledger bench config");
    for _ in 0..WARMUP_INTERVALS {
        assert!(sim.step_interval(), "warm-up must fit in the run");
    }
    let allocs_before = alloc_probe::allocations();
    let started = Instant::now();
    let mut stepped = 0u64;
    while sim.step_interval() {
        stepped += 1;
    }
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let allocs = alloc_probe::allocations() - allocs_before;
    std::hint::black_box(sim.finish());
    (wall_nanos / stepped.max(1), allocs)
}

/// The zero-alloc contract workload (static nodes, one near-silent
/// flow) — the same quiet steady state `tests/zero_alloc.rs` pins.
fn quiet_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
    cfg.waypoint.pause_secs = 1e9;
    cfg.traffic.flows = 1;
    cfg.traffic.rate_pps = 0.001;
    cfg
}

/// The wall-overhead workload: the realistic `small` testbed (real
/// traffic — the representative hot path), lengthened so each timed
/// half is tens of milliseconds and scheduler noise amortizes.
fn timing_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
    cfg.duration = SimDuration::from_secs(240);
    cfg
}

/// Measures the ledger's cost.
///
/// *Wall overhead* comes from `rounds` interleaved off/on pairs of
/// `timing_config`, keeping the pair with the smallest on/off ratio:
/// the two halves of a pair run back-to-back, so machine-load drift
/// between rounds cancels instead of counting against the budget,
/// while a real regression shows up in every round — including the
/// minimum. *Allocations* come from one off/on pair of the quiet
/// zero-alloc workload, where the steady-state count must be exactly
/// zero both ways; a single pair suffices because allocation counts
/// are deterministic.
pub fn ledger_overhead_rounds(rounds: usize) -> LedgerOverhead {
    let (_, off_allocs) = ledger_cell(quiet_config(), false);
    let (_, on_allocs) = ledger_cell(quiet_config(), true);
    let mut best: Option<(u64, u64)> = None;
    for _ in 0..rounds.max(1) {
        let (off, _) = ledger_cell(timing_config(), false);
        let (on, _) = ledger_cell(timing_config(), true);
        let better = match best {
            None => true,
            // on/off < best_on/best_off, cross-multiplied to stay exact.
            Some((b_off, b_on)) => (on as u128) * (b_off as u128) < (b_on as u128) * (off as u128),
        };
        if better {
            best = Some((off, on));
        }
    }
    let (off_nanos_per_interval, on_nanos_per_interval) = best.expect("at least one round");
    LedgerOverhead {
        off_nanos_per_interval,
        on_nanos_per_interval,
        off_allocs,
        on_allocs,
    }
}

/// The CI-gate measurement: five interleaved off/on rounds.
pub fn ledger_overhead() -> LedgerOverhead {
    ledger_overhead_rounds(5)
}

/// The ledger's wall-overhead budget (DESIGN.md §11): the ledger-on
/// steady state must run within 10% of the ledger-off one.
pub const LEDGER_OVERHEAD_BUDGET: f64 = 0.10;

/// The ledger gate (DESIGN.md §11): no steady-state allocation with the
/// ledger off or on, and an overhead under [`LEDGER_OVERHEAD_BUDGET`].
/// Returns the failure messages; empty means the gate passed.
pub fn ledger_failures(o: &LedgerOverhead) -> Vec<String> {
    let mut failures = Vec::new();
    if o.off_allocs != 0 {
        failures.push(format!(
            "ledger-off steady state allocates ({})",
            o.off_allocs
        ));
    }
    if o.on_allocs != 0 {
        failures.push(format!(
            "ledger-on steady state allocates ({})",
            o.on_allocs
        ));
    }
    if o.overhead_fraction() >= LEDGER_OVERHEAD_BUDGET {
        failures.push(format!(
            "ledger-on overhead {:.1}% exceeds the {:.0}% budget",
            o.overhead_fraction() * 100.0,
            LEDGER_OVERHEAD_BUDGET * 100.0
        ));
    }
    failures
}

/// The gates one `rcast bench` run asks for.
#[derive(Debug, Clone, Copy)]
pub struct Gates<'a> {
    /// `--large`: the [`scaling_failures`] gate.
    pub scaling: bool,
    /// `--check`: the baseline's name, its points and the speed
    /// tolerance for [`check_against_with_tolerance`].
    pub baseline: Option<(&'a str, &'a [BaselinePoint], f64)>,
    /// `--smoke`: the ledger measurement for [`ledger_failures`].
    pub ledger: Option<&'a LedgerOverhead>,
}

/// Runs every requested gate and returns all their failures, each
/// prefixed with its gate, so a failing gate never hides the ones after
/// it. Empty means every gate passed.
pub fn gate_failures(results: &[BenchResult], gates: Gates<'_>) -> Vec<String> {
    let mut failures = Vec::new();
    if gates.scaling {
        failures.extend(
            scaling_failures(results)
                .into_iter()
                .map(|f| format!("scaling gate: {f}")),
        );
    }
    if let Some((name, baseline, tolerance)) = gates.baseline {
        failures.extend(
            check_against_with_tolerance(results, baseline, tolerance)
                .into_iter()
                .map(|f| format!("bench regression vs {name}: {f}")),
        );
    }
    if let Some(o) = gates.ledger {
        failures.extend(ledger_failures(o));
    }
    failures
}

/// Renders the `rcast-bench/v1` JSON document. Hand-rolled and stable:
/// fixed key order, fixed precision, no timestamps or host fields, so
/// diffs of the checked-in file show only performance movement.
pub fn to_json(results: &[BenchResult]) -> String {
    let mut s = String::from("{\n  \"schema\": \"rcast-bench/v1\",\n  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let allocs = match r.allocs_per_interval {
            Some(a) => format!("{a:.2}"),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"scheme\": \"{}\", \"nodes\": {}, \
\"sim_seconds\": {:.0}, \"intervals\": {}, \"wall_seconds\": {:.3}, \
\"intervals_per_sec\": {:.1}, \"ms_per_sim_second\": {:.3}, \
\"allocs_per_interval\": {}}}{}\n",
            r.workload,
            r.scheme,
            r.nodes,
            r.sim_seconds,
            r.intervals,
            r.wall_seconds,
            r.intervals_per_sec,
            r.ms_per_sim_second,
            allocs,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One point of a parsed `rcast-bench/v1` baseline document — the
/// fields `--check` compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Baseline throughput.
    pub intervals_per_sec: f64,
    /// Baseline allocation rate (`None` when the document says `null`).
    pub allocs_per_interval: Option<f64>,
}

/// Allowed `intervals_per_sec` regression before `--check` fails:
/// wall-clock noise is real, a quarter of the throughput is not.
pub const CHECK_SPEED_TOLERANCE: f64 = 0.25;

/// Slack absorbing the baseline document's two-decimal formatting when
/// comparing `allocs_per_interval` (which is otherwise deterministic —
/// any real increase fails).
const CHECK_ALLOC_EPSILON: f64 = 0.005;

/// Parses the points of an `rcast-bench/v1` document. The format is
/// this crate's own hand-rolled [`to_json`] output — one point per
/// line, fixed key order — so a line scan is exact, not heuristic.
///
/// Numbers must read as [`to_json`] writes them: decimal digits with
/// an optional fraction, finite, and for `intervals_per_sec` above
/// zero. `NaN`, `inf`, a sign or an exponent is an error, since a NaN,
/// infinite or non-positive baseline would switch `--check` off.
///
/// # Errors
///
/// Returns a message starting `line N:` for the first malformed
/// point, a document without the schema header (line 1) or a
/// document without points (its last line).
pub fn parse_baseline(json: &str) -> Result<Vec<BaselinePoint>, String> {
    if !json.contains("\"schema\": \"rcast-bench/v1\"") {
        return Err("line 1: baseline is not an rcast-bench/v1 document".into());
    }
    fn str_field(line: &str, name: &str) -> Result<String, String> {
        let tail = line
            .split_once(&format!("\"{name}\": \""))
            .ok_or_else(|| format!("no `{name}` string"))?
            .1;
        let (value, _) = tail
            .split_once('"')
            .ok_or_else(|| format!("unterminated `{name}` string"))?;
        Ok(value.to_string())
    }
    fn raw_field<'a>(line: &'a str, name: &str) -> Result<&'a str, String> {
        let tail = line
            .split_once(&format!("\"{name}\": "))
            .ok_or_else(|| format!("no `{name}` value"))?
            .1;
        Ok(tail
            .split_once([',', '}'])
            .map_or(tail, |(head, _)| head)
            .trim())
    }
    fn number(line: &str, name: &str) -> Result<f64, String> {
        let raw = raw_field(line, name)?;
        let (whole, fraction) = raw.split_once('.').unwrap_or((raw, "0"));
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        match raw.parse::<f64>() {
            Ok(v) if digits(whole) && digits(fraction) && v.is_finite() => Ok(v),
            _ => Err(format!(
                "`{name}` is {raw:?}, not a finite non-negative decimal"
            )),
        }
    }
    let mut out = Vec::new();
    for (i, line) in json.lines().enumerate() {
        if !line.contains("\"workload\"") {
            continue;
        }
        let point = (|| {
            let workload = str_field(line, "workload")?;
            let scheme = str_field(line, "scheme")?;
            let intervals_per_sec = number(line, "intervals_per_sec")?;
            if intervals_per_sec == 0.0 {
                return Err("`intervals_per_sec` is 0: no speed floor to check".to_string());
            }
            let allocs_per_interval = match raw_field(line, "allocs_per_interval")? {
                "null" => None,
                _ => Some(number(line, "allocs_per_interval")?),
            };
            Ok(BaselinePoint {
                workload,
                scheme,
                intervals_per_sec,
                allocs_per_interval,
            })
        })();
        match point {
            Ok(p) => out.push(p),
            Err(e) => return Err(format!("line {}: malformed baseline point: {e}", i + 1)),
        }
    }
    if out.is_empty() {
        return Err(format!(
            "line {}: baseline has no points",
            json.lines().count().max(1)
        ));
    }
    Ok(out)
}

/// Diffs `current` against a parsed baseline: every current point with
/// a matching `(workload, scheme)` baseline point must not regress more
/// than [`CHECK_SPEED_TOLERANCE`] in `intervals_per_sec`, and must not
/// increase `allocs_per_interval` at all. Points present on only one
/// side are skipped (a `--smoke` run checks against a full baseline).
/// Returns the failure messages; empty means the check passed.
pub fn check_against(current: &[BenchResult], baseline: &[BaselinePoint]) -> Vec<String> {
    check_against_with_tolerance(current, baseline, CHECK_SPEED_TOLERANCE)
}

/// [`check_against`] with the speed tolerance as a parameter — the
/// `rcast bench --check --tolerance <pct>` path. `tolerance` is a
/// fraction (0.25 = 25 %). The allocation rule is not relaxed: any
/// increase beyond rounding still fails regardless of tolerance.
pub fn check_against_with_tolerance(
    current: &[BenchResult],
    baseline: &[BaselinePoint],
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in current {
        let Some(b) = baseline
            .iter()
            .find(|b| b.workload == r.workload && b.scheme == r.scheme)
        else {
            continue;
        };
        let floor = (1.0 - tolerance) * b.intervals_per_sec;
        if r.intervals_per_sec < floor {
            failures.push(format!(
                "{}/{}: intervals_per_sec {:.1} is below {:.1} \
(baseline {:.1} − {:.0}% tolerance)",
                r.workload,
                r.scheme,
                r.intervals_per_sec,
                floor,
                b.intervals_per_sec,
                tolerance * 100.0,
            ));
        }
        if let (Some(cur), Some(base)) = (r.allocs_per_interval, b.allocs_per_interval) {
            if cur > base + CHECK_ALLOC_EPSILON {
                failures.push(format!(
                    "{}/{}: allocs_per_interval rose {:.2} → {:.2} \
(any increase fails)",
                    r.workload, r.scheme, base, cur,
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(workload: &'static str, scheme: &'static str, ips: f64, allocs: Option<f64>) -> BenchResult {
        BenchResult {
            workload,
            scheme,
            nodes: 50,
            sim_seconds: 120.0,
            intervals: 480,
            wall_seconds: 480.0 / ips,
            intervals_per_sec: ips,
            ms_per_sim_second: 1.0,
            allocs_per_interval: allocs,
        }
    }

    #[test]
    fn baseline_round_trips_through_to_json() {
        let results = vec![
            point("small", "Rcast", 9704.4, Some(47.71)),
            point("sweep", "mixed", 170004.1, None),
        ];
        let parsed = parse_baseline(&to_json(&results)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].workload, "small");
        assert_eq!(parsed[0].scheme, "Rcast");
        assert!((parsed[0].intervals_per_sec - 9704.4).abs() < 1e-9);
        assert_eq!(parsed[0].allocs_per_interval, Some(47.71));
        assert_eq!(parsed[1].allocs_per_interval, None);
    }

    #[test]
    fn baseline_rejects_junk() {
        assert!(parse_baseline("{}").is_err(), "missing schema");
        assert!(
            parse_baseline("{\"schema\": \"rcast-bench/v1\", \"points\": []}").is_err(),
            "no points"
        );
        let bad = "{\n  \"schema\": \"rcast-bench/v1\",\n  \
{\"workload\": \"small\", \"scheme\": \"Rcast\"}\n}";
        let err = parse_baseline(bad).unwrap_err();
        assert!(err.starts_with("line 3: "), "point missing fields: {err}");
    }

    #[test]
    fn baseline_rejects_numbers_that_would_switch_the_gate_off() {
        let doc = to_json(&[point("small", "Rcast", 1000.0, Some(0.5))]);
        assert!(parse_baseline(&doc).is_ok());
        for (field, good) in [
            ("intervals_per_sec", "1000.0"),
            ("allocs_per_interval", "0.50"),
        ] {
            for bad in [
                "NaN", "inf", "-inf", "-1.0", "1e3", "+5", "", "0x10", "1.", ".5",
            ] {
                let mutated = doc.replace(
                    &format!("\"{field}\": {good}"),
                    &format!("\"{field}\": {bad}"),
                );
                let err = parse_baseline(&mutated).unwrap_err();
                assert!(err.starts_with("line 4: "), "{field}={bad}: {err}");
                assert!(err.contains(field), "{field}={bad}: {err}");
            }
        }
        let zero = doc.replace(
            "\"intervals_per_sec\": 1000.0",
            "\"intervals_per_sec\": 0.0",
        );
        assert!(parse_baseline(&zero).unwrap_err().starts_with("line 4: "));
        let free = doc.replace(
            "\"allocs_per_interval\": 0.50",
            "\"allocs_per_interval\": 0.00",
        );
        assert_eq!(
            parse_baseline(&free).unwrap()[0].allocs_per_interval,
            Some(0.0)
        );
    }

    #[test]
    fn check_flags_regressions_and_tolerates_noise() {
        let baseline =
            parse_baseline(&to_json(&[point("small", "Rcast", 1000.0, Some(50.0))])).unwrap();
        // Within tolerance, allocs flat: clean.
        assert!(check_against(&[point("small", "Rcast", 800.0, Some(50.0))], &baseline)
            .is_empty());
        // Faster and fewer allocs: clean.
        assert!(check_against(&[point("small", "Rcast", 2000.0, Some(10.0))], &baseline)
            .is_empty());
        // >25% slower: fails.
        let f = check_against(&[point("small", "Rcast", 700.0, Some(50.0))], &baseline);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("intervals_per_sec"), "{f:?}");
        // Any alloc increase: fails.
        let f = check_against(&[point("small", "Rcast", 1000.0, Some(50.1))], &baseline);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("allocs_per_interval"), "{f:?}");
        // Unmatched points are skipped both ways.
        assert!(check_against(&[point("medium", "Rcast", 1.0, Some(9e9))], &baseline)
            .is_empty());
    }

    #[test]
    fn smoke_suite_runs_and_renders() {
        let results = run_suite(true);
        assert_eq!(
            results.len(),
            SCHEMES.len() + 1,
            "one cell per scheme plus the sweep point"
        );
        let (sweep, singles) = results.split_last().expect("non-empty");
        for r in singles {
            assert_eq!(r.workload, "small");
            assert_eq!(r.intervals, 480, "120 s at 250 ms");
            assert!(r.wall_seconds > 0.0);
            assert!(r.intervals_per_sec > 0.0);
            // No assertion on allocs_per_interval: the probe is not this
            // test binary's allocator, but a sibling unit test exercising
            // the pass-through may have flipped the shared INSTALLED flag.
        }
        assert_eq!(sweep.workload, "sweep");
        assert_eq!(sweep.scheme, "mixed");
        // 12 cells × 2 seeds × (60 s / 250 ms) intervals.
        assert_eq!(sweep.intervals, 24 * 240);
        // allocs_per_interval is None unless the probe is installed —
        // which a sibling unit test may have flipped; accept both.
        if let Some(a) = sweep.allocs_per_interval {
            assert!(a.is_finite() && a >= 0.0);
        }
        let json = to_json(&results);
        assert!(json.starts_with("{\n  \"schema\": \"rcast-bench/v1\""));
        assert_eq!(json.matches("\"workload\"").count(), results.len());
        assert!(json.contains("\"allocs_per_interval\": "));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn ledger_overhead_fraction_math() {
        let mut o = LedgerOverhead {
            off_nanos_per_interval: 1000,
            on_nanos_per_interval: 1050,
            off_allocs: 0,
            on_allocs: 0,
        };
        assert!((o.overhead_fraction() - 0.05).abs() < 1e-12);
        o.on_nanos_per_interval = 900;
        assert_eq!(o.overhead_fraction(), 0.0, "faster-with-ledger clamps");
    }

    #[test]
    fn every_failing_gate_is_reported() {
        // A quadratic 600 -> 1200 step, a speed and an allocation
        // regression against the baseline, and a ledger that allocates
        // and costs 20%: every gate fails, and each one says so.
        let mut lo = point("large-600", "Rcast", 1000.0, Some(1.0));
        lo.nodes = 600;
        let mut hi = point("large-1200", "Rcast", 250.0, Some(1.0));
        hi.nodes = 1200;
        let results = [point("small", "Rcast", 100.0, Some(2.0)), lo, hi];
        let baseline = [BaselinePoint {
            workload: "small".into(),
            scheme: "Rcast".into(),
            intervals_per_sec: 1000.0,
            allocs_per_interval: Some(1.0),
        }];
        let ledger = LedgerOverhead {
            off_nanos_per_interval: 1000,
            on_nanos_per_interval: 1200,
            off_allocs: 3,
            on_allocs: 4,
        };
        let all = Gates {
            scaling: true,
            baseline: Some(("base.json", &baseline, CHECK_SPEED_TOLERANCE)),
            ledger: Some(&ledger),
        };
        let failures = gate_failures(&results, all);
        let count = |prefix: &str| failures.iter().filter(|f| f.starts_with(prefix)).count();
        assert_eq!(count("scaling gate: 600 -> 1200 nodes"), 1, "{failures:?}");
        assert_eq!(
            count("bench regression vs base.json: small/Rcast"),
            2,
            "{failures:?}"
        );
        assert_eq!(
            count("ledger-off steady state allocates (3)"),
            1,
            "{failures:?}"
        );
        assert_eq!(
            count("ledger-on steady state allocates (4)"),
            1,
            "{failures:?}"
        );
        assert_eq!(count("ledger-on overhead 20.0%"), 1, "{failures:?}");
        assert_eq!(failures.len(), 6, "{failures:?}");

        // Gates that were not asked for do not run.
        let none = Gates {
            scaling: false,
            baseline: None,
            ledger: None,
        };
        assert!(gate_failures(&results, none).is_empty());
        // A clean ledger passes on its own.
        let clean = LedgerOverhead {
            off_allocs: 0,
            on_allocs: 0,
            on_nanos_per_interval: 1050,
            ..ledger
        };
        assert!(ledger_failures(&clean).is_empty());
    }

    #[test]
    fn ledger_overhead_measures_one_round() {
        let o = ledger_overhead_rounds(1);
        assert!(o.off_nanos_per_interval > 0);
        assert!(o.on_nanos_per_interval > 0);
        assert!(o.off_nanos_per_interval < u64::MAX);
        // No alloc assertion here: the probe is not this test binary's
        // global allocator, so counts are meaningful only in the `rcast`
        // binary and the zero_alloc integration test.
    }

    #[test]
    fn medium_workload_matches_the_tracked_shape() {
        let cfgs = workloads(false);
        assert_eq!(cfgs.len(), 2);
        let medium = (cfgs[1].1)(Scheme::Rcast);
        assert_eq!(medium.nodes, 150);
        assert_eq!(medium.duration, SimDuration::from_secs(240));
        assert_eq!(medium.traffic.flows, 30);
        assert!(medium.validate().is_ok());
    }

    #[test]
    fn large_tier_holds_density_and_load_constant() {
        // Medium's density is the anchor the tier doubles from.
        let medium = (workloads(false)[1].1)(Scheme::Rcast);
        let anchor = medium.nodes as f64 / (medium.area.width() * medium.area.height());
        for smoke in [false, true] {
            let cfgs = large_workloads(smoke);
            assert_eq!(cfgs.len(), 2);
            let (lo, hi) = ((cfgs[0].1)(Scheme::Rcast), (cfgs[1].1)(Scheme::Rcast));
            assert_eq!((lo.nodes, hi.nodes), (600, 1200));
            for cfg in [&lo, &hi] {
                let density = cfg.nodes as f64 / (cfg.area.width() * cfg.area.height());
                assert!((density - anchor).abs() / anchor < 1e-9);
                assert_eq!(cfg.traffic.flows, medium.traffic.flows);
                // Allocation counting needs post-warm-up intervals.
                assert!(cfg.duration.as_secs_f64() > WARMUP_INTERVALS as f64 * 0.25);
                assert!(cfg.validate().is_ok());
            }
        }
    }

    fn scaled_point(
        workload: &'static str,
        nodes: u32,
        intervals: u64,
        wall_seconds: f64,
        allocs: Option<f64>,
    ) -> BenchResult {
        BenchResult {
            workload,
            scheme: "Rcast",
            nodes,
            sim_seconds: intervals as f64 * 0.25,
            intervals,
            wall_seconds,
            intervals_per_sec: intervals as f64 / wall_seconds,
            ms_per_sim_second: 1.0,
            allocs_per_interval: allocs,
        }
    }

    #[test]
    fn scaling_gate_passes_near_linear_and_fails_quadratic() {
        // 2.0x per doubling: linear, passes.
        let linear = vec![
            scaled_point("large-600", 600, 180, 0.9, Some(300.0)),
            scaled_point("large-1200", 1200, 180, 1.8, Some(310.0)),
        ];
        assert!(scaling_failures(&linear).is_empty());

        // 4.0x per doubling: a reintroduced pairwise scan, fails.
        let quadratic = vec![
            scaled_point("large-600", 600, 180, 0.9, Some(300.0)),
            scaled_point("large-1200", 1200, 180, 3.6, Some(310.0)),
        ];
        let failures = scaling_failures(&quadratic);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("4.00x"), "{failures:?}");

        // Alloc budget breach fails even when timing is linear.
        let leaky = vec![
            scaled_point("large-600", 600, 180, 0.9, Some(300.0)),
            scaled_point("large-1200", 1200, 180, 1.8, Some(LARGE_ALLOC_BUDGET + 1.0)),
        ];
        let failures = scaling_failures(&leaky);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("budget"), "{failures:?}");

        // Missing points are a failure, not a silent pass.
        assert_eq!(scaling_failures(&linear[..1]).len(), 1);
    }

    #[test]
    fn scaling_table_lists_points_with_doubling_ratios() {
        let results = vec![
            point("medium", "Rcast", 1400.0, Some(324.0)),
            scaled_point("large-600", 600, 180, 0.9, Some(300.0)),
            scaled_point("large-1200", 1200, 180, 1.98, Some(310.0)),
        ];
        let table = scaling_table(&results);
        assert!(table.contains("medium"), "{table}");
        assert!(table.contains("large-600"), "{table}");
        assert!(table.contains("2.20x over 600 nodes"), "{table}");
        // Absent points are simply omitted — the smoke tier has no medium.
        let partial = scaling_table(&results[1..]);
        assert!(!partial.contains("medium"), "{partial}");
    }

    #[test]
    fn tolerance_parameter_widens_the_speed_floor() {
        let baseline = parse_baseline(&to_json(&[point("small", "Rcast", 1000.0, None)]))
            .unwrap();
        let current = vec![point("small", "Rcast", 600.0, None)];
        // 40 % below baseline: fails at the default 25 %...
        assert_eq!(check_against(&current, &baseline).len(), 1);
        // ...and at an explicit 30 %...
        assert_eq!(
            check_against_with_tolerance(&current, &baseline, 0.30).len(),
            1
        );
        // ...but passes once the tolerance covers the drop.
        assert!(check_against_with_tolerance(&current, &baseline, 0.45).is_empty());
    }
}
