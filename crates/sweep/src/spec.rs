//! Declarative campaign specs and their expansion into a run matrix.
//!
//! A [`SweepSpec`] names the axes of one figure-style experiment grid —
//! schemes × packet rates × pause times × node counts × variants — plus
//! the seed list averaged per cell, a base configuration for everything
//! the grid does not sweep, and any extra per-run metric columns.
//! A [`Variant`] is a list of scenario assignments applied on top of
//! the base (`factors neighbors,battery; battery 1500`); a fault plan
//! is the variant that assigns `faults`. [`SweepSpec::expand`] turns the
//! spec into the canonical, duplicate-free list of [`SweepCell`]s the
//! runner executes.
//!
//! Specs are **normalized** before use: every sortable axis is sorted
//! and deduplicated, so the expansion (and therefore the artifact) is
//! independent of the order axis values were written in — permuting a
//! spec file's `rates 2.0,0.2` line cannot reorder the artifact.

use std::fmt::Display;
use std::str::FromStr;

use rcast_core::{parse_scenario, set_key, Area, Scheme, SimConfig, RUN_METRICS};
use rcast_engine::rng::StreamRng;
use rcast_engine::SimDuration;

/// How per-cell runs draw their master seeds from the spec's seed list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// Every cell replays the same seed list verbatim — the ns-2
    /// convention of re-running each scheme over the *same* scenario
    /// files, which pairs the curves and lowers the variance of
    /// cross-scheme differences. The default, and what the paper does.
    Common,
    /// Each cell derives its own seed stream by splitting the master
    /// seed with the cell's [`key`](SweepCell::key), so no two cells in
    /// the matrix ever share an RNG stream (collision-freedom is pinned
    /// by a property test).
    Independent,
}

impl Pairing {
    /// The spec-file token (`common` / `independent`).
    pub fn label(self) -> &'static str {
        match self {
            Pairing::Common => "common",
            Pairing::Independent => "independent",
        }
    }
}

/// One value of the variant axis: scenario assignments applied, in
/// order, to each cell's configuration through [`rcast_core::set_key`].
/// The default variant assigns nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Variant {
    /// `(key, value)` pairs, every one accepted by `set_key`.
    sets: Vec<(String, String)>,
}

impl Variant {
    /// Parses a `;`-separated list of `key value` scenario assignments,
    /// such as `factors neighbors,battery; battery 1500`.
    ///
    /// # Errors
    ///
    /// Returns a message for an empty assignment, a key an axis owns
    /// (`scheme`, `rate`, `pause`, `nodes`, `seed`), `obs`, or a key or
    /// value [`rcast_core::set_key`] rejects.
    pub fn parse(text: &str) -> Result<Variant, String> {
        let mut scratch = SimConfig::paper(Scheme::Rcast, 0, 0.4, 600.0);
        let mut sets = Vec::new();
        for part in text.split(';').map(str::trim) {
            let (key, value) = part.split_once(char::is_whitespace).unwrap_or((part, ""));
            if key.is_empty() {
                return Err(format!("variant '{text}' has an empty assignment"));
            }
            if let Some((singular, plural)) =
                AXIS_KEYS.iter().find(|(s, _)| *s == key && *s != "faults")
            {
                return Err(format!("'{singular}' is an axis here — use '{plural}'"));
            }
            if key == "obs" {
                return Err("'obs' is not sweepable — artifacts carry aggregates, not ledgers".into());
            }
            // One space between tokens keeps labels free of control
            // characters. Setters read only the value text, so one that
            // accepts it here accepts it on every cell's configuration.
            let value = value.split_whitespace().collect::<Vec<_>>().join(" ");
            set_key(&mut scratch, key, &value).map_err(|e| format!("{key}: {e}"))?;
            sets.push((key.to_string(), value));
        }
        Ok(Variant { sets })
    }

    /// Applies the assignments to `cfg`.
    fn apply(&self, cfg: &mut SimConfig) {
        for (key, value) in &self.sets {
            set_key(cfg, key, value).expect("Variant::parse checked every assignment");
        }
    }

    /// The artifact label (the `fault_plan` field and column). A variant
    /// that assigns nothing or only `faults` reads as its fault plan:
    /// `none` for the healthy plan, else the plan's canonical spec
    /// string. Any other variant reads as its assignments joined by
    /// `; `. Labels need no escaping in JSON: every value passed a
    /// scenario setter, and its tokens are joined by single spaces.
    pub fn label(&self) -> String {
        if !self.sets.iter().all(|(key, _)| key == "faults") {
            let sets: Vec<String> = self.sets.iter().map(|(k, v)| format!("{k} {v}")).collect();
            return sets.join("; ");
        }
        let mut cfg = SimConfig::paper(Scheme::Rcast, 0, 0.4, 600.0);
        self.apply(&mut cfg);
        if cfg.faults.is_none() {
            return "none".into();
        }
        cfg.faults.spec_string().expect("spec text never scripts a fault")
    }
}

/// A declarative sweep campaign. See the `spec.rs` module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name; artifact files are `<name>.json` / `<name>.csv`.
    pub name: String,
    /// Base configuration for everything no axis sweeps (duration,
    /// flows, area, routing, radio, MAC…). Its `scheme`, traffic rate,
    /// pause time and `seed` fields are overwritten per cell/run.
    pub base: SimConfig,
    /// Scheme axis.
    pub schemes: Vec<Scheme>,
    /// Packet-rate axis (packets/second per flow).
    pub rates: Vec<f64>,
    /// Pause-time axis (seconds).
    pub pauses: Vec<f64>,
    /// Node-count axis.
    pub nodes: Vec<u32>,
    /// Variant axis; `Variant::default()` is the base as it stands.
    pub variants: Vec<Variant>,
    /// Seeds averaged per cell.
    pub seeds: Vec<u64>,
    /// Seed pairing across cells.
    pub pairing: Pairing,
    /// When `true`, each cell's artifact row carries the seed-averaged
    /// sorted per-node energy curve (Fig. 5's raw material) and the
    /// matching per-node role numbers (Fig. 9's).
    pub per_node: bool,
    /// Extra per-run metric columns, by their
    /// [`RUN_METRICS`](rcast_core::RUN_METRICS) names, after the six
    /// figure metrics.
    pub metrics: Vec<&'static str>,
}

/// One point of the expanded run matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The scheme under test.
    pub scheme: Scheme,
    /// Packets/second per flow.
    pub rate_pps: f64,
    /// Random-waypoint pause time, seconds.
    pub pause_s: f64,
    /// Node count.
    pub nodes: u32,
    /// Index into [`SweepSpec::variants`].
    pub variant_index: usize,
}

impl SweepCell {
    /// A stable identity string for the cell: distinct cells in one
    /// matrix always have distinct keys (floats render with Rust's
    /// shortest-round-trip `Display`, so distinct values never print
    /// alike). The variant reads `f{index}`, its name from when the
    /// axis held only fault plans, so independent-pairing seeds keep.
    pub fn key(&self) -> String {
        format!(
            "{}/r{}/p{}/n{}/f{}",
            self.scheme.label(),
            self.rate_pps,
            self.pause_s,
            self.nodes,
            self.variant_index
        )
    }

    /// The master seed one run of this cell uses for `base_seed` from
    /// the spec's seed list. [`Pairing::Common`] passes the seed
    /// through; [`Pairing::Independent`] splits a fresh stream off it
    /// with the cell [`key`](Self::key), so streams never collide
    /// across the matrix.
    pub fn run_seed(&self, base_seed: u64, pairing: Pairing) -> u64 {
        match pairing {
            Pairing::Common => base_seed,
            Pairing::Independent => StreamRng::from_seed(base_seed)
                .child("sweep-cell")
                .child(&self.key())
                .next_u64(),
        }
    }

    /// The cell's full configuration: the spec's base with this cell's
    /// axis values and variant written in (seed still to be set per
    /// run).
    pub fn config(&self, spec: &SweepSpec) -> SimConfig {
        let mut cfg = spec.base.clone();
        cfg.scheme = self.scheme;
        cfg.traffic.rate_pps = self.rate_pps;
        cfg.waypoint.pause_secs = self.pause_s;
        cfg.nodes = self.nodes;
        spec.variants[self.variant_index].apply(&mut cfg);
        cfg
    }
}

impl SweepSpec {
    /// The paper's default campaign scaffold: `Scheme::PAPER_FIGURES`
    /// at the nominal rate/pause on the Section 4.1 testbed, five
    /// seeds, one variant that changes nothing, no extra metrics.
    /// Presets and spec files start from this.
    pub fn paper_default(name: &str) -> SweepSpec {
        SweepSpec {
            name: name.to_string(),
            base: SimConfig::paper(Scheme::Rcast, 0, 0.4, 600.0),
            schemes: Scheme::PAPER_FIGURES.to_vec(),
            rates: vec![0.4],
            pauses: vec![600.0],
            nodes: vec![100],
            variants: vec![Variant::default()],
            seeds: (1..=5).collect(),
            pairing: Pairing::Common,
            per_node: false,
            metrics: Vec::new(),
        }
    }

    /// Normalizes and validates the spec: sortable axes are sorted and
    /// deduplicated (schemes by paper order, rates/pauses/nodes/seeds
    /// ascending, metrics in [`RUN_METRICS`](rcast_core::RUN_METRICS)
    /// order), variants that give the same configuration as an earlier
    /// one are dropped, and every resulting cell's configuration must
    /// validate.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: an empty axis or seed
    /// list, a non-finite axis value, an unknown metric, or a per-cell
    /// configuration error.
    pub fn normalized(&self) -> Result<SweepSpec, String> {
        let mut spec = self.clone();
        if spec.name.is_empty() {
            return Err("sweep: name must be non-empty".into());
        }
        for (axis, len) in [
            ("schemes", spec.schemes.len()),
            ("rates", spec.rates.len()),
            ("pauses", spec.pauses.len()),
            ("nodes", spec.nodes.len()),
            ("variants", spec.variants.len()),
            ("seeds", spec.seeds.len()),
        ] {
            if len == 0 {
                return Err(format!("sweep: {axis} axis must be non-empty"));
            }
        }
        for &r in &spec.rates {
            if !(r.is_finite() && r > 0.0) {
                return Err(format!("sweep: invalid rate {r}"));
            }
        }
        for &p in &spec.pauses {
            if !(p.is_finite() && p >= 0.0) {
                return Err(format!("sweep: invalid pause {p}"));
            }
        }
        let metric_order = |m: &&str| RUN_METRICS.iter().position(|(name, _)| name == m);
        if let Some(m) = spec.metrics.iter().find(|m| metric_order(m).is_none()) {
            return Err(format!("sweep: unknown metric '{m}'"));
        }
        spec.schemes.sort_by_key(|s| Scheme::ALL.iter().position(|a| a == s));
        spec.schemes.dedup();
        spec.rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        spec.rates.dedup();
        spec.pauses
            .sort_by(|a, b| a.partial_cmp(b).expect("finite pauses"));
        spec.pauses.dedup();
        spec.nodes.sort_unstable();
        spec.nodes.dedup();
        spec.seeds.sort_unstable();
        spec.seeds.dedup();
        spec.metrics.sort_by_key(metric_order);
        spec.metrics.dedup();
        let mut seen: Vec<SimConfig> = Vec::new();
        spec.variants.retain(|v| {
            let mut cfg = spec.base.clone();
            v.apply(&mut cfg);
            let fresh = !seen.contains(&cfg);
            if fresh {
                seen.push(cfg);
            }
            fresh
        });
        for cell in spec.expand() {
            cell.config(&spec)
                .validate()
                .map_err(|e| format!("sweep: cell {}: {e}", cell.key()))?;
        }
        Ok(spec)
    }

    /// Expands the (normalized) spec into its run matrix, scheme-major:
    /// scheme, then rate, pause, node count, variant. The expansion
    /// of a normalized spec is canonical — axis input order cannot
    /// change it — and duplicate-free.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(
            self.schemes.len() * self.rates.len() * self.pauses.len()
                * self.nodes.len()
                * self.variants.len(),
        );
        for &scheme in &self.schemes {
            for &rate_pps in &self.rates {
                for &pause_s in &self.pauses {
                    for &nodes in &self.nodes {
                        for variant_index in 0..self.variants.len() {
                            cells.push(SweepCell {
                                scheme,
                                rate_pps,
                                pause_s,
                                nodes,
                                variant_index,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Total runs the matrix executes (`cells × seeds`).
    pub fn total_runs(&self) -> usize {
        self.expand().len() * self.seeds.len()
    }

    /// The CI-smoke version of this campaign: 60 simulated seconds on a
    /// 20-node 800 × 300 m field with 4 flows, the first two values of
    /// the rate and seed axes, and pause times scaled by the duration
    /// ratio (ns-2 setdest nodes pause *before* their first trip, so an
    /// unscaled 600 s pause would leave a 60 s run entirely static).
    /// `-smoke` is appended to the name so smoke artifacts can never be
    /// mistaken for full ones.
    pub fn smoke(&self) -> SweepSpec {
        let mut spec = self.clone();
        let full_duration = spec.base.duration.as_secs_f64();
        spec.name.push_str("-smoke");
        spec.base.duration = SimDuration::from_secs(60);
        spec.base.area = Area::new(800.0, 300.0);
        spec.base.traffic.flows = 4;
        spec.nodes = vec![20];
        spec.rates.truncate(2);
        spec.seeds.truncate(2);
        for p in &mut spec.pauses {
            // Multiply before dividing: `1125 × 60 / 1125` is exactly
            // 60, while `1125 × (60/1125)` picks up an ulp of noise
            // that would leak into cell keys and artifact bytes.
            *p = *p * 60.0 / full_duration;
        }
        spec
    }
}

/// The spec-file keys that sweep an axis — and therefore ban their
/// singular scenario-file counterparts from the base section — as
/// `(singular, plural)` pairs. `rcast compare` applies the same rule
/// to its `--schemes`/`--rates`/`--seeds` flags. Variants may assign
/// `faults` (that is what `fault-plan` does) but none of the others.
pub const AXIS_KEYS: [(&str, &str); 6] = [
    ("scheme", "schemes"),
    ("rate", "rates"),
    ("pause", "pauses"),
    ("nodes", "nodes"),
    ("seed", "seeds"),
    ("faults", "fault-plan"),
];

/// The most seeds a spec's `seeds` line may list. The paper averages
/// ten; the cap turns a typo such as `seeds 0..18446744073709551615`
/// into an error naming its line instead of an allocation failure.
pub const MAX_SEEDS: u64 = 65_536;

/// Whether `name` is safe as a campaign name: it becomes the artifact
/// file stem under `--out` and is written unescaped into the JSON and
/// CSV artifacts, so it may hold only `[A-Za-z0-9_.-]` and may not
/// start with `.` (no hidden files, no `..`).
fn is_artifact_name(name: &str) -> bool {
    !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Parses a sweep spec file.
///
/// The format extends the scenario format (`rcast export-scenario`)
/// with axis keys; everything else is a base-configuration line handed
/// to [`rcast_core::parse_scenario`] verbatim:
///
/// ```text
/// # rcast sweep spec
/// name my-campaign
/// schemes 802.11,odpm,rcast
/// rates 0.2,0.4,1.0,2.0
/// pauses 600,1125
/// nodes 100
/// seeds 1..10
/// fault-plan none
/// fault-plan crash=0.3,downtime=20
/// variant factors neighbors,battery; battery 1500
/// metrics rreq_tx,first_depletion_s
/// pairing common
/// per-node false
/// # base lines: handed to the scenario parser
/// duration 1125
/// flows 20
/// ```
///
/// Axis keys replace their scenario singulars: `scheme`, `rate`,
/// `pause`, `seed` and `faults` lines are rejected with a pointer to
/// the plural form, and `obs`/`trace` are rejected outright (a sweep
/// artifact carries aggregates, not ledgers). `seeds` accepts comma
/// lists and inclusive `A..B` ranges, at most [`MAX_SEEDS`] in all.
/// Each `variant` line appends one [`Variant`]: `;`-separated scenario
/// assignments. `fault-plan X` is the spelling of `variant faults X`
/// (`none` for the healthy plan). `metrics` names extra columns from
/// [`RUN_METRICS`](rcast_core::RUN_METRICS). `name` names the
/// artifact files, so it may use only `A-Z`, `a-z`, `0-9`, `_`, `.` and
/// `-`, and may not start with `.`.
///
/// # Errors
///
/// Returns a message naming the offending line for unknown or banned
/// keys, malformed values, or (naming the last line) a spec that fails
/// [`SweepSpec::normalized`].
pub fn parse_spec(text: &str) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::paper_default("sweep");
    let mut base_lines = String::new();
    let mut variants: Vec<Variant> = Vec::new();
    let mut lines = 0;
    for (lineno, raw) in text.lines().enumerate() {
        lines = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            base_lines.push('\n');
            continue;
        }
        let at = |msg: String| format!("line {lines}: {msg}");
        let (key, value) = match line.split_once(char::is_whitespace) {
            Some((k, v)) => (k, v.trim()),
            None => (line, ""),
        };
        match key {
            "name" => {
                if value.is_empty() {
                    return Err(at("'name' expects a value".into()));
                }
                if !is_artifact_name(value) {
                    return Err(at(format!(
                        "name '{value}' may use only A-Z, a-z, 0-9, '_', '.' and '-', \
                         and may not start with '.'"
                    )));
                }
                spec.name = value.to_string();
            }
            "schemes" => spec.schemes = items(value, "scheme").map_err(at)?,
            "rates" => spec.rates = items(value, "rate").map_err(at)?,
            "pauses" => spec.pauses = items(value, "pause").map_err(at)?,
            "nodes" => spec.nodes = items(value, "node count").map_err(at)?,
            "seeds" => {
                let mut seeds = Vec::new();
                for part in items::<String>(value, "seed").map_err(at)? {
                    let (lo, hi) = match part.split_once("..") {
                        Some((lo, hi)) => {
                            let bad = |_| at(format!("bad seed range '{part}'"));
                            (lo.parse::<u64>().map_err(bad)?, hi.parse::<u64>().map_err(bad)?)
                        }
                        None => {
                            let seed = part.parse().map_err(|_| at(format!("bad seed '{part}'")))?;
                            (seed, seed)
                        }
                    };
                    if lo > hi {
                        return Err(at(format!(
                            "seed range '{part}' is empty (A..B is inclusive)"
                        )));
                    }
                    // `hi - lo + 1` overflows only for the full u64
                    // range, which saturates past the cap all the same.
                    let count = (hi - lo).saturating_add(1);
                    if count > MAX_SEEDS - seeds.len() as u64 {
                        return Err(at(format!(
                            "'{part}' takes the seed list past {MAX_SEEDS} seeds"
                        )));
                    }
                    seeds.extend(lo..=hi);
                }
                spec.seeds = seeds;
            }
            "variant" => variants.push(Variant::parse(value).map_err(at)?),
            "fault-plan" => {
                let plan = if value.is_empty() { "none" } else { value };
                variants.push(Variant::parse(&format!("faults {plan}")).map_err(at)?);
            }
            "metrics" => {
                let names: Vec<&str> = RUN_METRICS.iter().map(|(name, _)| *name).collect();
                spec.metrics = items::<String>(value, "metric")
                    .map_err(at)?
                    .into_iter()
                    .map(|m| {
                        names.iter().find(|name| **name == m).copied().ok_or_else(|| {
                            at(format!("unknown metric '{m}' (expected {})", names.join(", ")))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "pairing" => {
                spec.pairing = match value {
                    "common" => Pairing::Common,
                    "independent" => Pairing::Independent,
                    other => {
                        return Err(at(format!(
                            "pairing expects common/independent, got '{other}'"
                        )))
                    }
                }
            }
            "per-node" => {
                spec.per_node = value
                    .parse()
                    .map_err(|_| at(format!("per-node expects true/false, got '{value}'")))?
            }
            "obs" | "trace" => {
                return Err(at(format!(
                    "'{key}' is not sweepable — artifacts carry aggregates, \
                     not ledgers; use `rcast trace` for one run"
                )));
            }
            other => {
                if let Some((singular, plural)) =
                    AXIS_KEYS.iter().find(|(s, _)| *s == other)
                {
                    return Err(at(format!(
                        "'{singular}' is an axis here — use '{plural}'"
                    )));
                }
                // Anything else is a base-configuration line; the
                // scenario parser owns its syntax and errors.
                base_lines.push_str(raw);
            }
        }
        // Axis lines leave a blank in their place, so scenario-parser
        // errors carry this file's line numbers.
        base_lines.push('\n');
    }
    if !variants.is_empty() {
        spec.variants = variants;
    }
    spec.base = parse_scenario(&base_lines)?;
    // The scenario parser fills axis fields (scheme, rate, pause) with
    // paper defaults; cells overwrite them, so keeping them is harmless.
    // Its seed default is dead state here — runs set their own — so pin
    // it, keeping parsed specs canonical.
    spec.base.seed = 0;
    spec.normalized().map_err(|e| format!("line {lines} (end of spec): {e}"))
}

/// The comma list `value`, each item parsed as one `what`.
fn items<T: FromStr>(value: &str, what: &str) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    if value.is_empty() {
        return Err(format!("expects a comma list of {what}s"));
    }
    value
        .split(',')
        .map(|v| v.trim().parse().map_err(|e| format!("bad {what} '{}': {e}", v.trim())))
        .collect()
}

/// The fig6/fig7/fig8 grid: 4 rates × mobile/static pauses.
const GRID: &str = "rates 0.2,0.4,1.0,2.0\npauses 600,1125\n";

/// The built-in presets as spec text, which [`preset`] parses after a
/// `name` line. Unless the text says otherwise, each runs the paper's
/// three schemes on its testbed (100 nodes, 1125 s, pause 600) over
/// seeds 1–5 with common pairing.
const PRESET_SPECS: [(&str, &str); 11] = [
    // Fig. 5's four panels, with per-node curves. Fig. 9 plots the
    // per-node role numbers of the pause-600 cells against their energy.
    ("fig5", "rates 0.4,2.0\npauses 600,1125\nper-node true\n"),
    // One grid, three figures: variance; energy, PDR and EPB; delay and
    // overhead. Table 1 reads fig7's rate 0.4 and 2.0 cells at pause 600.
    ("fig6", GRID),
    ("fig7", GRID),
    ("fig8", GRID),
    // Not a figure: what the protocol does as the `rcast bench --large`
    // field fills from 300 to 1200 nodes, with a short pause so the
    // population mixes.
    (
        "scale",
        "schemes rcast\nnodes 300,600,1200\npauses 60\nseeds 1..3\n\
         area 7200 720\nduration 240\nflows 30\n",
    ),
    // Rcast's decision factors (Section 3.2); the battery factor needs
    // finite batteries to read.
    (
        "ablation-factors",
        "schemes rcast\nrates 0.4,2.0\n\
         variant factors neighbors\n\
         variant factors neighbors,sender-id\n\
         variant factors neighbors,mobility\n\
         variant factors neighbors,battery; battery 1500\n\
         variant factors neighbors,sender-id,mobility,battery; battery 1500\n",
    ),
    // Randomized receiving of RREQ rebroadcasts (Section 5).
    (
        "ablation-broadcast",
        "schemes rcast\nrates 0.4,2.0\n\
         variant broadcast_p 1\nvariant broadcast_p 0.9\n\
         variant broadcast_p 0.75\nvariant broadcast_p 0.5\n",
    ),
    // DSR route-cache capacity, timeout and strategy (Hu & Johnson).
    (
        "ablation-cache",
        "schemes rcast\nrates 0.4,2.0\n\
         variant cache_capacity 8\nvariant cache_capacity 16\n\
         variant cache_capacity 64\nvariant cache_capacity 256\n\
         variant cache_timeout 30\nvariant cache_timeout 120\n\
         variant cache_strategy link; cache_capacity 128\n\
         variant cache_strategy link; cache_capacity 128; cache_timeout 30\n",
    ),
    // ODPM's keep-alive timeouts around the suggested 5 s / 2 s.
    (
        "ablation-odpm",
        "schemes odpm\nrates 0.4,2.0\n\
         variant odpm_rrep_timeout_ms 1000; odpm_data_timeout_ms 500\n\
         variant odpm_rrep_timeout_ms 2000; odpm_data_timeout_ms 1000\n\
         variant odpm_rrep_timeout_ms 5000; odpm_data_timeout_ms 2000\n\
         variant odpm_rrep_timeout_ms 10000; odpm_data_timeout_ms 5000\n\
         variant odpm_rrep_timeout_ms 20000; odpm_data_timeout_ms 10000\n",
    ),
    // Network lifetime: 0.6 × 1125 s × 1.15 W per node, so an
    // always-awake node's battery runs out at 60 % of the run.
    ("lifetime", "rates 0.4,2.0\nbattery 776.25\nmetrics first_depletion_s,depleted\n"),
    // DSR vs AODV under each power-management scheme (Section 1 and
    // its footnote 1: RREQs dominate AODV's overhead).
    (
        "aodv-comparison",
        "schemes 802.11,psm,rcast\nrates 0.4,2.0\n\
         variant routing dsr\nvariant routing aodv\n\
         metrics rreq_tx,rreq_share,hellos\n",
    ),
];

/// A built-in preset, normalized, or `None` for an unknown name. See
/// [`PRESETS`] for the names; the spec text of each is in this module.
pub fn preset(name: &str) -> Option<SweepSpec> {
    let (name, text) = PRESET_SPECS.iter().find(|(n, _)| *n == name)?;
    Some(parse_spec(&format!("name {name}\n{text}")).expect("built-in presets parse"))
}

/// The built-in preset names, for help text and errors.
pub const PRESETS: [&str; PRESET_SPECS.len()] = {
    let mut names = [""; PRESET_SPECS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PRESET_SPECS[i].0;
        i += 1;
    }
    names
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_normalize_and_expand() {
        for name in PRESETS {
            let spec = preset(name).expect(name).normalized().expect(name);
            let cells = spec.expand();
            assert!(!cells.is_empty(), "{name}");
            let expect = spec.schemes.len()
                * spec.rates.len()
                * spec.pauses.len()
                * spec.nodes.len()
                * spec.variants.len();
            assert_eq!(cells.len(), expect, "{name}");
            assert_eq!(spec.total_runs(), expect * spec.seeds.len());
        }
        assert!(preset("fig9").is_none());
        assert!(preset("").is_none());
    }

    #[test]
    fn scale_preset_doubles_nodes_on_the_large_field() {
        let scale = preset("scale").unwrap().normalized().unwrap();
        assert_eq!(scale.schemes, vec![Scheme::Rcast]);
        assert_eq!(scale.nodes, vec![300, 600, 1200]);
        assert_eq!(scale.base.area, Area::new(7200.0, 720.0));
        assert_eq!(scale.base.traffic.flows, 30);
        // 1 scheme × 1 rate × 1 pause × 3 node counts × 1 variant.
        assert_eq!(scale.expand().len(), 3);
        assert_eq!(scale.total_runs(), 9);
        // The smoke transform still collapses it to a cheap grid.
        assert!(scale.smoke().normalized().is_ok());
    }

    #[test]
    fn fig5_carries_per_node_curves_and_fig7_the_grid() {
        let fig5 = preset("fig5").unwrap();
        assert!(fig5.per_node);
        assert_eq!(fig5.rates, vec![0.4, 2.0]);
        assert_eq!(fig5.pauses, vec![600.0, 1125.0]);
        assert_eq!(fig5.normalized().unwrap().expand().len(), 12);
        let fig7 = preset("fig7").unwrap();
        assert!(!fig7.per_node);
        assert_eq!(fig7.rates, vec![0.2, 0.4, 1.0, 2.0]);
        assert_eq!(fig7.pauses, vec![600.0, 1125.0]);
        assert_eq!(fig7.seeds, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn normalization_sorts_and_dedups_every_axis() {
        let mut spec = SweepSpec::paper_default("t");
        spec.schemes = vec![Scheme::Rcast, Scheme::Dot11, Scheme::Rcast];
        spec.rates = vec![2.0, 0.2, 2.0];
        spec.pauses = vec![900.0, 0.0, 900.0];
        spec.nodes = vec![100, 50, 100];
        spec.seeds = vec![9, 1, 9];
        let n = spec.normalized().expect("valid");
        assert_eq!(n.schemes, vec![Scheme::Dot11, Scheme::Rcast]);
        assert_eq!(n.rates, vec![0.2, 2.0]);
        assert_eq!(n.pauses, vec![0.0, 900.0]);
        assert_eq!(n.nodes, vec![50, 100]);
        assert_eq!(n.seeds, vec![1, 9]);
    }

    #[test]
    fn normalization_rejects_bad_axes() {
        let mut spec = SweepSpec::paper_default("t");
        spec.rates = vec![];
        assert!(spec.normalized().is_err(), "empty axis");
        let mut spec = SweepSpec::paper_default("t");
        spec.rates = vec![f64::NAN];
        assert!(spec.normalized().is_err(), "NaN rate");
        let mut spec = SweepSpec::paper_default("t");
        spec.pauses = vec![-1.0];
        assert!(spec.normalized().is_err(), "negative pause");
        let mut spec = SweepSpec::paper_default("t");
        spec.nodes = vec![1];
        assert!(spec.normalized().is_err(), "cell config invalid");
        let mut spec = SweepSpec::paper_default("t");
        spec.name.clear();
        assert!(spec.normalized().is_err(), "empty name");
    }

    #[test]
    fn cell_keys_are_distinct_within_a_matrix() {
        let spec = preset("fig7").unwrap().normalized().unwrap();
        let keys: Vec<String> = spec.expand().iter().map(SweepCell::key).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len());
    }

    #[test]
    fn pairing_modes_differ_and_common_passes_through() {
        let spec = preset("fig7").unwrap();
        let cells = spec.expand();
        assert_eq!(cells[0].run_seed(7, Pairing::Common), 7);
        let a = cells[0].run_seed(7, Pairing::Independent);
        let b = cells[1].run_seed(7, Pairing::Independent);
        assert_ne!(a, 7);
        assert_ne!(a, b, "distinct cells, distinct streams");
        assert_eq!(a, cells[0].run_seed(7, Pairing::Independent), "stable");
    }

    #[test]
    fn cell_config_writes_all_axis_fields() {
        let mut spec = SweepSpec::paper_default("t");
        spec.variants = vec![Variant::default(), Variant::parse("faults crash=0.25").unwrap()];
        let cell = SweepCell {
            scheme: Scheme::Odpm,
            rate_pps: 1.5,
            pause_s: 30.0,
            nodes: 40,
            variant_index: 1,
        };
        let cfg = cell.config(&spec);
        assert_eq!(cfg.scheme, Scheme::Odpm);
        assert_eq!(cfg.traffic.rate_pps, 1.5);
        assert_eq!(cfg.waypoint.pause_secs, 30.0);
        assert_eq!(cfg.nodes, 40);
        assert_eq!(cfg.faults.crash_prob, 0.25);
        assert_eq!(cfg.duration, spec.base.duration, "base survives");
    }

    #[test]
    fn smoke_scales_the_grid_down() {
        let spec = preset("fig7").unwrap().smoke();
        assert_eq!(spec.name, "fig7-smoke");
        assert_eq!(spec.base.duration, SimDuration::from_secs(60));
        assert_eq!(spec.nodes, vec![20]);
        assert_eq!(spec.rates, vec![0.2, 0.4]);
        assert_eq!(spec.seeds, vec![1, 2]);
        // 600/1125 of the 60 s run: the pause keeps its share of the run.
        assert!((spec.pauses[0] - 32.0).abs() < 1e-9, "{}", spec.pauses[0]);
        assert!((spec.pauses[1] - 60.0).abs() < 1e-9);
        assert!(spec.normalized().is_ok());
    }

    #[test]
    fn names_outside_the_artifact_set_are_rejected_with_their_line() {
        for bad in ["my\"grid", "a,b", "../x", "a/b", "..", ".hidden", "gr\u{fc}\u{df}e", "a b"] {
            let err = parse_spec(&format!("schemes rcast\nname {bad}\n")).unwrap_err();
            assert!(err.starts_with("line 2: name"), "{bad}: {err}");
        }
        for good in ["fig7-smoke", "my_grid.v2", "A-1"] {
            assert_eq!(parse_spec(&format!("name {good}")).expect(good).name, good);
        }
    }

    #[test]
    fn spec_files_parse_with_axes_and_base_lines() {
        let spec = parse_spec(
            "# campaign\n\
             name grid\n\
             schemes 802.11,rcast\n\
             rates 2.0,0.2\n\
             pauses 600\n\
             nodes 50\n\
             seeds 1..3,9\n\
             fault-plan none\n\
             fault-plan crash=0.3,downtime=20\n\
             pairing independent\n\
             per-node true\n\
             duration 300\n\
             flows 8\n",
        )
        .expect("valid spec");
        assert_eq!(spec.name, "grid");
        assert_eq!(spec.schemes, vec![Scheme::Dot11, Scheme::Rcast]);
        assert_eq!(spec.rates, vec![0.2, 2.0], "normalized order");
        assert_eq!(spec.seeds, vec![1, 2, 3, 9]);
        assert_eq!(spec.variants.len(), 2);
        assert_eq!(spec.expand()[1].config(&spec).faults.crash_prob, 0.3);
        assert_eq!(spec.pairing, Pairing::Independent);
        assert!(spec.per_node);
        assert_eq!(spec.base.duration, SimDuration::from_secs(300));
        assert_eq!(spec.base.traffic.flows, 8);
    }

    #[test]
    fn spec_defaults_match_paper_default() {
        let spec = parse_spec("name d\n").expect("valid");
        let want = SweepSpec::paper_default("d").normalized().unwrap();
        assert_eq!(spec, want);
    }

    #[test]
    fn singular_axis_keys_are_rejected_with_a_pointer() {
        for (line, plural) in [
            ("scheme rcast", "schemes"),
            ("rate 0.4", "rates"),
            ("pause 600", "pauses"),
            ("seed 1", "seeds"),
            ("faults crash=0.5", "fault-plan"),
        ] {
            let err = parse_spec(line).expect_err(line);
            assert!(err.contains(plural), "{line}: {err}");
            assert!(err.contains("line 1"), "{line}: {err}");
        }
        let err = parse_spec("obs true\n").unwrap_err();
        assert!(err.contains("not sweepable"), "{err}");
    }

    #[test]
    fn malformed_spec_lines_are_errors_with_line_numbers() {
        assert!(parse_spec("schemes span\n").is_err());
        assert!(parse_spec("rates fast\n").is_err());
        assert!(parse_spec("seeds 5..1\n").is_err());
        assert!(parse_spec("seeds one\n").is_err());
        assert!(parse_spec("nodes some\n").is_err());
        assert!(parse_spec("pairing maybe\n").is_err());
        assert!(parse_spec("per-node maybe\n").is_err());
        assert!(parse_spec("fault-plan wat=1\n").is_err());
        assert!(parse_spec("name\n").is_err());
        let err = parse_spec("rates 0.4\nspeed_of_light 3e8\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Unknown base keys surface the scenario parser's message.
        assert!(err.contains("speed_of_light"), "{err}");
    }

    #[test]
    fn seed_ranges_are_capped_before_they_allocate() {
        for line in ["seeds 0..18446744073709551615", "seeds 0..100000", "seeds 1,0..65535"] {
            let err = parse_spec(&format!("name s\n{line}\n")).expect_err(line);
            assert!(err.starts_with("line 2: "), "{line}: {err}");
            assert!(err.contains("65536"), "{line}: {err}");
        }
        let most = parse_spec("seeds 0..65535\n").expect("exactly the cap");
        assert_eq!(most.seeds.len() as u64, MAX_SEEDS);
    }

    #[test]
    fn variant_lines_assign_scenario_keys_and_label_themselves() {
        let spec = parse_spec(
            "schemes rcast\n\
             variant factors neighbors,battery; battery 1500\n\
             variant broadcast_p 0.5\n\
             fault-plan crash=0.30,downtime=20\n\
             variant faults none\n",
        )
        .expect("valid spec");
        let labels: Vec<String> = spec.variants.iter().map(Variant::label).collect();
        assert_eq!(
            labels,
            [
                "factors neighbors,battery; battery 1500",
                "broadcast_p 0.5",
                "crash=0.3,downtime=20,blackouts=0,blackout=20,bursts=0,burst=10,corrupt=0.5,battery=false",
                "none",
            ]
        );
        let configs: Vec<SimConfig> = spec.expand().iter().map(|c| c.config(&spec)).collect();
        assert!(configs[0].factors.battery && configs[0].factors.neighbors);
        assert_eq!(configs[0].battery_capacity_j, Some(1500.0));
        assert_eq!(configs[1].factors.broadcast_probability, 0.5);
        assert_eq!(configs[1].battery_capacity_j, None, "variants do not leak");
        assert_eq!(configs[2].faults.crash_prob, 0.3);
        assert_eq!(Variant::default().label(), "none");
        assert_eq!(Variant::parse("area 800\t 200 ;flows 3").unwrap().label(), "area 800 200; flows 3");
    }

    #[test]
    fn variants_that_change_nothing_new_are_dropped() {
        // `crash=0.3` twice, and the paper's cache capacity, which the
        // base already has.
        let spec = parse_spec(
            "fault-plan crash=0.3\nfault-plan crash=0.30\n\
             variant cache_capacity 64\nvariant cache_capacity 8\n",
        )
        .expect("valid spec");
        assert_eq!(spec.variants.len(), 3);
        assert_eq!(spec.variants[2].label(), "cache_capacity 8");
        // A plan that injects nothing still differs from the healthy one.
        let spec = parse_spec("fault-plan none\nfault-plan downtime=20\n").unwrap();
        assert_eq!(spec.variants.len(), 2);
        assert_eq!(spec.variants[1].label(), "none");
    }

    #[test]
    fn malformed_variants_and_metrics_name_their_line() {
        for (line, needle) in [
            ("variant scheme odpm", "schemes"),
            ("variant nodes 50", "nodes"),
            ("variant seed 3", "seeds"),
            ("variant obs true", "not sweepable"),
            ("variant broadcast_p 0.5;", "empty assignment"),
            ("variant", "empty assignment"),
            ("variant speed_of_light 3e8", "speed_of_light"),
            ("variant cache_strategy tree", "cache_strategy"),
            ("fault-plan wat=1", "wat"),
            ("metrics goodput", "goodput"),
            ("metrics", "metrics"),
        ] {
            let err = parse_spec(&format!("name m\n{line}\n")).expect_err(line);
            assert!(err.starts_with("line 2: ") && err.contains(needle), "{line}: {err}");
        }
        // A value only the whole cell rejects names the end of the spec.
        let err = parse_spec("variant cache_capacity 0\n").unwrap_err();
        assert!(err.starts_with("line 1 (end of spec): "), "{err}");
    }

    #[test]
    fn metrics_lines_normalize_to_the_table_order() {
        let spec = parse_spec("metrics depleted,rreq_tx, depleted\n").unwrap();
        assert_eq!(spec.metrics, ["rreq_tx", "depleted"]);
        let mut bad = SweepSpec::paper_default("t");
        bad.metrics = vec!["goodput"];
        assert!(bad.normalized().unwrap_err().contains("goodput"));
    }

    #[test]
    fn experiment_presets_hold_their_variant_lists() {
        let labels = |name: &str| -> Vec<String> {
            preset(name).expect(name).variants.iter().map(Variant::label).collect()
        };
        assert_eq!(
            labels("ablation-factors")[3],
            "factors neighbors,battery; battery 1500"
        );
        assert_eq!(labels("ablation-broadcast").len(), 4);
        assert_eq!(labels("ablation-cache").len(), 8);
        assert_eq!(labels("ablation-odpm").len(), 5);
        assert_eq!(labels("aodv-comparison"), ["routing dsr", "routing aodv"]);
        let lifetime = preset("lifetime").unwrap();
        // 0.6 × 1125 s × 1.15 W, written out exactly.
        assert_eq!(lifetime.base.battery_capacity_j, Some(776.25));
        assert!((776.25 - 0.6 * 1125.0 * 1.15_f64).abs() < 1e-9);
        assert_eq!(lifetime.metrics, ["first_depletion_s", "depleted"]);
        let aodv = preset("aodv-comparison").unwrap();
        assert_eq!(aodv.metrics, ["rreq_tx", "rreq_share", "hellos"]);
        assert_eq!(aodv.expand().len(), 3 * 2 * 2);
        for name in PRESETS {
            assert_eq!(preset(name).unwrap().name, name);
        }
    }
}
