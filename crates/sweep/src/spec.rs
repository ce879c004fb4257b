//! Declarative campaign specs and their expansion into a run matrix.
//!
//! A [`SweepSpec`] names the axes of one figure-style experiment grid —
//! schemes × packet rates × pause times × node counts × fault plans —
//! plus the seed list averaged per cell and a base configuration for
//! everything the grid does not sweep. [`SweepSpec::expand`] turns it
//! into the canonical, duplicate-free list of [`SweepCell`]s the
//! runner executes.
//!
//! Specs are **normalized** before use: every sortable axis is sorted
//! and deduplicated, so the expansion (and therefore the artifact) is
//! independent of the order axis values were written in — permuting a
//! spec file's `rates 2.0,0.2` line cannot reorder the artifact.

use rcast_core::{parse_scenario, Area, FaultsConfig, Scheme, SimConfig};
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

/// A declarative sweep campaign. See the [module docs](self).
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
    /// Fault-plan axis; `FaultsConfig::default()` is the healthy cell.
    pub faults: Vec<FaultsConfig>,
    /// Seeds averaged per cell.
    pub seeds: Vec<u64>,
    /// Seed pairing across cells.
    pub pairing: Pairing,
    /// When `true`, each cell's artifact row carries the seed-averaged
    /// sorted per-node energy curve (Fig. 5's raw material).
    pub per_node: bool,
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
    /// Index into [`SweepSpec::faults`].
    pub fault_index: usize,
}

impl SweepCell {
    /// A stable identity string for the cell: distinct cells in one
    /// matrix always have distinct keys (floats render with Rust's
    /// shortest-round-trip `Display`, so distinct values never print
    /// alike).
    pub fn key(&self) -> String {
        format!(
            "{}/r{}/p{}/n{}/f{}",
            self.scheme.label(),
            self.rate_pps,
            self.pause_s,
            self.nodes,
            self.fault_index
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
    /// axis values written in (seed still to be set per run).
    pub fn config(&self, spec: &SweepSpec) -> SimConfig {
        let mut cfg = spec.base.clone();
        cfg.scheme = self.scheme;
        cfg.traffic.rate_pps = self.rate_pps;
        cfg.waypoint.pause_secs = self.pause_s;
        cfg.nodes = self.nodes;
        cfg.faults = spec.faults[self.fault_index].clone();
        cfg
    }
}

impl SweepSpec {
    /// The paper's default campaign scaffold: `Scheme::PAPER_FIGURES`
    /// at the nominal rate/pause on the Section 4.1 testbed, five
    /// seeds, no faults. Presets and spec files start from this.
    pub fn paper_default(name: &str) -> SweepSpec {
        SweepSpec {
            name: name.to_string(),
            base: SimConfig::paper(Scheme::Rcast, 0, 0.4, 600.0),
            schemes: Scheme::PAPER_FIGURES.to_vec(),
            rates: vec![0.4],
            pauses: vec![600.0],
            nodes: vec![100],
            faults: vec![FaultsConfig::default()],
            seeds: (1..=5).collect(),
            pairing: Pairing::Common,
            per_node: false,
        }
    }

    /// Normalizes and validates the spec: sortable axes are sorted and
    /// deduplicated (schemes by paper order, rates/pauses/nodes/seeds
    /// ascending), the fault axis is deduplicated preserving order, and
    /// every resulting cell's configuration must validate.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: an empty axis or seed
    /// list, a non-finite axis value, a scripted fault plan (those have
    /// no spec syntax and cannot be archived in an artifact), or a
    /// per-cell configuration error.
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
            ("fault plans", spec.faults.len()),
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
        for f in &spec.faults {
            if !f.script.is_empty() {
                return Err("sweep: scripted fault plans cannot be swept \
                            (no spec syntax to archive them)"
                    .into());
            }
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
        let mut deduped: Vec<FaultsConfig> = Vec::new();
        for f in spec.faults {
            if !deduped.contains(&f) {
                deduped.push(f);
            }
        }
        spec.faults = deduped;
        for cell in spec.expand() {
            cell.config(&spec)
                .validate()
                .map_err(|e| format!("sweep: cell {}: {e}", cell.key()))?;
        }
        Ok(spec)
    }

    /// Expands the (normalized) spec into its run matrix, scheme-major:
    /// scheme, then rate, pause, node count, fault plan. The expansion
    /// of a normalized spec is canonical — axis input order cannot
    /// change it — and duplicate-free.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(
            self.schemes.len() * self.rates.len() * self.pauses.len()
                * self.nodes.len()
                * self.faults.len(),
        );
        for &scheme in &self.schemes {
            for &rate_pps in &self.rates {
                for &pause_s in &self.pauses {
                    for &nodes in &self.nodes {
                        for fault_index in 0..self.faults.len() {
                            cells.push(SweepCell {
                                scheme,
                                rate_pps,
                                pause_s,
                                nodes,
                                fault_index,
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
/// to its `--schemes`/`--rates`/`--seeds` flags.
pub const AXIS_KEYS: [(&str, &str); 6] = [
    ("scheme", "schemes"),
    ("rate", "rates"),
    ("pause", "pauses"),
    ("nodes", "nodes"),
    ("seed", "seeds"),
    ("faults", "fault-plan"),
];

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
/// lists and inclusive `A..B` ranges. Each `fault-plan` line appends
/// one axis value (`none` for the healthy plan).
///
/// # Errors
///
/// Returns a message naming the offending line for unknown or banned
/// keys, malformed values, or a spec that fails [`SweepSpec::normalized`].
pub fn parse_spec(text: &str) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::paper_default("sweep");
    let mut base_lines = String::new();
    let mut faults: Vec<FaultsConfig> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            base_lines.push('\n');
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let (key, value) = match line.split_once(char::is_whitespace) {
            Some((k, v)) => (k, v.trim()),
            None => (line, ""),
        };
        let list = |what: &str| -> Result<Vec<&str>, String> {
            if value.is_empty() {
                return Err(at(format!("'{what}' expects a comma list")));
            }
            Ok(value.split(',').map(str::trim).collect())
        };
        match key {
            "name" => {
                if value.is_empty() {
                    return Err(at("'name' expects a value".into()));
                }
                spec.name = value.to_string();
            }
            "schemes" => {
                spec.schemes = list("schemes")?
                    .into_iter()
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(at)?;
            }
            "rates" => {
                spec.rates = list("rates")?
                    .into_iter()
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| at(format!("bad rate '{v}'")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "pauses" => {
                spec.pauses = list("pauses")?
                    .into_iter()
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| at(format!("bad pause '{v}'")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "nodes" => {
                spec.nodes = list("nodes")?
                    .into_iter()
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| at(format!("bad node count '{v}'")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "seeds" => {
                let mut seeds = Vec::new();
                for part in list("seeds")? {
                    if let Some((lo, hi)) = part.split_once("..") {
                        let lo: u64 = lo
                            .parse()
                            .map_err(|_| at(format!("bad seed range '{part}'")))?;
                        let hi: u64 = hi
                            .parse()
                            .map_err(|_| at(format!("bad seed range '{part}'")))?;
                        if lo > hi {
                            return Err(at(format!(
                                "seed range '{part}' is empty (A..B is inclusive)"
                            )));
                        }
                        seeds.extend(lo..=hi);
                    } else {
                        seeds.push(
                            part.parse()
                                .map_err(|_| at(format!("bad seed '{part}'")))?,
                        );
                    }
                }
                spec.seeds = seeds;
            }
            "fault-plan" => {
                if value == "none" {
                    faults.push(FaultsConfig::default());
                } else {
                    faults.push(
                        FaultsConfig::parse_spec(value).map_err(at)?,
                    );
                }
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
                };
            }
            "per-node" => {
                spec.per_node = match value {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(at(format!(
                            "per-node expects true/false, got '{other}'"
                        )))
                    }
                };
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
    if !faults.is_empty() {
        spec.faults = faults;
    }
    spec.base = parse_scenario(&base_lines)?;
    // The scenario parser fills axis fields (scheme, rate, pause) with
    // paper defaults; cells overwrite them, so keeping them is harmless.
    // Its seed default is dead state here — runs set their own — so pin
    // it, keeping parsed specs canonical.
    spec.base.seed = 0;
    spec.normalized()
}

/// A built-in figure preset, or `None` for an unknown name.
///
/// * `fig5` — per-node sorted energy curves for the paper's four panels
///   (3 schemes × rates {0.4, 2.0} × pauses {600, 1125}, per-node
///   curves on);
/// * `fig6`/`fig7`/`fig8` — the shared evaluation grid (3 schemes ×
///   4 rates × mobile/static pauses). The three figures plot different
///   columns of the same matrix — variance, energy/PDR/EPB, and
///   delay/overhead respectively — so their artifacts differ only in
///   name; regenerate whichever the figure you are reading names.
///
/// All presets run the paper testbed (100 nodes, 1125 s) over seeds
/// 1–5 with common seed pairing.
pub fn preset(name: &str) -> Option<SweepSpec> {
    match name {
        "fig5" => {
            let mut spec = SweepSpec::paper_default("fig5");
            spec.rates = vec![0.4, 2.0];
            spec.pauses = vec![600.0, 1125.0];
            spec.per_node = true;
            Some(spec)
        }
        "fig6" | "fig7" | "fig8" => {
            let mut spec = SweepSpec::paper_default(name);
            spec.rates = vec![0.2, 0.4, 1.0, 2.0];
            spec.pauses = vec![600.0, 1125.0];
            Some(spec)
        }
        "scale" => {
            // Not a figure: the node-count scaling campaign, companion
            // to `rcast bench --large`. The bench gate tracks simulator
            // wall time per interval at constant density; this campaign
            // tracks what the *protocol* does as the large tier's
            // 7200 × 720 m field fills from 300 to 1200 nodes (energy,
            // PDR, EPB per cell). Rcast only, three seeds, nominal
            // rate, short pause so the population actually mixes.
            let mut spec = SweepSpec::paper_default("scale");
            spec.schemes = vec![Scheme::Rcast];
            spec.nodes = vec![300, 600, 1200];
            spec.pauses = vec![60.0];
            spec.seeds = (1..=3).collect();
            spec.base.area = Area::new(7200.0, 720.0);
            spec.base.duration = SimDuration::from_secs(240);
            spec.base.traffic.flows = 30;
            Some(spec)
        }
        _ => None,
    }
}

/// The built-in preset names, for help text and errors.
pub const PRESETS: [&str; 5] = ["fig5", "fig6", "fig7", "fig8", "scale"];

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
                * spec.faults.len();
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
        // 1 scheme × 1 rate × 1 pause × 3 node counts × 1 fault plan.
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
        spec.faults = vec![FaultsConfig::default(), FaultsConfig {
            crash_prob: 0.25,
            ..FaultsConfig::default()
        }];
        let cell = SweepCell {
            scheme: Scheme::Odpm,
            rate_pps: 1.5,
            pause_s: 30.0,
            nodes: 40,
            fault_index: 1,
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
        // 600/1125 of the 60 s run, like the experiment binaries' quick mode.
        assert!((spec.pauses[0] - 32.0).abs() < 1e-9, "{}", spec.pauses[0]);
        assert!((spec.pauses[1] - 60.0).abs() < 1e-9);
        assert!(spec.normalized().is_ok());
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
        assert_eq!(spec.faults.len(), 2);
        assert_eq!(spec.faults[1].crash_prob, 0.3);
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
}
