//! Golden-artifact conformance for the sweep campaign engine.
//!
//! The `rcast-sweep/v1` artifacts for the pinned `fig7 --smoke` and
//! `aodv-comparison --smoke` grids are checked in under `tests/golden/`
//! and must be **byte-identical** at every thread width. Any
//! intentional engine change that moves a number shows up here as a
//! reviewable golden diff; an unintentional one fails CI. `ci.sh`
//! additionally diffs the binary's `--out` files against the same
//! goldens.

use randomcast::sweep::{preset, run_spec, to_csv, to_json};

const GOLDEN_JSON: &str = include_str!("golden/fig7-smoke.json");
const GOLDEN_CSV: &str = include_str!("golden/fig7-smoke.csv");
const REGEN_HINT: &str =
    "regenerate with: cargo test --release --test sweep_determinism -- --ignored";

/// The pinned presets and their golden `(JSON, CSV)` artifacts.
/// `aodv-comparison` runs the same cells under DSR and AODV, so it pins
/// both routing engines' send buffers and ring searches.
const GOLDENS: [(&str, &str, &str); 2] = [
    ("fig7", GOLDEN_JSON, GOLDEN_CSV),
    (
        "aodv-comparison",
        include_str!("golden/aodv-comparison-smoke.json"),
        include_str!("golden/aodv-comparison-smoke.csv"),
    ),
];

fn artifacts(name: &str, threads: usize) -> (String, String) {
    let spec = preset(name).expect("built-in preset").smoke();
    let report = run_spec(&spec, threads).expect("the smoke grid runs");
    (to_json(&report), to_csv(&report))
}

/// The contract the artifact schema exists for: same spec, same seeds
/// → same bytes, no matter how the work-stealing pool interleaves the
/// 24 runs. Widths 1 (serial reference), 2 (minimal stealing), and 8
/// (more workers than some axes have cells) all reproduce the goldens.
#[test]
fn artifacts_match_the_goldens_at_every_thread_width() {
    for (name, golden_json, golden_csv) in GOLDENS {
        for threads in [1, 2, 8] {
            let (json, csv) = artifacts(name, threads);
            assert!(
                json == golden_json,
                "JSON drifted from tests/golden/{name}-smoke.json at {threads} thread(s); \
                 {REGEN_HINT}"
            );
            assert!(
                csv == golden_csv,
                "CSV drifted from tests/golden/{name}-smoke.csv at {threads} thread(s); \
                 {REGEN_HINT}"
            );
        }
    }
}

/// The goldens themselves stay well-formed: pinned schema tag, one CSV
/// row per cell, and no environment-dependent fields (nothing about
/// threads, timing, or dates may ever leak into an artifact).
#[test]
fn goldens_are_schema_tagged_and_environment_free() {
    assert!(GOLDEN_JSON.starts_with("{\n  \"schema\": \"rcast-sweep/v1\","));
    assert!(GOLDEN_JSON.ends_with("}\n"));
    for banned in ["thread", "wall", "time\"", "date", "duration_wall"] {
        assert!(
            !GOLDEN_JSON.contains(banned),
            "artifact leaks execution environment: {banned}"
        );
    }
    // Header + 12 cells (3 schemes x 2 rates x 2 pauses) + trailing \n.
    assert_eq!(GOLDEN_CSV.lines().count(), 13);
    assert!(GOLDEN_CSV.ends_with('\n'));
    let header = GOLDEN_CSV.lines().next().expect("header row");
    assert_eq!(header.split(',').count(), 25);
}

/// Rewrites the goldens from the current engine. Kept `#[ignore]`d so
/// it only runs on request, after a deliberate behavior change:
///
/// ```sh
/// cargo test --release --test sweep_determinism -- --ignored
/// ```
#[test]
#[ignore = "regenerates tests/golden/<preset>-smoke.{json,csv} from the current engine"]
fn regenerate_golden_artifacts() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, _, _) in GOLDENS {
        let (json, csv) = artifacts(name, 8);
        std::fs::write(dir.join(format!("{name}-smoke.json")), json).expect("write golden JSON");
        std::fs::write(dir.join(format!("{name}-smoke.csv")), csv).expect("write golden CSV");
    }
}
