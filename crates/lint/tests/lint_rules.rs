//! Fixture-driven tests for every lint rule: each rule must fire on its
//! deliberately-violating fixture, honor its pragma/allowlist escape
//! hatches, and stay quiet on compliant code. The fixtures live under
//! `tests/fixtures/`, which the workspace walker never descends into,
//! so the violations can never leak into the self-lint gate.

use std::path::{Path, PathBuf};

use rcast_lint::{
    check_file, check_sources, find_workspace_root, lint_workspace, render_json, sort_findings,
    FileClass, FileKind, Finding, RULES,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A library file inside a simulation crate — the strictest class.
fn sim_lib() -> FileClass {
    FileClass {
        crate_name: "dsr".to_string(),
        kind: FileKind::Lib,
        is_crate_root: false,
    }
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn d001_fires_on_wall_clock_reads() {
    let findings = check_file("fixture.rs", &fixture("d001_wall_clock.rs"), &sim_lib());
    assert!(!findings.is_empty());
    assert!(rules_of(&findings).iter().all(|r| *r == "D001"));
    // `Instant` in the use and the call; `SystemTime` in signature and body.
    assert_eq!(lines_of(&findings, "D001"), vec![3, 6, 10, 11]);
}

#[test]
fn d001_allowlisted_crates_may_read_the_clock() {
    for name in ["bench", "testkit", "lint"] {
        let class = FileClass {
            crate_name: name.to_string(),
            kind: FileKind::Lib,
            is_crate_root: false,
        };
        let findings = check_file("fixture.rs", &fixture("d001_wall_clock.rs"), &class);
        assert!(
            lines_of(&findings, "D001").is_empty(),
            "D001 must not fire inside allowlisted crate `{name}`"
        );
    }
}

#[test]
fn d002_fires_on_unordered_iteration_and_honors_the_pragma() {
    let findings = check_file("fixture.rs", &fixture("d002_hash_iteration.rs"), &sim_lib());
    assert!(rules_of(&findings).iter().all(|r| *r == "D002"));
    // Line 8: `.keys()` on an annotated parameter. Line 15: `for … in`
    // over an inferred `HashSet` binding. Line 23 carries the
    // `// det: ordered — …` pragma and must stay silent.
    assert_eq!(lines_of(&findings, "D002"), vec![8, 15]);
}

#[test]
fn d002_only_applies_to_simulation_crates() {
    let class = FileClass {
        crate_name: "report".to_string(),
        kind: FileKind::Lib,
        is_crate_root: false,
    };
    let findings = check_file("fixture.rs", &fixture("d002_hash_iteration.rs"), &class);
    assert!(lines_of(&findings, "D002").is_empty());
}

#[test]
fn d003_fires_on_environment_randomness() {
    let findings = check_file(
        "fixture.rs",
        &fixture("d003_environment_randomness.rs"),
        &sim_lib(),
    );
    assert!(rules_of(&findings).iter().all(|r| *r == "D003"));
    // `RandomState` at the use/signature/constructor, `rand::` path.
    assert_eq!(lines_of(&findings, "D003"), vec![3, 5, 6, 10]);
}

#[test]
fn d004_fires_on_unsafe_and_missing_forbid() {
    let class = FileClass {
        crate_name: "dsr".to_string(),
        kind: FileKind::Lib,
        is_crate_root: true,
    };
    let findings = check_file("fixture.rs", &fixture("d004_unsafe.rs"), &class);
    // Missing `#![forbid(unsafe_code)]` reported at 1:1, the `unsafe`
    // token at its own line.
    assert_eq!(lines_of(&findings, "D004"), vec![1, 5]);
    // The same fixture as a crate root also lacks `deny(missing_docs)`.
    assert_eq!(lines_of(&findings, "H002"), vec![1]);
}

#[test]
fn d004_non_root_files_only_report_the_unsafe_token() {
    let findings = check_file("fixture.rs", &fixture("d004_unsafe.rs"), &sim_lib());
    assert_eq!(lines_of(&findings, "D004"), vec![5]);
    assert!(lines_of(&findings, "H002").is_empty());
}

#[test]
fn d004_pragma_sanctions_a_global_alloc_shim() {
    let class = FileClass {
        crate_name: "bench".to_string(),
        kind: FileKind::Lib,
        is_crate_root: true,
    };
    let findings = check_file("fixture.rs", &fixture("d004_unsafe_pragma.rs"), &class);
    // The pragma'd `deny(unsafe_code)` satisfies the crate-root check
    // and the covered `unsafe` tokens stay silent; only the bare
    // `unsafe fn` on line 9 fires.
    assert_eq!(lines_of(&findings, "D004"), vec![9]);
    assert!(lines_of(&findings, "H002").is_empty());
}

#[test]
fn d005_fires_on_printing_from_library_code() {
    let findings = check_file("fixture.rs", &fixture("d005_print.rs"), &sim_lib());
    assert_eq!(lines_of(&findings, "D005"), vec![4, 5]);
}

#[test]
fn d005_binaries_may_print() {
    let class = FileClass {
        crate_name: "dsr".to_string(),
        kind: FileKind::Bin,
        is_crate_root: false,
    };
    let findings = check_file("fixture.rs", &fixture("d005_print.rs"), &class);
    assert!(lines_of(&findings, "D005").is_empty());
}

/// Wraps a single in-memory sim-library source for [`check_sources`].
fn sim_sources(source: &str) -> Vec<(String, String)> {
    vec![("crates/core/src/sim.rs".to_string(), source.to_string())]
}

#[test]
fn d007_flags_allocations_transitively_reachable_from_entry_points() {
    let src = "\
pub struct Sim { buf: Vec<u32> }
impl Sim {
    pub fn step_interval(&mut self) {
        self.dispatch();
    }
    fn dispatch(&mut self) {
        let _ = self.buf.clone();
        let _scratch: Vec<u32> = Vec::new();
    }
}
fn cold_setup() -> Vec<u32> {
    vec![1].to_vec()
}
";
    let findings = check_sources(&sim_sources(src));
    // Both sites inside `dispatch` (reached via step_interval) fire;
    // `cold_setup` is unreachable and stays silent.
    assert_eq!(lines_of(&findings, "D007"), vec![7, 8]);
    assert!(findings
        .iter()
        .filter(|f| f.rule == "D007")
        .all(|f| f.message.contains("step_interval → dispatch")));
}

#[test]
fn d007_honors_site_and_fn_level_pragmas_and_the_cold_boundary() {
    let src = "\
impl Sim {
    pub fn step_interval(&mut self) {
        self.audited();
        self.handler();
        self.construct();
    }
    fn audited(&mut self) {
        // det: hot-ok — scratch rebuilt only on topology changes
        let _ = self.buf.clone();
        let _ = self.buf.to_vec();
    }
    // det: hot-ok — event-path handler, quiescent in steady state
    fn handler(&mut self) {
        let _ = self.buf.clone();
    }
    // det: cold — construction helper, runs before the interval loop
    fn construct(&mut self) {
        let _ = self.buf.clone();
        self.deep();
    }
    fn deep(&mut self) {
        let _ = self.buf.clone();
    }
}
";
    let findings = check_sources(&sim_sources(src));
    // Line 9 is covered by the site pragma; line 10 is not. The
    // fn-level pragma silences all of `handler`. The cold boundary cuts
    // `construct` AND everything only reachable through it (`deep`).
    assert_eq!(lines_of(&findings, "D007"), vec![10]);
}

#[test]
fn d007_does_not_scan_unreachable_or_non_sim_code() {
    let sources = vec![
        (
            "crates/report/src/lib.rs".to_string(),
            "pub fn step_interval() { let _ = vec![1].clone(); }\n".to_string(),
        ),
        (
            "crates/core/src/bin/tool.rs".to_string(),
            "fn step_interval() { let _ = vec![1].clone(); }\n".to_string(),
        ),
    ];
    let findings = check_sources(&sources);
    assert!(lines_of(&findings, "D007").is_empty());
}

#[test]
fn d008_fires_on_captured_shared_state_and_honors_the_pragma() {
    let findings = check_file("fixture.rs", &fixture("d008_parallel_closure.rs"), &sim_lib());
    // Line 8: atomic RMW on a captured counter. Line 10: shared-state
    // type constructed in the closure. Line 12: unordered-map iteration
    // (its `det: ordered` escapes D002 but not D008). Line 21: lock
    // acquisition inside `map_grid`. Line 28: atomic RMW inside
    // `map_shards`. The iterator `map` in `fine` and the `shared-ok`
    // site in `excused` stay silent.
    assert_eq!(lines_of(&findings, "D008"), vec![8, 10, 12, 21, 28]);
    assert!(lines_of(&findings, "D002").is_empty());
}

#[test]
fn d008_only_applies_to_simulation_crates() {
    let class = FileClass {
        crate_name: "report".to_string(),
        kind: FileKind::Lib,
        is_crate_root: false,
    };
    let findings = check_file("fixture.rs", &fixture("d008_parallel_closure.rs"), &class);
    assert!(lines_of(&findings, "D008").is_empty());
}

#[test]
fn d009_fires_on_unordered_float_accumulation_and_honors_the_pragma() {
    let findings = check_file("fixture.rs", &fixture("d009_float_reduction.rs"), &sim_lib());
    // Line 8: `.sum()` over a HashMap chain. Line 14: `+=` inside a
    // `for` over a HashMap. Line 22: captured accumulator across the
    // pool seam. Slice-ordered, let-bound-local and pragma'd
    // reductions stay silent.
    assert_eq!(lines_of(&findings, "D009"), vec![8, 14, 22]);
    // D002 still fires on the raw hash iterations (lines 8, 13); the
    // `excused` fn carries both pragmas.
    assert_eq!(lines_of(&findings, "D002"), vec![8, 13]);
}

#[test]
fn lexer_hides_rule_names_inside_byte_and_raw_byte_strings() {
    let source = fixture("lexer_byte_strings.rs");
    let findings = check_file("fixture.rs", &source, &sim_lib());
    assert!(
        findings.is_empty(),
        "names inside byte/raw-byte/C strings must not trip rules, got: {findings:?}"
    );
    // The literals lex as single Str tokens, never identifier + string.
    let tokens = rcast_lint::lexer::lex(&source);
    let strings: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == rcast_lint::lexer::TokenKind::Str)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(
        strings,
        [
            "Instant SystemTime",
            // Non-raw token text keeps the escape sequences verbatim.
            "quote \\\" and backslash \\\\",
            "HashMap iteration \" with quotes",
            "thread_rng",
            "RandomState",
            "nested \"# hash guards",
        ]
    );
    assert!(
        !tokens.iter().any(|t| {
            t.kind == rcast_lint::lexer::TokenKind::Ident
                && matches!(t.text.as_str(), "b" | "br" | "c")
        }),
        "byte-string prefixes must not leak as identifiers"
    );
}

#[test]
fn h001_fires_on_bare_ignore_but_not_reasoned_ignore() {
    let findings = check_file("fixture.rs", &fixture("h001_ignore.rs"), &sim_lib());
    assert_eq!(lines_of(&findings, "H001"), vec![5]);
}

#[test]
fn clean_fixture_produces_no_findings() {
    let findings = check_file("fixture.rs", &fixture("clean.rs"), &sim_lib());
    assert!(
        findings.is_empty(),
        "clean fixture must lint clean, got: {findings:?}"
    );
}

#[test]
fn json_output_matches_golden() {
    let mut findings = vec![
        Finding {
            path: "crates/dsr/src/node.rs".to_string(),
            line: 10,
            col: 5,
            rule: "D002",
            message: "iteration of `m` without pragma".to_string(),
        },
        Finding {
            path: "crates/core/src/sim.rs".to_string(),
            line: 3,
            col: 1,
            rule: "D001",
            message: "wall-clock `Instant` with a \"quote\"".to_string(),
        },
    ];
    sort_findings(&mut findings);
    let golden = concat!(
        "{\n",
        "  \"version\": 1,\n",
        "  \"findings\": [\n",
        "    {\"path\": \"crates/core/src/sim.rs\", \"line\": 3, \"col\": 1, ",
        "\"rule\": \"D001\", \"message\": \"wall-clock `Instant` with a \\\"quote\\\"\"},\n",
        "    {\"path\": \"crates/dsr/src/node.rs\", \"line\": 10, \"col\": 5, ",
        "\"rule\": \"D002\", \"message\": \"iteration of `m` without pragma\"}\n",
        "  ],\n",
        "  \"count\": 2\n",
        "}\n",
    );
    assert_eq!(render_json(&findings), golden);
}

#[test]
fn report_ordering_is_stable() {
    let mk = |path: &str, line: u32, col: u32, rule: &'static str| Finding {
        path: path.to_string(),
        line,
        col,
        rule,
        message: String::new(),
    };
    let mut findings = vec![
        mk("b.rs", 1, 1, "D001"),
        mk("a.rs", 9, 2, "D005"),
        mk("a.rs", 9, 2, "D002"),
        mk("a.rs", 2, 7, "H001"),
    ];
    sort_findings(&mut findings);
    let keys: Vec<_> = findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.col, f.rule))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("a.rs", 2, 7, "H001"),
            ("a.rs", 9, 2, "D002"),
            ("a.rs", 9, 2, "D005"),
            ("b.rs", 1, 1, "D001"),
        ]
    );
}

#[test]
fn every_documented_rule_has_fixture_coverage() {
    // Keep this list in sync with the tests above: adding a rule to
    // RULES without a fixture exercising it fails here.
    let covered = [
        "D001", "D002", "D003", "D004", "D005", "D007", "D008", "D009", "H001", "H002",
    ];
    for (rule, _) in RULES {
        assert!(
            covered.contains(rule),
            "rule {rule} has no fixture test exercising it"
        );
    }
}

#[test]
fn the_workspace_itself_lints_clean_with_zero_baseline_entries() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&manifest).expect("workspace root above crates/lint");
    let findings = lint_workspace(&root).expect("lint the real tree");
    assert!(
        findings.is_empty(),
        "the workspace must self-lint clean under D001–D009/H001–H002 \
         with no baseline, got:\n{}",
        rcast_lint::render_text(&findings)
    );
    // The baseline mechanism exists for incremental adoption elsewhere;
    // this tree carries zero suppressions.
    let baseline = root.join("lint.baseline");
    if baseline.exists() {
        let text = std::fs::read_to_string(&baseline).expect("read lint.baseline");
        let entries = rcast_lint::parse_baseline(&text).expect("well-formed baseline");
        assert!(
            entries.is_empty(),
            "lint.baseline must stay empty, found {} entries",
            entries.len()
        );
    }
}
