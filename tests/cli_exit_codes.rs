//! End-to-end exit-code and stream contracts for the `rcast` binary.
//!
//! Scripts and CI wrap this binary, so the contract is part of the
//! public surface: success exits 0, every failure exits non-zero with a
//! single-line diagnostic on **stderr** that starts with `error`, and
//! machine-readable output (JSON, CSV) goes to stdout only.

use std::process::{Command, Output};

fn rcast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rcast"))
        .args(args)
        .output()
        .expect("spawn rcast")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_exits_zero_and_prints_the_usage_golden() {
    let out = rcast(&["help"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/help.txt"),
        "help output drifted from tests/golden/help.txt"
    );
    assert!(out.stderr.is_empty());
}

#[test]
fn unknown_subcommands_and_flags_fail_with_a_diagnostic() {
    for args in [
        &["frobnicate"][..],
        &["run", "--bogus"][..],
        &["sweep"][..],                      // missing required --spec
        &["sweep", "--spec"][..],            // dangling value
        &["sweep", "--spec", "fig7", "--threads", "0"][..],
        &["run", "--nodes", "not-a-number"][..],
    ] {
        let out = rcast(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        assert!(
            stderr(&out).starts_with("error"),
            "{args:?}: stderr was {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn sweep_rejects_a_spec_that_is_neither_preset_nor_file() {
    let out = rcast(&["sweep", "--spec", "no-such-spec-anywhere"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    // The diagnostic must list the presets so the misspelling is fixable.
    assert!(err.contains("fig5") && err.contains("fig8"), "stderr: {err}");
}

#[test]
fn sweep_reports_spec_file_errors_with_line_numbers() {
    let dir = std::env::temp_dir().join("rcast-cli-exit-codes");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("bad.sweep");
    std::fs::write(&path, "schemes rcast\nrate 0.4\n").expect("write spec");
    let out = rcast(&["sweep", "--spec", path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    // `rate` is the banned singular form; the parser points at line 2.
    assert!(err.contains("line 2") && err.contains("rates"), "stderr: {err}");
}

#[test]
fn sweep_rejects_a_name_that_would_write_outside_out() {
    let root = std::env::temp_dir().join("rcast-cli-exit-codes").join("escape");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("tmp dir");
    let spec = root.join("escape.sweep");
    std::fs::write(
        &spec,
        "name ../x\nschemes rcast\nrates 0.4\npauses 0\nnodes 10\nseeds 1\nduration 5\nflows 1\n",
    )
    .expect("write spec");
    let out_dir = root.join("out");
    let out = rcast(&[
        "sweep",
        "--spec",
        spec.to_str().expect("utf-8 path"),
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(!out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("line 1") && err.contains("name"), "stderr: {err}");
    for artifact in ["x.json", "x.csv"] {
        assert!(!root.join(artifact).exists(), "{artifact} escaped --out");
    }
}

/// Writes a one-file throwaway workspace under the temp dir and returns
/// its root. `name` keeps concurrent tests out of each other's trees.
fn scratch_workspace(name: &str, source: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join("rcast-cli-exit-codes").join(name);
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("tmp workspace dirs");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(src.join("sim.rs"), source).expect("source");
    root
}

#[test]
fn lint_exits_zero_on_a_clean_tree() {
    let root = scratch_workspace("clean", "fn quiet() {}\n");
    let out = rcast(&["lint", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("clean"));
}

#[test]
fn lint_exits_one_on_findings() {
    let root = scratch_workspace(
        "dirty",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let out = rcast(&["lint", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("D001"), "stdout: {text}");
}

#[test]
fn lint_reserves_exit_two_for_usage_and_io_errors() {
    // Usage error: the two machine formats are exclusive.
    let out = rcast(&["lint", "--json", "--sarif"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error"));
    // I/O error: baseline file that does not exist.
    let root = scratch_workspace("io", "fn quiet() {}\n");
    let out = rcast(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8"),
        "--baseline",
        "no-such-baseline-anywhere",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn lint_rejects_a_malformed_baseline_with_exit_two() {
    let root = scratch_workspace("badbase", "fn quiet() {}\n");
    let baseline = root.join("lint.baseline");
    std::fs::write(&baseline, "NOT-A-RULE crates/core/src/sim.rs\n").expect("baseline");
    let out = rcast(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8"),
        "--baseline",
        baseline.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error"));
}

#[test]
fn lint_baseline_suppresses_findings_and_reports_stale_entries() {
    let root = scratch_workspace(
        "baseline",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let baseline = root.join("lint.baseline");
    std::fs::write(
        &baseline,
        "# grandfathered until the port lands\n\
         D001 crates/core/src/sim.rs\n\
         D002 crates/core/src/gone.rs\n",
    )
    .expect("baseline");
    let out = rcast(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8"),
        "--baseline",
        baseline.to_str().expect("utf-8"),
    ]);
    // The real finding is suppressed (exit 0); the entry with no match
    // is called out as stale so baselines cannot rot silently.
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("stale"), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("gone.rs"));
}

#[test]
fn lint_sarif_goes_to_stdout_and_validates_shape() {
    let root = scratch_workspace(
        "sarif",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let out = rcast(&["lint", "--sarif", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"$schema\""), "stdout: {sarif}");
    assert!(sarif.contains("\"rcast-lint\""));
    assert!(sarif.contains("\"ruleId\": \"D001\""));
}

#[test]
fn sweep_smoke_succeeds_and_keeps_json_on_stdout() {
    let out = rcast(&["sweep", "--spec", "fig7", "--smoke", "--threads", "2"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with("{\n  \"schema\": \"rcast-sweep/v1\","),
        "stdout must carry the artifact"
    );
    // The human summary stays on stderr, out of the artifact stream.
    assert!(stderr(&out).contains("fig7-smoke"));
}

#[test]
fn a_reader_closing_the_pipe_early_is_a_quiet_exit() {
    use std::io::Read;
    use std::process::Stdio;

    // The full trace is far larger than a pipe buffer, so the binary is
    // still writing when the reader goes away (`rcast trace | head -c 100`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_rcast"))
        .args(["trace", "--seed", "7", "--duration", "30"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rcast");
    let mut head = [0u8; 100];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("read the first bytes");
    assert!(head.starts_with(b"{\"schema\":\"rcast-trace/v1\""));
    // Dropping the handle above closed the read end of the pipe.
    let out = child.wait_with_output().expect("wait for rcast");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "stderr: {err}");
    // Not a panic's 101: the output the reader wanted was delivered.
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
}

#[test]
fn malformed_config_values_fail_with_one_error_line_not_a_panic() {
    let dir = std::env::temp_dir().join("rcast-cli-exit-codes").join("values");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut cases: Vec<Vec<String>> = [
        &["run", "--duration", "inf"][..],
        &["run", "--duration", "-1"][..],
        &["run", "--area", "0x300"][..],
        &["run", "--nodes", "5000000000"][..],
        &["export-scenario", "--seed", "1.5"][..],
    ]
    .iter()
    .map(|a| a.iter().map(|s| s.to_string()).collect())
    .collect();
    for (i, line) in [
        "duration NaN",
        "beacon_interval_ms -5",
        "atim_window_ms inf",
        "area 1500 inf",
        "nodes 2.7",
        "packet_bytes 1e30",
        "duration 1e30",
    ]
    .iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.scn"));
        std::fs::write(&path, format!("{line}\n")).expect("write scenario");
        let path = path.to_str().expect("utf-8 path").to_string();
        cases.push(vec!["scenario".into(), path.clone()]);
        // Spec base lines go through the same scenario keys.
        let spec = dir.join(format!("bad{i}.sweep"));
        std::fs::write(&spec, format!("{line}\n")).expect("write spec");
        cases.push(vec!["sweep".into(), "--spec".into(), spec.to_str().expect("utf-8").into()]);
    }
    for args in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_rcast"))
            .args(args)
            .output()
            .expect("spawn rcast");
        let err = stderr(&out);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(
            err.lines().filter(|l| l.starts_with("error")).count(),
            1,
            "{args:?}: {err}"
        );
    }
}

#[test]
fn the_retired_battery_fault_token_is_an_error_naming_it() {
    // A finite `--battery` now always depletes, so the old opt-in is
    // rejected rather than silently ignored.
    for spec in ["battery=true", "crash=0.3,battery=false"] {
        let out = rcast(&["run", "--nodes", "10", "--duration", "5", "--faults", spec]);
        let err = stderr(&out);
        assert!(!out.status.success(), "{spec}: unexpectedly succeeded");
        assert!(err.starts_with("error") && err.contains("battery"), "{spec}: {err}");
        assert!(out.stdout.is_empty(), "{spec}: ran anyway");
    }
}
