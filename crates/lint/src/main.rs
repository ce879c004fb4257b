//! The standalone `rcast-lint` binary.
//!
//! ```sh
//! cargo run -p rcast-lint              # lint the enclosing workspace
//! cargo run -p rcast-lint -- --json    # machine-readable report
//! cargo run -p rcast-lint -- --sarif   # SARIF 2.1.0 for CI annotation
//! cargo run -p rcast-lint -- --baseline lint.baseline
//! cargo run -p rcast-lint -- --root /path/to/workspace
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error. Every
//! completed pass ends with a `rcast-lint: wall time <n> ms` line on
//! stderr.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rcast_lint::{
    apply_baseline, find_workspace_root, lint_workspace, parse_baseline, render_json,
    render_sarif, render_text, RULES,
};

const USAGE: &str = "\
rcast-lint — determinism & hygiene static analyzer for the RandomCast workspace

USAGE:
    rcast-lint [--root <dir>] [--json | --sarif] [--baseline <file>]
    rcast-lint --rules
    rcast-lint --help

OPTIONS:
    --root <dir>       workspace root to lint [nearest [workspace] Cargo.toml]
    --json             machine-readable report (stable ordering)
    --sarif            SARIF 2.1.0 report (stable ordering)
    --baseline <file>  suppression file (`RULE path` per line); stale
                       entries are reported on stderr
    --rules            list the rule ids and what they protect
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut sarif = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match it.next() {
                Some(file) => baseline_path = Some(PathBuf::from(file)),
                None => {
                    eprintln!("error: --baseline needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--rules" => {
                for (id, what) in RULES {
                    println!("{id}  {what}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown option '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if json && sarif {
        eprintln!("error: --json and --sarif are mutually exclusive\n{USAGE}");
        return ExitCode::from(2);
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let baseline = match &baseline_path {
        None => Vec::new(),
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read baseline {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            };
            match parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let started = Instant::now();
    match lint_workspace(&root) {
        Ok(findings) => {
            let (findings, stale) = apply_baseline(findings, &baseline);
            for s in &stale {
                eprintln!(
                    "rcast-lint: stale baseline entry `{} {}` matched nothing — delete it",
                    s.rule, s.path
                );
            }
            if json {
                print!("{}", render_json(&findings));
            } else if sarif {
                print!("{}", render_sarif(&findings));
            } else {
                print!("{}", render_text(&findings));
                if findings.is_empty() {
                    eprintln!("rcast-lint: clean ({})", root.display());
                } else {
                    eprintln!("rcast-lint: {} finding(s)", findings.len());
                }
            }
            eprintln!("rcast-lint: wall time {} ms", started.elapsed().as_millis());
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
