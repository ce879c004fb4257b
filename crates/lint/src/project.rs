//! Workspace discovery and file classification.
//!
//! Rules fire (or not) depending on *where* a file sits: the simulation
//! crates carry the strictest determinism rules, the report/CLI layers
//! are allowed to print, and the bench/testkit crates may read the wall
//! clock. This module turns a path relative to the workspace root into
//! that classification, and walks the tree collecting every `.rs` file
//! in a deterministic (sorted) order.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The crates whose state feeds simulation results: everything here
/// must be a pure function of `(config, seed)`, so the determinism
/// rules (D002, D005) apply in full.
pub const SIM_CRATES: &[&str] = &[
    "aodv", "core", "dsr", "engine", "mac", "metrics", "mobility", "obs", "radio", "sweep",
    "traffic",
];

/// Crates allowed to read the wall clock (D001): the timing harness and
/// the property-test harness (which reports elapsed time per check).
pub const WALL_CLOCK_ALLOWED: &[&str] = &["bench", "testkit"];

/// Directory names never descended into. `fixtures` holds the linter's
/// own deliberately-violating test inputs.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", ".claude"];

/// Which target a file belongs to within its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/**`, minus binaries).
    Lib,
    /// A binary (`src/main.rs`, `src/bin/**`).
    Bin,
    /// An integration test (`tests/**`).
    Test,
    /// A bench target (`benches/**`).
    Bench,
    /// An example (`examples/**`).
    Example,
    /// `build.rs` or anything else.
    Other,
}

/// Where a file sits in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// The owning crate's short name (`dsr`, `bench`, … or `randomcast`
    /// for the workspace-root facade crate).
    pub crate_name: String,
    /// The target kind within that crate.
    pub kind: FileKind,
    /// `true` for the crate's library root (`src/lib.rs`), where the
    /// crate-level attribute rules (D004's `forbid(unsafe_code)`, H002)
    /// are checked.
    pub is_crate_root: bool,
}

impl FileClass {
    /// `true` when the crate is one of the simulation crates.
    pub fn is_sim_crate(&self) -> bool {
        SIM_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Classifies `rel`, a `/`-separated path relative to the workspace
/// root (e.g. `crates/dsr/src/node.rs` or `src/cli.rs`).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", name, rest @ ..] => ((*name).to_string(), rest),
        rest => ("randomcast".to_string(), rest),
    };
    let kind = match rest {
        ["src", "main.rs"] | ["src", "bin", ..] => FileKind::Bin,
        ["src", ..] => FileKind::Lib,
        ["tests", ..] => FileKind::Test,
        ["benches", ..] => FileKind::Bench,
        ["examples", ..] => FileKind::Example,
        _ => FileKind::Other,
    };
    FileClass {
        crate_name,
        kind,
        is_crate_root: rest == ["src", "lib.rs"],
    }
}

/// Walks `root` and returns every `.rs` file as a workspace-relative,
/// `/`-separated path, sorted. Skips [`SKIP_DIRS`] and hidden entries,
/// so the linter's fixture corpus and build artifacts are never linted.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths sit under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` looking for a
/// `Cargo.toml` containing a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        let c = classify("crates/dsr/src/node.rs");
        assert_eq!(c.crate_name, "dsr");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(!c.is_crate_root);
        assert!(c.is_sim_crate());

        let root = classify("crates/engine/src/lib.rs");
        assert!(root.is_crate_root);

        assert_eq!(classify("crates/bench/src/bin/fig9.rs").kind, FileKind::Bin);
        assert_eq!(classify("crates/mac/tests/properties.rs").kind, FileKind::Test);
        assert_eq!(classify("crates/bench/benches/simulator.rs").kind, FileKind::Bench);

        let facade = classify("src/lib.rs");
        assert_eq!(facade.crate_name, "randomcast");
        assert!(facade.is_crate_root);
        assert!(!facade.is_sim_crate());
        assert_eq!(classify("src/bin/rcast.rs").kind, FileKind::Bin);
        assert_eq!(classify("examples/quickstart.rs").kind, FileKind::Example);
    }
}
