//! Workspace file discovery and path-policy classification.
//!
//! The determinism lints are policy over *where* code lives as much as
//! over what it says: a wall-clock read is a bug in the simulator core
//! and a feature in the perf harness. [`Origin`] encodes that policy
//! once, from the file's workspace-relative path, and the rules consult
//! it instead of re-deriving path logic.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer;

/// Where a file sits in the workspace's determinism policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Library code of a simulator crate (`crates/*/src`, the umbrella
    /// `src/lib.rs`): deterministic-path rules apply in full.
    SimPath,
    /// The perf harnesses (`crates/bench`, the `perfbench/` benchmark):
    /// wall-clock reads are their job.
    Harness,
    /// Binary frontends (`src/bin`, `src/main.rs`): wall clock allowed
    /// (progress reporting), entropy still banned.
    Cli,
    /// Daemon/service code (`crates/server`): wall clock allowed
    /// (socket deadlines are its job), entropy still banned, and
    /// blocking sockets allowed only in the audited boundary modules.
    Service,
    /// Test-only code (`tests/`, `benches/`, `examples/` trees): scanned
    /// for precision checks but exempt from the determinism rules.
    Test,
}

/// One scanned source file, pre-lexed for the rules.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The crate the file belongs to (`ring-lint` name-style directory,
    /// e.g. `core`, `noc`; `uncorq` for the umbrella crate).
    pub crate_name: String,
    /// Path-policy class.
    pub origin: Origin,
    /// Raw text.
    pub text: String,
    /// Comment/string-masked text (same byte offsets as `text`).
    pub masked: String,
    /// Per-line `#[cfg(test)]`-region map (0-based).
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Builds a file from text, classifying it by its relative path.
    /// Returns `None` for paths outside the scanned policy (vendored
    /// stubs, build output).
    pub fn from_text(rel: &str, text: String) -> Option<SourceFile> {
        let rel = rel.replace('\\', "/");
        if rel.starts_with("vendor/") || rel.starts_with("target/") || rel.starts_with(".git/") {
            return None;
        }
        if !rel.ends_with(".rs") {
            return None;
        }
        let crate_name = if let Some(rest) = rel.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("").to_string()
        } else {
            "uncorq".to_string()
        };
        let origin = if rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.contains("/examples/")
        {
            Origin::Test
        } else if crate_name == "bench" || rel.starts_with("perfbench/") {
            Origin::Harness
        } else if crate_name == "server" {
            Origin::Service
        } else if rel.starts_with("src/bin/") || rel == "src/main.rs" {
            Origin::Cli
        } else {
            Origin::SimPath
        };
        let masked = lexer::mask(&text);
        let test_lines = lexer::test_line_map(&masked);
        Some(SourceFile {
            rel,
            crate_name,
            origin,
            text,
            masked,
            test_lines,
        })
    }

    /// Whether a 1-based line is inside a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// The text of a 1-based line (for finding snippets).
    pub fn line_text(&self, line: usize) -> &str {
        self.text.lines().nth(line.saturating_sub(1)).unwrap_or("")
    }

    /// The masked text of a 1-based line.
    pub fn masked_line(&self, line: usize) -> &str {
        self.masked
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
    }
}

/// Recursively collects every scannable `.rs` file under `root`,
/// sorted by relative path so reports and JSON output are stable.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&p)?;
        if let Some(f) = SourceFile::from_text(&rel, text) {
            files.push(f);
        }
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(rel: &str) -> Origin {
        SourceFile::from_text(rel, String::new()).unwrap().origin
    }

    #[test]
    fn path_policy() {
        assert_eq!(classify("crates/core/src/agent.rs"), Origin::SimPath);
        assert_eq!(classify("src/lib.rs"), Origin::SimPath);
        assert_eq!(classify("crates/bench/src/sweep.rs"), Origin::Harness);
        assert_eq!(
            classify("crates/bench/src/bin/bench_sweep.rs"),
            Origin::Harness
        );
        assert_eq!(classify("perfbench/src/cell.rs"), Origin::Harness);
        assert_eq!(classify("perfbench/src/main.rs"), Origin::Harness);
        assert_eq!(classify("src/bin/ringlint.rs"), Origin::Cli);
        assert_eq!(classify("src/main.rs"), Origin::Cli);
        assert_eq!(classify("crates/server/src/daemon.rs"), Origin::Service);
        assert_eq!(classify("crates/server/src/bin/ringd.rs"), Origin::Service);
        assert_eq!(classify("crates/server/tests/daemon_e2e.rs"), Origin::Test);
        assert_eq!(classify("crates/core/tests/ltt.rs"), Origin::Test);
        assert_eq!(classify("tests/integration.rs"), Origin::Test);
        assert_eq!(classify("examples/quick.rs"), Origin::Test);
    }

    #[test]
    fn vendor_and_non_rust_are_skipped() {
        assert!(SourceFile::from_text("vendor/serde/src/lib.rs", String::new()).is_none());
        assert!(SourceFile::from_text("crates/core/Cargo.toml", String::new()).is_none());
    }

    #[test]
    fn crate_names() {
        let f = SourceFile::from_text("crates/noc/src/ring.rs", String::new()).unwrap();
        assert_eq!(f.crate_name, "noc");
        let f = SourceFile::from_text("src/bin/tracecheck.rs", String::new()).unwrap();
        assert_eq!(f.crate_name, "uncorq");
    }
}
