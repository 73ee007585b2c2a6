//! Static analysis for the Uncorq workspace: determinism lints over the
//! source tree and deadlock/capacity analysis over the protocol tables.
//!
//! The crate has two halves that meet in one [`Report`]:
//!
//! 1. **Source-level determinism & safety lints** — a self-contained
//!    lexer pass ([`lexer`], no parser dependencies) feeds a path-policy
//!    model ([`source`]) and six rules ([`rules`]): deterministic maps
//!    only in simulator paths, no wall clock, no OS entropy, no
//!    unordered iteration feeding events, no unchecked unwraps in the
//!    audited protocol crates, and the clippy deny attribute present
//!    where the unwrap audit claims it. Audited exceptions live in a
//!    single allowlist file with mandatory reasons ([`allow`]).
//! 2. **Static protocol-table analysis** — row-level dead/shadowed-rule
//!    and symbolic guard-overlap audits over the PR-3 decision kernels
//!    ([`proto`]), a message-class/resource wait-for graph with a
//!    Dally–Seitz cycle analysis proving deadlock freedom for all five
//!    protocol variants at arbitrary node count ([`waitfor`]), and
//!    closed-form worst-case in-flight bounds checked against the
//!    shipped LTT/MSHR/reliable-window capacities ([`bounds`]).
//!
//! The [`mutation`] harness seeds thirteen violations through the real
//! detection paths and requires 13/13 killed, so the gate's "zero
//! findings" verdict stays falsifiable. The `ringlint` binary in the
//! umbrella crate packages everything as a CI gate with a stable JSON
//! report ([`report`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allow;
pub mod bounds;
pub mod lexer;
pub mod mutation;
pub mod proto;
pub mod report;
pub mod rules;
pub mod source;
pub mod waitfor;

pub use allow::{AllowEntry, Allowlist};
pub use bounds::{check_all, BoundCheck, BoundStatus};
pub use mutation::{run_all as run_mutations, ViolationOutcome};
pub use proto::{audit_decision_table, audit_supplier_table, TableAudit};
pub use report::Report;
pub use rules::{scan_file, scan_workspace, Finding, RuleInfo, Severity, RULES};
pub use source::{collect_workspace, Origin, SourceFile};
pub use waitfor::{prove, prove_all, DeadlockProof, Resource, WaitForGraph};

use std::path::Path;

/// Runs the full analysis over a workspace root: source scan with the
/// allowlist applied, table audits, per-variant soundness, deadlock
/// proofs, and capacity bounds.
pub fn run_workspace(root: &Path, allow_text: Option<&str>) -> std::io::Result<Report> {
    let files = collect_workspace(root)?;
    let mut findings = scan_workspace(&files);
    let allowlist = allow_text.map(Allowlist::parse).unwrap_or_default();
    let stale = allowlist
        .apply(&mut findings)
        .into_iter()
        .cloned()
        .collect();
    Ok(Report {
        files_scanned: files.len(),
        findings,
        allow_errors: allowlist.errors.clone(),
        stale_allows: stale,
        supplier_audit: Some(audit_supplier_table(
            &ring_coherence::SupplierTable::canonical(),
        )),
        decision_audit: Some(audit_decision_table(
            &ring_coherence::DecisionTable::canonical(),
        )),
        variants: ring_model::analyze_all(),
        proofs: prove_all(true),
        bounds: check_all(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_workspace_on_a_tiny_tree() {
        let dir = std::env::temp_dir().join(format!("ringlint-test-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "use std::collections::HashMap;\npub fn f() { let _ = \
             std::time::Instant::now(); }\n",
        )
        .unwrap();
        let report =
            run_workspace(&dir, Some("no-wallclock crates/demo/src/lib.rs -- demo\n")).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(report.files_scanned, 1);
        // The HashMap finding is open, the wallclock one allowed.
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "no-std-hashmap-in-sim-paths" && f.allowed.is_none()));
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "no-wallclock" && f.allowed.is_some()));
        assert!(!report.gate_ok());
        // The table-side artifacts ride along regardless of the tree.
        assert_eq!(report.proofs.len(), 5);
        assert!(report.proofs.iter().all(|p| p.acyclic));
    }
}
