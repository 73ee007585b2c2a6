//! `ringlint` — static analysis gate for the Uncorq workspace.
//!
//! Two analysis families behind one binary and one JSON report:
//!
//! 1. **Source determinism & safety lints** — a self-contained lexer
//!    pass over every workspace `.rs` file: deterministic maps only in
//!    simulator paths, no wall clock outside the harness/CLI, no OS
//!    entropy anywhere, no hash-map iteration feeding event or output
//!    order, no unchecked unwraps in the audited protocol crates, and
//!    the clippy deny attributes present where the audit claims them.
//!    Audited exceptions live in `ringlint.allow` with mandatory
//!    reasons; stale entries fail the gate.
//! 2. **Protocol-table statics** — dead/shadowed-rule and guard-overlap
//!    audits over the declarative tables, the Dally–Seitz wait-for-graph
//!    deadlock-freedom proof for all five protocol variants at arbitrary
//!    node count, and closed-form capacity bounds against the shipped
//!    LTT/MSHR/reliable-window sizes.
//!
//! `--mutate` runs the lint-soundness harness: thirteen seeded violations
//! (nine source, four table/graph/bounds) must all be caught.
//!
//! ```text
//! ringlint [--root DIR] [--allowlist FILE] [--json FILE|-]
//!          [--mutate] [--list-rules] [--quiet]
//! ```
//!
//! Exits 0 when the gate passes, 1 on findings or surviving seeds, 2 on
//! usage errors.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use uncorq::lint::{run_mutations, run_workspace, RULES};

const USAGE: &str = "usage: ringlint [--root DIR] [--allowlist FILE] [--json FILE|-] [--mutate] \
     [--list-rules] [--quiet]";

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: Option<String>,
    mutate: bool,
    list_rules: bool,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            root: PathBuf::from("."),
            allowlist: None,
            json: None,
            mutate: false,
            list_rules: false,
            quiet: false,
        }
    }
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut a = Args::default();
    argv.next();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--root" => a.root = PathBuf::from(value("--root")?),
            "--allowlist" => a.allowlist = Some(PathBuf::from(value("--allowlist")?)),
            "--json" => a.json = Some(value("--json")?),
            "--mutate" => a.mutate = true,
            "--list-rules" => a.list_rules = true,
            "--quiet" => a.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in RULES {
            println!("{:<42} [{}] {}", r.id, r.severity.name(), r.description);
        }
        return ExitCode::SUCCESS;
    }

    if args.mutate {
        let outcomes = run_mutations();
        let killed = outcomes.iter().filter(|o| o.killed).count();
        for o in &outcomes {
            println!(
                "  seed {:>2} [{}] {} — {}",
                o.id,
                if o.killed { "killed" } else { "SURVIVED" },
                o.description,
                o.evidence
            );
        }
        println!(
            "ringlint --mutate: {killed}/{} seeds killed",
            outcomes.len()
        );
        return if killed == outcomes.len() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Default allowlist: `ringlint.allow` at the scan root, if present.
    let allow_path = args
        .allowlist
        .clone()
        .unwrap_or_else(|| args.root.join("ringlint.allow"));
    let allow_text = match std::fs::read_to_string(&allow_path) {
        Ok(t) => Some(t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && args.allowlist.is_none() => None,
        Err(e) => {
            eprintln!("ringlint: cannot read {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };

    let report = match run_workspace(&args.root, allow_text.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ringlint: scan failed under {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(dest) = &args.json {
        let doc = report.to_json();
        if dest == "-" {
            print!("{doc}");
        } else if let Err(e) = std::fs::write(dest, &doc) {
            eprintln!("ringlint: cannot write {dest}: {e}");
            return ExitCode::from(2);
        }
    }

    if !args.quiet {
        print!("{}", report.summary());
    }

    if report.gate_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
