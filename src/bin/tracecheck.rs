//! `tracecheck` — offline protocol-invariant checker for JSONL traces.
//!
//! Replays a trace produced with `uncorq --trace-out FILE` through the
//! shared [`InvariantChecker`] (see `ring-trace::check` for the full
//! list of invariants: resolution, Ordering, LTT balance, winner
//! uniqueness, and absence of protocol-error events).
//!
//! ```text
//! tracecheck TRACE.jsonl
//! ```
//!
//! Exits 0 when the trace is well-formed and all invariants hold, 1
//! otherwise (listing the violations found).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader};
use std::process::ExitCode;

use uncorq::trace::{InvariantChecker, TraceEvent};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: tracecheck TRACE.jsonl");
        return ExitCode::FAILURE;
    };
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut checker = InvariantChecker::new();
    let mut parse_errors = 0u64;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("tracecheck: {path}:{}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::from_jsonl(&line) {
            Ok(ev) => checker.observe(&ev),
            Err(e) => {
                parse_errors += 1;
                if parse_errors <= 10 {
                    eprintln!("tracecheck: {path}:{}: {e}", i + 1);
                }
            }
        }
    }
    checker.finish();
    print!("{}", checker.summary());
    println!("parse errors    : {parse_errors}");
    println!("violations      : {}", checker.violations().len());
    print!("{}", checker.format_violations(50));
    if checker.violations().is_empty() && parse_errors == 0 {
        println!("OK: all invariants hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
