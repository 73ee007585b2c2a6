//! `modelcheck` — exhaustive protocol model checker for the ring
//! coherence family.
//!
//! Three layers, all anchored on the declarative transition tables in
//! `ring-coherence`:
//!
//! 1. **Static analysis** — proves the supplier and decision tables are
//!    complete and deterministic (exactly one row per reachable point)
//!    for every protocol variant, under both settings of the §5.5
//!    keep-supplier guard.
//! 2. **Exhaustive exploration** — BFS over every delivery interleaving
//!    of bounded contention scenarios, driving the *real* `RingAgent`s:
//!    single-writer/multiple-reader, exclusive soleness, ghost
//!    data-value integrity, deadlock freedom, LTT balance, decision-table
//!    conformance, and trace-level invariants (Ordering, winner
//!    uniqueness) on sampled terminal paths. Counterexamples are minimal
//!    and printed as coherence-event traces.
//! 3. **Mutation soundness** (`--mutate`) — seeded single-entry table
//!    flips must be killed, proving a "zero violations" verdict is
//!    falsifiable.
//!
//! ```text
//! modelcheck [--variants a,b,..] [--nodes 2,3] [--scenarios a,b,..]
//!            [--max-states N] [--samples N] [--keep-supplier]
//!            [--mutate] [--list]
//! ```
//!
//! Exits 0 when every layer passes, 1 otherwise.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::process::ExitCode;

use uncorq::coherence::ProtocolVariant;
use uncorq::model::{analyze_all, explore, run_sweep, ExploreConfig, Scenario};

const USAGE: &str = "usage: modelcheck [--variants a,b,..] [--nodes 2,3] [--scenarios a,b,..] \
                     [--max-states N] [--samples N] [--retry-bound N] [--keep-supplier] \
                     [--mutate] [--list]";

struct Args {
    variants: Vec<ProtocolVariant>,
    nodes: Vec<usize>,
    scenarios: Vec<Scenario>,
    max_states: usize,
    samples: usize,
    /// Explicit bounded-fairness retry prune; `None` scales with the
    /// ring size (see `retry_bound_for`).
    retry_bound: Option<u64>,
    keep_supplier: bool,
    mutate: bool,
    list: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            variants: ProtocolVariant::ALL.to_vec(),
            nodes: vec![2, 3],
            scenarios: Scenario::ALL.to_vec(),
            // Sized to the largest known cell (uncorq+pref/read_race at
            // 3 nodes: 2,032,915 states) plus headroom; see EXPERIMENTS.md.
            max_states: 2_500_000,
            samples: 16,
            retry_bound: None,
            keep_supplier: false,
            mutate: false,
            list: false,
        }
    }
}

/// Default bounded-fairness prune per ring size. Two nodes keep the
/// generous bound; at three nodes the interleaving fan-out per retry is
/// so much larger that bound 4 blows past any practical state budget,
/// while bound 2 still covers every collision outcome (a loser retries
/// once against the winner, once against a chained second winner) and
/// keeps the full grid inside `--max-states`.
fn retry_bound_for(nodes: usize) -> u64 {
    if nodes >= 3 {
        2
    } else {
        4
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
            "--variants" => {
                a.variants = value("--variants")?
                    .split(',')
                    .map(|s| {
                        ProtocolVariant::by_name(s.trim())
                            .ok_or_else(|| format!("unknown variant {s}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--nodes" => {
                a.nodes = value("--nodes")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--nodes: {e}")))
                    .collect::<Result<_, _>>()?;
                if a.nodes.iter().any(|&n| !(2..=4).contains(&n)) {
                    return Err("--nodes entries must be in 2..=4".into());
                }
            }
            "--scenarios" => {
                a.scenarios = value("--scenarios")?
                    .split(',')
                    .map(|s| {
                        Scenario::by_name(s.trim()).ok_or_else(|| format!("unknown scenario {s}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--max-states" => {
                a.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?;
            }
            "--samples" => {
                a.samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?;
            }
            "--retry-bound" => {
                a.retry_bound = Some(
                    value("--retry-bound")?
                        .parse()
                        .map_err(|e| format!("--retry-bound: {e}"))?,
                );
            }
            "--keep-supplier" => a.keep_supplier = true,
            "--mutate" => a.mutate = true,
            "--list" => a.list = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn static_analysis() -> bool {
    println!("== static table analysis ==");
    let mut sound = true;
    for a in analyze_all() {
        let ok = a.is_sound();
        sound &= ok;
        println!(
            "  {:<12} supplier: {} holes, {} ambiguities | keep-supplier: {} holes, \
             {} ambiguities | decision: {} holes, {} ambiguities  [{}]",
            a.variant.name(),
            a.supplier.holes.len(),
            a.supplier.ambiguities.len(),
            a.supplier_keep.holes.len(),
            a.supplier_keep.ambiguities.len(),
            a.decision.holes.len(),
            a.decision.ambiguities.len(),
            if ok { "ok" } else { "UNSOUND" },
        );
        for h in a
            .supplier
            .holes
            .iter()
            .chain(&a.supplier.ambiguities)
            .chain(&a.supplier_keep.holes)
            .chain(&a.supplier_keep.ambiguities)
            .chain(&a.decision.holes)
            .chain(&a.decision.ambiguities)
        {
            println!("      !! {h}");
        }
    }
    sound
}

fn explorations(args: &Args) -> bool {
    println!("== exhaustive exploration ==");
    let mut pass = true;
    for &nodes in &args.nodes {
        for &variant in &args.variants {
            for &scenario in &args.scenarios {
                let mut cfg = ExploreConfig::new(variant, nodes, scenario);
                cfg.max_states = args.max_states;
                cfg.trace_samples = args.samples;
                cfg.keep_supplier = args.keep_supplier;
                cfg.retry_bound = args.retry_bound.unwrap_or_else(|| retry_bound_for(nodes));
                let report = explore(&cfg);
                let verdict = if report.ok() {
                    "ok"
                } else if report.truncated {
                    "TRUNCATED"
                } else {
                    "VIOLATION"
                };
                println!(
                    "  {:<12} {:<12} {} nodes: {:>7} states, {:>8} transitions, \
                     {:>5} terminals, {:>5} pruned  [{verdict}]",
                    variant.name(),
                    scenario.name(),
                    nodes,
                    report.states,
                    report.transitions,
                    report.terminals,
                    report.pruned,
                );
                if let Some(v) = &report.violation {
                    pass = false;
                    println!("    violation: {} — {}", v.kind, v.detail);
                    println!("    minimal counterexample ({} events):", v.events.len());
                    for e in &v.events {
                        println!("      > {e}");
                    }
                    println!("    replayed coherence trace ({} events):", v.trace.len());
                    for ev in v.trace.iter().take(200) {
                        println!("      {ev}");
                    }
                    if v.trace.len() > 200 {
                        println!("      ... ({} more)", v.trace.len() - 200);
                    }
                }
                if report.truncated {
                    pass = false;
                    println!(
                        "    exploration truncated at {} states; raise --max-states",
                        args.max_states
                    );
                }
            }
        }
    }
    pass
}

fn mutation_sweep(max_states: usize) -> bool {
    println!("== mutation soundness ==");
    let outcomes = run_sweep(max_states);
    let mut all_killed = true;
    for o in &outcomes {
        match &o.killed_by {
            Some(by) => println!("  killed   {:<24} {} ({by})", o.id, o.description),
            None => {
                all_killed = false;
                println!("  SURVIVED {:<24} {}", o.id, o.description);
            }
        }
    }
    println!(
        "  {}/{} seeded mutants killed",
        outcomes.iter().filter(|o| o.killed()).count(),
        outcomes.len()
    );
    all_killed
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        println!("variants:");
        for v in ProtocolVariant::ALL {
            println!("  {}", v.name());
        }
        println!("scenarios:");
        for s in Scenario::ALL {
            println!("  {}", s.name());
        }
        return ExitCode::SUCCESS;
    }
    let mut pass = static_analysis();
    pass &= explorations(&args);
    if args.mutate {
        pass &= mutation_sweep(args.max_states.min(120_000));
    }
    if pass {
        println!("modelcheck: PASS");
        ExitCode::SUCCESS
    } else {
        println!("modelcheck: FAIL");
        ExitCode::FAILURE
    }
}
