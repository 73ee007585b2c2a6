//! Protocol model checking for the embedded-ring coherence family.
//!
//! This crate closes the verification gap between "the simulator's tests
//! pass" and "the protocol is right". It attacks the problem from three
//! independent directions, all anchored on the declarative transition
//! tables in [`ring_coherence::table`]:
//!
//! 1. **Static table analysis** ([`analysis`]) — proves by enumeration
//!    that for every protocol variant there is *exactly one* applicable
//!    row for every `snoop state × request kind` pair and every
//!    `response class × guard-cube point`: no unhandled cases, no
//!    order-dependent ambiguity.
//! 2. **Exhaustive exploration** ([`explorer`]) — drives the *real*
//!    [`ring_coherence::RingAgent`]s through every delivery interleaving
//!    of bounded contention scenarios (2–4 nodes), checking
//!    single-writer/multiple-reader, exclusive-copy soleness, ghost
//!    data-value integrity, LTT balance, quiescence and deadlock
//!    freedom, and replaying terminal paths through the
//!    [`ring_trace::InvariantChecker`] (the paper's §3.1 Ordering
//!    invariant and winner uniqueness). Counterexamples are minimal by
//!    BFS and printed in the [`ring_trace::TraceEvent`] vocabulary.
//! 3. **Differential conformance** ([`conformance`]) — the agent's
//!    requester-side decision logic is deliberately a second, hand-coded
//!    implementation of the rules the [`ring_coherence::DecisionTable`]
//!    declares; every explored response delivery is replayed through the
//!    table and divergences are reported.
//!
//! The [`mutation`] harness keeps all three honest: seeded single-entry
//!    table flips must be killed (supplier flips by invariant
//!    violations, decision flips by conformance divergence), proving the
//!    checker's "zero violations" verdict is falsifiable.
//!
//! The `modelcheck` binary in the umbrella crate packages all of this
//! as a CI gate.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod conformance;
pub mod explorer;
pub mod mutation;

pub use analysis::{analyze_all, analyze_variant, VariantAnalysis};
pub use conformance::{ObservedClass, Prediction};
pub use explorer::{explore, ExploreConfig, ExploreReport, Op, Scenario, Violation};
pub use mutation::{
    default_grid, run_mutant, run_sweep, seeded_mutants, GridPoint, Mutant, MutantTarget,
    MutationOutcome,
};
