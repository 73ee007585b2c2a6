//! # uncorq — embedded-ring snoopy coherence, reproduced
//!
//! An open reproduction of *Uncorq: Unconstrained Snoop Request Delivery
//! in Embedded-Ring Multiprocessors* (Strauss, Shen, Torrellas;
//! MICRO 2007), as a Rust workspace. This umbrella crate re-exports every
//! component crate under one roof:
//!
//! - [`coherence`] — the protocol family (Eager, Flexible Snooping,
//!   **Uncorq**, the HT baseline), the Ordering invariant, the LTT, and
//!   the declarative protocol transition tables;
//! - [`model`] — the exhaustive protocol model checker: static table
//!   analysis, BFS state-space exploration, differential conformance
//!   and the mutation-soundness harness behind the `modelcheck` binary;
//! - [`lint`] — workspace static analysis: source-level determinism
//!   lints, dead-rule/guard-overlap table audits, the wait-for-graph
//!   deadlock-freedom proof and capacity bounds behind the `ringlint`
//!   binary;
//! - [`system`] — the 64-node CMP machine that runs them;
//! - [`trace`] — structured coherence-event tracing, sinks, and the
//!   per-node/per-link metrics registry;
//! - [`workloads`] — synthetic SPLASH-2 / commercial application profiles;
//! - [`snapshot`] — the integrity-verified machine-snapshot container
//!   behind crash-safe checkpoint/restore;
//! - [`noc`], [`cache`], [`mem`], [`cpu`], [`sim`], [`stats`] — the
//!   substrates.
//!
//! # Quickstart
//!
//! ```
//! use uncorq::coherence::ProtocolKind;
//! use uncorq::system::{Machine, MachineConfig};
//! use uncorq::workloads::AppProfile;
//!
//! // A small machine and workload so the example runs in milliseconds;
//! // use `MachineConfig::paper(..)` and full profiles for real runs.
//! let cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
//! let app = AppProfile::by_name("fmm").unwrap().scaled(100);
//! let report = Machine::new(cfg, &app).run();
//! assert!(report.finished);
//! println!("avg read miss latency: {:.0} cycles", report.stats.read_latency.mean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ring_cache as cache;
pub use ring_coherence as coherence;
pub use ring_cpu as cpu;
pub use ring_lint as lint;
pub use ring_mem as mem;
pub use ring_model as model;
pub use ring_noc as noc;
pub use ring_sim as sim;
pub use ring_snapshot as snapshot;
pub use ring_stats as stats;
pub use ring_system as system;
pub use ring_trace as trace;
pub use ring_workloads as workloads;
