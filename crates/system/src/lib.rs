//! Full-machine assembly for the Uncorq reproduction: the 64-node CMP of
//! the paper's Table 3.
//!
//! A [`Machine`] wires together, per node, a core model (`ring-cpu`), a
//! private L1 and L2 (`ring-cache`), and a protocol agent
//! (`ring-coherence`), over a shared on-chip network (`ring-noc`) and
//! memory system (`ring-mem`). The ring protocols (Eager, SupersetCon,
//! SupersetAgg, Uncorq, Uncorq+Pref) run on [`Machine`]; the
//! HyperTransport baseline runs on [`HtMachine`]. Both execute the same
//! deterministic workload streams (`ring-workloads`), so protocol
//! comparisons are apples-to-apples — "all algorithms use exactly the
//! same network" (paper §6).
//!
//! # Examples
//!
//! ```
//! use ring_system::{Machine, MachineConfig};
//! use ring_coherence::ProtocolKind;
//! use ring_workloads::AppProfile;
//!
//! // A small machine for a quick smoke run.
//! let cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
//! let profile = AppProfile::by_name("fmm").unwrap().scaled(50);
//! let report = Machine::new(cfg, &profile).run();
//! assert!(report.finished);
//! assert!(report.stats.ops_retired > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod config;
mod effects;
mod ht_machine;
mod machine;
mod stall;
mod stats;

pub use checkpoint::{
    config_hash, list_checkpoints, prune_checkpoints, restore_latest, workload_fingerprint,
};
pub use config::{MachineConfig, MachineConfigError, DEFAULT_WORKLOAD};
pub use ht_machine::HtMachine;
pub use machine::{run_paper, Machine, RunProgress};
pub use stall::{NodeStallState, RestoredFrom, StallCause, StallReport};
pub use stats::{MachineStats, Report};
