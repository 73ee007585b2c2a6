//! Shared harness code for regenerating the paper's figures and tables.
//!
//! Each binary in `src/bin/` regenerates one figure or table of the
//! MICRO 2007 Uncorq paper; this library holds the common machinery:
//! running one `(protocol, application)` cell and formatting results.
//! See EXPERIMENTS.md at the workspace root for the experiment index and
//! recorded paper-vs-measured results.

#![forbid(unsafe_code)]

pub mod paper;
pub mod sweep;

use ring_coherence::ProtocolKind;
use ring_system::{HtMachine, Machine, MachineConfig, Report};
use ring_workloads::AppProfile;

/// Which machine/protocol a harness cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// One of the embedded-ring protocols.
    Ring(ProtocolKind),
    /// Uncorq plus the §5.4 prefetching optimization.
    UncorqPref,
    /// The HyperTransport-style baseline.
    Ht,
}

impl Proto {
    /// The five protocols Figure 9 plots, in order.
    pub const FIG9: [Proto; 5] = [
        Proto::Ring(ProtocolKind::Eager),
        Proto::Ring(ProtocolKind::SupersetCon),
        Proto::Ring(ProtocolKind::SupersetAgg),
        Proto::Ring(ProtocolKind::Uncorq),
        Proto::UncorqPref,
    ];

    /// Display name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Ring(ProtocolKind::Eager) => "Eager",
            Proto::Ring(ProtocolKind::SupersetCon) => "SupersetCon",
            Proto::Ring(ProtocolKind::SupersetAgg) => "SupersetAgg",
            Proto::Ring(ProtocolKind::Uncorq) => "Uncorq",
            Proto::UncorqPref => "Uncorq+Pref",
            Proto::Ht => "HT",
        }
    }
}

/// Runs one cell on the paper's 64-node machine.
pub fn run_cell(proto: Proto, profile: &AppProfile, seed: u64) -> Report {
    let cfg = config_for(proto, seed);
    match proto {
        Proto::Ht => HtMachine::new(cfg, profile).run(),
        _ => Machine::new(cfg, profile).run(),
    }
}

/// The paper-machine configuration for a protocol selection.
pub fn config_for(proto: Proto, seed: u64) -> MachineConfig {
    let mut cfg = match proto {
        Proto::Ring(kind) => MachineConfig::paper(kind),
        Proto::UncorqPref => MachineConfig::paper_uncorq_pref(),
        // The HT machine reads only cache/net/mem parameters.
        Proto::Ht => MachineConfig::paper(ProtocolKind::Eager),
    };
    cfg.seed = seed;
    if std::env::var_os("UNCORQ_NOCONTENTION").is_some() {
        cfg.net.model_contention = false;
    }
    cfg
}

/// The default seed used by all published tables.
pub const SEED: u64 = 2007;

/// Scales an application profile down when the `UNCORQ_FAST` environment
/// variable is set (useful for smoke-testing every harness binary).
pub fn maybe_fast(profile: AppProfile) -> AppProfile {
    if std::env::var_os("UNCORQ_FAST").is_some() {
        profile.scaled(1_000)
    } else {
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_names_unique() {
        let mut names: Vec<_> = Proto::FIG9.iter().map(|p| p.name()).collect();
        names.push(Proto::Ht.name());
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn config_for_prefetch_sets_flag() {
        assert!(config_for(Proto::UncorqPref, 1).protocol.prefetch);
        assert!(
            !config_for(Proto::Ring(ProtocolKind::Uncorq), 1)
                .protocol
                .prefetch
        );
    }
}
