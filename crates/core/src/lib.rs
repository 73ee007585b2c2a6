//! Embedded-ring snoopy cache-coherence protocols — the primary
//! contribution of the MICRO 2007 paper *Uncorq: Unconstrained Snoop
//! Request Delivery in Embedded-Ring Multiprocessors*.
//!
//! # Protocol family
//!
//! All protocols in this crate implement a single-supplier, invalidation-
//! based coherence scheme over a logical unidirectional ring embedded in a
//! point-to-point network (paper §2). They differ in how the snoop
//! *request* (`R`) is delivered; the combined snoop *response* (`r`)
//! always traverses the ring:
//!
//! | Protocol | `R` delivery | Extras |
//! |---|---|---|
//! | [`ProtocolKind::Eager`] | ring, forwarded before snooping | — |
//! | [`ProtocolKind::SupersetCon`] | ring, stalled behind the snoop at filter-positive nodes | per-node presence filter |
//! | [`ProtocolKind::SupersetAgg`] | ring, forwarded after a filter lookup | per-node presence filter |
//! | [`ProtocolKind::Uncorq`] | **any network path** (multicast) for reads; ring for writes | [`Ltt`] enforces the Ordering invariant |
//!
//! The Uncorq+Pref variant adds the hardware prefetching optimization of
//! §5.4 ([`NodePrefetchPredictor`] + the memory-side CPP in `ring-mem`).
//!
//! A HyperTransport-style broadcast baseline ([`ht`]) reproduces the
//! comparison of §7.4.
//!
//! # The Ordering invariant (paper §3.1)
//!
//! *Given two colliding transactions, the order in which their `r`
//! messages arrive at the first of the two requesting nodes found in ring
//! order after the supplier node must equal the order in which their `R`
//! messages arrived at the supplier.*
//!
//! Eager enforces it with same-direction, same-line-FIFO ring traversal;
//! Uncorq enforces it with the Local Transaction Table ([`Ltt`]), which
//! stalls negative responses that would otherwise overtake the winner's
//! positive response.
//!
//! # Architecture
//!
//! The protocol engine is a pure message-driven state machine:
//! [`RingAgent::handle`] consumes one [`AgentInput`] and returns
//! [`Effect`]s. The `ring-system` crate owns the event queue and network
//! timing and converts effects into future inputs. This split keeps the
//! protocol logic deterministic and directly testable: the collision
//! scenario tests drive agents with hand-ordered inputs and assert on the
//! resulting message sequences, mirroring the paper's Tables 1 and 2.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod agent;
pub mod config;
pub mod filter;
pub mod ht;
pub mod ltt;
pub mod msg;
pub mod npp;
pub mod table;
pub mod txn;

pub use agent::{AgentInput, AgentStats, Effect, OwnTxView, RingAgent};
pub use config::{ConfigError, ProtocolConfig, ProtocolKind, ProtocolVariant};
pub use filter::PresenceFilter;
pub use ltt::{Ltt, LttConfig};
pub use msg::{RequestMsg, ResponseMsg, RingMsg, SupplierMsg, CONTROL_BYTES, DATA_BYTES};
pub use npp::NodePrefetchPredictor;
pub use table::{
    DecisionAction, DecisionCtx, DecisionGuard, DecisionRow, DecisionTable, RespClass, SnoopRow,
    SnoopState, SupplierGuard, SupplierTable, SupplyAction, TableAnalysis, TableError,
};
pub use txn::{Priority, TxnId, TxnKind};
