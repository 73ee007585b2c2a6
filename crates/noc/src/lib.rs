//! On-chip network model for the Uncorq embedded-ring coherence simulator.
//!
//! The paper's machine (Table 3) is a 64-core CMP connected by an 8×8 2D
//! torus with xy routing, 8 processor cycles per hop. This crate models:
//!
//! - [`Torus`] — the physical topology: node coordinates, wrap-around
//!   minimal xy routes, hop distances;
//! - [`Network`] — a timing model over the torus with per-link occupancy
//!   (contention) and serialization delay, offering [`Network::unicast`]
//!   and [`Network::multicast`] (the unconstrained delivery that Uncorq's
//!   `R` messages use);
//! - [`RingEmbedding`] — the logical unidirectional ring embedded in the
//!   torus (a Hamiltonian cycle), used by all `r` messages and by the `R`
//!   messages of Eager and Flexible Snooping.
//!
//! # Examples
//!
//! ```
//! use ring_noc::{NetworkConfig, Network, NodeId, Torus};
//!
//! let torus = Torus::new(8, 8);
//! let mut net = Network::new(torus, NetworkConfig::default());
//! let d = net.unicast(0, NodeId(0), NodeId(63), 8, ring_noc::Channel::Request);
//! assert!(d.arrival > 0);
//! assert!(d.hops >= 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod fault;
mod multicast;
mod network;
mod reliable;
mod ring;
mod topology;

pub use fault::{
    DeliveryClass, FaultInjector, FaultKind, FaultPlan, FaultProfile, FaultStats, InjectedFault,
    OutageEvent,
};
pub use multicast::{multicast_tree, TreeEdge};
pub use network::{Channel, Delivery, LinkTraffic, Network, NetworkConfig, NocError};
pub use reliable::{
    FlowKey, FlowSnapshot, FrameId, RelAction, RelSnapshot, RelStats, ReliabilityConfig,
    ReliabilityConfigError, ReliableTransport, ACK_BYTES,
};
pub use ring::RingEmbedding;
pub use topology::{Direction, LinkId, NodeId, RouteIter, Torus};
