//! Deterministic discrete-event simulation kernel.
//!
//! The Uncorq paper evaluates its protocols on a cycle-accurate simulator
//! (SESC). This crate provides the equivalent substrate for our
//! reproduction: a minimal, fully deterministic event queue over integer
//! cycle time, plus a seedable RNG wrapper so that every run of a given
//! configuration is bit-for-bit reproducible.
//!
//! Design notes:
//!
//! - Events are ordered by `(time, sequence)`. The sequence number breaks
//!   ties in insertion order, which keeps simulations deterministic even
//!   when many events fire on the same cycle.
//! - The kernel knows nothing about the machine being simulated; the
//!   `ring-system` crate owns the machine state and interprets the event
//!   payloads.
//!
//! # Examples
//!
//! ```
//! use ring_sim::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(10, "b");
//! q.schedule(5, "a");
//! q.schedule(10, "c");
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b"))); // FIFO among same-cycle events
//! assert_eq!(q.pop(), Some((10, "c")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fasthash;
mod queue;
mod rng;
mod watchdog;

pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::EventQueue;
pub use rng::{splitmix64_mix, DetRng};
pub use watchdog::Watchdog;

/// Simulation time, in processor cycles (4 GHz in the paper's Table 3).
pub type Cycle = u64;
