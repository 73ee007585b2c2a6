//! Cache substrate for the Uncorq embedded-ring coherence simulator.
//!
//! Provides the building blocks the coherence protocols (crate
//! `ring-coherence`) operate on:
//!
//! - [`LineAddr`] — line-granular physical addresses;
//! - [`LineState`] — the paper's single-supplier state machine
//!   (Exclusive, Master Shared, Dirty, Tagged, Shared, Invalid; §2.2);
//! - [`CacheArray`] — a set-associative, LRU cache array used for both the
//!   private L1s and the private unified L2s of the modeled CMP;
//! - [`Mshr`] — miss status holding registers, bounding the number of
//!   outstanding transactions per node.
//!
//! # Examples
//!
//! ```
//! use ring_cache::{CacheArray, CacheConfig, LineAddr, LineState};
//!
//! let mut l2 = CacheArray::new(CacheConfig::l2_512k());
//! let a = LineAddr::from_byte_addr(0x4000, 64);
//! assert_eq!(l2.state(a), LineState::Invalid);
//! l2.insert(a, LineState::Exclusive);
//! assert!(l2.state(a).is_supplier());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod array;
mod line;
mod mshr;
mod state;

pub use array::{CacheArray, CacheConfig, Eviction};
pub use line::LineAddr;
pub use mshr::{Mshr, MshrError};
pub use state::LineState;
