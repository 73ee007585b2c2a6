//! Memory-system substrate for the Uncorq simulator.
//!
//! Models the paper's off-chip memory path (Table 3: DDR2-800, 224-cycle
//! round trip, 4 KB pages) and the memory-controller half of the
//! prefetching optimization of §5.4:
//!
//! - [`MemoryController`] — fixed-latency DRAM with a bounded number of
//!   in-flight requests and bank-conflict style queueing;
//! - [`ControllerPrefetchPredictor`] (CPP) — the per-page residency bit
//!   vector that suppresses useless prefetches;
//! - [`PrefetchBuffer`] — the small timed buffer that holds prefetched
//!   lines until the requesting node claims or abandons them.
//!
//! # Examples
//!
//! ```
//! use ring_mem::{MemConfig, MemoryController};
//! use ring_cache::LineAddr;
//!
//! let mut mc = MemoryController::new(MemConfig::ddr2_800());
//! let done = mc.request(1000, LineAddr::new(7));
//! assert_eq!(done, 1000 + 224);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod controller;
mod cpp;
mod prefetch_buffer;

pub use controller::{MemConfig, MemoryController};
pub use cpp::ControllerPrefetchPredictor;
pub use prefetch_buffer::PrefetchBuffer;
