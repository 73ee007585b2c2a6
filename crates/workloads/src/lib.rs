//! Synthetic workload generators for the Uncorq reproduction.
//!
//! The paper evaluates 11 SPLASH-2 applications plus SPECjbb 2000 and
//! SPECweb 2005, run through SESC/Simics. Those traces are not
//! reproducible here, so this crate substitutes synthetic per-application
//! generators calibrated to the *published characteristics that drive the
//! paper's results* (see DESIGN.md §3):
//!
//! - the fraction of read misses serviced cache-to-cache (Figure 8(c),
//!   last column) — reproduced by mixing *shared-pool* references (which
//!   miss to another cache) with *private-walk* references (which miss to
//!   memory);
//! - miss intensity and compute density — which set how much of execution
//!   time is exposed miss latency, and hence the execution-time impact in
//!   Figure 9.
//!
//! Sharing idioms modeled: migratory read-modify-write (locks, task
//! queues), read-mostly shared data, and private working sets larger than
//! the L2.
//!
//! # Examples
//!
//! ```
//! use ring_workloads::{AppProfile, WorkloadGen};
//!
//! let fmm = AppProfile::splash2()
//!     .into_iter()
//!     .find(|p| p.name == "fmm")
//!     .unwrap();
//! let mut gen = WorkloadGen::new(&fmm, 0, 64, 42);
//! let first = gen.next();
//! assert!(first.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gen;
mod profile;

pub use gen::WorkloadGen;
pub use profile::AppProfile;
