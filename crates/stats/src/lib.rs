//! Statistics collection for the Uncorq embedded-ring coherence simulator.
//!
//! This crate provides the measurement substrate used to regenerate every
//! figure and table of the MICRO 2007 Uncorq paper:
//!
//! - [`Histogram`] — fixed-bin latency histograms with cumulative
//!   distributions (Figures 8(a)/(b) and 11(a)/(b)),
//! - [`Summary`] — streaming mean/min/max/count accumulators
//!   (the latency columns of Figures 8(c), 10(b) and 11(c)),
//! - [`TrafficMeter`] — byte×hop traffic accounting (Figure 11(c)),
//! - [`Table`] — plain-text table rendering that prints the same rows the
//!   paper reports.
//!
//! # Examples
//!
//! ```
//! use ring_stats::{Histogram, Summary};
//!
//! let mut h = Histogram::new(10, 50);
//! let mut s = Summary::new();
//! for lat in [12u64, 17, 23, 23, 480] {
//!     h.record(lat);
//!     s.record(lat as f64);
//! }
//! assert_eq!(h.total(), 5);
//! assert!((s.mean() - 111.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod histogram;
mod summary;
mod table;
mod traffic;

pub use histogram::{CdfPoint, Histogram, LogHistogram};
pub use summary::Summary;
pub use table::{Align, Table};
pub use traffic::TrafficMeter;

/// Formats a ratio `a / b` as a percentage string with no decimals,
/// matching the paper's table style (e.g. `"56"` for 0.56).
///
/// Returns `"-"` when the denominator is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(ring_stats::percent(56.0, 100.0), "56");
/// assert_eq!(ring_stats::percent(1.0, 0.0), "-");
/// assert_eq!(ring_stats::percent(-23.0, 100.0), "-23");
/// ```
pub fn percent(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".to_string()
    } else {
        format!("{:.0}", 100.0 * a / b)
    }
}

/// Relative reduction `(base - new) / base` in percent, the quantity the
/// paper reports in columns like "(Eager-Uncorq)/Eager (%)".
///
/// Returns `0.0` when `base` is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(ring_stats::reduction_pct(363.0, 168.0), 54.0_f64.round());
/// ```
pub fn reduction_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (100.0 * (base - new) / base).round()
    }
}
