//! # analytic — performance models, fits, and report plumbing
//!
//! Everything the bench harness needs to turn raw timings into the paper's
//! evaluation artefacts:
//!
//! * [`fit`] — least-squares recovery of the paper's `a + b·p`
//!   latency/throughput summaries ("37µs + 8.09·p ns");
//! * [`mod@speedup`] — sweep series and pointwise speedups (Figures 11(2),
//!   12(2));
//! * [`report`] — fixed-width tables, CSV, and `p`-sweep helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod report;
pub mod speedup;

pub use fit::{crossover, fit_affine, fit_affine_tail, AffineFit};
pub use report::{csv, format_p, format_ratio, format_value, p_sweep, table, table_fmt};
pub use speedup::{first_reaching, peak, speedup, Series, SweepPoint};
