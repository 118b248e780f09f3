//! # hmc-bench
//!
//! The benchmark and reproduction harness: one binary per paper table
//! and figure plus the `ablations` table (see DESIGN.md §5). This
//! library holds the shared harness code — table formatting, the
//! experiment sweep driver, argument lookup and the ablation tables —
//! used by the binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod args;
pub mod sweep;
pub mod table;

pub use args::Args;
pub use sweep::{mutex_point, mutex_sim, mutex_sweep, summarize, SweepPoint, SweepSummary};
pub use table::TableWriter;
