//! # proteus-bench
//!
//! The experiment harness: one binary per table/figure of the paper (the
//! README's experiment table is the index). This library crate holds the shared
//! plumbing — CLI parsing, filter construction (including the SuRF
//! configuration sweep and the LSM filter factories), FPR measurement and
//! table/CSV reporting.

pub mod build;
pub mod cli;
pub mod factories;
pub mod lsm_harness;
pub mod measure;
pub mod report;
pub mod scenario;

pub use build::{surf_best_under_budget, FilterKind};
pub use cli::Args;
pub use measure::{measure_fpr, Timed};
pub use report::Table;
