//! # flowmax-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7). [`experiments::registry`] is the experiment index; the
//! crate README maps each id to the figure it reproduces. Performance is
//! measured by the repository's `flowbench/` harness, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod probe_churn;
pub mod report;
pub mod runner;

pub use experiments::{registry, Experiment};
pub use report::{Cell, Report, Row};
pub use runner::{names, roster, run_workload, RunConfig, Scale};
