//! The repo benchmark: four workloads, seven end-to-end metrics and a traced
//! per-layer split. See `README.md` for what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod relay;
pub mod report;
pub mod run;
pub mod sample;
pub mod scenario;
pub mod trace;
pub mod workloads;
