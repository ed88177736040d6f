//! Experiment harness reproducing every table and figure of the DAPES
//! paper's evaluation (§VI).
//!
//! The `all` binary runs every figure in paper order, or one with `--only`
//! (`cargo run --release -p dapes-bench --bin all -- --only fig9a`). Two
//! profiles exist:
//!
//! * `--profile quick` (default) — the same 44-node topology and sweep axes
//!   with a scaled-down collection, finishing in minutes;
//! * `--profile paper` — the paper's exact workload (10 × 1 MB files, ten
//!   trials), which takes hours.
//!
//! The measured numbers land next to the paper's qualitative expectations;
//! ROADMAP.md's "Measured at this re-anchor" table compares them with the
//! paper, and its item 7 plans a checked artifact for them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod check;
pub mod cli;
pub mod faults;
pub mod figures;
pub mod host;
pub mod json;
pub mod profile;
pub mod prom;
pub mod report;
pub mod scenario;
pub mod table1;

pub use dapes_testutil::Protocol;
pub use figures::{experiment, ALL_EXPERIMENTS};
pub use profile::Profile;
pub use scenario::{run_trial, run_trials, ScenarioParams, Summary, TrialResult};
