//! # hlpower-bench — reproduction harness for the survey's experiments
//!
//! Library side of the `repro` binary: the experiment registry's building
//! blocks ([`experiments`]), the result container ([`report`]), and the
//! wall-clock timing harness and shared circuits used by the `benches/`
//! targets ([`timing`]).
//!
//! Everything here is dependency-free: every dump is a
//! [`hlpower_obs::json::Value`] built with [`hlpower_obs::json!`], and
//! timing uses `std::time` directly, so `cargo build`/`cargo bench` need
//! no network access.

#![warn(missing_docs)]

pub mod experiments;
pub mod ingest;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod timing;
