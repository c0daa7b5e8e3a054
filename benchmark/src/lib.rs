//! geobench: a repeatable end-to-end and per-layer benchmark of the
//! Geomancy placement service, sized for a 2-core shared box. See
//! `README.md` for the metrics, the workloads and the rules that keep
//! the numbers repeatable.
//!
//! The benchmark drives the program only through public functions of the
//! crates under `crates/` and touches no file outside `benchmark/`.

#![warn(missing_docs)]

pub mod books;
pub mod cli;
pub mod compare;
pub mod durable;
pub mod gen;
pub mod harness;
pub mod ladder;
pub mod pace;
pub mod report;
pub mod routed;
pub mod single;
pub mod span;
pub mod stats;
