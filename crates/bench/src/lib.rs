//! # geomancy-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! Geomancy paper (ISPASS 2020). Each binary prints one artifact:
//!
//! | Binary   | Artifact | Paper section |
//! |----------|----------|---------------|
//! | `fig4`   | feature ↔ throughput correlations | §V-D, Figure 4 |
//! | `table2` | 23-model comparison (error, train/predict time) | §V-G, Tables I & II |
//! | `table3` | model 1 error per storage point | §V-G, Table III |
//! | `fig5a`  | Experiment 1: Geomancy vs dynamic baselines | §VII, Figure 5a |
//! | `fig5b`  | Experiment 2: Geomancy vs static baselines | §VII, Figure 5b |
//! | `table4` | per-mount throughput / usage | §VIII, Table IV |
//! | `fig6`   | Experiment 3: adapting to a new workload | §VIII, Figure 6 |
//! | `ablations` | design-choice ablations called out in DESIGN.md | — |
//!
//! `overheads` times the §VIII overhead study (train/predict time, ReplayDB
//! ingest and the retrain-and-layout cycle).
//!
//! Every binary honors `GEOMANCY_FAST=1` to shrink workloads for smoke
//! testing, and writes machine-readable JSON next to its stdout report
//! under `results/`.

#![warn(missing_docs)]

pub mod output;
pub mod scenarios;
