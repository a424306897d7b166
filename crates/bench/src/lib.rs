//! Experiment harness for the DATE'05 noisy-waveform reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (`table1`, `figure1`, `figure2`, `runtime` for Section 4.2), runs one
//! ablation (`psweep`, `aggressors`, `nonoverlap`) or drives the STA
//! pipeline (`spefbus`); each binary's module docs say what it measures.
//! This library holds the shared machinery: noise-injection workloads,
//! per-case evaluation, accuracy aggregation, plain-text/CSV reporting and
//! the experiment binaries' flag parsing.

#![forbid(unsafe_code)]

pub mod busgen;
pub mod cli;
pub mod experiments;
pub mod json;
pub mod microbench;
pub mod report;
pub mod workload;

pub use experiments::{run_accuracy, AccuracyRow, AccuracyTable};
pub use workload::{random_pairs, skew_sweep, SkewCase};
