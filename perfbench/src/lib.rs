//! The repository benchmark: four single-threaded workloads over the
//! public API of `congest`, `dqc-core`, `pquery` and `qsim`, every answer
//! checked against centralized ground truth, and a traced run that splits
//! the time by layer. `BENCHMARK.json` at the repository root lists two of
//! the workloads; the README says why.

pub mod adapters;
pub mod layers;
pub mod runner;
pub mod span;
pub mod tally;
pub mod workloads;
