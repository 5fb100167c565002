//! # dqc-bench — experiment harness
//!
//! Reproduces every round-complexity result of *"A Framework for
//! Distributed Quantum Queries in the CONGEST Model"* as a measured table:
//! see [`experiments`] for the suite (E1–E19) and EXPERIMENTS.md for the
//! recorded results. Run `cargo run --release -p dqc-bench --bin reproduce
//! -- all` to regenerate everything.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod table;
pub mod telemetry;

pub use experiments::{catalog, run_one, Scale};
pub use table::Table;
