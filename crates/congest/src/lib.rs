//! # congest — a deterministic CONGEST-model network simulator
//!
//! This crate is the distributed-computing substrate for the reproduction of
//! *"A Framework for Distributed Quantum Queries in the CONGEST Model"*
//! (van Apeldoorn & de Vos, PODC 2022). It provides:
//!
//! * [`graph`] — immutable network topologies with centralized reference
//!   algorithms (BFS, eccentricities, girth) used as ground truth;
//! * [`generators`] — the topology families used in the paper's upper- and
//!   lower-bound arguments;
//! * [`runtime`] — the synchronous round engine: per-node state machines,
//!   per-edge bandwidth caps of `O(log n)` (qu)bits, exact round counting;
//! * [`bfs`] — BFS trees, pipelined multi-source BFS (`O(|S| + D)`),
//!   source eccentricities (Lemma 20), leader election;
//! * [`tree_comm`] — pipelined register distribution and gathering over a
//!   BFS tree (the mechanics of Lemma 7);
//! * [`aggregate`] — commutative-semigroup convergecast with uncompute
//!   echoes (the query step of Theorem 8);
//! * [`clustering`] — `d`-separated low-diameter clustering (Lemma 24);
//! * [`faults`] — deterministic, seeded fault injection (drops, outages,
//!   degraded links, delays) and the [`Reliable`](faults::Reliable)
//!   ack/retry wrapper for loss tolerance;
//! * [`conformance`] — audited runs that report every model-contract
//!   breach with round/edge provenance, plus trace/statistics accounting
//!   checks;
//! * [`telemetry`] — structured, deterministic run telemetry: hierarchical
//!   spans on the round timebase, counters/histograms, per-edge load, and
//!   Perfetto-compatible trace export.
//!
//! Rounds are *measured by execution*, never computed from formulas: every
//! protocol here is an honest message-passing state machine, and the engine
//! rejects runs that exceed the bandwidth cap.
//!
//! # Quickstart
//!
//! ```
//! use congest::generators::grid;
//! use congest::runtime::Network;
//! use congest::bfs::build_bfs_tree;
//!
//! let g = grid(8, 8);
//! let net = Network::new(&g);
//! let tree = build_bfs_tree(&net, 0)?;
//! assert_eq!(tree.depth, 14); // corner-to-corner
//! println!("BFS took {} rounds", tree.stats.rounds);
//! # Ok::<(), congest::runtime::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod bfs;
pub mod clustering;
pub mod conformance;
pub mod faults;
pub mod generators;
pub mod graph;
pub mod runtime;
pub mod telemetry;
pub mod tree_comm;

pub use graph::{Dist, Graph, NodeId};
pub use runtime::{Exec, Network, NodeProtocol, RoundLedger, RunOutput, RunStats, RuntimeError};
