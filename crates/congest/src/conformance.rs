//! Model-conformance checking: audited runs and accounting identities.
//!
//! The CONGEST results of the paper (Lemma 7, Theorem 8, …) are only as
//! trustworthy as the simulator's enforcement of the model contract. This
//! module turns that contract into checkable invariants:
//!
//! * **per-edge bandwidth** — every directed edge carries at most
//!   `cap_bits` (qu)bits per round;
//! * **locality** — messages travel only between graph neighbors;
//! * **round accounting** — the per-round trace is monotone and consistent
//!   with the aggregate statistics (`rounds` equals the number of recorded
//!   rounds, per-round message/bit/drop counts sum to the totals, and the
//!   busiest recorded edge never exceeds the observed maximum).
//!
//! Where the plain engine *aborts* on the first contract breach, an audited
//! run ([`Exec::audited`](crate::runtime::Exec::audited))
//! records every breach as a [`Violation`] with round and edge provenance
//! and keeps going, so a single run reports all of a protocol's violations.
//! [`check_protocol`] wraps the whole procedure into one call.

use crate::graph::NodeId;
use crate::runtime::{
    Ctx, MessageSize, Network, NodeProtocol, RunOutput, RunStats, RuntimeError, Trace,
};
use std::fmt;

/// One breach of the CONGEST model contract, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A directed edge carried more than the cap in one round.
    CapExceeded {
        /// Round in which the edge overflowed.
        round: usize,
        /// Sending endpoint.
        from: NodeId,
        /// Receiving endpoint.
        to: NodeId,
        /// Bits the edge carried when the overflow was detected.
        bits: u64,
        /// The configured cap.
        cap: u64,
    },
    /// A node addressed a message to a non-neighbor.
    NonNeighborSend {
        /// Round of the offending send.
        round: usize,
        /// The sender.
        from: NodeId,
        /// The non-adjacent addressee.
        to: NodeId,
    },
    /// The per-round trace disagrees with the aggregate statistics.
    TraceInconsistent {
        /// Which accounting identity failed.
        field: &'static str,
        /// The value implied by the statistics.
        expected: u64,
        /// The value implied by the trace.
        got: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CapExceeded { round, from, to, bits, cap } => {
                write!(f, "round {round}: edge {from}->{to} carried {bits} bits, cap is {cap}")
            }
            Violation::NonNeighborSend { round, from, to } => {
                write!(f, "round {round}: node {from} sent to non-neighbor {to}")
            }
            Violation::TraceInconsistent { field, expected, got } => {
                write!(f, "trace inconsistent: {field} is {got}, stats imply {expected}")
            }
        }
    }
}

/// The outcome of a conformance check.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Every violation found, in detection order (audited model breaches
    /// first, then trace inconsistencies).
    pub violations: Vec<Violation>,
    /// Statistics of the audited run.
    pub stats: RunStats,
}

impl ConformanceReport {
    /// Whether the run upheld every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable one-line-per-violation summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "conformance: clean".to_string();
        }
        let mut out = format!("conformance: {} violation(s)\n", self.violations.len());
        for v in &self.violations {
            out.push_str(&format!("  - {v}\n"));
        }
        out
    }
}

/// A fully checked run: the report plus the run's outputs, so callers can
/// additionally assert protocol-level correctness.
#[derive(Debug)]
pub struct Checked<P> {
    /// The conformance findings.
    pub report: ConformanceReport,
    /// The audited run: final node states, statistics, and per-round trace.
    pub run: RunOutput<P, Trace>,
}

/// Check the trace/statistics accounting identities of one audited run.
///
/// Returns violations only — an empty vector means the accounting is
/// internally consistent and within `cap`.
pub fn validate_trace(stats: &RunStats, trace: &Trace, cap: u64) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut check = |field: &'static str, expected: u64, got: u64| {
        if expected != got {
            out.push(Violation::TraceInconsistent { field, expected, got });
        }
    };
    check("recorded rounds", stats.rounds as u64, trace.rounds.len() as u64);
    check("message total", stats.messages, trace.rounds.iter().map(|r| r.messages).sum());
    check("bit total", stats.total_bits, trace.rounds.iter().map(|r| r.bits).sum());
    check("drop total", stats.dropped, trace.rounds.iter().map(|r| r.dropped).sum());
    let peak =
        trace.rounds.iter().filter_map(|r| r.busiest_edge.map(|(_, _, b)| b)).max().unwrap_or(0);
    if peak > stats.max_edge_bits {
        out.push(Violation::TraceInconsistent {
            field: "busiest recorded edge",
            expected: stats.max_edge_bits,
            got: peak,
        });
    }
    if stats.max_edge_bits > cap {
        out.push(Violation::TraceInconsistent {
            field: "max edge load within cap",
            expected: cap,
            got: stats.max_edge_bits,
        });
    }
    out
}

/// Run `make()`'s protocol once, traced and fully audited, and return
/// every violation found: model breaches (with round/edge provenance) and
/// accounting inconsistencies between the trace and the statistics.
///
/// The network's fault plan, bandwidth, and round limit apply as
/// configured.
///
/// # Errors
///
/// Propagates hard runtime errors (wrong node count, round-limit or
/// retry-budget exhaustion). Model breaches do *not* error here — they are
/// the violations being collected.
pub fn check_protocol<P, F>(net: &Network<'_>, make: F) -> Result<Checked<P>, RuntimeError>
where
    P: NodeProtocol,
    F: FnOnce() -> Vec<P>,
{
    let out = net.exec(make()).traced().audited().run()?;
    let mut violations = out.violations;
    violations.extend(validate_trace(&out.stats, &out.trace, net.cap_bits()));
    Ok(Checked {
        report: ConformanceReport { violations, stats: out.stats },
        run: RunOutput { nodes: out.nodes, stats: out.stats, trace: out.trace, violations: () },
    })
}

/// A one-bit flood: the origin holds a token, every node forwards it once.
///
/// The simplest nontrivial CONGEST protocol — `D + 1` rounds, one bit per
/// edge per direction — used as the conformance probe and in the fault
/// experiments (its correctness condition, "every node has the token", is
/// checkable at a glance).
#[derive(Debug, Clone)]
pub struct FloodProtocol {
    /// Whether this node has received (or originated) the token.
    pub has_token: bool,
    /// Whether this node already forwarded the token to its neighbors.
    pub forwarded: bool,
}

/// The flood token: one bit on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodToken;

impl MessageSize for FloodToken {
    fn size_bits(&self) -> u64 {
        1
    }
}

impl FloodProtocol {
    /// One instance per node; only `origin` starts with the token.
    pub fn instances(n: usize, origin: NodeId) -> Vec<Self> {
        (0..n).map(|v| FloodProtocol { has_token: v == origin, forwarded: false }).collect()
    }
}

impl NodeProtocol for FloodProtocol {
    type Msg = FloodToken;

    fn on_round(&mut self, ctx: &mut Ctx<'_, FloodToken>, inbox: &[(NodeId, FloodToken)]) {
        if !inbox.is_empty() {
            self.has_token = true;
        }
        if self.has_token && !self.forwarded {
            ctx.broadcast(FloodToken);
            self.forwarded = true;
        }
    }

    fn is_done(&self) -> bool {
        self.forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, path};

    #[test]
    fn flood_probe_is_clean_everywhere() {
        for g in [path(12), grid(4, 5)] {
            let net = Network::new(&g);
            let checked = check_protocol(&net, || FloodProtocol::instances(g.n(), 0)).expect("run");
            assert!(checked.report.is_clean(), "{}", checked.report.render());
            assert!(checked.run.nodes.iter().all(|f| f.has_token));
            assert_eq!(checked.report.render(), "conformance: clean");
        }
    }

    #[test]
    fn validate_trace_flags_inconsistencies() {
        let g = path(5);
        let net = Network::new(&g);
        let out = net.exec(FloodProtocol::instances(5, 0)).traced().audited().run().expect("run");
        let (stats, mut trace) = (out.stats, out.trace);
        assert!(validate_trace(&stats, &trace, net.cap_bits()).is_empty());
        // Tamper with the trace: each identity must catch its breach.
        let mut miscounted = trace.clone();
        miscounted.rounds[0].messages += 1;
        let found = validate_trace(&stats, &miscounted, net.cap_bits());
        assert!(found
            .iter()
            .any(|v| matches!(v, Violation::TraceInconsistent { field: "message total", .. })));
        trace.rounds.pop();
        let found = validate_trace(&stats, &trace, net.cap_bits());
        assert!(found
            .iter()
            .any(|v| matches!(v, Violation::TraceInconsistent { field: "recorded rounds", .. })));
    }

    #[test]
    fn violations_render_with_provenance() {
        let v = Violation::CapExceeded { round: 3, from: 1, to: 2, bits: 40, cap: 20 };
        assert_eq!(v.to_string(), "round 3: edge 1->2 carried 40 bits, cap is 20");
        let v = Violation::NonNeighborSend { round: 5, from: 0, to: 9 };
        assert_eq!(v.to_string(), "round 5: node 0 sent to non-neighbor 9");
    }
}
