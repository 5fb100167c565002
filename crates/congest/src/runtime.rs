//! The synchronous round engine.
//!
//! The (Quantum) CONGEST model proceeds in synchronous rounds: in each round
//! every node may send one message of `O(log n)` (qu)bits to each neighbor,
//! then receives its neighbors' messages and performs unlimited local
//! computation. The engine executes a per-node state machine
//! ([`NodeProtocol`]) round by round, enforces the per-edge bandwidth cap,
//! and counts rounds — the measured quantity in every experiment.
//!
//! Determinism: the engine itself is deterministic; protocols that need
//! randomness own a seeded RNG, so a whole run is reproducible from its
//! seeds. Each round calls every node in [`NodeId`] order on one thread and
//! routes each sender's outbox as soon as its `on_round` returns, so inbox
//! order, statistics, traces, and the first error of a failing run are all
//! fixed by node order alone. See `DESIGN.md`, "Engine internals".

use crate::conformance::Violation;
use crate::faults::{Delivery, FaultPlan};
use crate::graph::{bits_for, Graph, NodeId};
use crate::telemetry::{Collector, Shard};
use std::collections::VecDeque;
use std::fmt;

/// Size accounting for protocol messages.
///
/// Every message declares its size in (qu)bits; the engine sums sizes per
/// directed edge per round and rejects the run if any edge exceeds the cap.
/// Quantum payloads (e.g. the register chunks of Lemma 7) report their size
/// in qubits; the model treats classical bits and qubits identically for
/// bandwidth purposes.
pub trait MessageSize {
    /// The number of (qu)bits this message occupies on a link.
    fn size_bits(&self) -> u64;
}

/// A per-node protocol state machine.
///
/// One value of the implementing type exists per node. The engine calls
/// [`on_round`](Self::on_round) for every node in every round (round 0
/// delivers an empty inbox), collecting outgoing messages through
/// [`Ctx`].
pub trait NodeProtocol {
    /// Message type exchanged by this protocol.
    type Msg: Clone + MessageSize;

    /// One synchronous round: react to `inbox` (messages sent to this node
    /// in the previous round) and queue outgoing messages on `ctx`.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[(NodeId, Self::Msg)]);

    /// Whether this node has finished its part of the protocol. The run
    /// ends when every node is done and no messages are in flight.
    fn is_done(&self) -> bool;

    /// An error this node wants to abort the run with.
    ///
    /// The engine polls every node after each round (in node-id order, so
    /// the first failing node determines the error deterministically) and
    /// aborts the run with the reported error. The default never fails;
    /// wrappers like [`Reliable`](crate::faults::Reliable) use this to
    /// surface exhausted retry budgets as clean [`RuntimeError`]s instead
    /// of hanging until the round limit.
    fn failure(&self) -> Option<RuntimeError> {
        None
    }
}

/// Per-round context handed to a node: identity, topology view, and the
/// outbox.
///
/// A node only sees its own id, its neighbor list, and the global constants
/// `n` and the bandwidth cap — exactly the initial knowledge the CONGEST
/// model grants.
pub struct Ctx<'a, M> {
    me: NodeId,
    // (fields documented on the accessors)
    round: usize,
    n: usize,
    cap_bits: u64,
    neighbors: &'a [NodeId],
    out: &'a mut Vec<(NodeId, M)>,
    /// Telemetry staging buffer; `None` on untelemetered runs, so the
    /// instrumentation methods compile to a null check.
    tel: Option<&'a mut Shard>,
}

impl<M> fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("me", &self.me).field("round", &self.round).finish()
    }
}

impl<'a, M: MessageSize> Ctx<'a, M> {
    /// Crate-internal constructor for wrappers (e.g.
    /// [`Reliable`](crate::faults::Reliable)) that run an inner protocol's
    /// round against their own outbox buffer.
    pub(crate) fn internal(
        me: NodeId,
        round: usize,
        n: usize,
        cap_bits: u64,
        neighbors: &'a [NodeId],
        out: &'a mut Vec<(NodeId, M)>,
        tel: Option<&'a mut Shard>,
    ) -> Self {
        Ctx { me, round, n, cap_bits, neighbors, out, tel }
    }

    /// Reborrow this context's telemetry buffer so a wrapper (e.g.
    /// [`Reliable`](crate::faults::Reliable)) can hand it to an inner
    /// protocol's context.
    pub(crate) fn tel_shard(&mut self) -> Option<&mut Shard> {
        self.tel.as_deref_mut()
    }

    /// This node's identifier.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total number of nodes (global knowledge in the model).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-edge per-round bandwidth cap in (qu)bits.
    #[inline]
    pub fn cap_bits(&self) -> u64 {
        self.cap_bits
    }

    /// The sorted neighbor list of this node.
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Queue `msg` for delivery to neighbor `to` at the start of the next
    /// round.
    ///
    /// The engine validates that `to` is a neighbor and that the edge's
    /// bandwidth cap is respected; violations abort the run with an error
    /// rather than silently producing an unfaithful round count.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push((to, msg));
    }

    /// Queue `msg` to every neighbor.
    ///
    /// The final neighbor receives `msg` itself; only the first
    /// `degree - 1` deliveries pay for a clone.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        if let Some((&last, rest)) = self.neighbors.split_last() {
            self.out.reserve(self.neighbors.len());
            for &w in rest {
                self.out.push((w, msg.clone()));
            }
            self.out.push((last, msg));
        }
    }

    /// Emit an instant telemetry event at this node and round (e.g.
    /// `"became-leader"`). No-op unless the run records telemetry.
    #[inline]
    pub fn mark(&mut self, label: &str) {
        if let Some(t) = self.tel.as_deref_mut() {
            t.marks.push((self.me, label.to_string()));
        }
    }

    /// Add `v` to a named telemetry counter (e.g.
    /// `("reliable.retries", 1)`). No-op unless the run records telemetry;
    /// the static name means the disabled path allocates nothing.
    #[inline]
    pub fn count(&mut self, name: &'static str, v: u64) {
        if let Some(t) = self.tel.as_deref_mut() {
            t.counts.push((name, v));
        }
    }

    /// Record `v` in a named telemetry histogram (e.g. a backoff wait in
    /// rounds). No-op unless the run records telemetry.
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: u64) {
        if let Some(t) = self.tel.as_deref_mut() {
            t.observations.push((name, v));
        }
    }
}

/// Why a run was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum RuntimeError {
    /// A node addressed a message to a non-neighbor.
    NotANeighbor { round: usize, from: NodeId, to: NodeId },
    /// The traffic on a directed edge exceeded the cap in some round.
    BandwidthExceeded { round: usize, from: NodeId, to: NodeId, bits: u64, cap: u64 },
    /// The protocol did not terminate within the round limit.
    RoundLimitExceeded { limit: usize },
    /// The number of protocol instances does not match the node count.
    WrongNodeCount { expected: usize, got: usize },
    /// A [`Reliable`](crate::faults::Reliable) link exhausted its
    /// retransmission budget without receiving an acknowledgement.
    RetryBudgetExhausted { round: usize, from: NodeId, to: NodeId, attempts: u32 },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NotANeighbor { round, from, to } => {
                write!(f, "round {round}: node {from} sent to non-neighbor {to}")
            }
            RuntimeError::BandwidthExceeded { round, from, to, bits, cap } => {
                write!(f, "round {round}: edge {from}->{to} carried {bits} bits, cap is {cap}")
            }
            RuntimeError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not terminate within {limit} rounds")
            }
            RuntimeError::WrongNodeCount { expected, got } => {
                write!(f, "expected {expected} protocol instances, got {got}")
            }
            RuntimeError::RetryBudgetExhausted { round, from, to, attempts } => write!(
                f,
                "round {round}: link {from}->{to} gave up after {attempts} unacknowledged attempts"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Aggregate statistics of one protocol run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of communication rounds used (index of the last round in
    /// which any message was in flight, plus one).
    pub rounds: usize,
    /// Total number of messages delivered (immediately or after an
    /// injected delay; dropped messages are not counted here).
    pub messages: u64,
    /// Total (qu)bits delivered.
    pub total_bits: u64,
    /// The largest per-edge per-round load observed, in (qu)bits. Counts
    /// *offered* traffic — messages a fault plan later dropped still loaded
    /// the edge when they were sent.
    pub max_edge_bits: u64,
    /// Messages lost to fault injection (drops, link-down intervals, and
    /// degraded-cap overflow). Always 0 without a fault plan.
    pub dropped: u64,
}

impl RunStats {
    /// Merge stats of a subsequent phase into this one (rounds add up).
    pub fn absorb(&mut self, other: RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_edge_bits = self.max_edge_bits.max(other.max_edge_bits);
        self.dropped += other.dropped;
    }
}

/// Per-round record of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Messages sent this round that will be delivered (possibly late,
    /// under a delaying fault plan).
    pub messages: u64,
    /// Total (qu)bits in those messages.
    pub bits: u64,
    /// The most loaded directed edge `(from, to, bits)` this round, by
    /// offered traffic.
    ///
    /// Ties go to the first edge in sender order and then in each
    /// sender's first-touch order: if a node sends 5 bits to `a`, 10 bits
    /// to `b` and 5 more bits to `a`, both edges carry 10 bits and `a` is
    /// the busiest. An edge used only by zero-size messages counts with
    /// load 0, so a round whose only traffic is such messages still names
    /// one. `None` when nothing was sent to a neighbor.
    pub busiest_edge: Option<(NodeId, NodeId, u64)>,
    /// Messages sent this round that fault injection discarded.
    pub dropped: u64,
}

/// A per-round congestion trace produced by [`Exec::traced`].
///
/// # Examples
///
/// ```
/// use congest::generators::path;
/// use congest::runtime::Network;
/// use congest::bfs::BfsTreeProtocol;
///
/// let g = path(6);
/// let net = Network::new(&g);
/// let trace = net.exec(BfsTreeProtocol::instances(6, 0)).traced().run()?.trace;
/// assert!(!trace.rounds.is_empty());
/// println!("{}", trace.render(20));
/// # Ok::<(), congest::runtime::RuntimeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One entry per executed round.
    pub rounds: Vec<RoundTrace>,
}

impl Trace {
    /// The round with the highest bit volume, if any traffic flowed.
    ///
    /// Ties are resolved to the **first** such round. This tie-break is
    /// part of the API contract: peak rounds are compared when diffing
    /// traces across replays, so the choice must not depend on iteration
    /// internals.
    pub fn peak_round(&self) -> Option<(usize, &RoundTrace)> {
        let mut best: Option<(usize, &RoundTrace)> = None;
        for (i, r) in self.rounds.iter().enumerate() {
            if best.is_none_or(|(_, b): (usize, &RoundTrace)| r.bits > b.bits) {
                best = Some((i, r));
            }
        }
        best.filter(|(_, r)| r.bits > 0)
    }

    /// Total delivered bits.
    pub fn total_bits(&self) -> u64 {
        self.rounds.iter().map(|r| r.bits).sum()
    }

    /// Render an ASCII bit-volume histogram, `width` columns.
    ///
    /// Output is bounded: traces with at most `width` rounds get one
    /// exact line per round; longer traces are bucketed into at most
    /// `width` contiguous round groups (each line sums its group's bits
    /// and messages), so an 18 000-round trace renders in `width` lines
    /// instead of 18 000.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(1);
        let mut out = String::new();
        if self.rounds.len() <= width {
            let max = self.rounds.iter().map(|r| r.bits).max().unwrap_or(0).max(1);
            for (i, r) in self.rounds.iter().enumerate() {
                let bar = (r.bits * width as u64 / max) as usize;
                out.push_str(&format!(
                    "round {i:>4} | {:<width$} | {:>6} bits, {:>4} msgs\n",
                    "#".repeat(bar),
                    r.bits,
                    r.messages,
                    width = width
                ));
            }
            return out;
        }
        let per = self.rounds.len().div_ceil(width);
        let groups: Vec<(usize, usize, u64, u64)> = self
            .rounds
            .chunks(per)
            .enumerate()
            .map(|(g, chunk)| {
                let start = g * per;
                let end = start + chunk.len() - 1;
                let bits: u64 = chunk.iter().map(|r| r.bits).sum();
                let msgs: u64 = chunk.iter().map(|r| r.messages).sum();
                (start, end, bits, msgs)
            })
            .collect();
        let max = groups.iter().map(|&(_, _, b, _)| b).max().unwrap_or(0).max(1);
        for (start, end, bits, msgs) in groups {
            let bar = (bits * width as u64 / max) as usize;
            out.push_str(&format!(
                "rounds {start:>5}-{end:<5} | {:<width$} | {bits:>8} bits, {msgs:>6} msgs\n",
                "#".repeat(bar),
                width = width
            ));
        }
        out
    }
}

/// The engine's execution mode.
///
/// Kept only because the `perfbench/` benchmark calls
/// `Network::new(g).with_engine(EngineMode::Sequential)`. The engine has a
/// single round loop, so this enum has a single variant and
/// [`Network::with_engine`] does nothing. Both go with the next change to
/// `perfbench/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The single-threaded round loop, the only one there is.
    #[default]
    Sequential,
}

/// A CONGEST network: a topology plus execution parameters.
///
/// # Examples
///
/// ```
/// use congest::generators::path;
/// use congest::runtime::Network;
///
/// let g = path(8);
/// let net = Network::new(&g);
/// assert!(net.cap_bits() >= 3); // at least ⌈log₂ n⌉
/// ```
#[derive(Debug, Clone)]
pub struct Network<'g> {
    graph: &'g Graph,
    cap_bits: u64,
    max_rounds: usize,
    faults: Option<FaultPlan>,
}

/// Default bandwidth multiplier: each link carries up to
/// `DEFAULT_BANDWIDTH_FACTOR · ⌈log₂ n⌉` (qu)bits per round, the constant in
/// the model's `O(log n)` message size. A factor of 4 lets one message carry
/// a tag, a node id, a distance, and a value word without artificial
/// fragmentation.
pub const DEFAULT_BANDWIDTH_FACTOR: u64 = 4;

impl<'g> Network<'g> {
    /// A network over `graph` with the default bandwidth cap
    /// (`4⌈log₂ n⌉` bits) and a generous round limit.
    pub fn new(graph: &'g Graph) -> Self {
        let cap = DEFAULT_BANDWIDTH_FACTOR * bits_for(graph.n().saturating_sub(1) as u64);
        Network { graph, cap_bits: cap, max_rounds: 1_000_000, faults: None }
    }

    /// Override the per-edge per-round bandwidth cap.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn with_bandwidth(mut self, bits: u64) -> Self {
        assert!(bits > 0, "bandwidth cap must be positive");
        self.cap_bits = bits;
        self
    }

    /// Override the round limit after which a run is aborted.
    pub fn with_round_limit(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Does nothing. Kept only because the `perfbench/` benchmark calls
    /// `with_engine(EngineMode::Sequential)`; see [`EngineMode`].
    pub fn with_engine(self, _engine: EngineMode) -> Self {
        self
    }

    /// Attach a deterministic fault plan; subsequent runs inject its drops,
    /// outages, degradations, and delays at delivery time. See
    /// [`faults`](crate::faults) for the semantics and the determinism
    /// contract.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The per-edge per-round bandwidth cap in (qu)bits.
    pub fn cap_bits(&self) -> u64 {
        self.cap_bits
    }

    /// Execute `nodes[v]` as the protocol instance at node `v` until every
    /// node is done and no messages are in flight.
    ///
    /// To record traces, violations, or telemetry alongside the run, use
    /// the [`exec`](Self::exec) builder.
    ///
    /// # Errors
    ///
    /// Returns an error if a node sends to a non-neighbor, an edge exceeds
    /// the bandwidth cap, the round limit is hit, or `nodes.len() != n`.
    pub fn run<P: NodeProtocol>(&self, nodes: Vec<P>) -> Result<RunOutput<P>, RuntimeError> {
        self.run_recorded(nodes, Recorders::default())
    }

    /// Start building an observed run.
    ///
    /// `net.exec(nodes)` followed by any combination of
    /// [`traced`](Exec::traced), [`audited`](Exec::audited), and
    /// [`telemetry`](Exec::telemetry), finished with [`run`](Exec::run),
    /// returns a typed [`RunOutput`] carrying exactly the artifacts that
    /// were requested.
    ///
    /// # Examples
    ///
    /// ```
    /// use congest::generators::path;
    /// use congest::runtime::Network;
    /// use congest::bfs::BfsTreeProtocol;
    ///
    /// let g = path(6);
    /// let net = Network::new(&g);
    /// let out = net.exec(BfsTreeProtocol::instances(6, 0)).traced().run()?;
    /// assert_eq!(out.trace.rounds.len(), out.stats.rounds);
    /// # Ok::<(), congest::runtime::RuntimeError>(())
    /// ```
    pub fn exec<P: NodeProtocol>(&self, nodes: Vec<P>) -> Exec<'_, 'g, P> {
        Exec { net: self, nodes, trace: (), audit: (), tel: () }
    }

    /// The one round loop: execute `nodes` until every node is done and no
    /// message is in flight, feeding each round to the attached recorders.
    ///
    /// The trace and the collector see a round after its messages are
    /// routed and its nodes polled for [`NodeProtocol::failure`]; on
    /// success the trace is truncated to the measured round count and the
    /// collector's cursor advances by it. With an audit `Vec` attached,
    /// model breaches are pushed there instead of aborting the run.
    fn run_recorded<P: NodeProtocol>(
        &self,
        mut nodes: Vec<P>,
        mut rec: Recorders<'_>,
    ) -> Result<RunOutput<P>, RuntimeError> {
        let n = self.graph.n();
        if nodes.len() != n {
            return Err(RuntimeError::WrongNodeCount { expected: n, got: nodes.len() });
        }
        let tracing = rec.trace.is_some() || rec.tel.is_some();
        let mut core = ExecCore::new(n, tracing, rec.tel.is_some());
        if let Some(tel) = rec.tel.as_deref_mut() {
            tel.begin_engine_run();
        }
        for round in 0..self.max_rounds {
            let round_trace = core.run_round(self, round, &mut nodes, rec.audit.as_deref_mut())?;
            if let Some(e) = nodes.iter().find_map(|p| p.failure()) {
                return Err(e);
            }
            if let Some(trace) = rec.trace.as_deref_mut() {
                trace.rounds.push(round_trace);
            }
            if let (Some(tel), Some(shard)) = (rec.tel.as_deref_mut(), core.shard.as_mut()) {
                tel.engine_round(round_trace, shard);
            }
            // Delayed messages that matured this round arrive with the next
            // round's inboxes, after every regular send; like a regular
            // send, a matured delivery keeps the run active.
            if core.wheel.pop_due(&mut core.next_inboxes) {
                core.last_active_round = round + 1;
            }
            if core.quiescent() && nodes.iter().all(|p| p.is_done()) {
                core.stats.rounds = core.last_active_round;
                if let Some(trace) = rec.trace {
                    trace.rounds.truncate(core.stats.rounds);
                }
                if let Some(tel) = rec.tel {
                    tel.finish_engine_run(&core.stats);
                }
                return Ok(RunOutput { nodes, stats: core.stats, trace: (), violations: () });
            }
            core.advance();
        }
        Err(RuntimeError::RoundLimitExceeded { limit: self.max_rounds })
    }
}

/// The recorders one run feeds: a [`Trace`] gets every round's
/// [`RoundTrace`], an audit `Vec` every model breach, a [`Collector`]
/// every round's accounting and telemetry. `Network::run` attaches none.
#[derive(Default)]
struct Recorders<'a> {
    trace: Option<&'a mut Trace>,
    audit: Option<&'a mut Vec<Violation>>,
    tel: Option<&'a mut Collector>,
}

// A private module: other crates cannot name `Slot`, so the slot types
// stay the ones the builder methods pick.
mod sealed {
    use super::{Collector, Trace, Violation};

    /// A slot of the [`Exec`](super::Exec) builder: `()` when its artifact
    /// was not requested, else the artifact, lent to the run as `X`.
    pub trait Slot<X> {
        fn get(&mut self) -> Option<&mut X>;
    }

    impl<X> Slot<X> for () {
        fn get(&mut self) -> Option<&mut X> {
            None
        }
    }

    impl Slot<Trace> for Trace {
        fn get(&mut self) -> Option<&mut Trace> {
            Some(self)
        }
    }

    impl Slot<Vec<Violation>> for Vec<Violation> {
        fn get(&mut self) -> Option<&mut Vec<Violation>> {
            Some(self)
        }
    }

    impl Slot<Collector> for &mut Collector {
        fn get(&mut self) -> Option<&mut Collector> {
            Some(self)
        }
    }
}

/// A configured-but-not-yet-started run, created by [`Network::exec`].
///
/// The type parameters track which artifacts were requested: each of
/// [`traced`](Self::traced), [`audited`](Self::audited), and
/// [`telemetry`](Self::telemetry) fills its slot (callable once, enforced
/// at compile time), and [`run`](Self::run) returns a [`RunOutput`] typed
/// by the filled slots.
pub struct Exec<'n, 'g, P, T = (), A = (), C = ()> {
    net: &'n Network<'g>,
    nodes: Vec<P>,
    trace: T,
    audit: A,
    tel: C,
}

impl<P, T, A, C> fmt::Debug for Exec<'_, '_, P, T, A, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Exec").field("nodes", &self.nodes.len()).finish_non_exhaustive()
    }
}

impl<'n, 'g, P, A, C> Exec<'n, 'g, P, (), A, C> {
    /// Record a per-round [`Trace`] — message/bit counts and the busiest
    /// edge of every round — for congestion analysis and debugging. The
    /// trace is returned as [`RunOutput::trace`].
    pub fn traced(self) -> Exec<'n, 'g, P, Trace, A, C> {
        Exec {
            net: self.net,
            nodes: self.nodes,
            trace: Trace::default(),
            audit: self.audit,
            tel: self.tel,
        }
    }
}

impl<'n, 'g, P, T, C> Exec<'n, 'g, P, T, (), C> {
    /// Run in *audit mode*: model breaches (bandwidth-cap overflow,
    /// non-neighbor sends) are recorded as [`Violation`]s with round/edge
    /// provenance instead of aborting the run, and every breach is
    /// reported rather than just the first.
    ///
    /// Audited cap overflows still deliver their message; audited
    /// non-neighbor sends are discarded (there is no edge to carry them).
    /// The findings are returned as [`RunOutput::violations`], in
    /// deterministic (round, then sender) order. This is the substrate of [`conformance`](crate::conformance).
    pub fn audited(self) -> Exec<'n, 'g, P, T, Vec<Violation>, C> {
        Exec {
            net: self.net,
            nodes: self.nodes,
            trace: self.trace,
            audit: Vec::new(),
            tel: self.tel,
        }
    }
}

impl<'n, 'g, P, T, A> Exec<'n, 'g, P, T, A, ()> {
    /// Record structured telemetry into `tel`: per-round samples, per-edge
    /// cumulative load, and any marks/counters/histograms the protocol
    /// emits through [`Ctx::mark`]/[`Ctx::count`]/[`Ctx::observe`]. The
    /// run is wrapped in no span — callers typically bracket it with
    /// [`Collector::enter`]/[`Collector::exit`]; the collector's cursor
    /// advances by the run's measured rounds.
    ///
    /// Recording is deterministic: the same run produces byte-identical
    /// collector exports (see the [`telemetry`](crate::telemetry) module
    /// docs for the contract).
    pub fn telemetry<'c>(self, tel: &'c mut Collector) -> Exec<'n, 'g, P, T, A, &'c mut Collector> {
        Exec { net: self.net, nodes: self.nodes, trace: self.trace, audit: self.audit, tel }
    }
}

impl<P, T, A, C> Exec<'_, '_, P, T, A, C>
where
    P: NodeProtocol,
    T: sealed::Slot<Trace>,
    A: sealed::Slot<Vec<Violation>>,
    C: sealed::Slot<Collector>,
{
    /// Execute the run (like [`Network::run`]).
    ///
    /// # Errors
    ///
    /// Same as [`Network::run`], except that when [`audited`](Self::audited)
    /// was requested, model breaches become [`RunOutput::violations`]
    /// instead of errors.
    pub fn run(self) -> Result<RunOutput<P, T, A>, RuntimeError> {
        let Exec { net, nodes, mut trace, mut audit, mut tel } = self;
        let rec = Recorders { trace: trace.get(), audit: audit.get(), tel: tel.get() };
        let run = net.run_recorded(nodes, rec)?;
        Ok(RunOutput { nodes: run.nodes, stats: run.stats, trace, violations: audit })
    }
}

/// The typed result of a built run (see [`Network::exec`]).
///
/// `trace` and `violations` are typed by the builder calls that requested
/// them: `()` when not requested, a [`Trace`] after [`Exec::traced`], a
/// `Vec<Violation>` after [`Exec::audited`]. Telemetry is written into the
/// borrowed [`Collector`] and does not appear here.
#[derive(Debug)]
pub struct RunOutput<P, T = (), A = ()> {
    /// Final per-node protocol states, indexed by [`NodeId`].
    pub nodes: Vec<P>,
    /// Measured statistics.
    pub stats: RunStats,
    /// Per-round congestion trace ([`Exec::traced`]), else `()`.
    pub trace: T,
    /// Audit findings in deterministic order ([`Exec::audited`]), else `()`.
    pub violations: A,
}

/// The state of one run: the inbox double-buffer, the delay wheel, the
/// reused outbox, router, and telemetry shard, and the run statistics.
/// [`Network::run_recorded`] drives its round loop over this core, reusing
/// every buffer round after round so the steady state allocates nothing.
struct ExecCore<M> {
    inboxes: Vec<Vec<(NodeId, M)>>,
    next_inboxes: Vec<Vec<(NodeId, M)>>,
    wheel: DelayWheel<M>,
    /// The current sender's outbox; always empty between senders.
    outbox: Vec<(NodeId, M)>,
    router: Router,
    /// Whether a [`Trace`] or a [`Collector`] reads each round's busiest
    /// edge; only then is it kept.
    tracing: bool,
    /// Telemetry emitted this round, in node order, which the collector
    /// drains at the end of the round; `None` on untelemetered runs.
    shard: Option<Shard>,
    stats: RunStats,
    last_active_round: usize,
}

impl<M: MessageSize> ExecCore<M> {
    fn new(n: usize, tracing: bool, telemetering: bool) -> Self {
        ExecCore {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            next_inboxes: (0..n).map(|_| Vec::new()).collect(),
            wheel: DelayWheel::new(),
            outbox: Vec::new(),
            router: Router::default(),
            tracing,
            shard: telemetering.then(Shard::default),
            stats: RunStats::default(),
            last_active_round: 0,
        }
    }

    /// Run one round: call every node's `on_round` in id order and route
    /// its outbox as soon as it returns. Returns the round's trace, or the
    /// first non-audited model breach, which is the first in node order
    /// because routing follows node order.
    fn run_round<P: NodeProtocol<Msg = M>>(
        &mut self,
        net: &Network<'_>,
        round: usize,
        nodes: &mut [P],
        mut audit: Option<&mut Vec<Violation>>,
    ) -> Result<RoundTrace, RuntimeError> {
        let n = nodes.len();
        let mut trace = RoundTrace::default();
        let mut any_sent = false;
        for (v, node) in nodes.iter_mut().enumerate() {
            let neighbors = net.graph.neighbors(v);
            let mut ctx = Ctx {
                me: v,
                round,
                n,
                cap_bits: net.cap_bits,
                neighbors,
                out: &mut self.outbox,
                tel: self.shard.as_mut(),
            };
            node.on_round(&mut ctx, &self.inboxes[v]);
            if !self.outbox.is_empty() {
                any_sent = true;
                self.route_outbox(net, v, neighbors, round, &mut trace, audit.as_deref_mut())?;
            }
        }
        self.stats.messages += trace.messages;
        self.stats.total_bits += trace.bits;
        self.stats.dropped += trace.dropped;
        if any_sent {
            self.last_active_round = round + 1;
        }
        Ok(trace)
    }

    /// Validate the outbox of sender `from`, whose sorted adjacency is
    /// `neighbors`, against the model, apply fault verdicts, and deliver
    /// each surviving message straight into the next round's inboxes (or
    /// the delay wheel).
    ///
    /// Each message costs one `O(log deg)` rank lookup, one cap check, the
    /// counters and the push. When no edge carries two messages (see
    /// [`may_reuse_an_edge`]), a message's size is its edge's load; only
    /// other outboxes accumulate per-edge loads in the [`Router`]. The
    /// round's busiest edge and the telemetry edge feed are kept only when
    /// a trace or a collector reads them.
    ///
    /// A model breach aborts the run with an error, unless the run audits:
    /// then it is pushed onto `audit` and the outbox keeps draining
    /// (audited cap overflows still deliver; audited non-neighbor sends are
    /// discarded, as there is no edge to carry them).
    ///
    /// Always inlined into its one call site, `run_round`'s sender loop:
    /// the compiler keeps this large body out of line otherwise, and on
    /// small networks the per-sender call is a measurable share of a round.
    #[inline(always)]
    fn route_outbox(
        &mut self,
        net: &Network<'_>,
        from: NodeId,
        neighbors: &[NodeId],
        round: usize,
        trace: &mut RoundTrace,
        mut audit: Option<&mut Vec<Violation>>,
    ) -> Result<(), RuntimeError> {
        let ExecCore { next_inboxes, wheel, outbox, router, shard, stats, tracing, .. } = self;
        let cap = net.cap_bits;
        let accumulate = may_reuse_an_edge(outbox);
        if accumulate {
            router.fit(neighbors.len());
        }
        let mut edges = shard.as_mut().map(|s| &mut s.edges);
        for (idx, (to, msg)) in outbox.drain(..).enumerate() {
            let Ok(rank) = neighbors.binary_search(&to) else {
                let Some(audit) = audit.as_deref_mut() else {
                    return Err(RuntimeError::NotANeighbor { round, from, to });
                };
                audit.push(Violation::NonNeighborSend { round, from, to });
                continue; // no edge exists to carry the message
            };
            let bits = msg.size_bits();
            let load = if accumulate { router.add(rank, bits) } else { bits };
            stats.max_edge_bits = stats.max_edge_bits.max(load);
            if load > cap {
                let Some(audit) = audit.as_deref_mut() else {
                    return Err(RuntimeError::BandwidthExceeded {
                        round,
                        from,
                        to,
                        bits: load,
                        cap,
                    });
                };
                audit.push(Violation::CapExceeded { round, from, to, bits: load, cap });
            }
            if *tracing && !accumulate {
                note_edge(trace, &mut edges, from, to, load);
            }
            // Model validation passed (or was audited); now the fault plan
            // decides the message's fate. Dropped messages still loaded the
            // edge above — only delivery accounting skips them.
            let mut delay = 0;
            if let Some(plan) = &net.faults {
                // Outages and tail-drops beyond a degraded cap both lose
                // the message; otherwise the seeded hash decides.
                let verdict = if plan.link_is_down(round, from, to)
                    || plan.degraded_cap(from, to).is_some_and(|c| load > c)
                {
                    Delivery::Drop
                } else {
                    plan.decide(round, from, to, idx)
                };
                match verdict {
                    Delivery::Drop => {
                        trace.dropped += 1;
                        continue;
                    }
                    Delivery::Delay(d) => delay = d,
                    Delivery::Deliver => {}
                }
            }
            trace.messages += 1;
            trace.bits += bits;
            if delay == 0 {
                next_inboxes[to].push((from, msg));
            } else {
                wheel.schedule(delay, to, from, msg);
            }
        }
        if accumulate {
            router.flush(from, neighbors, tracing.then_some(trace), edges);
        }
        Ok(())
    }

    /// Whether no message is waiting for the next round (inboxes and the
    /// delay wheel are empty).
    fn quiescent(&self) -> bool {
        !self.next_inboxes.iter().any(|b| !b.is_empty()) && self.wheel.is_empty()
    }

    /// Swap the inbox double-buffer for the next round.
    fn advance(&mut self) {
        for (inbox, next) in self.inboxes.iter_mut().zip(self.next_inboxes.iter_mut()) {
            inbox.clear();
            std::mem::swap(inbox, next);
        }
    }
}

/// Whether `outbox` may put two messages on one edge. The answer is exact
/// when the targets after the first strictly ascend, which covers
/// one-message outboxes, broadcasts, child loops, and a message to the
/// parent followed by a child loop; any other outbox answers `true`.
fn may_reuse_an_edge<M>(outbox: &[(NodeId, M)]) -> bool {
    let Some(((first, _), rest)) = outbox.split_first() else { return false };
    !rest.windows(2).all(|w| w[0].0 < w[1].0)
        || rest.binary_search_by_key(first, |&(to, _)| to).is_ok()
}

/// Rank-indexed per-edge loads of one sender whose outbox may put more
/// than one message on an edge.
///
/// `slots[r]` is the bits queued this round on the edge to the sender's
/// rank-`r` neighbor; `touched` lists the dirty ranks in first-touch order,
/// so resetting costs `O(edges used)`, not `O(degree)`. A zero-size message
/// may push its rank twice, which only makes the flush revisit a slot it
/// already cleared. The slots grow to the largest degree that needs them.
#[derive(Debug, Default)]
struct Router {
    slots: Vec<u64>,
    touched: Vec<usize>,
}

impl Router {
    /// Make room for a sender of degree `degree`.
    fn fit(&mut self, degree: usize) {
        if self.slots.len() < degree {
            self.slots.resize(degree, 0);
        }
    }

    /// Add `bits` to the edge of rank `rank`; returns the edge's load.
    #[inline]
    fn add(&mut self, rank: usize, bits: u64) -> u64 {
        if self.slots[rank] == 0 {
            self.touched.push(rank);
        }
        self.slots[rank] += bits;
        self.slots[rank]
    }

    /// Reset the slots for the next sender, first folding each touched
    /// edge's final load, in first-touch order, into the round's busiest
    /// edge and the telemetry edge feed when `trace` is given.
    fn flush(
        &mut self,
        from: NodeId,
        neighbors: &[NodeId],
        mut trace: Option<&mut RoundTrace>,
        mut edges: Option<&mut Vec<(NodeId, NodeId, u64)>>,
    ) {
        for &r in &self.touched {
            let load = std::mem::take(&mut self.slots[r]);
            if let Some(trace) = trace.as_deref_mut() {
                note_edge(trace, &mut edges, from, neighbors[r], load);
            }
        }
        self.touched.clear();
    }
}

/// Fold the final load of edge `(from, to)` into the round's busiest edge,
/// which stays the first edge with the strictly largest load, and into the
/// telemetry edge feed, which skips zero loads.
#[inline]
fn note_edge(
    trace: &mut RoundTrace,
    edges: &mut Option<&mut Vec<(NodeId, NodeId, u64)>>,
    from: NodeId,
    to: NodeId,
    load: u64,
) {
    if trace.busiest_edge.is_none_or(|(_, _, b)| load > b) {
        trace.busiest_edge = Some((from, to, load));
    }
    if load > 0 {
        if let Some(sink) = edges.as_deref_mut() {
            sink.push((from, to, load));
        }
    }
}

/// Future deliveries scheduled by a delaying fault plan.
///
/// Slot `d` holds the messages that mature `d` round boundaries from now:
/// at the end of each round the front slot is appended (in scheduling
/// order) to the next round's inboxes, after all regular sends. Scheduling
/// order is sender order within a round and round order across rounds, so
/// arrival order is fixed by node order.
#[derive(Debug)]
struct DelayWheel<M> {
    slots: VecDeque<Vec<(NodeId, NodeId, M)>>,
}

impl<M> DelayWheel<M> {
    fn new() -> Self {
        DelayWheel { slots: VecDeque::new() }
    }

    /// Schedule `msg` to arrive `delay` rounds later than normal delivery.
    fn schedule(&mut self, delay: usize, to: NodeId, from: NodeId, msg: M) {
        while self.slots.len() <= delay {
            self.slots.push_back(Vec::new());
        }
        self.slots[delay].push((to, from, msg));
    }

    /// Move the messages that mature at this round boundary into
    /// `next_inboxes`; returns whether anything was delivered.
    fn pop_due(&mut self, next_inboxes: &mut [Vec<(NodeId, M)>]) -> bool {
        match self.slots.pop_front() {
            Some(due) if !due.is_empty() => {
                for (to, from, msg) in due {
                    next_inboxes[to].push((from, msg));
                }
                true
            }
            _ => false,
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// A named-phase ledger used by drivers that compose several protocol runs
/// (leader election, then BFS, then `b` query batches, …) into one
/// algorithm, as the paper's proofs do.
///
/// # Examples
///
/// ```
/// use congest::runtime::{RoundLedger, RunStats};
///
/// let mut ledger = RoundLedger::new();
/// ledger.record("bfs", RunStats { rounds: 7, ..Default::default() });
/// ledger.record("query-batch", RunStats { rounds: 12, ..Default::default() });
/// assert_eq!(ledger.total_rounds(), 19);
/// assert_eq!(ledger.phases().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundLedger {
    phases: Vec<(String, RunStats)>,
}

impl RoundLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed phase.
    pub fn record(&mut self, name: &str, stats: RunStats) {
        self.phases.push((name.to_string(), stats));
    }

    /// All recorded phases in order.
    pub fn phases(&self) -> &[(String, RunStats)] {
        &self.phases
    }

    /// Total rounds across phases — the algorithm's round complexity.
    pub fn total_rounds(&self) -> usize {
        self.phases.iter().map(|(_, s)| s.rounds).sum()
    }

    /// Total rounds spent in phases whose name starts with `prefix`.
    pub fn rounds_for(&self, prefix: &str) -> usize {
        self.phases.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, s)| s.rounds).sum()
    }

    /// Sum of all message counts.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.messages).sum()
    }

    /// Sum of all delivered (qu)bits.
    pub fn total_bits(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.total_bits).sum()
    }

    /// Fold another ledger's phases into this one, prefixing their names.
    pub fn absorb(&mut self, prefix: &str, other: RoundLedger) {
        for (name, stats) in other.phases {
            self.phases.push((format!("{prefix}/{name}"), stats));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path, star};

    /// A flood protocol: node 0 emits a token; everyone forwards it once.
    #[derive(Debug)]
    struct Flood {
        has_token: bool,
        forwarded: bool,
    }

    #[derive(Clone, Debug)]
    struct Token;

    impl MessageSize for Token {
        fn size_bits(&self) -> u64 {
            1
        }
    }

    impl NodeProtocol for Flood {
        type Msg = Token;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, inbox: &[(NodeId, Token)]) {
            if !inbox.is_empty() {
                self.has_token = true;
            }
            if self.has_token && !self.forwarded {
                ctx.broadcast(Token);
                self.forwarded = true;
            }
        }
        fn is_done(&self) -> bool {
            self.forwarded
        }
    }

    fn flood_nodes(n: usize) -> Vec<Flood> {
        (0..n).map(|v| Flood { has_token: v == 0, forwarded: false }).collect()
    }

    #[test]
    fn flood_takes_diameter_rounds() {
        let g = path(10);
        let run = Network::new(&g).run(flood_nodes(10)).unwrap();
        assert!(run.nodes.iter().all(|f| f.has_token));
        // Node 0 sends in round 0; node 9 receives in round 9's inbox and
        // forwards in round 9. Last message in flight was sent in round 9.
        assert_eq!(run.stats.rounds, 10);
    }

    #[test]
    fn flood_on_star_takes_two_rounds() {
        let g = star(12);
        let run = Network::new(&g).run(flood_nodes(12)).unwrap();
        assert!(run.nodes.iter().all(|f| f.has_token));
        assert_eq!(run.stats.rounds, 2);
    }

    #[test]
    fn message_and_bit_counts() {
        let g = path(3);
        let run = Network::new(&g).run(flood_nodes(3)).unwrap();
        // 0 -> 1 ; 1 -> {0, 2} ; 2 -> 1 : four messages of one bit.
        assert_eq!(run.stats.messages, 4);
        assert_eq!(run.stats.total_bits, 4);
        assert_eq!(run.stats.max_edge_bits, 1);
    }

    /// Protocol that tries to push too many bits across an edge.
    #[derive(Debug)]
    struct Hog {
        sent: bool,
    }

    #[derive(Clone, Debug)]
    struct Big(u64);

    impl MessageSize for Big {
        fn size_bits(&self) -> u64 {
            self.0
        }
    }

    impl NodeProtocol for Hog {
        type Msg = Big;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(NodeId, Big)]) {
            if ctx.me() == 0 && !self.sent {
                let cap = ctx.cap_bits();
                ctx.send(1, Big(cap + 1));
                self.sent = true;
            } else {
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn bandwidth_cap_enforced() {
        let g = path(2);
        let err = Network::new(&g).run(vec![Hog { sent: false }, Hog { sent: false }]).unwrap_err();
        assert!(matches!(err, RuntimeError::BandwidthExceeded { .. }));
    }

    #[test]
    fn split_messages_also_capped() {
        // Two messages whose sum exceeds the cap must also be rejected.
        #[derive(Debug)]
        struct TwoSends {
            sent: bool,
        }
        impl NodeProtocol for TwoSends {
            type Msg = Big;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(NodeId, Big)]) {
                if ctx.me() == 0 && !self.sent {
                    let cap = ctx.cap_bits();
                    ctx.send(1, Big(cap));
                    ctx.send(1, Big(1));
                }
                self.sent = true;
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let g = path(2);
        let err = Network::new(&g)
            .run(vec![TwoSends { sent: false }, TwoSends { sent: false }])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BandwidthExceeded { .. }));
    }

    #[test]
    fn non_neighbor_send_rejected() {
        #[derive(Debug)]
        struct Bad {
            sent: bool,
        }
        impl NodeProtocol for Bad {
            type Msg = Token;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {
                if ctx.me() == 0 && !self.sent {
                    ctx.send(2, Token); // 0 and 2 are not adjacent on a path
                }
                self.sent = true;
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let g = path(3);
        let err = Network::new(&g).run((0..3).map(|_| Bad { sent: false }).collect()).unwrap_err();
        assert!(matches!(err, RuntimeError::NotANeighbor { from: 0, to: 2, .. }));
    }

    #[test]
    fn round_limit_enforced() {
        /// Never terminates: keeps bouncing the token.
        #[derive(Debug)]
        struct Forever;
        impl NodeProtocol for Forever {
            type Msg = Token;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {
                ctx.broadcast(Token);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = path(2);
        let err = Network::new(&g).with_round_limit(10).run(vec![Forever, Forever]).unwrap_err();
        assert_eq!(err, RuntimeError::RoundLimitExceeded { limit: 10 });
    }

    #[test]
    fn wrong_node_count_rejected() {
        let g = path(3);
        let err = Network::new(&g).run(flood_nodes(2)).unwrap_err();
        assert_eq!(err, RuntimeError::WrongNodeCount { expected: 3, got: 2 });
    }

    #[test]
    fn silent_protocol_uses_zero_rounds() {
        #[derive(Debug)]
        struct Quiet;
        impl NodeProtocol for Quiet {
            type Msg = Token;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = path(4);
        let run = Network::new(&g).run(vec![Quiet, Quiet, Quiet, Quiet]).unwrap();
        assert_eq!(run.stats.rounds, 0);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let g = path(6);
        let net = Network::new(&g);
        let plain = net.run(flood_nodes(6)).unwrap();
        let traced = net.exec(flood_nodes(6)).traced().run().unwrap();
        let trace = traced.trace;
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(trace.rounds.len(), traced.stats.rounds);
        assert_eq!(trace.total_bits(), traced.stats.total_bits);
        let (peak_round, peak) = trace.peak_round().unwrap();
        assert!(peak.bits >= 1 && peak_round < trace.rounds.len());
        assert!(trace.render(10).contains("round"));
    }

    #[test]
    fn trace_busiest_edge_within_cap() {
        let g = star(8);
        let net = Network::new(&g);
        let trace = net.exec(flood_nodes(8)).traced().run().unwrap().trace;
        for r in &trace.rounds {
            if let Some((_, _, bits)) = r.busiest_edge {
                assert!(bits <= net.cap_bits());
            }
        }
    }

    #[test]
    fn trace_render_output_is_bounded() {
        // E6-sized traces (~18k rounds) must render in at most `width`
        // lines, not one line per round.
        let mut trace = Trace::default();
        for i in 0..18_000u64 {
            trace.rounds.push(RoundTrace {
                messages: 1 + i % 7,
                bits: 8 + i % 129,
                busiest_edge: None,
                dropped: 0,
            });
        }
        let rendered = trace.render(40);
        assert!(rendered.lines().count() <= 40, "{} lines", rendered.lines().count());
        assert!(rendered.contains("rounds "));
        // The grouped lines still account for every bit and message.
        let bits_sum: u64 = rendered
            .lines()
            .map(|l| {
                let tail = l.split('|').nth(2).unwrap();
                tail.split_whitespace().next().unwrap().parse::<u64>().unwrap()
            })
            .sum();
        assert_eq!(bits_sum, trace.total_bits());
        // Small traces keep the exact per-round form.
        let mut small = Trace::default();
        for _ in 0..5 {
            small.rounds.push(RoundTrace { messages: 1, bits: 4, ..Default::default() });
        }
        let rendered = small.render(40);
        assert_eq!(rendered.lines().count(), 5);
        assert!(rendered.contains("round    0 |"));
    }

    #[test]
    fn peak_round_ties_break_to_first() {
        let mut trace = Trace::default();
        for bits in [3u64, 9, 1, 9, 2] {
            trace.rounds.push(RoundTrace { messages: 1, bits, ..Default::default() });
        }
        let (idx, peak) = trace.peak_round().unwrap();
        assert_eq!(idx, 1, "tie between rounds 1 and 3 must pin to the first");
        assert_eq!(peak.bits, 9);
        // All-quiet traces report no peak.
        let quiet = Trace { rounds: vec![RoundTrace::default(); 4] };
        assert!(quiet.peak_round().is_none());
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = RoundLedger::new();
        ledger.record(
            "a",
            RunStats { rounds: 3, messages: 5, total_bits: 50, max_edge_bits: 10, dropped: 0 },
        );
        ledger.record(
            "a2",
            RunStats { rounds: 4, messages: 1, total_bits: 8, max_edge_bits: 8, dropped: 0 },
        );
        ledger.record("b", RunStats { rounds: 2, ..Default::default() });
        assert_eq!(ledger.total_rounds(), 9);
        assert_eq!(ledger.rounds_for("a"), 7);
        assert_eq!(ledger.total_messages(), 6);
        assert_eq!(ledger.total_bits(), 58);
        let mut outer = RoundLedger::new();
        outer.absorb("phase1", ledger);
        assert_eq!(outer.total_rounds(), 9);
        assert!(outer.phases()[0].0.starts_with("phase1/"));
    }
}
