//! Semigroup aggregation of query batches — the query step of Theorem 8.
//!
//! After the leader distributes a batch of `p` query indices
//! `j₁, …, j_p ∈ [k]` (via [`crate::tree_comm`]), every node `v` holds the
//! `p` local query results `x_{jᵢ}^{(v)}`, each `q ≤ 64` bits. This module
//! computes `⊕_v x_{jᵢ}^{(v)}` for all `i` at the tree root:
//!
//! * leaves send their results up, **strictly in batch order** — the
//!   paper's schedule ("as soon as the leaves are done with the first
//!   query value they can start with the second"), which also means no
//!   per-chunk headers: the receiver counts;
//! * an internal node combines each child subtree value with its own using
//!   the commutative-semigroup operation `⊕`, **echoes each child's value
//!   back** so the child can uncompute its register (the quantum protocol
//!   must not leave entangled garbage), and forwards the combined value up;
//! * pipelining yields `O((D + p)·⌈q/log n⌉)` rounds instead of
//!   `O(D·p·⌈q/log n⌉)`.
//!
//! A node cannot stream a value bit-by-bit before its children's values
//! are complete (the `⊕` needs whole operands) — exactly the caveat in the
//! paper's proof of Theorem 8.

use crate::bfs::TreeView;
use crate::graph::NodeId;
use crate::runtime::{Ctx, MessageSize, Network, NodeProtocol, RunStats, RuntimeError};
use std::collections::VecDeque;

/// A commutative-semigroup operation on `q ≤ 64`-bit values, the `⊕` of
/// Theorem 8.
///
/// All variants are associative and commutative; `Sum` wraps modulo `2^64`
/// (the applications in the paper keep sums below `n·N`, well within range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// Wrapping addition.
    Sum,
    /// Bitwise XOR (the `⊕` of distributed Deutsch–Jozsa).
    Xor,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
}

impl CommOp {
    /// Combine two values.
    #[inline]
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            CommOp::Sum => a.wrapping_add(b),
            CommOp::Xor => a ^ b,
            CommOp::Min => a.min(b),
            CommOp::Max => a.max(b),
            CommOp::Or => a | b,
            CommOp::And => a & b,
        }
    }

    /// The identity element (for folds).
    #[inline]
    pub fn identity(self) -> u64 {
        match self {
            CommOp::Sum | CommOp::Xor | CommOp::Or => 0,
            CommOp::Min => u64::MAX,
            CommOp::Max => 0,
            CommOp::And => u64::MAX,
        }
    }

    /// Fold an iterator of values.
    pub fn fold<I: IntoIterator<Item = u64>>(self, iter: I) -> u64 {
        iter.into_iter().fold(self.identity(), |a, b| self.combine(a, b))
    }
}

/// A chunk of a value flowing up (`Up`) or echoed back down (`Echo`).
/// No index header: values travel strictly in batch order, so the receiver
/// counts chunks (`q` bits per value).
#[derive(Debug, Clone, Copy)]
pub enum AggMsg {
    /// Chunk of the sender's next in-order combined subtree value.
    Up {
        /// Number of payload bits in this chunk.
        nbits: u64,
        /// Payload bits.
        payload: u64,
    },
    /// Chunk of the echo of the recipient's next in-order contribution.
    Echo {
        /// Number of payload bits in this chunk.
        nbits: u64,
        /// Payload bits.
        payload: u64,
    },
}

impl MessageSize for AggMsg {
    fn size_bits(&self) -> u64 {
        match self {
            AggMsg::Up { nbits, .. } | AggMsg::Echo { nbits, .. } => 2 + nbits,
        }
    }
}

/// Incoming in-order chunk stream: reassembles consecutive `q`-bit values.
#[derive(Debug, Default, Clone)]
struct StreamIn {
    /// Next value index to complete.
    idx: usize,
    bits: u64,
    partial: u64,
}

impl StreamIn {
    /// Feed a chunk; returns a completed value if one just finished.
    fn feed(&mut self, q: u64, nbits: u64, payload: u64) -> Option<(usize, u64)> {
        self.partial |= (payload & mask(nbits)) << self.bits;
        self.bits += nbits;
        debug_assert!(self.bits <= q, "chunk overruns value boundary");
        if self.bits == q {
            let v = self.partial;
            let i = self.idx;
            self.idx += 1;
            self.bits = 0;
            self.partial = 0;
            Some((i, v))
        } else {
            None
        }
    }
}

/// Outgoing in-order chunk stream over a queue of whole values.
#[derive(Debug, Default, Clone)]
struct StreamOut {
    queue: VecDeque<u64>,
    bits_sent: u64,
}

impl StreamOut {
    fn push(&mut self, v: u64) {
        self.queue.push_back(v);
    }

    /// Produce the next chunk of up to `chunk` bits, if anything is queued.
    fn next_chunk(&mut self, q: u64, chunk: u64) -> Option<(u64, u64)> {
        let v = *self.queue.front()?;
        let len = chunk.min(q - self.bits_sent);
        let payload = (v >> self.bits_sent) & mask(len);
        self.bits_sent += len;
        if self.bits_sent == q {
            self.queue.pop_front();
            self.bits_sent = 0;
        }
        Some((len, payload))
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[inline]
fn mask(len: u64) -> u64 {
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Per-node state of the aggregation protocol, borrowing the node's tree
/// view for the run.
///
/// Every child streams its values strictly in index order, so index `i`
/// is complete here exactly when `i` is below every child's next stream
/// index: the node needs no per-index bookkeeping, and its Up stream is a
/// cursor over `acc`.
#[derive(Debug)]
pub struct AggregateBatchProtocol<'a> {
    tree: &'a TreeView,
    op: CommOp,
    q: u64,
    chunk_bits: u64,
    /// Combined subtree values (starts as this node's own results).
    acc: Vec<u64>,
    /// Next index to stream up, and the bits of it already sent.
    up_idx: usize,
    up_bits: u64,
    /// In-order reassembly per child, parallel to `tree.children`.
    child_in: Vec<StreamIn>,
    /// Echo streams per child (values echo in the order they arrived).
    echo_out: Vec<StreamOut>,
    /// Echo reassembly from the parent.
    echo_in: StreamIn,
    echoes_received: usize,
    /// Set if an echo did not match the value we sent (uncompute failure).
    echo_mismatch: bool,
}

impl<'a> AggregateBatchProtocol<'a> {
    /// Instances given tree views, per-node value vectors (all of length
    /// `p`, each moved into its node's accumulator), the value width
    /// `q ≤ 64`, the operation, and the chunk size.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent lengths, `q == 0`, `q > 64`, values not
    /// fitting in `q` bits, or `chunk_bits == 0`.
    pub fn instances(
        views: &'a [TreeView],
        values: Vec<Vec<u64>>,
        q: u64,
        op: CommOp,
        chunk_bits: u64,
    ) -> Vec<Self> {
        assert_eq!(views.len(), values.len());
        assert!((1..=64).contains(&q), "value width must be 1..=64 bits");
        assert!(chunk_bits > 0);
        let p = values.first().map_or(0, |v| v.len());
        views
            .iter()
            .zip(values)
            .map(|(view, vals)| {
                assert_eq!(vals.len(), p, "every node supplies p values");
                if q < 64 {
                    assert!(vals.iter().all(|&v| v < (1u64 << q)), "value wider than q bits");
                }
                let nc = view.children.len();
                AggregateBatchProtocol {
                    tree: view,
                    op,
                    q,
                    chunk_bits: chunk_bits.min(64),
                    acc: vals,
                    up_idx: 0,
                    up_bits: 0,
                    child_in: vec![StreamIn::default(); nc],
                    echo_out: vec![StreamOut::default(); nc],
                    echo_in: StreamIn::default(),
                    echoes_received: 0,
                    echo_mismatch: false,
                }
            })
            .collect()
    }

    /// The aggregated values (meaningful at the root after the run).
    pub fn aggregates(&self) -> &[u64] {
        &self.acc
    }

    /// Consume the node, returning its aggregated values.
    pub fn into_aggregates(self) -> Vec<u64> {
        self.acc
    }

    /// Whether an uncompute echo mismatched (protocol-bug detector).
    pub fn echo_mismatch(&self) -> bool {
        self.echo_mismatch
    }

    /// Number of leading indices whose subtree value is complete here:
    /// the minimum over children of the next index each child's in-order
    /// stream will deliver (`p` at a leaf).
    fn ready(&self) -> usize {
        self.child_in.iter().map(|s| s.idx).min().unwrap_or(self.acc.len())
    }

    fn child_pos(&self, c: NodeId) -> usize {
        self.tree
            .children
            .iter()
            .position(|&x| x == c)
            .expect("Up messages only flow from children")
    }
}

impl NodeProtocol for AggregateBatchProtocol<'_> {
    type Msg = AggMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, AggMsg>, inbox: &[(NodeId, AggMsg)]) {
        for (from, msg) in inbox {
            match *msg {
                AggMsg::Up { nbits, payload } => {
                    let pos = self.child_pos(*from);
                    if let Some((idx, v)) = self.child_in[pos].feed(self.q, nbits, payload) {
                        let combined = self.op.combine(self.acc[idx], v);
                        assert!(
                            self.q == 64 || combined < (1u64 << self.q),
                            "semigroup domain not closed: {combined} exceeds {} bits; \
                             pick q = log|A| large enough for aggregates (Theorem 8)",
                            self.q
                        );
                        self.acc[idx] = combined;
                        self.echo_out[pos].push(v);
                    }
                }
                AggMsg::Echo { nbits, payload } => {
                    if let Some((idx, v)) = self.echo_in.feed(self.q, nbits, payload) {
                        if v != self.acc[idx] {
                            self.echo_mismatch = true;
                        }
                        self.echoes_received += 1;
                    }
                }
            }
        }
        // Stream one Up chunk per round toward the parent, strictly in
        // index order; a complete value never changes again.
        if let Some(parent) = self.tree.parent {
            if self.up_idx < self.ready() {
                let len = self.chunk_bits.min(self.q - self.up_bits);
                let payload = (self.acc[self.up_idx] >> self.up_bits) & mask(len);
                self.up_bits += len;
                if self.up_bits == self.q {
                    self.up_idx += 1;
                    self.up_bits = 0;
                }
                ctx.send(parent, AggMsg::Up { nbits: len, payload });
            }
        }
        // Stream one Echo chunk per round toward each child.
        for (pos, &child) in self.tree.children.iter().enumerate() {
            if let Some((nbits, payload)) = self.echo_out[pos].next_chunk(self.q, self.chunk_bits) {
                ctx.send(child, AggMsg::Echo { nbits, payload });
            }
        }
    }

    fn is_done(&self) -> bool {
        let p = self.acc.len();
        let combined_all = self.ready() == p;
        let sent_all = self.tree.parent.is_none() || self.up_idx == p;
        let echoed_all = self.tree.parent.is_none() || self.echoes_received == p;
        let echo_out_done = self.echo_out.iter().all(|s| s.is_idle());
        combined_all && sent_all && echoed_all && echo_out_done
    }
}

/// Result of one aggregated query batch.
#[derive(Debug, Clone)]
pub struct BatchAggregate {
    /// `⊕_v x_{jᵢ}^{(v)}` for each batch index `i`.
    pub values: Vec<u64>,
    /// Measured statistics.
    pub stats: RunStats,
}

/// Driver: aggregate a batch of `p` per-node value vectors at the root of
/// `views` under `op`, with values of width `q ≤ 64` bits. The vectors are
/// consumed: each becomes its node's accumulator, and the root's is
/// returned.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
///
/// # Panics
///
/// Panics on the inputs [`AggregateBatchProtocol::instances`] rejects, on
/// an aggregate outside the `q`-bit domain, and if any node's uncompute
/// echo mismatched the value it sent up — a protocol bug, not an input
/// error.
pub fn aggregate_batch(
    net: &Network<'_>,
    views: &[TreeView],
    values: Vec<Vec<u64>>,
    q: u64,
    op: CommOp,
) -> Result<BatchAggregate, RuntimeError> {
    let chunk = net.cap_bits().saturating_sub(2).clamp(1, 64);
    let root = views.iter().position(|v| v.parent.is_none()).expect("tree has a root");
    let mut run = net.run(AggregateBatchProtocol::instances(views, values, q, op, chunk))?;
    assert!(run.nodes.iter().all(|n| !n.echo_mismatch()), "uncompute echo mismatch");
    let values = run.nodes.swap_remove(root).into_aggregates();
    Ok(BatchAggregate { values, stats: run.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::generators::{balanced_tree, path, random_connected, star};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn comm_op_laws() {
        let ops = [CommOp::Sum, CommOp::Xor, CommOp::Min, CommOp::Max, CommOp::Or, CommOp::And];
        let vals = [0u64, 1, 7, 255, 1 << 40, u64::MAX];
        for op in ops {
            for &a in &vals {
                assert_eq!(op.combine(a, op.identity()), a, "{op:?} identity");
                for &b in &vals {
                    assert_eq!(op.combine(a, b), op.combine(b, a), "{op:?} commutative");
                    for &c in &vals {
                        assert_eq!(
                            op.combine(op.combine(a, b), c),
                            op.combine(a, op.combine(b, c)),
                            "{op:?} associative"
                        );
                    }
                }
            }
        }
    }

    fn check_aggregate(g: &crate::graph::Graph, p: usize, q: u64, op: CommOp, seed: u64) -> usize {
        let net = Network::new(g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let full = if q == 64 { u64::MAX } else { (1u64 << q) - 1 };
        // Sum must stay inside the q-bit domain across all n nodes.
        let lim = if op == CommOp::Sum { (full / g.n() as u64).max(1) } else { full };
        let values: Vec<Vec<u64>> =
            (0..g.n()).map(|_| (0..p).map(|_| rng.gen_range(0..=lim)).collect()).collect();
        let agg = aggregate_batch(&net, &tree.views, values.clone(), q, op).unwrap();
        for i in 0..p {
            let want = op.fold(values.iter().map(|v| v[i]));
            assert_eq!(agg.values[i], want, "index {i} under {op:?}");
        }
        agg.stats.rounds
    }

    #[test]
    fn aggregates_match_reference_fold() {
        for op in [CommOp::Sum, CommOp::Xor, CommOp::Min, CommOp::Max, CommOp::Or, CommOp::And] {
            check_aggregate(&random_connected(20, 0.12, 5), 7, 16, op, 42);
        }
    }

    #[test]
    fn aggregate_on_families() {
        for g in [path(15), star(12), balanced_tree(2, 4)] {
            check_aggregate(&g, 5, 10, CommOp::Sum, 1);
        }
    }

    #[test]
    fn single_node_aggregate() {
        let g = crate::graph::Graph::from_edges(1, []).unwrap();
        check_aggregate(&g, 4, 8, CommOp::Max, 9);
    }

    #[test]
    fn wide_values_are_chunked() {
        // q = 64 > cap on a small graph forces chunking.
        let g = path(6);
        let rounds = check_aggregate(&g, 3, 64, CommOp::Xor, 3);
        assert!(rounds > 0);
    }

    #[test]
    fn large_batch_small_network() {
        // p = 512 >> n = 8: headerless in-order streaming must not break
        // the bandwidth cap (regression test for the log k > log n case).
        let g = path(8);
        let rounds = check_aggregate(&g, 512, 8, CommOp::Xor, 4);
        assert!(rounds >= 512, "at least one round per value on a path");
    }

    #[test]
    fn pipelining_beats_sequential_bound() {
        // (D + p) scaling, not D * p: on a path of length D with p values,
        // rounds must be well below p * D once both are large.
        let g = path(24);
        let d = 23usize;
        let p = 20usize;
        let rounds = check_aggregate(&g, p, 8, CommOp::Sum, 7);
        assert!(rounds < d * p, "rounds {rounds} should be ~(D + p), far below D*p = {}", d * p);
        assert!(rounds >= d, "information must cross the path");
    }

    #[test]
    fn empty_batch_is_trivial() {
        let g = path(4);
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let values: Vec<Vec<u64>> = vec![vec![]; 4];
        let agg = aggregate_batch(&net, &tree.views, values, 8, CommOp::Sum).unwrap();
        assert!(agg.values.is_empty());
        assert_eq!(agg.stats.rounds, 0);
    }

    #[test]
    fn wrong_echo_sets_mismatch() {
        // A leaf under parent 0 sends its value 5 up, then hears 4 back.
        let view = TreeView { parent: Some(0), children: vec![], depth: 1 };
        let mut node = AggregateBatchProtocol::instances(
            std::slice::from_ref(&view),
            vec![vec![5]],
            8,
            CommOp::Sum,
            8,
        )
        .pop()
        .unwrap();
        let neighbors = [0];
        let mut out = Vec::new();
        let mut round = |node: &mut AggregateBatchProtocol<'_>, inbox: &[(NodeId, AggMsg)]| {
            let mut ctx = Ctx::internal(1, 0, 2, 10, &neighbors, &mut out, None);
            node.on_round(&mut ctx, inbox);
        };
        round(&mut node, &[]);
        assert!(!node.echo_mismatch());
        round(&mut node, &[(0, AggMsg::Echo { nbits: 8, payload: 4 })]);
        assert!(node.echo_mismatch(), "a wrong echo must be detected");
        assert!(node.is_done(), "the run still completes; the driver reports the mismatch");
        assert_eq!(out.len(), 1, "exactly one Up chunk was sent");
    }
}
