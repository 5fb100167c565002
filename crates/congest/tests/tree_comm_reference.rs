//! Differential test of the tree-communication protocols against reference
//! copies of their earlier, straightforward implementation: owned tree
//! views, a per-index count of missing children, a queued Up stream and
//! cloned registers.
//!
//! The optimized protocols must reproduce the reference round for round:
//! the same per-round [`RoundTrace`](congest::runtime::RoundTrace), the same
//! [`RunStats`], the same aggregates at every node and the same register
//! copy at every node, on both broadcast schedules.

use congest::aggregate::{AggregateBatchProtocol, CommOp};
use congest::bfs::build_bfs_tree;
use congest::generators::{balanced_tree, dumbbell, path, random_connected, star};
use congest::graph::{Graph, NodeId};
use congest::runtime::{Network, NodeProtocol, RunStats, Trace};
use congest::tree_comm::{BroadcastRegisterProtocol, GatherRegisterProtocol, Register, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference implementations, kept as they were before the per-node state
/// was slimmed down.
mod reference {
    use congest::aggregate::{AggMsg, CommOp};
    use congest::bfs::TreeView;
    use congest::graph::NodeId;
    use congest::runtime::{Ctx, NodeProtocol};
    use congest::tree_comm::{Chunk, Register, Schedule};
    use std::collections::VecDeque;

    #[derive(Debug, Default, Clone)]
    struct StreamIn {
        idx: usize,
        bits: u64,
        partial: u64,
    }

    impl StreamIn {
        fn feed(&mut self, q: u64, nbits: u64, payload: u64) -> Option<(usize, u64)> {
            self.partial |= (payload & mask(nbits)) << self.bits;
            self.bits += nbits;
            assert!(self.bits <= q, "chunk overruns value boundary");
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

    #[derive(Debug, Default, Clone)]
    struct StreamOut {
        queue: VecDeque<u64>,
        bits_sent: u64,
    }

    impl StreamOut {
        fn push(&mut self, v: u64) {
            self.queue.push_back(v);
        }

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

    fn mask(len: u64) -> u64 {
        if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        }
    }

    #[derive(Debug)]
    pub struct Aggregate {
        tree: TreeView,
        op: CommOp,
        q: u64,
        p: usize,
        chunk_bits: u64,
        pub acc: Vec<u64>,
        missing: Vec<usize>,
        next_up: usize,
        up_out: StreamOut,
        child_in: Vec<StreamIn>,
        echo_out: Vec<StreamOut>,
        echo_in: StreamIn,
        echoes_received: usize,
        pub echo_mismatch: bool,
    }

    impl Aggregate {
        pub fn instances(
            views: &[TreeView],
            values: &[Vec<u64>],
            q: u64,
            op: CommOp,
            chunk_bits: u64,
        ) -> Vec<Self> {
            let p = values.first().map_or(0, |v| v.len());
            views
                .iter()
                .zip(values)
                .map(|(view, vals)| {
                    let nc = view.children.len();
                    Aggregate {
                        tree: view.clone(),
                        op,
                        q,
                        p,
                        chunk_bits: chunk_bits.min(64),
                        acc: vals.clone(),
                        missing: vec![nc; p],
                        next_up: 0,
                        up_out: StreamOut::default(),
                        child_in: vec![StreamIn::default(); nc],
                        echo_out: vec![StreamOut::default(); nc],
                        echo_in: StreamIn::default(),
                        echoes_received: 0,
                        echo_mismatch: false,
                    }
                })
                .collect()
        }

        fn child_pos(&self, c: NodeId) -> usize {
            self.tree.children.iter().position(|&x| x == c).expect("Up only from children")
        }
    }

    impl NodeProtocol for Aggregate {
        type Msg = AggMsg;

        fn on_round(&mut self, ctx: &mut Ctx<'_, AggMsg>, inbox: &[(NodeId, AggMsg)]) {
            for (from, msg) in inbox {
                match *msg {
                    AggMsg::Up { nbits, payload } => {
                        let pos = self.child_pos(*from);
                        if let Some((idx, v)) = self.child_in[pos].feed(self.q, nbits, payload) {
                            self.acc[idx] = self.op.combine(self.acc[idx], v);
                            self.missing[idx] -= 1;
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
            if self.tree.parent.is_some() {
                while self.next_up < self.p && self.missing[self.next_up] == 0 {
                    self.up_out.push(self.acc[self.next_up]);
                    self.next_up += 1;
                }
            }
            if let Some(parent) = self.tree.parent {
                if let Some((nbits, payload)) = self.up_out.next_chunk(self.q, self.chunk_bits) {
                    ctx.send(parent, AggMsg::Up { nbits, payload });
                }
            }
            for pos in 0..self.tree.children.len() {
                if let Some((nbits, payload)) =
                    self.echo_out[pos].next_chunk(self.q, self.chunk_bits)
                {
                    ctx.send(self.tree.children[pos], AggMsg::Echo { nbits, payload });
                }
            }
        }

        fn is_done(&self) -> bool {
            let combined_all = self.missing.iter().all(|&m| m == 0);
            let sent_all =
                self.tree.parent.is_none() || (self.next_up == self.p && self.up_out.is_idle());
            let echoed_all = self.tree.parent.is_none() || self.echoes_received == self.p;
            let echo_out_done = self.echo_out.iter().all(|s| s.is_idle());
            combined_all && sent_all && echoed_all && echo_out_done
        }
    }

    #[derive(Debug)]
    pub struct Broadcast {
        tree: TreeView,
        schedule: Schedule,
        q: u64,
        chunk_bits: u64,
        pub reg: Register,
        have: u64,
        sent: u64,
    }

    impl Broadcast {
        pub fn instances(
            views: &[TreeView],
            root_reg: Register,
            chunk_bits: u64,
            schedule: Schedule,
        ) -> Vec<Self> {
            let q = root_reg.bits();
            views
                .iter()
                .map(|view| {
                    let is_root = view.parent.is_none();
                    Broadcast {
                        tree: view.clone(),
                        schedule,
                        q,
                        chunk_bits: chunk_bits.min(64),
                        reg: if is_root { root_reg.clone() } else { Register::zeros(q) },
                        have: if is_root { q } else { 0 },
                        sent: 0,
                    }
                })
                .collect()
        }

        fn may_send(&self) -> bool {
            match self.schedule {
                Schedule::Pipelined => self.sent < self.have,
                Schedule::StoreAndForward => self.have == self.q && self.sent < self.q,
            }
        }
    }

    impl NodeProtocol for Broadcast {
        type Msg = Chunk;

        fn on_round(&mut self, ctx: &mut Ctx<'_, Chunk>, inbox: &[(NodeId, Chunk)]) {
            for (_, chunk) in inbox {
                self.reg.set_bits(self.have, chunk.nbits, chunk.payload);
                self.have += chunk.nbits;
            }
            if self.may_send() && !self.tree.children.is_empty() {
                let len = self.chunk_bits.min(self.have - self.sent);
                let payload = self.reg.get_bits(self.sent, len);
                for &c in &self.tree.children {
                    ctx.send(c, Chunk { nbits: len, payload });
                }
                self.sent += len;
            }
        }

        fn is_done(&self) -> bool {
            self.have == self.q && (self.tree.children.is_empty() || self.sent == self.q)
        }
    }

    #[derive(Debug)]
    pub struct Gather {
        tree: TreeView,
        q: u64,
        chunk_bits: u64,
        pub reg: Register,
        sent: u64,
        child_have: Vec<(NodeId, u64)>,
        pub mismatch: bool,
    }

    impl Gather {
        pub fn instances(views: &[TreeView], regs: Vec<Register>, chunk_bits: u64) -> Vec<Self> {
            let q = regs[0].bits();
            views
                .iter()
                .zip(regs)
                .map(|(view, reg)| Gather {
                    tree: view.clone(),
                    q,
                    chunk_bits: chunk_bits.min(64),
                    child_have: view.children.iter().map(|&c| (c, 0)).collect(),
                    reg,
                    sent: 0,
                    mismatch: false,
                })
                .collect()
        }
    }

    impl NodeProtocol for Gather {
        type Msg = Chunk;

        fn on_round(&mut self, ctx: &mut Ctx<'_, Chunk>, inbox: &[(NodeId, Chunk)]) {
            for (from, chunk) in inbox {
                let slot = self
                    .child_have
                    .iter_mut()
                    .find(|(c, _)| c == from)
                    .expect("chunks only flow from children");
                if self.reg.get_bits(slot.1, chunk.nbits) != chunk.payload {
                    self.mismatch = true;
                }
                slot.1 += chunk.nbits;
            }
            if let Some(parent) = self.tree.parent {
                if self.sent < self.q {
                    let len = self.chunk_bits.min(self.q - self.sent);
                    let payload = self.reg.get_bits(self.sent, len);
                    ctx.send(parent, Chunk { nbits: len, payload });
                    self.sent += len;
                }
            }
        }

        fn is_done(&self) -> bool {
            (self.tree.parent.is_none() || self.sent == self.q)
                && self.child_have.iter().all(|&(_, h)| h == self.q)
        }
    }
}

const OPS: [CommOp; 6] =
    [CommOp::Sum, CommOp::Xor, CommOp::Min, CommOp::Max, CommOp::Or, CommOp::And];
const PS: [usize; 5] = [0, 1, 7, 64, 513];
const QS: [u64; 6] = [1, 5, 18, 19, 63, 64];

/// The five topologies, each with the root of its BFS tree.
fn topologies() -> Vec<(&'static str, Graph, NodeId)> {
    vec![
        ("path(12)", path(12), 0),
        ("star(10)", star(10), 3),
        ("balanced_tree(2, 3)", balanced_tree(2, 3), 0),
        ("random_connected(20)", random_connected(20, 0.15, 11), 7),
        ("dumbbell(6, 6, 12)", dumbbell(6, 6, 12).0, 9),
    ]
}

/// Run `nodes` traced on `net`.
fn traced<P: NodeProtocol>(net: &Network<'_>, nodes: Vec<P>) -> (Vec<P>, RunStats, Trace) {
    let out = net.exec(nodes).traced().run().expect("run succeeds");
    (out.nodes, out.stats, out.trace)
}

/// Per-node values for one batch; `Sum` values stay below `2^q / n` so the
/// aggregate domain is closed.
fn batch_values(n: usize, p: usize, q: u64, op: CommOp, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let full = if q == 64 { u64::MAX } else { (1u64 << q) - 1 };
    let lim = if op == CommOp::Sum { full / n as u64 } else { full };
    (0..n).map(|_| (0..p).map(|_| rng.gen_range(0..=lim)).collect()).collect()
}

/// A register of `bits` random bits.
fn random_register(bits: u64, rng: &mut StdRng) -> Register {
    let mut words: Vec<u64> = (0..bits.div_ceil(64)).map(|_| rng.gen()).collect();
    if !bits.is_multiple_of(64) {
        *words.last_mut().unwrap() &= (1u64 << (bits % 64)) - 1;
    }
    Register::from_words(bits, words)
}

/// One input configuration.
struct Cell {
    label: String,
    graph: Graph,
    root: NodeId,
    p: usize,
    q: u64,
    op: CommOp,
    /// A narrowed bandwidth cap (more chunks per value), if any.
    bandwidth: Option<u64>,
}

impl Cell {
    fn network(&self) -> Network<'_> {
        let net = Network::new(&self.graph);
        match self.bandwidth {
            Some(b) => net.with_bandwidth(b),
            None => net,
        }
    }
}

/// Every (topology, p, q) cell once. The op rotates across cells so that
/// each op meets every p and q; a narrowed bandwidth adds chunking to some
/// small batches.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (t, (name, graph, root)) in topologies().into_iter().enumerate() {
        for (pi, p) in PS.into_iter().enumerate() {
            for (qi, q) in QS.into_iter().enumerate() {
                let op = OPS[(qi + pi + t) % OPS.len()];
                let bandwidth = if (qi + t) % 3 == 1 && p <= 64 { Some(8) } else { None };
                let label = format!("{name} p={p} q={q} {op:?} bw={bandwidth:?}");
                let graph = graph.clone();
                out.push(Cell { label, graph, root, p, q, op, bandwidth });
            }
        }
    }
    out
}

#[test]
fn aggregate_matches_reference() {
    for (idx, cell) in cells().iter().enumerate() {
        let Cell { label, root, p, q, op, .. } = cell;
        let (root, p, q, op) = (*root, *p, *q, *op);
        let net = cell.network();
        let views = build_bfs_tree(&net, root).unwrap().views;
        let mut rng = StdRng::seed_from_u64(idx as u64);
        let values = batch_values(cell.graph.n(), p, q, op, &mut rng);
        let chunk = net.cap_bits().saturating_sub(2).clamp(1, 64);

        let (want_nodes, want_stats, want_trace) =
            traced(&net, reference::Aggregate::instances(&views, &values, q, op, chunk));
        let (got_nodes, got_stats, got_trace) =
            traced(&net, AggregateBatchProtocol::instances(&views, values.clone(), q, op, chunk));

        assert_eq!(got_stats, want_stats, "{label}: stats");
        assert_eq!(got_trace.rounds, want_trace.rounds, "{label}: trace");
        for (v, (got, want)) in got_nodes.iter().zip(&want_nodes).enumerate() {
            assert_eq!(got.aggregates(), &want.acc[..], "{label}: aggregates at node {v}");
            assert!(!got.echo_mismatch() && !want.echo_mismatch, "{label}: echo at node {v}");
        }
        for i in 0..p {
            let fold = op.fold(values.iter().map(|row| row[i]));
            assert_eq!(got_nodes[root].aggregates()[i], fold, "{label}: root fold at {i}");
        }
    }
}

#[test]
fn broadcast_and_gather_match_reference() {
    for (idx, cell) in cells().iter().enumerate() {
        // A batch register of p fields of q bits, from one field up to 64
        // (store-and-forward takes depth × chunks rounds, so wider
        // registers only repeat the same schedule for longer).
        let bits = cell.q * cell.p.clamp(1, 64) as u64;
        let net = cell.network();
        let views = build_bfs_tree(&net, cell.root).unwrap().views;
        let mut rng = StdRng::seed_from_u64(idx as u64 ^ 0x5EED);
        let reg = random_register(bits, &mut rng);
        let chunk = net.cap_bits().saturating_sub(1).clamp(1, 64);
        for schedule in [Schedule::Pipelined, Schedule::StoreAndForward] {
            let label = format!("{} bits={bits} {schedule:?}", cell.label);

            let (want_nodes, want_stats, want_trace) =
                traced(&net, reference::Broadcast::instances(&views, reg.clone(), chunk, schedule));
            let (got_nodes, got_stats, got_trace) = traced(
                &net,
                BroadcastRegisterProtocol::instances(&views, reg.clone(), chunk, schedule),
            );
            assert_eq!(got_stats, want_stats, "{label}: broadcast stats");
            assert_eq!(got_trace.rounds, want_trace.rounds, "{label}: broadcast trace");
            let copies: Vec<Register> =
                got_nodes.into_iter().map(BroadcastRegisterProtocol::into_register).collect();
            for (v, (got, want)) in copies.iter().zip(&want_nodes).enumerate() {
                assert_eq!(got, &want.reg, "{label}: copy at node {v}");
                assert_eq!(got, &reg, "{label}: node {v} holds the root's register");
            }

            let ref_copies: Vec<Register> = want_nodes.into_iter().map(|b| b.reg).collect();
            let (want_nodes, want_stats, want_trace) =
                traced(&net, reference::Gather::instances(&views, ref_copies, chunk));
            let (got_nodes, got_stats, got_trace) =
                traced(&net, GatherRegisterProtocol::instances(&views, copies, chunk));
            assert_eq!(got_stats, want_stats, "{label}: gather stats");
            assert_eq!(got_trace.rounds, want_trace.rounds, "{label}: gather trace");
            for (v, (got, want)) in got_nodes.iter().zip(&want_nodes).enumerate() {
                assert_eq!(got.register(), &want.reg, "{label}: gathered copy at node {v}");
                assert!(!got.mismatch() && !want.mismatch, "{label}: mismatch at node {v}");
            }
        }
    }
}
