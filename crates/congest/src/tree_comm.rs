//! Register transport over a BFS tree — the mechanics of the paper's
//! Lemma 7.
//!
//! The leader holds a `q`-(qu)bit register; `O(D + q/log n)` rounds suffice
//! to turn `Σᵢ αᵢ|i⟩` into `Σᵢ αᵢ|i⟩^{⊗n}` with one copy per node, because a
//! node can forward each `log n`-qubit chunk the round after receiving it
//! (**pipelining**). The reverse (un-distribution) is also provided.
//!
//! In the simulator a register in a (basis-state) superposition branch is a
//! classical bit string: by linearity it suffices to track one basis state —
//! the protocol's communication pattern, and hence its round count, is the
//! same for every branch, which is exactly why Lemma 7 works. Chunks are
//! charged their true size in qubits.
//!
//! [`BroadcastRegisterProtocol`] supports both the pipelined schedule and
//! the naive store-and-forward schedule (`O(D·q/log n)` rounds), so the
//! benefit of Lemma 7's pipelining is *measurable* (experiment E1).

use crate::bfs::TreeView;
use crate::graph::NodeId;
use crate::runtime::{Ctx, MessageSize, Network, NodeProtocol, RunStats, RuntimeError};

/// A register of `bits ≤ 64·words.len()` (qu)bits, stored little-endian in
/// 64-bit words. One classical basis-state branch of a quantum register.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Register {
    bits: u64,
    words: Vec<u64>,
}

impl Register {
    /// A register of `bits` qubits initialized to the basis state `|value⟩`
    /// (value must fit).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, or `value` does not fit in `bits` bits.
    pub fn from_value(bits: u64, value: u64) -> Self {
        assert!(bits > 0, "register needs at least one bit");
        if bits < 64 {
            assert!(value < (1u64 << bits), "value does not fit in {bits} bits");
        }
        let nwords = bits.div_ceil(64) as usize;
        let mut words = vec![0u64; nwords];
        words[0] = value;
        Register { bits, words }
    }

    /// A register from raw words (`bits` may span several words).
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match `⌈bits/64⌉` or trailing bits
    /// are set.
    pub fn from_words(bits: u64, words: Vec<u64>) -> Self {
        assert!(bits > 0);
        assert_eq!(words.len() as u64, bits.div_ceil(64), "word count mismatch");
        let rem = bits % 64;
        if rem != 0 {
            assert_eq!(words.last().unwrap() >> rem, 0, "trailing bits set");
        }
        Register { bits, words }
    }

    /// An all-zero register of `bits` qubits.
    pub fn zeros(bits: u64) -> Self {
        Self::from_value(bits, 0)
    }

    /// The register width in (qu)bits.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The raw words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The register's value as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn value(&self) -> u64 {
        assert!(self.bits <= 64, "register wider than 64 bits");
        self.words[0]
    }

    /// Read `len ≤ 64` bits starting at bit offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the register.
    pub fn get_bits(&self, off: u64, len: u64) -> u64 {
        assert!(len <= 64 && off + len <= self.bits, "bit range out of bounds");
        if len == 0 {
            return 0;
        }
        let w = (off / 64) as usize;
        let s = off % 64;
        let lo = self.words[w] >> s;
        let hi = if s + len > 64 { self.words[w + 1] << (64 - s) } else { 0 };
        let v = lo | hi;
        if len == 64 {
            v
        } else {
            v & ((1u64 << len) - 1)
        }
    }

    /// Write `len ≤ 64` bits at offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the register or `value` does not fit.
    pub fn set_bits(&mut self, off: u64, len: u64, value: u64) {
        assert!(len <= 64 && off + len <= self.bits, "bit range out of bounds");
        if len == 0 {
            return;
        }
        if len < 64 {
            assert!(value < (1u64 << len), "value does not fit");
        }
        let w = (off / 64) as usize;
        let s = off % 64;
        let mask_lo = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        self.words[w] &= !(mask_lo << s);
        self.words[w] |= value << s;
        if s + len > 64 {
            let hi_len = s + len - 64;
            let hi_mask = (1u64 << hi_len) - 1;
            self.words[w + 1] &= !hi_mask;
            self.words[w + 1] |= value >> (64 - s);
        }
    }

    /// Pack `p` fields of `field_bits` each into one register — used to ship
    /// a batch of `p` query indices as a single `p·⌈log k⌉`-qubit register
    /// (Theorem 8).
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty or a field does not fit.
    pub fn pack(fields: &[u64], field_bits: u64) -> Self {
        assert!(!fields.is_empty());
        let total = field_bits * fields.len() as u64;
        let mut r = Register::zeros(total);
        for (i, &f) in fields.iter().enumerate() {
            r.set_bits(i as u64 * field_bits, field_bits, f);
        }
        r
    }

    /// Inverse of [`pack`](Self::pack).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a multiple of `field_bits`.
    pub fn unpack(&self, field_bits: u64) -> Vec<u64> {
        assert_eq!(self.bits % field_bits, 0, "register not a whole number of fields");
        (0..self.bits / field_bits).map(|i| self.get_bits(i * field_bits, field_bits)).collect()
    }
}

/// A chunk of a register in flight: up to 64 bits plus a 1-bit stream tag.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Number of payload qubits (1..=64).
    pub nbits: u64,
    /// The payload bits (little-endian).
    pub payload: u64,
}

impl MessageSize for Chunk {
    fn size_bits(&self) -> u64 {
        self.nbits + 1
    }
}

/// Forwarding schedule for [`BroadcastRegisterProtocol`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Forward each chunk the round after it arrives — Lemma 7's
    /// `O(D + q/log n)`.
    Pipelined,
    /// Forward only after the whole register arrived — the naive
    /// `O(D · q/log n)` baseline.
    StoreAndForward,
}

/// Broadcast of a `q`-qubit register from the tree root to every node,
/// borrowing each node's tree view for the run.
#[derive(Debug)]
pub struct BroadcastRegisterProtocol<'a> {
    tree: &'a TreeView,
    schedule: Schedule,
    q: u64,
    chunk_bits: u64,
    /// Received (or initial, at the root) register contents.
    reg: Register,
    /// Number of bits received so far (root: all of them).
    have: u64,
    /// Number of bits already forwarded to the children.
    sent: u64,
}

impl<'a> BroadcastRegisterProtocol<'a> {
    /// Instances for a broadcast of `root_reg` (moved into the root) down
    /// `views`.
    ///
    /// `chunk_bits` is the per-round chunk size; callers use
    /// `net.cap_bits() - 1` (one tag bit) capped at 64.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits == 0` or no view is a root.
    pub fn instances(
        views: &'a [TreeView],
        root_reg: Register,
        chunk_bits: u64,
        schedule: Schedule,
    ) -> Vec<Self> {
        assert!(chunk_bits > 0);
        assert!(views.iter().any(|v| v.parent.is_none()), "no root in tree views");
        let q = root_reg.bits();
        let mut root_reg = Some(root_reg);
        views
            .iter()
            .map(|view| {
                let (reg, have) = match view.parent {
                    None => (root_reg.take().expect("tree has exactly one root"), q),
                    Some(_) => (Register::zeros(q), 0),
                };
                BroadcastRegisterProtocol {
                    tree: view,
                    schedule,
                    q,
                    chunk_bits: chunk_bits.min(64),
                    reg,
                    have,
                    sent: 0,
                }
            })
            .collect()
    }

    /// The locally held register copy (complete after the run).
    pub fn register(&self) -> &Register {
        &self.reg
    }

    /// Consume the node, returning its register copy.
    pub fn into_register(self) -> Register {
        self.reg
    }

    fn may_send(&self) -> bool {
        match self.schedule {
            Schedule::Pipelined => self.sent < self.have,
            Schedule::StoreAndForward => self.have == self.q && self.sent < self.q,
        }
    }
}

impl NodeProtocol for BroadcastRegisterProtocol<'_> {
    type Msg = Chunk;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Chunk>, inbox: &[(NodeId, Chunk)]) {
        for (from, chunk) in inbox {
            debug_assert_eq!(Some(*from), self.tree.parent, "chunks only flow from the parent");
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

/// Un-distribution (the reverse direction of Lemma 7): every node holds a
/// copy of the register; all non-root copies are uncomputed against the
/// parent's copy. Since the fan-out CNOTs on distinct tree edges commute,
/// every edge can ship its copy simultaneously, so this takes
/// `O(⌈q/log n⌉)` rounds — within Lemma 7's `O(D + q/log n)` budget.
///
/// Each node verifies that the received child copies equal its own
/// (uncompute would otherwise leave garbage); a mismatch marks the run
/// corrupt. Each node borrows its tree view for the run.
#[derive(Debug)]
pub struct GatherRegisterProtocol<'a> {
    tree: &'a TreeView,
    q: u64,
    chunk_bits: u64,
    reg: Register,
    sent: u64,
    /// Bits received from each child, parallel to `tree.children`.
    child_have: Vec<u64>,
    mismatch: bool,
}

impl<'a> GatherRegisterProtocol<'a> {
    /// Instances given each node's tree view and its local register copy.
    ///
    /// # Panics
    ///
    /// Panics if register widths disagree or `chunk_bits == 0`.
    pub fn instances(views: &'a [TreeView], regs: Vec<Register>, chunk_bits: u64) -> Vec<Self> {
        assert!(chunk_bits > 0);
        assert_eq!(views.len(), regs.len());
        let q = regs[0].bits();
        views
            .iter()
            .zip(regs)
            .map(|(view, reg)| {
                assert_eq!(reg.bits(), q, "all copies must have the same width");
                GatherRegisterProtocol {
                    tree: view,
                    q,
                    chunk_bits: chunk_bits.min(64),
                    child_have: vec![0; view.children.len()],
                    reg,
                    sent: 0,
                    mismatch: false,
                }
            })
            .collect()
    }

    /// Whether an uncompute mismatch was detected at this node.
    pub fn mismatch(&self) -> bool {
        self.mismatch
    }

    /// The retained register (meaningful at the root).
    pub fn register(&self) -> &Register {
        &self.reg
    }

    /// Consume the node, returning its retained register.
    pub fn into_register(self) -> Register {
        self.reg
    }
}

impl NodeProtocol for GatherRegisterProtocol<'_> {
    type Msg = Chunk;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Chunk>, inbox: &[(NodeId, Chunk)]) {
        for (from, chunk) in inbox {
            let pos = self
                .tree
                .children
                .iter()
                .position(|c| c == from)
                .expect("chunks only flow from children");
            let have = &mut self.child_have[pos];
            if self.reg.get_bits(*have, chunk.nbits) != chunk.payload {
                self.mismatch = true;
            }
            *have += chunk.nbits;
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
            && self.child_have.iter().all(|&h| h == self.q)
    }
}

/// Driver for Lemma 7 (forward direction): broadcast `reg` from the root of
/// `tree` to every node. Returns all node copies (moved out of the
/// finished run) and the measured stats.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
pub fn distribute_register(
    net: &Network<'_>,
    views: &[TreeView],
    reg: Register,
    schedule: Schedule,
) -> Result<(Vec<Register>, RunStats), RuntimeError> {
    let chunk = (net.cap_bits().saturating_sub(1)).clamp(1, 64);
    let run = net.run(BroadcastRegisterProtocol::instances(views, reg, chunk, schedule))?;
    Ok((run.nodes.into_iter().map(BroadcastRegisterProtocol::into_register).collect(), run.stats))
}

/// Driver for Lemma 7 (reverse direction): uncompute all non-root copies.
/// Returns the root's retained register and the measured stats.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
///
/// # Panics
///
/// Panics if register widths disagree, and if any node received a child
/// copy that differs from its own — uncompute would leave garbage, which
/// indicates a protocol bug, not an input error.
pub fn gather_register(
    net: &Network<'_>,
    views: &[TreeView],
    regs: Vec<Register>,
) -> Result<(Register, RunStats), RuntimeError> {
    let chunk = (net.cap_bits().saturating_sub(1)).clamp(1, 64);
    let root = views.iter().position(|v| v.parent.is_none()).expect("tree has a root");
    let mut run = net.run(GatherRegisterProtocol::instances(views, regs, chunk))?;
    assert!(run.nodes.iter().all(|p| !p.mismatch()), "uncompute mismatch");
    Ok((run.nodes.swap_remove(root).into_register(), run.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::generators::{balanced_tree, path, random_connected, star};

    #[test]
    fn register_bit_twiddling() {
        let mut r = Register::zeros(100);
        r.set_bits(0, 10, 0x3ff);
        r.set_bits(60, 10, 0x2aa); // straddles the word boundary
        r.set_bits(90, 10, 0x155);
        assert_eq!(r.get_bits(0, 10), 0x3ff);
        assert_eq!(r.get_bits(60, 10), 0x2aa);
        assert_eq!(r.get_bits(90, 10), 0x155);
        assert_eq!(r.get_bits(10, 50), 0);
    }

    #[test]
    fn register_pack_unpack_roundtrip() {
        let fields = vec![3u64, 17, 0, 255, 128];
        let r = Register::pack(&fields, 9);
        assert_eq!(r.bits(), 45);
        assert_eq!(r.unpack(9), fields);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn register_rejects_oversized_value() {
        Register::from_value(3, 8);
    }

    #[test]
    fn register_full_word() {
        let r = Register::from_value(64, u64::MAX);
        assert_eq!(r.get_bits(0, 64), u64::MAX);
        assert_eq!(r.value(), u64::MAX);
    }

    fn patterned_register(q: u64) -> Register {
        let mut reg = Register::zeros(q);
        let mut off = 0;
        let mut i = 0u64;
        while off < q {
            let len = 13.min(q - off);
            reg.set_bits(off, len, (i * 2654435761) & ((1 << len) - 1));
            off += len;
            i += 1;
        }
        reg
    }

    fn roundtrip(g: &crate::graph::Graph, q: u64) -> (usize, usize) {
        let net = Network::new(g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let reg = patterned_register(q);
        let (copies, s1) =
            distribute_register(&net, &tree.views, reg.clone(), Schedule::Pipelined).unwrap();
        for c in &copies {
            assert_eq!(c, &reg, "every node must hold the root's register");
        }
        let (back, s2) = gather_register(&net, &tree.views, copies).unwrap();
        assert_eq!(back, reg);
        (s1.rounds, s2.rounds)
    }

    #[test]
    fn distribute_gather_roundtrip_families() {
        for g in [path(12), star(10), balanced_tree(3, 3), random_connected(25, 0.1, 3)] {
            roundtrip(&g, 130);
        }
    }

    #[test]
    fn pipelined_beats_store_and_forward() {
        // Long path, wide register: pipelining must win by ~D×.
        let g = path(30);
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let q = 20 * net.cap_bits();
        let reg = Register::zeros(q);
        let (_, fast) =
            distribute_register(&net, &tree.views, reg.clone(), Schedule::Pipelined).unwrap();
        let (_, slow) =
            distribute_register(&net, &tree.views, reg, Schedule::StoreAndForward).unwrap();
        assert!(
            fast.rounds * 5 < slow.rounds,
            "pipelined {} vs naive {}",
            fast.rounds,
            slow.rounds
        );
        // Lemma 7: pipelined ≈ D + q/log n.
        let d = 29;
        let chunks = (q as usize).div_ceil(net.cap_bits() as usize - 1);
        assert!(fast.rounds <= 2 * (d + chunks), "rounds {} too slow", fast.rounds);
    }

    #[test]
    fn gather_rounds_independent_of_depth() {
        // The reverse direction parallelizes across edges.
        let q = 256;
        let mut rounds = vec![];
        for n in [10usize, 40] {
            let g = path(n);
            // Fix the bandwidth so the chunk count is the same for both.
            let net = Network::new(&g).with_bandwidth(16);
            let tree = build_bfs_tree(&net, 0).unwrap();
            let regs = vec![Register::from_value(q, 42); n];
            let (_, s) = gather_register(&net, &tree.views, regs).unwrap();
            rounds.push(s.rounds);
        }
        assert_eq!(rounds[0], rounds[1], "gather should not depend on D");
    }

    #[test]
    fn broadcast_single_node() {
        let g = crate::graph::Graph::from_edges(1, []).unwrap();
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let reg = Register::from_value(8, 77);
        let (copies, stats) =
            distribute_register(&net, &tree.views, reg.clone(), Schedule::Pipelined).unwrap();
        assert_eq!(copies[0], reg);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "uncompute mismatch")]
    fn gather_rejects_a_wrong_copy() {
        let g = path(5);
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let mut regs = vec![Register::from_value(16, 0x1234); 5];
        regs[3] = Register::from_value(16, 0x1235);
        let _ = gather_register(&net, &tree.views, regs);
    }
}
