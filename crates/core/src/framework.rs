//! The paper's core contribution: making parallel quantum queries in the
//! CONGEST model (Section 3 — Lemma 7, Theorem 8, Corollary 9).
//!
//! A designated leader runs a *(b, p)-parallel-query algorithm* for
//! `F : A^k → R`; the network evaluates
//! `f(⨁_v x^{(v)}) = F(x)` where `⊕` is a commutative semigroup operation
//! applied element-wise across the nodes' local inputs. Each query batch is
//! realized by three measured protocol phases:
//!
//! 1. **distribute** (Lemma 7): the leader's batch register
//!    `|j₁⟩⋯|j_p⟩` (`p·⌈log k⌉` qubits) is pipelined down the BFS tree so
//!    every node holds a copy — `O(D + p·log k / log n)` rounds;
//! 2. **aggregate** (the query): every node contributes its local values
//!    `x_{jᵢ}^{(v)}`; a pipelined convergecast with uncompute echoes
//!    computes `⨁_v x_{jᵢ}^{(v)}` at the leader —
//!    `O((D + p)·⌈q/log n⌉)` rounds;
//! 3. **gather** (Lemma 7 reversed): the index copies are uncomputed.
//!
//! With values not stored but computable by a `α(p)`-round protocol
//! (Corollary 9), phase 2 is preceded by that protocol — e.g. multi-source
//! BFS for eccentricity queries.
//!
//! The result is a [`CongestOracle`] implementing `pquery`'s
//! [`BatchSource`], so every Section 2 algorithm runs unchanged on top of a
//! real network, with rounds measured by execution.

use congest::aggregate::{aggregate_batch, CommOp};
use congest::bfs::{build_bfs_tree, elect_leader, BfsTree};
use congest::graph::{bits_for, NodeId};
use congest::runtime::{Network, RoundLedger, RuntimeError};
use congest::tree_comm::{distribute_register, gather_register, Register, Schedule};
use pquery::oracle::BatchSource;

/// Supplies the per-node query values `x_j^{(v)}` for a batch — either from
/// memory (Theorem 8) or computed on the fly by a measured sub-protocol
/// (Corollary 9).
pub trait ValueProvider {
    /// Input length `k` (the index domain of `F`).
    fn k(&self) -> usize;

    /// Bit width `q = ⌈log|A|⌉` of the semigroup domain (aggregates must
    /// fit).
    fn q(&self) -> u64;

    /// The element-wise semigroup operation `⊕`.
    fn op(&self) -> CommOp;

    /// Per-node value vectors for the queried `indices` (outer index =
    /// node, inner = batch position). May run protocols on `net`, recording
    /// their stats on `ledger` — that is Corollary 9's `α(p)`.
    ///
    /// # Errors
    ///
    /// Propagates protocol failures.
    fn values_for(
        &mut self,
        net: &Network<'_>,
        indices: &[usize],
        ledger: &mut RoundLedger,
    ) -> Result<Vec<Vec<u64>>, RuntimeError>;

    /// Ground-truth aggregate `⨁_v x_i^{(v)}` — the emulator's `peek`
    /// (never charged; see `pquery::oracle` docs).
    fn truth(&self, i: usize) -> u64;
}

/// Theorem 8's setting: every node already holds its `x^{(v)} ∈ A^k` in
/// memory, so `α(p) = 0`.
#[derive(Debug, Clone)]
pub struct StoredValues {
    local: Vec<Vec<u64>>,
    q: u64,
    op: CommOp,
    truth: Vec<u64>,
}

impl StoredValues {
    /// Build from per-node vectors (all of equal length `k`).
    ///
    /// # Panics
    ///
    /// Panics if vectors are empty or of unequal lengths, or an aggregate
    /// exceeds `q` bits (the semigroup domain must be closed).
    pub fn new(local: Vec<Vec<u64>>, q: u64, op: CommOp) -> Self {
        assert!(!local.is_empty(), "need at least one node");
        let k = local[0].len();
        assert!(k > 0, "need at least one index");
        assert!(local.iter().all(|v| v.len() == k), "unequal local vector lengths");
        // Row by row: each index still folds nodes 0..n in order.
        let mut truth = vec![op.identity(); k];
        for row in &local {
            for (t, &x) in truth.iter_mut().zip(row) {
                *t = op.combine(*t, x);
            }
        }
        for &t in &truth {
            assert!(q == 64 || t < (1u64 << q), "aggregate {t} exceeds q = {q} bits");
        }
        StoredValues { local, q, op, truth }
    }

    /// The ground-truth aggregate vector.
    pub fn aggregates(&self) -> &[u64] {
        &self.truth
    }
}

impl ValueProvider for StoredValues {
    fn k(&self) -> usize {
        self.truth.len()
    }

    fn q(&self) -> u64 {
        self.q
    }

    fn op(&self) -> CommOp {
        self.op
    }

    fn values_for(
        &mut self,
        _net: &Network<'_>,
        indices: &[usize],
        _ledger: &mut RoundLedger,
    ) -> Result<Vec<Vec<u64>>, RuntimeError> {
        Ok(self.local.iter().map(|mine| indices.iter().map(|&j| mine[j]).collect()).collect())
    }

    fn truth(&self, i: usize) -> u64 {
        self.truth[i]
    }
}

/// The "one value per node" special case (Corollary 14): `k = n` and
/// `x_j^{(v)} = value_v` if `v = j`, else the identity — without
/// materializing the `n × n` matrix.
#[derive(Debug, Clone)]
pub struct IndicatorValues {
    values: Vec<u64>,
    q: u64,
    op: CommOp,
}

impl IndicatorValues {
    /// One value per node; `q` must fit every value.
    ///
    /// # Panics
    ///
    /// Panics if empty or a value exceeds `q` bits.
    pub fn new(values: Vec<u64>, q: u64, op: CommOp) -> Self {
        assert!(!values.is_empty());
        for &v in &values {
            assert!(q == 64 || v < (1u64 << q), "value {v} exceeds q = {q} bits");
        }
        IndicatorValues { values, q, op }
    }
}

impl ValueProvider for IndicatorValues {
    fn k(&self) -> usize {
        self.values.len()
    }

    fn q(&self) -> u64 {
        self.q
    }

    fn op(&self) -> CommOp {
        self.op
    }

    fn values_for(
        &mut self,
        _net: &Network<'_>,
        indices: &[usize],
        _ledger: &mut RoundLedger,
    ) -> Result<Vec<Vec<u64>>, RuntimeError> {
        let id = self.op.identity();
        Ok((0..self.values.len())
            .map(|v| indices.iter().map(|&j| if j == v { self.values[v] } else { id }).collect())
            .collect())
    }

    fn truth(&self, i: usize) -> u64 {
        self.values[i]
    }
}

/// A `(b, p)`-parallel-query oracle realized on a CONGEST network — the
/// output of Theorem 8's construction. Implements `pquery`'s
/// [`BatchSource`], so any Section 2 algorithm drives real network traffic.
#[derive(Debug)]
pub struct CongestOracle<'g, P> {
    net: &'g Network<'g>,
    /// The elected leader.
    pub leader: NodeId,
    /// The leader's BFS tree.
    pub tree: BfsTree,
    provider: P,
    p: usize,
    batches: usize,
    queries: u64,
    ledger: RoundLedger,
}

impl<'g, P: ValueProvider> CongestOracle<'g, P> {
    /// Set up the framework: elect a leader and build its BFS tree (the
    /// `O(D)` setup of Theorem 8's proof), both measured.
    ///
    /// `p` is the batch width; the paper's applications use `p = Θ(D)`
    /// (use [`suggested_p`](Self::suggested_p) after setup, or pass an
    /// explicit width).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the setup protocols.
    pub fn setup(
        net: &'g Network<'g>,
        provider: P,
        p: usize,
        seed: u64,
    ) -> Result<Self, RuntimeError> {
        assert!(p >= 1, "batch width must be positive");
        let mut ledger = RoundLedger::new();
        let (leader, stats) = elect_leader(net, seed)?;
        ledger.record("setup/leader-election", stats);
        let tree = build_bfs_tree(net, leader)?;
        ledger.record("setup/bfs-tree", tree.stats);
        Ok(CongestOracle { net, leader, tree, provider, p, batches: 0, queries: 0, ledger })
    }

    /// The paper's usual batch width `p = Θ(D)`, derived from the measured
    /// tree depth (`depth ≤ D ≤ 2·depth`), at least 1.
    pub fn suggested_p(&self) -> usize {
        (self.tree.depth as usize).max(1)
    }

    /// Override the batch width (e.g. after inspecting the tree depth).
    pub fn set_p(&mut self, p: usize) {
        assert!(p >= 1);
        self.p = p;
    }

    /// The measured round ledger so far.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Total measured rounds so far.
    pub fn rounds(&self) -> usize {
        self.ledger.total_rounds()
    }

    /// Consume the oracle, returning its ledger.
    pub fn into_ledger(self) -> RoundLedger {
        self.ledger
    }

    /// Access the value provider.
    pub fn provider(&self) -> &P {
        &self.provider
    }
}

impl<'g, P: ValueProvider> BatchSource for CongestOracle<'g, P> {
    fn k(&self) -> usize {
        self.provider.k()
    }

    fn p(&self) -> usize {
        self.p
    }

    fn query(&mut self, indices: &[usize]) -> Vec<u64> {
        assert!(!indices.is_empty() && indices.len() <= self.p, "bad batch width");
        let k = self.provider.k();
        for &j in indices {
            assert!(j < k, "index {j} out of range");
        }
        self.batches += 1;
        self.queries += indices.len() as u64;

        // Phase 1 (Lemma 7): ship the index register down the tree. The
        // register always has full width p·⌈log k⌉ — a quantum register's
        // width does not depend on the batch's classical content.
        let idx_bits = bits_for(k.saturating_sub(1) as u64);
        let mut fields = vec![0u64; self.p];
        for (slot, &j) in fields.iter_mut().zip(indices) {
            *slot = j as u64;
        }
        let reg = Register::pack(&fields, idx_bits);
        let (copies, stats) =
            distribute_register(self.net, &self.tree.views, reg, Schedule::Pipelined)
                .expect("distribute phase failed");
        self.ledger.record("batch/distribute", stats);

        // Corollary 9's α(p): compute the values, possibly via protocols.
        let values = self
            .provider
            .values_for(self.net, indices, &mut self.ledger)
            .expect("value computation failed");
        debug_assert!(values.iter().all(|v| v.len() == indices.len()));

        // Phase 2 (Theorem 8's query step): semigroup convergecast.
        let agg = aggregate_batch(
            self.net,
            &self.tree.views,
            values,
            self.provider.q(),
            self.provider.op(),
        )
        .expect("aggregate phase failed");
        self.ledger.record("batch/aggregate", agg.stats);

        // Phase 3 (Lemma 7 reversed): uncompute the index copies.
        let (_root_reg, stats) =
            gather_register(self.net, &self.tree.views, copies).expect("gather phase failed");
        self.ledger.record("batch/gather", stats);

        agg.values
    }

    fn peek(&self, i: usize) -> u64 {
        self.provider.truth(i)
    }

    fn batches(&self) -> usize {
        self.batches
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

/// Theorem 8's round bound (for harness comparison):
/// `O(D + b·((D + p)⌈q/log n⌉ + p⌈log k / log n⌉))`.
pub fn theorem8_rounds(d: usize, b: f64, p: usize, q: u64, k: usize, n: usize) -> f64 {
    let log_n = bits_for(n.saturating_sub(1) as u64) as f64;
    let log_k = bits_for(k.saturating_sub(1) as u64) as f64;
    d as f64
        + b * ((d as f64 + p as f64) * (q as f64 / log_n).ceil().max(1.0)
            + p as f64 * (log_k / log_n).ceil().max(1.0))
}

/// Corollary 9's round bound: Theorem 8 plus `b·α(p)`.
pub fn corollary9_rounds(
    d: usize,
    b: f64,
    p: usize,
    q: u64,
    k: usize,
    n: usize,
    alpha: f64,
) -> f64 {
    theorem8_rounds(d, b, p, q, k, n) + b * alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::generators::{grid, path, random_connected, star};
    use pquery::grover::search_one;
    use pquery::minimum::{find_extremum, Extremum};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stored_sum_instance(n: usize, k: usize, seed: u64) -> StoredValues {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let local: Vec<Vec<u64>> =
            (0..n).map(|_| (0..k).map(|_| rng.gen_range(0..3u64)).collect()).collect();
        StoredValues::new(local, 32, CommOp::Sum)
    }

    #[test]
    fn oracle_query_returns_true_aggregates() {
        let g = grid(4, 4);
        let net = Network::new(&g);
        let provider = stored_sum_instance(16, 20, 1);
        let truth = provider.aggregates().to_vec();
        let mut oracle = CongestOracle::setup(&net, provider, 4, 7).unwrap();
        let got = oracle.query(&[0, 5, 19, 7]);
        assert_eq!(got, vec![truth[0], truth[5], truth[19], truth[7]]);
        assert_eq!(oracle.batches(), 1);
        assert!(oracle.rounds() > 0);
    }

    #[test]
    fn rounds_accumulate_per_batch() {
        let g = path(10);
        let net = Network::new(&g);
        let provider = stored_sum_instance(10, 8, 2);
        let mut oracle = CongestOracle::setup(&net, provider, 2, 3).unwrap();
        let setup_rounds = oracle.rounds();
        oracle.query(&[1, 2]);
        let after_one = oracle.rounds();
        oracle.query(&[3, 4]);
        let after_two = oracle.rounds();
        assert!(setup_rounds > 0);
        assert!(after_one > setup_rounds);
        // Two identical batches cost about the same.
        let d1 = after_one - setup_rounds;
        let d2 = after_two - after_one;
        assert!(d2 <= 2 * d1 && d1 <= 2 * d2, "batch costs {d1} vs {d2}");
    }

    #[test]
    fn grover_over_network_finds_marked() {
        let g = random_connected(24, 0.1, 5);
        let net = Network::new(&g);
        // XOR-shared bit vector: x_j = XOR of shares, marked = x_j == 1.
        let k = 64;
        let mut rng = StdRng::seed_from_u64(9);
        use rand::Rng;
        let mut local: Vec<Vec<u64>> =
            (0..24).map(|_| (0..k).map(|_| rng.gen_range(0..2u64)).collect()).collect();
        // Force the aggregate: clear column parity, then set index 17.
        for j in 0..k {
            let parity = local.iter().map(|v| v[j]).fold(0, |a, b| a ^ b);
            local[0][j] ^= parity;
        }
        local[0][17] ^= 1;
        let provider = StoredValues::new(local, 1, CommOp::Xor);
        assert_eq!(provider.truth(17), 1);
        let mut oracle = CongestOracle::setup(&net, provider, 4, 1).unwrap();
        let out = search_one(&mut oracle, &|v| v == 1, &mut rng);
        assert_eq!(out.found, Some(17));
    }

    #[test]
    fn minimum_over_network() {
        let g = star(12);
        let net = Network::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let provider = stored_sum_instance(12, 40, 6);
        let truth_min = *provider.aggregates().iter().min().unwrap();
        let mut oracle = CongestOracle::setup(&net, provider, 3, 2).unwrap();
        let mut hits = 0;
        for _ in 0..5 {
            let out = find_extremum(&mut oracle, Extremum::Min, &mut rng);
            if out.value == truth_min {
                hits += 1;
            }
        }
        assert!(hits >= 4, "{hits}/5");
    }

    #[test]
    fn indicator_values_match_direct() {
        let g = path(6);
        let net = Network::new(&g);
        let vals = vec![9u64, 3, 7, 7, 1, 5];
        let provider = IndicatorValues::new(vals.clone(), 8, CommOp::Sum);
        let mut oracle = CongestOracle::setup(&net, provider, 3, 1).unwrap();
        let got = oracle.query(&[0, 4, 2]);
        assert_eq!(got, vec![9, 1, 7]);
    }

    #[test]
    fn wider_batches_fewer_rounds_per_query() {
        // (D + p) vs p·(D) : querying 8 indices in one batch must beat
        // eight 1-index batches on a long path.
        let g = path(30);
        let net = Network::new(&g);
        let mk = || stored_sum_instance(30, 16, 3);

        let mut one = CongestOracle::setup(&net, mk(), 8, 1).unwrap();
        let base = one.rounds();
        one.query(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let batched = one.rounds() - base;

        let mut seq = CongestOracle::setup(&net, mk(), 1, 1).unwrap();
        let base = seq.rounds();
        for j in 0..8 {
            seq.query(&[j]);
        }
        let sequential = seq.rounds() - base;
        assert!(batched * 2 < sequential, "batched {batched} vs sequential {sequential}");
    }

    #[test]
    fn theorem8_formula_sanity() {
        // b batches of p=D on k=n bits: O(D + b·D).
        let r = theorem8_rounds(10, 5.0, 10, 8, 100, 100);
        assert!((10.0..10.0 + 5.0 * (20.0 * 2.0 + 10.0) + 1.0).contains(&r));
        assert!(corollary9_rounds(10, 5.0, 10, 8, 100, 100, 7.0) > r);
    }

    #[test]
    #[should_panic(expected = "aggregate")]
    fn stored_values_reject_overflow() {
        // Sum of 4 nodes' values exceeds q = 2 bits.
        StoredValues::new(vec![vec![3u64]; 4], 2, CommOp::Sum);
    }
}
