//! Distributed breadth-first-search protocols.
//!
//! * [`BfsTreeProtocol`] — the folklore `O(D)` BFS-tree construction used by
//!   Lemma 7 (footnote 2 in the paper): starting from the root, each node
//!   declares itself scanned in round `i` if a neighbor did so in round
//!   `i − 1`, picking any (here: the smallest-id) such neighbor as parent.
//! * [`MultiBfsProtocol`] — pipelined BFS from a set `S` of sources in
//!   `O(|S| + D)` rounds ([PRT12; HW12]), the ingredient of Lemma 20: every
//!   node learns its distance to every source while each edge forwards at
//!   most one announcement per round.
//! * [`EccAggregateProtocol`] — pipelined convergecast + broadcast over a
//!   BFS tree computing `ecc(s) = max_v d(v, s)` for every source in
//!   `O(|S| + D)` rounds, completing Lemma 20.

use crate::graph::{bits_for, Dist, Graph, NodeId};
use crate::runtime::{Ctx, MessageSize, Network, NodeProtocol, RunStats, RuntimeError};
use std::collections::BTreeSet;

/// A node's local view of a spanning tree: its parent (None at the root)
/// and its children. Produced by BFS-tree construction, consumed by every
/// tree-based protocol (broadcast, convergecast, aggregation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeView {
    /// Parent in the tree; `None` iff this node is the root.
    pub parent: Option<NodeId>,
    /// Children in the tree, sorted.
    pub children: Vec<NodeId>,
    /// Distance from the root.
    pub depth: Dist,
}

/// Messages of the BFS-tree protocol.
#[derive(Debug, Clone)]
pub enum BfsMsg {
    /// "I was scanned at distance `dist`."
    Token {
        /// Sender's BFS distance from the root.
        dist: Dist,
    },
    /// "I chose you as my parent."
    Adopt,
}

impl MessageSize for BfsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            BfsMsg::Token { dist } => 2 + bits_for(*dist as u64),
            BfsMsg::Adopt => 2,
        }
    }
}

/// Per-node state of the folklore BFS-tree construction.
#[derive(Debug)]
pub struct BfsTreeProtocol {
    root: bool,
    dist: Option<Dist>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    announced: bool,
}

impl BfsTreeProtocol {
    /// Protocol instances for all `n` nodes with the given root.
    pub fn instances(n: usize, root: NodeId) -> Vec<Self> {
        assert!(root < n, "root out of range");
        (0..n)
            .map(|v| BfsTreeProtocol {
                root: v == root,
                dist: if v == root { Some(0) } else { None },
                parent: None,
                children: Vec::new(),
                announced: false,
            })
            .collect()
    }

    /// This node's distance from the root (available after the run).
    pub fn dist(&self) -> Option<Dist> {
        self.dist
    }

    /// This node's tree view (available after the run).
    pub fn tree_view(&self) -> TreeView {
        TreeView {
            parent: self.parent,
            children: self.children.clone(),
            depth: self.dist.unwrap_or(0),
        }
    }
}

impl NodeProtocol for BfsTreeProtocol {
    type Msg = BfsMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[(NodeId, BfsMsg)]) {
        // Collect adoptions and candidate parents.
        let mut best: Option<(Dist, NodeId)> = None;
        for (from, msg) in inbox {
            match msg {
                BfsMsg::Adopt => {
                    self.children.push(*from);
                    self.children.sort_unstable();
                }
                BfsMsg::Token { dist } => {
                    let cand = (*dist, *from);
                    if self.dist.is_none() && best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
        }
        if self.dist.is_none() {
            if let Some((d, p)) = best {
                self.dist = Some(d + 1);
                self.parent = Some(p);
                ctx.send(p, BfsMsg::Adopt);
            }
        }
        if let Some(d) = self.dist {
            if !self.announced {
                ctx.broadcast(BfsMsg::Token { dist: d });
                self.announced = true;
            }
        }
        let _ = self.root;
    }

    fn is_done(&self) -> bool {
        self.announced
    }
}

/// Result of building a BFS tree: per-node tree views and distances.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// Per-node tree view.
    pub views: Vec<TreeView>,
    /// Per-node distance from the root.
    pub dist: Vec<Dist>,
    /// Depth of the tree (= eccentricity of the root).
    pub depth: Dist,
    /// Measured statistics of the construction run.
    pub stats: RunStats,
}

/// Driver: build a BFS tree rooted at `root` on `net`, measuring rounds.
///
/// # Errors
///
/// Propagates [`RuntimeError`]; also fails with
/// [`RuntimeError::RoundLimitExceeded`] on disconnected graphs (the
/// protocol can never finish there).
pub fn build_bfs_tree(net: &Network<'_>, root: NodeId) -> Result<BfsTree, RuntimeError> {
    let n = net.graph().n();
    let run = net.run(BfsTreeProtocol::instances(n, root))?;
    let views: Vec<TreeView> = run.nodes.iter().map(|p| p.tree_view()).collect();
    let dist: Vec<Dist> = run.nodes.iter().map(|p| p.dist().unwrap_or(Dist::MAX)).collect();
    let depth = dist.iter().copied().max().unwrap_or(0);
    Ok(BfsTree { root, views, dist, depth, stats: run.stats })
}

/// Messages of the pipelined multi-source BFS: "source `src` is at distance
/// `dist` from me".
#[derive(Debug, Clone, Copy)]
pub struct MultiBfsMsg {
    /// Rank of the source in the source list (fits in `log |S|` bits, but
    /// we charge a full id: sources are nodes).
    pub src: usize,
    /// The sender's distance to that source.
    pub dist: Dist,
}

impl MessageSize for MultiBfsMsg {
    fn size_bits(&self) -> u64 {
        2 + bits_for(self.src as u64) + bits_for(self.dist as u64)
    }
}

/// Per-node state of the pipelined multi-source BFS ([PRT12; HW12] style:
/// one announcement per edge per round, smallest distance first).
#[derive(Debug)]
pub struct MultiBfsProtocol {
    /// `best[i]` = current best known distance to source `i`.
    best: Vec<Dist>,
    /// Announcements not yet forwarded, ordered by (dist, source rank).
    pending: BTreeSet<(Dist, usize)>,
}

impl MultiBfsProtocol {
    /// Instances for all nodes given the list of source node-ids.
    pub fn instances(n: usize, sources: &[NodeId]) -> Vec<Self> {
        let s = sources.len();
        (0..n)
            .map(|v| {
                let mut best = vec![Dist::MAX; s];
                let mut pending = BTreeSet::new();
                for (i, &src) in sources.iter().enumerate() {
                    if src == v {
                        best[i] = 0;
                        pending.insert((0, i));
                    }
                }
                MultiBfsProtocol { best, pending }
            })
            .collect()
    }

    /// Distances to every source (by source rank), available after the run.
    pub fn distances(&self) -> &[Dist] {
        &self.best
    }
}

impl NodeProtocol for MultiBfsProtocol {
    type Msg = MultiBfsMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, MultiBfsMsg>, inbox: &[(NodeId, MultiBfsMsg)]) {
        for (_, msg) in inbox {
            let through = msg.dist + 1;
            if through < self.best[msg.src] {
                // A stale pending entry for this source (with the old, larger
                // distance) may remain; it is skipped when popped.
                self.pending.remove(&(self.best[msg.src], msg.src));
                self.best[msg.src] = through;
                self.pending.insert((through, msg.src));
            }
        }
        // Forward the most urgent pending announcement, one per round.
        while let Some(&(d, i)) = self.pending.iter().next() {
            self.pending.remove(&(d, i));
            if self.best[i] == d {
                ctx.broadcast(MultiBfsMsg { src: i, dist: d });
                break;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Result of a multi-source BFS.
#[derive(Debug, Clone)]
pub struct MultiBfs {
    /// `dist[v][i]` = distance from node `v` to source rank `i`.
    pub dist: Vec<Vec<Dist>>,
    /// Measured statistics.
    pub stats: RunStats,
}

/// Driver: run pipelined BFS from `sources`, measuring rounds.
///
/// After the run, every node knows its distance to every source — the
/// `O(|S| + D)`-round primitive behind Lemma 20 and the cycle-detection
/// procedures of Section 5.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
pub fn multi_source_bfs(net: &Network<'_>, sources: &[NodeId]) -> Result<MultiBfs, RuntimeError> {
    let n = net.graph().n();
    let run = net.run(MultiBfsProtocol::instances(n, sources))?;
    Ok(MultiBfs {
        dist: run.nodes.iter().map(|p| p.distances().to_vec()).collect(),
        stats: run.stats,
    })
}

/// Messages of the eccentricity aggregation: per-source maxima flowing up
/// the tree, final eccentricities flowing down.
#[derive(Debug, Clone, Copy)]
pub enum EccMsg {
    /// Subtree maximum distance to source rank `src`.
    Up {
        /// Source rank.
        src: usize,
        /// Maximum of `d(u, src)` over the sender's subtree.
        max: Dist,
    },
    /// Final eccentricity of source rank `src`.
    Down {
        /// Source rank.
        src: usize,
        /// `ecc(src)`.
        ecc: Dist,
    },
}

impl MessageSize for EccMsg {
    fn size_bits(&self) -> u64 {
        let (s, d) = match self {
            EccMsg::Up { src, max } => (*src, *max),
            EccMsg::Down { src, ecc } => (*src, *ecc),
        };
        2 + bits_for(s as u64) + bits_for(d as u64)
    }
}

/// Pipelined convergecast of per-source maxima over a BFS tree, followed by
/// a pipelined broadcast of the results — Lemma 20's second half.
#[derive(Debug)]
pub struct EccAggregateProtocol {
    tree: TreeView,
    /// My own distance to each source, fed in from a completed multi-BFS.
    my_dist: Vec<Dist>,
    /// Running subtree max per source.
    acc: Vec<Dist>,
    /// Number of children still missing per source index.
    missing: Vec<usize>,
    /// Source indices ready to send up, in order.
    ready_up: BTreeSet<usize>,
    sent_up: Vec<bool>,
    /// Final eccentricities (filled at the root, or learned from Down msgs).
    ecc: Vec<Option<Dist>>,
    /// Down-forwarding queue.
    down_queue: std::collections::VecDeque<(usize, Dist)>,
    forwarded_down: Vec<bool>,
}

impl EccAggregateProtocol {
    /// Instances given each node's tree view and its source distances.
    ///
    /// # Panics
    ///
    /// Panics if the per-node vectors disagree in length.
    pub fn instances(views: &[TreeView], dists: &[Vec<Dist>]) -> Vec<Self> {
        assert_eq!(views.len(), dists.len());
        let s = dists.first().map_or(0, |d| d.len());
        views
            .iter()
            .zip(dists)
            .map(|(view, my_dist)| {
                assert_eq!(my_dist.len(), s, "every node needs all source distances");
                let nc = view.children.len();
                let ready: BTreeSet<usize> =
                    if nc == 0 { (0..s).collect() } else { BTreeSet::new() };
                EccAggregateProtocol {
                    tree: view.clone(),
                    my_dist: my_dist.clone(),
                    acc: my_dist.clone(),
                    missing: vec![nc; s],
                    ready_up: ready,
                    sent_up: vec![false; s],
                    ecc: vec![None; s],
                    down_queue: std::collections::VecDeque::new(),
                    forwarded_down: vec![false; s],
                }
            })
            .collect()
    }

    /// The eccentricities of all sources, available at every node after the
    /// run (`None` never remains on a completed run).
    pub fn eccentricities(&self) -> &[Option<Dist>] {
        &self.ecc
    }

    fn is_root(&self) -> bool {
        self.tree.parent.is_none()
    }
}

impl NodeProtocol for EccAggregateProtocol {
    type Msg = EccMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, EccMsg>, inbox: &[(NodeId, EccMsg)]) {
        let s = self.my_dist.len();
        for (_, msg) in inbox {
            match *msg {
                EccMsg::Up { src, max } => {
                    self.acc[src] = self.acc[src].max(max);
                    self.missing[src] -= 1;
                    if self.missing[src] == 0 {
                        if self.is_root() {
                            self.ecc[src] = Some(self.acc[src]);
                            self.down_queue.push_back((src, self.acc[src]));
                        } else {
                            self.ready_up.insert(src);
                        }
                    }
                }
                EccMsg::Down { src, ecc } => {
                    self.ecc[src] = Some(ecc);
                    self.down_queue.push_back((src, ecc));
                }
            }
        }
        // Root with no children: resolve everything locally on round 0.
        if self.is_root() && ctx.round() == 0 {
            for src in 0..s {
                if self.missing[src] == 0 {
                    self.ecc[src] = Some(self.acc[src]);
                    self.down_queue.push_back((src, self.acc[src]));
                }
            }
        }
        // Send one Up per round (pipelining: one source index per round).
        if let Some(p) = self.tree.parent {
            if let Some(&src) = self.ready_up.iter().next() {
                self.ready_up.remove(&src);
                if !self.sent_up[src] {
                    self.sent_up[src] = true;
                    ctx.send(p, EccMsg::Up { src, max: self.acc[src] });
                }
            }
        }
        // Forward one Down per round to all children.
        if let Some((src, ecc)) = self.down_queue.pop_front() {
            if !self.forwarded_down[src] {
                self.forwarded_down[src] = true;
                for &c in &self.tree.children.clone() {
                    ctx.send(c, EccMsg::Down { src, ecc });
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.ecc.iter().all(|e| e.is_some()) && self.down_queue.is_empty()
    }
}

/// Driver for Lemma 20: every node (in particular every source) learns the
/// eccentricity of every source in `O(|S| + D)` measured rounds
/// (multi-source BFS + pipelined aggregation over `tree`).
///
/// Returns `(eccentricities by source rank, combined stats)`.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
pub fn source_eccentricities(
    net: &Network<'_>,
    tree: &BfsTree,
    sources: &[NodeId],
) -> Result<(Vec<Dist>, RunStats), RuntimeError> {
    let mbfs = multi_source_bfs(net, sources)?;
    let views: Vec<TreeView> = tree.views.clone();
    let run = net.run(EccAggregateProtocol::instances(&views, &mbfs.dist))?;
    let root_ecc: Vec<Dist> = run.nodes[tree.root]
        .eccentricities()
        .iter()
        .map(|e| e.expect("completed run fills all eccentricities"))
        .collect();
    let mut stats = mbfs.stats;
    stats.absorb(run.stats);
    Ok((root_ecc, stats))
}

/// Messages of leader election: the best (priority, id) pair seen so far.
#[derive(Debug, Clone, Copy)]
pub struct LeaderMsg {
    /// Random tie-breaking priority.
    pub priority: u64,
    /// Candidate node id.
    pub id: NodeId,
}

impl MessageSize for LeaderMsg {
    fn size_bits(&self) -> u64 {
        // Priorities are hashes of ids in a real deployment; charge log n.
        2 * bits_for(self.id as u64) + 2
    }
}

/// Folklore `O(D)` leader election: flood the maximum (priority, id) pair.
///
/// The paper's algorithms pick "for example the node with the largest
/// identifier"; we elect by a seeded random priority so no protocol can
/// accidentally rely on the winner being node `n − 1`.
#[derive(Debug)]
pub struct LeaderElectProtocol {
    best: (u64, NodeId),
    announced_best: Option<(u64, NodeId)>,
}

impl LeaderElectProtocol {
    /// Instances for all nodes; priorities derive from `seed`.
    pub fn instances(n: usize, seed: u64) -> Vec<Self> {
        (0..n)
            .map(|v| {
                // SplitMix64 of (seed, v): deterministic, well mixed.
                let mut x = seed ^ (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                LeaderElectProtocol { best: (x, v), announced_best: None }
            })
            .collect()
    }

    /// The elected leader (after the run every node agrees).
    pub fn leader(&self) -> NodeId {
        self.best.1
    }
}

impl NodeProtocol for LeaderElectProtocol {
    type Msg = LeaderMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, LeaderMsg>, inbox: &[(NodeId, LeaderMsg)]) {
        for (_, msg) in inbox {
            let cand = (msg.priority, msg.id);
            if cand > self.best {
                self.best = cand;
            }
        }
        if self.announced_best != Some(self.best) {
            self.announced_best = Some(self.best);
            ctx.broadcast(LeaderMsg { priority: self.best.0, id: self.best.1 });
        }
    }

    fn is_done(&self) -> bool {
        self.announced_best == Some(self.best)
    }
}

/// Driver: elect a leader in `O(D)` measured rounds; all nodes agree.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
pub fn elect_leader(net: &Network<'_>, seed: u64) -> Result<(NodeId, RunStats), RuntimeError> {
    let n = net.graph().n();
    let run = net.run(LeaderElectProtocol::instances(n, seed))?;
    let leader = run.nodes[0].leader();
    debug_assert!(run.nodes.iter().all(|p| p.leader() == leader));
    Ok((leader, run.stats))
}

/// Convenience: `ecc(root)` measured distributedly (BFS + convergecast of
/// the max depth), used by drivers to derive a `D` estimate in `O(D)`
/// rounds: `ecc(root) ≤ D ≤ 2·ecc(root)`.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
pub fn distributed_depth_estimate(
    net: &Network<'_>,
    root: NodeId,
) -> Result<(Dist, RunStats), RuntimeError> {
    let tree = build_bfs_tree(net, root)?;
    Ok((tree.depth, tree.stats))
}

/// Reference check used in tests: does `views` describe a valid spanning
/// tree of `g` rooted at `root` with BFS distances `dist`?
pub fn validate_bfs_tree(g: &Graph, tree: &BfsTree) -> bool {
    let want = g.bfs_distances(tree.root);
    for (v, w) in want.iter().enumerate() {
        let Some(wd) = *w else { return false };
        if tree.dist[v] != wd {
            return false;
        }
        match tree.views[v].parent {
            None => {
                if v != tree.root {
                    return false;
                }
            }
            Some(p) => {
                if !g.has_edge(v, p) || tree.dist[p] + 1 != tree.dist[v] {
                    return false;
                }
                if !tree.views[p].children.contains(&v) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{balanced_tree, cycle, grid, path, random_connected, star};

    #[test]
    fn bfs_tree_on_path() {
        let g = path(9);
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        assert!(validate_bfs_tree(&g, &tree));
        assert_eq!(tree.depth, 8);
        // BFS takes ~D rounds, within a small constant.
        assert!(tree.stats.rounds >= 8 && tree.stats.rounds <= 12, "rounds={}", tree.stats.rounds);
    }

    #[test]
    fn bfs_tree_on_random_graphs() {
        for seed in 0..5 {
            let g = random_connected(40, 0.08, seed);
            let net = Network::new(&g);
            let tree = build_bfs_tree(&net, (seed as usize * 7) % 40).unwrap();
            assert!(validate_bfs_tree(&g, &tree));
        }
    }

    #[test]
    fn bfs_rounds_scale_with_diameter_not_n() {
        let g = star(200);
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        assert!(tree.stats.rounds <= 5, "star BFS should be O(1), got {}", tree.stats.rounds);
    }

    #[test]
    fn multi_bfs_correct_distances() {
        let g = grid(6, 5);
        let net = Network::new(&g);
        let sources = vec![0, 7, 29, 13];
        let mbfs = multi_source_bfs(&net, &sources).unwrap();
        for v in 0..g.n() {
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(Some(mbfs.dist[v][i]), g.bfs_distances(s)[v]);
            }
        }
    }

    #[test]
    fn multi_bfs_pipelines() {
        // On a path with S sources the pipelined run must take O(S + D)
        // rounds, far below the naive S * D.
        let g = path(40);
        let net = Network::new(&g);
        let sources: Vec<NodeId> = (0..10).map(|i| i * 4).collect();
        let mbfs = multi_source_bfs(&net, &sources).unwrap();
        let s = sources.len();
        let d = 39;
        assert!(
            mbfs.stats.rounds <= 2 * (s + d),
            "rounds {} exceed 2(S+D) = {}",
            mbfs.stats.rounds,
            2 * (s + d)
        );
    }

    #[test]
    fn source_eccentricities_match_reference() {
        for (g, srcs) in [
            (grid(5, 4), vec![0usize, 7, 19]),
            (cycle(11), vec![0, 1, 5]),
            (balanced_tree(2, 3), vec![0, 3, 14]),
        ] {
            let net = Network::new(&g);
            let tree = build_bfs_tree(&net, 0).unwrap();
            let (ecc, _) = source_eccentricities(&net, &tree, &srcs).unwrap();
            for (i, &s) in srcs.iter().enumerate() {
                assert_eq!(Some(ecc[i]), g.eccentricity(s), "source {s}");
            }
        }
    }

    #[test]
    fn source_eccentricities_rounds_scale() {
        let g = path(30);
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let sources: Vec<NodeId> = (0..8).map(|i| i * 3).collect();
        let (_, stats) = source_eccentricities(&net, &tree, &sources).unwrap();
        let bound = 6 * (sources.len() + 30);
        assert!(stats.rounds <= bound, "rounds {} vs bound {}", stats.rounds, bound);
    }

    #[test]
    fn leader_election_agrees_and_is_fast() {
        for seed in 0..5 {
            let g = random_connected(30, 0.1, seed);
            let net = Network::new(&g);
            let (leader, stats) = elect_leader(&net, seed).unwrap();
            assert!(leader < 30);
            let d = g.diameter().unwrap() as usize;
            assert!(stats.rounds <= 3 * d.max(1) + 2, "rounds {} too slow", stats.rounds);
        }
    }

    #[test]
    fn leader_depends_on_seed() {
        let g = path(50);
        let net = Network::new(&g);
        let leaders: std::collections::HashSet<NodeId> =
            (0..10).map(|s| elect_leader(&net, s).unwrap().0).collect();
        assert!(leaders.len() > 1, "priorities should vary with the seed");
    }

    #[test]
    fn depth_estimate_bounds_diameter() {
        for seed in 0..4 {
            let g = random_connected(25, 0.12, seed);
            let net = Network::new(&g);
            let (depth, _) = distributed_depth_estimate(&net, 3).unwrap();
            let d = g.diameter().unwrap();
            assert!(depth <= d && 2 * depth >= d);
        }
    }

    #[test]
    fn bfs_tree_disconnected_errors() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let net = Network::new(&g).with_round_limit(100);
        assert!(matches!(build_bfs_tree(&net, 0), Err(RuntimeError::RoundLimitExceeded { .. })));
    }
}
