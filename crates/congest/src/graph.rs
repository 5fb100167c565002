//! Undirected graph representation used as the CONGEST network topology.
//!
//! The graph is stored in compressed-sparse-row (CSR) form: construction is
//! `O(n + m)`, neighbor iteration is contiguous, and the structure is
//! immutable after construction — matching the CONGEST model where the
//! topology is fixed for the lifetime of an execution.
//!
//! Besides the topology itself this module provides *reference* (centralized)
//! graph algorithms — BFS distances, eccentricities, diameter, radius, girth,
//! shortest-cycle queries. These are used to validate the distributed
//! protocols against ground truth and to construct worst-case inputs; they
//! are **not** part of any protocol's round count.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a network node, in `0..n`.
///
/// The CONGEST model gives every node a unique `O(log n)`-bit identifier;
/// we use the dense integers `0..n` so an identifier always fits in
/// `⌈log₂ n⌉` bits.
pub type NodeId = usize;

/// Distance value; `u32::MAX` never occurs in a connected graph of
/// supported size.
pub type Dist = u32;

/// Error produced when constructing a [`Graph`] from an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum GraphError {
    /// An endpoint was `>= n`.
    EndpointOutOfRange { edge: (NodeId, NodeId), n: usize },
    /// A self-loop `(v, v)` was supplied; CONGEST links connect distinct nodes.
    SelfLoop(NodeId),
    /// The same undirected edge appeared twice.
    DuplicateEdge(NodeId, NodeId),
    /// A graph with zero nodes was requested.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { edge, n } => {
                write!(f, "edge ({}, {}) has endpoint outside 0..{}", edge.0, edge.1, n)
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected, simple graph in CSR form.
///
/// # Examples
///
/// ```
/// use congest::graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.diameter(), Some(3));
/// # Ok::<(), congest::graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists, length `2m`.
    neighbors: Vec<NodeId>,
    /// The original edge list with `u < v`, sorted.
    edges: Vec<(NodeId, NodeId)>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph").field("n", &self.n).field("m", &self.edges.len()).finish()
    }
}

impl Graph {
    /// Builds a graph on `n` nodes from an iterator of undirected edges.
    ///
    /// Edges may be given in either orientation; they are normalized to
    /// `u < v`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, self-loops, duplicate
    /// edges, or `n == 0`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut norm: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v) in edges {
            if u >= n || v >= n {
                return Err(GraphError::EndpointOutOfRange { edge: (u, v), n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            norm.push((u.min(v), u.max(v)));
        }
        norm.sort_unstable();
        for w in norm.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        let mut deg = vec![0usize; n];
        for &(u, v) in &norm {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &deg {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut neighbors = vec![0; 2 * norm.len()];
        let mut fill = offsets.clone();
        for &(u, v) in &norm {
            neighbors[fill[u]] = v;
            fill[u] += 1;
            neighbors[fill[v]] = u;
            fill[v] += 1;
        }
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Ok(Graph { n, offsets, neighbors, edges: norm })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The normalized (`u < v`, sorted) edge list.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// A deterministic pseudo-random sample of up to `count` distinct edges.
    ///
    /// The same `(graph, count, seed)` always yields the same sample in the
    /// same order — the selection is a partial Fisher–Yates shuffle driven
    /// by a SplitMix64 stream, with no global RNG involved — so fault plans
    /// built from it replay identically across processes.
    pub fn sample_edges(&self, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut edges = self.edges.clone();
        let count = count.min(edges.len());
        let mut state = seed;
        for i in 0..count {
            // SplitMix64: advance, then finalize into a well-mixed draw.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let j = i + (z % (edges.len() - i) as u64) as usize;
            edges.swap(i, j);
        }
        edges.truncate(count);
        edges
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether `{u, v}` is an edge (binary search on the sorted adjacency).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The index of `w` within the sorted neighbor list of `v`, or `None`
    /// if `{v, w}` is not an edge.
    ///
    /// `neighbor_rank(v, w) == Some(r)` iff `neighbors(v)[r] == w`; the rank
    /// is a dense per-endpoint edge index, which lets the round engine keep
    /// per-edge load counters in a flat array instead of a keyed map.
    #[inline]
    pub fn neighbor_rank(&self, v: NodeId, w: NodeId) -> Option<usize> {
        if v == w {
            return None;
        }
        self.neighbors(v).binary_search(&w).ok()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of bits needed to name a node: `⌈log₂ n⌉`, at least 1.
    pub fn id_bits(&self) -> u64 {
        bits_for(self.n.saturating_sub(1) as u64)
    }

    /// BFS distances from `src`; `None` for unreachable nodes.
    ///
    /// This is a centralized reference algorithm (`O(n + m)`).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<Dist>> {
        assert!(src < self.n, "source {src} out of range");
        let mut dist = vec![None; self.n];
        dist[src] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].unwrap();
            for &w in self.neighbors(u) {
                if dist[w].is_none() {
                    dist[w] = Some(du + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected. A single node counts as connected.
    pub fn is_connected(&self) -> bool {
        self.bfs_distances(0).iter().all(|d| d.is_some())
    }

    /// Eccentricity of `v` (max distance to any node), or `None` if the
    /// graph is disconnected.
    pub fn eccentricity(&self, v: NodeId) -> Option<Dist> {
        let d = self.bfs_distances(v);
        let mut ecc = 0;
        for x in d {
            ecc = ecc.max(x?);
        }
        Some(ecc)
    }

    /// All eccentricities, or `None` if disconnected. `O(n(n + m))`.
    pub fn eccentricities(&self) -> Option<Vec<Dist>> {
        (0..self.n).map(|v| self.eccentricity(v)).collect()
    }

    /// Diameter (max eccentricity), or `None` if disconnected.
    pub fn diameter(&self) -> Option<Dist> {
        Some(self.eccentricities()?.into_iter().max().unwrap_or(0))
    }

    /// Radius (min eccentricity), or `None` if disconnected.
    pub fn radius(&self) -> Option<Dist> {
        Some(self.eccentricities()?.into_iter().min().unwrap_or(0))
    }

    /// Average eccentricity, or `None` if disconnected.
    pub fn average_eccentricity(&self) -> Option<f64> {
        let e = self.eccentricities()?;
        Some(e.iter().map(|&x| x as f64).sum::<f64>() / self.n as f64)
    }

    /// Length of the shortest cycle through node `v`, if any, found by BFS
    /// from `v`: the first time two distinct BFS-tree branches from `v`
    /// meet (by edge or at a node) closes the shortest cycle through `v`.
    pub fn shortest_cycle_through(&self, v: NodeId) -> Option<Dist> {
        // BFS labelling each visited node with the first-hop branch it was
        // reached through; an edge between different branches, or between a
        // node and `v`'s other neighbor, closes a cycle through `v`.
        let mut dist = vec![Dist::MAX; self.n];
        let mut branch = vec![usize::MAX; self.n];
        dist[v] = 0;
        let mut queue = VecDeque::new();
        for (i, &w) in self.neighbors(v).iter().enumerate() {
            if dist[w] == Dist::MAX {
                dist[w] = 1;
                branch[w] = i;
                queue.push_back(w);
            } else {
                // Multi-edge impossible in a simple graph.
                unreachable!("simple graph cannot revisit a neighbor of v");
            }
        }
        let mut best = None;
        while let Some(u) = queue.pop_front() {
            if let Some(b) = best {
                if 2 * dist[u] >= b {
                    break;
                }
            }
            for &w in self.neighbors(u) {
                if w == v {
                    continue;
                }
                if dist[w] == Dist::MAX {
                    dist[w] = dist[u] + 1;
                    branch[w] = branch[u];
                    queue.push_back(w);
                } else if branch[w] != branch[u] {
                    let cand = dist[u] + dist[w] + 1;
                    best = Some(best.map_or(cand, |b: Dist| b.min(cand)));
                }
            }
        }
        best
    }

    /// The girth (length of the shortest cycle), or `None` for a forest.
    ///
    /// Centralized reference: `O(n(n + m))` via
    /// [`shortest_cycle_through`](Self::shortest_cycle_through) per node.
    pub fn girth(&self) -> Option<Dist> {
        (0..self.n).filter_map(|v| self.shortest_cycle_through(v)).min()
    }

    /// Whether the graph contains a cycle of length at most `k`.
    pub fn has_cycle_at_most(&self, k: Dist) -> bool {
        self.girth().is_some_and(|g| g <= k)
    }

    /// A BFS tree from `root`, as a parent array (`parent[root] == root`).
    ///
    /// Ties (several neighbors at the same distance) are broken toward the
    /// smallest parent identifier, matching the distributed BFS protocol's
    /// deterministic tie-break so trees can be compared in tests.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `root >= n`.
    pub fn bfs_tree(&self, root: NodeId) -> Vec<NodeId> {
        let dist = self.bfs_distances(root);
        let mut parent = vec![usize::MAX; self.n];
        parent[root] = root;
        for v in 0..self.n {
            if v == root {
                continue;
            }
            let dv = dist[v].expect("bfs_tree requires a connected graph");
            let p = self
                .neighbors(v)
                .iter()
                .copied()
                .find(|&u| dist[u] == Some(dv - 1))
                .expect("BFS invariant: some neighbor is one closer to the root");
            parent[v] = p;
        }
        parent
    }

    /// Nodes sorted by distance from `root`, i.e. a valid top-down
    /// processing order of the BFS tree.
    pub fn bfs_order(&self, root: NodeId) -> Vec<NodeId> {
        let dist = self.bfs_distances(root);
        let mut order: Vec<NodeId> = (0..self.n).collect();
        order.sort_by_key(|&v| dist[v].unwrap_or(Dist::MAX));
        order
    }

    /// All nodes within distance `radius` of any node in `seeds`.
    ///
    /// # Panics
    ///
    /// Panics if a seed is out of range.
    pub fn ball(&self, seeds: &[NodeId], radius: Dist) -> Vec<NodeId> {
        let mut dist = vec![Dist::MAX; self.n];
        let mut queue = VecDeque::new();
        for &s in seeds {
            assert!(s < self.n, "seed {s} out of range");
            if dist[s] == Dist::MAX {
                dist[s] = 0;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            if dist[u] >= radius {
                continue;
            }
            for &w in self.neighbors(u) {
                if dist[w] == Dist::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        (0..self.n).filter(|&v| dist[v] != Dist::MAX).collect()
    }

    /// The subgraph induced by `nodes` (which may be unsorted but must be
    /// duplicate-free), with nodes relabelled `0..nodes.len()` in the given
    /// order. Returns the subgraph and the old-id list (`new → old`).
    ///
    /// # Panics
    ///
    /// Panics on duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut remap = vec![usize::MAX; self.n];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(v < self.n, "node {v} out of range");
            assert!(remap[v] == usize::MAX, "duplicate node {v}");
            remap[v] = i;
        }
        let edges: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .filter(|&&(u, v)| remap[u] != usize::MAX && remap[v] != usize::MAX)
            .map(|&(u, v)| (remap[u], remap[v]))
            .collect();
        let sub = Graph::from_edges(nodes.len().max(1), edges).expect("induced subgraph is valid");
        (sub, nodes.to_vec())
    }

    /// Histogram of degrees (index = degree).
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_degree() + 1];
        for v in 0..self.n {
            h[self.degree(v)] += 1;
        }
        h
    }
}

/// Number of bits needed to represent values `0..=x`: `⌈log₂(x + 1)⌉`,
/// at least 1.
///
/// # Examples
///
/// ```
/// use congest::graph::bits_for;
/// assert_eq!(bits_for(0), 1);
/// assert_eq!(bits_for(1), 1);
/// assert_eq!(bits_for(2), 2);
/// assert_eq!(bits_for(255), 8);
/// assert_eq!(bits_for(256), 9);
/// ```
pub fn bits_for(x: u64) -> u64 {
    (64 - x.leading_zeros() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn construction_normalizes_and_sorts() {
        let g = Graph::from_edges(3, [(2, 1), (1, 0)]).unwrap();
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(matches!(
            Graph::from_edges(2, [(0, 2)]),
            Err(GraphError::EndpointOutOfRange { .. })
        ));
        assert!(matches!(Graph::from_edges(2, [(1, 1)]), Err(GraphError::SelfLoop(1))));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(0, 1))
        ));
        assert!(matches!(Graph::from_edges(0, []), Err(GraphError::Empty)));
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
        assert_eq!(g.radius(), Some(0));
        assert_eq!(g.girth(), None);
    }

    #[test]
    fn path_metrics() {
        let g = path(5);
        assert_eq!(g.diameter(), Some(4));
        assert_eq!(g.radius(), Some(2));
        assert_eq!(g.eccentricity(0), Some(4));
        assert_eq!(g.eccentricity(2), Some(2));
        assert_eq!(g.girth(), None);
        assert!(!g.has_cycle_at_most(100));
    }

    #[test]
    fn cycle_metrics() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert_eq!(g.diameter(), Some(3));
        assert_eq!(g.radius(), Some(3));
        assert_eq!(g.girth(), Some(6));
        assert!(g.has_cycle_at_most(6));
        assert!(!g.has_cycle_at_most(5));
        for v in 0..6 {
            assert_eq!(g.shortest_cycle_through(v), Some(6));
        }
    }

    #[test]
    fn triangle_with_tail_girth() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.girth(), Some(3));
        assert_eq!(g.shortest_cycle_through(0), Some(3));
        assert_eq!(g.shortest_cycle_through(4), None);
    }

    #[test]
    fn complete_graph_girth_three() {
        let mut edges = vec![];
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        assert_eq!(g.girth(), Some(3));
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn petersen_girth_five() {
        // The Petersen graph: outer 5-cycle, inner 5-star polygon, spokes.
        let mut e = vec![];
        for i in 0..5 {
            e.push((i, (i + 1) % 5)); // outer cycle
            e.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
            e.push((i, 5 + i)); // spokes
        }
        let g = Graph::from_edges(10, e).unwrap();
        assert_eq!(g.girth(), Some(5));
        assert_eq!(g.diameter(), Some(2));
        assert!(g.has_cycle_at_most(5));
        assert!(!g.has_cycle_at_most(4));
    }

    #[test]
    fn disconnected_reports_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.radius(), None);
        assert_eq!(g.eccentricity(0), None);
    }

    #[test]
    fn bfs_tree_parents_decrease_distance() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]).unwrap();
        let parent = g.bfs_tree(0);
        let dist = g.bfs_distances(0);
        assert_eq!(parent[0], 0);
        for v in 1..6 {
            assert_eq!(dist[parent[v]].unwrap() + 1, dist[v].unwrap());
        }
    }

    #[test]
    fn even_cycle_shortest_through_each_node() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        for v in 0..4 {
            assert_eq!(g.shortest_cycle_through(v), Some(4));
        }
    }

    #[test]
    fn ball_and_induced_subgraph() {
        let g = path(10);
        assert_eq!(g.ball(&[5], 2), vec![3, 4, 5, 6, 7]);
        assert_eq!(g.ball(&[0, 9], 1), vec![0, 1, 8, 9]);
        assert_eq!(g.ball(&[4], 0), vec![4]);
        let (sub, ids) = g.induced_subgraph(&[3, 4, 5, 7]);
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.m(), 2); // 3-4, 4-5; node 7 isolated
        assert_eq!(ids, vec![3, 4, 5, 7]);
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        path(5).induced_subgraph(&[1, 1]);
    }

    #[test]
    fn neighbor_rank_indexes_adjacency() {
        let g = Graph::from_edges(5, [(0, 1), (0, 3), (0, 4), (2, 3)]).unwrap();
        assert_eq!(g.neighbor_rank(0, 1), Some(0));
        assert_eq!(g.neighbor_rank(0, 3), Some(1));
        assert_eq!(g.neighbor_rank(0, 4), Some(2));
        assert_eq!(g.neighbor_rank(0, 2), None);
        assert_eq!(g.neighbor_rank(0, 0), None);
        assert_eq!(g.neighbor_rank(3, 0), Some(0));
        assert_eq!(g.neighbor_rank(3, 2), Some(1));
        for v in 0..5 {
            for (r, &w) in g.neighbors(v).iter().enumerate() {
                assert_eq!(g.neighbor_rank(v, w), Some(r));
            }
        }
    }

    #[test]
    fn degree_histogram_counts() {
        let g = path(5);
        let h = g.degree_histogram();
        assert_eq!(h, vec![0, 2, 3]); // two endpoints, three inner nodes
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn id_bits_matches_n() {
        let g = path(2);
        assert_eq!(g.id_bits(), 1);
        let g = path(1000);
        assert_eq!(g.id_bits(), 10);
    }
}
