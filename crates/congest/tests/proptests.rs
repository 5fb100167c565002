//! Property-based tests for the CONGEST substrate: structural invariants of
//! generators, distributed-vs-reference agreement, register algebra, and
//! protocol round bounds.

use congest::aggregate::{aggregate_batch, CommOp};
use congest::bfs::{build_bfs_tree, multi_source_bfs, source_eccentricities, validate_bfs_tree};
use congest::clustering::{cluster, validate};
use congest::generators::{random_connected_m, random_relabel, random_tree};
use congest::runtime::Network;
use congest::tree_comm::{distribute_register, gather_register, Register, Schedule};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = congest::Graph> {
    (4usize..40, 0u64..500).prop_flat_map(|(n, seed)| {
        let extra = n / 3;
        Just(random_connected_m(n, n - 1 + extra, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_graphs_are_connected_simple(g in arb_graph()) {
        prop_assert!(g.is_connected());
        // Simplicity: neighbor lists sorted and duplicate-free.
        for v in 0..g.n() {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(!nb.contains(&v));
        }
    }

    #[test]
    fn relabelling_preserves_metric_invariants(g in arb_graph(), seed in 0u64..100) {
        let h = random_relabel(&g, seed);
        prop_assert_eq!(g.diameter(), h.diameter());
        prop_assert_eq!(g.radius(), h.radius());
        prop_assert_eq!(g.girth(), h.girth());
        prop_assert_eq!(g.m(), h.m());
    }

    #[test]
    fn distributed_bfs_matches_reference(g in arb_graph(), root_pick in 0usize..1000) {
        let root = root_pick % g.n();
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, root).unwrap();
        prop_assert!(validate_bfs_tree(&g, &tree));
        // Round bound: O(D).
        let d = g.diameter().unwrap() as usize;
        prop_assert!(tree.stats.rounds <= 2 * d + 4);
    }

    #[test]
    fn multi_bfs_distances_exact(g in arb_graph(), picks in proptest::collection::vec(0usize..1000, 1..6)) {
        let sources: Vec<usize> = picks.iter().map(|p| p % g.n()).collect();
        let net = Network::new(&g);
        let mbfs = multi_source_bfs(&net, &sources).unwrap();
        for v in 0..g.n() {
            for (i, &s) in sources.iter().enumerate() {
                prop_assert_eq!(Some(mbfs.dist[v][i]), g.bfs_distances(s)[v]);
            }
        }
    }

    #[test]
    fn source_eccentricities_exact(g in arb_graph(), picks in proptest::collection::vec(0usize..1000, 1..5)) {
        let sources: Vec<usize> = picks.iter().map(|p| p % g.n()).collect();
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let (ecc, _) = source_eccentricities(&net, &tree, &sources).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            prop_assert_eq!(Some(ecc[i]), g.eccentricity(s));
        }
    }

    #[test]
    fn aggregate_equals_reference_fold(
        g in arb_graph(),
        p in 1usize..6,
        op_pick in 0usize..6,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let op = [CommOp::Sum, CommOp::Xor, CommOp::Min, CommOp::Max, CommOp::Or, CommOp::And][op_pick];
        let q = 16u64;
        let lim = if op == CommOp::Sum { ((1u64 << q) - 1) / g.n() as u64 } else { (1u64 << q) - 1 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let values: Vec<Vec<u64>> = (0..g.n())
            .map(|_| (0..p).map(|_| rng.gen_range(0..=lim.max(1))).collect())
            .collect();
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let agg = aggregate_batch(&net, &tree.views, values.clone(), q, op).unwrap();
        for i in 0..p {
            let want = op.fold(values.iter().map(|v| v[i]));
            prop_assert_eq!(agg.values[i], want);
        }
    }

    #[test]
    fn register_roundtrip_over_any_tree(g in arb_graph(), q in 1u64..200, val in any::<u64>()) {
        let net = Network::new(&g);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let mut reg = Register::zeros(q);
        let lo = q.min(64);
        let v = if lo == 64 { val } else { val & ((1 << lo) - 1) };
        reg.set_bits(0, lo, v);
        let (copies, _) = distribute_register(&net, &tree.views, reg.clone(), Schedule::Pipelined).unwrap();
        for c in &copies {
            prop_assert_eq!(c, &reg);
        }
        let (back, _) = gather_register(&net, &tree.views, copies).unwrap();
        prop_assert_eq!(back, reg);
    }

    #[test]
    fn register_bit_algebra(offsets in proptest::collection::vec((0u64..190, 1u64..60, any::<u64>()), 1..8)) {
        // Non-overlapping writes then reads must round-trip.
        let mut reg = Register::zeros(256);
        let mut used: Vec<(u64, u64)> = Vec::new();
        for (off, len, val) in offsets {
            let off = off.min(256 - len);
            if used.iter().any(|&(o, l)| off < o + l && o < off + len) {
                continue;
            }
            let v = val & if len == 64 { u64::MAX } else { (1 << len) - 1 };
            reg.set_bits(off, len, v);
            used.push((off, len));
            prop_assert_eq!(reg.get_bits(off, len), v);
        }
        for &(off, len) in &used {
            let got = reg.get_bits(off, len);
            reg.set_bits(off, len, got); // idempotent rewrite
            prop_assert_eq!(reg.get_bits(off, len), got);
        }
    }

    #[test]
    fn clustering_properties_hold(g in arb_graph(), d in 1usize..6) {
        let c = cluster(&g, d);
        prop_assert!(validate(&g, &c).is_ok(), "{:?}", validate(&g, &c));
    }

    #[test]
    fn pack_unpack_roundtrip(fields in proptest::collection::vec(0u64..(1 << 20), 1..20)) {
        let r = Register::pack(&fields, 20);
        prop_assert_eq!(r.unpack(20), fields);
    }

    #[test]
    fn neighbor_rank_agrees_with_position_lookup(g in arb_graph(), picks in proptest::collection::vec((0usize..1000, 0usize..1000), 1..20)) {
        // neighbor_rank must be exactly "position of w in neighbors(v)",
        // for edges and non-edges alike — it is the index the engine's
        // zero-alloc router trusts for its per-edge load slots.
        for v in 0..g.n() {
            for (r, &w) in g.neighbors(v).iter().enumerate() {
                prop_assert_eq!(g.neighbor_rank(v, w), Some(r));
            }
        }
        for (a, b) in picks {
            let v = a % g.n();
            let w = b % g.n();
            let expect = g.neighbors(v).iter().position(|&x| x == w);
            prop_assert_eq!(g.neighbor_rank(v, w), expect, "v={} w={}", v, w);
            prop_assert_eq!(g.neighbor_rank(v, w).is_some(), g.has_edge(v, w));
        }
    }

    #[test]
    fn trees_have_no_cycles(n in 2usize..60, seed in 0u64..300) {
        let g = random_tree(n, seed);
        prop_assert_eq!(g.m(), n - 1);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.girth(), None);
    }
}
