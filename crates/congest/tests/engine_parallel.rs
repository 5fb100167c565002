//! The parallel engine's contract: for any protocol, topology, and thread
//! count, runs under `EngineMode::Parallel` produce results
//! byte-identical to the single-threaded reference engine — statistics,
//! per-round traces, and the full final node states.
//!
//! Node states are compared through their `Debug` rendering, which covers
//! every field of every protocol without requiring `PartialEq` on them.

use congest::aggregate::{AggregateBatchProtocol, CommOp};
use congest::bfs::{BfsTreeProtocol, TreeView};
use congest::generators::{grid, path, random_connected_m, star};
use congest::graph::Graph;
use congest::runtime::{EngineMode, Network, NodeProtocol, RuntimeError};
use congest::tree_comm::{BroadcastRegisterProtocol, Register, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn topologies(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("path(40)".into(), path(40)),
        ("grid(8x6)".into(), grid(8, 6)),
        (format!("random(48, seed {seed})"), random_connected_m(48, 96, seed)),
    ]
}

/// Run `make()`'s protocol set sequentially and under 2- and 5-thread
/// parallel engines on copies of `base` (keeping its bandwidth, limits,
/// and fault plan), asserting identical stats, traces, and node states.
fn assert_engines_agree_on<P, F>(label: &str, base: &Network<'_>, make: F)
where
    P: NodeProtocol + Send + std::fmt::Debug,
    P::Msg: Send + Sync,
    F: Fn(&Network<'_>) -> Vec<P>,
{
    let reference = base.clone().with_engine(EngineMode::Sequential);
    let ref_out =
        reference.exec(make(&reference)).traced().run_sequential().expect("reference run");
    let ref_states = format!("{:?}", ref_out.nodes);
    for threads in [2usize, 5] {
        let net = base.clone().with_engine(EngineMode::Parallel { threads });
        let out = net.exec(make(&net)).traced().run().expect("parallel run");
        assert_eq!(out.stats, ref_out.stats, "{label}: stats diverged at {threads} threads");
        assert_eq!(
            out.trace.rounds, ref_out.trace.rounds,
            "{label}: trace diverged at {threads} threads"
        );
        assert_eq!(
            format!("{:?}", out.nodes),
            ref_states,
            "{label}: node states diverged at {threads} threads"
        );
    }
}

/// [`assert_engines_agree_on`] over a default fault-free network.
fn assert_engines_agree<P, F>(label: &str, g: &Graph, make: F)
where
    P: NodeProtocol + Send + std::fmt::Debug,
    P::Msg: Send + Sync,
    F: Fn(&Network<'_>) -> Vec<P>,
{
    assert_engines_agree_on(label, &Network::new(g), make);
}

fn tree_views(net: &Network<'_>, root: usize) -> Vec<TreeView> {
    let run = net
        .run_sequential(BfsTreeProtocol::instances(net.graph().n(), root))
        .expect("bfs for tree views");
    run.nodes.iter().map(|p| p.tree_view()).collect()
}

#[test]
fn bfs_matches_sequential_everywhere() {
    for seed in [1u64, 2, 3] {
        for (name, g) in topologies(seed) {
            let root = seed as usize % g.n();
            assert_engines_agree(&format!("bfs/{name}"), &g, |net| {
                BfsTreeProtocol::instances(net.graph().n(), root)
            });
        }
    }
}

#[test]
fn aggregate_matches_sequential_everywhere() {
    for seed in [1u64, 2, 3] {
        for (name, g) in topologies(seed) {
            let views = tree_views(&Network::new(&g), 0);
            let mut rng = StdRng::seed_from_u64(seed);
            // Keep the Sum domain closed: each value below (2^q - 1) / n.
            let q = 16u64;
            let lim = ((1u64 << q) - 1) / g.n() as u64;
            let values: Vec<Vec<u64>> =
                (0..g.n()).map(|_| (0..4).map(|_| rng.gen_range(0u64..lim)).collect()).collect();
            assert_engines_agree(&format!("aggregate/{name}"), &g, |net| {
                AggregateBatchProtocol::instances(
                    &views,
                    values.clone(),
                    q,
                    CommOp::Sum,
                    (net.cap_bits() - 1).min(64),
                )
            });
        }
    }
}

#[test]
fn tree_comm_matches_sequential_everywhere() {
    for seed in [1u64, 2, 3] {
        for (name, g) in topologies(seed) {
            let views = tree_views(&Network::new(&g), 0);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            let words: Vec<u64> = (0..6).map(|_| rng.gen()).collect();
            let reg = Register::from_words(words.len() as u64 * 64, words);
            assert_engines_agree(&format!("tree_comm/{name}"), &g, |net| {
                BroadcastRegisterProtocol::instances(
                    &views,
                    reg.clone(),
                    (net.cap_bits() - 1).min(64),
                    Schedule::Pipelined,
                )
            });
        }
    }
}

#[test]
fn traced_and_untraced_runs_report_identical_stats() {
    for (name, g) in topologies(7) {
        let net = Network::new(&g);
        let n = g.n();
        let plain = net.run(BfsTreeProtocol::instances(n, 0)).expect("plain");
        let traced = net.exec(BfsTreeProtocol::instances(n, 0)).traced().run().expect("traced");
        let trace = &traced.trace;
        assert_eq!(plain.stats, traced.stats, "{name}: tracing changed the run statistics");
        assert_eq!(
            trace.total_bits(),
            traced.stats.total_bits,
            "{name}: trace accounts bits differently than the stats"
        );
        assert_eq!(
            trace.rounds.iter().map(|r| r.messages).sum::<u64>(),
            traced.stats.messages,
            "{name}: trace accounts messages differently than the stats"
        );
    }
}

#[test]
fn parallel_engine_reports_identical_errors() {
    // A star's hub broadcasting a cap-sized payload twice must fail with
    // the same first error under every engine.
    #[derive(Debug)]
    struct Hog {
        sent: bool,
    }
    #[derive(Clone, Debug)]
    struct Big(u64);
    impl congest::runtime::MessageSize for Big {
        fn size_bits(&self) -> u64 {
            self.0
        }
    }
    impl NodeProtocol for Hog {
        type Msg = Big;
        fn on_round(&mut self, ctx: &mut congest::runtime::Ctx<'_, Big>, _inbox: &[(usize, Big)]) {
            if !self.sent {
                let cap = ctx.cap_bits();
                for &w in &[ctx.neighbors()[0], ctx.neighbors()[0]] {
                    ctx.send(w, Big(cap));
                }
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }
    let g = star(20);
    let make = || (0..20).map(|_| Hog { sent: false }).collect::<Vec<_>>();
    let seq_err = Network::new(&g).run_sequential(make()).unwrap_err();
    assert!(matches!(seq_err, RuntimeError::BandwidthExceeded { .. }));
    for threads in [2usize, 3, 8] {
        let par_err =
            Network::new(&g).with_engine(EngineMode::Parallel { threads }).run(make()).unwrap_err();
        assert_eq!(par_err, seq_err, "error diverged at {threads} threads");
    }
}

/// The differential proptest of the two engines: random connected
/// topologies (path/grid/star/random, up to ~256 nodes) crossed with the
/// four protocol families must yield bit-identical stats, traces, and node
/// states under `Sequential` vs `Parallel` — with and without a fault
/// plan.
mod differential {
    use super::*;
    use congest::conformance::FloodProtocol;
    use congest::faults::{FaultPlan, Reliable, RetryConfig};
    use congest::generators::random_tree;
    use proptest::prelude::*;

    /// Random connected topologies: paths, grids, stars, random graphs, and
    /// random trees, up to ~256 nodes.
    fn arb_topology() -> impl Strategy<Value = (String, Graph)> {
        ((0usize..5), (0usize..1000), (0u64..1000)).prop_map(|(family, size, seed)| match family {
            0 => {
                let n = 8 + size % 249;
                (format!("path({n})"), path(n))
            }
            1 => {
                let (w, h) = (2 + size % 15, 2 + seed as usize % 15);
                (format!("grid({w}x{h})"), grid(w, h))
            }
            2 => {
                let n = 8 + size % 249;
                (format!("star({n})"), star(n))
            }
            3 => {
                let n = 16 + size % 177;
                (format!("random({n},{seed})"), random_connected_m(n, n + n / 2, seed))
            }
            _ => {
                let n = 8 + size % 121;
                (format!("tree({n},{seed})"), random_tree(n, seed))
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn flood_agrees(topo in arb_topology(), pick in 0usize..1000) {
            let (name, g) = topo;
            let origin = pick % g.n();
            assert_engines_agree(&format!("flood/{name}"), &g, |net| {
                FloodProtocol::instances(net.graph().n(), origin)
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn bfs_agrees(topo in arb_topology(), pick in 0usize..1000) {
            let (name, g) = topo;
            let root = pick % g.n();
            assert_engines_agree(&format!("bfs/{name}"), &g, |net| {
                BfsTreeProtocol::instances(net.graph().n(), root)
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn broadcast_agrees(topo in arb_topology(), seed in 0u64..1000) {
            let (name, g) = topo;
            let views = tree_views(&Network::new(&g), 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let words: Vec<u64> = (0..4).map(|_| rng.gen()).collect();
            let reg = Register::from_words(words.len() as u64 * 64, words);
            assert_engines_agree(&format!("broadcast/{name}"), &g, |net| {
                BroadcastRegisterProtocol::instances(
                    &views,
                    reg.clone(),
                    (net.cap_bits() - 1).min(64),
                    Schedule::Pipelined,
                )
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn tree_aggregate_agrees(topo in arb_topology(), seed in 0u64..1000) {
            let (name, g) = topo;
            let views = tree_views(&Network::new(&g), 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let q = 16u64;
            let lim = ((1u64 << q) - 1) / g.n() as u64;
            let values: Vec<Vec<u64>> = (0..g.n())
                .map(|_| (0..3).map(|_| rng.gen_range(0u64..lim.max(1))).collect())
                .collect();
            assert_engines_agree(&format!("aggregate/{name}"), &g, |net| {
                // Chunk headers cost 2 bits, so payload chunks get cap - 2.
                AggregateBatchProtocol::instances(
                    &views,
                    values.clone(),
                    q,
                    CommOp::Sum,
                    (net.cap_bits() - 2).min(64),
                )
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn faulted_flood_agrees(topo in arb_topology(), fault_seed in 0u64..1000) {
            let (name, g) = topo;
            // The same seeded fault plan must replay identically on both
            // engines — drops, delays, and retransmissions included.
            let plan = FaultPlan::new(fault_seed).with_drop_rate(0.2).with_delay(0.1, 3);
            let net = Network::new(&g).with_faults(plan);
            assert_engines_agree_on(&format!("faulted-flood/{name}"), &net, |net| {
                Reliable::wrap_all(
                    FloodProtocol::instances(net.graph().n(), 0),
                    RetryConfig::default(),
                )
            });
        }
    }
}

#[test]
fn auto_mode_thresholds_on_network_size() {
    // Below the threshold Auto must stay sequential (observable only via
    // behavior equality — both paths must succeed and agree).
    let g = path(32);
    let net = Network::new(&g);
    assert_eq!(net.engine(), EngineMode::Auto);
    let a = net.run(BfsTreeProtocol::instances(32, 0)).expect("auto run");
    let b = net.run_sequential(BfsTreeProtocol::instances(32, 0)).expect("sequential run");
    assert_eq!(a.stats, b.stats);
    // Above the threshold Auto may parallelize; results must still agree.
    let g = path(600);
    let net = Network::new(&g);
    let a = net.run(BfsTreeProtocol::instances(600, 0)).expect("auto run large");
    let b = net.run_sequential(BfsTreeProtocol::instances(600, 0)).expect("sequential large");
    assert_eq!(a.stats, b.stats);
    assert_eq!(format!("{:?}", a.nodes), format!("{:?}", b.nodes));
}
