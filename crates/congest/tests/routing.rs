//! Message routing semantics: per-edge load accounting, the busiest-edge
//! tie-break, cap overflows, audit order, fault verdicts, and inbox order.
//!
//! Every expectation here is written against a reference computed in the
//! test from the protocol's own outboxes, so the engine's routing can be
//! restructured freely as long as these observable facts stay fixed.

use std::collections::BTreeMap;

use congest::conformance::Violation;
use congest::faults::FaultPlan;
use congest::generators::{path, random_connected_m, star};
use congest::graph::{Graph, NodeId};
use congest::runtime::{Ctx, MessageSize, Network, NodeProtocol, RoundTrace, RuntimeError};
use congest::telemetry::Collector;
use proptest::prelude::*;

/// A message whose size is its value.
#[derive(Clone, Debug)]
struct Bits(u64);

impl MessageSize for Bits {
    fn size_bits(&self) -> u64 {
        self.0
    }
}

/// One round's outbox: `(target, bits)` pairs in send order.
type Outbox = Vec<(NodeId, u64)>;

/// Sends `script[r]` in round `r`, whatever it receives, and logs every
/// delivery as `(round, from, bits)`.
#[derive(Debug)]
struct Scripted {
    script: Vec<Outbox>,
    round: usize,
    received: Vec<(usize, NodeId, u64)>,
}

impl NodeProtocol for Scripted {
    type Msg = Bits;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Bits>, inbox: &[(NodeId, Bits)]) {
        for (from, m) in inbox {
            self.received.push((ctx.round(), *from, m.0));
        }
        if let Some(out) = self.script.get(self.round) {
            for &(to, bits) in out {
                ctx.send(to, Bits(bits));
            }
        }
        self.round += 1;
    }

    fn is_done(&self) -> bool {
        self.round >= self.script.len()
    }
}

fn scripted(scripts: &[Vec<Outbox>]) -> Vec<Scripted> {
    scripts.iter().map(|s| Scripted { script: s.clone(), round: 0, received: Vec::new() }).collect()
}

/// What a run of `scripts` must record, derived from the outboxes alone
/// (fault-free delivery).
#[derive(Debug, Default)]
struct Expected {
    /// Per-round traces up to the last round in which anything was sent.
    rounds: Vec<RoundTrace>,
    /// Offered messages per round (delivered or dropped), same length.
    offered: Vec<u64>,
    violations: Vec<Violation>,
    max_edge_bits: u64,
    edge_loads: BTreeMap<(NodeId, NodeId), u64>,
    /// Per node, the `(round, from, bits)` deliveries in inbox order.
    received: Vec<Vec<(usize, NodeId, u64)>>,
}

fn reference(g: &Graph, cap: u64, scripts: &[Vec<Outbox>]) -> Expected {
    let horizon = scripts.iter().map(Vec::len).max().unwrap_or(0);
    let mut exp = Expected { received: vec![Vec::new(); g.n()], ..Expected::default() };
    let mut active = 0;
    for round in 0..horizon {
        let mut trace = RoundTrace::default();
        let mut offered = 0;
        for (from, script) in scripts.iter().enumerate() {
            let Some(out) = script.get(round) else { continue };
            if !out.is_empty() {
                active = round + 1;
            }
            // Per-edge loads of this sender, in first-touch order.
            let mut loads: Vec<(NodeId, u64)> = Vec::new();
            for &(to, bits) in out {
                if !g.has_edge(from, to) {
                    exp.violations.push(Violation::NonNeighborSend { round, from, to });
                    continue;
                }
                let pos = match loads.iter().position(|&(w, _)| w == to) {
                    Some(p) => p,
                    None => {
                        loads.push((to, 0));
                        loads.len() - 1
                    }
                };
                loads[pos].1 += bits;
                let load = loads[pos].1;
                if load > cap {
                    exp.violations.push(Violation::CapExceeded {
                        round,
                        from,
                        to,
                        bits: load,
                        cap,
                    });
                }
                offered += 1;
                trace.messages += 1;
                trace.bits += bits;
                exp.received[to].push((round + 1, from, bits));
            }
            for (to, load) in loads {
                exp.max_edge_bits = exp.max_edge_bits.max(load);
                if trace.busiest_edge.is_none_or(|(_, _, b)| load > b) {
                    trace.busiest_edge = Some((from, to, load));
                }
                if load > 0 {
                    *exp.edge_loads.entry((from, to)).or_insert(0) += load;
                }
            }
        }
        exp.rounds.push(trace);
        exp.offered.push(offered);
    }
    exp.rounds.truncate(active);
    exp.offered.truncate(active);
    exp
}

/// A one-node script: node `from` sends `out` in round 0, the rest stay
/// silent.
fn one_sender(n: usize, from: NodeId, out: Outbox) -> Vec<Vec<Outbox>> {
    (0..n).map(|v| if v == from { vec![out.clone()] } else { Vec::new() }).collect()
}

#[test]
fn busiest_edge_is_the_first_touched_edge_with_the_largest_final_load() {
    // Node 0 of star(3) sends A = 1 five bits, B = 2 ten bits, then A
    // another five. A and B both end at 10; A was touched first, so A is
    // the busiest edge. A running max over messages would report B.
    let g = star(3);
    let net = Network::new(&g).with_bandwidth(64);
    let scripts = one_sender(3, 0, vec![(1, 5), (2, 10), (1, 5)]);
    let out = net.exec(scripted(&scripts)).traced().run().unwrap();
    assert_eq!(out.trace.rounds[0].busiest_edge, Some((0, 1, 10)));
    assert_eq!(out.stats.max_edge_bits, 10);
    assert_eq!(out.trace.rounds, reference(&g, 64, &scripts).rounds);

    // A zero-size message alone still names its edge, with load 0.
    let zero = one_sender(3, 2, vec![(0, 0)]);
    let out = net.exec(scripted(&zero)).traced().run().unwrap();
    assert_eq!(out.trace.rounds[0].busiest_edge, Some((2, 0, 0)));
    assert_eq!(out.stats.max_edge_bits, 0);

    // With telemetry, the per-edge feed sums the final loads and skips
    // zero loads.
    let mixed = one_sender(3, 0, vec![(2, 0), (1, 5), (2, 0), (1, 7)]);
    let mut col = Collector::new();
    let out = net.exec(scripted(&mixed)).traced().telemetry(&mut col).run().unwrap();
    assert_eq!(out.trace.rounds[0].busiest_edge, Some((0, 1, 12)));
    assert_eq!(col.edge_loads().iter().collect::<Vec<_>>(), vec![(&(0, 1), &12)]);
}

#[test]
fn cap_overflow_reports_the_cumulative_edge_load() {
    let g = star(3);
    let net = Network::new(&g).with_bandwidth(8);
    // Each message fits; the second one on edge (0, 1) takes it to 10.
    let scripts = one_sender(3, 0, vec![(1, 5), (2, 8), (1, 5)]);
    let err = net.run(scripted(&scripts)).unwrap_err();
    assert_eq!(err, RuntimeError::BandwidthExceeded { round: 0, from: 0, to: 1, bits: 10, cap: 8 });
    // Tracing does not change the verdict.
    let traced = net.exec(scripted(&scripts)).traced().run().unwrap_err();
    assert_eq!(traced, err);
}

#[test]
fn audited_violations_follow_round_sender_and_outbox_order() {
    // path(4): 0 - 1 - 2 - 3, cap 6.
    let g = path(4);
    let cap = 6;
    let net = Network::new(&g).with_bandwidth(cap);
    let scripts: Vec<Vec<Outbox>> = vec![
        vec![vec![(1, 4), (2, 1), (1, 4), (3, 1), (1, 1)], vec![(1, 7)]],
        vec![vec![(3, 1), (0, 6), (2, 2), (0, 1)]],
        vec![Vec::new(), vec![(0, 1), (1, 3), (1, 4)]],
        Vec::new(),
    ];
    let expected = vec![
        Violation::NonNeighborSend { round: 0, from: 0, to: 2 },
        Violation::CapExceeded { round: 0, from: 0, to: 1, bits: 8, cap },
        Violation::NonNeighborSend { round: 0, from: 0, to: 3 },
        Violation::CapExceeded { round: 0, from: 0, to: 1, bits: 9, cap },
        Violation::NonNeighborSend { round: 0, from: 1, to: 3 },
        Violation::CapExceeded { round: 0, from: 1, to: 0, bits: 7, cap },
        Violation::CapExceeded { round: 1, from: 0, to: 1, bits: 7, cap },
        Violation::NonNeighborSend { round: 1, from: 2, to: 0 },
        Violation::CapExceeded { round: 1, from: 2, to: 1, bits: 7, cap },
    ];
    let exp = reference(&g, cap, &scripts);
    assert_eq!(exp.violations, expected);

    let audited = net.exec(scripted(&scripts)).audited().run().unwrap();
    assert_eq!(audited.violations, expected);
    let mut col = Collector::new();
    let full = net.exec(scripted(&scripts)).traced().audited().telemetry(&mut col).run().unwrap();
    assert_eq!(full.violations, expected);
    assert_eq!(full.stats, audited.stats);
    assert_eq!(full.trace.rounds, exp.rounds);
    // Audited overflows still deliver; non-neighbor sends are discarded.
    for (v, node) in full.nodes.iter().enumerate() {
        assert_eq!(node.received, exp.received[v], "node {v}");
    }
    // Unaudited, the first violation aborts the run.
    let err = net.run(scripted(&scripts)).unwrap_err();
    assert_eq!(err, RuntimeError::NotANeighbor { round: 0, from: 0, to: 2 });
}

#[test]
fn faulted_runs_agree_traced_and_untraced() {
    let g = random_connected_m(40, 90, 7);
    let plan = FaultPlan::new(0x5EED).with_drop_rate(0.25).with_delay(0.25, 3);
    let net = Network::new(&g).with_bandwidth(64).with_faults(plan);
    let scripts = random_scripts(&g, 0xFA17, 6, 4, 9, false);
    let exp = reference(&g, 64, &scripts);

    let bare = net.run(scripted(&scripts)).unwrap();
    let full = net.exec(scripted(&scripts)).traced().audited().run().unwrap();
    assert_eq!(bare.stats, full.stats);
    assert!(full.violations.is_empty());
    assert!(bare.stats.dropped > 0, "the plan should drop something");
    // Dropped messages still load their edges.
    assert_eq!(bare.stats.max_edge_bits, exp.max_edge_bits);
    assert_fault_free_facts(&full.trace.rounds, &exp);
    for (b, f) in bare.nodes.iter().zip(&full.nodes) {
        assert_eq!(b.received, f.received);
    }
}

#[test]
fn star_broadcast_reaches_every_leaf_and_back() {
    let n = 64;
    let g = star(n);
    let net = Network::new(&g).with_bandwidth(16);
    // The hub broadcasts three rounds; each leaf answers once in round 1.
    let hub: Outbox = (1..n).map(|w| (w, 9)).collect();
    let scripts: Vec<Vec<Outbox>> = (0..n)
        .map(|v| {
            if v == 0 {
                vec![hub.clone(), hub.clone(), hub.clone()]
            } else {
                vec![Vec::new(), vec![(0, 2)]]
            }
        })
        .collect();
    let exp = reference(&g, 16, &scripts);
    let out = net.exec(scripted(&scripts)).traced().run().unwrap();
    assert_eq!(out.trace.rounds, exp.rounds);
    assert_eq!(out.trace.rounds[0].busiest_edge, Some((0, 1, 9)));
    assert_eq!(out.stats.messages, 3 * 63 + 63);
    assert_eq!(out.stats.max_edge_bits, 9);
    assert_eq!(out.nodes[0].received, (1..n).map(|w| (2, w, 2)).collect::<Vec<_>>());
    for v in 1..n {
        assert_eq!(out.nodes[v].received, vec![(1, 0, 9), (2, 0, 9), (3, 0, 9)]);
    }
    assert_eq!(net.run(scripted(&scripts)).unwrap().stats, out.stats);
}

/// Per-round facts a fault plan cannot change: the busiest edge (offered
/// traffic) and the number of messages offered.
fn assert_fault_free_facts(trace: &[RoundTrace], exp: &Expected) {
    assert!(trace.len() >= exp.rounds.len());
    for (r, t) in trace.iter().enumerate() {
        let (busiest, offered) = match exp.rounds.get(r) {
            Some(e) => (e.busiest_edge, exp.offered[r]),
            None => (None, 0),
        };
        assert_eq!(t.busiest_edge, busiest, "round {r}");
        assert_eq!(t.messages + t.dropped, offered, "round {r}");
    }
}

/// SplitMix64: a tiny deterministic generator for test scripts.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random scripts over `g`: up to `horizon` rounds per node, outboxes of up
/// to `fanout` messages of 0..=`max_bits` bits. Targets come from a small
/// pool of each node's neighbors, so duplicates are common; fan-outs are
/// sometimes full ascending broadcasts, and with `strays` a few targets
/// are non-neighbors.
fn random_scripts(
    g: &Graph,
    seed: u64,
    horizon: usize,
    fanout: usize,
    max_bits: u64,
    strays: bool,
) -> Vec<Vec<Outbox>> {
    let mut state = seed;
    let mut rnd = |m: u64| splitmix(&mut state) % m.max(1);
    let mut scripts = Vec::with_capacity(g.n());
    for v in 0..g.n() {
        let nb = g.neighbors(v);
        let mut script = Vec::new();
        for _ in 0..rnd(horizon as u64 + 1) {
            let mut out = Outbox::new();
            if rnd(4) == 0 {
                let bits = if rnd(5) == 0 { 0 } else { rnd(max_bits + 1) };
                out.extend(nb.iter().map(|&w| (w, bits)));
            } else {
                for _ in 0..rnd(fanout as u64 + 1) {
                    let to = if strays && rnd(6) == 0 {
                        rnd(g.n() as u64) as NodeId
                    } else {
                        nb[rnd(nb.len().min(3) as u64) as usize]
                    };
                    let bits = if rnd(5) == 0 { 0 } else { rnd(max_bits + 1) };
                    out.push((to, bits));
                }
            }
            script.push(out);
        }
        scripts.push(script);
    }
    scripts
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    ((0usize..3), (2usize..40), (0u64..1000)).prop_map(|(family, n, seed)| match family {
        0 => path(n),
        1 => star(n),
        _ => random_connected_m(n + 4, 2 * n + 3, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault-free: every traced round equals the reference computed from
    /// the outboxes, the stats agree traced and untraced, and inboxes
    /// hold each round's deliveries in sender, then outbox, order.
    #[test]
    fn routing_matches_the_outbox_reference(
        g in arb_graph(),
        seed in any::<u64>(),
        tight in any::<bool>(),
    ) {
        // A tight cap forces overflows, which only an audited run survives.
        let cap = if tight { 12 } else { 1 << 20 };
        let scripts = random_scripts(&g, seed, 5, 6, 8, tight);
        let exp = reference(&g, cap, &scripts);
        let net = Network::new(&g).with_bandwidth(cap);

        let mut col = Collector::new();
        let full = net.exec(scripted(&scripts)).traced().audited().telemetry(&mut col).run().unwrap();
        prop_assert_eq!(&full.trace.rounds, &exp.rounds);
        prop_assert_eq!(&full.violations, &exp.violations);
        prop_assert_eq!(full.stats.rounds, exp.rounds.len());
        prop_assert_eq!(full.stats.max_edge_bits, exp.max_edge_bits);
        prop_assert_eq!(col.edge_loads(), &exp.edge_loads);
        for (v, node) in full.nodes.iter().enumerate() {
            prop_assert_eq!(&node.received, &exp.received[v]);
        }

        let audited = net.exec(scripted(&scripts)).audited().run().unwrap();
        prop_assert_eq!(audited.stats, full.stats);
        match exp.violations.first() {
            None => {
                prop_assert_eq!(net.run(scripted(&scripts)).unwrap().stats, full.stats);
                prop_assert_eq!(net.exec(scripted(&scripts)).traced().run().unwrap().stats, full.stats);
            }
            Some(first) => {
                let err = net.run(scripted(&scripts)).unwrap_err();
                let want = match *first {
                    Violation::CapExceeded { round, from, to, bits, cap } => {
                        RuntimeError::BandwidthExceeded { round, from, to, bits, cap }
                    }
                    Violation::NonNeighborSend { round, from, to } => {
                        RuntimeError::NotANeighbor { round, from, to }
                    }
                    ref other => panic!("unexpected violation {other:?}"),
                };
                prop_assert_eq!(err, want);
            }
        }
    }

    /// Under drops and delays, traced and untraced runs agree on the stats
    /// and deliveries, and the busiest edge still counts offered traffic.
    #[test]
    fn faulted_routing_agrees_traced_and_untraced(
        g in arb_graph(),
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(plan_seed).with_drop_rate(0.2).with_delay(0.2, 2);
        let net = Network::new(&g).with_bandwidth(1 << 20).with_faults(plan);
        let scripts = random_scripts(&g, seed, 5, 6, 8, false);
        let exp = reference(&g, 1 << 20, &scripts);
        let bare = net.run(scripted(&scripts)).unwrap();
        let full = net.exec(scripted(&scripts)).traced().audited().run().unwrap();
        prop_assert_eq!(bare.stats, full.stats);
        prop_assert_eq!(bare.stats.max_edge_bits, exp.max_edge_bits);
        assert_fault_free_facts(&full.trace.rounds, &exp);
        for (b, f) in bare.nodes.iter().zip(&full.nodes) {
            prop_assert_eq!(&b.received, &f.received);
        }
    }
}
