//! Engine-level contracts checked from outside the crate: tracing never
//! perturbs a run, and a failing run reports its first error exactly.

use congest::bfs::BfsTreeProtocol;
use congest::generators::{grid, path, random_connected_m, star};
use congest::runtime::{Ctx, MessageSize, Network, NodeProtocol, RuntimeError};

#[test]
fn traced_and_untraced_runs_report_identical_stats() {
    let topologies = [
        ("path(40)", path(40)),
        ("grid(8x6)", grid(8, 6)),
        ("random(48, seed 7)", random_connected_m(48, 96, 7)),
    ];
    for (name, g) in topologies {
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
fn first_error_is_the_first_sender_in_node_order() {
    // Every node of a star sends two cap-sized messages to its first
    // neighbor in round 0. The hub (node 0) is the first sender, so its
    // second message to leaf 1 is the run's error — not any leaf's.
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
        fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(usize, Big)]) {
            if !self.sent {
                let cap = ctx.cap_bits();
                let first = ctx.neighbors()[0];
                ctx.send(first, Big(cap));
                ctx.send(first, Big(cap));
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }
    let g = star(20);
    let net = Network::new(&g);
    let cap = net.cap_bits();
    let err = net.run((0..20).map(|_| Hog { sent: false }).collect()).unwrap_err();
    assert_eq!(
        err,
        RuntimeError::BandwidthExceeded { round: 0, from: 0, to: 1, bits: 2 * cap, cap }
    );
}
