//! Fault-injection behaviour: deterministic schedules that replay
//! identically, loss tolerance through `Reliable`, and the negative paths
//! — every budget exhaustion must surface as a clean `RuntimeError`, never
//! a panic or a hang.

use congest::conformance::FloodProtocol;
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path, random_connected_m};
use congest::runtime::{Ctx, MessageSize, Network, NodeProtocol, RuntimeError};

#[test]
fn fault_schedule_replays_identically() {
    for seed in [3u64, 17, 99] {
        let g = random_connected_m(48, 90, seed);
        let plan = FaultPlan::new(seed).with_drop_rate(0.25).with_delay(0.2, 3);
        let make = || Reliable::wrap_all(FloodProtocol::instances(48, 0), RetryConfig::default());
        // The same seed must reproduce the run exactly: statistics,
        // per-round trace, and every node's final state.
        let net = Network::new(&g).with_faults(plan);
        let a = net.exec(make()).traced().run().expect("first replay");
        let b = net.exec(make()).traced().run().expect("second replay");
        assert_eq!(a.stats, b.stats, "seed {seed}: stats did not replay");
        assert_eq!(a.trace.rounds, b.trace.rounds, "seed {seed}: trace did not replay");
        assert_eq!(
            format!("{:?}", a.nodes),
            format!("{:?}", b.nodes),
            "seed {seed}: node states did not replay"
        );
        assert!(a.stats.dropped > 0, "seed {seed}: a 25% drop plan dropped nothing");
    }
}

#[test]
fn pure_delay_plans_preserve_flood_correctness() {
    // Delay is not loss: an unwrapped (retry-free) flood still reaches
    // every node, just later.
    let g = grid(6, 5);
    let clean = Network::new(&g).run(FloodProtocol::instances(30, 0)).expect("clean flood");
    let plan = FaultPlan::new(11).with_delay(1.0, 4);
    let net = Network::new(&g).with_faults(plan);
    let run = net.run(FloodProtocol::instances(30, 0)).expect("delayed flood");
    assert!(run.nodes.iter().all(|f| f.has_token));
    assert_eq!(run.stats.dropped, 0);
    assert!(
        run.stats.rounds > clean.stats.rounds,
        "delaying every message must cost rounds ({} vs {})",
        run.stats.rounds,
        clean.stats.rounds
    );
}

#[test]
fn link_down_interval_heals_and_reliable_crosses_it() {
    // The path's only route from 0 is down for rounds 0..8; a Reliable
    // flood keeps retrying and succeeds once the link heals.
    let g = path(5);
    let plan = FaultPlan::new(0).with_link_down(0, 1, 0..8);
    let net = Network::new(&g).with_faults(plan);
    let run = net
        .run(Reliable::wrap_all(
            FloodProtocol::instances(5, 0),
            RetryConfig { base_timeout: 2, max_attempts: 16 },
        ))
        .expect("reliable flood across an outage");
    assert!(run.nodes.iter().all(|r| r.inner().has_token));
    assert!(run.stats.rounds > 8, "cannot finish before the link heals");
    assert!(run.stats.dropped > 0, "the outage must have eaten the early attempts");
}

#[test]
fn retry_budget_exhaustion_is_an_error_not_a_hang() {
    // 100% drop: no retry budget survives. The run must end promptly with
    // RetryBudgetExhausted — not RoundLimitExceeded, not a hang.
    let g = path(4);
    let plan = FaultPlan::new(1).with_drop_rate(1.0);
    let cfg = RetryConfig { base_timeout: 2, max_attempts: 3 };
    let err = Network::new(&g)
        .with_faults(plan)
        .run(Reliable::wrap_all(FloodProtocol::instances(4, 0), cfg))
        .expect_err("total loss must fail");
    match err {
        RuntimeError::RetryBudgetExhausted { from, attempts, .. } => {
            assert_eq!(from, 0, "node 0 is the only sender");
            assert_eq!(attempts, 3);
        }
        other => panic!("expected RetryBudgetExhausted, got {other:?}"),
    }
}

#[test]
fn lossy_network_without_reliable_hits_the_round_limit() {
    // A plain flood has no retries; if the only link is down forever the
    // protocol can never finish and the round limit fires (max-rounds
    // negative path).
    let g = path(3);
    let plan = FaultPlan::new(2).with_link_down(0, 1, 0..usize::MAX);
    let err = Network::new(&g)
        .with_faults(plan)
        .with_round_limit(64)
        .run(FloodProtocol::instances(3, 0))
        .expect_err("unreachable node must exhaust the round limit");
    assert_eq!(err, RuntimeError::RoundLimitExceeded { limit: 64 });
}

#[test]
fn oversized_message_is_a_protocol_error_even_under_faults() {
    // The global cap stays a hard protocol error with a fault plan active;
    // only the *degraded* cap downgrades to tail-dropping.
    #[derive(Debug)]
    struct Oversender {
        sent: bool,
    }
    #[derive(Clone, Debug)]
    struct Big(u64);
    impl MessageSize for Big {
        fn size_bits(&self) -> u64 {
            self.0
        }
    }
    impl NodeProtocol for Oversender {
        type Msg = Big;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(usize, Big)]) {
            if ctx.me() == 0 && !self.sent {
                ctx.send(1, Big(ctx.cap_bits() + 1));
            }
            self.sent = true;
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }
    let g = path(2);
    let plan = FaultPlan::new(3).with_degraded_edge(0, 1, 2).with_drop_rate(0.5);
    let err = Network::new(&g)
        .with_faults(plan)
        .run(vec![Oversender { sent: false }, Oversender { sent: false }])
        .expect_err("oversized message must still error");
    assert!(matches!(err, RuntimeError::BandwidthExceeded { round: 0, from: 0, to: 1, .. }));
}

#[test]
fn degraded_edge_tail_drops_within_global_cap() {
    // Two 3-bit messages on a degraded (cap 4) edge: the first fits, the
    // second overflows the degraded cap — dropped as a fault, not an error.
    #[derive(Debug)]
    struct TwoSends {
        sent: bool,
        received: usize,
    }
    #[derive(Clone, Debug)]
    struct Three;
    impl MessageSize for Three {
        fn size_bits(&self) -> u64 {
            3
        }
    }
    impl NodeProtocol for TwoSends {
        type Msg = Three;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Three>, inbox: &[(usize, Three)]) {
            self.received += inbox.len();
            if ctx.me() == 0 && !self.sent {
                ctx.send(1, Three);
                ctx.send(1, Three);
            }
            self.sent = true;
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }
    let g = path(2);
    let plan = FaultPlan::new(4).with_degraded_edge(0, 1, 4);
    let net = Network::new(&g).with_bandwidth(16).with_faults(plan);
    let run = net
        .run(vec![TwoSends { sent: false, received: 0 }, TwoSends { sent: false, received: 0 }])
        .expect("degraded overflow is not an error");
    assert_eq!(run.stats.dropped, 1);
    assert_eq!(run.stats.messages, 1);
    assert_eq!(run.nodes[1].received, 1, "only the first message fits the degraded cap");
    // The offered load still shows both messages on the edge.
    assert_eq!(run.stats.max_edge_bits, 6);
}

#[test]
fn reliable_broadcast_survives_heavy_loss() {
    // 30% per-message drop on a grid: Reliable flood still reaches every
    // node, with the loss visible in the dropped counter.
    let g = grid(5, 4);
    let plan = FaultPlan::new(21).with_drop_rate(0.3);
    let net = Network::new(&g).with_faults(plan);
    let run = net
        .run(Reliable::wrap_all(FloodProtocol::instances(20, 7), RetryConfig::default()))
        .expect("reliable flood under 30% loss");
    assert!(run.nodes.iter().all(|r| r.inner().has_token));
    assert!(run.stats.dropped > 0);
}

#[test]
fn fault_free_reliable_flood_matches_plain_round_count() {
    // With no faults, stop-and-wait adds acks but each payload still takes
    // one hop per round, so the flood front moves at full speed.
    let g = path(8);
    let plain = Network::new(&g).run(FloodProtocol::instances(8, 0)).expect("plain");
    let wrapped = Network::new(&g)
        .run(Reliable::wrap_all(FloodProtocol::instances(8, 0), RetryConfig::default()))
        .expect("wrapped");
    assert!(wrapped.nodes.iter().all(|r| r.inner().has_token));
    // The token reaches the far end in the same number of rounds; the
    // trailing ack exchanges may add a constant tail.
    assert!(
        wrapped.stats.rounds >= plain.stats.rounds
            && wrapped.stats.rounds <= plain.stats.rounds + 4,
        "plain {} vs wrapped {}",
        plain.stats.rounds,
        wrapped.stats.rounds
    );
}
