//! Observation is free: attaching any combination of the three recorders
//! (trace, audit, telemetry) through the `exec` builder must not perturb
//! the run, each recorder must record the same artifact it records when
//! attached alone, and the trace must account for exactly the delivered
//! traffic.

use congest::bfs::BfsTreeProtocol;
use congest::conformance::{validate_trace, FloodProtocol};
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path, random_connected_m, star};
use congest::graph::Graph;
use congest::runtime::Network;
use congest::telemetry::Collector;
use proptest::prelude::*;

/// Random connected topologies crossed with an optional fault plan.
fn arb_network() -> impl Strategy<Value = (String, Graph, Option<FaultPlan>)> {
    ((0usize..4), (0usize..1000), (0u64..1000), any::<bool>()).prop_map(
        |(family, size, seed, faulted)| {
            let (name, g) = match family {
                0 => {
                    let n = 6 + size % 60;
                    (format!("path({n})"), path(n))
                }
                1 => {
                    let (w, h) = (2 + size % 8, 2 + seed as usize % 8);
                    (format!("grid({w}x{h})"), grid(w, h))
                }
                2 => {
                    let n = 6 + size % 60;
                    (format!("star({n})"), star(n))
                }
                _ => {
                    let n = 12 + size % 52;
                    (format!("random({n},{seed})"), random_connected_m(n, n + n / 2, seed))
                }
            };
            let plan = faulted
                .then(|| FaultPlan::new(seed ^ 0xABCD).with_drop_rate(0.2).with_delay(0.1, 2));
            (name, g, plan)
        },
    )
}

fn net_for<'g>(g: &'g Graph, plan: &Option<FaultPlan>) -> Network<'g> {
    let net = Network::new(g);
    match plan {
        Some(p) => net.with_faults(p.clone()),
        None => net,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full pipeline (trace + audit + telemetry) yields the same
    /// statistics and final node states as a bare run, and its trace
    /// equals the trace of `.traced()` alone.
    #[test]
    fn composed_observers_do_not_perturb_the_run(
        input in arb_network(),
        origin_pick in 0usize..1000,
    ) {
        let (name, g, plan) = input;
        let origin = origin_pick % g.n();
        let make = || {
            Reliable::wrap_all(FloodProtocol::instances(g.n(), origin), RetryConfig::default())
        };

        let net = net_for(&g, &plan);
        let bare = net.run(make()).expect("bare run");
        let traced_alone = net.exec(make()).traced().run().expect("traced run");
        let mut col = Collector::new();
        let full = net
            .exec(make())
            .traced()
            .audited()
            .telemetry(&mut col)
            .run()
            .expect("fully observed run");

        prop_assert_eq!(full.stats, bare.stats, "observers perturbed the stats on {}", &name);
        prop_assert_eq!(
            format!("{:?}", full.nodes),
            format!("{:?}", bare.nodes),
            "observers perturbed the node states on {}", &name
        );
        prop_assert_eq!(traced_alone.stats, bare.stats);
        prop_assert_eq!(
            &full.trace.rounds,
            &traced_alone.trace.rounds,
            "composed trace differs from .traced() alone on {}", &name
        );
        // An honest protocol audits clean, and the collector saw the run.
        prop_assert!(full.violations.is_empty());
        prop_assert_eq!(col.cursor(), bare.stats.rounds as u64);
        prop_assert_eq!(col.counter("engine.bits"), bare.stats.total_bits);
    }
}

/// The trace counts every accepted message — delayed ones included, in
/// the round they were sent, dropped ones not — so its sums equal the run
/// statistics.
#[test]
fn trace_counts_every_delivered_message() {
    let g = grid(7, 6);
    let plan = FaultPlan::new(41).with_drop_rate(0.2).with_delay(0.1, 3);
    let net = Network::new(&g).with_faults(plan);
    let out = net
        .exec(Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()))
        .traced()
        .audited()
        .run()
        .expect("observed run");
    let messages: u64 = out.trace.rounds.iter().map(|r| r.messages).sum();
    assert_eq!(messages, out.stats.messages);
    assert_eq!(out.trace.total_bits(), out.stats.total_bits);
    assert!(out.stats.dropped > 0, "the plan should actually drop something");
    assert!(out.violations.is_empty());
    assert_eq!(validate_trace(&out.stats, &out.trace, net.cap_bits()), vec![]);
}
