//! Observer composition is free: attaching any combination of the built-in
//! observers (trace, audit, telemetry) — or custom [`RunObserver`]s — must
//! not perturb the run, and each observer must record the same artifact it
//! records when attached alone.

use congest::bfs::BfsTreeProtocol;
use congest::conformance::FloodProtocol;
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path, random_connected_m, star};
use congest::graph::{Graph, NodeId};
use congest::runtime::{Network, RunObserver, RunStats};
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

/// A custom observer exercising every hook, including the gated
/// per-message one.
#[derive(Default)]
struct CountingObserver {
    round_starts: usize,
    round_ends: usize,
    messages: u64,
    bits: u64,
    finishes: usize,
    finished_stats: Option<RunStats>,
}

impl RunObserver for &mut CountingObserver {
    fn observes_messages(&self) -> bool {
        true
    }
    fn on_round_start(&mut self, _round: usize) {
        self.round_starts += 1;
    }
    fn on_message(&mut self, _round: usize, _from: NodeId, _to: NodeId, bits: u64) {
        self.messages += 1;
        self.bits += bits;
    }
    fn on_round_end(
        &mut self,
        _round: usize,
        _trace: congest::runtime::RoundTrace,
        _shard: &mut congest::telemetry::Shard,
    ) {
        self.round_ends += 1;
    }
    fn on_finish(&mut self, stats: &RunStats) {
        self.finishes += 1;
        self.finished_stats = Some(*stats);
    }
}

#[test]
fn custom_observer_sees_every_delivered_message() {
    let g = grid(7, 6);
    let plan = FaultPlan::new(41).with_drop_rate(0.2).with_delay(0.1, 3);
    let net = Network::new(&g).with_faults(plan);
    let mut counter = CountingObserver::default();
    let run = net
        .run_with(
            Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()),
            &mut counter,
        )
        .expect("observed run");
    // `on_message` fires once per *accepted* message — delayed ones
    // included, dropped ones not — which is exactly `stats.messages`.
    assert_eq!(counter.messages, run.stats.messages);
    assert_eq!(counter.bits, run.stats.total_bits);
    assert_eq!(counter.finishes, 1);
    assert_eq!(counter.finished_stats, Some(run.stats));
    // One start/end pair per executed round (trailing quiet rounds
    // included — the hooks see every loop iteration).
    assert_eq!(counter.round_starts, counter.round_ends);
    assert!(counter.round_starts >= run.stats.rounds);
    assert!(run.stats.dropped > 0, "the plan should actually drop something");
}

#[test]
fn tuple_composition_reaches_both_observers() {
    let g = path(9);
    let net = Network::new(&g);
    let mut a = CountingObserver::default();
    let mut b = CountingObserver::default();
    let run = net.run_with(FloodProtocol::instances(9, 0), (&mut a, &mut b)).expect("composed run");
    for (label, c) in [("left", &a), ("right", &b)] {
        assert_eq!(c.messages, run.stats.messages, "{label}");
        assert_eq!(c.finishes, 1, "{label}");
        assert_eq!(c.finished_stats, Some(run.stats), "{label}");
    }
}
