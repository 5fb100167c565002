//! Determinism of the telemetry subsystem.
//!
//! The contract (see `congest::telemetry` module docs): replaying an
//! instrumented run exports **byte-identical** trace and metrics files,
//! fault-free and faulted alike. These tests run the same instrumented
//! workload twice and compare the raw export strings.

use congest::bfs::BfsTreeProtocol;
use congest::conformance::FloodProtocol;
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::grid;
use congest::runtime::Network;
use congest::telemetry::Collector;

/// Run the workload twice and return the two exports.
fn exports_for<F>(workload: F) -> Vec<(String, String)>
where
    F: Fn(&mut Collector),
{
    (0..2)
        .map(|_| {
            let mut col = Collector::new();
            workload(&mut col);
            (col.to_chrome_jsonl(), col.metrics_json())
        })
        .collect()
}

#[test]
fn fault_free_exports_replay_byte_identically() {
    let g = grid(6, 5);
    let exports = exports_for(|col| {
        let net = Network::new(&g);
        col.enter("flood");
        net.exec(FloodProtocol::instances(g.n(), 0)).telemetry(col).run().expect("flood");
        col.exit();
        col.enter("bfs");
        net.exec(BfsTreeProtocol::instances(g.n(), 0)).telemetry(col).run().expect("bfs");
        col.exit();
    });
    assert_eq!(exports[0].0, exports[1].0, "trace JSONL differs on replay");
    assert_eq!(exports[0].1, exports[1].1, "metrics JSON differs on replay");
    assert!(exports[0].0.contains("\"ph\":\"X\""));
}

#[test]
fn faulted_exports_replay_byte_identically() {
    let g = grid(6, 5);
    let plan = FaultPlan::new(19).with_drop_rate(0.3);
    let exports = exports_for(|col| {
        let net = Network::new(&g).with_faults(plan.clone());
        col.enter("reliable-bfs");
        net.exec(Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()))
            .telemetry(col)
            .run()
            .expect("reliable bfs under 30% loss");
        col.exit();
    });
    assert_eq!(exports[0].0, exports[1].0, "faulted trace JSONL differs on replay");
    assert_eq!(exports[0].1, exports[1].1, "faulted metrics JSON differs on replay");
}

#[test]
fn faulted_run_records_retries_and_edge_loads() {
    let g = grid(6, 5);
    let net = Network::new(&g).with_faults(FaultPlan::new(19).with_drop_rate(0.3));
    let mut col = Collector::new();
    col.enter("reliable-flood");
    net.exec(Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), RetryConfig::default()))
        .telemetry(&mut col)
        .run()
        .expect("reliable flood under 30% loss");
    col.exit();

    // At 30% loss a grid flood loses some data or ack, so the stop-and-wait
    // wrapper must retransmit; the counters and the backoff histogram see it.
    assert!(col.counter("reliable.retries") > 0, "no retries recorded under 30% loss");
    assert!(col.counter("reliable.sends") > 0);
    assert!(col.counter("reliable.acks") > 0);
    assert!(col.histogram("reliable.backoff").is_some());
    assert!(col.counter("engine.dropped") > 0);
    // Every directed edge load is bounded by rounds * cap.
    let rounds = col.cursor();
    for (&(f, t), &bits) in col.edge_loads() {
        assert!(g.neighbors(f).contains(&t), "edge ({f},{t}) not in graph");
        assert!(bits <= rounds * net.cap_bits());
    }
    assert!(!col.edge_loads().is_empty());
    // Round samples cover the run and sum to the delivered bits counter.
    let sampled: u64 = col.round_samples().iter().map(|s| s.trace.bits).sum();
    assert_eq!(sampled, col.counter("engine.bits"));
}

#[test]
fn telemetry_run_matches_untelemetered_run() {
    // Recording must not perturb the run itself.
    let g = grid(6, 5);
    let net = Network::new(&g);
    let plain = net.run(FloodProtocol::instances(g.n(), 0)).expect("plain");
    let mut col = Collector::new();
    let telem = net
        .exec(FloodProtocol::instances(g.n(), 0))
        .telemetry(&mut col)
        .run()
        .expect("telemetered");
    assert_eq!(plain.stats, telem.stats);
    assert_eq!(col.cursor(), plain.stats.rounds as u64);
    assert_eq!(col.counter("engine.bits"), plain.stats.total_bits);
}
