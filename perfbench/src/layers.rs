//! Per-layer metrics of the traced run, derived from span totals and from
//! deterministic counts (ledger phases, adapter counters, `qsim::metrics`).
//!
//! Layers are named after the modules that own them: `graph`
//! (`congest::{graph, generators}`), `engine` (`congest::runtime` and the
//! protocols), `framework` (`dqc_core::framework` and its thin drivers),
//! `pquery` (the query-schedule emulation) and `qsim` (statevector
//! kernels).

use crate::span::{totals, Span};
use congest::runtime::RoundLedger;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order. A workload that
/// does not use a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("graph.truth_s", "s"),
    ("graph.apsp_s", "s"),
    ("graph.apsp_calls", "count"),
    ("framework.setup_s", "s"),
    ("framework.treecomm_s", "s"),
    ("framework.us_per_treecomm_round", "us"),
    ("framework.batches", "count"),
    ("engine.alpha_s", "s"),
    ("engine.alpha_us_per_round", "us"),
    ("engine.classical_s", "s"),
    ("engine.classical_us_per_round", "us"),
    ("engine.rounds.setup", "count"),
    ("engine.rounds.distribute", "count"),
    ("engine.rounds.alpha", "count"),
    ("engine.rounds.aggregate", "count"),
    ("engine.rounds.gather", "count"),
    ("engine.rounds.classical", "count"),
    ("engine.messages", "count"),
    ("engine.bits", "count"),
    ("engine.ns_per_message", "ns"),
    ("pquery.self_s", "s"),
    ("pquery.ns_per_batch", "ns"),
    ("pquery.oracle_s", "s"),
    ("pquery.batches", "count"),
    ("pquery.queries", "count"),
    ("pquery.peeks", "count"),
    ("qsim.grover_s", "s"),
    ("qsim.qft_s", "s"),
    ("qsim.kernel_launches", "count"),
    ("qsim.matrix_applies", "count"),
    ("qsim.diag_sweeps", "count"),
    ("qsim.fuse_gates_in", "count"),
    ("qsim.fuse_groups", "count"),
    ("qsim.bytes_computed", "B"),
    ("trace.overhead_frac", "ratio"),
];

/// Deterministic counts gathered during a traced pass, keyed by metric
/// name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Add `v` to count `name`.
pub fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_default() += v;
}

/// Fold a quantum driver's ledger into the per-phase round counts.
pub fn add_framework_ledger(counts: &mut Counts, ledger: &RoundLedger) {
    for (name, prefix) in [
        ("engine.rounds.setup", "setup/"),
        ("engine.rounds.distribute", "batch/distribute"),
        ("engine.rounds.alpha", "alpha/"),
        ("engine.rounds.aggregate", "batch/aggregate"),
        ("engine.rounds.gather", "batch/gather"),
    ] {
        add(counts, name, ledger.rounds_for(prefix) as f64);
    }
    add_traffic(counts, ledger);
}

/// Fold a classical driver's ledger into the classical round count.
pub fn add_classical_ledger(counts: &mut Counts, ledger: &RoundLedger) {
    add(counts, "engine.rounds.classical", ledger.total_rounds() as f64);
    add_traffic(counts, ledger);
}

fn add_traffic(counts: &mut Counts, ledger: &RoundLedger) {
    add(counts, "engine.messages", ledger.total_messages() as f64);
    add(counts, "engine.bits", ledger.total_bits() as f64);
}

fn per(num: f64, den: f64, scale: f64) -> f64 {
    if den > 0.0 {
        num * scale / den
    } else {
        0.0
    }
}

/// All per-layer metrics except `trace.overhead_frac`, from one traced
/// unit's spans and counts.
pub fn derive(spans: &[Span], counts: &Counts) -> BTreeMap<&'static str, f64> {
    let t = totals(spans);
    let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
    let own = |name: &str| t.get(name).map_or(0.0, |x| x.self_s);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);

    let treecomm_s = own("framework.query");
    let alpha_s = total("engine.alpha");
    let classical_s = total("engine.classical");
    let setup_s = total("framework.setup");
    let pquery_self = own("pquery");
    let treecomm_rounds = count("engine.rounds.distribute")
        + count("engine.rounds.aggregate")
        + count("engine.rounds.gather");

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("graph.gen_s", total("graph.gen"));
    m.insert("graph.truth_s", total("graph.truth"));
    m.insert("graph.apsp_s", total("graph.apsp"));
    m.insert("graph.apsp_calls", t.get("graph.apsp").map_or(0.0, |x| x.count as f64));
    m.insert("framework.setup_s", setup_s);
    m.insert("framework.treecomm_s", treecomm_s);
    m.insert("framework.us_per_treecomm_round", per(treecomm_s, treecomm_rounds, 1e6));
    m.insert("engine.alpha_s", alpha_s);
    m.insert("engine.alpha_us_per_round", per(alpha_s, count("engine.rounds.alpha"), 1e6));
    m.insert("engine.classical_s", classical_s);
    m.insert(
        "engine.classical_us_per_round",
        per(classical_s, count("engine.rounds.classical"), 1e6),
    );
    m.insert(
        "engine.ns_per_message",
        per(setup_s + treecomm_s + alpha_s + classical_s, count("engine.messages"), 1e9),
    );
    m.insert("pquery.self_s", pquery_self);
    m.insert("pquery.ns_per_batch", per(pquery_self, count("pquery.batches"), 1e9));
    m.insert("pquery.oracle_s", total("pquery.oracle"));
    m.insert("qsim.grover_s", total("qsim.grover"));
    m.insert("qsim.qft_s", total("qsim.qft"));
    for &(name, _) in PER_LAYER {
        if !m.contains_key(name) && name != "trace.overhead_frac" {
            m.insert(name, count(name));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::runtime::RunStats;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, instance: 0 }
    }

    #[test]
    fn treecomm_is_query_minus_alpha_and_rates_use_rounds() {
        let spans = [
            sp("pquery", 0, 1_000, None),
            sp("framework.query", 100, 600, Some(0)),
            sp("engine.alpha", 200, 400, Some(1)),
        ];
        let mut ledger = RoundLedger::new();
        ledger
            .record("batch/distribute", RunStats { rounds: 10, messages: 4, ..Default::default() });
        ledger.record("alpha/multi-bfs", RunStats { rounds: 20, ..Default::default() });
        ledger.record("batch/aggregate", RunStats { rounds: 15, ..Default::default() });
        ledger.record("batch/gather", RunStats { rounds: 5, ..Default::default() });
        let mut counts = Counts::new();
        add_framework_ledger(&mut counts, &ledger);
        add(&mut counts, "pquery.batches", 2.0);
        let m = derive(&spans, &counts);
        assert!((m["framework.treecomm_s"] - 300e-9).abs() < 1e-15);
        assert!((m["engine.alpha_s"] - 200e-9).abs() < 1e-15);
        assert!((m["pquery.self_s"] - 500e-9).abs() < 1e-15);
        assert!((m["framework.us_per_treecomm_round"] - 300e-9 * 1e6 / 30.0).abs() < 1e-12);
        assert!((m["engine.alpha_us_per_round"] - 200e-9 * 1e6 / 20.0).abs() < 1e-12);
        assert!((m["pquery.ns_per_batch"] - 250.0).abs() < 1e-9);
        assert_eq!(m["engine.rounds.alpha"], 20.0);
        assert_eq!(m["engine.messages"], 4.0);
        // Unused layers read 0, never NaN.
        assert_eq!(m["engine.classical_us_per_round"], 0.0);
        assert_eq!(m.len(), PER_LAYER.len() - 1);
    }
}
