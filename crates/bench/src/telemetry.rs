//! Telemetry capture for the experiment suite (`reproduce --telemetry`).
//!
//! [`collect`] runs one *representative* workload per experiment id under a
//! [`Collector`] and returns it ready for export — the Chrome-trace JSONL
//! and metrics JSON that `reproduce -- <id> --telemetry <dir>` writes. The
//! workload is a single cell of the experiment's sweep, not the whole
//! table: the point is a phase/round/congestion profile of the protocols
//! involved, and the full sweep is already what [`run_one`] measures.
//!
//! Three capture styles, matching how each experiment does its work:
//!
//! * **network-level** (E1, E16, E19): protocols run directly with a
//!   collector attached (`net.exec(..).telemetry(..)`), so every round is
//!   sampled and per-edge loads accumulate — E19 additionally exercises the
//!   [`Reliable`] retry counters under seeded
//!   message loss;
//! * **ledger-level** (E4–E13, E15, E17): the `dqc_core` drivers return a
//!   [`RoundLedger`](congest::RoundLedger) whose phases are folded in via
//!   [`Collector::absorb_ledger`], plus batch-width histograms from the
//!   `pquery` ledger where the driver exposes them;
//! * **counter-level** (E2, E3, E5, E14, E18): pure `pquery` emulations
//!   log batch widths/idle slots, and the `qsim` statevector experiments
//!   fold in [`qsim::metrics`] snapshots.
//!
//! [`run_one`]: crate::experiments::run_one

use crate::experiments::Scale;
use congest::bfs::{build_bfs_tree, BfsTreeProtocol};
use congest::conformance::FloodProtocol;
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path};
use congest::runtime::Network;
use congest::telemetry::Collector;
use congest::tree_comm::{BroadcastRegisterProtocol, Register, Schedule};
use dqc_core::amplification::{amplitude_amplification, PreparationSubroutine};
use dqc_core::deutsch_jozsa::{quantum_dj, DjInstance};
use dqc_core::distinctness::{quantum_distinctness, DistinctnessInstance};
use dqc_core::eccentricity::quantum_diameter;
use dqc_core::girth::quantum_girth;
use dqc_core::scheduling::{quantum_meeting_scheduling, MeetingInstance};
use pquery::deutsch_jozsa::DjAnswer;
use pquery::minimum::Extremum;
use pquery::oracle::{BatchSource, VecSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fold a finished [`VecSource`] ledger into `col`: batch/query/idle
/// counters plus the batch-width histogram (E15's pathology — long runs of
/// widths far below `p` — shows up as mass in the low buckets).
fn absorb_source(col: &mut Collector, src: &VecSource) {
    col.add("pquery.batches", src.batches() as u64);
    col.add("pquery.queries", src.queries());
    col.add("pquery.idle_slots", src.idle_slots());
    for &w in src.batch_widths() {
        col.observe("pquery.batch_width", w as u64);
    }
}

/// Run `work` with [`qsim::metrics`] enabled and fold the counter snapshot
/// into `col`. The counters are process-global, so reset/enable bracket the
/// workload tightly.
fn with_qsim_metrics(col: &mut Collector, work: impl FnOnce()) {
    qsim::metrics::reset();
    qsim::metrics::enable(true);
    work();
    qsim::metrics::enable(false);
    for (name, v) in qsim::metrics::snapshot() {
        if v > 0 {
            col.add(name, v);
        }
    }
}

/// Telemetry for one experiment id (`"e1"`..`"e19"`, case-insensitive) at
/// `scale`; `None` for unknown ids. Deterministic: same id + scale → the
/// same collector contents and byte-identical exports (see the
/// `congest::telemetry` module docs).
///
/// # Panics
///
/// Panics if a workload's network run fails — the same inputs run clean in
/// the experiment suite, so a failure here is a harness bug.
pub fn collect(id: &str, scale: Scale) -> Option<Collector> {
    let mut col = Collector::new();
    match id.to_ascii_lowercase().as_str() {
        // Lemma 7 traffic: pipelined vs store-and-forward register
        // distribution down a path — the round samples show the pipeline
        // ramp vs the naive hop-by-hop bursts.
        "e1" | "e16" => {
            let (d, q) = match scale {
                Scale::Quick => (32, 256),
                Scale::Full => (64, 1024),
            };
            let g = path(d + 1);
            let net = Network::new(&g);
            let views = build_bfs_tree(&net, 0).expect("path is connected").views;
            let chunk = (net.cap_bits().saturating_sub(1)).clamp(1, 64);
            for (name, schedule) in [
                ("distribute/pipelined", Schedule::Pipelined),
                ("distribute/naive", Schedule::StoreAndForward),
            ] {
                col.enter(name);
                net.exec(BroadcastRegisterProtocol::instances(
                    &views,
                    Register::from_value(q, 0x00DE_C0DE),
                    chunk,
                    schedule,
                ))
                .telemetry(&mut col)
                .run()
                .expect("distribution");
                col.exit();
            }
        }
        // Pure pquery emulations: Grover search (Lemma 2) and ℓ-fold
        // extremum (Lemma 3) batch ledgers.
        "e2" | "e3" | "e5" => {
            let (k, p) = match scale {
                Scale::Quick => (1 << 10, 8),
                Scale::Full => (1 << 14, 32),
            };
            let mut rng = StdRng::seed_from_u64(0x7e1e);
            let data: Vec<u64> = (0..k as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let mut src = VecSource::new(data, p);
            match id {
                "e2" => {
                    let out = pquery::grover::search_one(&mut src, &|v| v % 257 == 0, &mut rng);
                    col.add("pquery.found", out.found.is_some() as u64);
                }
                "e3" => {
                    let (all, _) =
                        pquery::grover::search_all(&mut src, &|v| v % 101 == 0, &mut rng);
                    col.add("pquery.found", all.len() as u64);
                }
                _ => {
                    let out = pquery::minimum::find_extremum(&mut src, Extremum::Min, &mut rng);
                    col.add("pquery.found", out.index as u64);
                }
            }
            absorb_source(&mut col, &src);
        }
        // Element distinctness over the CONGEST oracle (Lemma 12).
        "e4" | "e7" => {
            let (n, k) = match scale {
                Scale::Quick => (20, 40),
                Scale::Full => (30, 120),
            };
            let g = grid(n / 5, 5);
            let net = Network::new(&g);
            let inst = DistinctnessInstance::random(g.n(), k, Some((k / 5, 4 * k / 5)), 4);
            let res = quantum_distinctness(&net, &inst, 4).expect("distinctness");
            col.absorb_ledger("distinctness", &res.ledger);
        }
        // Meeting scheduling = distributed maximum finding (Theorem 13);
        // E15 is its idle-width ablation on the same driver.
        "e6" | "e15" => {
            let (n, k) = match scale {
                Scale::Quick => (20, 32),
                Scale::Full => (30, 96),
            };
            let g = grid(n / 5, 5);
            let net = Network::new(&g);
            let inst = MeetingInstance::random(g.n(), k, 0.3, 6);
            let res = quantum_meeting_scheduling(&net, &inst, 6).expect("scheduling");
            col.add("pquery.batches", res.batches as u64);
            col.absorb_ledger("meeting-scheduling", &res.ledger);
        }
        // Exact distributed Deutsch–Jozsa (§4.3).
        "e8" => {
            let (n, k) = match scale {
                Scale::Quick => (20, 64),
                Scale::Full => (30, 256),
            };
            let g = grid(n / 5, 5);
            let net = Network::new(&g);
            let inst = DjInstance::random(g.n(), k, DjAnswer::Balanced, 8);
            let res = quantum_dj(&net, &inst, 8).expect("network").expect("promise holds");
            col.add("pquery.batches", res.batches as u64);
            col.absorb_ledger("deutsch-jozsa", &res.ledger);
        }
        // Diameter/radius via quantum eccentricities (Theorem 16).
        "e9" | "e10" => {
            let g = match scale {
                Scale::Quick => grid(5, 4),
                Scale::Full => grid(8, 6),
            };
            let net = Network::new(&g);
            let res = quantum_diameter(&net, 10).expect("diameter");
            col.absorb_ledger("diameter", &res.ledger);
        }
        // Girth search (Theorem 21): triangle phase + level sweeps.
        "e11" | "e12" => {
            let g = match scale {
                Scale::Quick => grid(5, 4),
                Scale::Full => grid(7, 6),
            };
            let net = Network::new(&g);
            let res = quantum_girth(&net, 0.5, 12).expect("girth");
            col.absorb_ledger("girth", &res.ledger);
        }
        // Distributed amplitude amplification / estimation (Lemmas 27–28):
        // the iterate structure (prepare-broadcast, zero-check AND) is the
        // interesting span shape.
        "e13" | "e17" => {
            let g = grid(6, 5);
            let net = Network::new(&g);
            let p_good = match scale {
                Scale::Quick => 0.1,
                Scale::Full => 0.02,
            };
            let res =
                amplitude_amplification(&net, PreparationSubroutine::new(16, p_good), 0.1, 13)
                    .expect("amplification");
            col.add("amplify.success", res.success as u64);
            col.absorb_ledger("amplitude-amplification", &res.ledger);
        }
        // Statevector ground truth (qsim): QFT + Grover circuits with the
        // kernel/fusion counters enabled.
        "e14" | "e18" => {
            let qubits = match scale {
                Scale::Quick => 10,
                Scale::Full => 16,
            };
            with_qsim_metrics(&mut col, || {
                let qs: Vec<usize> = (0..qubits).collect();
                let mut s = qsim::State::zero(qubits);
                qsim::qft::qft_circuit(&qs).fuse().apply(&mut s);
                let mut rng = StdRng::seed_from_u64(14);
                let _ = qsim::grover::grover_search(1 << qubits.min(10), |i| i == 3, &mut rng);
            });
        }
        // Fault tolerance (the network_diagnostics showcase shape):
        // Reliable-wrapped flood, BFS, and register broadcast on grid(6,5)
        // under seeded drops — retry/backoff counters plus the congestion
        // heatmap of the recovery traffic.
        "e19" => {
            let g = grid(6, 5);
            let rate = match scale {
                Scale::Quick => 0.2,
                Scale::Full => 0.3,
            };
            let clean_net = Network::new(&g);
            let views = build_bfs_tree(&clean_net, 0).expect("connected").views;
            let plan = FaultPlan::new(19).with_drop_rate(rate);
            let net = Network::new(&g).with_faults(plan);
            let retry = RetryConfig::default();

            col.enter("reliable/flood");
            net.exec(Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), retry))
                .telemetry(&mut col)
                .run()
                .expect("reliable flood");
            col.exit();

            col.enter("reliable/bfs");
            net.exec(Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), retry))
                .telemetry(&mut col)
                .run()
                .expect("reliable bfs");
            col.exit();

            col.enter("reliable/broadcast");
            net.exec(Reliable::wrap_all(
                BroadcastRegisterProtocol::instances(
                    &views,
                    Register::from_value(48, 0x0BAD_CAFE_F00D),
                    6,
                    Schedule::Pipelined,
                ),
                retry,
            ))
            .telemetry(&mut col)
            .run()
            .expect("reliable broadcast");
            col.exit();
        }
        _ => return None,
    }
    Some(col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(collect("e99", Scale::Quick).is_none());
        assert!(collect("all", Scale::Quick).is_none());
    }

    #[test]
    fn network_level_capture_has_spans_rounds_and_edges() {
        let col = collect("e1", Scale::Quick).expect("e1");
        assert!(col.spans().iter().any(|s| s.name == "distribute/pipelined"));
        assert!(col.spans().iter().any(|s| s.name == "distribute/naive"));
        assert!(!col.round_samples().is_empty());
        assert!(!col.edge_loads().is_empty());
        assert!(col.counter("engine.bits") > 0);
    }

    #[test]
    fn ledger_level_capture_has_setup_phases() {
        let col = collect("e6", Scale::Quick).expect("e6");
        let names: Vec<_> = col.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"meeting-scheduling"), "protocol root span, got {names:?}");
        assert!(names.iter().any(|n| n.contains("leader-election")));
        assert!(col.counter("pquery.batches") > 0);
    }

    #[test]
    fn pquery_capture_logs_widths_and_idle_slots() {
        let col = collect("e2", Scale::Quick).expect("e2");
        assert!(col.counter("pquery.batches") > 0);
        let h = col.histogram("pquery.batch_width").expect("width histogram");
        assert_eq!(h.count, col.counter("pquery.batches"));
    }

    #[test]
    fn qsim_capture_folds_kernel_counters() {
        let col = collect("e14", Scale::Quick).expect("e14");
        assert!(col.counter("qsim.fuse_gates_in") >= col.counter("qsim.fuse_groups"));
        assert!(col.counter("qsim.matrix_applies") > 0);
    }

    #[test]
    fn faulted_capture_records_retries() {
        let col = collect("e19", Scale::Quick).expect("e19");
        assert!(col.counter("reliable.sends") > 0);
        assert!(col.counter("reliable.retries") > 0, "20% drop must force retransmits");
        assert!(col.counter("engine.dropped") > 0);
        assert!(col.spans().iter().any(|s| s.name == "reliable/flood"));
    }
}
