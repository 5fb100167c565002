//! Tiny-size runs of all four workloads: every check passes, the traced
//! run's drift guard holds, and every metric is reported.

use dqc_perfbench::layers::PER_LAYER;
use dqc_perfbench::runner::{run, Config, Report, WORKLOADS};
use dqc_perfbench::workloads::Size;

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    run(&Config { workload: workload.into(), seed, seconds: 0.01, trace, size: Size::Tiny })
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in WORKLOADS {
        let r = tiny(w, 1, false);
        assert!(r.correct, "{w}: {:?}", r.errors);
        assert_eq!(r.failed, 0, "{w}");
        assert!(r.attempted >= 1, "{w}");
        let names: Vec<_> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(
            names,
            ["solve_s", "setup_s", "peak_rss_mb", "ok_frac", "success_rate", "model_cost"],
            "{w}"
        );
        for &(name, value, _) in &r.metrics {
            assert!(value.is_finite() && value > 0.0, "{w}/{name} = {value}");
        }
        assert_eq!(r.metrics[3].1, 1.0, "{w}: ok_frac");
    }
}

#[test]
fn every_workload_passes_the_drift_guard_traced() {
    for w in WORKLOADS {
        let r = tiny(w, 2, true);
        assert!(r.correct, "{w}: {:?}", r.errors);
        let names: Vec<_> = r.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{w}");
        assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{w}");
        assert!(!r.spans.is_empty(), "{w}");
    }
}

#[test]
fn layers_each_workload_bypasses_read_zero() {
    let value = |r: &Report, name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
    let distinctness = tiny("distinctness", 3, true);
    for name in ["engine.messages", "framework.batches", "qsim.kernel_launches", "graph.gen_s"] {
        assert_eq!(value(&distinctness, name), 0.0, "distinctness/{name}");
    }
    assert!(value(&distinctness, "pquery.batches") > 0.0);
    let scheduling = tiny("scheduling", 3, true);
    assert_eq!(value(&scheduling, "engine.alpha_s"), 0.0);
    assert_eq!(value(&scheduling, "engine.rounds.alpha"), 0.0);
    assert!(value(&scheduling, "engine.rounds.classical") > 0.0);
    let diameter = tiny("diameter", 3, true);
    assert!(value(&diameter, "engine.rounds.alpha") > 0.0);
    assert_eq!(value(&diameter, "graph.apsp_calls"), 4.0);
    let statevector = tiny("statevector", 3, true);
    assert!(value(&statevector, "qsim.bytes_computed") > 0.0);
    assert_eq!(value(&statevector, "engine.messages"), 0.0);
}

#[test]
fn model_cost_and_rates_repeat_for_a_seed() {
    for w in WORKLOADS {
        let a = tiny(w, 5, false);
        let b = tiny(w, 5, false);
        assert!(a.pass.same_results(&b.pass), "{w}");
        for i in 3..6 {
            assert_eq!(a.metrics[i], b.metrics[i], "{w}");
        }
    }
}
