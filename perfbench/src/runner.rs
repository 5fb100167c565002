//! One benchmark run: rounds of a fresh set-up followed by a pass over the
//! workload's operations, until the time budget is spent.
//!
//! With tracing off every pass calls the library drivers and the run
//! reports the end-to-end metrics. With tracing on, each round adds a
//! traced pass: it gives the per-layer metrics, the pair gives the tracing
//! overhead, and every operation of the traced pass must return what the
//! untraced pass returned (the drift guard).

use crate::layers::{self, Counts, PER_LAYER};
use crate::span::{self, Span};
use crate::tally::{ratio, Tally};
use crate::workloads::diameter::Diameter;
use crate::workloads::distinctness::Distinctness;
use crate::workloads::scheduling::Scheduling;
use crate::workloads::statevector::Statevector;
use crate::workloads::{Size, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds (a set-up, then its passes) at least made by an untraced run,
/// however short the time budget; a traced run makes at least one.
pub const MIN_ROUNDS: usize = 3;

/// The workload names. `BENCHMARK.json` lists `scheduling` and
/// `statevector`; `diameter` and `distinctness` run by hand (see the
/// README).
pub const WORKLOADS: [&str; 4] = ["diameter", "scheduling", "distinctness", "statevector"];

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Time budget of the rounds, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// No operation failed, every pass repeated the first, and (traced)
    /// the drift guard held.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the first set-up and the first traced pass.
    pub spans: Vec<Span>,
    /// Why the run is not correct.
    pub errors: Vec<String>,
    /// One pass's operation counts (every pass repeats them).
    pub pass: Tally,
}

/// Run one workload.
///
/// # Panics
///
/// Panics on an unknown workload name; callers validate it first.
pub fn run(cfg: &Config) -> Report {
    // Single-threaded kernels: the timings measure the program, not the
    // thread scheduler.
    qsim::kernels::set_thread_cap(1);
    match cfg.workload.as_str() {
        "diameter" => run_with::<Diameter>(cfg),
        "scheduling" => run_with::<Scheduling>(cfg),
        "distinctness" => run_with::<Distinctness>(cfg),
        "statevector" => run_with::<Statevector>(cfg),
        other => panic!("unknown workload {other}"),
    }
}

fn run_with<W: Workload>(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    let mut untraced_s = Vec::new();
    let mut fastest = Vec::new();
    let mut pass_layers = Vec::new();
    let mut first: Option<Tally> = None;
    let mut traced_s = Vec::new();
    let min_rounds = if cfg.trace { 1 } else { MIN_ROUNDS };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    // The first set-up of a process maps fresh memory from the OS; later
    // ones reuse memory the allocator already holds, as in any process that
    // has run for a while. This warm-up is not measured.
    drop(W::networks(&W::setup(cfg.seed, cfg.size)));
    // Each round sets up afresh before its passes, so that set-up samples
    // the same stretch of host time as the passes do; every set-up must
    // give inputs on which the passes repeat the first pass exactly. A
    // round starts only if it should end by the deadline, judged by the
    // last round's length, so that a run lasts about `--seconds`.
    let mut last_round = Duration::ZERO;
    while untraced_s.len() < min_rounds || Instant::now() + last_round < deadline {
        let round_start = Instant::now();
        if cfg.trace {
            span::start();
        }
        let t0 = Instant::now();
        let inputs = W::setup(cfg.seed, cfg.size);
        let nets = W::networks(&inputs);
        setup_s.push(t0.elapsed().as_secs_f64());
        if cfg.trace {
            let spans = span::stop();
            setup_layers.push(layers::derive(&spans, &Counts::new()));
            if setup_s.len() == 1 {
                report.spans = spans;
            }
        }

        // Traced rounds alternate which pass runs first, so that neither
        // always follows the fresh set-up.
        let order: &[bool] = match (cfg.trace, untraced_s.len() % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            if traced {
                let mut counts = Counts::new();
                span::start();
                let t0 = Instant::now();
                let tally = W::pass(&inputs, &nets, Some(&mut counts));
                let elapsed = t0.elapsed().as_secs_f64();
                let spans = span::stop();
                if traced_s.is_empty() {
                    report.spans.extend(rebase(&spans, report.spans.len()));
                }
                traced_s.push(elapsed);
                drift_guard(&mut report, first.as_ref().expect("untraced pass ran"), &tally);
                pass_layers.push(layers::derive(&spans, &counts));
                check_repeats(&mut report, &mut first, tally);
            } else {
                let t0 = Instant::now();
                let tally = W::pass(&inputs, &nets, None);
                untraced_s.push(t0.elapsed().as_secs_f64());
                keep_fastest(&mut fastest, &tally.op_s);
                check_repeats(&mut report, &mut first, tally);
            }
        }
        last_round = round_start.elapsed();
    }

    let pass = first.expect("one pass ran");
    // Each operation at its fastest: on a shared host the speed of
    // identical work moves by tens of percent, in stretches of seconds to
    // minutes. A slow stretch slows the median pass of a run, while most
    // runs still meet a fast moment for each short operation.
    let solve_s: f64 = fastest.iter().sum();
    let median_pass_s = median(&untraced_s);
    let shown: Vec<String> = untraced_s.iter().map(|t| format!("{t:.3}")).collect();
    eprintln!(
        "{} passes, s: {}; median {median_pass_s:.3} s; operations at their fastest {solve_s:.3} s",
        untraced_s.len(),
        shown.join(" ")
    );
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|e| {
        report.errors.push(e);
        0.0
    });
    report.metrics = if cfg.trace {
        let mut m = median_by_name(&pass_layers);
        let setup = median_by_name(&setup_layers);
        for name in ["graph.gen_s", "graph.truth_s"] {
            m.insert(name, setup[name]);
        }
        m.insert("trace.overhead_frac", median(&traced_s) / median_pass_s - 1.0);
        PER_LAYER.iter().map(|&(name, unit)| (name, m[name], unit)).collect()
    } else {
        vec![
            ("solve_s", solve_s, "s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("ok_frac", ratio(report.attempted - report.failed, report.attempted), "ratio"),
            ("success_rate", pass.success_rate(), "ratio"),
            ("model_cost", pass.model_cost as f64, "count"),
        ]
    };
    report.correct = report.failed == 0 && report.errors.is_empty();
    report.pass = pass;
    report
}

/// Lower each operation's fastest time to this pass's time where faster.
fn keep_fastest(fastest: &mut Vec<f64>, op_s: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(op_s);
    }
    for (f, &t) in fastest.iter_mut().zip(op_s) {
        *f = f.min(t);
    }
}

/// Count a pass into the report and check it repeats the first pass.
fn check_repeats(report: &mut Report, first: &mut Option<Tally>, tally: Tally) {
    report.attempted += tally.attempted;
    report.failed += tally.failed();
    match first {
        None => *first = Some(tally),
        Some(f) if !f.same_results(&tally) => {
            report.errors.push("a pass returned different results from the first".into())
        }
        Some(_) => {}
    }
}

/// Every traced operation must return the untraced answer, rounds and
/// batches.
fn drift_guard(report: &mut Report, untraced: &Tally, traced: &Tally) {
    for (u, t) in untraced.prints.iter().zip(&traced.prints) {
        if u != t {
            report.errors.push(format!("drift guard: {} gave {t:?}, library gave {u:?}", u.id));
        }
    }
    if untraced.prints.len() != traced.prints.len() {
        report.errors.push(format!(
            "drift guard: {} operations returned traced, {} untraced",
            traced.prints.len(),
            untraced.prints.len()
        ));
    }
}

/// Shift parent indices of spans appended after `offset` others.
fn rebase(spans: &[Span], offset: usize) -> Vec<Span> {
    spans.iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s.clone() }).collect()
}

/// Median of each metric over the samples.
fn median_by_name(samples: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = samples.first() {
        for &name in first.keys() {
            let values: Vec<f64> = samples.iter().map(|m| m[name]).collect();
            out.insert(name, median(&values));
        }
    }
    out
}

/// Median (mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// High-water resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::print;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_keeps_each_operations_minimum() {
        let mut fastest = Vec::new();
        keep_fastest(&mut fastest, &[3.0, 1.0, 2.0]);
        keep_fastest(&mut fastest, &[2.0, 4.0, 2.5]);
        keep_fastest(&mut fastest, &[2.5, 0.5, 3.0]);
        assert_eq!(fastest, [2.0, 0.5, 2.0]);
    }

    #[test]
    fn drift_guard_names_the_instance() {
        let mut a = Tally::default();
        a.record("i0/q".into(), || Ok::<_, ()>(1), |_| (verdict(), print(5, 10, 2)));
        a.record("i1/q".into(), || Ok::<_, ()>(1), |_| (verdict(), print(6, 10, 2)));
        let mut b = a.clone();
        b.prints[1].rounds = 11;
        let mut report = Report::default();
        drift_guard(&mut report, &a, &a);
        assert!(report.errors.is_empty());
        drift_guard(&mut report, &a, &b);
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].contains("i1/q"), "{}", report.errors[0]);
    }

    fn verdict() -> crate::tally::Verdict {
        crate::tally::Verdict { pass: true, hit: None, cost: 0 }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("solve_s", 1.25, "s"), ("model_cost", 7.0, "count")],
            ..Default::default()
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"model_cost\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }
}
