//! Regenerate the paper's result tables.
//!
//! ```text
//! reproduce [--list] [--quick] [--check] [--json FILE] [--telemetry DIR] [all | e1 .. e19]...
//! ```
//!
//! `--list` prints the experiment catalog (id + one-line description) and
//! exits. Unknown experiment ids are rejected before anything runs, with a
//! nonzero exit status.
//!
//! `--check` additionally runs the model-conformance sweep — the grid of
//! audited fault-free and faulted protocol runs — after the experiments,
//! and exits nonzero if any cell reports a violation or an incorrect
//! outcome.
//!
//! `--telemetry DIR` re-runs one representative workload per selected
//! experiment under a `congest::telemetry::Collector` and writes
//! `DIR/<id>.trace.jsonl` (Chrome trace-event / Perfetto-loadable, round
//! index timebase) and `DIR/<id>.metrics.json` (counters, histograms,
//! span rollup, per-edge loads).

use dqc_bench::{catalog, run_one, Scale};

fn conformance_sweep() -> bool {
    let cells = dqc_bench::harness::conformance_grid(19);
    let mut ok = true;
    println!("== conformance sweep: {} audited cells ==", cells.len());
    for c in &cells {
        if c.violations > 0 || !c.correct {
            ok = false;
            println!(
                "  FAIL {}/{} (faulted={}): {} violations, correct={}",
                c.protocol, c.graph, c.faulted, c.violations, c.correct
            );
        }
    }
    if ok {
        println!("  all cells conformant: zero violations, outcomes correct");
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json_path: Option<String> = None;
    let mut telemetry_dir: Option<String> = None;
    let mut check = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--json" => json_path = it.next(),
            "--telemetry" => telemetry_dir = it.next(),
            "--check" => check = true,
            "--list" => {
                println!("experiments:");
                for (id, what) in catalog() {
                    println!("  {id:<4} {what}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [--list] [--quick] [--check] [--json FILE] \
                     [--telemetry DIR] [all | e1 .. e19]..."
                );
                return;
            }
            other => wanted.push(other.to_ascii_lowercase()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = catalog().iter().map(|(id, _)| id.to_string()).collect();
    }
    let unknown: Vec<&String> =
        wanted.iter().filter(|w| !catalog().iter().any(|(id, _)| id == w)).collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("unknown experiment: {id}");
        }
        eprintln!("run `reproduce --list` for the catalog");
        std::process::exit(2);
    }
    let mut tables = Vec::new();
    for id in &wanted {
        let t = run_one(id, scale).expect("catalog ids all resolve");
        println!("{}", t.render());
        tables.push(t);
    }
    if let Some(path) = json_path {
        let json = dqc_bench::table::tables_to_json(&tables);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
    if let Some(dir) = telemetry_dir {
        std::fs::create_dir_all(&dir).expect("create telemetry dir");
        let mut uncollectable = false;
        for id in &wanted {
            let Some(col) = dqc_bench::telemetry::collect(id, scale) else {
                eprintln!("no telemetry collector for experiment: {id}");
                uncollectable = true;
                continue;
            };
            let trace = format!("{dir}/{id}.trace.jsonl");
            let metrics = format!("{dir}/{id}.metrics.json");
            std::fs::write(&trace, col.to_chrome_jsonl()).expect("write trace");
            std::fs::write(&metrics, col.metrics_json()).expect("write metrics");
            eprintln!("wrote {trace} + {metrics}");
        }
        if uncollectable {
            std::process::exit(2);
        }
    }
    if check && !conformance_sweep() {
        std::process::exit(1);
    }
}
