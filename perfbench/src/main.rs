//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a short summary on stderr and the JSON result as the last line of
//! stdout. A traced run also writes its spans to
//! `perfbench/out/<workload>-seed<n>.spans.jsonl`. Exits 1 when a check
//! fails and 2 on bad arguments.

use dqc_perfbench::runner::{run, Config, WORKLOADS};
use dqc_perfbench::span::to_jsonl;
use dqc_perfbench::workloads::Size;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <diameter|scheduling|distinctness|statevector> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    if cfg.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, to_jsonl(&cfg.workload, &report.spans)));
        match written {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{:<34} {value:>16.6} {unit}", format!("{}/{name}", cfg.workload));
    }
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
