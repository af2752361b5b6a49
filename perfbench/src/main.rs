//! Command-line entry point of the benchmark.
//!
//! ```text
//! an2-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one line per metric (`workload metric value unit`), then, as the
//! last line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--workload all` the metric names are prefixed with the
//! workload. Exits 1 when a correctness check fails and 2 on a usage
//! error.

use an2_perfbench::{run, Outcome, RunConfig, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: an2-perfbench [--workload pim16|wide1024|mwm16|ring1000|all] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    cfg: RunConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut cfg = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                };
            }
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("--seconds {value:?}: expected 0..=3600"))?;
            }
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args { workloads, cfg })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("an2-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prefix = args.workloads.len() > 1;
    let mut outcomes: Vec<Outcome> = Vec::new();
    for &w in &args.workloads {
        let o = run(w, &args.cfg);
        for m in &o.metrics {
            println!("{:<9} {:<28} {} {}", w.name(), m.name, m.value, m.unit);
        }
        eprintln!(
            "an2-perfbench: {} seed {}: simulated digest {:#018x}",
            w.name(),
            args.cfg.seed,
            o.digest
        );
        eprintln!("an2-perfbench: {}: {}", w.name(), o.note);
        for f in &o.failures {
            eprintln!("an2-perfbench: {}: FAILED: {f}", w.name());
        }
        outcomes.push(o);
    }

    let correct = outcomes.iter().all(Outcome::correct)
        && outcomes
            .iter()
            .flat_map(|o| &o.metrics)
            .all(|m| m.value.is_finite());
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", o.workload.name(), m.name)
                } else {
                    m.name.to_string()
                };
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{name}": {{"value": {value:?}, "unit": "{}"}}"#, m.unit)
            })
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
