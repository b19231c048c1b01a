//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a provenance header, every metric by name
//! with its unit, the output checks' verdict, and as the last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero when an output check or operation failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{run, Config, Workload};

const USAGE: &str = "usage: perfbench --workload <world_build|serve_interactive> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(started: Instant) -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed '{value}'"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        minimal: false,
        corrupt_expected: false,
        out_dir: PathBuf::from(".bench_out"),
        started,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cfg = match parse_args(started) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("provenance {}", report.provenance.to_json());
    if report.traced {
        println!(
            "{:<28} {:>6} {:>12} {:>12}",
            "span", "calls", "wall_s", "self_s"
        );
        for (name, calls, wall, self_s) in &report.layer_table {
            println!("{name:<28} {calls:>6} {wall:>12.6} {self_s:>12.6}");
        }
        if let Some(p) = &report.trace_file {
            println!("trace file {}", p.display());
        }
    } else {
        println!("latency samples {}", report.e2e.latency_samples);
    }
    for (name, unit, value) in report.metrics() {
        println!("metric {name} = {value} {unit}");
    }
    let t = &report.tally;
    println!(
        "operations attempted {} failed {} (failed_frac {})",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for f in &t.failures {
        println!("failure: {f}");
    }
    println!(
        "checks {}",
        if report.correct() { "passed" } else { "FAILED" }
    );
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
