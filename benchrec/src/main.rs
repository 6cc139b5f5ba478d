//! The bench of record for `ticc`.
//!
//! ```text
//! benchrec --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; `--trace 1` is a separate
//! invocation that records spans around the calls into the program
//! and reports the per-layer metrics. `--workload all` runs every
//! workload, each in a fresh process, and prints one line per
//! workload. See `README.md` for the workloads and metrics.

mod client;
mod detect;
mod growth;
mod inproc;
mod orders;
mod report;
mod restart;
mod served;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Instant;

/// Where runs leave their span logs and scratch files (relative to
/// the working directory, the repository root).
pub const OUT_DIR: &str = ".bench_out";

pub const WORKLOADS: [&str; 3] = ["served_orders", "domain_growth", "server_restart"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs every workload in a fresh process of this binary (peak RSS is
/// per process) and prints each one's result line, labelled.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last() {
            Some(line) if out.status.success() => {
                println!("{{\"workload\": \"{w}\", \"result\": {line}}}")
            }
            _ => {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                eprintln!("workload {w} failed: {}", out.status);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchrec: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = match args.workload.as_str() {
        "served_orders" => served::run(&args, process_start),
        "domain_growth" => growth::run(&args, process_start),
        "server_restart" => restart::run(&args, process_start),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    for note in &report.tally.notes {
        eprintln!("benchrec: {note}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = parse_args(&argv(
            "--workload domain_growth --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
    }
}
