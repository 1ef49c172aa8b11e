//! Host-time benchmark of the SparTen reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload figures-cold|dse-cold|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Untraced (`--trace 0`), it measures the
//! end-to-end metrics; traced (`--trace 1`), it replays the same work
//! with spans around each layer's public calls and reports per-layer
//! metrics. Either way it checks the program's outputs against the
//! committed `results/` and prints one JSON object as its last line. See
//! `hostbench/README.md`.

mod common;
mod exec;
mod replay;
mod serve;
mod stats;
mod trace;
mod vfs;

use std::process::ExitCode;

const USAGE: &str = "usage: hostbench --workload figures-cold|dse-cold|serve-mixed \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("results").is_dir() {
        eprintln!("hostbench: no results/ here; run from the repository root");
        return ExitCode::from(2);
    }
    let outcome = match (args.workload.as_str(), args.trace) {
        ("figures-cold", false) => exec::run(&exec::FIGURES, args.seconds),
        ("figures-cold", true) => exec::traced(&exec::FIGURES),
        ("dse-cold", false) => exec::run(&exec::DSE, args.seconds),
        ("dse-cold", true) => exec::traced(&exec::DSE),
        ("serve-mixed", trace) => serve::run(args.seed, args.seconds, trace),
        (other, _) => {
            eprintln!("hostbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if outcome.metrics.is_empty() {
        eprintln!("hostbench: nothing was measured");
        return ExitCode::FAILURE;
    }
    // Any failure (a quarantined point, a failed job, a refused or
    // failed request, an output mismatch) means the program did not
    // produce the outputs it should have.
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if outcome.failed > 0 {
        eprintln!(
            "hostbench: {} of {} failed, {} of them output mismatches",
            outcome.failed, outcome.attempted, outcome.mismatches
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
