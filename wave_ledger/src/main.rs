//! `wave_ledger`: the SmartFlux wave benchmark.
//!
//! ```text
//! wave_ledger --workload <aqhi_retrain|lrb_served> --seed <n>
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` a separate, instrumented run measures the per-layer ones.
//! Every run checks the program's outputs, prints each metric by name
//! with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! See `README.md` next to this file.

#![forbid(unsafe_code)]

mod inproc;
mod ledger;
#[cfg(test)]
mod selftest;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: wave_ledger --workload <aqhi_retrain|lrb_served> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["aqhi_retrain", "lrb_served"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wave_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "wave_ledger {} seed={} seconds={} trace={} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let report = match args.workload.as_str() {
        "aqhi_retrain" => inproc::run(
            &inproc::AQHI_RETRAIN,
            args.seed,
            args.seconds,
            args.trace,
            "aqhi_retrain",
        ),
        _ => served::run(args.seed, args.seconds, args.trace),
    };
    print!("{}", report.render());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(argv(
            "--workload aqhi_retrain --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "aqhi_retrain");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(argv("--workload aqhi_retrain --trace 2")).is_err());
        assert!(parse(argv("--workload aqhi_retrain --seconds")).is_err());
        assert!(parse(argv("--workload aqhi_retrain --seconds -1")).is_err());
        assert!(parse(argv("--workload aqhi_retrain --bogus 1")).is_err());
    }
}
