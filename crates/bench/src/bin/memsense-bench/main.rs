//! `memsense-bench` — record and check the recorded performance baselines.
//!
//! ```text
//! memsense-bench sim-baseline                          # measure and print only
//! memsense-bench serve-baseline --out BENCH_serve.json # record
//! memsense-bench stream-baseline --check BENCH_stream.json \
//!     --report stream_gate.json                        # CI mode
//! ```
//!
//! Each `<scenario>-baseline` subcommand measures one scenario and prints
//! its table. It records the measurement only when `--out` names a file,
//! so a bare run never overwrites a committed baseline. `--check` gates it
//! against a recorded file instead (exit 1 on any regression; `--report`
//! writes the gate as JSON). Check mode replays the load parameters the file
//! records. `--repeats` (default 3) is the best-of-N count for sim,
//! stream and model.
//!
//! * **sim** times the sim-heavy repro stages one at a time and prints each
//!   stage's simulator work counters.
//! * **serve** drives the `memsense-serve` load generator against a
//!   dedicated in-process server.
//! * **stream** replays a fixed delta stream into incremental sweep
//!   sessions at several batch sizes.
//! * **model** times `solve_cpi` against the plain bisection it replays on
//!   a fixed class × bandwidth × curve grid.
//!
//! `MEMSENSE_THREADS` is honored and defaults to 1 when unset; a check at a
//! thread count other than the recorded one fails. Use a release build;
//! debug timings are not comparable.

mod baseline;
mod model;
mod serve;
mod sim;
mod stream;

use std::path::PathBuf;
use std::process::ExitCode;

use baseline::{compare, Baseline, Scenario};

const USAGE: &str = "usage: memsense-bench {sim,serve,stream,model}-baseline \
[--out PATH] [--check PATH] [--report PATH] [--repeats N]
  --repeats applies to sim, stream and model only";

struct Args {
    scenario: Scenario,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    report: Option<PathBuf>,
    repeats: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let _exe = argv.next();
    let command = argv.next().ok_or(USAGE)?;
    let scenario = Scenario::ALL
        .into_iter()
        .find(|s| command == format!("{}-baseline", s.name()))
        .ok_or_else(|| format!("unknown command {command:?}\n{USAGE}"))?;
    let mut args = Args {
        scenario,
        out: None,
        check: None,
        report: None,
        repeats: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check" => args.check = Some(PathBuf::from(value()?)),
            "--report" => args.report = Some(PathBuf::from(value()?)),
            "--repeats" if scenario != Scenario::Serve => {
                let v = value()?;
                args.repeats = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("invalid --repeats {v:?}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn measure(args: &Args, recorded: Option<&Baseline>) -> Result<Baseline, String> {
    let repeats = args.repeats.unwrap_or(3);
    // Check mode replays the recorded load. The file is outside input, so
    // each parameter is range-checked before it sizes anything.
    let param = |key: &str| recorded.map(|b| b.param(key)).transpose();
    let bad = |key: &str| format!("baseline param {key:?} has the wrong type or is out of range");
    let count = |key: &str, default: usize| match param(key)? {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .filter(|n| (1..=1_000_000).contains(n))
            .map(|n| n as usize)
            .ok_or_else(|| bad(key)),
    };
    match args.scenario {
        Scenario::Sim => {
            eprintln!("measuring sim stages x {repeats} repeat(s), one stage at a time...");
            sim::measure(repeats)
        }
        Scenario::Serve => {
            let connections = count("connections", serve::CONNECTIONS)?;
            let duration_s = match param("duration_s")? {
                None => serve::DURATION_S,
                Some(v) => v
                    .as_f64()
                    .filter(|s| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("duration_s"))?,
            };
            let path = match param("path")? {
                None => serve::PATH,
                Some(v) => v.as_str().ok_or_else(|| bad("path"))?,
            };
            eprintln!("driving POST {path} with {connections} connections for {duration_s} s...");
            serve::measure(connections, duration_s, path)
        }
        Scenario::Stream => {
            let deltas = count("deltas", stream::DELTAS)?;
            eprintln!("replaying {deltas} deltas per batch size x {repeats} repeat(s)...");
            stream::measure(deltas, repeats)
        }
        Scenario::Model => {
            let rounds = count("rounds", model::ROUNDS)?;
            eprintln!("solving the model grid {rounds} times per solver x {repeats} repeat(s)...");
            model::measure(rounds, repeats)
        }
    }
}

/// Records or checks; `Ok(false)` means the gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let write = |path: &PathBuf, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    // Read the baseline first so a bad path fails before measurement.
    let recorded = match &args.check {
        Some(path) => Some(Baseline::read(path, args.scenario)?),
        None => None,
    };
    let current = measure(args, recorded.as_ref())?;
    let Some(recorded) = recorded else {
        print!("{}", current.to_table().to_ascii());
        match &args.out {
            Some(out) => {
                write(out, current.to_json())?;
                println!("recorded {}", out.display());
            }
            None => println!("not recorded (pass --out PATH to record)"),
        }
        return Ok(true);
    };
    let comparison = compare(&current, &recorded, args.scenario.tolerance());
    print!("{}", comparison.to_table().to_ascii());
    for msg in comparison.diagnostics() {
        eprintln!("error: {msg}");
    }
    if let Some(report) = &args.report {
        write(report, comparison.to_json())?;
        println!("wrote {}", report.display());
    }
    Ok(comparison.passed())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // One thread policy for every scenario, set before the executor reads
    // it: unset means serial, and the recorded `threads` must match.
    if std::env::var_os("MEMSENSE_THREADS").is_none() {
        std::env::set_var("MEMSENSE_THREADS", "1");
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "{} perf gate FAILED (tolerance {:.2})",
                args.scenario.name(),
                args.scenario.tolerance()
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn only_an_explicit_out_records() {
        let bare = parse(&["memsense-bench", "stream-baseline"]).unwrap();
        assert_eq!(bare.out, None, "a bare run must not pick a file to write");
        let out = parse(&["memsense-bench", "stream-baseline", "--out", "b.json"]).unwrap();
        assert_eq!(out.out, Some(PathBuf::from("b.json")));
        assert!(parse(&["memsense-bench", "stream-baseline", "--out"]).is_err());
    }
}
